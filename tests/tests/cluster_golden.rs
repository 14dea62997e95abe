//! Golden bytes of the cluster sweep exports.
//!
//! `run_cluster` is a pure function of the seed, so the result store and
//! the chrome-trace JSON of a small traced sweep are pinned here by
//! FNV-1a digest. Cross-`--jobs` tests only prove that two runs of the
//! same code agree; these digests prove that a change to how the cluster
//! dispatches (keep-alive percentiles, the in-flight list, the candidate
//! slate, the attempt chain) leaves every exported byte as it was.
//!
//! If a deliberate model change moves a digest, re-pin it from the
//! `actual` line of the failure message and say why in the changelog.

use sebs::config::SuiteConfig;
use sebs::experiments::cluster::{run_cluster, ClusterSweepConfig};
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_platform::ProviderKind;
use sebs_sim::SimDuration;
use sebs_trace::chrome_trace_json;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every scheduler × every keep-alive × a calm and a stormy fault rate on
/// a 4-host region, loaded enough to queue, shed, crash mid-flight, fail
/// over and (under `hybrid`) retune and prewarm.
fn traced_sweep_exports() -> Vec<(&'static str, String)> {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.hosts = 4;
    sweep.host_cpus = 2;
    sweep.queue_depth = 4;
    sweep.functions = 10;
    sweep.target_invocations = 3_000;
    sweep.horizon = SimDuration::from_secs(900);
    sweep.schedulers = vec![
        SchedulerKind::LeastLoaded,
        SchedulerKind::RandomK(2),
        SchedulerKind::Locality,
    ];
    sweep.keepalives = vec![
        KeepAliveKind::Provider,
        KeepAliveKind::Fixed(600),
        KeepAliveKind::Hybrid,
    ];
    sweep.host_fault_rates = vec![0.0, 0.4];
    let config = SuiteConfig::fast()
        .with_seed(2021)
        .with_jobs(2)
        .with_trace(true);
    let model = sweep.synthetic_model(config.seed);
    let result = run_cluster(&config, &sweep, &model);
    assert_eq!(result.series.len(), 18);
    let crashes: u64 = result.series.iter().map(|s| s.crash_failures).sum();
    let retunes: u64 = result.series.iter().map(|s| s.retunes).sum();
    let shed: u64 = result.series.iter().map(|s| s.shed).sum();
    assert!(
        crashes > 0 && retunes > 0 && shed > 0,
        "the sweep must exercise crashes ({crashes}), retunes ({retunes}) and shedding ({shed})"
    );
    assert!(!result.traces.is_empty());
    vec![
        ("store", result.to_store().to_json()),
        ("chrome", chrome_trace_json(&result.traces)),
    ]
}

#[test]
fn cluster_exports_match_pinned_digests() {
    let got: Vec<(&str, u64)> = traced_sweep_exports()
        .iter()
        .map(|(name, body)| (*name, fnv1a(body.as_bytes())))
        .collect();
    let pinned: [(&str, u64); 2] = [
        ("store", 0x4916_4808_d7fc_9d1b),
        ("chrome", 0x05c4_3cd4_b224_892c),
    ];
    let show = |v: &[(&str, u64)]| {
        v.iter()
            .map(|(n, d)| format!("{n}={d:#018x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(
        got,
        pinned,
        "cluster export digests moved\n  actual {}\n  pinned {}",
        show(&got),
        show(&pinned)
    );
}

//! Golden bytes of the observer exports.
//!
//! The metrics hub, the trace sampler and the report renderer are pure
//! functions of the seed, so their exports are pinned here by FNV-1a
//! digest. Cross-`--jobs` tests only prove that two runs of the same code
//! agree; these digests prove that a change to how the observers store
//! what they keep (series handles, sampled points, admission before the
//! span tree is built) leaves every exported byte as it was.
//!
//! If a deliberate model change moves a digest, re-pin it from the
//! `actual` line of the failure message and say why in the changelog.

use sebs::experiments::{run_availability, run_fleet, FleetConfig, LabeledPolicy};
use sebs::{fleet_report, ReportFormat, Suite, SuiteConfig};
use sebs_platform::ProviderKind;
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::SimDuration;
use sebs_telemetry::{csv_timeseries, prometheus_text};
use sebs_trace::{chrome_trace_json, SamplerSpec};
use sebs_workloads::{Language, Scale};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(label: &str, actual: &[(&str, String)], pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = actual
        .iter()
        .map(|(name, body)| (*name, fnv1a(body.as_bytes())))
        .collect();
    let show = |v: &[(&str, u64)]| {
        v.iter()
            .map(|(n, d)| format!("{n}={d:#018x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(
        got,
        pinned,
        "{label} export digests moved\n  actual {}\n  pinned {}",
        show(&got),
        show(pinned)
    );
}

/// The `sebs report` observer set on a small fleet: metrics every 60 s,
/// the fleet-default sampler and the phase profiler.
fn observed_fleet_exports() -> Vec<(&'static str, String)> {
    let config = SuiteConfig::default()
        .with_seed(2021)
        .with_jobs(2)
        .with_metrics(true)
        .with_metrics_interval(SimDuration::from_secs(60))
        .with_trace_sampling(SamplerSpec::fleet_default())
        .with_profile(true);
    let mut fleet = FleetConfig::new(ProviderKind::Aws);
    fleet.functions = 200;
    fleet.target_invocations = 20_000;
    fleet.horizon = SimDuration::from_secs(3600);
    let model = fleet.synthetic_model(config.seed);
    let result = run_fleet(&config, &fleet, &model);
    assert!(result.invocations() > 15_000);
    assert!(!result.traces.is_empty() && result.metrics.point_count() > 0);

    let report = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
    vec![
        ("prom", prometheus_text(&result.metrics)),
        ("csv", csv_timeseries(&result.metrics)),
        ("chrome", chrome_trace_json(&result.traces)),
        ("report", report),
    ]
}

/// A fault-and-retry sweep under the sampler: rejected invocations,
/// error exemplars, multi-attempt chain spans, hedges and breaker gauges
/// all reach the exports.
fn chaos_sweep_exports() -> Vec<(&'static str, String)> {
    let plan =
        FaultPlan::parse("storage=0.03,stall=1.5,corrupt=0.01,outage=2..4@1.0,storm=6..9@0.9")
            .expect("valid spec");
    let policies = [
        LabeledPolicy::new("no-retry", RetryPolicy::none()),
        LabeledPolicy::new(
            "hedged-backoff",
            RetryPolicy::parse("attempts=4,base=50,cap=400,jitter=0.5,hedge=0.9,breaker=8@5000")
                .expect("valid spec"),
        ),
    ];
    let suite = Suite::new(
        SuiteConfig::fast()
            .with_seed(77)
            .with_jobs(2)
            .with_metrics(true)
            .with_trace_sampling(SamplerSpec::fleet_default())
            .with_faults(plan),
    );
    let result = run_availability(
        &suite,
        "dynamic-html",
        Language::Python,
        ProviderKind::Gcp,
        256,
        Scale::Test,
        &[0.0, 0.3],
        &policies,
    );
    assert!(!result.traces.is_empty() && result.metrics.point_count() > 0);
    vec![
        ("prom", prometheus_text(&result.metrics)),
        ("csv", csv_timeseries(&result.metrics)),
        ("chrome", chrome_trace_json(&result.traces)),
    ]
}

#[test]
fn observer_exports_match_pinned_digests() {
    check(
        "fleet",
        &observed_fleet_exports(),
        &[
            ("prom", 0xae60_1df0_440f_ad3d),
            ("csv", 0xe86c_b4e7_cce5_4b9c),
            ("chrome", 0x8a3f_238c_5c2f_42d3),
            ("report", 0x290f_f557_a819_9525),
        ],
    );
    check(
        "chaos",
        &chaos_sweep_exports(),
        &[
            ("prom", 0xe26f_7d05_f109_4012),
            ("csv", 0x13ec_7958_6c2c_d95b),
            ("chrome", 0x816c_894f_f032_57ca),
        ],
    );
}

//! Cross-crate property tests: invariants that must hold for arbitrary
//! seeds, configurations and workloads.
//!
//! Each property draws its inputs from a seeded [`SimRng`] stream and loops
//! over a fixed number of cases; on failure the assertion message carries the
//! failing case seed so the exact inputs can be replayed.

use sebs::{Suite, SuiteConfig};
use sebs_platform::billing::BillingModel;
use sebs_platform::{FaasPlatform, FunctionConfig, FunctionId, ProviderKind, ProviderProfile};
use sebs_sim::rng::{Rng, SimRng};
use sebs_sim::SimDuration;
use sebs_workloads::templating::DynamicHtml;
use sebs_workloads::{Language, Scale};

const CASES: u64 = 12;

/// Time levels are totally ordered for every provider, seed and memory.
#[test]
fn time_levels_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0DE1).child(case).stream("inputs");
        let seed = rng.gen_range(0u64..1000);
        let provider =
            [ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp][rng.gen_range(0usize..3)];
        let memory = [256u32, 512, 1024][rng.gen_range(0usize..3)];
        let mut s = Suite::new(SuiteConfig::fast().with_seed(seed));
        let handle = s
            .deploy(
                provider,
                "dynamic-html",
                Language::Python,
                memory,
                Scale::Test,
            )
            .expect("dynamic-html deploys everywhere");
        for _ in 0..3 {
            let r = s.invoke(&handle);
            assert!(
                r.benchmark_time <= r.provider_time,
                "failing case seed {case}"
            );
            assert!(r.provider_time <= r.client_time, "failing case seed {case}");
            assert!(
                r.t_recv_client >= r.t_send_client,
                "failing case seed {case}"
            );
            s.advance(provider, SimDuration::from_secs(1));
        }
    }
}

/// Billing is monotone in duration and never negative.
#[test]
fn billing_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xB111).child(case).stream("inputs");
        let ms_a = rng.gen_range(1u64..100_000);
        let ms_b = rng.gen_range(1u64..100_000);
        let mem = rng.gen_range(128u32..3008);
        let used = rng.gen_range(10u32..3008);
        let resp = rng.gen_range(0u64..10_000_000);
        let (lo, hi) = if ms_a <= ms_b {
            (ms_a, ms_b)
        } else {
            (ms_b, ms_a)
        };
        for model in [
            BillingModel::aws(),
            BillingModel::azure(),
            BillingModel::gcp(),
        ] {
            let cheap = model.bill(SimDuration::from_millis(lo), mem, used, resp);
            let dear = model.bill(SimDuration::from_millis(hi), mem, used, resp);
            assert!(cheap.total_usd() >= 0.0, "failing case seed {case}");
            assert!(
                dear.compute_usd >= cheap.compute_usd,
                "longer runs cost at least as much (failing case seed {case})"
            );
            assert!(
                dear.billed_duration >= cheap.billed_duration,
                "failing case seed {case}"
            );
        }
    }
}

/// The warm-container count never exceeds the number of containers ever
/// created, and eviction only shrinks it while idle.
#[test]
fn pool_counts_monotone_under_idle() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x9001).child(case).stream("inputs");
        let seed = rng.gen_range(0u64..500);
        let burst = rng.gen_range(1usize..12);
        let mut s = Suite::new(SuiteConfig::fast().with_seed(seed));
        let handle = s
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .expect("deploys");
        let records = s.invoke_burst(&handle, burst);
        let served = records.iter().filter(|r| r.container.is_some()).count();
        let mut last = s
            .platform_mut(ProviderKind::Aws)
            .warm_containers(handle.function);
        assert!(last <= served, "failing case seed {case}");
        for _ in 0..6 {
            s.advance(ProviderKind::Aws, SimDuration::from_secs(200));
            let now = s
                .platform_mut(ProviderKind::Aws)
                .warm_containers(handle.function);
            assert!(
                now <= last,
                "idle pools never grow: {now} > {last} (failing case seed {case})"
            );
            last = now;
        }
    }
}

/// CPU shares and compute rates are monotone in memory for proportional-CPU
/// providers.
#[test]
fn compute_rate_monotone_in_memory() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xC903).child(case).stream("inputs");
        let m1 = rng.gen_range(128u32..3008);
        let m2 = rng.gen_range(128u32..3008);
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        for profile in [ProviderProfile::aws(), ProviderProfile::gcp()] {
            assert!(
                profile.compute_rate(lo, Language::Python)
                    <= profile.compute_rate(hi, Language::Python) + 1e-9,
                "failing case seed {case}"
            );
            assert!(
                profile.io_scale(lo) <= profile.io_scale(hi) + 1e-9,
                "failing case seed {case}"
            );
        }
    }
}

/// Costs and times of successful invocations stay finite and bounded.
#[test]
fn costs_and_times_are_finite() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xF191).child(case).stream("inputs");
        let seed = rng.gen_range(0u64..300);
        let mut s = Suite::new(SuiteConfig::fast().with_seed(seed));
        let handle = s
            .deploy(
                ProviderKind::Azure,
                "data-vis",
                Language::Python,
                512,
                Scale::Test,
            )
            .expect("deploys");
        let r = s.invoke(&handle);
        assert!(r.bill.total_usd().is_finite(), "failing case seed {case}");
        assert!(
            r.client_time < SimDuration::from_secs(3600),
            "failing case seed {case}"
        );
    }
}

/// `invoke` applies its container release directly instead of going
/// through `invoke_burst`; the two entry points must stay interchangeable
/// on every provider: same record, same pool state, and the same RNG
/// streams for every invocation after.
#[test]
fn single_invoke_matches_a_burst_of_one() {
    for profile in ProviderProfile::all() {
        let build = || {
            let mut p = FaasPlatform::new(profile.clone(), 77);
            let wl = DynamicHtml::new(Language::Python);
            // Three functions of one app (a shared pool on Azure) and one
            // on its own.
            let fns: Vec<FunctionId> = [("a", 256, true), ("b", 1024, true), ("c", 512, true)]
                .into_iter()
                .chain([("d", 512, false)])
                .map(|(name, mem, in_app)| {
                    let config = FunctionConfig::new(name, Language::Python, mem);
                    let config = if in_app { config.in_app("app") } else { config };
                    p.deploy(config).unwrap()
                })
                .collect();
            let payload = p.prepare(&wl, Scale::Test);
            (p, wl, fns, payload)
        };
        let (mut single, wl, fns, payload) = build();
        let (mut burst, ..) = build();
        let mut gaps = SimRng::new(3).stream("gaps");
        for step in 0..300 {
            let fid = fns[step % fns.len()];
            let a = single.invoke(fid, &wl, &payload);
            let b = burst.invoke_burst(fid, &wl, std::slice::from_ref(&payload));
            assert_eq!(b.len(), 1);
            assert_eq!(a, b[0], "{} step {step}", profile.kind);
            for &f in &fns {
                assert_eq!(single.observe_pool(f), burst.observe_pool(f));
            }
            // Mostly overlapping or short gaps, now and then one long
            // enough for the eviction policy to act.
            let gap = match gaps.gen_range(0..10) {
                0 => SimDuration::from_secs(gaps.gen_range(300..1200)),
                _ => SimDuration::from_millis(gaps.gen_range(0..3000)),
            };
            single.advance(gap);
            burst.advance(gap);
        }
        for &f in &fns {
            assert_eq!(single.warm_containers(f), burst.warm_containers(f));
        }
    }
}

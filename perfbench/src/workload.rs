//! The four workloads: their inputs (built from the seed during set-up),
//! the measured call into the library, and the outputs that are checked
//! and recorded.
//!
//! Every workload replays a precomputed open-loop arrival trace, or the
//! paper's batch schedule, in *simulated* time. On the host each one is a
//! sequential batch job at a fixed input size, so the benchmark reports
//! simulated work completed per host second.

use sebs::experiments::{
    run_cluster, run_fleet, run_perf_cost_grid, ClusterSweepConfig, ClusterSweepResult,
    FleetConfig, FleetResult, PerfCostResult,
};
use sebs::{fleet_report, ExperimentGrid, ParallelRunner, ReportFormat, SuiteConfig};
use sebs_metrics::QuantileSketch;
use sebs_platform::{ProviderKind, StartKind};
use sebs_resilience::RetryPolicy;
use sebs_sim::SimDuration;
use sebs_trace::SamplerSpec;
use sebs_workload_gen::TraceModel;
use sebs_workloads::{Language, Scale};

/// Functions and expected invocations of `fleet-replay` (the synthetic
/// Azure-2019 shape).
pub const FLEET_REPLAY_SIZE: (usize, u64) = (10_000, 200_000);
/// Functions and expected invocations of `fleet-observed`: the
/// `sebs report` defaults. The metrics observer keeps a series per
/// function, so its memory grows with the fleet, not the trace.
pub const FLEET_OBSERVED_SIZE: (usize, u64) = (1_000, 100_000);
/// Sim-time interval of the metrics observer on `fleet-observed`.
pub const OBSERVED_METRICS_INTERVAL_SECS: u64 = 60;
/// Expected arrivals of `cluster-sweep`; every one of the 27 cells
/// replays all of them.
pub const CLUSTER_INVOCATIONS: u64 = 16_000;
/// Attempts per chain on `cluster-sweep`, and the cap on one backoff
/// wait. With 0.4 host-fault intensity all 8 hosts of a cell crash in the
/// same window on about one input in a hundred, and the region is then
/// down for the window: up to 270 s (25%–40% of the 1800 s horizon).
/// Backoff from 100 ms doubling to a 60 s cap waits 402 s over the
/// first 15 retries, so a chain outlasts any outage with retries to
/// spare, every shed or crashed attempt fails over and succeeds, and no
/// operation fails.
pub const CLUSTER_ATTEMPTS: u32 = 20;
/// See [`CLUSTER_ATTEMPTS`].
pub const CLUSTER_MAX_BACKOFF_SECS: u64 = 60;
/// The kernels of `perf-cost` (Python, AWS, 512 MB, scale `small`).
pub const PERF_COST_KERNELS: [&str; 6] = [
    "dynamic-html",
    "uploader",
    "thumbnailer",
    "compression",
    "image-recognition",
    "graph-bfs",
];
/// Memory configuration of `perf-cost`.
pub const PERF_COST_MEMORY_MB: u32 = 512;
/// Samples per cold and per warm series of `perf-cost`: one batch each,
/// the fewest for which a 95% median CI exists. It is also the adaptive
/// rule's cap: the rule runs after every warm batch, but growing one
/// kernel's series would change the workload's mix (the kernels' host
/// costs differ a thousandfold), so every seed replays the same
/// 72 invocations.
pub const PERF_COST_SAMPLES: usize = 6;

/// Input seeds of one run: the run's seed, then seeds derived from it.
///
/// The host cost of a replay depends on the inputs a seed draws — on the
/// fleets, mostly on the durations and burstiness of the few Zipf-head
/// functions, whose pools every acquire scans — by ±10% from seed to
/// seed. One run therefore replays several inputs and reports the
/// throughput over the whole set, which keeps runs with different seeds
/// comparable.
pub fn input_seeds(w: Workload, seed: u64) -> Vec<u64> {
    let count = match w {
        Workload::FleetReplay | Workload::ClusterSweep => 12,
        Workload::FleetObserved => 6,
        Workload::PerfCost => 8,
    };
    let root = sebs_sim::SimRng::new(seed);
    std::iter::once(seed)
        .chain((1..count).map(|i| root.child(i).seed()))
        .collect()
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_fleet` on AWS, observers off.
    FleetReplay,
    /// `run_fleet` with the `sebs report` observer set, then the report.
    FleetObserved,
    /// `run_cluster` over the default 27-cell sweep.
    ClusterSweep,
    /// `run_perf_cost_grid` with the Fig. 3/5 method on real kernels.
    PerfCost,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetReplay,
        Workload::FleetObserved,
        Workload::ClusterSweep,
        Workload::PerfCost,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetReplay => "fleet-replay",
            Workload::FleetObserved => "fleet-observed",
            Workload::ClusterSweep => "cluster-sweep",
            Workload::PerfCost => "perf-cost",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The suite configuration of the measured call.
    pub fn config(self, seed: u64, jobs: usize) -> SuiteConfig {
        let base = SuiteConfig::default().with_seed(seed).with_jobs(jobs);
        match self {
            Workload::FleetObserved => observed(base, true, true, true),
            Workload::PerfCost => {
                let mut config = base
                    .with_samples(PERF_COST_SAMPLES)
                    .with_batch_size(PERF_COST_SAMPLES);
                config.max_samples = PERF_COST_SAMPLES;
                config
            }
            Workload::FleetReplay | Workload::ClusterSweep => base,
        }
    }
}

/// `base` with any subset of the `sebs report` observers switched on.
pub fn observed(base: SuiteConfig, metrics: bool, sampler: bool, profiler: bool) -> SuiteConfig {
    let mut config = base
        .with_metrics(metrics)
        .with_metrics_interval(SimDuration::from_secs(OBSERVED_METRICS_INTERVAL_SECS))
        .with_profile(profiler);
    if sampler {
        config = config.with_trace_sampling(SamplerSpec::fleet_default());
    }
    config
}

/// The fleet knobs of a fleet workload.
pub fn fleet_config(w: Workload) -> FleetConfig {
    let mut fleet = FleetConfig::new(ProviderKind::Aws);
    (fleet.functions, fleet.target_invocations) = if w == Workload::FleetObserved {
        FLEET_OBSERVED_SIZE
    } else {
        FLEET_REPLAY_SIZE
    };
    fleet
}

/// The sweep knobs of `cluster-sweep`: the default 27 cells on 8 hosts ×
/// 4 CPUs.
pub fn cluster_config() -> ClusterSweepConfig {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.target_invocations = CLUSTER_INVOCATIONS;
    sweep.retry = RetryPolicy {
        max_backoff: SimDuration::from_secs(CLUSTER_MAX_BACKOFF_SECS),
        ..RetryPolicy::backoff(CLUSTER_ATTEMPTS)
    };
    sweep
}

/// The grid of `perf-cost`.
pub fn perf_cost_grid() -> ExperimentGrid {
    let kernels: Vec<(&str, Language)> = PERF_COST_KERNELS
        .iter()
        .map(|k| (*k, Language::Python))
        .collect();
    ExperimentGrid::new(&kernels, &[ProviderKind::Aws], &[PERF_COST_MEMORY_MB])
}

/// What set-up hands to the measured call.
pub enum Inputs {
    /// A fleet workload: its knobs, the built model and the number of
    /// arrivals its expansion produced.
    Fleet {
        fleet: FleetConfig,
        model: TraceModel,
        arrivals: usize,
    },
    /// `cluster-sweep`: its knobs, the built model and the arrivals of
    /// one cell.
    Cluster {
        sweep: ClusterSweepConfig,
        model: TraceModel,
        arrivals: usize,
    },
    /// `perf-cost`: the grid. Set-up prepares every kernel's inputs once
    /// to time that preparation; the measured call prepares its own.
    PerfCost { grid: ExperimentGrid },
}

/// Builds the workload's inputs from the seed: the `TraceModel` and its
/// expansion, or the grid and the kernels' input preparation.
pub fn set_up(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::FleetReplay | Workload::FleetObserved => {
            let mut fleet = fleet_config(w);
            let wanted = fleet.target_invocations;
            let (model, arrivals) = calibrated(wanted, seed, |target| {
                fleet.target_invocations = target;
                fleet.synthetic_model(seed)
            });
            Inputs::Fleet {
                fleet,
                model,
                arrivals,
            }
        }
        Workload::ClusterSweep => {
            let mut sweep = cluster_config();
            let wanted = sweep.target_invocations;
            let (model, arrivals) = calibrated(wanted, seed, |target| {
                sweep.target_invocations = target;
                sweep.synthetic_model(seed)
            });
            Inputs::Cluster {
                sweep,
                model,
                arrivals,
            }
        }
        Workload::PerfCost => {
            let grid = perf_cost_grid();
            let config = w.config(seed, 1);
            for cell in grid.cells() {
                cell.suite(&config)
                    .deploy(
                        cell.provider,
                        &cell.benchmark,
                        cell.language,
                        cell.memory_mb,
                        Scale::Small,
                    )
                    .expect("every perf-cost kernel deploys on AWS at 512 MB");
            }
            Inputs::PerfCost { grid }
        }
    }
}

/// Builds a model whose expansion holds close to `target` arrivals.
///
/// The synthetic fleet's arrival count varies by about ±10% with the
/// seed (the few Zipf-head functions carry much of the volume, each with
/// a random diurnal phase and burst pattern), and peak memory and host
/// time follow the count. So the model is built once, expanded, and
/// built again with its rate scaled by the shortfall; the second
/// expansion lands within about 2% of the target on every seed. `build`
/// sets the workload's rate knob; its last call leaves the knob the
/// returned model was built with.
fn calibrated(
    wanted: u64,
    seed: u64,
    mut build: impl FnMut(u64) -> TraceModel,
) -> (TraceModel, usize) {
    let first = build(wanted).generate(seed).len().max(1);
    let model = build((wanted as f64 * wanted as f64 / first as f64).round() as u64);
    let arrivals = model.generate(seed).len();
    (model, arrivals)
}

/// The raw result of one measured call.
pub enum Replay {
    /// A fleet replay, plus the rendered report on `fleet-observed`.
    Fleet(FleetResult, Option<String>),
    /// A cluster sweep.
    Cluster(ClusterSweepResult),
    /// A perf-cost grid.
    PerfCost(PerfCostResult),
}

/// The measured call: one replay of the workload through the library's
/// public entry point.
pub fn replay(w: Workload, inputs: &Inputs, config: &SuiteConfig) -> Replay {
    match inputs {
        Inputs::Fleet { fleet, model, .. } => {
            let result = run_fleet(config, fleet, model);
            let report = (w == Workload::FleetObserved)
                .then(|| fleet_report(config, fleet, &result).render(ReportFormat::Markdown));
            Replay::Fleet(result, report)
        }
        Inputs::Cluster { sweep, model, .. } => Replay::Cluster(run_cluster(config, sweep, model)),
        Inputs::PerfCost { grid, .. } => Replay::PerfCost(run_perf_cost_grid(
            config,
            grid,
            Scale::Small,
            &ParallelRunner::new(config.jobs),
        )),
    }
}

/// What is checked and recorded about one replay.
pub struct Outcome {
    /// Simulated client invocations (chains on `cluster-sweep`).
    pub invocations: u64,
    /// Invocations whose simulated outcome was not success.
    pub failed: u64,
    /// Whether the replay covered exactly the generated arrivals (or the
    /// full batch schedule on `perf-cost`).
    pub replay_complete: bool,
    /// Digests of every export, by name. The `store` digest is the
    /// exported `ResultStore`; `series` covers every simulated field.
    pub digests: Vec<(&'static str, String)>,
    /// Simulated statistics: ungated, and bit-identical under any change
    /// that only affects speed.
    pub stats: Vec<(&'static str, f64)>,
}

/// FNV-1a 64 over bytes: the fleet's cell-partitioning hash, and the
/// digest of every export.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of an export, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Checks and summarises a replay.
pub fn outcome(inputs: &Inputs, replay: &Replay) -> Outcome {
    match (inputs, replay) {
        (Inputs::Fleet { arrivals, .. }, Replay::Fleet(result, report)) => {
            let invocations = result.invocations() as u64;
            let failed: usize = result.series.iter().map(|s| s.failures).sum();
            let mut digests = vec![
                ("store", digest(result.to_store().to_json().as_bytes())),
                ("series", digest(format!("{:?}", result.series).as_bytes())),
            ];
            if let Some(report) = report {
                digests.push(("report", digest(report.as_bytes())));
                let prom = sebs_telemetry::prometheus_text(&result.metrics);
                digests.push(("metrics", digest(prom.as_bytes())));
                let traces = sebs_trace::chrome_trace_json(&result.traces);
                digests.push(("traces", digest(traces.as_bytes())));
            }
            Outcome {
                invocations,
                failed: failed as u64,
                replay_complete: result.invocations() == *arrivals,
                digests,
                stats: vec![
                    ("cold_start_rate", result.cold_start_rate()),
                    ("client_p99_ms", result.latency_percentile_ms(99.0)),
                    ("cost_usd", result.total_cost_usd()),
                    ("failed_share", result.failure_rate()),
                    ("shed", 0.0),
                    ("failover_hops", 0.0),
                ],
            }
        }
        (Inputs::Cluster { arrivals, .. }, Replay::Cluster(result)) => {
            let chains: usize = result.series.iter().map(|s| s.chains).sum();
            let successes: usize = result.series.iter().map(|s| s.successes).sum();
            let cold: u64 = result.series.iter().map(|s| s.cold_starts).sum();
            let warm: u64 = result.series.iter().map(|s| s.warm_hits).sum();
            let mut latency = QuantileSketch::new();
            for s in &result.series {
                latency.merge(&s.client_latency);
            }
            Outcome {
                invocations: chains as u64,
                failed: (chains - successes) as u64,
                replay_complete: !result.series.is_empty()
                    && result.series.iter().all(|s| s.chains == *arrivals),
                digests: vec![
                    ("store", digest(result.to_store().to_json().as_bytes())),
                    ("series", digest(format!("{:?}", result.series).as_bytes())),
                ],
                stats: vec![
                    ("cold_start_rate", ratio(cold, cold + warm)),
                    ("client_p99_ms", latency.p99()),
                    ("cost_usd", result.series.iter().map(|s| s.cost_usd).sum()),
                    (
                        "failed_share",
                        ratio((chains - successes) as u64, chains as u64),
                    ),
                    ("shed", result.series.iter().map(|s| s.shed as f64).sum()),
                    (
                        "failover_hops",
                        result.series.iter().map(|s| s.failover_hops as f64).sum(),
                    ),
                ],
            }
        }
        (Inputs::PerfCost { .. }, Replay::PerfCost(result)) => {
            let samples = |s: &sebs::experiments::PerfCostSeries| s.client_ms.len() + s.failures;
            let invocations: usize = result.series.iter().map(samples).sum();
            let failed: usize = result.series.iter().map(|s| s.failures).sum();
            let cold: usize = result
                .series
                .iter()
                .filter(|s| s.start == StartKind::Cold)
                .map(|s| s.client_ms.len())
                .sum();
            let all_ms: Vec<f64> = result
                .series
                .iter()
                .flat_map(|s| s.client_ms.iter().copied())
                .collect();
            let cost: f64 = result.series.iter().flat_map(|s| s.cost_usd.iter()).sum();
            Outcome {
                invocations: invocations as u64,
                failed: failed as u64,
                replay_complete: result.series.len() == 2 * PERF_COST_KERNELS.len()
                    && result
                        .series
                        .iter()
                        .all(|s| samples(s) >= PERF_COST_SAMPLES),
                digests: vec![
                    ("store", digest(result.to_store().to_json().as_bytes())),
                    ("series", digest(format!("{:?}", result.series).as_bytes())),
                ],
                stats: vec![
                    ("cold_start_rate", ratio(cold as u64, all_ms.len() as u64)),
                    (
                        "client_p99_ms",
                        sebs_stats::Summary::from_values(&all_ms).percentile(99.0),
                    ),
                    ("cost_usd", cost),
                    ("failed_share", ratio(failed as u64, invocations as u64)),
                    ("shed", 0.0),
                    ("failover_hops", 0.0),
                ],
            }
        }
        _ => unreachable!("inputs and replay come from the same workload"),
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

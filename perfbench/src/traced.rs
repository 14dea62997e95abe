//! The traced run (`--trace 1`): per-layer host time, from outside.
//!
//! The benchmark replays each workload through its own copy of the
//! experiment loop (`run_fleet`'s, `run_cluster`'s or
//! `run_perf_cost_grid`'s cell loop), built only from the layers' public
//! functions, and records a span or an aggregate at every call into a
//! layer (see [`crate::recorder`]). The copy must produce the library's
//! exports byte for byte; that is checked on every traced run.
//!
//! Costs that happen *inside* `invoke` are timed in isolation on inputs
//! drawn from the workload (pool, cold start, billing, the synthetic
//! kernel), and the observers of `fleet-observed` by ablation: one
//! observer on at a time, each in a fresh process so its peak memory is
//! its own.
//!
//! The run prints an Amdahl table: each layer's share of the traced wall
//! time, the residual no layer span covers, and the tracing overhead
//! (traced wall minus the library's untraced wall on the same inputs).

use crate::clock::{self, Instant};
use std::collections::BTreeMap;
use std::hint::black_box;

use sebs::experiments::cluster::cluster_cells;
use sebs::experiments::{
    ClusterSeries, ClusterSweepConfig, ClusterSweepResult, FleetCellSeries, FleetConfig,
    FleetResult, PerfCostResult, PerfCostSeries,
};
use sebs::{fleet_report, ExperimentGrid, ReportFormat, SuiteConfig};
use sebs_cluster::{ClusterConfig, ClusterPlatform, HostView, SchedulerKind};
use sebs_metrics::QuantileSketch;
use sebs_platform::{
    ContainerId, ContainerPool, FaasPlatform, FunctionConfig, FunctionId, InvocationOutcome,
    InvocationRecord, ProviderKind, ProviderProfile, StartKind,
};
use sebs_sim::{Phase, PhaseProfiler, SimDuration, SimRng, SimTime};
use sebs_stats::median_ci;
use sebs_storage::{ObjectStorage, SimObjectStore};
use sebs_telemetry::MetricsSink;
use sebs_trace::TraceSink;
use sebs_workload_gen::{Arrival, FleetTrace, SyntheticFunction, TraceModel};
use sebs_workloads::{InvocationCtx, Payload, Scale, Workload as _};

use crate::recorder::{Boundary, Lap, Recorder};
use crate::workload::{self, fnv1a, outcome, replay, set_up, Inputs, Replay, Workload};
use crate::{emit, median, num, run_child, Args, Checks, Data, Metric};

/// Largest share of the traced wall time that may lie outside every
/// layer span; a traced run whose table leaves more unattributed fails.
pub const RESIDUAL_BOUND: f64 = 0.05;

/// Warm-pool occupancy sample count of the fleet and cluster experiments.
const OCCUPANCY_SAMPLES: u64 = 64;

/// Calls per isolated micro-timing.
const MICRO_CALLS: usize = 20_000;

/// Untraced and traced replays, alternating, in a traced run.
const TRACED_REPS: usize = 3;

/// Replays per observer configuration in the ablation.
const ABLATION_REPS: usize = 3;

/// Per-layer metrics: name, unit, which direction is better. Every
/// traced run reports all of them; a layer the workload does not cross
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("workload_gen.generate_s", "s", "lower"),
    ("workload_gen.arrivals_per_s", "1/s", "higher"),
    ("platform.invoke.calls", "count", "lower"),
    ("platform.invoke.cold_share", "ratio", "lower"),
    ("platform.invoke.busy_s", "s", "lower"),
    ("platform.invoke_warm_ns.p50", "ns", "lower"),
    ("platform.invoke_warm_ns.p99", "ns", "lower"),
    ("platform.invoke_cold_ns.p50", "ns", "lower"),
    ("platform.invoke_cold_ns.p99", "ns", "lower"),
    ("platform.advance.busy_s", "s", "lower"),
    ("platform.deploy.busy_s", "s", "lower"),
    ("platform.observe_pool.busy_s", "s", "lower"),
    ("pool.acquire_release_ns", "ns", "lower"),
    ("coldstart.sample_breakdown_ns", "ns", "lower"),
    ("billing.bill_ns", "ns", "lower"),
    ("workloads.synthetic_execute_ns", "ns", "lower"),
    ("cluster.invoke_resilient.calls", "count", "lower"),
    ("cluster.invoke_resilient.busy_s", "s", "lower"),
    ("cluster.invoke_resilient_ns.p50", "ns", "lower"),
    ("cluster.invoke_resilient_ns.p99", "ns", "lower"),
    ("cluster.observe_pool.busy_s", "s", "lower"),
    ("cluster.sync_host_clocks.busy_s", "s", "lower"),
    ("cluster.attempts_per_chain", "ratio", "lower"),
    ("cluster.useful_per_attempt", "ratio", "higher"),
    ("cluster.failover_hops", "count", "lower"),
    ("cluster.shed", "count", "lower"),
    ("scheduler.pick_ns.least-loaded", "ns", "lower"),
    ("scheduler.pick_ns.random-2", "ns", "lower"),
    ("scheduler.pick_ns.locality", "ns", "lower"),
    ("workloads.dynamic-html.invoke_ms.p50", "ms", "lower"),
    ("workloads.uploader.invoke_ms.p50", "ms", "lower"),
    ("workloads.thumbnailer.invoke_ms.p50", "ms", "lower"),
    ("workloads.compression.invoke_ms.p50", "ms", "lower"),
    ("workloads.image-recognition.invoke_ms.p50", "ms", "lower"),
    ("workloads.graph-bfs.invoke_ms.p50", "ms", "lower"),
    ("workloads.busy_s", "s", "lower"),
    ("storage.ops", "count", "lower"),
    ("storage.bytes", "bytes", "lower"),
    ("storage.op_ns", "ns", "lower"),
    ("stats.samples", "count", "lower"),
    ("stats.median_ci.busy_s", "s", "lower"),
    ("telemetry.overhead_s", "s", "lower"),
    ("telemetry.rss_mb", "MB", "lower"),
    ("telemetry.points", "count", "lower"),
    ("telemetry.export_bytes", "bytes", "lower"),
    ("trace.sampler.overhead_s", "s", "lower"),
    ("trace.kept", "count", "lower"),
    ("sim.profiler.overhead_s", "s", "lower"),
    ("core.fleet_report_s", "s", "lower"),
    ("core.render_s", "s", "lower"),
    ("core.report_bytes", "bytes", "lower"),
    ("metrics.sketch_push.busy_s", "s", "lower"),
    ("metrics.to_json_s", "s", "lower"),
    ("runner.jobs2_speedup", "x", "higher"),
    ("runner.cell_max_share", "ratio", "lower"),
    ("amdahl.traced_wall_s", "s", "lower"),
    ("amdahl.unattributed_share", "ratio", "lower"),
    ("amdahl.tracing_overhead_share", "ratio", "lower"),
];

/// Per-layer values measured by one child, by metric name.
type Layers = BTreeMap<String, f64>;

/// Child part `traced`.
pub fn run(args: &Args) {
    let w = args.workload;
    let inputs = set_up(w, args.seed);
    let config = w.config(args.seed, 1);
    let mut layers = Layers::new();

    // The library's own call at jobs = 1 (which also grows the heap, as
    // in the measured run) and at jobs = 2.
    let library = replay(w, &inputs, &config);
    let library_out = outcome(&inputs, &library);
    drop(library);
    let t = clock::now();
    let parallel = replay(w, &inputs, &w.config(args.seed, 2));
    let parallel_s = t.elapsed().as_secs_f64();
    let parallel_out = outcome(&inputs, &parallel);
    drop(parallel);

    // Untraced library calls and the benchmark's traced copy of the same
    // call, alternating. The table shows the last traced copy; the
    // tracing overhead compares the medians.
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACED_REPS {
        let t = clock::now();
        let library = black_box(replay(w, &inputs, &config));
        untraced.push(t.elapsed().as_secs_f64());
        drop(library);
        drop(last.take());
        let mut rec = Recorder::new();
        let mut side = Side::default();
        let traced = match &inputs {
            Inputs::Fleet { fleet, model, .. } => traced_fleet(&mut rec, w, fleet, model, &config),
            Inputs::Cluster { sweep, model, .. } => {
                traced_cluster(&mut rec, sweep, model, &config, &mut side)
            }
            Inputs::PerfCost { grid, .. } => traced_perf_cost(&mut rec, grid, &config, &mut side),
        };
        traced_walls.push(rec.wall_s());
        last = Some((rec, side, traced));
    }
    let (rec, side, traced) = last.expect("at least one traced replay");
    let untraced_s = median(&untraced);
    layers.insert("runner.jobs2_speedup".into(), untraced_s / parallel_s);
    let traced_out = outcome(&inputs, &traced);
    let t = clock::now();
    let json = match &traced {
        Replay::Fleet(r, _) => r.to_store().to_json(),
        Replay::Cluster(r) => r.to_store().to_json(),
        Replay::PerfCost(r) => r.to_store().to_json(),
    };
    layers.insert("metrics.to_json_s".into(), t.elapsed().as_secs_f64());
    black_box(json);

    layer_metrics(&rec, &traced, &side, &mut layers);
    if let Inputs::Fleet { model, .. } | Inputs::Cluster { model, .. } = &inputs {
        let trace = model.generate(args.seed);
        micro_platform(model, &trace, args.seed, &mut layers);
    }
    if w == Workload::ClusterSweep {
        micro_schedulers(&side.slates, args.seed, &mut layers);
    }
    if w == Workload::PerfCost {
        micro_storage(&side.object_sizes, args.seed, &mut layers);
    }

    let traced_wall = rec.wall_s();
    let attributed: f64 = rec.layers().values().map(|(_, s)| s).sum();
    let unattributed = (traced_wall - attributed) / traced_wall;
    let overhead = (median(&traced_walls) - untraced_s) / untraced_s;
    layers.insert("amdahl.traced_wall_s".into(), traced_wall);
    layers.insert("amdahl.unattributed_share".into(), unattributed);
    layers.insert("amdahl.tracing_overhead_share".into(), overhead);

    rec.print_spans();
    print_amdahl(
        &rec,
        &layers,
        traced_wall,
        median(&traced_walls),
        untraced_s,
    );

    let mut checks = Checks::default();
    for (name, d) in &library_out.digests {
        let same = |out: &workload::Outcome| out.digests.iter().any(|(n, x)| n == name && x == d);
        checks.add(
            format!("traced loop {name} equals library"),
            same(&traced_out),
        );
        checks.add(
            format!("jobs=1 and jobs=2 {name} identical"),
            same(&parallel_out),
        );
    }
    checks.add(
        "replay covers the generated arrivals",
        library_out.replay_complete && traced_out.replay_complete,
    );
    checks.add(
        format!("unattributed share within {RESIDUAL_BOUND}"),
        unattributed.abs() <= RESIDUAL_BOUND,
    );
    checks.print();
    emit("checks_passed", u8::from(checks.all_passed()));
    emit("attempted", traced_out.invocations);
    emit("failed", traced_out.failed);
    crate::report_outcome("", &library_out);
    for (name, value) in &layers {
        emit(&format!("layer.{name}"), value);
    }
}

/// What the traced loops collect beside spans, for isolated timings.
#[derive(Default)]
struct Side {
    /// Scheduler slates seen by `cluster-sweep`'s dispatches.
    slates: Vec<Vec<HostView>>,
    /// Storage counters of `perf-cost`: requests and bytes moved.
    storage_ops: u64,
    storage_bytes: u64,
    /// Mean object size of each `perf-cost` cell's bucket contents.
    object_sizes: Vec<u64>,
    /// Samples collected by `perf-cost`.
    samples: usize,
}

/// Fills the per-layer metrics that come from the traced loop.
fn layer_metrics(rec: &Recorder, traced: &Replay, side: &Side, layers: &mut Layers) {
    let by_layer = rec.layers();
    let span_s = |name: &str| by_layer.get(name).map_or(0.0, |(_, s)| *s);
    let generate_s = span_s("workload_gen.generate");
    layers.insert("workload_gen.generate_s".into(), generate_s);
    let warm = rec.boundary("platform.invoke[warm]");
    let cold = rec.boundary("platform.invoke[cold]");
    let calls = warm.calls + cold.calls;
    layers.insert("platform.invoke.calls".into(), calls as f64);
    if calls > 0 {
        layers.insert(
            "platform.invoke.cold_share".into(),
            cold.calls as f64 / calls as f64,
        );
    }
    layers.insert(
        "platform.invoke.busy_s".into(),
        warm.busy_s() + cold.busy_s(),
    );
    layers.insert(
        "platform.invoke_warm_ns.p50".into(),
        warm.percentile_ns(50.0),
    );
    layers.insert(
        "platform.invoke_warm_ns.p99".into(),
        warm.percentile_ns(99.0),
    );
    layers.insert(
        "platform.invoke_cold_ns.p50".into(),
        cold.percentile_ns(50.0),
    );
    layers.insert(
        "platform.invoke_cold_ns.p99".into(),
        cold.percentile_ns(99.0),
    );
    layers.insert("platform.advance.busy_s".into(), span_s("platform.advance"));
    layers.insert("platform.deploy.busy_s".into(), span_s("platform.deploy"));
    layers.insert(
        "platform.observe_pool.busy_s".into(),
        span_s("platform.observe_pool"),
    );
    layers.insert(
        "metrics.sketch_push.busy_s".into(),
        span_s("metrics.sketch_push"),
    );
    layers.insert("core.fleet_report_s".into(), span_s("core.fleet_report"));
    layers.insert("core.render_s".into(), span_s("core.render"));

    let resilient = rec.boundary("cluster.invoke_resilient");
    layers.insert(
        "cluster.invoke_resilient.calls".into(),
        resilient.calls as f64,
    );
    layers.insert("cluster.invoke_resilient.busy_s".into(), resilient.busy_s());
    layers.insert(
        "cluster.invoke_resilient_ns.p50".into(),
        resilient.percentile_ns(50.0),
    );
    layers.insert(
        "cluster.invoke_resilient_ns.p99".into(),
        resilient.percentile_ns(99.0),
    );
    layers.insert(
        "cluster.observe_pool.busy_s".into(),
        span_s("cluster.observe_pool"),
    );
    layers.insert(
        "cluster.sync_host_clocks.busy_s".into(),
        span_s("cluster.sync_host_clocks"),
    );

    let mut kernel_busy = 0.0;
    for kernel in workload::PERF_COST_KERNELS {
        let b = rec.boundary(&format!("workloads.{kernel}.invoke"));
        kernel_busy += b.busy_s();
        layers.insert(
            format!("workloads.{kernel}.invoke_ms.p50"),
            b.percentile_ns(50.0) / 1e6,
        );
    }
    layers.insert("workloads.busy_s".into(), kernel_busy);
    layers.insert("storage.ops".into(), side.storage_ops as f64);
    layers.insert("storage.bytes".into(), side.storage_bytes as f64);
    layers.insert("stats.samples".into(), side.samples as f64);
    layers.insert("stats.median_ci.busy_s".into(), span_s("stats.median_ci"));

    match traced {
        Replay::Fleet(result, report) => {
            let total = result.invocations().max(1) as f64;
            let largest = result
                .series
                .iter()
                .map(|s| s.invocations)
                .max()
                .unwrap_or(0);
            layers.insert("runner.cell_max_share".into(), largest as f64 / total);
            if generate_s > 0.0 {
                layers.insert("workload_gen.arrivals_per_s".into(), total / generate_s);
            }
            if let Some(report) = report {
                layers.insert("core.report_bytes".into(), report.len() as f64);
            }
        }
        Replay::Cluster(result) => {
            let chains: usize = result.series.iter().map(|s| s.chains).sum();
            let attempts: usize = result.series.iter().map(|s| s.attempts).sum();
            let successes: usize = result.series.iter().map(|s| s.successes).sum();
            let largest = result.series.iter().map(|s| s.chains).max().unwrap_or(0);
            layers.insert(
                "runner.cell_max_share".into(),
                largest as f64 / chains.max(1) as f64,
            );
            layers.insert(
                "cluster.attempts_per_chain".into(),
                attempts as f64 / chains.max(1) as f64,
            );
            layers.insert(
                "cluster.useful_per_attempt".into(),
                successes as f64 / attempts.max(1) as f64,
            );
            let hops: u64 = result.series.iter().map(|s| s.failover_hops).sum();
            let shed: u64 = result.series.iter().map(|s| s.shed).sum();
            layers.insert("cluster.failover_hops".into(), hops as f64);
            layers.insert("cluster.shed".into(), shed as f64);
            if generate_s > 0.0 {
                // One expansion feeds every cell; rate over one cell's arrivals.
                let arrivals = result.series.first().map_or(0, |s| s.chains);
                layers.insert(
                    "workload_gen.arrivals_per_s".into(),
                    arrivals as f64 / generate_s,
                );
            }
        }
        Replay::PerfCost(result) => {
            let per_cell: Vec<usize> = result
                .series
                .chunks(2)
                .map(|pair| pair.iter().map(|s| s.client_ms.len() + s.failures).sum())
                .collect();
            let total: usize = per_cell.iter().sum();
            let largest = per_cell.iter().copied().max().unwrap_or(0);
            layers.insert(
                "runner.cell_max_share".into(),
                largest as f64 / total.max(1) as f64,
            );
        }
    }
}

/// Prints each layer's share of the traced wall time, and the tracing
/// overhead from the median traced and untraced walls.
fn print_amdahl(rec: &Recorder, layers: &Layers, traced_wall: f64, traced: f64, untraced: f64) {
    let mut rows: Vec<(String, u64, f64)> = rec
        .layers()
        .into_iter()
        .map(|(name, (calls, s))| (name, calls, s))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("amdahl: share of the traced wall time per layer (host time)");
    println!(
        "  {:<40} {:>10} {:>11} {:>8}",
        "layer", "calls", "busy_s", "share"
    );
    let mut sum = 0.0;
    for (name, calls, s) in &rows {
        sum += s;
        println!(
            "  {name:<40} {calls:>10} {s:>11.6} {:>7.2}%",
            100.0 * s / traced_wall
        );
    }
    let row = |label: &str, s: f64| {
        println!(
            "  {label:<40} {:>10} {s:>11.6} {:>7.2}%",
            "",
            100.0 * s / traced_wall
        )
    };
    row("sum of layers", sum);
    row("unattributed (outside every layer span)", traced_wall - sum);
    row("traced wall", traced_wall);
    println!("tracing overhead, medians of {TRACED_REPS} alternating replays:");
    row("traced wall (benchmark's copy)", traced);
    row("untraced wall (library call, jobs=1)", untraced);
    row("tracing overhead (traced - untraced)", traced - untraced);
    println!(
        "  residual bound {:.1}% of the traced wall",
        100.0 * RESIDUAL_BOUND
    );
    // Inside invoke: isolated per-call costs times the calls that pay them.
    let invoke_s = layers.get("platform.invoke.busy_s").copied().unwrap_or(0.0);
    let calls = layers.get("platform.invoke.calls").copied().unwrap_or(0.0);
    let cold_calls = calls
        * layers
            .get("platform.invoke.cold_share")
            .copied()
            .unwrap_or(0.0);
    if invoke_s > 0.0 {
        println!("amdahl: inside platform.invoke (isolated per-call cost x calls)");
        for (name, n) in [
            ("pool.acquire_release_ns", calls),
            ("coldstart.sample_breakdown_ns", cold_calls),
            ("billing.bill_ns", calls),
            ("workloads.synthetic_execute_ns", calls),
        ] {
            if let Some(ns) = layers.get(name) {
                let s = ns * n / 1e9;
                println!(
                    "  {name:<40} {n:>10.0} {s:>11.6} {:>7.2}% of invoke",
                    100.0 * s / invoke_s
                );
            }
        }
    }
}

/// The fleet experiment, copied: `run_fleet` with spans at every layer call.
fn traced_fleet(
    rec: &mut Recorder,
    w: Workload,
    fleet: &FleetConfig,
    model: &TraceModel,
    config: &SuiteConfig,
) -> Replay {
    rec.group("replay");
    let trace = rec.time("workload_gen.generate", || model.generate(config.seed));
    rec.call("core.fleet.partition");
    let cells = fleet.cells.max(1);
    let cell_of_fn: Vec<usize> = model
        .functions
        .iter()
        .map(|f| (fnv1a(f.profile.name.as_bytes()) % cells as u64) as usize)
        .collect();
    let mut fns_per_cell: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (i, &c) in cell_of_fn.iter().enumerate() {
        fns_per_cell[c].push(i);
    }
    let mut arrivals_per_cell: Vec<Vec<Arrival>> = vec![Vec::new(); cells];
    for a in &trace.arrivals {
        if let Some(&c) = cell_of_fn.get(a.function as usize) {
            arrivals_per_cell[c].push(*a);
        }
    }
    rec.exit();

    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    let mut metrics = MetricsSink::new();
    let mut profile = PhaseProfiler::new();
    for i in 0..cells {
        rec.group(format!("cell[{i}]"));
        let (s, t, m, p) = traced_fleet_cell(
            rec,
            config,
            fleet,
            model,
            i,
            &fns_per_cell[i],
            &arrivals_per_cell[i],
        );
        rec.call("core.merge");
        series.push(s);
        traces.merge(t);
        metrics.merge(m);
        if let Some(p) = p {
            profile.merge(&p);
            profile.record(Phase::RunnerMerge, SimDuration::ZERO);
        }
        rec.exit();
        rec.exit();
    }
    rec.call("core.merge");
    traces.sort_canonical();
    metrics.sort_canonical();
    rec.exit();
    let result = FleetResult {
        provider: fleet.provider,
        series,
        traces,
        metrics,
        profile,
    };
    let report = (w == Workload::FleetObserved).then(|| {
        let report = rec.time("core.fleet_report", || fleet_report(config, fleet, &result));
        rec.time("core.render", || report.render(ReportFormat::Markdown))
    });
    rec.call("core.drop");
    drop(trace);
    drop(arrivals_per_cell);
    rec.exit();
    rec.exit();
    Replay::Fleet(result, report)
}

/// One fleet cell, as `run_fleet`'s `sample_cell` replays it.
fn traced_fleet_cell(
    rec: &mut Recorder,
    config: &SuiteConfig,
    fleet: &FleetConfig,
    model: &TraceModel,
    index: usize,
    fn_indices: &[usize],
    arrivals: &[Arrival],
) -> (
    FleetCellSeries,
    TraceSink,
    MetricsSink,
    Option<PhaseProfiler>,
) {
    rec.call("platform.new");
    let seed = SimRng::new(config.seed).child(index as u64).seed();
    let mut platform = FaasPlatform::new(ProviderProfile::for_kind(fleet.provider), seed);
    platform.set_tracing(config.trace);
    if let Some(spec) = config.trace_sampler {
        platform.enable_trace_sampling(spec);
    }
    if config.profile {
        platform.enable_profiling();
    }
    if config.metrics {
        platform.enable_metrics(config.metrics_interval);
    }
    rec.exit();

    let (mut deploy, mut adapt) = (Boundary::new(), Boundary::new());
    let mut deployed: BTreeMap<u32, (FunctionId, SyntheticFunction)> = BTreeMap::new();
    let mut lap = Lap::start();
    for &fi in fn_indices {
        let profile = &model.functions[fi].profile;
        let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
        let id = platform
            .deploy(cfg)
            .expect("synthetic fleets use sizes every provider accepts");
        lap.charge(&mut deploy);
        let ops_per_ms = platform
            .profile()
            .compute_rate(profile.memory_mb, profile.language)
            / 1000.0;
        deployed.insert(
            fi as u32,
            (id, SyntheticFunction::from_profile(profile, ops_per_ms)),
        );
        lap.charge(&mut adapt);
    }

    let mut series = FleetCellSeries {
        index,
        functions: fn_indices.len(),
        invocations: 0,
        cold_starts: 0,
        warm_starts: 0,
        failures: 0,
        client_latency: QuantileSketch::new(),
        cost_usd: 0.0,
        warm_pool_samples: Vec::new(),
    };
    let sample_every =
        SimDuration::from_nanos((fleet.horizon.as_nanos() / OCCUPANCY_SAMPLES).max(1_000_000_000));
    let mut next_sample = SimTime::ZERO.saturating_add(sample_every);
    let end = SimTime::ZERO.saturating_add(fleet.horizon);
    let payload = Payload::empty();

    let (mut advance, mut observe, mut push) = (Boundary::new(), Boundary::new(), Boundary::new());
    let (mut warm, mut cold) = (Boundary::with_samples(), Boundary::with_samples());
    let mut lap = Lap::start();
    let mut sample_pools = |platform: &mut FaasPlatform,
                            series: &mut FleetCellSeries,
                            upto: SimTime,
                            next_sample: &mut SimTime,
                            lap: &mut Lap,
                            advance: &mut Boundary| {
        while *next_sample <= upto && *next_sample <= end {
            let gap = next_sample.saturating_duration_since(platform.now());
            platform.advance(gap);
            lap.charge(advance);
            let warm: usize = deployed
                .values()
                .map(|(id, _)| platform.observe_pool(*id).warm)
                .sum();
            series.warm_pool_samples.push(warm as u64);
            *next_sample = next_sample.saturating_add(sample_every);
            lap.charge(&mut observe);
        }
    };
    for a in arrivals {
        sample_pools(
            &mut platform,
            &mut series,
            a.at,
            &mut next_sample,
            &mut lap,
            &mut advance,
        );
        let gap = a.at.saturating_duration_since(platform.now());
        platform.advance(gap);
        lap.charge(&mut advance);
        let Some((id, workload)) = deployed.get(&a.function) else {
            continue;
        };
        let record = platform.invoke(*id, workload, &payload);
        let ns = lap.split();
        series.invocations += 1;
        match record.start {
            StartKind::Cold => {
                series.cold_starts += 1;
                cold.add(ns);
            }
            StartKind::Warm => {
                series.warm_starts += 1;
                warm.add(ns);
            }
        }
        if matches!(record.outcome, InvocationOutcome::Success) {
            series
                .client_latency
                .push(record.client_time.as_millis_f64());
        } else {
            series.failures += 1;
        }
        series.cost_usd += record.bill.total_usd();
        lap.charge(&mut push);
    }
    sample_pools(
        &mut platform,
        &mut series,
        end,
        &mut next_sample,
        &mut lap,
        &mut advance,
    );
    let rest = end.saturating_duration_since(platform.now());
    platform.advance(rest);
    lap.charge(&mut advance);
    rec.aggregate("platform.deploy", deploy);
    rec.aggregate("workload_gen.synthetic_function", adapt);
    rec.aggregate("platform.advance", advance);
    rec.aggregate("platform.observe_pool", observe);
    rec.aggregate("platform.invoke[warm]", warm);
    rec.aggregate("platform.invoke[cold]", cold);
    rec.aggregate("metrics.sketch_push", push);

    rec.call("platform.drain");
    let mut traces = TraceSink::new();
    traces.extend(platform.take_traces().into_iter().map(|mut t| {
        t.cell = Some(index as u64);
        t
    }));
    let mut metrics = MetricsSink::new();
    if let Some(mut chunk) = platform.take_metrics() {
        chunk.cell = Some(index as u64);
        metrics.push(chunk);
    }
    let profile = platform.take_profile();
    rec.exit();
    rec.call("core.drop");
    drop(deployed);
    drop(platform);
    rec.exit();
    (series, traces, metrics, profile)
}

/// The cluster experiment, copied: `run_cluster` with spans at every layer
/// call, capturing scheduler slates along the way.
fn traced_cluster(
    rec: &mut Recorder,
    sweep: &ClusterSweepConfig,
    model: &TraceModel,
    config: &SuiteConfig,
    side: &mut Side,
) -> Replay {
    rec.group("replay");
    let trace = rec.time("workload_gen.generate", || model.generate(config.seed));
    let cells = rec.time("core.cluster.cells", || cluster_cells(sweep));
    // About 200 slates per cell across the whole replay.
    let stride = (trace.arrivals.len() / 200).max(1);
    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    for cell in &cells {
        rec.group(format!("cell[{}]", cell.index));
        rec.call("cluster.new");
        let seed = SimRng::new(config.seed).child(cell.index as u64).seed();
        let cluster_config = ClusterConfig::new(sweep.provider)
            .with_hosts(sweep.hosts)
            .with_cpus(sweep.host_cpus)
            .with_queue_depth(sweep.queue_depth)
            .with_contention(sweep.contention)
            .with_scheduler(cell.scheduler)
            .with_keepalive(cell.keepalive);
        let mut cluster = ClusterPlatform::new(cluster_config, seed);
        cluster.set_retry_policy(sweep.retry.clone());
        cluster.set_faults(sweep.fault_plan(cell.host_fault_rate), seed);
        cluster.set_tracing(config.trace);
        rec.exit();

        let (mut deploy, mut adapt) = (Boundary::new(), Boundary::new());
        let mut deployed: Vec<(FunctionId, SyntheticFunction, u32)> =
            Vec::with_capacity(model.functions.len());
        let mut lap = Lap::start();
        for f in &model.functions {
            let profile = &f.profile;
            let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
            let id = cluster
                .deploy(cfg)
                .expect("synthetic fleets use sizes every provider accepts");
            lap.charge(&mut deploy);
            let ops_per_ms = cluster.hosts()[0]
                .platform()
                .profile()
                .compute_rate(profile.memory_mb, profile.language)
                / 1000.0;
            deployed.push((
                id,
                SyntheticFunction::from_profile(profile, ops_per_ms),
                profile.memory_mb,
            ));
            lap.charge(&mut adapt);
        }

        let mut s = ClusterSeries {
            index: cell.index,
            scheduler: cell.scheduler.label(),
            keepalive: cell.keepalive.label(),
            host_fault_rate: cell.host_fault_rate,
            chains: 0,
            successes: 0,
            first_attempt_successes: 0,
            attempts: 0,
            cold_starts: 0,
            warm_hits: 0,
            shed: 0,
            unavailable: 0,
            crash_failures: 0,
            crashes: 0,
            failover_hops: 0,
            prewarms: 0,
            retunes: 0,
            client_latency: QuantileSketch::new(),
            cost_usd: 0.0,
            first_attempt_cost_usd: 0.0,
            wasted_warm_gb_s: 0.0,
            host_stats: Vec::new(),
        };
        let sample_every = SimDuration::from_nanos(
            (sweep.horizon.as_nanos() / OCCUPANCY_SAMPLES).max(1_000_000_000),
        );
        let sample_secs = sample_every.as_secs_f64();
        let mut next_sample = SimTime::ZERO.saturating_add(sample_every);
        let end = SimTime::ZERO.saturating_add(sweep.horizon);
        let payload = Payload::empty();

        let (mut advance, mut sync, mut observe) =
            (Boundary::new(), Boundary::new(), Boundary::new());
        let (mut invoke, mut record, mut capture) =
            (Boundary::with_samples(), Boundary::new(), Boundary::new());
        let mut lap = Lap::start();
        let mut sample_pools = |cluster: &mut ClusterPlatform,
                                s: &mut ClusterSeries,
                                upto: SimTime,
                                next_sample: &mut SimTime,
                                lap: &mut Lap,
                                advance: &mut Boundary| {
            while *next_sample <= upto && *next_sample <= end {
                let gap = next_sample.saturating_duration_since(cluster.now());
                cluster.advance(gap);
                lap.charge(advance);
                cluster.sync_host_clocks();
                lap.charge(&mut sync);
                let mut idle_mb: u64 = 0;
                for host in 0..cluster.hosts().len() {
                    for (id, _, memory_mb) in &deployed {
                        idle_mb +=
                            cluster.observe_pool(host, *id).idle as u64 * u64::from(*memory_mb);
                    }
                }
                s.wasted_warm_gb_s += idle_mb as f64 / 1024.0 * sample_secs;
                *next_sample = next_sample.saturating_add(sample_every);
                lap.charge(&mut observe);
            }
        };
        for (n, a) in trace.arrivals.iter().enumerate() {
            sample_pools(
                &mut cluster,
                &mut s,
                a.at,
                &mut next_sample,
                &mut lap,
                &mut advance,
            );
            let gap = a.at.saturating_duration_since(cluster.now());
            cluster.advance(gap);
            lap.charge(&mut advance);
            let Some((id, workload, _)) = deployed.get(a.function as usize) else {
                continue;
            };
            if n % stride == 0 {
                side.slates.push(slate(&cluster, *id));
                lap.charge(&mut capture);
            }
            let chain = cluster.invoke_resilient(*id, workload, &payload);
            lap.charge(&mut invoke);
            s.chains += 1;
            s.attempts += chain.billed_attempts();
            s.cost_usd += chain.total_cost_usd();
            if let Some(first) = chain.attempts.first() {
                s.first_attempt_cost_usd += first.bill.total_usd();
                if first.outcome.is_success() {
                    s.first_attempt_successes += 1;
                }
            }
            if chain.succeeded() {
                s.successes += 1;
                s.client_latency.push(chain.client_time.as_millis_f64());
            }
            lap.charge(&mut record);
        }
        sample_pools(
            &mut cluster,
            &mut s,
            end,
            &mut next_sample,
            &mut lap,
            &mut advance,
        );
        let rest = end.saturating_duration_since(cluster.now());
        cluster.advance(rest);
        lap.charge(&mut advance);
        rec.aggregate("cluster.deploy", deploy);
        rec.aggregate("workload_gen.synthetic_function", adapt);
        rec.aggregate("cluster.advance", advance);
        rec.aggregate("cluster.sync_host_clocks", sync);
        rec.aggregate("cluster.observe_pool", observe);
        rec.aggregate("cluster.invoke_resilient", invoke);
        rec.aggregate("core.cluster.record", record);
        rec.aggregate("bench.slate_capture", capture);

        rec.call("cluster.stats");
        let stats = cluster.stats();
        s.shed = stats.shed;
        s.unavailable = stats.unavailable;
        s.crash_failures = stats.crash_failures;
        s.failover_hops = stats.failover_hops;
        s.prewarms = stats.prewarms;
        s.retunes = stats.retunes;
        for host in cluster.hosts() {
            let h = host.stats();
            s.cold_starts += h.cold_starts;
            s.warm_hits += h.warm_hits;
            s.crashes += h.crashes;
            s.host_stats.push(h);
        }
        rec.exit();
        rec.call("cluster.drain");
        let mut cell_traces = TraceSink::new();
        cell_traces.extend(cluster.take_traces().into_iter().map(|mut t| {
            t.cell = Some(cell.index as u64);
            t
        }));
        rec.exit();
        rec.call("core.merge");
        series.push(s);
        traces.merge(cell_traces);
        rec.exit();
        rec.call("core.drop");
        drop(deployed);
        drop(cluster);
        rec.exit();
        rec.exit();
    }
    rec.call("core.merge");
    traces.sort_canonical();
    rec.exit();
    rec.call("core.drop");
    drop(trace);
    rec.exit();
    rec.exit();
    Replay::Cluster(ClusterSweepResult {
        provider: sweep.provider,
        series,
        traces,
    })
}

/// The slate a scheduler would see for `function` right now: every live
/// host with admission capacity, in host-id order.
fn slate(cluster: &ClusterPlatform, function: FunctionId) -> Vec<HostView> {
    let now = cluster.now();
    cluster
        .hosts()
        .iter()
        .filter(|h| h.is_up(now) && h.has_capacity())
        .map(|h| HostView {
            id: h.id(),
            inflight: h.inflight(),
            running: h.running(),
            cpus: h.cpus(),
            warm_for_function: h.observe_pool(function).idle,
        })
        .collect()
}

/// The perf-cost experiment, copied: `run_perf_cost_grid`'s cell loop with
/// spans at every layer call.
fn traced_perf_cost(
    rec: &mut Recorder,
    grid: &ExperimentGrid,
    config: &SuiteConfig,
    side: &mut Side,
) -> Replay {
    rec.group("replay");
    let cells = rec.time("core.grid", || grid.cells());
    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    let mut metrics = MetricsSink::new();
    let samples = config.samples;
    let batch = config.batch_size.max(1);
    let max_samples = config.max_samples;
    let max_rounds = 4 * max_samples / batch.max(1) + 16;
    for cell in &cells {
        rec.group(format!("cell[{}]", cell.index));
        let provider = cell.provider;
        let benchmark = cell.benchmark.as_str();
        let mut suite = rec.time("core.suite.new", || cell.suite(config));
        let handle = rec.time("workloads.prepare", || {
            suite
                .deploy(
                    provider,
                    benchmark,
                    cell.language,
                    cell.memory_mb,
                    Scale::Small,
                )
                .expect("every perf-cost kernel deploys on AWS at 512 MB")
        });
        let mut cold = new_series(provider, benchmark, cell.memory_mb, StartKind::Cold);
        let mut warm = new_series(provider, benchmark, cell.memory_mb, StartKind::Warm);
        let kernel = format!("workloads.{benchmark}.invoke");
        let mut invoke = Boundary::with_samples();
        let (mut evict, mut absorb_b, mut advance, mut ci) = (
            Boundary::new(),
            Boundary::new(),
            Boundary::new(),
            Boundary::new(),
        );
        let mut burst = |suite: &mut sebs::Suite, n: usize, lap: &mut Lap| {
            let records = suite.invoke_burst(&handle, n);
            let ns = lap.split();
            invoke.calls += records.len() as u64;
            invoke.busy_ns += ns;
            if let Some(s) = &mut invoke.samples {
                s.push((ns / records.len().max(1) as u64).min(u64::from(u32::MAX)) as u32);
            }
            records
        };

        let mut lap = Lap::start();
        let mut rounds = 0usize;
        while cold.client_ms.len() < samples
            && cold.client_ms.len() + cold.failures < max_samples
            && rounds < max_rounds
        {
            rounds += 1;
            suite.enforce_cold_start(&handle);
            lap.charge(&mut evict);
            let records = burst(&mut suite, batch.min(samples), &mut lap);
            absorb(&mut cold, &records, StartKind::Cold);
            lap.charge(&mut absorb_b);
            suite.advance(provider, SimDuration::from_secs(2));
            lap.charge(&mut advance);
        }
        let mut target = samples;
        let mut rounds = 0usize;
        while warm.client_ms.len() < target
            && warm.client_ms.len() + warm.failures < max_samples
            && rounds < max_rounds
        {
            rounds += 1;
            let records = burst(&mut suite, batch.min(target), &mut lap);
            absorb(&mut warm, &records, StartKind::Warm);
            lap.charge(&mut absorb_b);
            suite.advance(provider, SimDuration::from_secs(2));
            lap.charge(&mut advance);
            if warm.client_ms.len() >= target {
                if let Some(interval) = median_ci(&warm.client_ms, config.confidence) {
                    if !interval.is_within_of_median(config.ci_target_fraction)
                        && target < max_samples
                    {
                        target = (target * 2).min(max_samples);
                    }
                }
                lap.charge(&mut ci);
            }
        }
        cold.client_ci = median_ci(&cold.client_ms, config.confidence);
        warm.client_ci = median_ci(&warm.client_ms, config.confidence);
        lap.charge(&mut ci);
        rec.aggregate(&kernel, invoke);
        rec.aggregate("platform.enforce_cold_start", evict);
        rec.aggregate("core.absorb", absorb_b);
        rec.aggregate("platform.advance", advance);
        rec.aggregate("stats.median_ci", ci);

        rec.call("bench.read_counters");
        let store = suite.platform_mut(provider).storage_mut();
        let stats = store.stats();
        side.storage_ops += stats.requests();
        side.storage_bytes += stats.bytes_in + stats.bytes_out;
        if store.object_count() > 0 {
            side.object_sizes
                .push(store.stored_bytes() / store.object_count() as u64);
        }
        side.samples += cold.client_ms.len() + warm.client_ms.len();
        rec.exit();

        rec.call("core.drain");
        let mut cell_traces = TraceSink::new();
        cell_traces.extend(suite.take_traces().into_iter().map(|mut t| {
            t.cell = Some(cell.index as u64);
            t
        }));
        let mut cell_metrics = suite.take_metrics();
        for chunk in cell_metrics.chunks_mut() {
            chunk.cell = Some(cell.index as u64);
        }
        rec.exit();
        rec.call("core.merge");
        series.push(cold);
        series.push(warm);
        traces.merge(cell_traces);
        metrics.merge(cell_metrics);
        rec.exit();
        rec.call("core.drop");
        drop(handle);
        drop(suite);
        rec.exit();
        rec.exit();
    }
    rec.call("core.merge");
    traces.sort_canonical();
    metrics.sort_canonical();
    rec.exit();
    rec.exit();
    Replay::PerfCost(PerfCostResult {
        series,
        traces,
        metrics,
    })
}

fn new_series(
    provider: ProviderKind,
    benchmark: &str,
    memory_mb: u32,
    start: StartKind,
) -> PerfCostSeries {
    PerfCostSeries {
        provider,
        benchmark: benchmark.to_string(),
        memory_mb,
        start,
        client_ms: Vec::new(),
        provider_ms: Vec::new(),
        benchmark_ms: Vec::new(),
        cost_usd: Vec::new(),
        used_memory_mb: Vec::new(),
        billed_memory_mb: Vec::new(),
        failures: 0,
        client_ci: None,
    }
}

/// Keeps the records of the wanted start kind, as the perf-cost experiment
/// does.
fn absorb(series: &mut PerfCostSeries, records: &[InvocationRecord], want: StartKind) {
    for r in records {
        if !r.outcome.is_success() {
            series.failures += 1;
            continue;
        }
        if r.start != want {
            continue;
        }
        series.client_ms.push(r.client_time.as_millis_f64());
        series.provider_ms.push(r.provider_time.as_millis_f64());
        series.benchmark_ms.push(r.benchmark_time.as_millis_f64());
        series.cost_usd.push(r.bill.total_usd());
        series.used_memory_mb.push(r.used_memory_mb as f64);
        series.billed_memory_mb.push(r.bill.billed_memory_mb as f64);
    }
}

/// Nanoseconds per call of `f` over `inputs`, timed as one loop.
fn per_call_ns<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = clock::now();
    for x in inputs {
        f(x);
    }
    t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64
}

/// The costs inside `platform.invoke`, each timed in isolation on the
/// functions and arrivals of the workload.
fn micro_platform(model: &TraceModel, trace: &FleetTrace, seed: u64, layers: &mut Layers) {
    let aws = ProviderProfile::for_kind(ProviderKind::Aws);
    let root = SimRng::new(seed);
    let mut rng = root.stream("perfbench-micro");
    let picks: Vec<&sebs_workload_gen::FunctionProfile> = trace
        .arrivals
        .iter()
        .take(MICRO_CALLS)
        .map(|a| &model.functions[a.function as usize].profile)
        .collect();

    let config = FunctionConfig::new("micro", sebs_workloads::Language::Python, 128);
    let ns = per_call_ns(&picks, |p| {
        black_box(aws.cold_start.sample_breakdown(
            &mut rng,
            p.language,
            aws.cpu.share(p.memory_mb),
            p.memory_mb,
            config.code_package_bytes,
            config.init_work,
            aws.ops_per_sec_full_cpu,
        ));
    });
    layers.insert("coldstart.sample_breakdown_ns".into(), ns);

    let bills: Vec<(SimDuration, u32)> = picks
        .iter()
        .map(|p| {
            let ms = p.duration_ms.sample(&mut rng).max(0.0);
            (SimDuration::from_millis_f64(ms), p.memory_mb)
        })
        .collect();
    let ns = per_call_ns(&bills, |(d, mb)| {
        black_box(aws.billing.bill(*d, *mb, *mb / 2, 1024));
    });
    layers.insert("billing.bill_ns".into(), ns);

    let kernels: Vec<SyntheticFunction> = picks
        .iter()
        .map(|p| {
            SyntheticFunction::from_profile(p, aws.compute_rate(p.memory_mb, p.language) / 1000.0)
        })
        .collect();
    let mut store = SimObjectStore::default_model();
    let payload = Payload::empty();
    let mut exec_rng = root.stream("perfbench-micro-exec");
    let ns = per_call_ns(&kernels, |k| {
        let mut ctx = InvocationCtx::new(&mut store, &mut exec_rng);
        let _ = black_box(k.execute(&payload, &mut ctx));
    });
    layers.insert("workloads.synthetic_execute_ns".into(), ns);

    // The pool of the most invoked function, driven by its own arrivals:
    // acquire at each arrival, release when its sampled duration ends.
    let counts = trace.invocations_per_function(model.functions.len());
    let head = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap_or(0);
    let profile = &model.functions[head].profile;
    let mut events: Vec<(u64, bool, usize)> = Vec::new();
    for (i, a) in trace
        .arrivals
        .iter()
        .filter(|a| a.function as usize == head)
        .take(MICRO_CALLS)
        .enumerate()
    {
        let ms = profile.duration_ms.sample(&mut rng).max(0.0);
        let at = a.at.as_nanos();
        events.push((at, true, i));
        events.push((at + SimDuration::from_millis_f64(ms).as_nanos(), false, i));
    }
    // Releases before acquires at the same instant, then by arrival.
    events.sort_by_key(|&(t, acquire, i)| (t, acquire, i));
    let mut pool = ContainerPool::new(aws.eviction.clone());
    let mut held = vec![ContainerId(0); events.len() / 2];
    let mut pool_rng = root.stream("perfbench-micro-pool");
    let ns = per_call_ns(&events, |&(t, acquire, i)| {
        let now = SimTime::from_nanos(t);
        if acquire {
            held[i] = pool.acquire(now, &mut pool_rng, 0.0, true).id();
        } else {
            pool.release(held[i], now);
        }
    });
    // One acquire plus one release per invocation.
    layers.insert("pool.acquire_release_ns".into(), 2.0 * ns);
}

/// Each scheduler's `pick` on the slates captured during the replay.
fn micro_schedulers(slates: &[Vec<HostView>], seed: u64, layers: &mut Layers) {
    let slates: Vec<&Vec<HostView>> = slates.iter().filter(|s| s.len() > 1).collect();
    if slates.is_empty() {
        return;
    }
    let reps = (MICRO_CALLS / slates.len()).max(1);
    let inputs: Vec<&Vec<HostView>> = (0..reps).flat_map(|_| slates.iter().copied()).collect();
    for (kind, name) in [
        (SchedulerKind::LeastLoaded, "scheduler.pick_ns.least-loaded"),
        (SchedulerKind::RandomK(2), "scheduler.pick_ns.random-2"),
        (SchedulerKind::Locality, "scheduler.pick_ns.locality"),
    ] {
        let mut scheduler = kind.build();
        let mut rng = SimRng::new(seed).stream("perfbench-micro-sched");
        let ns = per_call_ns(&inputs, |slate| {
            black_box(scheduler.pick(slate, &mut rng));
        });
        layers.insert(name.into(), ns);
    }
}

/// A `SimObjectStore` put and get at each perf-cost cell's mean object
/// size; ns per operation.
fn micro_storage(sizes: &[u64], seed: u64, layers: &mut Layers) {
    if sizes.is_empty() {
        return;
    }
    let mut store = SimObjectStore::default_model();
    store.create_bucket("micro");
    let mut rng = SimRng::new(seed).stream("perfbench-micro-storage");
    let blobs: Vec<sebs_sim::Bytes> = sizes
        .iter()
        .map(|&n| sebs_sim::Bytes::from(vec![0x5a_u8; n as usize]))
        .collect();
    let reps = (MICRO_CALLS / 10 / blobs.len()).max(1);
    let keys: Vec<(String, &sebs_sim::Bytes)> = (0..reps)
        .flat_map(|r| {
            blobs
                .iter()
                .enumerate()
                .map(move |(i, b)| (format!("k{r}-{i}"), b))
        })
        .collect();
    let ns = per_call_ns(&keys, |(key, blob)| {
        let _ = black_box(store.put(&mut rng, "micro", key, (*blob).clone()));
        let _ = black_box(store.get(&mut rng, "micro", key));
    });
    layers.insert("storage.op_ns".into(), ns / 2.0);
}

/// Child part `ablate`: `fleet-observed`'s replay with only the observers
/// named in `--observers` on (`m` metrics, `s` trace sampler, `p`
/// profiler, `none`), in a fresh process for its own peak memory.
pub fn ablate(args: &Args) {
    let inputs = set_up(args.workload, args.seed);
    let Inputs::Fleet { fleet, model, .. } = &inputs else {
        panic!("the ablation replays a fleet workload");
    };
    let on = |c: char| args.observers.contains(c);
    let base = Workload::FleetReplay.config(args.seed, 1);
    let config = workload::observed(base, on('m'), on('s'), on('p'));
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..ABLATION_REPS {
        drop(last.take());
        let t = clock::now();
        let result = sebs::experiments::run_fleet(&config, fleet, model);
        walls.push(t.elapsed().as_secs_f64());
        last = Some(result);
    }
    let result = last.expect("at least one replay");
    emit("wall_s", median(&walls));
    emit("rss_mb", crate::host::peak_rss_mb().unwrap_or(f64::NAN));
    emit("kept", result.traces.len());
    emit("points", result.metrics.point_count());
    emit(
        "export_bytes",
        sebs_telemetry::prometheus_text(&result.metrics).len(),
    );
    emit(
        "digest.series",
        workload::digest(format!("{:?}", result.series).as_bytes()),
    );
}

/// The `--trace 1` run: the traced child, and on `fleet-observed` one
/// ablation child per observer.
pub fn parent(args: &Args, deadline: Instant) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let t = run_child(args, "traced", &[], deadline)?;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in &t {
        if let Some(name) = k.strip_prefix("layer.") {
            values.insert(
                name.to_string(),
                v.parse().map_err(|e| format!("{k}: {e}"))?,
            );
        }
    }
    let mut correct = t.get("checks_passed").map(String::as_str) == Some("1");
    if args.workload == Workload::FleetObserved {
        let mut runs: BTreeMap<&str, Data> = BTreeMap::new();
        for obs in ["none", "m", "s", "p"] {
            runs.insert(
                obs,
                run_child(args, "ablate", &["--observers", obs], deadline)?,
            );
        }
        println!("ablation: one observer on at a time, median of {ABLATION_REPS} replays each");
        println!("  {:<10} {:>10} {:>10}", "observers", "wall_s", "rss_mb");
        for (obs, d) in &runs {
            println!(
                "  {obs:<10} {:>10.4} {:>10.1}",
                num(d, "wall_s")?,
                num(d, "rss_mb")?
            );
        }
        let none = &runs["none"];
        let delta = |obs: &str, key: &str| -> Result<f64, String> {
            Ok(num(&runs[obs], key)? - num(none, key)?)
        };
        values.insert("telemetry.overhead_s".into(), delta("m", "wall_s")?);
        values.insert("telemetry.rss_mb".into(), delta("m", "rss_mb")?);
        values.insert("telemetry.points".into(), num(&runs["m"], "points")?);
        values.insert(
            "telemetry.export_bytes".into(),
            num(&runs["m"], "export_bytes")?,
        );
        values.insert("trace.sampler.overhead_s".into(), delta("s", "wall_s")?);
        values.insert("trace.kept".into(), num(&runs["s"], "kept")?);
        values.insert("sim.profiler.overhead_s".into(), delta("p", "wall_s")?);
        let mut checks = Checks::default();
        for (obs, d) in &runs {
            checks.same(
                &format!("observers {obs} leave the series unchanged"),
                d,
                "digest.series",
                &t,
                "digest.series",
            );
        }
        checks.print();
        correct &= checks.all_passed();
    }
    println!(
        "sim-stats {}",
        t.iter()
            .filter_map(|(k, v)| k.strip_prefix("sim.").map(|s| format!("{s}={v}")))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let v = values.get(*name).copied().unwrap_or(0.0);
            (name.to_string(), unit.to_string(), v)
        })
        .collect();
    Ok((
        correct,
        num(&t, "attempted")? as u64,
        num(&t, "failed")? as u64,
        metrics,
    ))
}

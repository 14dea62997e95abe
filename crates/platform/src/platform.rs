//! The simulated FaaS platform: deployment, triggers, scheduling,
//! execution, failures and billing in one place.

use std::borrow::Cow;
use std::rc::Rc;

use sebs_cloud::DriftingClock;
use sebs_resilience::{CircuitBreaker, FaultInjector, FaultPlan, FaultyStore, HedgeTracker};
use sebs_resilience::{InjectionCounts, RetryPolicy};
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{Phase, PhaseProfiler, SimDuration, SimRng, SimTime};
use sebs_storage::{ObjectStorage, SimObjectStore, StorageOp};
use sebs_telemetry::{MetricsChunk, DEFAULT_SAMPLE_INTERVAL};
use sebs_trace::{Admission, InvocationTrace, SamplerSpec, TraceSampler, TraceSpan};
use sebs_workloads::{InvocationCtx, IoEvent, IoKind, Payload, Workload, WorkloadError};

use crate::billing::InvocationBill;
use crate::container::ContainerId;
use crate::function::{FunctionConfig, FunctionId};
use crate::invocation::{
    AttemptChain, FunctionErrorKind, InvocationOutcome, InvocationRecord, StartKind,
};
use crate::observe::{PlatformMetrics, PoolKeys};
use crate::pool::{ContainerPool, PoolObservation};
use crate::provider::ProviderProfile;
use crate::trigger::TriggerKind;

/// Errors raised at deployment time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The requested memory violates the provider's policy.
    InvalidMemory(String),
    /// The code package exceeds the provider's limit (the paper's
    /// image-recognition fights AWS's 250 MB uncompressed limit).
    PackageTooLarge {
        /// Requested package size.
        bytes: u64,
        /// Provider limit.
        limit: u64,
    },
    /// The language runtime is not offered.
    UnsupportedLanguage,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidMemory(m) => write!(f, "invalid memory configuration: {m}"),
            DeployError::PackageTooLarge { bytes, limit } => {
                write!(f, "code package of {bytes} B exceeds the {limit} B limit")
            }
            DeployError::UnsupportedLanguage => f.write_str("language not supported"),
        }
    }
}

impl std::error::Error for DeployError {}

#[derive(Debug, Clone)]
struct Deployed {
    config: FunctionConfig,
    effective_memory_mb: u32,
    pool: usize,
}

/// The `PlatformLimits` scalars `invoke_one` reads, copied up front so the
/// hot path holds no borrow of `self.profile` while mutating RNG streams —
/// and never clones the full limits struct per invocation.
#[derive(Clone, Copy)]
struct LimitScalars {
    timeout: SimDuration,
    concurrency: u32,
    payload_bytes: u64,
}

impl LimitScalars {
    fn of(l: &crate::provider::PlatformLimits) -> LimitScalars {
        LimitScalars {
            timeout: l.timeout,
            concurrency: l.concurrency,
            payload_bytes: l.payload_bytes,
        }
    }
}

/// Same idea for `Quirks`: the per-invocation checks read only scalars, so
/// copying them avoids cloning the embedded penalty distribution.
#[derive(Clone, Copy)]
struct QuirkScalars {
    spurious_cold_start: f64,
    deterministic_warm_reuse: bool,
    availability_error_rate: f64,
    availability_threshold: u32,
    unavailable_penalty: SimDuration,
    strict_oom: bool,
    oom_slack_factor: f64,
}

impl QuirkScalars {
    fn of(q: &crate::provider::Quirks) -> QuirkScalars {
        QuirkScalars {
            spurious_cold_start: q.spurious_cold_start,
            deterministic_warm_reuse: q.deterministic_warm_reuse,
            availability_error_rate: q.availability_error_rate,
            availability_threshold: q.availability_threshold,
            unavailable_penalty: q.unavailable_penalty,
            strict_oom: q.strict_oom,
            oom_slack_factor: q.oom_slack_factor,
        }
    }
}

/// A deterministic simulation of one provider's FaaS offering.
///
/// # Example
///
/// ```
/// use sebs_platform::{FaasPlatform, FunctionConfig, ProviderProfile};
/// use sebs_workloads::{Language, Scale, Workload};
/// use sebs_workloads::templating::DynamicHtml;
///
/// let mut platform = FaasPlatform::new(ProviderProfile::aws(), 42);
/// let wl = DynamicHtml::new(Language::Python);
/// let fid = platform
///     .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
///     .unwrap();
/// let payload = platform.prepare(&wl, Scale::Test);
/// let cold = platform.invoke(fid, &wl, &payload);
/// let warm = platform.invoke(fid, &wl, &payload);
/// assert!(cold.client_time > warm.client_time, "cold starts cost extra");
/// ```
pub struct FaasPlatform {
    profile: ProviderProfile,
    // Deployments are shared, not cloned, per invocation: `invoke_one`
    // holds an `Rc` while it mutates pools and RNG streams, so the hot
    // path never copies a `FunctionConfig`.
    functions: Vec<Rc<Deployed>>,
    // Dense pools, indexed by `Deployed::pool`. The string keys live only
    // in `pool_keys`, read at deploy time and, in key order, for export.
    pools: Vec<ContainerPool>,
    pool_keys: PoolKeys,
    storage: SimObjectStore,
    now: SimTime,
    server_clock: DriftingClock,
    // Independent RNG streams per concern keep runs reproducible no matter
    // how callers interleave operations.
    rng_pool: StreamRng,
    rng_cold: StreamRng,
    rng_net: StreamRng,
    rng_exec: StreamRng,
    rng_failure: StreamRng,
    rng_memory: StreamRng,
    /// Client-side bandwidth to the provider's endpoints, bytes/second.
    client_bandwidth_bps: f64,
    // Co-location contention multiplier applied on top of the per-function
    // concurrency factor (cluster hosts raise it with their load); 1.0 is
    // arithmetically invisible, keeping the single-box path bit-identical.
    host_contention: f64,
    // Tracing is strictly observational: it consumes no randomness and no
    // host time, so results are identical with it on or off.
    tracing: bool,
    trace_seq: u64,
    traces: Vec<InvocationTrace>,
    // Bounded trace sampling: when installed, the sampler admits each
    // trace before its span tree is built (own RNG streams, so results
    // never change), and kept traces flow into it instead of the
    // unbounded `traces` vector.
    sampler: Option<TraceSampler>,
    // Sim-time phase profiling shares the tracing contract: preallocated,
    // no RNG draw, no wall-clock read, zero cost when `None`.
    profiler: Option<PhaseProfiler>,
    // Metrics collection shares the tracing contract: purely observational,
    // no RNG draw and no wall-clock read, so results never change with it.
    metrics: Option<PlatformMetrics>,
    // The platform's root seed, kept so fault injection and retry state
    // can derive their own dedicated streams lazily.
    seed: u64,
    // Fault injection: `None` (or an empty plan) is bit-identical to a
    // platform built before the subsystem existed — the injector draws
    // from its own stream and only when a rate is non-zero.
    faults: Option<FaultInjector>,
    // Client-side resilience: `None` (the `RetryPolicy::none()` mapping)
    // makes `invoke_with_policy` a plain `invoke` with no extra draws.
    resilience: Option<ResilienceState>,
}

/// Mutable client-side state behind `invoke_with_policy`.
struct ResilienceState {
    policy: RetryPolicy,
    rng_backoff: StreamRng,
    breaker: Option<CircuitBreaker>,
    hedge: Option<HedgeTracker>,
    retries_spent: u64,
}

impl std::fmt::Debug for FaasPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasPlatform")
            .field("provider", &self.profile.kind)
            .field("functions", &self.functions.len())
            .field("now", &self.now)
            .finish()
    }
}

impl FaasPlatform {
    /// Boots a platform with the given provider profile and seed.
    pub fn new(profile: ProviderProfile, seed: u64) -> FaasPlatform {
        let root = SimRng::new(seed);
        let mut clock_rng = root.stream("server-clock");
        // Server clocks are offset by up to ±30 s with ppm-scale skew.
        let offset = clock_rng.gen_range(-30.0..30.0);
        let skew = clock_rng.gen_range(-20e-6..20e-6);
        FaasPlatform {
            profile,
            functions: Vec::new(),
            pools: Vec::new(),
            pool_keys: PoolKeys::new(),
            storage: SimObjectStore::default_model(),
            now: SimTime::ZERO,
            server_clock: DriftingClock::new(offset, skew),
            rng_pool: root.stream("pool"),
            rng_cold: root.stream("coldstart"),
            rng_net: root.stream("network"),
            rng_exec: root.stream("exec"),
            rng_failure: root.stream("failure"),
            rng_memory: root.stream("memory"),
            client_bandwidth_bps: 30e6,
            host_contention: 1.0,
            tracing: false,
            trace_seq: 0,
            traces: Vec::new(),
            sampler: None,
            profiler: None,
            metrics: None,
            seed,
            faults: None,
            resilience: None,
        }
    }

    /// Installs a fault plan. An empty plan removes the injector entirely,
    /// restoring bit-identical behavior to a platform that never had one;
    /// a non-empty plan compiles into a [`FaultInjector`] drawing from the
    /// dedicated `fault-injector` stream of the platform's seed.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(
                plan,
                SimRng::new(self.seed).stream("fault-injector"),
            ))
        };
    }

    /// The fault plan in force (empty when no injector is installed).
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults
            .as_ref()
            .map_or_else(FaultPlan::empty, |f| f.plan().clone())
    }

    /// How many faults of each kind have been injected so far.
    pub fn fault_counts(&self) -> InjectionCounts {
        self.faults
            .as_ref()
            .map_or_else(InjectionCounts::default, |f| f.counts())
    }

    /// How many RNG values fault injection has consumed — stays at zero
    /// for empty plans, the observable half of the bit-identity guarantee.
    pub fn fault_draws(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.draws())
    }

    /// Installs the client-side retry policy driven by
    /// [`FaasPlatform::invoke_with_policy`]. [`RetryPolicy::none`] removes
    /// the state entirely: the wrapper then performs exactly one plain
    /// `invoke` and touches no extra randomness.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.resilience = if policy.is_none() {
            None
        } else {
            Some(ResilienceState {
                breaker: policy.breaker.map(CircuitBreaker::new),
                hedge: policy.hedge_after_quantile.map(HedgeTracker::new),
                rng_backoff: SimRng::new(self.seed).stream("retry-backoff"),
                retries_spent: 0,
                policy,
            })
        };
    }

    /// Whether a non-trivial retry policy is installed.
    pub fn resilience_active(&self) -> bool {
        self.resilience.is_some()
    }

    /// Switches per-invocation trace collection on or off. Collection is
    /// purely observational — it never touches an RNG stream, so toggling
    /// it cannot change any simulation result.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Whether trace collection is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// Switches tracing on with a bounded [`TraceSampler`] instead of
    /// full collection: memory stays fixed no matter how many invocations
    /// run, and [`FaasPlatform::take_traces`] returns the sampled set.
    /// The sampler draws only from dedicated `trace-reservoir` streams of
    /// the platform seed, so — like plain tracing — enabling it cannot
    /// change any simulation result.
    pub fn enable_trace_sampling(&mut self, spec: SamplerSpec) {
        self.tracing = true;
        self.sampler = Some(TraceSampler::new(spec, self.seed));
    }

    /// Whether bounded trace sampling is active.
    pub fn sampling_enabled(&self) -> bool {
        self.sampler.is_some()
    }

    /// Drains the traces collected so far, in invocation order. With a
    /// sampler installed, this is the bounded kept set (reservoir sample,
    /// slowest exemplars, error exemplars), still in invocation order.
    pub fn take_traces(&mut self) -> Vec<InvocationTrace> {
        match self.sampler.as_mut() {
            Some(s) => s.drain(),
            None => std::mem::take(&mut self.traces),
        }
    }

    /// Switches on the sim-time phase profiler. Recording is
    /// allocation-free and reads no wall clock, so — like tracing — it is
    /// invisible to simulation results.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(PhaseProfiler::new());
    }

    /// The accumulated phase profile, if profiling is enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// Takes the accumulated phase profile, leaving profiling enabled
    /// with fresh counters.
    pub fn take_profile(&mut self) -> Option<PhaseProfiler> {
        self.profiler.as_mut().map(std::mem::take)
    }

    /// Enables fleet-wide metrics collection with gauge sampling every
    /// `interval` of sim time. Like tracing, collection is purely
    /// observational — no RNG stream is touched and no wall clock is read,
    /// so enabling it cannot change any simulation result.
    pub fn enable_metrics(&mut self, interval: SimDuration) {
        self.metrics = Some(PlatformMetrics::new(interval));
        self.set_static_gauges();
    }

    /// Static platform facts, exported as info-gauges: the concurrency
    /// ceiling the burst gauges are judged against, and the
    /// monitoring-fidelity caveats behind Figure 5b (Azure's memory
    /// numbers exist but are garbage; GCP reports none at all).
    fn set_static_gauges(&mut self) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        let mon = crate::monitoring::MonitoringApi::for_kind(self.profile.kind);
        m.hub.gauge_set(
            "sebs_concurrency_limit",
            &[],
            self.profile.limits.concurrency as f64,
        );
        m.hub.gauge_set(
            "sebs_monitoring_reports_memory",
            &[],
            mon.reports_memory() as u64 as f64,
        );
        m.hub.gauge_set(
            "sebs_monitoring_memory_reliable",
            &[],
            mon.memory_reliable() as u64 as f64,
        );
    }

    /// Switches metrics collection on (at [`DEFAULT_SAMPLE_INTERVAL`]) or
    /// off, mirroring [`FaasPlatform::set_tracing`].
    pub fn set_metrics(&mut self, enabled: bool) {
        if enabled {
            self.enable_metrics(DEFAULT_SAMPLE_INTERVAL);
        } else {
            self.metrics = None;
        }
    }

    /// Whether metrics collection is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Drains the metrics collected so far as one provider-tagged chunk.
    /// Observed gauges and counters are refreshed as of the current
    /// instant first, so the final snapshot reflects the platform state at
    /// drain time. Collection carries on from there: the static gauges are
    /// set again, and the sampler resumes at the next boundary it has not
    /// sampled, never re-sampling an instant that was drained. Returns
    /// `None` when collection is disabled.
    pub fn take_metrics(&mut self) -> Option<MetricsChunk> {
        self.refresh_observed_metrics(self.now);
        let provider = self.profile.kind.to_string();
        let chunk = self.metrics.as_mut()?.hub.drain(&provider);
        self.set_static_gauges();
        Some(chunk)
    }

    /// Fires the gauge sampler for every interval boundary `<= upto`,
    /// refreshing the observed pool and storage metrics at each boundary.
    fn pump_metrics(&mut self, upto: SimTime) {
        loop {
            let Some(due) = self.metrics.as_ref().and_then(|m| m.hub.next_due(upto)) else {
                return;
            };
            self.refresh_observed_metrics(due);
            if let Some(m) = self.metrics.as_mut() {
                m.hub.sample_at(due);
            }
        }
    }

    /// Re-reads every externally-maintained metric source — pool occupancy
    /// and statistics, storage statistics — into the hub, as of instant
    /// `t`. Pure observation: pools are not advanced and no RNG is drawn.
    fn refresh_observed_metrics(&mut self, t: SimTime) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        m.refresh_pools(&self.pool_keys, &self.pools, t);
        let hub = &mut m.hub;
        // Counter snapshots at zero stay absent (Prometheus convention:
        // a counter series appears on first increment) — otherwise an
        // untouched platform would export all-zero storage counters and
        // never count as idle.
        let storage = self.storage.stats();
        for (op, count) in [
            ("get", storage.gets),
            ("put", storage.puts),
            ("list", storage.lists),
        ] {
            if count > 0 {
                hub.counter_set("sebs_storage_requests_total", &[("op", op)], count as f64);
            }
        }
        for (direction, bytes) in [("in", storage.bytes_in), ("out", storage.bytes_out)] {
            if bytes > 0 {
                hub.counter_set(
                    "sebs_storage_bytes_total",
                    &[("direction", direction)],
                    bytes as f64,
                );
            }
        }
        if let Some(counts) = self.faults.as_ref().map(|f| f.counts()) {
            for (kind, count) in counts.entries() {
                if count > 0 {
                    hub.counter_set(
                        "sebs_faults_injected_total",
                        &[("kind", kind)],
                        count as f64,
                    );
                }
            }
        }
    }

    /// Records the per-invocation event metrics for one completed (or
    /// rejected) invocation through the function's cached handles.
    fn record_invocation_metrics(
        &mut self,
        id: FunctionId,
        name: &str,
        record: &InvocationRecord,
        spurious: bool,
    ) {
        if let Some(m) = self.metrics.as_mut() {
            m.record_invocation(id, name, record, spurious);
        }
    }

    /// The provider profile in force.
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Mutable profile access for ablation studies (e.g. swapping the
    /// eviction policy before any deployment).
    pub fn profile_mut(&mut self) -> &mut ProviderProfile {
        &mut self.profile
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the platform clock (evictions apply lazily). When metrics
    /// are enabled, the gauge sampler fires for every interval boundary
    /// the clock crosses.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
        self.pump_metrics(self.now);
    }

    /// The platform's persistent object storage.
    pub fn storage_mut(&mut self) -> &mut SimObjectStore {
        &mut self.storage
    }

    /// The server-side clock (drifting relative to the client).
    pub fn server_clock(&self) -> DriftingClock {
        self.server_clock
    }

    /// Deploys a function.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when the configuration violates the
    /// provider's Table 2 limits.
    pub fn deploy(&mut self, config: FunctionConfig) -> Result<FunctionId, DeployError> {
        if !self.profile.languages.contains(&config.language) {
            return Err(DeployError::UnsupportedLanguage);
        }
        if config.code_package_bytes > self.profile.limits.code_package_bytes {
            return Err(DeployError::PackageTooLarge {
                bytes: config.code_package_bytes,
                limit: self.profile.limits.code_package_bytes,
            });
        }
        let effective = self
            .profile
            .memory
            .validate(config.memory_mb)
            .map_err(DeployError::InvalidMemory)?;
        let id = FunctionId(self.functions.len() as u32);
        let pool_key = match (&config.app, self.profile.quirks.function_apps) {
            (Some(app), true) => format!("app:{app}"),
            _ => format!("fn:{}", id.0),
        };
        let pool = *self.pool_keys.entry(pool_key).or_insert(self.pools.len());
        if pool == self.pools.len() {
            self.pools
                .push(ContainerPool::new(self.profile.eviction.clone()));
        }
        self.functions.push(Rc::new(Deployed {
            config,
            effective_memory_mb: effective,
            pool,
        }));
        Ok(id)
    }

    /// Runs a workload's `prepare` step against the platform's storage,
    /// returning the invocation payload.
    pub fn prepare(&mut self, workload: &dyn Workload, scale: sebs_workloads::Scale) -> Payload {
        let mut rng = self.rng_exec.clone();
        self.rng_exec.gen::<u64>(); // decorrelate from later invocations
        workload.prepare(scale, &mut rng, &mut self.storage)
    }

    /// Kills all warm containers of a function — the suite's forced cold
    /// start (SeBS updates the function configuration on AWS / publishes a
    /// new version on Azure and GCP to achieve this).
    pub fn enforce_cold_start(&mut self, id: FunctionId) {
        self.pools[self.functions[id.0 as usize].pool].evict_all();
    }

    /// Kills all warm containers of **every** function — the cluster's
    /// host-crash switch: a dead machine loses its entire warm pool at
    /// once. RNG-free, like [`FaasPlatform::enforce_cold_start`].
    pub fn evict_all_containers(&mut self) {
        for pool in &mut self.pools {
            pool.evict_all();
        }
    }

    /// Replaces the eviction policy of a function's container pool — the
    /// hook keep-alive policies use to (re)tune how long this function's
    /// idle containers survive. Existing containers keep their state; the
    /// new policy applies from the next pool advance.
    pub fn set_pool_policy(&mut self, id: FunctionId, policy: crate::eviction::EvictionPolicy) {
        self.pools[self.functions[id.0 as usize].pool].set_policy(policy);
    }

    /// Sets the co-location contention multiplier: the extra slowdown a
    /// cluster host applies to I/O when other invocations are packed onto
    /// the same machine. `1.0` (the default) is arithmetically invisible —
    /// the single-box platform stays bit-identical.
    pub fn set_contention(&mut self, factor: f64) {
        self.host_contention = factor.max(1.0);
    }

    /// Pre-warms one container for a function at the current sim-time: the
    /// pool acquires and immediately releases a sandbox, so the *next*
    /// arrival finds it idle and warm. This is the prewarm half of
    /// hybrid-histogram keep-alive; it consumes pool-stream RNG like any
    /// acquisition, so it is only driven by policies that opted in.
    /// Returns `true` when the prewarm actually created a container (a
    /// warm pool is left untouched rather than touched, so prewarming an
    /// already-warm function does not refresh its idle clock).
    pub fn prewarm(&mut self, id: FunctionId) -> bool {
        let now = self.now;
        let pool = &mut self.pools[self.functions[id.0 as usize].pool];
        pool.advance(now, &mut self.rng_pool);
        if pool.idle_count() > 0 {
            return false;
        }
        let acquired = pool.acquire(now, &mut self.rng_pool, 0.0, true);
        pool.release(acquired.id(), now);
        acquired.is_cold()
    }

    /// Number of warm containers currently alive for a function (after
    /// applying evictions at the current time) — the probe of the
    /// Eviction-Model experiment.
    pub fn warm_containers(&mut self, id: FunctionId) -> usize {
        let now = self.now;
        self.pools[self.functions[id.0 as usize].pool].warm_count(now, &mut self.rng_pool)
    }

    /// Read-only snapshot of a function's container pool at the current
    /// time: warm/idle/active counts with evictions applied virtually.
    /// Unlike [`FaasPlatform::warm_containers`] this draws no RNG and
    /// mutates nothing, so fleet experiments can sample occupancy
    /// without perturbing the eviction schedule.
    pub fn observe_pool(&self, id: FunctionId) -> PoolObservation {
        self.pools[self.functions[id.0 as usize].pool].observe(self.now)
    }

    /// Number of deployed functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Invokes a function once: a burst of one, without its allocations.
    pub fn invoke(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> InvocationRecord {
        let trigger = self.profile.trigger.resolve(TriggerKind::Http);
        let (record, release) = self.invoke_one(id, workload, payload, 0, 1, trigger);
        if let Some((pool, cid, at)) = release {
            self.pools[pool].release(cid, at);
        }
        record
    }

    /// Invokes a function once under the installed [`RetryPolicy`],
    /// returning the full [`AttemptChain`].
    ///
    /// With no policy installed ([`RetryPolicy::none`]) this is exactly
    /// one plain [`FaasPlatform::invoke`] — same draws, same clock, same
    /// records. With a policy, failed retryable attempts are retried with
    /// exponential backoff (the platform clock advances by each attempt's
    /// client time plus the wait, so breaker cooldowns and container
    /// lifecycles see real time passing), slow first attempts may be
    /// hedged, and a tripped circuit breaker rejects calls locally.
    /// **Every launched attempt is billed** — the chain's cost is the sum
    /// over attempts, exactly what the cloud would charge.
    pub fn invoke_with_policy(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> AttemptChain {
        let Some(mut state) = self.resilience.take() else {
            return AttemptChain::single(self.invoke(id, workload, payload));
        };
        let chain = self.run_chain(id, workload, payload, &mut state);
        self.resilience = Some(state);
        chain
    }

    fn run_chain(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
        state: &mut ResilienceState,
    ) -> AttemptChain {
        let name = self.functions[id.0 as usize].config.name.clone();
        let memory = self.functions[id.0 as usize].effective_memory_mb;
        let chain_start = self.now;
        let policy = state.policy.clone();

        if let Some(breaker) = state.breaker.as_mut() {
            let admitted = breaker.allow(self.now);
            let breaker_state = breaker.state();
            let rejections = breaker.rejections();
            if let Some(m) = self.metrics.as_mut() {
                let fun = [("function", name.as_str())];
                m.hub
                    .gauge_set("sebs_breaker_state", &fun, breaker_state.as_gauge() as f64);
                if rejections > 0 {
                    m.hub
                        .counter_set("sebs_breaker_rejections_total", &fun, rejections as f64);
                }
            }
            if !admitted {
                return AttemptChain {
                    attempts: Vec::new(),
                    waits: Vec::new(),
                    hedged: false,
                    hedge_won: false,
                    breaker_rejected: true,
                    outcome: InvocationOutcome::ServiceUnavailable,
                    client_time: SimDuration::ZERO,
                };
            }
        }

        let mut chain = AttemptChain {
            attempts: Vec::new(),
            waits: Vec::new(),
            hedged: false,
            hedge_won: false,
            breaker_rejected: false,
            outcome: InvocationOutcome::ServiceUnavailable,
            client_time: SimDuration::ZERO,
        };
        let mut elapsed = SimDuration::ZERO;
        let mut hedge_offset: Option<SimDuration> = None;
        loop {
            let attempt_index = chain.attempts.len() as u32;
            let primary = self.invoke(id, workload, payload);
            if attempt_index > 0 {
                if let Some(m) = self.metrics.as_mut() {
                    m.hub.counter_add(
                        "sebs_retry_attempts_total",
                        &[("function", name.as_str())],
                        1.0,
                    );
                }
            }
            // Hedge the first attempt when its latency exceeds the learned
            // quantile threshold: the hedge launches at the threshold
            // instant, and the effective response is whichever attempt
            // answers first (successes preferred).
            let hedge_threshold = state.hedge.as_ref().and_then(|h| h.threshold());
            let mut attempt_outcome = primary.outcome.clone();
            let mut attempt_time = primary.client_time;
            let mut attempt_extent = primary.client_time;
            if primary.outcome.is_success() {
                if let Some(h) = state.hedge.as_mut() {
                    h.observe(primary.client_time);
                }
            }
            let primary_time = primary.client_time;
            let primary_outcome = primary.outcome.clone();
            chain.attempts.push(primary);
            if attempt_index == 0 {
                if let Some(threshold) = hedge_threshold.filter(|t| primary_time > *t) {
                    chain.hedged = true;
                    hedge_offset = Some(threshold);
                    let hedge = self.invoke(id, workload, payload);
                    if hedge.outcome.is_success() {
                        if let Some(h) = state.hedge.as_mut() {
                            h.observe(hedge.client_time);
                        }
                    }
                    let hedge_total = threshold + hedge.client_time;
                    attempt_extent = primary_time.max(hedge_total);
                    let hedge_wins =
                        match (primary_outcome.is_success(), hedge.outcome.is_success()) {
                            (true, false) => false,
                            (false, true) => true,
                            _ => hedge_total < primary_time,
                        };
                    if hedge_wins {
                        chain.hedge_won = true;
                        attempt_outcome = hedge.outcome.clone();
                        attempt_time = hedge_total;
                    }
                    if let Some(m) = self.metrics.as_mut() {
                        let result = if hedge_wins { "won" } else { "lost" };
                        m.hub
                            .counter_add("sebs_hedge_attempts_total", &[("result", result)], 1.0);
                    }
                    chain.attempts.push(hedge);
                }
            }

            if let Some(breaker) = state.breaker.as_mut() {
                if attempt_outcome.is_success() {
                    breaker.record_success();
                } else {
                    breaker.record_failure(self.now + attempt_time);
                }
                let breaker_state = breaker.state();
                if let Some(m) = self.metrics.as_mut() {
                    m.hub.gauge_set(
                        "sebs_breaker_state",
                        &[("function", name.as_str())],
                        breaker_state.as_gauge() as f64,
                    );
                }
            }

            elapsed += attempt_time;
            chain.outcome = attempt_outcome.clone();
            let retryable = attempt_outcome.retryable();
            let attempts_left = attempt_index + 1 < policy.max_attempts;
            let budget_left = policy
                .retry_budget
                .is_none_or(|budget| state.retries_spent < budget);
            if attempt_outcome.is_success() || !retryable || !attempts_left || !budget_left {
                // The clock did not advance for the final attempt — same
                // contract as a plain invoke, the driver owns time.
                break;
            }
            let wait = policy.backoff_for(attempt_index, &mut state.rng_backoff);
            if let Some(deadline) = policy.deadline {
                if elapsed + wait >= deadline {
                    break;
                }
            }
            state.retries_spent += 1;
            chain.waits.push(wait);
            elapsed += wait;
            // Let sim time pass for the attempt and the backoff so pool
            // lifecycles, outage windows and breaker cooldowns see it.
            self.advance(attempt_extent + wait);
        }
        chain.client_time = elapsed;

        if self.tracing && chain.attempts.len() > 1 {
            // The chain's extent is known only once its span is laid out,
            // so this rare trace is built before admission.
            let root = build_chain_span(&chain, chain_start, hedge_offset);
            debug_assert_eq!(root.validate(), Ok(()), "chain span tree is well-formed");
            let failed = !chain.outcome.is_success();
            if let Some(ticket) = self.admit_trace(&name, root.duration, failed) {
                self.store_trace(ticket, &name, memory, root);
            }
        }
        chain
    }
    ///
    /// Returns one record per request, in submission order. The platform
    /// clock does **not** advance (the driver controls time).
    pub fn invoke_burst(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payloads: &[Payload],
    ) -> Vec<InvocationRecord> {
        self.invoke_burst_via(id, workload, payloads, TriggerKind::Http)
    }

    /// Like [`FaasPlatform::invoke_burst`], with an explicit trigger kind.
    /// SDK triggers fall back to HTTP on providers without SDK invocation
    /// (Azure, as in the paper's toolkit); storage-event and timer
    /// triggers originate inside the cloud and skip the client RTT.
    pub fn invoke_burst_via(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payloads: &[Payload],
        trigger: TriggerKind,
    ) -> Vec<InvocationRecord> {
        let trigger = self.profile.trigger.resolve(trigger);
        let n = payloads.len() as u32;
        let mut records = Vec::with_capacity(payloads.len());
        // Released after the burst: no request reuses another's sandbox.
        let mut releases = Vec::with_capacity(payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            let (record, release) = self.invoke_one(id, workload, payload, i as u32, n, trigger);
            records.push(record);
            releases.extend(release);
        }
        for (pool, cid, at) in releases {
            self.pools[pool].release(cid, at);
        }
        records
    }

    #[allow(clippy::too_many_lines)]
    fn invoke_one(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
        index: u32,
        concurrency: u32,
        trigger: TriggerKind,
    ) -> (InvocationRecord, Option<(usize, ContainerId, SimTime)>) {
        // Share the deployment record and copy the scalar limits/quirks the
        // hot path reads, instead of deep-cloning config strings and
        // distribution tables on every invocation.
        let deployed = Rc::clone(&self.functions[id.0 as usize]);
        let memory = deployed.effective_memory_mb;
        let language = deployed.config.language;
        let limits = LimitScalars::of(&self.profile.limits);
        let quirks = QuirkScalars::of(&self.profile.quirks);

        let rtt = if trigger.crosses_wan() {
            self.profile.client_rtt_ms.sample_millis(&mut self.rng_net)
        } else {
            SimDuration::ZERO
        };
        let trigger_overhead = self.profile.trigger.overhead(&mut self.rng_net, trigger);
        let req_transfer = if trigger.crosses_wan() {
            SimDuration::from_secs_f64(payload.size_bytes() as f64 / self.client_bandwidth_bps)
        } else {
            SimDuration::ZERO
        };

        let mut record = InvocationRecord {
            function: id,
            start: StartKind::Warm,
            outcome: InvocationOutcome::Success,
            submitted_at: self.now,
            benchmark_time: SimDuration::ZERO,
            provider_time: SimDuration::ZERO,
            client_time: rtt,
            instructions: 0,
            io_time: SimDuration::ZERO,
            used_memory_mb: 0,
            configured_memory_mb: memory,
            payload_bytes: payload.size_bytes(),
            response_bytes: 0,
            container: None,
            concurrency,
            bill: zero_bill(),
            t_send_client: self.now.as_secs_f64(),
            t_start_server: 0.0,
            t_recv_client: 0.0,
        };

        // 1. Trigger-level validation.
        if payload.size_bytes() > limits.payload_bytes {
            record.outcome = InvocationOutcome::PayloadTooLarge {
                bytes: payload.size_bytes(),
                limit: limits.payload_bytes,
            };
            record.t_recv_client = (self.now + rtt).as_secs_f64();
            self.record_failure_trace(&deployed.config.name, &record);
            self.record_invocation_metrics(id, &deployed.config.name, &record, false);
            return (record, None);
        }

        // 2. Concurrency limit.
        if index >= limits.concurrency {
            record.outcome = InvocationOutcome::Throttled;
            record.client_time = rtt + req_transfer;
            record.t_recv_client = (self.now + record.client_time).as_secs_f64();
            self.record_failure_trace(&deployed.config.name, &record);
            self.record_invocation_metrics(id, &deployed.config.name, &record, false);
            return (record, None);
        }

        // 3. Injected outage windows, then availability under heavy
        // concurrency (§6.2 Q3). The short-circuit keeps the historic
        // `rng_failure` draw sequence intact whenever no outage fires.
        let outage = self
            .faults
            .as_mut()
            .is_some_and(|f| f.sample_outage(self.now));
        // audit:allow(failure-probability): the paper's §6.2 Q3 availability
        // model — rate, threshold and penalty are provider Quirks, not an
        // ad-hoc fault source.
        if outage
            || (concurrency > quirks.availability_threshold
                && self.rng_failure.gen::<f64>() < quirks.availability_error_rate)
        {
            record.outcome = InvocationOutcome::ServiceUnavailable;
            record.client_time = rtt + req_transfer + quirks.unavailable_penalty;
            record.t_recv_client = (self.now + record.client_time).as_secs_f64();
            self.record_failure_trace(&deployed.config.name, &record);
            self.record_invocation_metrics(id, &deployed.config.name, &record, false);
            return (record, None);
        }

        // 4. Sandbox acquisition. Cold-start storms raise the spurious-cold
        // probability inside their windows (a pure interval lookup) and
        // force the probabilistic acquisition path even on providers with
        // deterministic warm reuse; outside every window the arguments are
        // exactly the historic ones.
        let storm_boost = self
            .faults
            .as_ref()
            .map_or(0.0, |f| f.storm_boost(self.now));
        let pool = &mut self.pools[deployed.pool];
        let acquired = pool.acquire(
            self.now,
            &mut self.rng_pool,
            quirks.spurious_cold_start.max(storm_boost),
            quirks.deterministic_warm_reuse && storm_boost == 0.0,
        );
        record.container = Some(acquired.id());
        // A cold acquisition while idle containers survive means the
        // provider ignored a warm candidate — GCP's unexpected cold starts
        // (§6.1); a regular cold start only happens when the pool is dry.
        let spurious = acquired.is_cold() && pool.idle_count() > 0;
        let cpu_share = self.profile.cpu.share(memory);
        let cold_breakdown = if acquired.is_cold() {
            record.start = StartKind::Cold;
            Some(self.profile.cold_start.sample_breakdown(
                &mut self.rng_cold,
                language,
                cpu_share,
                memory,
                deployed.config.code_package_bytes,
                deployed.config.init_work,
                self.profile.ops_per_sec_full_cpu,
            ))
        } else {
            None
        };
        let cold_init = cold_breakdown
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.total());
        if let Some(p) = self.profiler.as_mut() {
            p.record(Phase::PoolAcquire, cold_init);
        }

        // 5. Execute the function body. Warm containers keep workload
        // caches (e.g. the loaded model) alive between invocations.
        let exec_payload = with_cache_param(payload, !acquired.is_cold());
        let mut exec_rng = self.rng_exec.clone();
        self.rng_exec.gen::<u64>(); // decorrelate subsequent invocations
        let tracing = self.tracing;
        let mut run_body = |storage: &mut dyn ObjectStorage| {
            let mut ctx = InvocationCtx::new(storage, &mut exec_rng);
            if tracing {
                ctx.enable_io_recording();
            }
            let result = workload.execute(&exec_payload, &mut ctx);
            (
                result,
                ctx.counters(),
                ctx.io_time(),
                ctx.peak_alloc_bytes(),
                ctx.io_events().to_vec(),
            )
        };
        // Storage faults interpose only when the plan actually has any, so
        // the fault-free data path is byte-for-byte the historic one.
        let (result, counters, raw_io, peak_alloc, io_events) = match self
            .faults
            .as_mut()
            .filter(|f| f.plan().has_storage_faults())
        {
            Some(injector) => run_body(&mut FaultyStore::new(&mut self.storage, injector)),
            None => run_body(&mut self.storage),
        };

        // 6. Convert counters into time under this allocation.
        let compute_rate = self.profile.compute_rate(memory, language);
        let compute_time = SimDuration::from_secs_f64(counters.instructions as f64 / compute_rate);
        let io_scale = self.profile.io_scale(memory);
        let mut contention = 1.0 + 0.05 * ((concurrency.saturating_sub(1)).min(16) as f64);
        if self.host_contention != 1.0 {
            contention *= self.host_contention;
        }
        let io_time = raw_io.mul_f64(contention / io_scale);
        record.instructions = counters.instructions;
        record.io_time = io_time;
        record.benchmark_time = compute_time + io_time;
        if let Some(p) = self.profiler.as_mut() {
            p.record_events(Phase::StorageOp, counters.storage_requests, io_time);
        }

        // 7. Memory accounting: runtime baseline + workload peak.
        let runtime_base_mb = match language {
            sebs_workloads::Language::Python => 36.0 + 4.0 * self.rng_memory.gen::<f64>(),
            sebs_workloads::Language::NodeJs => 26.0 + 4.0 * self.rng_memory.gen::<f64>(),
        };
        let used_mb = (runtime_base_mb + peak_alloc as f64 / (1024.0 * 1024.0)).ceil() as u32;
        record.used_memory_mb = used_mb;

        // 8. Failure checks.
        let oom_limit = if quirks.strict_oom {
            memory as f64
        } else {
            memory as f64 * quirks.oom_slack_factor
        };
        let func_timeout = deployed
            .config
            .timeout
            .unwrap_or(limits.timeout)
            .min(limits.timeout);
        let sandbox_overhead = self
            .profile
            .runtime_overhead_ms
            .sample_millis(&mut self.rng_net);
        let penalty = self
            .profile
            .quirks
            .concurrency_penalty_ms_per_peer
            .sample_millis(&mut self.rng_net)
            .mul_f64(concurrency.saturating_sub(1) as f64);

        // Injected execution faults: the workload ran to completion (so
        // every downstream RNG stream drew exactly as usual), but the
        // sandbox crashed or the payload arrived corrupted — the attempt
        // is billed like any function error.
        let injected = match self.faults.as_mut() {
            Some(f) => {
                let corrupt = f.sample_corrupt_payload();
                let crash = f.sample_sandbox_crash();
                if corrupt {
                    Some(FunctionErrorKind::CorruptPayload)
                } else if crash {
                    Some(FunctionErrorKind::SandboxCrash)
                } else {
                    None
                }
            }
            None => None,
        };
        let outcome = match (injected, &result) {
            (Some(FunctionErrorKind::CorruptPayload), _) => InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::CorruptPayload,
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: "request payload corrupted in flight".to_string(),
            },
            (Some(_), _) => InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::SandboxCrash,
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: "sandbox crashed mid-execution".to_string(),
            },
            (None, Err(e)) => InvocationOutcome::FunctionError {
                kind: classify_workload_error(e),
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: e.to_string(),
            },
            (None, Ok(_)) if used_mb as f64 > oom_limit => InvocationOutcome::OutOfMemory {
                used_mb,
                limit_mb: memory,
            },
            (None, Ok(_)) if record.benchmark_time > func_timeout => InvocationOutcome::Timeout,
            (None, Ok(_)) => InvocationOutcome::Success,
        };
        let response_bytes = match &result {
            Ok(resp) if outcome.is_success() => resp.size_bytes(),
            _ => 0,
        };
        record.response_bytes = response_bytes;

        // Timeouts are cut off at the limit; OOM kills happen mid-run.
        if matches!(outcome, InvocationOutcome::Timeout) {
            record.benchmark_time = func_timeout;
        }

        record.provider_time = record.benchmark_time + sandbox_overhead + penalty + cold_init;
        let resp_transfer = if trigger.crosses_wan() {
            SimDuration::from_secs_f64(response_bytes as f64 / self.client_bandwidth_bps)
        } else {
            SimDuration::ZERO
        };
        record.client_time =
            rtt + trigger_overhead + req_transfer + resp_transfer + record.provider_time;

        // 9. Billing: the execution phase is billed; sandbox provisioning
        // and runtime boot are not.
        let billed = record.benchmark_time + sandbox_overhead + penalty;
        record.bill = self.profile.billing.bill_via(
            billed,
            memory,
            used_mb,
            response_bytes,
            trigger.uses_api_gateway(),
        );
        if let Some(p) = self.profiler.as_mut() {
            p.record(Phase::Billing, record.bill.billed_duration);
        }

        // 10. Timestamps for the clock-sync protocol.
        let start_delay =
            rtt / 2 + trigger_overhead + req_transfer + cold_init + sandbox_overhead / 2;
        record.t_start_server = self.server_clock.read(self.now + start_delay);
        record.t_recv_client = (self.now + record.client_time).as_secs_f64();
        record.outcome = outcome;

        // The root span covers exactly the client time, so the sampler can
        // decide on it before the span tree is built.
        let failed = !record.outcome.is_success();
        if let Some(ticket) = self.admit_trace(&deployed.config.name, record.client_time, failed) {
            let root = self.build_invocation_span(
                &deployed,
                &record,
                SpanParts {
                    rtt,
                    trigger_overhead,
                    req_transfer,
                    cold_breakdown,
                    sandbox_overhead,
                    penalty,
                    contention,
                    io_scale,
                    io_events: &io_events,
                },
            );
            debug_assert_eq!(
                root.validate(),
                Ok(()),
                "invocation span tree is well-formed"
            );
            debug_assert_eq!(root.duration, record.client_time);
            self.store_trace(ticket, &deployed.config.name, memory, root);
        }

        self.record_invocation_metrics(id, &deployed.config.name, &record, spurious);

        let released_at = self.now + record.provider_time;
        (record, Some((deployed.pool, acquired.id(), released_at)))
    }

    /// Lays out the full span tree of a completed invocation. Every child
    /// interval is derived from the same quantities that produced the
    /// record, so the tree tiles `[submitted_at, submitted_at+client_time)`
    /// exactly and `validate()` always holds.
    // audit:allow(hot-path-allocation): span trees are built only when tracing is enabled
    fn build_invocation_span(
        &self,
        deployed: &Deployed,
        record: &InvocationRecord,
        parts: SpanParts<'_>,
    ) -> TraceSpan {
        let start_kind = if record.start == StartKind::Cold {
            "cold"
        } else {
            "warm"
        };
        let t0 = record.submitted_at;
        let mut root = TraceSpan::new("invocation", t0, record.client_time)
            .with_arg("benchmark", deployed.config.name.as_str())
            .with_arg("provider", self.profile.kind.to_string())
            .with_arg("start", start_kind)
            .with_arg("outcome", record.outcome.label())
            .with_arg("memory_mb", record.configured_memory_mb.to_string())
            .with_arg("concurrency", record.concurrency.to_string());
        let mut cursor = t0;

        let request_leg = parts.rtt / 2 + parts.req_transfer;
        root.push_child(TraceSpan::new("network.request", cursor, request_leg));
        cursor += request_leg;

        root.push_child(TraceSpan::new(
            "trigger.dispatch",
            cursor,
            parts.trigger_overhead,
        ));
        cursor += parts.trigger_overhead;

        let cold_init = parts
            .cold_breakdown
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.total());
        let mut acquire =
            TraceSpan::new("sandbox.acquire", cursor, cold_init).with_arg("start", start_kind);
        if let Some(bd) = &parts.cold_breakdown {
            let mut at = cursor;
            for (phase, dur) in [
                ("cold.provisioning", bd.provisioning),
                ("cold.package-fetch", bd.package_fetch),
                ("cold.runtime-boot", bd.runtime_boot),
                ("cold.user-init", bd.user_init),
                ("cold.noise", bd.noise),
            ] {
                acquire.push_child(TraceSpan::new(phase, at, dur));
                at += dur;
            }
        }
        root.push_child(acquire);
        cursor += cold_init;

        let exec_dur = record.benchmark_time + parts.sandbox_overhead + parts.penalty;
        let exec_end = cursor + exec_dur;
        let mut exec = TraceSpan::new("execute", cursor, exec_dur);
        if matches!(record.outcome, InvocationOutcome::Timeout) {
            // The run was cut off at the limit, so per-operation sub-spans
            // would spill past the truncated window.
            exec = exec.with_arg("truncated", "true");
        } else {
            let overhead = parts.sandbox_overhead + parts.penalty;
            let mut at = cursor;
            exec.push_child(TraceSpan::new("runtime.overhead", at, overhead));
            at += overhead;
            for ev in parts.io_events {
                // Per-op durations are scaled like the aggregate io_time;
                // clamping absorbs sub-nanosecond float rounding.
                let scaled = ev.duration.mul_f64(parts.contention / parts.io_scale);
                let dur = scaled.min(remaining_until(at, exec_end));
                exec.push_child(self.io_span(ev, at, dur));
                at += dur;
            }
            exec.push_child(TraceSpan::new(
                "exec.compute",
                at,
                remaining_until(at, exec_end),
            ));
        }
        root.push_child(exec);
        cursor = exec_end;

        root.push_child(
            TraceSpan::new("billing.finalize", cursor, SimDuration::ZERO)
                .with_arg(
                    "billed_ms",
                    format!("{:.3}", record.bill.billed_duration.as_millis_f64()),
                )
                .with_arg("cost_usd", format!("{:.9}", record.bill.total_usd())),
        );
        root.push_child(TraceSpan::new(
            "network.response",
            cursor,
            remaining_until(cursor, t0 + record.client_time),
        ));
        root
    }

    // audit:allow(hot-path-allocation): span trees are built only when tracing is enabled
    fn io_span(&self, ev: &IoEvent, at: SimTime, dur: SimDuration) -> TraceSpan {
        match ev.kind {
            IoKind::Get | IoKind::Put => {
                let op = if ev.kind == IoKind::Get {
                    StorageOp::Get
                } else {
                    StorageOp::Put
                };
                TraceSpan::new(format!("storage.{}", op.name()), at, dur)
                    .with_arg("object", format!("{}/{}", ev.bucket, ev.key))
                    .with_arg("bytes", ev.bytes.to_string())
                    .with_arg(
                        "transfer_ms",
                        format!(
                            "{:.3}",
                            self.storage.transfer_time(op, ev.bytes).as_millis_f64()
                        ),
                    )
            }
            IoKind::External => TraceSpan::new("io.external", at, dur),
        }
    }

    /// Records a root-only trace for invocations rejected before a sandbox
    /// was ever acquired (payload limit, throttle, availability error).
    // audit:allow(hot-path-allocation): span trees are built only when tracing is enabled
    fn record_failure_trace(&mut self, benchmark: &str, record: &InvocationRecord) {
        let Some(ticket) = self.admit_trace(benchmark, record.client_time, true) else {
            return;
        };
        let root = TraceSpan::new("invocation", record.submitted_at, record.client_time)
            .with_arg("benchmark", benchmark)
            .with_arg("provider", self.profile.kind.to_string())
            .with_arg("outcome", record.outcome.label())
            .with_arg("memory_mb", record.configured_memory_mb.to_string())
            .with_arg("concurrency", record.concurrency.to_string());
        self.store_trace(ticket, benchmark, record.configured_memory_mb, root);
    }

    /// Claims the next trace sequence number for an invocation of
    /// `benchmark` whose root span lasts `duration`, and asks the sampler
    /// whether that trace is kept. `None` means it is not (or tracing is
    /// off), so the caller skips building the span tree altogether.
    fn admit_trace(
        &mut self,
        benchmark: &str,
        duration: SimDuration,
        failed: bool,
    ) -> Option<TraceTicket> {
        if !self.tracing {
            return None;
        }
        let seq = self.trace_seq;
        self.trace_seq += 1;
        let admission = match self.sampler.as_mut() {
            Some(s) => Some(s.admit(benchmark, duration, seq, failed)?),
            None => None,
        };
        Some(TraceTicket { seq, admission })
    }

    /// Keeps the span tree of an admitted invocation.
    // audit:allow(hot-path-allocation): trace records are pushed only when tracing is enabled
    fn store_trace(
        &mut self,
        ticket: TraceTicket,
        benchmark: &str,
        memory_mb: u32,
        root: TraceSpan,
    ) {
        let trace = InvocationTrace {
            provider: self.profile.kind.to_string(),
            benchmark: benchmark.to_string(),
            memory_mb,
            cell: None,
            seq: ticket.seq,
            root,
        };
        match (self.sampler.as_mut(), ticket.admission) {
            (Some(s), Some(admission)) => s.store(admission, trace),
            _ => self.traces.push(trace),
        }
    }
}

/// An admitted trace: its sequence number and, under a sampler, where the
/// sampler will keep it.
struct TraceTicket {
    seq: u64,
    admission: Option<Admission>,
}

/// The intermediate quantities of `invoke_one` that the span layout needs.
struct SpanParts<'a> {
    rtt: SimDuration,
    trigger_overhead: SimDuration,
    req_transfer: SimDuration,
    cold_breakdown: Option<crate::coldstart::ColdStartBreakdown>,
    sandbox_overhead: SimDuration,
    penalty: SimDuration,
    contention: f64,
    io_scale: f64,
    io_events: &'a [IoEvent],
}

fn remaining_until(at: SimTime, end: SimTime) -> SimDuration {
    if at < end {
        end - at
    } else {
        SimDuration::ZERO
    }
}

/// Maps a workload failure onto its structured, retry-relevant class.
fn classify_workload_error(e: &WorkloadError) -> FunctionErrorKind {
    match e {
        WorkloadError::Storage(_) => FunctionErrorKind::Storage,
        WorkloadError::TransientStorage(_) => FunctionErrorKind::TransientStorage,
        WorkloadError::BadPayload(_) => FunctionErrorKind::BadRequest,
    }
}

/// Lays out the synthetic span tree of an attempt chain: sequential
/// `attempt` children, the `hedge` attempt offset by the quantile
/// threshold it launched at, and `backoff.wait` spans between retries.
/// The effective (possibly hedge-shortened) latency is an arg on the
/// root; the root interval covers the full extent of every attempt.
fn build_chain_span(
    chain: &AttemptChain,
    start: SimTime,
    hedge_offset: Option<SimDuration>,
) -> TraceSpan {
    let mut cursor = SimDuration::ZERO;
    let mut children = Vec::new();
    let mut attempt_no: usize = 0;
    let mut i = 0;
    while i < chain.attempts.len() {
        let attempt = &chain.attempts[i];
        let mut extent = attempt.client_time;
        children.push(
            TraceSpan::new("attempt", start + cursor, attempt.client_time)
                .with_arg("index", attempt_no.to_string())
                .with_arg("outcome", attempt.outcome.label()),
        );
        if attempt_no == 0 && chain.hedged {
            let offset = hedge_offset.unwrap_or(SimDuration::ZERO);
            let hedge = &chain.attempts[i + 1];
            children.push(
                TraceSpan::new("hedge", start + cursor + offset, hedge.client_time)
                    .with_arg("outcome", hedge.outcome.label())
                    .with_arg("won", chain.hedge_won.to_string()),
            );
            extent = extent.max(offset + hedge.client_time);
            i += 1;
        }
        cursor += extent;
        if attempt_no < chain.waits.len() {
            let wait = chain.waits[attempt_no];
            children.push(TraceSpan::new("backoff.wait", start + cursor, wait));
            cursor += wait;
        }
        attempt_no += 1;
        i += 1;
    }
    let mut root = TraceSpan::new("invoke.chain", start, cursor)
        .with_arg("outcome", chain.outcome.label())
        .with_arg("attempts", chain.attempts.len().to_string())
        .with_arg(
            "effective_client_ms",
            format!("{:.3}", chain.client_time.as_millis_f64()),
        );
    for child in children {
        root.push_child(child);
    }
    root
}

fn zero_bill() -> InvocationBill {
    InvocationBill {
        compute_usd: 0.0,
        request_usd: 0.0,
        egress_usd: 0.0,
        billed_duration: SimDuration::ZERO,
        billed_memory_mb: 0,
    }
}

/// Overrides the `model-cached` parameter so warm containers keep loaded
/// artifacts (the paper's image-recognition keeps the model in the language
/// worker between invocations). Payloads without the parameter — the vast
/// majority — are borrowed as-is, so the rewrite costs nothing.
// audit:allow(hot-path-allocation): clones only model-caching payloads, which carry the parameter
fn with_cache_param(payload: &Payload, warm: bool) -> Cow<'_, Payload> {
    if !payload.params.iter().any(|(k, _)| k == "model-cached") {
        return Cow::Borrowed(payload);
    }
    let mut p = payload.clone();
    let value = if warm { "true" } else { "false" };
    if let Some(slot) = p.params.iter_mut().find(|(k, _)| k == "model-cached") {
        slot.1 = value.to_string();
    }
    Cow::Owned(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_workloads::templating::DynamicHtml;
    use sebs_workloads::uploader::Uploader;
    use sebs_workloads::{Language, Scale};

    fn aws() -> FaasPlatform {
        FaasPlatform::new(ProviderProfile::aws(), 1234)
    }

    fn deploy_html(p: &mut FaasPlatform, mem: u32) -> (FunctionId, DynamicHtml, Payload) {
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("dynamic-html", Language::Python, mem))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        (fid, wl, payload)
    }

    #[test]
    fn deploy_validates_table2_limits() {
        let mut p = aws();
        assert!(matches!(
            p.deploy(FunctionConfig::new("f", Language::Python, 100)),
            Err(DeployError::InvalidMemory(_))
        ));
        assert!(matches!(
            p.deploy(
                FunctionConfig::new("f", Language::Python, 256).with_code_package(300_000_000)
            ),
            Err(DeployError::PackageTooLarge { .. })
        ));
        assert!(p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .is_ok());
        let err = DeployError::PackageTooLarge { bytes: 2, limit: 1 };
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn cold_then_warm_and_time_ordering() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 1792);
        let cold = p.invoke(fid, &wl, &payload);
        assert_eq!(cold.start, StartKind::Cold);
        assert!(cold.outcome.is_success());
        assert!(cold.benchmark_time <= cold.provider_time);
        assert!(cold.provider_time <= cold.client_time);
        p.advance(SimDuration::from_secs(5));
        let warm = p.invoke(fid, &wl, &payload);
        assert_eq!(warm.start, StartKind::Warm);
        assert!(
            cold.provider_time > warm.provider_time * 2,
            "cold {} vs warm {}",
            cold.provider_time,
            warm.provider_time
        );
    }

    #[test]
    fn memory_scales_performance() {
        let mut p = aws();
        let (fid_small, wl, payload) = deploy_html(&mut p, 128);
        let fid_big = p
            .deploy(FunctionConfig::new(
                "dynamic-html-big",
                Language::Python,
                1792,
            ))
            .unwrap();
        // Warm both.
        p.invoke(fid_small, &wl, &payload);
        p.invoke(fid_big, &wl, &payload);
        p.advance(SimDuration::from_secs(2));
        let small = p.invoke(fid_small, &wl, &payload);
        let big = p.invoke(fid_big, &wl, &payload);
        assert!(
            small.benchmark_time > big.benchmark_time * 8,
            "128 MB {} should be ~14x slower than 1792 MB {}",
            small.benchmark_time,
            big.benchmark_time
        );
    }

    #[test]
    fn burst_spawns_parallel_containers() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let payloads = vec![payload; 10];
        let records = p.invoke_burst(fid, &wl, &payloads);
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.start == StartKind::Cold));
        let mut ids: Vec<_> = records.iter().map(|r| r.container.unwrap()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 10, "no sandbox is shared within a burst");
        assert_eq!(p.warm_containers(fid), 10);
        // A later burst of 10 is fully warm.
        p.advance(SimDuration::from_secs(10));
        let again = p.invoke_burst(fid, &wl, &payloads);
        assert!(again.iter().all(|r| r.start == StartKind::Warm));
    }

    #[test]
    fn concurrency_limit_throttles() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 7);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let payloads = vec![payload; 120];
        let records = p.invoke_burst(fid, &wl, &payloads);
        let throttled = records
            .iter()
            .filter(|r| matches!(r.outcome, InvocationOutcome::Throttled))
            .count();
        assert_eq!(throttled, 20, "GCP's 100-function limit");
    }

    #[test]
    fn availability_errors_under_heavy_concurrency() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 11);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 100]);
        let errors = records
            .iter()
            .filter(|r| matches!(r.outcome, InvocationOutcome::ServiceUnavailable))
            .count();
        assert!(errors > 0, "GCP drops some of a 100-wide burst");
        assert!(errors < 30);
    }

    #[test]
    fn payload_limit_enforced() {
        let mut p = aws();
        let (fid, wl, _) = deploy_html(&mut p, 256);
        let huge = Payload {
            body: sebs_sim::bytes::Bytes::from(vec![0u8; 7_000_000]),
            params: vec![("size".into(), "10".into())],
        };
        let r = p.invoke(fid, &wl, &huge);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::PayloadTooLarge {
                limit: 6_000_000,
                ..
            }
        ));
    }

    #[test]
    fn enforce_cold_start_works() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        assert_eq!(p.warm_containers(fid), 1);
        p.enforce_cold_start(fid);
        assert_eq!(p.warm_containers(fid), 0);
        let r = p.invoke(fid, &wl, &payload);
        assert_eq!(r.start, StartKind::Cold);
    }

    #[test]
    fn observe_pool_is_read_only_and_counts_deployments() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        assert_eq!(p.function_count(), 1);
        assert_eq!(p.observe_pool(fid), PoolObservation::default());
        let records = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
        assert_eq!(records.len(), 4);
        p.advance(SimDuration::from_secs(1));
        let obs = p.observe_pool(fid);
        assert_eq!(obs.warm, 4);
        // Observation never draws RNG or advances evictions: a platform
        // that samples occupancy many times stays bit-identical to one
        // that never looks.
        let run = |probes: usize| {
            let mut p = aws();
            let (fid, wl, payload) = deploy_html(&mut p, 256);
            for _ in 0..probes {
                let _ = p.observe_pool(fid);
            }
            let r = p.invoke(fid, &wl, &payload);
            for _ in 0..probes {
                let _ = p.observe_pool(fid);
            }
            p.advance(SimDuration::from_secs(500));
            (r, p.observe_pool(fid).warm, p.warm_containers(fid))
        };
        assert_eq!(run(0), run(64));
    }

    #[test]
    fn eviction_halves_warm_pool_over_time() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 8]);
        assert_eq!(records.len(), 8);
        p.advance(SimDuration::from_secs(400));
        assert_eq!(p.warm_containers(fid), 4);
        p.advance(SimDuration::from_secs(380));
        assert_eq!(p.warm_containers(fid), 2);
    }

    #[test]
    fn azure_function_apps_share_pools() {
        let mut p = FaasPlatform::new(ProviderProfile::azure(), 5);
        let wl = DynamicHtml::new(Language::Python);
        let f1 = p
            .deploy(FunctionConfig::new("f1", Language::Python, 512).in_app("shared-app"))
            .unwrap();
        let f2 = p
            .deploy(FunctionConfig::new("f2", Language::Python, 512).in_app("shared-app"))
            .unwrap();
        assert_eq!(
            p.functions[0].pool, p.functions[1].pool,
            "one app, one pool"
        );
        let payload = p.prepare(&wl, Scale::Test);
        let r1 = p.invoke(f1, &wl, &payload);
        assert_eq!(r1.start, StartKind::Cold);
        p.advance(SimDuration::from_secs(1));
        assert_eq!(
            p.observe_pool(f2).warm,
            1,
            "f2 sees the container f1 warmed"
        );
        // f2 rides f1's warm instance (less frequent cold starts, §3.3) —
        // modulo Azure's small spurious-cold probability.
        let mut warm_seen = false;
        for _ in 0..5 {
            p.advance(SimDuration::from_secs(1));
            if p.invoke(f2, &wl, &payload).start == StartKind::Warm {
                warm_seen = true;
                break;
            }
        }
        assert!(warm_seen, "function-app sharing should yield warm hits");
    }

    #[test]
    fn azure_concurrency_penalty_inflates_provider_time() {
        let mut p = FaasPlatform::new(ProviderProfile::azure(), 31);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 512))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        // Sequential warm baseline.
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        let solo = p.invoke(fid, &wl, &payload);
        // Concurrent batch.
        p.advance(SimDuration::from_secs(1));
        let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 20]);
        let warm_in_burst: Vec<_> = burst
            .iter()
            .filter(|r| r.start == StartKind::Warm && r.outcome.is_success())
            .collect();
        assert!(!warm_in_burst.is_empty());
        let mean_burst = warm_in_burst
            .iter()
            .map(|r| r.provider_time.as_secs_f64())
            .sum::<f64>()
            / warm_in_burst.len() as f64;
        let gap_burst = mean_burst - warm_in_burst[0].benchmark_time.as_secs_f64();
        let gap_solo = solo.provider_time.as_secs_f64() - solo.benchmark_time.as_secs_f64();
        assert!(
            gap_burst > 2.0 * gap_solo,
            "concurrent Azure overhead {gap_burst:.4}s vs sequential {gap_solo:.4}s"
        );
    }

    #[test]
    fn io_bound_workload_has_io_dominated_profile() {
        let mut p = aws();
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 1024))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
        assert!(
            r.io_time > (r.benchmark_time - r.io_time) * 2,
            "uploader must be I/O bound: io {} of {}",
            r.io_time,
            r.benchmark_time
        );
    }

    #[test]
    fn bills_are_positive_and_rounded() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.bill.total_usd() > 0.0);
        assert_eq!(r.bill.billed_duration.as_millis() % 100, 0);
        assert_eq!(r.bill.billed_memory_mb, 256);
    }

    #[test]
    fn timestamps_reflect_clock_drift() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        let offset = p.server_clock().offset_secs();
        // The naive overhead estimate is polluted by the offset; correcting
        // with the true offset yields a small positive overhead.
        let corrected = r.invocation_overhead_secs(offset);
        assert!(corrected > 0.0 && corrected < 30.0, "corrected {corrected}");
        assert!(r.t_recv_client > r.t_send_client);
    }

    #[test]
    fn sdk_trigger_skips_api_fees_and_azure_falls_back() {
        use crate::trigger::TriggerKind;
        // AWS: SDK responses carry no API-unit fee.
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let http = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Http)
            .pop()
            .unwrap();
        p.advance(SimDuration::from_secs(1));
        let sdk = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Sdk)
            .pop()
            .unwrap();
        assert!(http.bill.egress_usd > 0.0);
        assert_eq!(sdk.bill.egress_usd, 0.0);

        // Azure: SDK resolves to HTTP, so the gateway fee structure stays.
        let mut az = FaasPlatform::new(ProviderProfile::azure(), 3);
        let wl = DynamicHtml::new(Language::Python);
        let fid = az
            .deploy(FunctionConfig::new("f", Language::Python, 512))
            .unwrap();
        let payload = az.prepare(&wl, Scale::Test);
        let r = az
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Sdk)
            .pop()
            .unwrap();
        assert!(r.outcome.is_success());
    }

    #[test]
    fn internal_triggers_skip_the_wan() {
        use crate::trigger::TriggerKind;
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        p.invoke(fid, &wl, &payload); // warm
        p.advance(SimDuration::from_secs(1));
        let http = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Http)
            .pop()
            .unwrap();
        p.advance(SimDuration::from_secs(1));
        let timer = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Timer)
            .pop()
            .unwrap();
        // No 100+ ms client RTT on the timer path; but event delivery is
        // not free either.
        assert!(
            timer.client_time < http.client_time,
            "timer {} vs http {}",
            timer.client_time,
            http.client_time
        );
        assert!(timer.client_time > timer.provider_time);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut p = FaasPlatform::new(ProviderProfile::aws(), seed);
            let (fid, wl, payload) = deploy_html(&mut p, 512);
            let a = p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_secs(3));
            let b = p.invoke(fid, &wl, &payload);
            (a.client_time, b.client_time, a.bill.total_usd())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn tracing_never_changes_results() {
        let run = |tracing: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            p.set_tracing(tracing);
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                warm.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn metrics_never_change_results() {
        let run = |metrics: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            p.set_metrics(metrics);
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_secs(500));
            let later = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                later.client_time,
                later.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sampling_and_profiling_never_change_results() {
        let run = |observe: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            if observe {
                p.enable_trace_sampling(SamplerSpec::fleet_default());
                p.enable_profiling();
            }
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                warm.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn trace_sampling_bounds_kept_traces() {
        let spec = SamplerSpec {
            reservoir_per_fn: 2,
            slowest_k: 3,
            error_k: 2,
        };
        let mut p = aws();
        p.enable_trace_sampling(spec);
        assert!(p.sampling_enabled());
        assert!(p.tracing_enabled(), "sampling implies tracing");
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        for _ in 0..40 {
            p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_millis(200));
        }
        let traces = p.take_traces();
        assert!(!traces.is_empty());
        assert!(
            traces.len() <= spec.max_kept(1),
            "kept {} of 40 traces",
            traces.len()
        );
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "sampled traces come out in invocation order");
    }

    #[test]
    fn phase_profile_accounts_cold_starts_storage_and_billing() {
        let mut p = aws();
        p.enable_profiling();
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 512))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let cold = p.invoke(fid, &wl, &payload);
        assert_eq!(cold.start, StartKind::Cold);
        p.advance(SimDuration::from_secs(2));
        p.invoke(fid, &wl, &payload);

        let profile = p.take_profile().expect("profiling enabled");
        let pool = profile.stat(Phase::PoolAcquire);
        assert_eq!(pool.events, 2, "one acquire per invocation");
        assert!(!pool.sim_time.is_zero(), "cold init time accounted");
        let storage = profile.stat(Phase::StorageOp);
        assert!(storage.events > 0, "uploader issues storage requests");
        assert_eq!(profile.stat(Phase::Billing).events, 2);
        assert!(!profile.stat(Phase::Billing).sim_time.is_zero());
        assert!(
            p.take_profile().expect("still enabled").is_empty(),
            "take_profile resets the counters"
        );
    }

    #[test]
    fn metrics_capture_starts_occupancy_and_billing() {
        let mut p = aws();
        p.enable_metrics(SimDuration::from_secs(1));
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
        assert_eq!(burst.len(), 4);
        p.advance(SimDuration::from_secs(5));
        let warm = p.invoke(fid, &wl, &payload);
        assert_eq!(warm.start, StartKind::Warm);

        let chunk = p.take_metrics().expect("metrics enabled");
        assert_eq!(chunk.provider, "aws");
        let counter = |name: &str, labels: &[(&str, &str)]| {
            let key = sebs_telemetry::SeriesKey::new(name, labels);
            chunk
                .counters
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(
            counter(
                "sebs_starts_total",
                &[("function", "dynamic-html"), ("kind", "cold")]
            ),
            Some(4.0)
        );
        assert_eq!(
            counter(
                "sebs_starts_total",
                &[("function", "dynamic-html"), ("kind", "warm")]
            ),
            Some(1.0)
        );
        assert_eq!(
            counter(
                "sebs_invocations_total",
                &[("function", "dynamic-html"), ("outcome", "success")]
            ),
            Some(5.0)
        );
        let billed = counter(
            "sebs_billed_duration_ms_total",
            &[("function", "dynamic-html")],
        )
        .unwrap();
        let expected: f64 = burst
            .iter()
            .chain(std::iter::once(&warm))
            .map(|r| r.bill.billed_duration.as_millis_f64())
            .sum();
        assert!((billed - expected).abs() < 1e-9);

        // The sampled series saw all 4 containers warm while the clock
        // advanced past the burst.
        let max_warm = chunk
            .points
            .iter()
            .filter(|pt| {
                chunk.series_key(pt).name == "sebs_containers_warm"
                    && chunk.series_key(pt).labels == vec![("pool".to_string(), "fn:0".to_string())]
            })
            .map(|pt| pt.value)
            .fold(0.0f64, f64::max);
        assert_eq!(max_warm, 4.0);

        // Static info-gauges reflect AWS monitoring fidelity and limits.
        let gauge = |name: &str| {
            let key = sebs_telemetry::SeriesKey::new(name, &[]);
            chunk
                .gauges
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge("sebs_concurrency_limit"), Some(1000.0));
        assert_eq!(gauge("sebs_monitoring_reports_memory"), Some(1.0));
        assert_eq!(gauge("sebs_monitoring_memory_reliable"), Some(1.0));

        // take_metrics drains and re-arms: event-driven series and sampled
        // points are gone; only absolute pool/storage snapshots reappear.
        let again = p.take_metrics().expect("still enabled");
        assert!(again.points.is_empty());
        assert!(again
            .counters
            .iter()
            .all(|(k, _)| !k.name.starts_with("sebs_starts")
                && !k.name.starts_with("sebs_invocations")));
    }

    #[test]
    fn take_metrics_does_not_resample_drained_instants() {
        let mut p = aws();
        p.enable_metrics(SimDuration::from_secs(1));
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(5));
        let first = p.take_metrics().expect("metrics enabled");
        let instants = |c: &MetricsChunk| {
            let mut at: Vec<SimTime> = c.points.iter().map(|pt| c.instant(pt)).collect();
            at.dedup();
            at
        };
        assert_eq!(
            instants(&first),
            (1..=5).map(SimTime::from_secs).collect::<Vec<_>>()
        );
        p.advance(SimDuration::from_secs(2));
        let second = p.take_metrics().expect("still enabled");
        assert_eq!(
            instants(&second),
            vec![SimTime::from_secs(6), SimTime::from_secs(7)],
            "a drain must not rewind the sampler to boundaries already drained"
        );
    }

    #[test]
    fn metrics_flag_spurious_cold_starts() {
        // Azure/GCP-style spurious colds: probability 1 makes every warm
        // candidate get ignored.
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 5);
        p.profile_mut().quirks.spurious_cold_start = 1.0;
        p.enable_metrics(SimDuration::from_secs(1));
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        p.invoke(fid, &wl, &payload); // cold despite a warm candidate
        let chunk = p.take_metrics().unwrap();
        let spurious = chunk
            .counters
            .iter()
            .find(|(k, _)| {
                k.name == "sebs_starts_total"
                    && k.labels
                        .contains(&("kind".to_string(), "spurious_cold".to_string()))
            })
            .map(|(_, v)| *v);
        assert_eq!(spurious, Some(1.0));
    }

    #[test]
    fn trace_tree_tiles_the_invocation() {
        let mut p = aws();
        p.set_tracing(true);
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        let cold = p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(2));
        let warm = p.invoke(fid, &wl, &payload);
        let traces = p.take_traces();
        assert_eq!(traces.len(), 2);
        assert!(p.take_traces().is_empty(), "take_traces drains");

        let t = &traces[0];
        assert_eq!((t.provider.as_str(), t.seq), ("aws", 0));
        assert_eq!(t.benchmark, "dynamic-html");
        assert_eq!(t.memory_mb, 512);
        assert_eq!(t.cell, None);
        assert_eq!(t.root.validate(), Ok(()));
        assert_eq!(t.root.duration, cold.client_time);
        // Cold start decomposes under sandbox.acquire.
        let acquire = t.root.find("sandbox.acquire").unwrap();
        assert_eq!(acquire.args[0], ("start".into(), "cold".into()));
        let phase_sum: SimDuration = acquire.children.iter().map(|c| c.duration).sum();
        assert_eq!(phase_sum, acquire.duration);
        assert!(t.root.find("cold.runtime-boot").is_some());
        // The provider phase matches the record.
        let exec = t.root.find("execute").unwrap();
        assert!(t.root.find("exec.compute").is_some());
        assert!(
            exec.duration + acquire.duration <= cold.provider_time + SimDuration::from_nanos(1)
        );

        // Warm invocation: no cold children, zero-length acquire.
        let w = &traces[1];
        assert_eq!(w.seq, 1);
        assert_eq!(w.root.duration, warm.client_time);
        let acquire = w.root.find("sandbox.acquire").unwrap();
        assert_eq!(acquire.duration, SimDuration::ZERO);
        assert!(acquire.children.is_empty());
    }

    #[test]
    fn io_bound_trace_records_storage_spans() {
        let mut p = aws();
        p.set_tracing(true);
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 1024))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
        let traces = p.take_traces();
        let root = &traces[0].root;
        let put = root.find("storage.put").expect("uploader uploads");
        assert!(put.args.iter().any(|(k, _)| k == "object"));
        assert!(put.args.iter().any(|(k, _)| k == "bytes"));
        assert!(put.args.iter().any(|(k, _)| k == "transfer_ms"));
        assert_eq!(root.validate(), Ok(()));
    }

    #[test]
    fn rejected_invocations_leave_root_only_traces() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 7);
        p.set_tracing(true);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 120]);
        let traces = p.take_traces();
        assert_eq!(traces.len(), records.len(), "every request gets a trace");
        let throttled: Vec<_> = traces
            .iter()
            .filter(|t| {
                t.root
                    .args
                    .iter()
                    .any(|(k, v)| k == "outcome" && v == "throttled")
            })
            .collect();
        assert_eq!(throttled.len(), 20);
        assert!(throttled.iter().all(|t| t.root.children.is_empty()));
    }

    #[test]
    fn empty_fault_plan_and_none_policy_are_bit_identical() {
        let run = |configure: bool| {
            let mut p = aws();
            if configure {
                p.set_faults(FaultPlan::empty());
                p.set_retry_policy(RetryPolicy::none());
            }
            let (fid, wl, payload) = deploy_html(&mut p, 256);
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            let mut records = p.invoke_burst(fid, &wl, &vec![payload; 8]);
            records.extend(chain.attempts);
            (records, p.fault_draws())
        };
        let (base, _) = run(false);
        let (configured, draws) = run(true);
        assert_eq!(base, configured);
        assert_eq!(draws, 0);
    }

    #[test]
    fn injected_sandbox_crashes_fail_retryably_and_are_billed() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::SandboxCrash,
                ..
            }
        ));
        assert!(r.outcome.retryable());
        assert!(
            r.bill.total_usd() > 0.0,
            "crashed executions are billed like any function error"
        );
        assert_eq!(p.fault_counts().sandbox_crash, 1);
    }

    #[test]
    fn outage_windows_reject_with_the_quirk_penalty() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            outages: vec![sebs_resilience::OutageWindow {
                start: SimTime::ZERO,
                end: SimTime::ZERO + SimDuration::from_secs(60),
                severity: 1.0,
            }],
            ..FaultPlan::empty()
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert_eq!(r.outcome, InvocationOutcome::ServiceUnavailable);
        assert_eq!(
            r.bill.total_usd(),
            0.0,
            "rejected before a sandbox: not billed"
        );
        assert_eq!(p.fault_draws(), 0, "hard outages are draw-free");
        // Outside the window the platform behaves normally.
        p.advance(SimDuration::from_secs(120));
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
    }

    #[test]
    fn storms_force_cold_starts_even_on_aws() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            storms: vec![sebs_resilience::StormWindow {
                start: SimTime::ZERO,
                end: SimTime::ZERO + SimDuration::from_secs(3600),
                spurious_cold: 1.0,
            }],
            ..FaultPlan::empty()
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        for _ in 0..5 {
            let r = p.invoke(fid, &wl, &payload);
            assert_eq!(
                r.start,
                StartKind::Cold,
                "the storm churns every warm candidate"
            );
            p.advance(SimDuration::from_secs(1));
        }
    }

    #[test]
    fn storage_faults_surface_as_transient_function_errors() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            storage_error_rate: 1.0,
            ..FaultPlan::empty()
        });
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::TransientStorage,
                ..
            }
        ));
        assert!(r.outcome.retryable());
    }

    #[test]
    fn retry_policy_recovers_from_transient_faults_and_bills_every_attempt() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(0.6));
        p.set_retry_policy(RetryPolicy::backoff(6));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let mut recovered = 0u32;
        let mut multi_attempt = 0u32;
        for _ in 0..20 {
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            if chain.succeeded() {
                recovered += 1;
            }
            if chain.billed_attempts() > 1 {
                multi_attempt += 1;
                assert_eq!(chain.waits.len(), chain.billed_attempts() - 1);
                let summed: f64 = chain.attempts.iter().map(|a| a.bill.total_usd()).sum();
                assert!((chain.total_cost_usd() - summed).abs() < 1e-15);
                assert!(chain.total_cost_usd() > chain.attempts[0].bill.total_usd());
            }
            p.advance(SimDuration::from_secs(1));
        }
        assert!(
            recovered >= 18,
            "6 attempts at p=0.6 recover almost always: {recovered}"
        );
        assert!(
            multi_attempt > 5,
            "p=0.6 forces frequent retries: {multi_attempt}"
        );
    }

    #[test]
    fn chain_traces_record_attempts_and_backoffs() {
        let mut p = aws();
        p.set_tracing(true);
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy::backoff(3));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let chain = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(chain.billed_attempts(), 3);
        assert!(!chain.succeeded());
        let traces = p.take_traces();
        let chain_trace = traces
            .iter()
            .find(|t| t.root.name == "invoke.chain")
            .expect("a chain trace is emitted for multi-attempt chains");
        assert_eq!(chain_trace.root.validate(), Ok(()));
        let attempts = chain_trace
            .root
            .children
            .iter()
            .filter(|c| c.name == "attempt")
            .count();
        let waits = chain_trace
            .root
            .children
            .iter()
            .filter(|c| c.name == "backoff.wait")
            .count();
        assert_eq!(attempts, 3);
        assert_eq!(waits, 2);
        // Each attempt also left its own regular invocation trace.
        assert_eq!(
            traces
                .iter()
                .filter(|t| t.root.name == "invocation")
                .count(),
            3
        );
    }

    #[test]
    fn breaker_trips_open_and_rejects_locally() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy {
            breaker: Some(sebs_resilience::BreakerConfig {
                failure_threshold: 2,
                cooldown: SimDuration::from_secs(3600),
            }),
            ..RetryPolicy::backoff(2)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let first = p.invoke_with_policy(fid, &wl, &payload);
        assert!(!first.succeeded());
        assert!(!first.breaker_rejected);
        let second = p.invoke_with_policy(fid, &wl, &payload);
        assert!(second.breaker_rejected, "two failures tripped the breaker");
        assert_eq!(second.billed_attempts(), 0);
        assert_eq!(second.total_cost_usd(), 0.0);
        assert_eq!(second.outcome, InvocationOutcome::ServiceUnavailable);
    }

    #[test]
    fn hedging_races_a_second_attempt_past_the_quantile() {
        let mut p = aws();
        p.set_retry_policy(RetryPolicy {
            hedge_after_quantile: Some(0.5),
            ..RetryPolicy::backoff(2)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let mut hedges = 0u32;
        for _ in 0..40 {
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            assert!(chain.succeeded());
            if chain.hedged {
                hedges += 1;
                assert_eq!(
                    chain.billed_attempts(),
                    2,
                    "the hedge is a real billed attempt"
                );
                if chain.hedge_won {
                    assert!(
                        chain.client_time < chain.attempts[0].client_time,
                        "a winning hedge shortens the effective latency"
                    );
                }
            }
            p.advance(SimDuration::from_millis(100));
        }
        assert!(
            hedges > 0,
            "a p50 hedge threshold fires on roughly half the attempts"
        );
    }

    #[test]
    fn retry_budget_caps_total_retries() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy {
            retry_budget: Some(3),
            ..RetryPolicy::backoff(4)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let first = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(first.billed_attempts(), 4, "full budget available");
        let second = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(
            second.billed_attempts(),
            1,
            "budget exhausted: no retries remain"
        );
    }
}

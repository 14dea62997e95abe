//! The region: N hosts, a scheduler, a keep-alive controller, a compiled
//! host-crash schedule, and a cluster-level retry loop that drives
//! failover onto surviving hosts.

use sebs_platform::platform::DeployError;
use sebs_platform::{
    AttemptChain, FunctionConfig, FunctionErrorKind, FunctionId, InvocationBill, InvocationOutcome,
    InvocationRecord, PoolObservation, ProviderKind, ProviderProfile, StartKind,
};
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{SimDuration, SimRng, SimTime};
use sebs_trace::{InvocationTrace, TraceSpan};
use sebs_workloads::{Payload, Workload};

use crate::host::Host;
use crate::keepalive::{KeepAliveKind, KeepAlivePolicy};
use crate::scheduler::{HostView, Scheduler, SchedulerKind};

/// Shape of the region.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Provider profile every host runs.
    pub provider: ProviderKind,
    /// Number of hosts.
    pub hosts: u32,
    /// CPU slots per host.
    pub host_cpus: u32,
    /// Admission-queue depth per host beyond the CPU slots; an arrival
    /// finding `cpus + queue_depth` invocations in flight is shed
    /// (`Throttled`).
    pub queue_depth: u32,
    /// Co-location contention: each invocation already running on the
    /// chosen host inflates the new invocation's I/O time by this
    /// fraction (0.0 = none, bit-identical to the single box).
    pub contention: f64,
    /// Placement policy.
    pub scheduler: SchedulerKind,
    /// Container-retention policy.
    pub keepalive: KeepAliveKind,
}

impl ClusterConfig {
    /// An 8-host region with 4 CPUs + depth-8 queues per host, no
    /// contention, least-loaded placement and the provider's own
    /// keep-alive.
    pub fn new(provider: ProviderKind) -> ClusterConfig {
        ClusterConfig {
            provider,
            hosts: 8,
            host_cpus: 4,
            queue_depth: 8,
            contention: 0.0,
            scheduler: SchedulerKind::LeastLoaded,
            keepalive: KeepAliveKind::Provider,
        }
    }

    /// The degenerate 1-host region that reproduces the single-box
    /// platform bit-for-bit: one host with effectively unbounded CPUs and
    /// queue, zero contention, a draw-free scheduler and the provider
    /// baseline keep-alive.
    pub fn single_box(provider: ProviderKind) -> ClusterConfig {
        ClusterConfig {
            provider,
            hosts: 1,
            host_cpus: u32::MAX / 4,
            queue_depth: u32::MAX / 4,
            contention: 0.0,
            scheduler: SchedulerKind::LeastLoaded,
            keepalive: KeepAliveKind::Provider,
        }
    }

    /// Builder: number of hosts.
    pub fn with_hosts(mut self, hosts: u32) -> ClusterConfig {
        self.hosts = hosts.max(1);
        self
    }

    /// Builder: CPU slots per host.
    pub fn with_cpus(mut self, cpus: u32) -> ClusterConfig {
        self.host_cpus = cpus.max(1);
        self
    }

    /// Builder: queue depth per host.
    pub fn with_queue_depth(mut self, depth: u32) -> ClusterConfig {
        self.queue_depth = depth;
        self
    }

    /// Builder: co-location contention fraction.
    pub fn with_contention(mut self, contention: f64) -> ClusterConfig {
        self.contention = contention.max(0.0);
        self
    }

    /// Builder: placement policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> ClusterConfig {
        self.scheduler = scheduler;
        self
    }

    /// Builder: keep-alive policy.
    pub fn with_keepalive(mut self, keepalive: KeepAliveKind) -> ClusterConfig {
        self.keepalive = keepalive;
        self
    }
}

/// One compiled host crash: `host` goes down at `at` and recovers at
/// `until`. The schedule is a pure function of (plan, seed, host count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing host's index.
    pub host: u32,
    /// Crash instant (warm pool evicted, in-flight work lost).
    pub at: SimTime,
    /// Recovery instant (inclusive: the host serves again at `until`).
    pub until: SimTime,
}

/// Cluster-wide telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Invocations dispatched to some host.
    pub dispatched: u64,
    /// Arrivals shed because every live host's queue was full.
    pub shed: u64,
    /// Arrivals rejected because no host was alive.
    pub unavailable: u64,
    /// Invocations lost mid-flight to a host crash.
    pub crash_failures: u64,
    /// Retried attempts that landed on a different host than the
    /// previous attempt (failover reschedules).
    pub failover_hops: u64,
    /// Sandboxes pre-warmed by the keep-alive policy.
    pub prewarms: u64,
    /// Keep-alive retunes applied across all hosts.
    pub retunes: u64,
}

struct FnMeta {
    name: String,
    memory_mb: u32,
}

struct AttemptResult {
    record: InvocationRecord,
    host: Option<u32>,
    queue_wait: SimDuration,
}

/// Queue wait + the attempt's client time: how far an attempt extends
/// the chain on the cluster clock.
fn extent(record: &InvocationRecord, queue_wait: SimDuration) -> SimDuration {
    queue_wait + record.client_time
}

/// Where one attempt of a chain ran: its host (`None` when shed or
/// rejected) and how long it queued there. Kept only while tracing.
type Placement = (Option<u32>, SimDuration);

/// A region of hosts behind one dispatch loop. See the crate docs for
/// the determinism contract.
pub struct ClusterPlatform {
    config: ClusterConfig,
    hosts: Vec<Host>,
    scheduler: Box<dyn Scheduler>,
    /// The candidate slate, rebuilt in place on every attempt.
    slate: Vec<HostView>,
    keepalive: Box<dyn KeepAlivePolicy>,
    functions: Vec<FnMeta>,
    now: SimTime,
    rng_sched: StreamRng,
    rng_backoff: StreamRng,
    crash_events: Vec<CrashEvent>,
    next_crash: usize,
    retry: RetryPolicy,
    retries_spent: u64,
    tracing: bool,
    trace_seq: u64,
    traces: Vec<InvocationTrace>,
    stats: ClusterStats,
}

impl std::fmt::Debug for ClusterPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterPlatform")
            .field("provider", &self.config.provider)
            .field("hosts", &self.hosts.len())
            .field("now", &self.now)
            .finish()
    }
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

impl ClusterPlatform {
    /// Boots the region. Every host runs the same provider profile with
    /// the same seed (see the crate docs); the cluster's own streams
    /// (`cluster-sched`, `cluster-retry`, `host-fault`) are derived from
    /// the same seed under names no single-box concern uses.
    pub fn new(config: ClusterConfig, seed: u64) -> ClusterPlatform {
        let root = SimRng::new(seed);
        let hosts: Vec<Host> = (0..config.hosts.max(1))
            .map(|id| {
                Host::new(
                    id,
                    ProviderProfile::for_kind(config.provider),
                    seed,
                    config.host_cpus,
                    config.queue_depth,
                )
            })
            .collect();
        ClusterPlatform {
            scheduler: config.scheduler.build(),
            slate: Vec::with_capacity(hosts.len()),
            keepalive: config.keepalive.build(),
            hosts,
            functions: Vec::new(),
            now: SimTime::ZERO,
            rng_sched: root.stream("cluster-sched"),
            rng_backoff: root.stream("cluster-retry"),
            crash_events: Vec::new(),
            next_crash: 0,
            retry: RetryPolicy::none(),
            retries_spent: 0,
            tracing: false,
            trace_seq: 0,
            traces: Vec::new(),
            stats: ClusterStats::default(),
            config,
        }
    }

    /// Installs a fault plan: `host_crashes` windows compile into the
    /// per-host crash schedule on the dedicated `host-fault` stream of a
    /// fresh rng for the cluster seed (so the schedule is a pure function
    /// of plan, seed and host count, independent of anything invoked
    /// before the call); every other fault kind is forwarded to each
    /// host's own injector.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: u64) {
        let mut rng = SimRng::new(seed).stream("host-fault");
        self.crash_events = compile_crash_schedule(&plan, self.hosts.len() as u32, &mut rng);
        self.next_crash = 0;
        let mut host_plan = plan;
        host_plan.host_crashes.clear();
        for host in &mut self.hosts {
            host.platform.set_faults(host_plan.clone());
        }
    }

    /// Installs the cluster-level retry policy driving
    /// [`ClusterPlatform::invoke_resilient`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Enables reschedule-hop tracing: each resilient invocation emits a
    /// `cluster-invoke` root span with one child per attempt (host,
    /// outcome, queue wait). Observational only — no RNG, no behaviour
    /// change.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Drains collected cluster traces.
    pub fn take_traces(&mut self) -> Vec<InvocationTrace> {
        std::mem::take(&mut self.traces)
    }

    /// The compiled host-crash schedule, sorted by (time, host).
    pub fn crash_schedule(&self) -> &[CrashEvent] {
        &self.crash_events
    }

    /// Cluster-wide counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The hosts, for per-host telemetry.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The region shape.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current cluster time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances cluster time (host platforms advance lazily at their next
    /// dispatch).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances every host platform to the cluster clock — an
    /// observability helper so pool occupancy snapshots reflect cluster
    /// time on hosts that have not dispatched recently. RNG-free; does
    /// not change invocation results.
    pub fn sync_host_clocks(&mut self) {
        let now = self.now;
        for host in &mut self.hosts {
            let pnow = host.platform.now();
            if now > pnow {
                host.platform.advance(now - pnow);
            }
        }
    }

    /// Deploys a function on every host (same id everywhere) and installs
    /// the keep-alive policy's initial pool policy, if any.
    ///
    /// # Errors
    ///
    /// Returns the first host's [`DeployError`] when the configuration
    /// violates provider limits.
    pub fn deploy(&mut self, config: FunctionConfig) -> Result<FunctionId, DeployError> {
        let meta = FnMeta {
            name: config.name.clone(),
            memory_mb: config.memory_mb,
        };
        let mut id = FunctionId(0);
        for host in &mut self.hosts {
            id = host.platform.deploy(config.clone())?;
        }
        if let Some(policy) = self.keepalive.initial_policy() {
            for host in &mut self.hosts {
                host.platform.set_pool_policy(id, policy.clone());
            }
        }
        self.functions.push(meta);
        Ok(id)
    }

    /// Runs a workload's `prepare` on every host's storage (hosts share
    /// the seed, so the generated objects and payload are identical) and
    /// returns the payload.
    pub fn prepare(&mut self, workload: &dyn Workload, scale: sebs_workloads::Scale) -> Payload {
        let mut payload = None;
        for host in &mut self.hosts {
            payload = Some(host.platform.prepare(workload, scale));
        }
        // audit:allow(panic-hygiene): the cluster always has >= 1 host, so the loop ran
        payload.expect("cluster has at least one host")
    }

    /// Pool occupancy of `function` on `host` (RNG-free snapshot at the
    /// host's clock).
    pub fn observe_pool(&self, host: usize, function: FunctionId) -> PoolObservation {
        self.hosts[host].observe_pool(function)
    }

    /// Invokes once through the cluster (scheduling, queueing, crash
    /// interrupts — but no retries). One logical arrival for the
    /// keep-alive controller.
    pub fn invoke(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> InvocationRecord {
        let prewarm = self.arrival_bookkeeping(id);
        let res = self.attempt(id, workload, payload, prewarm);
        self.record_trace(
            id,
            self.now,
            extent(&res.record, res.queue_wait),
            std::slice::from_ref(&res.record),
            &[(res.host, res.queue_wait)],
            0,
        );
        res.record
    }

    /// Invokes once under the installed [`RetryPolicy`]: failed retryable
    /// attempts are re-scheduled — after backoff — on whatever host the
    /// scheduler then picks, which is how failover lands on survivors.
    /// Mirrors the single-box clock contract: the clock advances by each
    /// failed attempt's extent plus its backoff wait; the final attempt
    /// leaves the clock untouched (the driver owns time).
    pub fn invoke_resilient(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> AttemptChain {
        let chain_start = self.now;
        let prewarm = self.arrival_bookkeeping(id);

        let mut attempts: Vec<InvocationRecord> = Vec::with_capacity(1);
        let mut placements: Vec<Placement> = Vec::new();
        let mut waits: Vec<SimDuration> = Vec::new();
        let mut client_time = SimDuration::ZERO;
        let mut prev_host: Option<u32> = None;
        let mut retry_index: u32 = 0;
        loop {
            let res = self.attempt(id, workload, payload, prewarm && attempts.is_empty());
            let spent = extent(&res.record, res.queue_wait);
            client_time += spent;
            if let (Some(prev), Some(cur)) = (prev_host, res.host) {
                if prev != cur {
                    self.stats.failover_hops += 1;
                }
            }
            if res.host.is_some() {
                prev_host = res.host;
            }
            let retryable = res.record.outcome.retryable();
            if self.tracing {
                placements.push((res.host, res.queue_wait));
            }
            attempts.push(res.record);

            let attempts_left = (attempts.len() as u32) < self.retry.max_attempts;
            let budget_left = self
                .retry
                .retry_budget
                .is_none_or(|b| self.retries_spent < b);
            if !(retryable && attempts_left && budget_left) {
                break;
            }
            let wait = self.retry.backoff_for(retry_index, &mut self.rng_backoff);
            if let Some(deadline) = self.retry.deadline {
                if client_time + wait >= deadline {
                    break;
                }
            }
            self.retries_spent += 1;
            retry_index += 1;
            self.advance(spent + wait);
            waits.push(wait);
            client_time += wait;
        }

        self.record_trace(
            id,
            chain_start,
            client_time,
            &attempts,
            &placements,
            waits.len(),
        );
        let outcome = attempts
            .last()
            .map(|r| r.outcome.clone())
            .unwrap_or(InvocationOutcome::ServiceUnavailable);
        AttemptChain {
            attempts,
            waits,
            hedged: false,
            hedge_won: false,
            breaker_rejected: false,
            outcome,
            client_time,
        }
    }

    /// Keep-alive bookkeeping for one logical arrival: prewarm decision
    /// from prior history, then record the arrival (possibly retuning
    /// every host's pool policy).
    fn arrival_bookkeeping(&mut self, id: FunctionId) -> bool {
        let prewarm = self.keepalive.wants_prewarm(id.0, self.now);
        if let Some(policy) = self.keepalive.observe_arrival(id.0, self.now) {
            self.stats.retunes += 1;
            for host in &mut self.hosts {
                host.platform.set_pool_policy(id, policy.clone());
            }
        }
        prewarm
    }

    /// Applies every compiled crash event at or before `now`.
    fn sync_crashes(&mut self, now: SimTime) {
        while self.next_crash < self.crash_events.len() {
            let event = self.crash_events[self.next_crash];
            if event.at > now {
                break;
            }
            self.hosts[event.host as usize].crash(event.until);
            self.next_crash += 1;
        }
    }

    /// One dispatch: sync crashes, build the candidate slate, schedule,
    /// queue, invoke, and apply the crash-interrupt check.
    fn attempt(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
        prewarm: bool,
    ) -> AttemptResult {
        let at = self.now;
        self.sync_crashes(at);

        let warm_counts = self.scheduler.reads_warm_counts();
        self.slate.clear();
        let mut any_alive = false;
        for host in &mut self.hosts {
            if !host.is_up(at) {
                continue;
            }
            any_alive = true;
            host.prune_inflight(at);
            if !host.has_capacity() {
                continue;
            }
            self.slate.push(HostView {
                id: host.id(),
                inflight: host.inflight(),
                running: host.running(),
                cpus: host.cpus(),
                warm_for_function: if warm_counts {
                    host.observe_pool(id).idle
                } else {
                    0
                },
            });
        }
        if !any_alive {
            self.stats.unavailable += 1;
            return self.rejected(id, InvocationOutcome::ServiceUnavailable);
        }
        if self.slate.is_empty() {
            self.stats.shed += 1;
            return self.rejected(id, InvocationOutcome::Throttled);
        }

        // The scheduler only runs — and may only draw — on a real choice.
        let picked = if self.slate.len() == 1 {
            self.slate[0].id
        } else {
            self.scheduler.pick(&self.slate, &mut self.rng_sched)
        };
        let idx = picked as usize;
        let queue_wait = self.hosts[idx].queue_wait(at);
        let dispatch = at + queue_wait;
        let running = self.hosts[idx].running();
        let factor = 1.0 + self.config.contention * running as f64;

        let host = &mut self.hosts[idx];
        host.platform.set_contention(factor);
        let platform_now = host.platform.now();
        if dispatch > platform_now {
            host.platform.advance(dispatch - platform_now);
        }
        if prewarm && host.platform.prewarm(id) {
            self.stats.prewarms += 1;
        }
        let mut record = host.platform.invoke(id, workload, payload);

        // Crash-interrupt: the schedule is known up front, so an
        // invocation spanning its host's next crash dies at the crash
        // instant — pools evicted, bill voided, retryable error out.
        let end = dispatch + record.client_time;
        // The schedule is sorted by time, so the scan stops at `end`.
        let interrupting = self.crash_events[self.next_crash..]
            .iter()
            .take_while(|e| e.at <= end)
            .find(|e| e.host == picked)
            .copied();
        if let Some(event) = interrupting {
            record.outcome = InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::HostCrash,
                message: format!("host {picked} crashed mid-invocation"),
            };
            record.client_time = if event.at > dispatch {
                event.at - dispatch
            } else {
                SimDuration::ZERO
            };
            record.bill = zero_bill();
            record.t_recv_client = (dispatch + record.client_time).as_secs_f64();
            host.count_crash_failure();
            self.stats.crash_failures += 1;
        } else {
            host.push_inflight(end);
            host.count_served(record.start == StartKind::Cold);
            self.stats.dispatched += 1;
        }
        AttemptResult {
            queue_wait,
            host: Some(picked),
            record,
        }
    }

    /// A synthesized rejection record (shed or no-host): nothing ran,
    /// nothing is billed, zero client time.
    fn rejected(&self, id: FunctionId, outcome: InvocationOutcome) -> AttemptResult {
        let record = InvocationRecord {
            function: id,
            start: StartKind::Warm,
            outcome,
            submitted_at: self.now,
            benchmark_time: SimDuration::ZERO,
            provider_time: SimDuration::ZERO,
            client_time: SimDuration::ZERO,
            instructions: 0,
            io_time: SimDuration::ZERO,
            used_memory_mb: 0,
            configured_memory_mb: self.functions.get(id.0 as usize).map_or(0, |f| f.memory_mb),
            payload_bytes: 0,
            response_bytes: 0,
            container: None,
            concurrency: 1,
            bill: zero_bill(),
            t_send_client: self.now.as_secs_f64(),
            t_start_server: 0.0,
            t_recv_client: self.now.as_secs_f64(),
        };
        AttemptResult {
            record,
            host: None,
            queue_wait: SimDuration::ZERO,
        }
    }

    /// Emits the `cluster-invoke` span tree for one chain: a child per
    /// attempt carrying host, outcome, start kind and queue wait, so
    /// failover hops are visible in exported traces. `placements` runs
    /// parallel to `attempts` (it is only filled while tracing).
    fn record_trace(
        &mut self,
        id: FunctionId,
        chain_start: SimTime,
        client_time: SimDuration,
        attempts: &[InvocationRecord],
        placements: &[Placement],
        hops_budget: usize,
    ) {
        if !self.tracing {
            return;
        }
        debug_assert_eq!(attempts.len(), placements.len());
        // Backoff waits sit between attempts inside the root interval,
        // split evenly over the gaps.
        let total: SimDuration = attempts
            .iter()
            .zip(placements)
            .map(|(r, &(_, wait))| extent(r, wait))
            .sum();
        let wait_budget = if client_time > total {
            client_time - total
        } else {
            SimDuration::ZERO
        };
        let gaps = attempts.len().saturating_sub(1);
        let gap = if gaps > 0 {
            SimDuration::from_nanos(wait_budget.as_nanos() / gaps as u64)
        } else {
            SimDuration::ZERO
        };
        let meta = &self.functions[id.0 as usize];
        let mut root = TraceSpan::new("cluster-invoke", chain_start, client_time)
            .with_arg("function", meta.name.clone())
            .with_arg("attempts", attempts.len().to_string())
            .with_arg("waits", hops_budget.to_string());
        let mut cursor = chain_start;
        let mut prev_host: Option<u32> = None;
        for (i, (record, &(host, queue_wait))) in attempts.iter().zip(placements).enumerate() {
            let span_extent = extent(record, queue_wait);
            let mut child = TraceSpan::new(format!("attempt-{i}"), cursor, span_extent)
                .with_arg("outcome", outcome_tag(&record.outcome))
                .with_arg(
                    "queue_wait_ms",
                    format!("{:.3}", queue_wait.as_secs_f64() * 1e3),
                );
            match host {
                Some(h) => {
                    child = child.with_arg("host", h.to_string());
                    if let Some(prev) = prev_host {
                        if prev != h {
                            child = child.with_arg("failover_hop", "true");
                        }
                    }
                    prev_host = Some(h);
                }
                None => child = child.with_arg("host", "none"),
            }
            if record.start == StartKind::Cold {
                child = child.with_arg("start", "cold");
            } else {
                child = child.with_arg("start", "warm");
            }
            root.push_child(child);
            cursor += span_extent;
            if i < gaps {
                cursor += gap;
            }
        }
        debug_assert!(root.validate().is_ok(), "cluster span tree must validate");
        self.traces.push(InvocationTrace {
            provider: self.config.provider.to_string(),
            benchmark: meta.name.clone(),
            memory_mb: meta.memory_mb,
            cell: None,
            seq: self.trace_seq,
            root,
        });
        self.trace_seq += 1;
    }
}

fn outcome_tag(outcome: &InvocationOutcome) -> String {
    match outcome {
        InvocationOutcome::FunctionError { kind, .. } => kind.as_str().to_string(),
        other => other.label().to_string(),
    }
}

/// Compiles the plan's host-crash windows into a concrete schedule: for
/// each window in plan order, each host (ascending) draws once against
/// the window's intensity — a certain hit (≥ 1) still consumes the draw,
/// matching the injector's convention, so intensity sweeps stay aligned.
fn compile_crash_schedule(plan: &FaultPlan, hosts: u32, rng: &mut StreamRng) -> Vec<CrashEvent> {
    let mut events = Vec::new();
    for window in &plan.host_crashes {
        let intensity = window.rate;
        if intensity <= 0.0 {
            continue;
        }
        for host in 0..hosts {
            let draw: f64 = rng.gen();
            if intensity >= 1.0 || draw < intensity {
                events.push(CrashEvent {
                    host,
                    at: window.start,
                    until: window.end,
                });
            }
        }
    }
    events.sort_by_key(|e| (e.at, e.host));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_resilience::HostCrashWindow;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn plan(windows: &[(u64, u64, f64)]) -> FaultPlan {
        FaultPlan {
            host_crashes: windows
                .iter()
                .map(|(s, e, r)| HostCrashWindow {
                    start: at(*s),
                    end: at(*e),
                    rate: *r,
                })
                .collect(),
            ..FaultPlan::empty()
        }
    }

    #[test]
    fn crash_schedule_is_pure_and_seeded() {
        let p = plan(&[(30, 90, 0.5), (200, 260, 1.0)]);
        let compile = |seed: u64| {
            let mut rng = SimRng::new(seed).stream("host-fault");
            compile_crash_schedule(&p, 8, &mut rng)
        };
        assert_eq!(compile(7), compile(7), "same (plan, seed) → same schedule");
        assert_ne!(compile(7), compile(8), "the seed matters");
        let full = compile(7);
        assert_eq!(
            full.iter().filter(|e| e.at == at(200)).count(),
            8,
            "rate 1.0 hits every host"
        );
        let hit = full.iter().filter(|e| e.at == at(30)).count();
        assert!(hit < 8, "rate 0.5 should spare someone at 8 hosts");
        // Sorted by (time, host).
        let mut sorted = full.clone();
        sorted.sort_by_key(|e| (e.at, e.host));
        assert_eq!(full, sorted);
    }

    #[test]
    fn zero_rate_windows_draw_nothing() {
        let p = plan(&[(30, 90, 0.0)]);
        let mut rng = SimRng::new(7).stream("host-fault");
        let pristine = rng.clone();
        assert!(compile_crash_schedule(&p, 8, &mut rng).is_empty());
        assert_eq!(rng, pristine, "zero-intensity windows must not draw");
    }

    #[test]
    fn cluster_boots_with_config() {
        let cluster = ClusterPlatform::new(ClusterConfig::new(ProviderKind::Aws), 42);
        assert_eq!(cluster.hosts().len(), 8);
        assert_eq!(cluster.now(), SimTime::ZERO);
        assert!(cluster.crash_schedule().is_empty());
    }
}

//! The platform's metrics scope: a [`MetricsHub`] plus the series
//! handles the per-invocation and per-tick paths record through.
//!
//! Every handle is resolved lazily, on the first record of its series,
//! and then reused: recording is a `Vec` index instead of a key rebuild
//! and a string-keyed map lookup. Handles survive a drain (the hub keeps
//! its interned series), so they are never invalidated.

use std::collections::BTreeMap;

use sebs_sim::{SimDuration, SimTime};
use sebs_telemetry::{MetricsHub, SeriesId};

use crate::function::FunctionId;
use crate::invocation::{InvocationOutcome, InvocationRecord, StartKind};
use crate::pool::ContainerPool;

/// Pool key → index in the platform's pool `Vec`, iterated in key order.
pub(crate) type PoolKeys = BTreeMap<String, usize>;

/// Distinct `outcome` label values of [`InvocationOutcome`].
const OUTCOMES: usize = 7;

fn outcome_slot(outcome: &InvocationOutcome) -> usize {
    match outcome {
        InvocationOutcome::Success => 0,
        InvocationOutcome::OutOfMemory { .. } => 1,
        InvocationOutcome::Timeout => 2,
        InvocationOutcome::Throttled => 3,
        InvocationOutcome::ServiceUnavailable => 4,
        InvocationOutcome::PayloadTooLarge { .. } => 5,
        InvocationOutcome::FunctionError { .. } => 6,
    }
}

/// The `kind` / `start` label values of a sandbox start, by slot.
const STARTS: [&str; 3] = ["cold", "spurious_cold", "warm"];

/// Handles of one function's event series.
#[derive(Debug)]
struct FnSeries {
    invocations: [Option<SeriesId>; OUTCOMES],
    starts: [Option<SeriesId>; STARTS.len()],
    latency: [Option<SeriesId>; STARTS.len()],
    billed_ms: SeriesId,
    gb_seconds: SeriesId,
    cost: SeriesId,
    egress: SeriesId,
    burst: SeriesId,
}

impl FnSeries {
    fn resolve(hub: &mut MetricsHub, name: &str) -> FnSeries {
        let fun = [("function", name)];
        FnSeries {
            invocations: [None; OUTCOMES],
            starts: [None; STARTS.len()],
            latency: [None; STARTS.len()],
            billed_ms: hub.counter("sebs_billed_duration_ms_total", &fun),
            gb_seconds: hub.counter("sebs_billed_gb_seconds_total", &fun),
            cost: hub.counter("sebs_cost_usd_total", &fun),
            egress: hub.counter("sebs_egress_bytes_total", &fun),
            burst: hub.gauge("sebs_burst_concurrency", &fun),
        }
    }
}

/// Handles of one container pool's observed series.
#[derive(Debug)]
struct PoolSeries {
    pool: usize,
    warm: SeriesId,
    idle: SeriesId,
    active: SeriesId,
    cold_starts: SeriesId,
    warm_hits: SeriesId,
    evictions: SeriesId,
}

impl PoolSeries {
    fn resolve(hub: &mut MetricsHub, key: &str, index: usize) -> PoolSeries {
        let pool = [("pool", key)];
        PoolSeries {
            pool: index,
            warm: hub.gauge("sebs_containers_warm", &pool),
            idle: hub.gauge("sebs_containers_idle", &pool),
            active: hub.gauge("sebs_containers_active", &pool),
            cold_starts: hub.counter("sebs_pool_cold_starts_total", &pool),
            warm_hits: hub.counter("sebs_pool_warm_hits_total", &pool),
            evictions: hub.counter("sebs_pool_evictions_total", &pool),
        }
    }
}

/// A metrics hub with cached series handles.
#[derive(Debug)]
pub(crate) struct PlatformMetrics {
    pub(crate) hub: MetricsHub,
    /// By function id; `None` until the function's first record.
    functions: Vec<Option<FnSeries>>,
    /// One per pool, in pool-key order (`fn:10` before `fn:2`). Pools are
    /// only ever added, so a length mismatch is the one staleness signal.
    pools: Vec<PoolSeries>,
}

impl PlatformMetrics {
    /// An empty scope sampling every `interval`.
    pub(crate) fn new(interval: SimDuration) -> PlatformMetrics {
        PlatformMetrics {
            hub: MetricsHub::new(interval),
            functions: Vec::new(),
            pools: Vec::new(),
        }
    }

    /// Records the per-invocation event metrics for one completed (or
    /// rejected) invocation of `function`, deployed as `name`.
    pub(crate) fn record_invocation(
        &mut self,
        function: FunctionId,
        name: &str,
        record: &InvocationRecord,
        spurious: bool,
    ) {
        let hub = &mut self.hub;
        let i = function.0 as usize;
        if self.functions.len() <= i {
            self.functions.resize_with(i + 1, || None);
        }
        let fs = self.functions[i].get_or_insert_with(|| FnSeries::resolve(hub, name));
        let outcome = *fs.invocations[outcome_slot(&record.outcome)].get_or_insert_with(|| {
            hub.counter(
                "sebs_invocations_total",
                &[("function", name), ("outcome", record.outcome.label())],
            )
        });
        hub.add(outcome, 1.0);
        if record.container.is_none() {
            // Rejected before a sandbox was acquired (payload limit,
            // throttle, availability): no start, no bill.
            return;
        }
        let slot = match (record.start, spurious) {
            (StartKind::Cold, false) => 0,
            (StartKind::Cold, true) => 1,
            (StartKind::Warm, _) => 2,
        };
        let start = STARTS[slot];
        let starts = *fs.starts[slot].get_or_insert_with(|| {
            hub.counter("sebs_starts_total", &[("function", name), ("kind", start)])
        });
        hub.add(starts, 1.0);
        let latency = *fs.latency[slot].get_or_insert_with(|| {
            hub.histogram(
                "sebs_invocation_latency_ms",
                &[("function", name), ("start", start)],
            )
        });
        hub.observe(latency, record.client_time.as_millis_f64());
        hub.add(fs.billed_ms, record.bill.billed_duration.as_millis_f64());
        let gb_s = record.bill.billed_memory_mb as f64 / 1024.0
            * record.bill.billed_duration.as_secs_f64();
        hub.add(fs.gb_seconds, gb_s);
        hub.add(fs.cost, record.bill.total_usd());
        hub.add(fs.egress, record.response_bytes as f64);
        hub.set(fs.burst, record.concurrency as f64);
    }

    /// Re-reads every pool's occupancy and statistics as of instant `t`.
    /// Pure observation: pools are not advanced and no RNG is drawn.
    pub(crate) fn refresh_pools(&mut self, keys: &PoolKeys, pools: &[ContainerPool], t: SimTime) {
        if self.pools.len() != keys.len() {
            let hub = &mut self.hub;
            self.pools = keys
                .iter()
                .map(|(key, &i)| PoolSeries::resolve(hub, key, i))
                .collect();
        }
        for h in &self.pools {
            let pool = &pools[h.pool];
            let obs = pool.observe(t);
            self.hub.set(h.warm, obs.warm as f64);
            self.hub.set(h.idle, obs.idle as f64);
            self.hub.set(h.active, obs.active as f64);
            // Counter snapshots at zero stay absent (Prometheus
            // convention: a counter series appears on first increment).
            for (id, value) in [
                (h.cold_starts, pool.cold_starts),
                (h.warm_hits, pool.warm_hits),
                (h.evictions, pool.evictions),
            ] {
                if value > 0 {
                    self.hub.set(id, value as f64);
                }
            }
        }
    }
}

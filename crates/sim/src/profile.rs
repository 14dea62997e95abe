//! The hot-path phase profiler: preallocated sim-time/event-count
//! accounting for the phases every fleet-scale run spends its time in.
//!
//! Unlike a wall-clock profiler, [`PhaseProfiler`] accounts **simulated**
//! time: each scope records how much sim time a phase consumed and how
//! many times it ran. That makes the profile a pure function of
//! `(seed, config)` — byte-identical across `--jobs`, zero RNG draws,
//! zero wall-clock reads — so it can ship inside deterministic exports
//! like `sebs report`.
//!
//! Design constraints (enforced by the `sebs-audit` gate):
//!
//! * **Preallocated**: the state is one fixed `[PhaseStat; N]` array
//!   indexed by the [`Phase`] enum — recording never allocates, so it is
//!   legal on the allocation-audited hot path (`invoke_one`).
//! * **Zero-cost when disabled**: holders keep an `Option<PhaseProfiler>`
//!   and recording sites are a single `if let Some(..)` branch.
//! * **Order-independent merge**: per-cell profiles fold by saturating
//!   `u64` addition, so merged fleet profiles are identical for any merge
//!   order and any worker count.

use crate::time::SimDuration;

/// The instrumented hot phases, in canonical display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One sandbox acquisition; the recorded sim time is the cold-start
    /// initialization it cost (zero on warm hits).
    PoolAcquire,
    /// Storage operations issued by a function body; the recorded sim
    /// time is the invocation's effective I/O time.
    StorageOp,
    /// One invocation billed; the recorded sim time is the billed
    /// duration.
    Billing,
    /// One per-cell result merged back by a runner; merges happen on the
    /// host outside sim time, so only the event count is meaningful.
    RunnerMerge,
}

impl Phase {
    /// Every phase, in canonical display order.
    pub const ALL: [Phase; 4] = [
        Phase::PoolAcquire,
        Phase::StorageOp,
        Phase::Billing,
        Phase::RunnerMerge,
    ];

    /// The phase's stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::PoolAcquire => "pool.acquire",
            Phase::StorageOp => "storage.op",
            Phase::Billing => "billing.finalize",
            Phase::RunnerMerge => "runner.merge",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::PoolAcquire => 0,
            Phase::StorageOp => 1,
            Phase::Billing => 2,
            Phase::RunnerMerge => 3,
        }
    }
}

/// Accumulated accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// How many times the phase ran.
    pub events: u64,
    /// Total sim time attributed to the phase.
    pub sim_time: SimDuration,
}

impl PhaseStat {
    /// Mean sim time per event in milliseconds; NaN when no events ran.
    pub fn mean_ms(&self) -> f64 {
        if self.events == 0 {
            return f64::NAN;
        }
        self.sim_time.as_millis_f64() / self.events as f64
    }
}

/// Fixed-size scoped sim-time/event-count profiler. See the module docs
/// for the contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfiler {
    stats: [PhaseStat; Phase::ALL.len()],
}

impl PhaseProfiler {
    /// A profiler with all phases at zero.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Records one event of `phase` consuming `sim_time`. Allocation-free.
    #[inline]
    pub fn record(&mut self, phase: Phase, sim_time: SimDuration) {
        self.record_events(phase, 1, sim_time);
    }

    /// Records `events` occurrences of `phase` consuming `sim_time` in
    /// total. Allocation-free; counters saturate instead of wrapping.
    #[inline]
    pub fn record_events(&mut self, phase: Phase, events: u64, sim_time: SimDuration) {
        let s = &mut self.stats[phase.index()];
        s.events = s.events.saturating_add(events);
        s.sim_time = s.sim_time.saturating_add(sim_time);
    }

    /// The accumulated stat for one phase.
    pub fn stat(&self, phase: Phase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// Total events across all phases.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().fold(0, |a, s| a.saturating_add(s.events))
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }

    /// Folds another profile in. Saturating `u64` addition per phase, so
    /// merging is associative and commutative — fleet profiles are
    /// identical for any merge order.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.events = a.events.saturating_add(b.events);
            a.sim_time = a.sim_time.saturating_add(b.sim_time);
        }
    }

    /// The canonical rows `(label, events, total sim ms, mean ms)` in
    /// [`Phase::ALL`] order, skipping phases that never ran.
    pub fn rows(&self) -> Vec<(&'static str, u64, f64, f64)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let s = self.stat(p);
                (p.label(), s.events, s.sim_time.as_millis_f64(), s.mean_ms())
            })
            .filter(|(_, events, _, _)| *events > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_phase() {
        let mut p = PhaseProfiler::new();
        assert!(p.is_empty());
        p.record(Phase::PoolAcquire, SimDuration::from_millis(120));
        p.record(Phase::PoolAcquire, SimDuration::ZERO);
        p.record_events(Phase::StorageOp, 3, SimDuration::from_millis(30));
        let pool = p.stat(Phase::PoolAcquire);
        assert_eq!(pool.events, 2);
        assert_eq!(pool.sim_time, SimDuration::from_millis(120));
        assert_eq!(pool.mean_ms(), 60.0);
        let storage = p.stat(Phase::StorageOp);
        assert_eq!(storage.events, 3);
        assert_eq!(storage.mean_ms(), 10.0);
        assert_eq!(p.total_events(), 5);
        assert!(!p.is_empty());
        assert!(p.stat(Phase::Billing).mean_ms().is_nan());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = PhaseProfiler::new();
        a.record(Phase::PoolAcquire, SimDuration::from_micros(5));
        a.record(Phase::Billing, SimDuration::from_millis(2));
        let mut b = PhaseProfiler::new();
        b.record_events(Phase::PoolAcquire, 9, SimDuration::from_micros(45));
        b.record(Phase::RunnerMerge, SimDuration::ZERO);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.stat(Phase::PoolAcquire).events, 10);
        assert_eq!(ab.total_events(), 12);
    }

    #[test]
    fn saturating_counters_never_wrap() {
        let mut p = PhaseProfiler::new();
        p.record_events(Phase::Billing, u64::MAX, SimDuration::MAX);
        p.record(Phase::Billing, SimDuration::from_secs(1));
        let s = p.stat(Phase::Billing);
        assert_eq!(s.events, u64::MAX);
        assert_eq!(s.sim_time, SimDuration::MAX);
    }

    #[test]
    fn rows_are_canonical_and_skip_idle_phases() {
        let mut p = PhaseProfiler::new();
        p.record(Phase::Billing, SimDuration::from_millis(1));
        p.record(Phase::PoolAcquire, SimDuration::ZERO);
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "pool.acquire", "canonical phase order");
        assert_eq!(rows[1].0, "billing.finalize");
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "pool.acquire",
                "storage.op",
                "billing.finalize",
                "runner.merge"
            ]
        );
    }
}

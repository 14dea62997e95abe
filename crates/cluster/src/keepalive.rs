//! Keep-alive policies: how long idle containers survive, and when to
//! pre-warm one ahead of a predicted arrival.

use sebs_platform::EvictionPolicy;
use sebs_sim::{Dist, SimDuration, SimTime};

/// A container-retention policy for the whole cluster.
///
/// The cluster consults it once per *logical* request (retried attempts
/// of the same request are not new arrivals): [`wants_prewarm`] first —
/// using only history from previous arrivals — then
/// [`observe_arrival`], which records the arrival and may retune the
/// function's pool eviction policy on every host.
///
/// [`wants_prewarm`]: KeepAlivePolicy::wants_prewarm
/// [`observe_arrival`]: KeepAlivePolicy::observe_arrival
pub trait KeepAlivePolicy {
    /// Stable label for exports and sweep axes.
    fn label(&self) -> String;

    /// The pool eviction policy to install for a newly deployed function,
    /// or `None` to keep the provider's own model (the baseline: no
    /// pool-policy calls at all, bit-identical to the single box).
    fn initial_policy(&self) -> Option<EvictionPolicy>;

    /// Records an arrival of `function` at `now`; returns a new eviction
    /// policy when the controller retunes this function's keep-alive.
    fn observe_arrival(&mut self, function: u32, now: SimTime) -> Option<EvictionPolicy>;

    /// Whether a sandbox should be pre-warmed for this arrival (the
    /// cluster pre-warms on the chosen host just before dispatch, so the
    /// arrival lands warm — modelling a prewarm that fired earlier).
    fn wants_prewarm(&self, function: u32, now: SimTime) -> bool;
}

/// The provider's own eviction model, untouched: deploys make no
/// pool-policy calls and nothing is ever retuned or pre-warmed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderBaseline;

impl KeepAlivePolicy for ProviderBaseline {
    fn label(&self) -> String {
        "provider".to_string()
    }

    fn initial_policy(&self) -> Option<EvictionPolicy> {
        None
    }

    fn observe_arrival(&mut self, _function: u32, _now: SimTime) -> Option<EvictionPolicy> {
        None
    }

    fn wants_prewarm(&self, _function: u32, _now: SimTime) -> bool {
        false
    }
}

/// A fixed idle timeout for every function (the classic 10-minute
/// keep-alive), jitter-free.
#[derive(Debug, Clone, Copy)]
pub struct FixedKeepAlive {
    /// Idle containers die after this long.
    pub keep_alive: SimDuration,
}

fn idle_timeout(timeout: SimDuration) -> EvictionPolicy {
    EvictionPolicy::IdleTimeout {
        timeout,
        jitter_ms: Dist::Constant(0.0),
    }
}

impl KeepAlivePolicy for FixedKeepAlive {
    fn label(&self) -> String {
        format!("fixed-{}s", self.keep_alive.as_secs_f64().round() as u64)
    }

    fn initial_policy(&self) -> Option<EvictionPolicy> {
        Some(idle_timeout(self.keep_alive))
    }

    fn observe_arrival(&mut self, _function: u32, _now: SimTime) -> Option<EvictionPolicy> {
        None
    }

    fn wants_prewarm(&self, _function: u32, _now: SimTime) -> bool {
        false
    }
}

/// Samples needed before the hybrid controller trusts its histogram.
pub const HYBRID_MIN_SAMPLES: usize = 8;

/// Idle-gap samples kept per function (a ring of the most recent gaps).
const HYBRID_WINDOW: usize = 256;

/// Gap regime boundary: a 5th-percentile idle gap beyond this means the
/// function sits idle for long stretches and keeping containers warm the
/// whole time is wasted memory — switch to prewarming instead.
const LONG_GAP_MS: u64 = 120_000;

/// Floor/ceiling on the keep-alive the controller will apply.
const CLAMP_LO_MS: u64 = 60_000;
const CLAMP_HI_MS: u64 = 7_200_000;

#[derive(Debug, Clone, Default)]
struct FnHistory {
    last_arrival: Option<SimTime>,
    /// Ring buffer of recent idle gaps, milliseconds, in arrival order.
    gaps_ms: Vec<u64>,
    next_slot: usize,
    /// The same multiset as `gaps_ms`, ascending: each new gap evicts
    /// one entry and inserts one by binary search, so the percentiles
    /// are two indexed reads instead of a sort per arrival.
    sorted_ms: Vec<u64>,
    /// The keep-alive currently installed on the pools, ms (0 = none yet).
    applied_ms: u64,
}

impl FnHistory {
    fn record_gap(&mut self, gap_ms: u64) {
        if self.gaps_ms.len() < HYBRID_WINDOW {
            self.gaps_ms.push(gap_ms);
        } else {
            let evicted = std::mem::replace(&mut self.gaps_ms[self.next_slot], gap_ms);
            self.next_slot = (self.next_slot + 1) % HYBRID_WINDOW;
            // The first entry equal to `evicted`; it is present because
            // both vectors hold the same multiset.
            let at = self.sorted_ms.partition_point(|&g| g < evicted);
            self.sorted_ms.remove(at);
        }
        let at = self.sorted_ms.partition_point(|&g| g <= gap_ms);
        self.sorted_ms.insert(at, gap_ms);
    }

    fn ready(&self) -> bool {
        self.gaps_ms.len() >= HYBRID_MIN_SAMPLES
    }

    /// Nearest-rank 5th percentile of the window's gaps, ms.
    fn p5_ms(&self) -> u64 {
        nearest_rank(&self.sorted_ms, 0.05)
    }

    /// Nearest-rank 99th percentile of the window's gaps, ms.
    fn p99_ms(&self) -> u64 {
        nearest_rank(&self.sorted_ms, 0.99)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A Serverless-in-the-Wild style hybrid-histogram controller: each
/// function's idle-gap distribution drives its keep-alive and prewarm.
///
/// - **Short-gap regime** (p5 ≤ 2 min): arrivals come fast enough that
///   keeping a container resident pays — keep-alive is set to the p99
///   idle gap (clamped to [1 min, 2 h]) so ~99% of arrivals land warm.
/// - **Long-gap regime** (p5 > 2 min): holding memory across the gaps is
///   waste — keep-alive drops to the 1-minute floor and the controller
///   pre-warms instead when the current gap falls inside the predicted
///   window `[0.85·p5, 1.15·p99]`.
///
/// The prewarm is applied lazily at dispatch time on the scheduled host
/// (the arrival lands warm, paying a prewarmed-cold init off the request
/// path); occupancy sampled between the notional prewarm instant and the
/// arrival therefore under-reports the prewarmed container's memory — a
/// documented approximation that biases the Pareto frontier slightly in
/// the policy's favour.
#[derive(Debug, Clone, Default)]
pub struct HybridHistogram {
    fns: Vec<FnHistory>,
}

impl HybridHistogram {
    /// A fresh controller with no history.
    pub fn new() -> HybridHistogram {
        HybridHistogram::default()
    }

    fn history_mut(&mut self, function: u32) -> &mut FnHistory {
        let idx = function as usize;
        if self.fns.len() <= idx {
            self.fns.resize_with(idx + 1, FnHistory::default);
        }
        &mut self.fns[idx]
    }
}

impl KeepAlivePolicy for HybridHistogram {
    fn label(&self) -> String {
        "hybrid".to_string()
    }

    fn initial_policy(&self) -> Option<EvictionPolicy> {
        // Until the histogram fills, run a generous fixed keep-alive.
        Some(idle_timeout(SimDuration::from_millis(600_000)))
    }

    fn observe_arrival(&mut self, function: u32, now: SimTime) -> Option<EvictionPolicy> {
        let h = self.history_mut(function);
        if let Some(last) = h.last_arrival {
            let gap = now - last;
            h.record_gap((gap.as_secs_f64() * 1e3).round() as u64);
        }
        h.last_arrival = Some(now);
        if !h.ready() {
            return None;
        }
        let target_ms = if h.p5_ms() <= LONG_GAP_MS {
            h.p99_ms().clamp(CLAMP_LO_MS, CLAMP_HI_MS)
        } else {
            CLAMP_LO_MS
        };
        if target_ms == h.applied_ms {
            return None;
        }
        h.applied_ms = target_ms;
        Some(idle_timeout(SimDuration::from_millis(target_ms)))
    }

    fn wants_prewarm(&self, function: u32, now: SimTime) -> bool {
        let Some(h) = self.fns.get(function as usize) else {
            return false;
        };
        let p5_ms = h.p5_ms();
        if !h.ready() || p5_ms <= LONG_GAP_MS {
            return false;
        }
        let Some(last) = h.last_arrival else {
            return false;
        };
        let gap_ms = ((now - last).as_secs_f64() * 1e3).round() as u64;
        gap_ms >= p5_ms / 100 * 85 && gap_ms <= h.p99_ms() / 100 * 115
    }
}

/// A parsed keep-alive choice — the second sweep axis of the cluster
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAliveKind {
    /// [`ProviderBaseline`].
    Provider,
    /// [`FixedKeepAlive`] with the given timeout in seconds.
    Fixed(u64),
    /// [`HybridHistogram`].
    Hybrid,
}

impl KeepAliveKind {
    /// Parses a label: `provider`, `fixed-<secs>` or `hybrid`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<KeepAliveKind, String> {
        let s = s.trim();
        if s == "provider" {
            return Ok(KeepAliveKind::Provider);
        }
        if s == "hybrid" {
            return Ok(KeepAliveKind::Hybrid);
        }
        if let Some(secs) = s.strip_prefix("fixed-") {
            let secs = secs.strip_suffix('s').unwrap_or(secs);
            let secs: u64 = secs
                .parse()
                .map_err(|e| format!("bad fixed keep-alive seconds `{secs}`: {e}"))?;
            if secs == 0 {
                return Err("fixed keep-alive must be >= 1 s".to_string());
            }
            return Ok(KeepAliveKind::Fixed(secs));
        }
        Err(format!(
            "unknown keep-alive `{s}` (valid: provider, fixed-<secs>, hybrid)"
        ))
    }

    /// The stable label (round-trips through [`KeepAliveKind::parse`]).
    pub fn label(&self) -> String {
        match self {
            KeepAliveKind::Provider => "provider".to_string(),
            KeepAliveKind::Fixed(secs) => format!("fixed-{secs}s"),
            KeepAliveKind::Hybrid => "hybrid".to_string(),
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn KeepAlivePolicy> {
        match self {
            KeepAliveKind::Provider => Box::new(ProviderBaseline),
            KeepAliveKind::Fixed(secs) => Box::new(FixedKeepAlive {
                keep_alive: SimDuration::from_secs(*secs),
            }),
            KeepAliveKind::Hybrid => Box::new(HybridHistogram::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn baseline_is_inert() {
        let mut p = ProviderBaseline;
        assert!(p.initial_policy().is_none());
        assert!(p.observe_arrival(0, at(10)).is_none());
        assert!(!p.wants_prewarm(0, at(10)));
    }

    #[test]
    fn fixed_installs_once_and_never_retunes() {
        let mut p = FixedKeepAlive {
            keep_alive: SimDuration::from_secs(600),
        };
        assert_eq!(p.label(), "fixed-600s");
        assert!(matches!(
            p.initial_policy(),
            Some(EvictionPolicy::IdleTimeout { timeout, .. })
                if timeout == SimDuration::from_secs(600)
        ));
        assert!(p.observe_arrival(0, at(10)).is_none());
    }

    #[test]
    fn hybrid_short_gaps_track_p99() {
        let mut p = HybridHistogram::new();
        // 20 arrivals, 30 s apart: p99 gap = 30 s, clamped up to 60 s.
        let mut tuned = None;
        for i in 0..20u64 {
            if let Some(policy) = p.observe_arrival(0, at(30 * i)) {
                tuned = Some(policy);
            }
        }
        match tuned {
            Some(EvictionPolicy::IdleTimeout { timeout, .. }) => {
                assert_eq!(timeout, SimDuration::from_secs(60), "clamped to the floor");
            }
            other => panic!("expected a retune, got {other:?}"),
        }
        assert!(
            !p.wants_prewarm(0, at(650)),
            "short-gap regime never prewarms"
        );
    }

    #[test]
    fn hybrid_long_gaps_switch_to_prewarm() {
        let mut p = HybridHistogram::new();
        // Gaps of 1000 s: p5 > 2 min → long-gap regime.
        let mut last_retune = None;
        for i in 0..12u64 {
            if let Some(policy) = p.observe_arrival(0, at(1000 * i)) {
                last_retune = Some(policy);
            }
        }
        match last_retune {
            Some(EvictionPolicy::IdleTimeout { timeout, .. }) => {
                assert_eq!(
                    timeout,
                    SimDuration::from_secs(60),
                    "long-gap regime drops keep-alive to the floor"
                );
            }
            other => panic!("expected a retune, got {other:?}"),
        }
        // Inside the predicted window the next arrival is prewarmed…
        assert!(p.wants_prewarm(0, at(11_000 + 1000)));
        // …but a nearly-immediate retry-scale gap is not.
        assert!(!p.wants_prewarm(0, at(11_000 + 10)));
        // …and far beyond p99 the prediction has expired.
        assert!(!p.wants_prewarm(0, at(11_000 + 100_000)));
    }

    #[test]
    fn hybrid_retunes_only_on_change() {
        let mut p = HybridHistogram::new();
        let mut retunes = 0;
        for i in 0..64u64 {
            if p.observe_arrival(0, at(30 * i)).is_some() {
                retunes += 1;
            }
        }
        assert_eq!(retunes, 1, "a stable histogram retunes once");
    }

    mod properties {
        use super::*;
        use sebs_sim::rng::Rng;
        use sebs_sim::SimRng;
        use std::collections::VecDeque;

        const CASES: u64 = 32;

        /// The incrementally sorted copy holds exactly the last
        /// `HYBRID_WINDOW` gaps, so p5/p99 equal a clone-and-sort of that
        /// window after every push. Few distinct values force duplicates
        /// (the evicted-gap search must remove exactly one of equals), and
        /// each stream runs the ring round several times.
        #[test]
        fn hybrid_percentiles_match_clone_and_sort() {
            for case in 0..CASES {
                let mut rng = SimRng::new(0x9A95).child(case).stream("gaps");
                let distinct = rng.gen_range(1u64..40);
                let scale = rng.gen_range(1u64..200_000);
                let pushes = rng.gen_range(HYBRID_WINDOW + 1..4 * HYBRID_WINDOW);
                let mut h = FnHistory::default();
                let mut window: VecDeque<u64> = VecDeque::with_capacity(HYBRID_WINDOW + 1);
                for i in 0..pushes {
                    let gap = rng.gen_range(0..distinct) * scale;
                    h.record_gap(gap);
                    window.push_back(gap);
                    if window.len() > HYBRID_WINDOW {
                        window.pop_front();
                    }
                    let mut sorted: Vec<u64> = window.iter().copied().collect();
                    sorted.sort_unstable();
                    assert_eq!(h.sorted_ms, sorted, "case {case}, push {i}");
                    assert_eq!(
                        (h.p5_ms(), h.p99_ms()),
                        (nearest_rank(&sorted, 0.05), nearest_rank(&sorted, 0.99)),
                        "case {case}, push {i}"
                    );
                }
                assert_eq!(h.gaps_ms.len(), HYBRID_WINDOW, "the ring wrapped");
            }
        }
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for label in ["provider", "fixed-600s", "hybrid"] {
            let kind = KeepAliveKind::parse(label).unwrap();
            assert_eq!(kind.label(), label);
            assert_eq!(kind.build().label(), label);
        }
        assert_eq!(
            KeepAliveKind::parse("fixed-300").unwrap(),
            KeepAliveKind::Fixed(300)
        );
        assert!(KeepAliveKind::parse("fixed-0").is_err());
        let err = KeepAliveKind::parse("frobnicate").unwrap_err();
        assert!(err.contains("provider"), "{err}");
    }
}

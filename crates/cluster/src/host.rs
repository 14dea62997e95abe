//! One machine in the region: a wrapped single-box platform plus the
//! capacity bookkeeping the cluster schedules against.

use sebs_platform::{FaasPlatform, FunctionId, PoolObservation, ProviderProfile};
use sebs_sim::{SimDuration, SimTime};

/// A host's telemetry counters, snapshotted for exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Host index in the cluster.
    pub id: u32,
    /// Invocations dispatched to (and completed on) this host.
    pub served: u64,
    /// Cold starts among them.
    pub cold_starts: u64,
    /// Warm hits among them.
    pub warm_hits: u64,
    /// Times this host crashed.
    pub crashes: u64,
    /// Invocations the host lost mid-flight to a crash.
    pub crash_failures: u64,
}

/// One machine: a single-box [`FaasPlatform`] under per-host CPU
/// capacity, a bounded admission queue, and a crash/recovery state.
pub struct Host {
    pub(crate) platform: FaasPlatform,
    id: u32,
    cpus: u32,
    queue_depth: u32,
    /// Down (crashed, not yet recovered) until this instant, exclusive.
    down_until: Option<SimTime>,
    /// Completion times (cluster clock) of admitted invocations,
    /// ascending: pruning drains a prefix and the queue wait is one
    /// indexed read.
    inflight: Vec<SimTime>,
    served: u64,
    cold_starts: u64,
    warm_hits: u64,
    crashes: u64,
    crash_failures: u64,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("inflight", &self.inflight.len())
            .field("down_until", &self.down_until)
            .finish()
    }
}

impl Host {
    /// Boots a host. Every host shares the cluster seed: hosts are
    /// statistically identical machines whose RNG streams diverge with
    /// their own invocation history.
    pub(crate) fn new(
        id: u32,
        profile: ProviderProfile,
        seed: u64,
        cpus: u32,
        queue_depth: u32,
    ) -> Host {
        Host {
            platform: FaasPlatform::new(profile, seed),
            id,
            cpus: cpus.max(1),
            queue_depth,
            down_until: None,
            inflight: Vec::new(),
            served: 0,
            cold_starts: 0,
            warm_hits: 0,
            crashes: 0,
            crash_failures: 0,
        }
    }

    /// Host index in the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// CPU slots.
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Whether the host is serving at `now` (not inside a crash window).
    pub fn is_up(&self, now: SimTime) -> bool {
        match self.down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Admitted invocations still in flight at `now` (after pruning
    /// completed ones).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Invocations actually holding a CPU at `now`.
    pub fn running(&self) -> usize {
        self.inflight.len().min(self.cpus as usize)
    }

    /// Whether another invocation can be admitted.
    pub fn has_capacity(&self) -> bool {
        self.inflight.len() < (self.cpus + self.queue_depth) as usize
    }

    /// Drops inflight entries that completed at or before `now`.
    pub(crate) fn prune_inflight(&mut self, now: SimTime) {
        let done = self.inflight.partition_point(|end| *end <= now);
        self.inflight.drain(..done);
    }

    /// How long a request admitted at `now` waits for a CPU: zero with a
    /// free slot, else until the k-th earliest completion frees one.
    pub fn queue_wait(&self, now: SimTime) -> SimDuration {
        let m = self.inflight.len();
        let cpus = self.cpus as usize;
        if m < cpus {
            return SimDuration::ZERO;
        }
        let free_at = self.inflight[m - cpus];
        if free_at > now {
            free_at - now
        } else {
            SimDuration::ZERO
        }
    }

    /// Records an admitted invocation completing at `end`.
    pub(crate) fn push_inflight(&mut self, end: SimTime) {
        let at = self.inflight.partition_point(|e| *e <= end);
        self.inflight.insert(at, end);
    }

    /// Applies a crash at `at`, recovering at `until`: the warm pool is
    /// evicted wholesale and queued work is dropped (each in-flight
    /// invocation is failed individually at dispatch time by the
    /// cluster's crash-interrupt check).
    pub(crate) fn crash(&mut self, until: SimTime) {
        self.crashes += 1;
        self.down_until = Some(match self.down_until {
            Some(existing) => existing.max(until),
            None => until,
        });
        self.platform.evict_all_containers();
        self.inflight.clear();
    }

    pub(crate) fn count_served(&mut self, cold: bool) {
        self.served += 1;
        if cold {
            self.cold_starts += 1;
        } else {
            self.warm_hits += 1;
        }
    }

    pub(crate) fn count_crash_failure(&mut self) {
        self.crash_failures += 1;
    }

    /// Read-only pool occupancy for one function at the host's current
    /// time (RNG-free).
    pub fn observe_pool(&self, id: FunctionId) -> PoolObservation {
        self.platform.observe_pool(id)
    }

    /// The wrapped single-box platform.
    pub fn platform(&self) -> &FaasPlatform {
        &self.platform
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> HostStats {
        HostStats {
            id: self.id,
            served: self.served,
            cold_starts: self.cold_starts,
            warm_hits: self.warm_hits,
            crashes: self.crashes,
            crash_failures: self.crash_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn host() -> Host {
        Host::new(0, ProviderProfile::aws(), 7, 2, 3)
    }

    #[test]
    fn queue_wait_and_capacity() {
        let mut h = host();
        assert_eq!(h.queue_wait(at(0)), SimDuration::ZERO);
        h.push_inflight(at(10));
        assert_eq!(h.queue_wait(at(0)), SimDuration::ZERO, "one free CPU left");
        h.push_inflight(at(20));
        assert_eq!(
            h.queue_wait(at(0)),
            SimDuration::from_secs(10),
            "both CPUs busy: wait for the earliest completion"
        );
        h.push_inflight(at(5));
        assert_eq!(
            h.queue_wait(at(0)),
            SimDuration::from_secs(10),
            "one request already queued: a new arrival waits for the second completion"
        );
        assert_eq!(h.running(), 2);
        assert!(h.has_capacity(), "3 in flight, capacity 2 + 3");
        h.push_inflight(at(30));
        h.push_inflight(at(40));
        assert!(!h.has_capacity(), "queue full");
        h.prune_inflight(at(25));
        assert_eq!(h.inflight(), 2);
        assert!(h.has_capacity());
    }

    #[test]
    fn crash_takes_host_down_until_recovery() {
        let mut h = host();
        h.push_inflight(at(50));
        assert!(h.is_up(at(0)));
        h.crash(at(30));
        assert!(!h.is_up(at(10)));
        assert!(h.is_up(at(30)), "recovery boundary is inclusive");
        assert_eq!(h.inflight(), 0, "queued work is dropped");
        assert_eq!(h.stats().crashes, 1);
        // A second, longer crash extends the outage.
        h.crash(at(90));
        h.crash(at(60));
        assert!(!h.is_up(at(70)), "down_until never shrinks");
        assert!(h.is_up(at(90)));
    }

    mod properties {
        use super::*;
        use sebs_sim::rng::Rng;
        use sebs_sim::SimRng;

        const CASES: u64 = 64;

        /// The unsorted bookkeeping the sorted in-flight list replaced:
        /// retain to prune, clone-and-sort to find the freeing completion.
        struct Reference {
            ends: Vec<SimTime>,
            cpus: usize,
        }

        impl Reference {
            fn queue_wait(&self, now: SimTime) -> SimDuration {
                let m = self.ends.len();
                if m < self.cpus {
                    return SimDuration::ZERO;
                }
                let mut ends = self.ends.clone();
                ends.sort_unstable();
                ends[m - self.cpus].saturating_duration_since(now)
            }
        }

        /// Random push / prune / advance / crash sequences on a host give
        /// the same queue wait, in-flight count and running count as the
        /// unsorted reference after every step. Completion times are drawn
        /// from a coarse grid so equal ends (and prunes landing exactly on
        /// one) are common.
        #[test]
        fn sorted_inflight_matches_unsorted_reference() {
            for case in 0..CASES {
                let mut rng = SimRng::new(0x1F17).child(case).stream("ops");
                let cpus = rng.gen_range(1u32..6);
                let mut h = Host::new(0, ProviderProfile::aws(), 7, cpus, 8);
                let mut reference = Reference {
                    ends: Vec::new(),
                    cpus: cpus as usize,
                };
                let mut now = SimTime::ZERO;
                for step in 0..400 {
                    match rng.gen_range(0u32..20) {
                        0..=9 => {
                            let end = now + SimDuration::from_millis(100 * rng.gen_range(0u64..30));
                            h.push_inflight(end);
                            reference.ends.push(end);
                        }
                        10..=14 => {
                            h.prune_inflight(now);
                            reference.ends.retain(|end| *end > now);
                        }
                        15..=18 => now += SimDuration::from_millis(100 * rng.gen_range(0u64..8)),
                        _ => {
                            h.crash(now);
                            reference.ends.clear();
                        }
                    }
                    assert_eq!(
                        (h.queue_wait(now), h.inflight(), h.running()),
                        (
                            reference.queue_wait(now),
                            reference.ends.len(),
                            reference.ends.len().min(reference.cpus),
                        ),
                        "case {case}, step {step}"
                    );
                }
            }
        }
    }
}

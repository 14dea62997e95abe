//! Warm-container pools per function (paper §2 ❺, the server-side cache of
//! execution environments).

use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::SimTime;

use crate::container::{Container, ContainerId, ContainerState};
use crate::eviction::EvictionPolicy;

/// How a container was obtained for an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// An idle warm container was reused.
    Warm(ContainerId),
    /// A new container had to be created (cold start).
    Cold(ContainerId),
}

impl Acquired {
    /// The container id regardless of temperature.
    pub fn id(&self) -> ContainerId {
        match self {
            Acquired::Warm(id) | Acquired::Cold(id) => *id,
        }
    }

    /// `true` for a cold acquisition.
    pub fn is_cold(&self) -> bool {
        matches!(self, Acquired::Cold(_))
    }
}

/// A read-only snapshot of a pool's occupancy at one instant, taken
/// without advancing time, RNG streams or container state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolObservation {
    /// Containers alive at the instant: `active + idle`.
    pub warm: usize,
    /// Containers idle at the instant that the eviction policy would keep
    /// (jitter-free check; see [`EvictionPolicy::would_survive`]).
    pub idle: usize,
    /// Containers executing an invocation at the instant — either marked
    /// busy or released with a future `last_used_at` (the simulation
    /// completes invocations eagerly and post-dates the release).
    pub active: usize,
}

/// The pool of containers for one deployed function.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerPool {
    containers: Vec<Container>,
    policy: EvictionPolicy,
    next_id: u64,
    next_slot: u64,
    /// Total cold starts served (statistics).
    pub cold_starts: u64,
    /// Total warm hits served (statistics).
    pub warm_hits: u64,
    /// Total containers evicted by the policy in [`ContainerPool::advance`]
    /// (statistics; `evict_all` resets are not counted — they model a
    /// configuration update, not provider eviction).
    pub evictions: u64,
}

impl ContainerPool {
    /// Creates an empty pool with the given eviction policy.
    pub fn new(policy: EvictionPolicy) -> ContainerPool {
        ContainerPool {
            containers: Vec::new(),
            policy,
            next_id: 0,
            next_slot: 0,
            cold_starts: 0,
            warm_hits: 0,
            evictions: 0,
        }
    }

    /// Applies the eviction policy at `now`. Call before serving requests
    /// after simulated time has passed.
    pub fn advance(&mut self, now: SimTime, rng: &mut StreamRng) {
        let all = std::mem::take(&mut self.containers);
        let before = all.len();
        // Busy containers are never evicted mid-flight and go first; with none
        // in flight (the common case) the idle ones are filtered in place.
        self.containers = if all.iter().any(|c| c.state == ContainerState::Busy) {
            let (mut busy, idle): (Vec<_>, Vec<_>) = all
                .into_iter()
                .partition(|c| c.state == ContainerState::Busy);
            busy.extend(self.policy.survivors(idle, now, rng));
            busy
        } else {
            self.policy.survivors(all, now, rng)
        };
        self.evictions += (before - self.containers.len()) as u64;
        if self.containers.is_empty() {
            // A fully drained pool restarts its slot sequence, matching the
            // paper's per-batch D_init semantics.
            self.next_slot = 0;
        }
    }

    /// Acquires a container for an invocation at `now`.
    ///
    /// `spurious_cold` is the provider's probability of ignoring a warm
    /// container (GCP's unexpected cold starts); `deterministic` disables
    /// that roll entirely (AWS).
    pub fn acquire(
        &mut self,
        now: SimTime,
        rng: &mut StreamRng,
        spurious_cold: f64,
        deterministic: bool,
    ) -> Acquired {
        self.advance(now, rng);
        let force_cold = !deterministic && spurious_cold > 0.0 && rng.gen::<f64>() < spurious_cold;
        if !force_cold {
            if let Some(c) = self
                .containers
                .iter_mut()
                .filter(|c| c.state == ContainerState::Idle)
                .min_by_key(|c| c.slot)
            {
                c.begin();
                self.warm_hits += 1;
                return Acquired::Warm(c.id);
            }
        }
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let slot = self.next_slot;
        self.next_slot += 1;
        let mut c = Container::new(id, slot, now);
        c.begin();
        self.containers.push(c);
        self.cold_starts += 1;
        Acquired::Cold(id)
    }

    /// Marks the invocation on `id` finished at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the container does not exist (it must not have been
    /// evicted while busy).
    pub fn release(&mut self, id: ContainerId, now: SimTime) {
        let c = self
            .containers
            .iter_mut()
            .find(|c| c.id == id)
            // audit:allow(panic-hygiene): release() is only called with ids handed out by acquire()
            .expect("released container must exist");
        c.finish(now);
    }

    /// Number of warm (idle or busy) containers after advancing to `now`.
    pub fn warm_count(&mut self, now: SimTime, rng: &mut StreamRng) -> usize {
        self.advance(now, rng);
        self.containers.len()
    }

    /// Number of containers without advancing time.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// `true` when the pool holds no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Number of idle containers right now.
    pub fn idle_count(&self) -> usize {
        self.containers
            .iter()
            .filter(|c| c.state == ContainerState::Idle)
            .count()
    }

    /// Observes the pool's occupancy as of instant `t` without mutating
    /// anything: no time advance, no RNG draw, no eviction applied.
    ///
    /// A container counts as **active** when it is marked busy or its
    /// `last_used_at` lies in the future (the platform completes
    /// invocations eagerly and post-dates releases). An **idle** container
    /// additionally has to pass the jitter-free
    /// [`EvictionPolicy::would_survive`] check, so an idle container the
    /// policy would already have reclaimed is not reported warm.
    pub fn observe(&self, t: SimTime) -> PoolObservation {
        let mut obs = PoolObservation::default();
        for c in &self.containers {
            if c.state == ContainerState::Busy || c.last_used_at > t {
                obs.active += 1;
            } else if self.policy.would_survive(c, t) {
                obs.idle += 1;
            }
        }
        obs.warm = obs.active + obs.idle;
        obs
    }

    /// Kills every container — the suite's "enforce cold start" switch
    /// (SeBS forces cold starts by updating the function configuration).
    pub fn evict_all(&mut self) {
        self.containers.clear();
        self.next_slot = 0;
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> &EvictionPolicy {
        &self.policy
    }

    /// Replaces the eviction policy. Existing containers keep their state;
    /// the new policy applies from the next [`ContainerPool::advance`] (and
    /// to [`ContainerPool::observe`]'s survival check). This is how
    /// keep-alive policies (e.g. a hybrid-histogram controller) retune a
    /// function's keep-alive on the fly.
    pub fn set_policy(&mut self, policy: EvictionPolicy) {
        self.policy = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::{SimDuration, SimRng};

    fn rng() -> StreamRng {
        SimRng::new(2).stream("pool")
    }

    fn aws_pool() -> ContainerPool {
        ContainerPool::new(EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        })
    }

    #[test]
    fn first_acquire_is_cold_then_warm() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, true);
        assert!(a.is_cold());
        pool.release(a.id(), t0 + SimDuration::from_millis(100));
        let b = pool.acquire(t0 + SimDuration::from_secs(1), &mut r, 0.0, true);
        assert!(!b.is_cold());
        assert_eq!(a.id(), b.id(), "AWS reuses deterministically");
        assert_eq!(pool.cold_starts, 1);
        assert_eq!(pool.warm_hits, 1);
    }

    #[test]
    fn concurrent_acquires_spawn_new_containers() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, true);
        let b = pool.acquire(t0, &mut r, 0.0, true);
        assert!(a.is_cold() && b.is_cold());
        assert_ne!(a.id(), b.id());
        assert_eq!(pool.len(), 2);
        pool.release(a.id(), t0 + SimDuration::from_millis(50));
        // A third request while b is busy reuses a's container.
        let c = pool.acquire(t0 + SimDuration::from_millis(60), &mut r, 0.0, true);
        assert_eq!(c.id(), a.id());
        assert!(!c.is_cold());
    }

    #[test]
    fn eviction_follows_equation_one() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        // Warm 8 containers.
        let ids: Vec<_> = (0..8)
            .map(|_| pool.acquire(t0, &mut r, 0.0, true))
            .collect();
        for a in &ids {
            pool.release(a.id(), t0 + SimDuration::from_millis(10));
        }
        assert_eq!(pool.warm_count(t0 + SimDuration::from_secs(100), &mut r), 8);
        assert_eq!(pool.warm_count(t0 + SimDuration::from_secs(390), &mut r), 4);
        assert_eq!(pool.warm_count(t0 + SimDuration::from_secs(770), &mut r), 2);
        assert_eq!(
            pool.warm_count(t0 + SimDuration::from_secs(1150), &mut r),
            1
        );
        assert_eq!(
            pool.warm_count(t0 + SimDuration::from_secs(1530), &mut r),
            1,
            "slot 0 survives forever"
        );
    }

    #[test]
    fn busy_containers_survive_eviction() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, true);
        // Never released: still busy hours later.
        assert_eq!(
            pool.warm_count(t0 + SimDuration::from_secs(10_000), &mut r),
            1
        );
        pool.release(a.id(), t0 + SimDuration::from_secs(10_000));
    }

    #[test]
    fn spurious_cold_starts_on_nondeterministic_platforms() {
        let mut pool = ContainerPool::new(EvictionPolicy::Never);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, false);
        pool.release(a.id(), t0);
        // With p = 1.0 every acquire is cold despite the warm container.
        let b = pool.acquire(t0 + SimDuration::from_secs(1), &mut r, 1.0, false);
        assert!(b.is_cold());
        assert!(pool.len() >= 2, "container count grows, as on GCP");
    }

    #[test]
    fn deterministic_flag_suppresses_spurious_colds() {
        let mut pool = ContainerPool::new(EvictionPolicy::Never);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 1.0, true);
        pool.release(a.id(), t0);
        let b = pool.acquire(t0 + SimDuration::from_secs(1), &mut r, 1.0, true);
        assert!(!b.is_cold(), "AWS ignores the spurious-cold probability");
    }

    #[test]
    fn evict_all_forces_cold() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, true);
        pool.release(a.id(), t0);
        pool.evict_all();
        assert!(pool.is_empty());
        let b = pool.acquire(t0 + SimDuration::from_secs(1), &mut r, 0.0, true);
        assert!(b.is_cold());
    }

    #[test]
    #[should_panic(expected = "must exist")]
    fn releasing_unknown_container_panics() {
        let mut pool = aws_pool();
        pool.release(ContainerId(42), SimTime::ZERO);
    }

    #[test]
    fn observe_is_read_only_and_splits_active_idle() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = pool.acquire(t0, &mut r, 0.0, true);
        let b = pool.acquire(t0, &mut r, 0.0, true);
        // `a` finishes at t=10s; `b` is released post-dated to t=30s, the
        // way the platform records in-flight work.
        pool.release(a.id(), t0 + SimDuration::from_secs(10));
        pool.release(b.id(), t0 + SimDuration::from_secs(30));

        let before = pool.clone();
        let at20 = pool.observe(t0 + SimDuration::from_secs(20));
        assert_eq!((at20.warm, at20.idle, at20.active), (2, 1, 1));
        let at40 = pool.observe(t0 + SimDuration::from_secs(40));
        assert_eq!((at40.warm, at40.idle, at40.active), (2, 2, 0));
        // Past the first half-life after `b`'s release, slot 1 is gone
        // from the observation — even though advance() has not run.
        let late = pool.observe(t0 + SimDuration::from_secs(30 + 380));
        assert_eq!(late.warm, 1);
        assert_eq!(pool, before, "observe never mutates the pool");
    }

    #[test]
    fn evictions_counter_tracks_policy_reclaims_only() {
        let mut pool = aws_pool();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let ids: Vec<_> = (0..8)
            .map(|_| pool.acquire(t0, &mut r, 0.0, true))
            .collect();
        for a in &ids {
            pool.release(a.id(), t0 + SimDuration::from_millis(10));
        }
        assert_eq!(pool.evictions, 0);
        pool.advance(t0 + SimDuration::from_secs(390), &mut r);
        assert_eq!(pool.evictions, 4, "one half-life evicts half of 8");
        pool.advance(t0 + SimDuration::from_secs(770), &mut r);
        assert_eq!(pool.evictions, 6);
        pool.evict_all();
        assert_eq!(
            pool.evictions, 6,
            "evict_all is a config reset, not eviction"
        );
    }

    #[test]
    fn idle_count_tracks_state() {
        let mut pool = aws_pool();
        let mut r = rng();
        let a = pool.acquire(SimTime::ZERO, &mut r, 0.0, true);
        assert_eq!(pool.idle_count(), 0);
        pool.release(a.id(), SimTime::ZERO);
        assert_eq!(pool.idle_count(), 1);
    }
}

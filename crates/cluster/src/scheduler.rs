//! Placement policies: which host serves the next invocation.

use sebs_sim::rng::{Rng, StreamRng};

/// What a scheduler sees about one candidate host. Views are built in
/// ascending host-id order from hosts that are alive and have admission
/// capacity left, so every policy decides on the same canonical slate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostView {
    /// The host's index in the cluster.
    pub id: u32,
    /// Invocations currently admitted (running + queued).
    pub inflight: usize,
    /// Invocations actually holding a CPU right now.
    pub running: usize,
    /// CPU slots on the host.
    pub cpus: u32,
    /// Idle warm containers this host holds for the candidate function
    /// (0 unless the scheduler [reads warm counts]).
    ///
    /// [reads warm counts]: Scheduler::reads_warm_counts
    pub warm_for_function: usize,
}

/// A placement policy. `pick` receives a non-empty candidate slate and
/// must return one of the candidate ids.
///
/// Determinism contract: the cluster resolves single-candidate slates
/// itself, so `pick` only runs — and may only draw from `rng` — when a
/// real choice exists. Policies that never draw (e.g. [`LeastLoaded`])
/// keep the stream untouched regardless.
pub trait Scheduler {
    /// Stable label for exports and sweep axes.
    fn label(&self) -> String;

    /// Chooses a host from the slate.
    fn pick(&mut self, candidates: &[HostView], rng: &mut StreamRng) -> u32;

    /// Whether `pick` reads [`HostView::warm_for_function`]. Counting a
    /// host's warm containers scans its pool, so the cluster fills the
    /// field only for policies that say yes and leaves it 0 otherwise.
    fn reads_warm_counts(&self) -> bool {
        false
    }
}

/// Sends every invocation to the least-loaded host (fewest in-flight
/// invocations, ties to the lowest id). Draws nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

fn least_loaded_of(candidates: &[HostView]) -> u32 {
    let mut best = candidates[0];
    for c in &candidates[1..] {
        if (c.inflight, c.id) < (best.inflight, best.id) {
            best = *c;
        }
    }
    best.id
}

impl Scheduler for LeastLoaded {
    fn label(&self) -> String {
        "least-loaded".to_string()
    }

    fn pick(&mut self, candidates: &[HostView], _rng: &mut StreamRng) -> u32 {
        least_loaded_of(candidates)
    }
}

/// Power-of-k-choices: samples `k` candidates uniformly (with
/// replacement) and takes the least loaded of the sample. Draws exactly
/// `k` values per decision.
#[derive(Debug, Clone, Copy)]
pub struct RandomK {
    /// Sample size (`k = 2` is the classic power-of-two-choices).
    pub k: u32,
}

impl Scheduler for RandomK {
    fn label(&self) -> String {
        format!("random-{}", self.k)
    }

    fn pick(&mut self, candidates: &[HostView], rng: &mut StreamRng) -> u32 {
        let mut sample: Vec<HostView> = Vec::with_capacity(self.k.max(1) as usize);
        for _ in 0..self.k.max(1) {
            let i = rng.gen_range(0..candidates.len());
            sample.push(candidates[i]);
        }
        least_loaded_of(&sample)
    }
}

/// Hermes-style locality: prefer the host holding the most idle warm
/// containers for this function (ties to the lowest id); with no warm
/// candidates, pack onto the busiest host that still has a free CPU so
/// idle hosts can drain and be reclaimed; fall back to least-loaded when
/// every candidate's CPUs are saturated. Draws nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Locality;

impl Scheduler for Locality {
    fn label(&self) -> String {
        "locality".to_string()
    }

    fn reads_warm_counts(&self) -> bool {
        true
    }

    fn pick(&mut self, candidates: &[HostView], _rng: &mut StreamRng) -> u32 {
        if let Some(warm) = candidates
            .iter()
            .filter(|c| c.warm_for_function > 0)
            .max_by_key(|c| (c.warm_for_function, std::cmp::Reverse(c.id)))
        {
            return warm.id;
        }
        if let Some(pack) = candidates
            .iter()
            .filter(|c| c.running < c.cpus as usize)
            .max_by_key(|c| (c.inflight, std::cmp::Reverse(c.id)))
        {
            return pack.id;
        }
        least_loaded_of(candidates)
    }
}

/// A parsed scheduler choice — the sweep axis of the cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`RandomK`] with the given `k`.
    RandomK(u32),
    /// [`Locality`].
    Locality,
}

impl SchedulerKind {
    /// Parses a label: `least-loaded`, `random-<k>` or `locality`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<SchedulerKind, String> {
        let s = s.trim();
        if s == "least-loaded" {
            return Ok(SchedulerKind::LeastLoaded);
        }
        if s == "locality" {
            return Ok(SchedulerKind::Locality);
        }
        if let Some(k) = s.strip_prefix("random-") {
            let k: u32 = k
                .parse()
                .map_err(|e| format!("bad random-k sample size `{k}`: {e}"))?;
            if k == 0 {
                return Err("random-k sample size must be >= 1".to_string());
            }
            return Ok(SchedulerKind::RandomK(k));
        }
        Err(format!(
            "unknown scheduler `{s}` (valid: least-loaded, random-<k>, locality)"
        ))
    }

    /// The stable label (round-trips through [`SchedulerKind::parse`]).
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::LeastLoaded => "least-loaded".to_string(),
            SchedulerKind::RandomK(k) => format!("random-{k}"),
            SchedulerKind::Locality => "locality".to_string(),
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::LeastLoaded => Box::new(LeastLoaded),
            SchedulerKind::RandomK(k) => Box::new(RandomK { k: *k }),
            SchedulerKind::Locality => Box::new(Locality),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    fn view(id: u32, inflight: usize, running: usize, warm: usize) -> HostView {
        HostView {
            id,
            inflight,
            running,
            cpus: 4,
            warm_for_function: warm,
        }
    }

    fn rng() -> StreamRng {
        SimRng::new(11).stream("cluster-sched")
    }

    #[test]
    fn least_loaded_breaks_ties_by_id() {
        let mut s = LeastLoaded;
        let mut r = rng();
        let pristine = r.clone();
        let slate = [view(0, 3, 3, 0), view(1, 1, 1, 0), view(2, 1, 1, 5)];
        assert_eq!(s.pick(&slate, &mut r), 1);
        assert_eq!(r, pristine, "least-loaded must not draw");
    }

    #[test]
    fn random_k_draws_exactly_k_and_picks_within_sample() {
        let mut s = RandomK { k: 2 };
        let mut r = rng();
        let slate: Vec<HostView> = (0..8).map(|i| view(i, i as usize, 0, 0)).collect();
        let picked = s.pick(&slate, &mut r);
        assert!(slate.iter().any(|c| c.id == picked));
        // Same stream state → same pick: the decision is a pure function
        // of (slate, stream position).
        let mut r2 = rng();
        assert_eq!(s.pick(&slate, &mut r2), picked);
    }

    #[test]
    fn locality_prefers_warm_then_packs() {
        let mut s = Locality;
        let mut r = rng();
        let pristine = r.clone();
        // Host 2 holds warm containers → wins despite load.
        assert_eq!(
            s.pick(
                &[view(0, 0, 0, 0), view(2, 3, 3, 2), view(3, 1, 1, 1)],
                &mut r
            ),
            2
        );
        // No warm candidates → pack the busiest host with a free CPU.
        assert_eq!(
            s.pick(
                &[view(0, 1, 1, 0), view(1, 5, 4, 0), view(2, 2, 2, 0)],
                &mut r
            ),
            2,
            "host 1 is CPU-saturated, host 2 is the busiest with room"
        );
        // Everyone saturated → least loaded.
        assert_eq!(s.pick(&[view(0, 6, 4, 0), view(1, 5, 4, 0)], &mut r), 1);
        assert_eq!(r, pristine, "locality must not draw");
    }

    #[test]
    fn only_locality_reads_warm_counts() {
        for kind in [
            SchedulerKind::LeastLoaded,
            SchedulerKind::RandomK(2),
            SchedulerKind::Locality,
        ] {
            assert_eq!(
                kind.build().reads_warm_counts(),
                kind == SchedulerKind::Locality,
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for label in ["least-loaded", "random-2", "random-3", "locality"] {
            let kind = SchedulerKind::parse(label).unwrap();
            assert_eq!(kind.label(), label);
            assert_eq!(kind.build().label(), label);
        }
        assert!(SchedulerKind::parse("random-0").is_err());
        let err = SchedulerKind::parse("frobnicate").unwrap_err();
        assert!(err.contains("least-loaded"), "{err}");
    }
}

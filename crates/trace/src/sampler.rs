//! Deterministic trace sampling for fleet-scale replays.
//!
//! Full span collection materializes one [`InvocationTrace`] tree per
//! invocation — exactly what a 10⁶-invocation fleet replay cannot afford.
//! [`TraceSampler`] bounds the kept set while preserving the traces an
//! investigation actually wants:
//!
//! * a **per-function seeded reservoir** — every function keeps a uniform
//!   random sample of its own invocations (classic Algorithm R), so even
//!   deep-tail functions surface exemplars;
//! * the **slowest-K** invocations fleet-wide — the tail the percentile
//!   sketch summarizes numerically, kept here as full span trees;
//! * the first **K error** exemplars — one concrete trace per failure
//!   investigation, never evicted by the reservoir.
//!
//! Every keep decision depends only on `(function, root duration, seq,
//! failed)`, so callers need not build a trace to offer it:
//! [`TraceSampler::admit`] decides from those coordinates and
//! [`TraceSampler::store`] files the trace built afterwards, which lets a
//! platform build span trees for the few admitted invocations only.
//!
//! Determinism contract: the sampler draws from its **own** RNG streams
//! (`trace-reservoir`, salted per function name), never from a
//! result-affecting stream — so toggling sampling on/off or changing the
//! reservoir size is bit-invisible to simulation results. Each platform
//! (= experiment cell) owns its sampler and feeds it in invocation order,
//! which is itself deterministic, so the kept set is byte-identical for
//! every `--jobs` value. Tie-breaks use `(duration nanos, seq)` integer
//! ordering — no float comparisons.

use std::collections::BTreeMap;

use sebs_sim::{Rng, SimDuration, SimRng, StreamRng};

use crate::sink::InvocationTrace;

/// Sampling knobs. The defaults bound a fleet cell to roughly
/// `4·functions + 32` kept traces regardless of invocation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerSpec {
    /// Reservoir slots per function (uniform sample of its invocations).
    pub reservoir_per_fn: usize,
    /// Slowest invocations kept fleet-wide (by root-span duration).
    pub slowest_k: usize,
    /// Error exemplars kept (first-come by sequence number).
    pub error_k: usize,
}

impl SamplerSpec {
    /// The fleet-scale default: 4 reservoir slots per function, the 16
    /// slowest invocations and 16 error exemplars per cell.
    pub fn fleet_default() -> SamplerSpec {
        SamplerSpec {
            reservoir_per_fn: 4,
            slowest_k: 16,
            error_k: 16,
        }
    }

    /// The hard ceiling on traces this spec can keep for `functions`
    /// distinct function names.
    pub fn max_kept(&self, functions: usize) -> usize {
        self.reservoir_per_fn * functions + self.slowest_k + self.error_k
    }
}

/// One function's seeded reservoir (Algorithm R).
#[derive(Debug)]
struct FnReservoir {
    rng: StreamRng,
    seen: u64,
    slots: Vec<InvocationTrace>,
}

/// Where an admitted trace will be kept, decided by
/// [`TraceSampler::admit`] before the trace exists and carried out by
/// [`TraceSampler::store`].
#[must_use = "an admitted trace must be stored before the next admit"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    seq: u64,
    error: bool,
    slowest: bool,
    reservoir: Option<usize>,
}

/// Bounded deterministic trace keeper. See the module docs for the
/// contract; [`TraceSampler::drain`] returns the kept traces deduplicated
/// and in sequence order.
///
/// Keeping is split in two so that callers pay for a span tree only when
/// it is kept: [`TraceSampler::admit`] takes the decision from the
/// coordinates alone — function, root duration, sequence number, outcome —
/// and [`TraceSampler::store`] files the trace built afterwards.
/// [`TraceSampler::offer`] is the two steps back to back.
#[derive(Debug)]
pub struct TraceSampler {
    spec: SamplerSpec,
    root: SimRng,
    reservoirs: BTreeMap<String, FnReservoir>,
    /// Slowest-K, kept sorted ascending by `(duration nanos, seq)`; the
    /// head is the first to be evicted.
    slowest: Vec<(u64, u64, InvocationTrace)>,
    errors: Vec<InvocationTrace>,
    seen: u64,
    errors_seen: u64,
}

impl TraceSampler {
    /// A sampler rooted at `seed`. The seed is typically the owning
    /// platform's seed; all draws come from dedicated `trace-reservoir`
    /// streams derived from it, so the sampler shares no randomness with
    /// the simulation.
    pub fn new(spec: SamplerSpec, seed: u64) -> TraceSampler {
        TraceSampler {
            spec,
            root: SimRng::new(seed),
            reservoirs: BTreeMap::new(),
            slowest: Vec::with_capacity(spec.slowest_k),
            errors: Vec::with_capacity(spec.error_k),
            seen: 0,
            errors_seen: 0,
        }
    }

    /// The active knobs.
    pub fn spec(&self) -> SamplerSpec {
        self.spec
    }

    /// Traces offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Error traces offered so far.
    pub fn errors_seen(&self) -> u64 {
        self.errors_seen
    }

    /// Traces currently held across all categories (before dedup).
    pub fn kept(&self) -> usize {
        self.reservoirs
            .values()
            .map(|r| r.slots.len())
            .sum::<usize>()
            + self.slowest.len()
            + self.errors.len()
    }

    /// Offers one trace; the sampler decides what to keep. `failed`
    /// marks error exemplars (the caller knows the outcome — the sampler
    /// does not parse span args).
    pub fn offer(&mut self, trace: InvocationTrace, failed: bool) {
        let duration = trace.root.duration;
        if let Some(admission) = self.admit(&trace.benchmark, duration, trace.seq, failed) {
            self.store(admission, trace);
        }
    }

    /// Decides whether the trace of invocation `seq` of `benchmark`, with
    /// root-span duration `duration`, is kept — before it is built. Counts
    /// the offer and draws the reservoir RNG exactly as a full offer does;
    /// `None` means the trace would be discarded. An admission must be
    /// passed to [`TraceSampler::store`] before the next `admit`.
    pub fn admit(
        &mut self,
        benchmark: &str,
        duration: SimDuration,
        seq: u64,
        failed: bool,
    ) -> Option<Admission> {
        self.seen += 1;
        let mut error = false;
        if failed {
            self.errors_seen += 1;
            error = self.errors.len() < self.spec.error_k;
        }
        // The slowest-K head is the current minimum; only a strictly
        // larger `(duration, seq)` displaces it.
        let slowest = self.spec.slowest_k > 0
            && (self.slowest.len() < self.spec.slowest_k || {
                let (d, s, _) = &self.slowest[0];
                (duration.as_nanos(), seq) > (*d, *s)
            });
        let reservoir = self.admit_reservoir(benchmark);
        (error || slowest || reservoir.is_some()).then_some(Admission {
            seq,
            error,
            slowest,
            reservoir,
        })
    }

    /// Feeds the per-function reservoir (Algorithm R): the first
    /// `reservoir_per_fn` invocations of a function fill the slots; the
    /// `n`-th (n > k) replaces a uniform slot with probability `k / n`.
    /// Returns the slot the invocation takes, if any.
    fn admit_reservoir(&mut self, benchmark: &str) -> Option<usize> {
        let k = self.spec.reservoir_per_fn;
        if k == 0 {
            return None;
        }
        if !self.reservoirs.contains_key(benchmark) {
            let salt = fnv1a(benchmark.as_bytes());
            self.reservoirs.insert(
                benchmark.to_string(),
                FnReservoir {
                    rng: self.root.stream_indexed("trace-reservoir", salt),
                    seen: 0,
                    slots: Vec::with_capacity(k),
                },
            );
        }
        let res = self.reservoirs.get_mut(benchmark)?;
        res.seen += 1;
        if res.slots.len() < k {
            return Some(res.slots.len());
        }
        let j = res.rng.gen_range(0..res.seen) as usize;
        (j < k).then_some(j)
    }

    /// Files an admitted trace where [`TraceSampler::admit`] decided:
    /// among the error exemplars, into the slowest-K (evicting the head
    /// when full) and into its function's reservoir slot.
    pub fn store(&mut self, admission: Admission, trace: InvocationTrace) {
        debug_assert_eq!(admission.seq, trace.seq, "store follows its own admit");
        if admission.error {
            self.errors.push(trace.clone());
        }
        if admission.slowest {
            if self.slowest.len() >= self.spec.slowest_k {
                self.slowest.remove(0);
            }
            let key = (trace.root.duration.as_nanos(), trace.seq);
            let at = self.slowest.partition_point(|&(d, s, _)| (d, s) < key);
            self.slowest.insert(at, (key.0, key.1, trace.clone()));
        }
        if let Some(slot) = admission.reservoir {
            if let Some(res) = self.reservoirs.get_mut(&trace.benchmark) {
                if slot < res.slots.len() {
                    res.slots[slot] = trace;
                } else {
                    res.slots.push(trace);
                }
            }
        }
    }

    /// Takes the kept traces, deduplicated by sequence number and sorted
    /// ascending by `seq` — the canonical per-platform order. Reservoir
    /// counters and RNG streams carry on, so continuing to offer after a
    /// drain stays deterministic.
    pub fn drain(&mut self) -> Vec<InvocationTrace> {
        let mut by_seq: BTreeMap<u64, InvocationTrace> = BTreeMap::new();
        for t in self.errors.drain(..) {
            by_seq.insert(t.seq, t);
        }
        for (_, _, t) in self.slowest.drain(..) {
            by_seq.insert(t.seq, t);
        }
        for r in self.reservoirs.values_mut() {
            for t in r.slots.drain(..) {
                by_seq.insert(t.seq, t);
            }
        }
        by_seq.into_values().collect()
    }
}

/// FNV-1a over a function name — the per-function stream salt (stable
/// across process, platform and fleet size; same constants as the fleet
/// partitioning hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceSpan;
    use sebs_sim::SimTime;

    fn trace(benchmark: &str, seq: u64, millis: u64) -> InvocationTrace {
        InvocationTrace {
            provider: "aws".into(),
            benchmark: benchmark.into(),
            memory_mb: 512,
            cell: None,
            seq,
            root: TraceSpan::new(
                "invocation",
                SimTime::ZERO,
                SimDuration::from_millis(millis),
            ),
        }
    }

    #[test]
    fn keeps_at_most_the_spec_bound() {
        let spec = SamplerSpec {
            reservoir_per_fn: 2,
            slowest_k: 3,
            error_k: 2,
        };
        let mut s = TraceSampler::new(spec, 42);
        for i in 0..10_000u64 {
            let name = ["alpha", "beta", "gamma"][(i % 3) as usize];
            s.offer(trace(name, i, i % 250), i % 97 == 0);
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.kept() <= spec.max_kept(3), "kept {} traces", s.kept());
        let drained = s.drain();
        assert!(!drained.is_empty());
        assert!(drained.len() <= spec.max_kept(3));
        let seqs: Vec<u64> = drained.iter().map(|t| t.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "drain is seq-sorted and deduplicated");
    }

    #[test]
    fn slowest_k_keeps_the_actual_tail() {
        let mut s = TraceSampler::new(
            SamplerSpec {
                reservoir_per_fn: 0,
                slowest_k: 3,
                error_k: 0,
            },
            1,
        );
        // Durations 0..100 ms in a scrambled order.
        for (i, ms) in [40u64, 7, 99, 55, 3, 98, 97, 12].iter().enumerate() {
            s.offer(trace("fn", i as u64, *ms), false);
        }
        let kept: Vec<u64> = s
            .drain()
            .iter()
            .map(|t| t.root.duration.as_millis())
            .collect();
        assert_eq!(kept, vec![99, 98, 97], "seq order of the three slowest");
    }

    #[test]
    fn error_exemplars_are_always_kept() {
        let mut s = TraceSampler::new(SamplerSpec::fleet_default(), 5);
        for i in 0..5000u64 {
            s.offer(trace("fn", i, 10), i == 4321);
        }
        assert_eq!(s.errors_seen(), 1);
        let drained = s.drain();
        assert!(
            drained.iter().any(|t| t.seq == 4321),
            "the lone error survives 5000 competitors"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = TraceSampler::new(SamplerSpec::fleet_default(), seed);
            for i in 0..3000u64 {
                let name = ["a", "b"][(i % 2) as usize];
                s.offer(trace(name, i, (i * 37) % 500), false);
            }
            s.drain().iter().map(|t| t.seq).collect::<Vec<u64>>()
        };
        assert_eq!(run(9), run(9), "same seed, same kept set");
        assert_ne!(run(9), run(10), "different seed, different reservoir");
    }

    #[test]
    fn reservoir_covers_tail_functions() {
        // One hot function with 10k invocations and one that ran twice:
        // the tail function must still have exemplars.
        let mut s = TraceSampler::new(SamplerSpec::fleet_default(), 3);
        for i in 0..10_000u64 {
            s.offer(trace("hot", i, 10), false);
        }
        s.offer(trace("tail", 10_000, 10), false);
        s.offer(trace("tail", 10_001, 10), false);
        let drained = s.drain();
        let tail = drained.iter().filter(|t| t.benchmark == "tail").count();
        assert_eq!(tail, 2, "both tail invocations kept");
    }

    /// The pre-admission sampler, kept as the reference: every trace is
    /// built and offered whole, and each category keeps its own clone.
    struct OfferEverything {
        spec: SamplerSpec,
        root: SimRng,
        reservoirs: BTreeMap<String, (StreamRng, u64, Vec<InvocationTrace>)>,
        slowest: Vec<(u64, u64, InvocationTrace)>,
        errors: Vec<InvocationTrace>,
    }

    impl OfferEverything {
        fn new(spec: SamplerSpec, seed: u64) -> OfferEverything {
            OfferEverything {
                spec,
                root: SimRng::new(seed),
                reservoirs: BTreeMap::new(),
                slowest: Vec::new(),
                errors: Vec::new(),
            }
        }

        fn offer(&mut self, trace: InvocationTrace, failed: bool) {
            if failed && self.errors.len() < self.spec.error_k {
                self.errors.push(trace.clone());
            }
            let key = (trace.root.duration.as_nanos(), trace.seq);
            if self.spec.slowest_k > 0 {
                let full = self.slowest.len() >= self.spec.slowest_k;
                if !full || key > (self.slowest[0].0, self.slowest[0].1) {
                    if full {
                        self.slowest.remove(0);
                    }
                    let at = self.slowest.partition_point(|&(d, s, _)| (d, s) < key);
                    self.slowest.insert(at, (key.0, key.1, trace.clone()));
                }
            }
            let k = self.spec.reservoir_per_fn;
            if k == 0 {
                return;
            }
            let root = &self.root;
            let (rng, seen, slots) = self
                .reservoirs
                .entry(trace.benchmark.clone())
                .or_insert_with(|| {
                    let salt = fnv1a(trace.benchmark.as_bytes());
                    (root.stream_indexed("trace-reservoir", salt), 0, Vec::new())
                });
            *seen += 1;
            if slots.len() < k {
                slots.push(trace);
            } else {
                let j = rng.gen_range(0..*seen) as usize;
                if j < k {
                    slots[j] = trace;
                }
            }
        }

        fn drain(&mut self) -> Vec<InvocationTrace> {
            let mut by_seq = BTreeMap::new();
            let reservoirs = self.reservoirs.values_mut().flat_map(|r| r.2.drain(..));
            let slowest = self.slowest.drain(..).map(|(_, _, t)| t);
            for t in self.errors.drain(..).chain(slowest).chain(reservoirs) {
                by_seq.insert(t.seq, t);
            }
            by_seq.into_values().collect()
        }
    }

    /// A trace with a small span tree and formatted args, so that the
    /// byte comparison covers more than the root.
    fn built(benchmark: &str, seq: u64, micros: u64, failed: bool) -> InvocationTrace {
        let total = SimDuration::from_micros(micros);
        let mut root = TraceSpan::new("invocation", SimTime::ZERO, total)
            .with_arg("benchmark", benchmark)
            .with_arg("outcome", if failed { "function-error" } else { "success" });
        root.push_child(TraceSpan::new("execute", SimTime::ZERO, total / 2));
        root.push_child(
            TraceSpan::new(
                "billing.finalize",
                SimTime::ZERO + total / 2,
                total - total / 2,
            )
            .with_arg("seq", seq.to_string()),
        );
        InvocationTrace {
            provider: "aws".into(),
            benchmark: benchmark.into(),
            memory_mb: 256,
            cell: None,
            seq,
            root,
        }
    }

    #[test]
    fn admit_then_build_keeps_exactly_what_offering_everything_keeps() {
        let specs = [
            SamplerSpec::fleet_default(),
            SamplerSpec {
                reservoir_per_fn: 1,
                slowest_k: 3,
                error_k: 2,
            },
            SamplerSpec {
                reservoir_per_fn: 0,
                slowest_k: 5,
                error_k: 0,
            },
            SamplerSpec {
                reservoir_per_fn: 3,
                slowest_k: 0,
                error_k: 4,
            },
        ];
        for stream in 0..48u64 {
            let spec = specs[(stream % specs.len() as u64) as usize];
            let mut draw = SimRng::new(stream).stream("sampler-property");
            let functions = draw.gen_range(1..40u64) as usize;
            let names: Vec<String> = (0..functions).map(|f| format!("fn-{f}")).collect();
            let mut reference = OfferEverything::new(spec, stream);
            let mut sampler = TraceSampler::new(spec, stream);
            let (mut built_count, mut offered) = (0u64, 0u64);
            for seq in 0..draw.gen_range(200..3000u64) {
                // Zipf-ish popularity, a handful of durations (so ties on
                // the slowest-K key are common) and occasional errors.
                let f =
                    (draw.gen_range(0..functions as u64) * draw.gen_range(0..4u64) / 3) as usize;
                let micros = 1_000 * draw.gen_range(1..12u64);
                let failed = draw.gen_range(0..20u64) == 0;
                let name = &names[f.min(functions - 1)];
                reference.offer(built(name, seq, micros, failed), failed);
                offered += 1;
                let duration = SimDuration::from_micros(micros);
                if let Some(admission) = sampler.admit(name, duration, seq, failed) {
                    sampler.store(admission, built(name, seq, micros, failed));
                    built_count += 1;
                }
                assert!(sampler.kept() <= spec.max_kept(functions));
                if draw.gen_range(0..500u64) == 0 {
                    assert_eq!(sampler.drain(), reference.drain(), "mid-stream drain");
                }
            }
            let (got, want) = (sampler.drain(), reference.drain());
            let seqs = |v: &[InvocationTrace]| v.iter().map(|t| t.seq).collect::<Vec<_>>();
            assert_eq!(seqs(&got), seqs(&want), "stream {stream}: kept seq set");
            let bytes = |v: Vec<InvocationTrace>| {
                let mut sink = crate::TraceSink::new();
                sink.extend(v);
                crate::chrome_trace_json(&sink)
            };
            assert_eq!(bytes(got), bytes(want), "stream {stream}: kept bytes");
            assert!(built_count < offered, "admission skips discarded trees");
        }
    }

    #[test]
    fn draining_twice_is_safe_and_continuation_stays_deterministic() {
        let offer_all = |s: &mut TraceSampler, base: u64| {
            for i in 0..500u64 {
                s.offer(trace("fn", base + i, (i * 13) % 300), false);
            }
        };
        let mut a = TraceSampler::new(SamplerSpec::fleet_default(), 8);
        offer_all(&mut a, 0);
        let first = a.drain();
        assert!(a.drain().is_empty(), "second drain is empty");
        offer_all(&mut a, 1000);
        let second = a.drain();

        let mut b = TraceSampler::new(SamplerSpec::fleet_default(), 8);
        offer_all(&mut b, 0);
        let b_first = b.drain();
        offer_all(&mut b, 1000);
        assert_eq!(first, b_first);
        assert_eq!(second, b.drain(), "post-drain offers stay deterministic");
    }
}

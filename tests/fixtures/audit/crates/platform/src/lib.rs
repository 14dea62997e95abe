//! The fixture's platform crate: `invoke_one` is both a taint and a
//! hot-path entry point; the remaining violations live in functions no
//! entry point reaches, so each rule family fires exactly once.

/// VIOLATION hot-path-allocation: allocates inside the hot-path entry point.
pub fn invoke_one(n: usize) -> usize {
    let mut batch: Vec<usize> = Vec::new();
    batch.push(n);
    batch.len()
}

/// VIOLATION ambient-randomness (lexical): OS-seeded randomness.
/// Unreachable, so determinism-taint stays quiet.
pub fn reseed() -> u64 {
    let mut r = thread_rng();
    r.next_u64()
}

/// VIOLATION hash-iteration (lexical): hash-order iteration in a
/// deterministic-core crate. Unreachable, so determinism-taint stays quiet.
pub fn index_len() -> usize {
    let m: std::collections::HashMap<u32, u32> = Default::default();
    m.len()
}

/// VIOLATION panic-hygiene (lexical): an unjustified unwrap in library code.
pub fn boom(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// VIOLATION failure-probability (lexical): an ad-hoc failure draw against a
/// `*_rate` knob outside the fault injector.
pub fn draw(rng: &mut Dice, crash_rate: f64) -> bool {
    rng.gen::<f64>() < crash_rate
}

/// VIOLATION float-total-order: `partial_cmp` is order-unstable under NaN.
pub fn rank(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// VIOLATION rng-stream-discipline: the same literal salt twice collapses
/// two supposedly independent child streams into one.
pub fn split_streams(rng: &Dice) -> (Dice, Dice) {
    let a = rng.child(7);
    let b = rng.child(7);
    (a, b)
}

pub struct Dice;

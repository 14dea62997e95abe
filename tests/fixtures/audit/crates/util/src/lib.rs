//! A helper crate outside the deterministic core. The line-lexical
//! hash-iteration rule does not apply here — which is exactly the
//! laundering hole the determinism-taint rule exists to close.

/// VIOLATION determinism-taint (the sink): hash-order iteration. Lexically
/// legal in this non-core crate, but `fixture_sim::run_fleet` reaches it,
/// so the taint rule must report the two-hop cross-crate chain.
pub fn tick(seed: u64) -> u64 {
    let mut m = std::collections::HashMap::new();
    m.insert(seed, seed ^ 1);
    m.values().sum()
}

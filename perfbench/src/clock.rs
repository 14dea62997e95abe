//! The benchmark's one reader of the host clock. Measuring host time is
//! the benchmark's purpose; keeping every read behind this module keeps
//! them visible to the repository's determinism audit.

// audit:allow(instant-usage): the benchmark measures host time
pub use std::time::Instant;

/// The host clock now.
// audit:allow(wall-clock): the benchmark measures host time
pub fn now() -> Instant {
    Instant::now()
}

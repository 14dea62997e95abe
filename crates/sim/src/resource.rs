//! Resource-contention primitives.
//!
//! The paper attributes several observed effects to *shared* resources:
//! network bandwidth shared between co-located function instances degrades
//! I/O-heavy benchmarks (§3.2 "I/O performance", citing up to 20× memory
//! throughput loss under co-location). This module provides the
//! processor-sharing primitive the network model uses for that effect:
//! [`FairShare`], where `n` concurrent flows each receive `capacity / n`.

use crate::time::SimDuration;

/// A processor-sharing resource with a fixed total capacity (e.g. bytes/s of
/// network bandwidth on a worker server, or CPU cycles/s on a host).
///
/// The model is intentionally simple — the *average* share during a
/// transfer is what matters at benchmark granularity: a flow that runs while
/// `n` flows are active proceeds at `capacity / n`.
///
/// # Example
///
/// ```
/// use sebs_sim::resource::FairShare;
///
/// let mut link = FairShare::new(100.0); // 100 MB/s
/// link.acquire();
/// assert_eq!(link.rate_per_flow(), 100.0);
/// link.acquire();
/// assert_eq!(link.rate_per_flow(), 50.0);
/// let t = link.service_time_secs(25.0); // 25 MB at 50 MB/s
/// assert_eq!(t, 0.5);
/// link.release();
/// link.release();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FairShare {
    capacity: f64,
    active: usize,
}

impl FairShare {
    /// Creates a resource with the given total capacity (units/second).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        FairShare {
            capacity,
            active: 0,
        }
    }

    /// Total capacity in units/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of currently active flows.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Registers a new active flow.
    pub fn acquire(&mut self) {
        self.active += 1;
    }

    /// Unregisters a flow.
    ///
    /// # Panics
    ///
    /// Panics if no flow is active (release without acquire).
    pub fn release(&mut self) {
        assert!(self.active > 0, "release() without matching acquire()");
        self.active -= 1;
    }

    /// The rate currently available to each flow, `capacity / max(active,1)`.
    pub fn rate_per_flow(&self) -> f64 {
        self.capacity / self.active.max(1) as f64
    }

    /// Seconds to move `work` units at the current per-flow rate.
    pub fn service_time_secs(&self, work: f64) -> f64 {
        work.max(0.0) / self.rate_per_flow()
    }

    /// [`SimDuration`] to move `work` units at the current per-flow rate.
    pub fn service_time(&self, work: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.service_time_secs(work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_divides_capacity() {
        let mut r = FairShare::new(120.0);
        assert_eq!(r.rate_per_flow(), 120.0, "idle resource offers full rate");
        r.acquire();
        r.acquire();
        r.acquire();
        assert_eq!(r.active(), 3);
        assert_eq!(r.rate_per_flow(), 40.0);
        assert_eq!(r.service_time_secs(80.0), 2.0);
        assert_eq!(r.service_time(80.0), SimDuration::from_secs(2));
        r.release();
        assert_eq!(r.rate_per_flow(), 60.0);
    }

    #[test]
    fn fair_share_negative_work_clamped() {
        let r = FairShare::new(10.0);
        assert_eq!(r.service_time_secs(-5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "release() without matching acquire()")]
    fn fair_share_release_underflow_panics() {
        FairShare::new(1.0).release();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fair_share_rejects_zero_capacity() {
        let _ = FairShare::new(0.0);
    }

    mod properties {
        use super::*;
        use crate::rng::{Rng, SimRng};

        const CASES: u64 = 128;

        /// Conservation: total service capacity is preserved under fair
        /// sharing — n flows moving `work` each take exactly n times as
        /// long as one flow moving `work`.
        #[test]
        fn fair_share_conserves_capacity() {
            for case in 0..CASES {
                let mut rng = SimRng::new(0xFA19).child(case).stream("inputs");
                let cap = rng.gen_range(1.0f64..1e9);
                let work = rng.gen_range(0.0f64..1e9);
                let n = rng.gen_range(1usize..64);
                let mut r = FairShare::new(cap);
                let solo = r.service_time_secs(work);
                for _ in 0..n {
                    r.acquire();
                }
                let shared = r.service_time_secs(work);
                assert!(
                    (shared - solo * n as f64).abs() <= solo * n as f64 * 1e-9 + 1e-12,
                    "failing case seed {case}"
                );
                for _ in 0..n {
                    r.release();
                }
            }
        }
    }
}

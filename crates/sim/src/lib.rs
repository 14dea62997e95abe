//! Deterministic simulation substrate for SeBS-RS.
//!
//! This crate provides the pieces the FaaS platform model is built from: a
//! virtual clock ([`SimTime`] / [`SimDuration`]), a deterministic
//! multi-stream random number generator ([`rng::SimRng`]), probability
//! distributions for latency modelling ([`dist::Dist`]), a sim-time phase
//! profiler ([`profile`]) and a resource-contention primitive
//! ([`resource`]). There is no event queue: the platform advances its own
//! clock as it replays arrivals.
//!
//! Everything is deterministic given a seed: running the same experiment
//! twice produces bit-identical results, which is the property the paper's
//! methodology section (reproducibility, confidence intervals within 5% of
//! the median) relies on.
//!
//! # Example
//!
//! ```
//! use sebs_sim::{Dist, SimRng, SimTime};
//!
//! // A cold-start latency: a 150 ms floor plus a log-normal tail.
//! let latency = Dist::shifted_lognormal(150.0, 3.0, 0.5);
//! let root = SimRng::new(42);
//!
//! // Each component draws from its own labelled stream, so the same seed
//! // and label always replay the same samples.
//! let mut a = root.stream("coldstart");
//! let mut b = root.stream("coldstart");
//! let d = latency.sample_millis(&mut a);
//! assert_eq!(d, latency.sample_millis(&mut b));
//! assert!(d.as_millis() >= 150);
//!
//! let done = SimTime::from_secs(1) + d;
//! assert_eq!(done.duration_since(SimTime::from_secs(1)), d);
//! ```

pub mod bytes;
pub mod dist;
pub mod profile;
pub mod resource;
pub mod rng;
pub mod time;

pub use bytes::Bytes;
pub use dist::Dist;
pub use profile::{Phase, PhaseProfiler, PhaseStat};
pub use rng::{Rng, RngCore, SimRng, StreamRng};
pub use time::{SimDuration, SimTime};

//! Suite-wide configuration.

use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::SimDuration;
use sebs_stats::ConfidenceLevel;
use sebs_trace::SamplerSpec;

/// Configuration shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Root seed; every derived platform and experiment stream hangs off
    /// this value, making whole-suite runs reproducible.
    pub seed: u64,
    /// Target number of samples per measurement series (the paper settles
    /// on N = 200 for AWS).
    pub samples: usize,
    /// Concurrent invocations per batch (the paper uses 50 to keep batches
    /// off shared sandboxes).
    pub batch_size: usize,
    /// Confidence level for reported intervals.
    pub confidence: ConfidenceLevel,
    /// Adaptive sampling: grow the sample count until the CI is within
    /// this fraction of the median (the paper's 5%), capped at
    /// `max_samples`.
    pub ci_target_fraction: f64,
    /// Hard cap for adaptive sampling.
    pub max_samples: usize,
    /// Worker threads for grid experiments (see [`crate::runner`]). Only
    /// wall-clock time depends on this — results are byte-identical for
    /// every value. Defaults to 1; the CLI defaults `--jobs` to the host's
    /// available parallelism.
    pub jobs: usize,
    /// Collect per-invocation traces (see the `sebs-trace` crate). Purely
    /// observational: enabling this never changes any result, and the
    /// collected traces are byte-identical for every `jobs` value.
    pub trace: bool,
    /// Collect fleet-wide metrics (see the `sebs-telemetry` crate). Like
    /// tracing, purely observational: results never change and the exports
    /// are byte-identical for every `jobs` value.
    pub metrics: bool,
    /// Sim-time interval between gauge samples when `metrics` is on.
    pub metrics_interval: SimDuration,
    /// Bounded trace sampling for fleet-scale runs: when set, platforms
    /// collect a fixed-size sampled trace set (per-function reservoir,
    /// slowest-K and error exemplars) instead of every invocation.
    /// Implies `trace`. Like plain tracing, the sampler draws only from
    /// its own dedicated RNG streams, so results never change and the
    /// kept set is byte-identical for every `jobs` value.
    pub trace_sampler: Option<SamplerSpec>,
    /// Sim-time phase profiling (pool acquire, storage ops, billing,
    /// runner merges). Purely observational and allocation-free: results
    /// never change with it on or off.
    pub profile: bool,
    /// Fault plan installed on every platform (see `sebs-resilience`).
    /// The default empty plan is bit-identical to a suite built before
    /// fault injection existed.
    pub faults: FaultPlan,
    /// Client-side retry policy driving `Suite::invoke_resilient`. The
    /// default [`RetryPolicy::none`] keeps invocations single-attempt
    /// and draw-free.
    pub retry: RetryPolicy,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            seed: 0x5EB5,
            samples: 200,
            batch_size: 50,
            confidence: ConfidenceLevel::P95,
            ci_target_fraction: 0.05,
            max_samples: 1000,
            jobs: 1,
            trace: false,
            metrics: false,
            metrics_interval: sebs_telemetry::DEFAULT_SAMPLE_INTERVAL,
            trace_sampler: None,
            profile: false,
            faults: FaultPlan::empty(),
            retry: RetryPolicy::none(),
        }
    }
}

impl SuiteConfig {
    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> SuiteConfig {
        self.seed = seed;
        self
    }

    /// Sets the per-series sample target (and lowers the batch size when
    /// it exceeds the sample count — tiny test configurations).
    pub fn with_samples(mut self, samples: usize) -> SuiteConfig {
        self.samples = samples;
        self.batch_size = self.batch_size.min(samples.max(1));
        self
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch: usize) -> SuiteConfig {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the worker-thread count for grid experiments (clamped to at
    /// least 1). Results never depend on this value.
    pub fn with_jobs(mut self, jobs: usize) -> SuiteConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables or disables per-invocation trace collection.
    pub fn with_trace(mut self, trace: bool) -> SuiteConfig {
        self.trace = trace;
        self
    }

    /// Enables or disables fleet-wide metrics collection.
    pub fn with_metrics(mut self, metrics: bool) -> SuiteConfig {
        self.metrics = metrics;
        self
    }

    /// Sets the sim-time gauge-sampling interval (clamped to ≥ 1 ns).
    pub fn with_metrics_interval(mut self, interval: SimDuration) -> SuiteConfig {
        self.metrics_interval = interval.max(SimDuration::from_nanos(1));
        self
    }

    /// Enables bounded trace sampling with the given spec (implies
    /// `trace`).
    pub fn with_trace_sampling(mut self, spec: SamplerSpec) -> SuiteConfig {
        self.trace = true;
        self.trace_sampler = Some(spec);
        self
    }

    /// Enables or disables sim-time phase profiling.
    pub fn with_profile(mut self, profile: bool) -> SuiteConfig {
        self.profile = profile;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> SuiteConfig {
        self.faults = faults;
        self
    }

    /// Sets the client-side retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> SuiteConfig {
        self.retry = retry;
        self
    }

    /// A fast configuration for tests and examples: few samples, small
    /// batches.
    pub fn fast() -> SuiteConfig {
        SuiteConfig::default().with_samples(20).with_batch_size(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_methodology() {
        let c = SuiteConfig::default();
        assert_eq!(c.samples, 200);
        assert_eq!(c.batch_size, 50);
        assert_eq!(c.ci_target_fraction, 0.05);
        assert_eq!(c.confidence, ConfidenceLevel::P95);
    }

    #[test]
    fn builders() {
        let c = SuiteConfig::default().with_seed(9).with_samples(5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.samples, 5);
        assert!(c.batch_size <= 5);
        let f = SuiteConfig::fast();
        assert!(f.samples < 50);
    }

    #[test]
    fn jobs_default_sequential_and_clamp() {
        assert_eq!(SuiteConfig::default().jobs, 1);
        assert_eq!(SuiteConfig::default().with_jobs(8).jobs, 8);
        assert_eq!(SuiteConfig::default().with_jobs(0).jobs, 1);
    }

    #[test]
    fn resilience_defaults_are_no_ops() {
        let c = SuiteConfig::default();
        assert!(c.faults.is_empty());
        assert!(c.retry.is_none());
        let chaotic = c
            .with_faults(FaultPlan::transient(0.05))
            .with_retry(RetryPolicy::backoff(3));
        assert!(!chaotic.faults.is_empty());
        assert_eq!(chaotic.retry.max_attempts, 3);
    }

    #[test]
    fn tracing_defaults_off() {
        assert!(!SuiteConfig::default().trace);
        assert!(SuiteConfig::default().with_trace(true).trace);
    }

    #[test]
    fn observability_knobs_default_off() {
        let c = SuiteConfig::default();
        assert!(c.trace_sampler.is_none());
        assert!(!c.profile);
        let on = c
            .with_trace_sampling(SamplerSpec::fleet_default())
            .with_profile(true);
        assert!(on.trace, "sampling implies tracing");
        assert_eq!(on.trace_sampler, Some(SamplerSpec::fleet_default()));
        assert!(on.profile);
    }

    #[test]
    fn metrics_default_off_with_one_second_sampling() {
        let c = SuiteConfig::default();
        assert!(!c.metrics);
        assert_eq!(c.metrics_interval, SimDuration::from_secs(1));
        let on = c
            .with_metrics(true)
            .with_metrics_interval(SimDuration::from_millis(250));
        assert!(on.metrics);
        assert_eq!(on.metrics_interval, SimDuration::from_millis(250));
        assert_eq!(
            SuiteConfig::default()
                .with_metrics_interval(SimDuration::ZERO)
                .metrics_interval,
            SimDuration::from_nanos(1),
            "zero interval is clamped"
        );
    }
}

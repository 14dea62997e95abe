//! The [`MetricsHub`]: one platform's metric scope plus the sim-clock
//! sampler that turns registered gauges and counters into time series.
//!
//! Sampling is driven entirely by the *simulator* clock: the owner asks
//! [`MetricsHub::next_due`] for the next interval boundary at or below its
//! current time, refreshes whatever gauges need recomputing for that
//! instant, and calls [`MetricsHub::sample_at`]. No wall clock and no RNG
//! stream is ever touched, so enabling a hub cannot change any simulation
//! result — the same invariant the trace layer established.

use sebs_sim::{SimDuration, SimTime};

use crate::registry::{MetricsRegistry, SeriesId};
use crate::sink::MetricsChunk;

/// Default gauge-sampling interval: one sim-second.
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// One sampled value of one series at one sim-time instant: a 16-byte
/// `Copy` record with no heap behind it. The instant and the series key
/// are resolved through the owning chunk's tables
/// ([`MetricsChunk::instant`], [`MetricsChunk::series_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Index of the sample instant in the chunk's `instants` table.
    pub tick: u32,
    /// The sampled series, an index into the chunk's `series` table.
    pub series: SeriesId,
    /// Counter or gauge value at the instant.
    pub value: f64,
}

const _: () = assert!(std::mem::size_of::<MetricPoint>() == 16);

/// A metric registry plus an interval sampler producing sim-time series.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    interval: SimDuration,
    /// Samples taken so far, across drains; the next boundary is
    /// `(ticks + 1) · interval`.
    ticks: u64,
    registry: MetricsRegistry,
    /// Instants sampled since the last drain; `MetricPoint::tick` indexes it.
    instants: Vec<SimTime>,
    points: Vec<MetricPoint>,
}

impl MetricsHub {
    /// A hub sampling every `interval` (clamped to ≥ 1 ns).
    pub fn new(interval: SimDuration) -> MetricsHub {
        MetricsHub {
            interval: interval.max(SimDuration::from_nanos(1)),
            ticks: 0,
            registry: MetricsRegistry::new(),
            instants: Vec::new(),
            points: Vec::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The next unsampled interval boundary, when it is at or before
    /// `upto`. Boundaries start at `interval` (nothing fires at t = 0; the
    /// initial state is all-zero anyway).
    pub fn next_due(&self, upto: SimTime) -> Option<SimTime> {
        let due = SimTime::ZERO + self.interval * (self.ticks + 1);
        (due <= upto).then_some(due)
    }

    /// Snapshots every counter and gauge into the time series at `t` and
    /// advances the sampling cursor. Histograms are final-snapshot-only
    /// (they already aggregate over time) and are not sampled per tick.
    pub fn sample_at(&mut self, t: SimTime) {
        let tick = self.instants.len() as u32;
        self.instants.push(t);
        let values = self.registry.counter_ids().chain(self.registry.gauge_ids());
        self.points
            .extend(values.map(|(series, value)| MetricPoint {
                tick,
                series,
                value,
            }));
        self.ticks += 1;
    }

    /// Interns a counter series and returns its handle. Interning records
    /// nothing: the series appears on its first record.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.registry.counter(name, labels)
    }

    /// Interns a gauge and returns its handle.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.registry.gauge(name, labels)
    }

    /// Interns a latency histogram and returns its handle.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.registry.histogram(name, labels)
    }

    /// Adds to a counter handle.
    pub fn add(&mut self, id: SeriesId, v: f64) {
        self.registry.add(id, v);
    }

    /// Sets a counter or gauge handle.
    pub fn set(&mut self, id: SeriesId, v: f64) {
        self.registry.set(id, v);
    }

    /// Observes a histogram handle in sim-milliseconds.
    pub fn observe(&mut self, id: SeriesId, ms: f64) {
        self.registry.observe(id, ms);
    }

    /// Adds to a monotone counter.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.counter_add(name, labels, v);
    }

    /// Sets a counter maintained by an external monotone source.
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.counter_set(name, labels, v);
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.gauge_set(name, labels, v);
    }

    /// Observes a histogram value in sim-milliseconds.
    pub fn observe_ms(&mut self, name: &str, labels: &[(&str, &str)], ms: f64) {
        self.registry.observe_ms(name, labels, ms);
    }

    /// The current registry (final snapshot values).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sampled time series collected so far.
    pub fn points(&self) -> &[MetricPoint] {
        &self.points
    }

    /// Takes everything collected since the last drain as an exportable
    /// chunk tagged with the owning provider (and no cell — grid drivers
    /// tag cells afterwards). The hub keeps its sampling cursor and its
    /// interned series, so cached handles stay valid and the next sample
    /// lands on the next unsampled boundary.
    pub fn drain(&mut self, provider: &str) -> MetricsChunk {
        let (counters, gauges, histograms) = self.registry.drain_parts();
        MetricsChunk {
            provider: provider.to_string(),
            cell: None,
            counters,
            gauges,
            histograms,
            series: self.registry.keys().to_vec(),
            instants: std::mem::take(&mut self.instants),
            points: std::mem::take(&mut self.points),
        }
    }

    /// Consumes the hub into an exportable chunk; see [`MetricsHub::drain`].
    pub fn into_chunk(mut self, provider: &str) -> MetricsChunk {
        self.drain(provider)
    }
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub::new(DEFAULT_SAMPLE_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_fire_once_per_interval() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(10));
        hub.gauge_set("g", &[], 1.0);
        let upto = SimTime::from_secs(35);
        let mut fired = Vec::new();
        while let Some(t) = hub.next_due(upto) {
            hub.sample_at(t);
            fired.push(t.as_secs_f64());
        }
        assert_eq!(fired, vec![10.0, 20.0, 30.0]);
        assert_eq!(hub.points().len(), 3);
        // Nothing more is due until the clock passes 40 s.
        assert_eq!(hub.next_due(SimTime::from_secs(39)), None);
        assert_eq!(
            hub.next_due(SimTime::from_secs(40)),
            Some(SimTime::from_secs(40))
        );
    }

    #[test]
    fn samples_capture_counters_and_gauges_not_histograms() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(1));
        hub.counter_add("c", &[], 2.0);
        hub.gauge_set("g", &[], 7.0);
        hub.observe_ms("h", &[], 5.0);
        hub.sample_at(SimTime::from_secs(1));
        let names: Vec<&str> = hub
            .points()
            .iter()
            .map(|p| hub.registry().key(p.series).name.as_str())
            .collect();
        assert_eq!(names, vec!["c", "g"], "histograms are snapshot-only");
        assert_eq!(hub.points()[0].value, 2.0);
        assert_eq!(hub.points()[1].value, 7.0);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let hub = MetricsHub::new(SimDuration::ZERO);
        assert!(hub.interval() >= SimDuration::from_nanos(1));
    }

    #[test]
    fn into_chunk_carries_everything() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(1));
        hub.counter_add("c", &[("f", "x")], 1.0);
        hub.gauge_set("g", &[], 3.0);
        hub.observe_ms("h", &[], 9.0);
        hub.sample_at(SimTime::from_secs(1));
        let chunk = hub.into_chunk("aws");
        assert_eq!(chunk.provider, "aws");
        assert_eq!(chunk.cell, None);
        assert_eq!(chunk.counters.len(), 1);
        assert_eq!(chunk.gauges.len(), 1);
        assert_eq!(chunk.histograms.len(), 1);
        assert_eq!(chunk.points.len(), 2);
    }
}

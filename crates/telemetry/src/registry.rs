//! The metric registry: counters, gauges and histograms keyed by
//! `(name, sorted labels)`.
//!
//! A series is interned once into a dense [`SeriesId`]; recording through
//! the id is a `Vec` index, with no key rebuild and no string compare.
//! Interning alone does not make a series exist: it appears (in
//! iteration, sampling and export) on its first record, exactly as if it
//! had been created by that record. Each family keeps its present series
//! sorted by key, so iteration order — and therefore every export — is a
//! pure function of the recorded data, never of interning order.

use std::collections::BTreeMap;

use crate::histogram::SimHistogram;

/// A metric identity: name plus label pairs sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name, e.g. `sebs_starts_total`.
    pub name: String,
    /// Label pairs, sorted by key (then value).
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a key, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// The labels extended with `extra` pairs, re-sorted — exporters use
    /// this to graft `provider`/`cell` coordinates onto a series.
    pub fn labels_with(&self, extra: &[(String, String)]) -> Vec<(String, String)> {
        let mut labels = self.labels.clone();
        labels.extend(extra.iter().cloned());
        labels.sort();
        labels
    }
}

/// A dense handle to one interned series of a [`MetricsRegistry`]: an
/// index into the registry's key table, valid for the registry's whole
/// life (draining resets values, never ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

impl SeriesId {
    /// The position of the series in the id → key table.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The metric family a series belongs to. The same key may be interned
/// in more than one family; each gets its own id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Counter = 0,
    Gauge = 1,
    Histogram = 2,
}

/// The recorded state of one interned series.
#[derive(Debug, Clone)]
enum Slot {
    /// Interned but not recorded (since creation or the last drain).
    Absent,
    Value(f64),
    Hist(SimHistogram),
}

/// The three metric families of one collection scope.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// id → key, family and recorded state.
    keys: Vec<SeriesKey>,
    families: Vec<Family>,
    slots: Vec<Slot>,
    /// key → id, one map per family (indexed by `Family as usize`).
    index: [BTreeMap<SeriesKey, SeriesId>; 3],
    /// Recorded ids of each family, sorted by key.
    present: [Vec<SeriesId>; 3],
    // Reusable lookup key: name-based calls fill it in place (keeping
    // every String's capacity) and only clone it when a series is first
    // interned, so resolving an existing series allocates nothing.
    scratch: SeriesKey,
}

/// Rebuilds `scratch` as the canonical key for `(name, labels)` without
/// allocating (beyond first-use growth of the retained buffers).
fn fill_scratch(scratch: &mut SeriesKey, name: &str, labels: &[(&str, &str)]) {
    scratch.name.clear();
    scratch.name.push_str(name);
    scratch.labels.truncate(labels.len());
    while scratch.labels.len() < labels.len() {
        scratch.labels.push((String::new(), String::new()));
    }
    for ((k, v), slot) in labels.iter().zip(scratch.labels.iter_mut()) {
        slot.0.clear();
        slot.0.push_str(k);
        slot.1.clear();
        slot.1.push_str(v);
    }
    // Unstable sort gives the same canonical order as `SeriesKey::new`:
    // equal pairs are indistinguishable, so stability cannot matter.
    scratch.labels.sort_unstable();
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn resolve(&mut self, family: Family, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        fill_scratch(&mut self.scratch, name, labels);
        let index = &mut self.index[family as usize];
        if let Some(&id) = index.get(&self.scratch) {
            return id;
        }
        let id = SeriesId(self.keys.len() as u32);
        index.insert(self.scratch.clone(), id);
        self.keys.push(self.scratch.clone());
        self.families.push(family);
        self.slots.push(Slot::Absent);
        id
    }

    /// Interns a counter series and returns its handle. The series does
    /// not exist until its first record.
    pub(crate) fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.resolve(Family::Counter, name, labels)
    }

    /// Interns a gauge series (see [`MetricsRegistry::counter`]).
    pub(crate) fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.resolve(Family::Gauge, name, labels)
    }

    /// Interns a latency histogram series (see [`MetricsRegistry::counter`]).
    pub(crate) fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.resolve(Family::Histogram, name, labels)
    }

    /// Marks an absent series as recorded, keeping its family's present
    /// list sorted by key.
    fn make_present(&mut self, id: SeriesId) {
        let keys = &self.keys;
        let present = &mut self.present[self.families[id.index()] as usize];
        let at = present.partition_point(|p| keys[p.index()] < keys[id.index()]);
        present.insert(at, id);
    }

    /// Adds `v` (≥ 0) to a counter handle, creating it at zero.
    pub(crate) fn add(&mut self, id: SeriesId, v: f64) {
        debug_assert!(v >= 0.0, "counters only grow: += {v}");
        debug_assert_eq!(self.families[id.index()], Family::Counter);
        let slot = &mut self.slots[id.index()];
        if let Slot::Value(x) = slot {
            *x += v;
            return;
        }
        *slot = Slot::Value(v);
        self.make_present(id);
    }

    /// Sets a counter or gauge handle to an absolute value.
    pub(crate) fn set(&mut self, id: SeriesId, v: f64) {
        debug_assert_ne!(self.families[id.index()], Family::Histogram);
        let slot = &mut self.slots[id.index()];
        if let Slot::Value(x) = slot {
            *x = v;
            return;
        }
        *slot = Slot::Value(v);
        self.make_present(id);
    }

    /// Records one observation (in milliseconds of sim time) into a
    /// histogram handle with the default latency buckets.
    pub(crate) fn observe(&mut self, id: SeriesId, ms: f64) {
        debug_assert_eq!(self.families[id.index()], Family::Histogram);
        let slot = &mut self.slots[id.index()];
        if let Slot::Hist(h) = slot {
            h.observe(ms);
            return;
        }
        let mut h = SimHistogram::latency_ms();
        h.observe(ms);
        *slot = Slot::Hist(h);
        self.make_present(id);
    }

    /// Adds `v` (≥ 0) to a monotone counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.counter(name, labels);
        self.add(id, v);
    }

    /// Sets a counter to an absolute value — for sources that maintain
    /// their own monotone count (pool statistics, storage statistics).
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.counter(name, labels);
        self.set(id, v);
    }

    /// Sets a gauge to its current value.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.gauge(name, labels);
        self.set(id, v);
    }

    /// Records one observation (in milliseconds of sim time) into a
    /// histogram with the default latency buckets.
    pub fn observe_ms(&mut self, name: &str, labels: &[(&str, &str)], ms: f64) {
        let id = self.histogram(name, labels);
        self.observe(id, ms);
    }

    /// The key of an interned series.
    pub(crate) fn key(&self, id: SeriesId) -> &SeriesKey {
        &self.keys[id.index()]
    }

    /// The id → key table of every interned series.
    pub(crate) fn keys(&self) -> &[SeriesKey] {
        &self.keys
    }

    fn scalar(&self, id: SeriesId) -> f64 {
        match self.slots[id.index()] {
            Slot::Value(v) => v,
            _ => 0.0,
        }
    }

    /// Recorded counters as `(id, value)`, in key order.
    pub(crate) fn counter_ids(&self) -> impl Iterator<Item = (SeriesId, f64)> + '_ {
        self.present[Family::Counter as usize]
            .iter()
            .map(|&id| (id, self.scalar(id)))
    }

    /// Recorded gauges as `(id, value)`, in key order.
    pub(crate) fn gauge_ids(&self) -> impl Iterator<Item = (SeriesId, f64)> + '_ {
        self.present[Family::Gauge as usize]
            .iter()
            .map(|&id| (id, self.scalar(id)))
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.counter_ids().map(|(id, v)| (self.key(id), v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.gauge_ids().map(|(id, v)| (self.key(id), v))
    }

    /// Histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &SimHistogram)> {
        self.present[Family::Histogram as usize]
            .iter()
            .filter_map(|&id| match &self.slots[id.index()] {
                Slot::Hist(h) => Some((self.key(id), h)),
                _ => None,
            })
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.present.iter().all(Vec::is_empty)
    }

    /// Takes the recorded values as sorted family vectors and resets every
    /// series to absent. Interned ids stay valid, so cached handles keep
    /// recording into the next collection period.
    #[allow(clippy::type_complexity)]
    pub(crate) fn drain_parts(
        &mut self,
    ) -> (
        Vec<(SeriesKey, f64)>,
        Vec<(SeriesKey, f64)>,
        Vec<(SeriesKey, SimHistogram)>,
    ) {
        let counters = self.counters().map(|(k, v)| (k.clone(), v)).collect();
        let gauges = self.gauges().map(|(k, v)| (k.clone(), v)).collect();
        let mut histograms = Vec::with_capacity(self.present[Family::Histogram as usize].len());
        for present in &mut self.present {
            for id in present.drain(..) {
                match std::mem::replace(&mut self.slots[id.index()], Slot::Absent) {
                    Slot::Hist(h) => histograms.push((self.keys[id.index()].clone(), h)),
                    Slot::Value(_) | Slot::Absent => {}
                }
            }
        }
        (counters, gauges, histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_labels_canonically() {
        let a = SeriesKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = SeriesKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.labels[0].0, "a");
    }

    #[test]
    fn labels_with_grafts_and_resorts() {
        let k = SeriesKey::new("m", &[("pool", "fn:0")]);
        let full = k.labels_with(&[
            ("cell".to_string(), "3".to_string()),
            ("provider".to_string(), "aws".to_string()),
        ]);
        let keys: Vec<&str> = full.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["cell", "pool", "provider"]);
    }

    #[test]
    fn counters_accumulate_and_set_overrides() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hits", &[], 1.0);
        r.counter_add("hits", &[], 2.0);
        assert_eq!(r.counters().next().map(|(_, v)| v), Some(3.0));
        r.counter_set("hits", &[], 10.0);
        assert_eq!(r.counters().next().map(|(_, v)| v), Some(10.0));
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("warm", &[("pool", "fn:0")], 5.0);
        r.gauge_set("warm", &[("pool", "fn:0")], 3.0);
        assert_eq!(r.gauges().next().map(|(_, v)| v), Some(3.0));
    }

    #[test]
    fn histograms_observe() {
        let mut r = MetricsRegistry::new();
        r.observe_ms("lat", &[], 4.0);
        r.observe_ms("lat", &[], 400.0);
        let (_, h) = r.histograms().next().expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 404.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_key_ordered_not_insertion_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", &[], 1.0);
        r.counter_add("a", &[], 1.0);
        let names: Vec<&str> = r.counters().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert!(!r.is_empty());
    }
}

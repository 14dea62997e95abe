//! Spans at layer boundaries, recorded from the benchmark's own code
//! around calls into each layer's public functions.
//!
//! Two kinds of record:
//!
//! * a [`Span`] (name, start, end, parent) for a boundary crossed a few
//!   times — a generation, a cell, a report render;
//! * a [`Boundary`] aggregate (calls, busy time, optionally every call's
//!   duration for percentiles) for a boundary crossed about once per
//!   simulated invocation.
//!
//! Hot loops time their calls with a [`Lap`]: one clock read per
//! boundary, shared by the call that ends there and the call that starts
//! there, so consecutive laps tile the loop body. The loop's own glue
//! between two calls (a lookup, a counter) falls into the lap of the call
//! that follows it. Tiling keeps the tracing cost to one clock read per
//! call and leaves nothing inside a loop unattributed.

use crate::clock::{self, Instant};
use std::collections::BTreeMap;

/// An aggregated boundary.
#[derive(Debug, Default, Clone)]
pub struct Boundary {
    /// Times the boundary was crossed.
    pub calls: u64,
    /// Host nanoseconds spent inside it.
    pub busy_ns: u64,
    /// Every call's duration in ns, when percentiles are wanted.
    pub samples: Option<Vec<u32>>,
}

impl Boundary {
    /// An aggregate that keeps only the count and busy time.
    pub fn new() -> Boundary {
        Boundary::default()
    }

    /// An aggregate that also keeps each call's duration.
    pub fn with_samples() -> Boundary {
        Boundary {
            samples: Some(Vec::new()),
            ..Boundary::default()
        }
    }

    /// Records one call of `ns` nanoseconds.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
        if let Some(s) = &mut self.samples {
            s.push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Folds another aggregate of the same boundary into this one.
    pub fn merge(&mut self, other: Boundary) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        match (&mut self.samples, other.samples) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs),
            _ => {}
        }
    }

    /// Busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Nearest-rank `p`-th percentile of the kept call durations (ns).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let Some(samples) = &self.samples else {
            return f64::NAN;
        };
        if samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
    }
}

/// A split timer for hot loops; see the module docs.
pub struct Lap {
    last: Instant,
}

impl Lap {
    /// Starts timing now.
    pub fn start() -> Lap {
        Lap { last: clock::now() }
    }

    /// Ends the current lap and starts the next; returns its nanoseconds.
    #[inline]
    pub fn split(&mut self) -> u64 {
        let now = clock::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }

    /// Ends the current lap, charging it to `boundary`.
    #[inline]
    pub fn charge(&mut self, boundary: &mut Boundary) -> u64 {
        let ns = self.split();
        boundary.add(ns);
        ns
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`platform.new`) or a group name (`cell[3]`).
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started.
    pub end_ns: u64,
    /// Whether the span is a layer call (its time is the layer's) rather
    /// than a group of other spans.
    pub layer: bool,
}

/// Collects spans and aggregates; written out when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: BTreeMap<String, Boundary>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: String, layer: bool) {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            layer,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Opens a group span (a cell, the whole replay).
    pub fn group(&mut self, name: impl Into<String>) {
        self.enter(name.into(), false);
    }

    /// Opens a span around one call into a layer.
    pub fn call(&mut self, name: &str) {
        self.enter(name.to_string(), true);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a layer span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.call(name);
        let out = f();
        self.exit();
        out
    }

    /// Folds a hot-loop aggregate into the boundary of that name.
    pub fn aggregate(&mut self, name: &str, boundary: Boundary) {
        self.aggregates
            .entry(name.to_string())
            .or_default()
            .merge(boundary);
    }

    /// The aggregate of a boundary (empty when never crossed).
    pub fn boundary(&self, name: &str) -> Boundary {
        self.aggregates.get(name).cloned().unwrap_or_default()
    }

    /// Host seconds of every layer: layer spans plus aggregates, by name,
    /// with the number of calls.
    pub fn layers(&self) -> BTreeMap<String, (u64, f64)> {
        let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.layer) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        for (name, b) in &self.aggregates {
            let e = out.entry(name.clone()).or_default();
            e.0 += b.calls;
            e.1 += b.busy_s();
        }
        out
    }

    /// Seconds covered by the outermost spans.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Prints every span as `span <id> <parent> <start ms> <end ms> <name>`.
    pub fn print_spans(&self) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            println!(
                "span {i:>4} {parent:>4} {:>12.3} {:>12.3} {}",
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
                s.name
            );
        }
    }
}

//! The traced run's instrumentation: host-time spans around each call the
//! benchmark makes into a layer's public API, a counting [`Recorder`] for
//! the simulator's event streams, and the report digest.

use std::time::Instant;

use serde::Serialize;
use timely_obs::Recorder;

/// One completed span: a named interval of host time.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer call the span wraps, e.g. `sim.run` or `dse.report`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 for set-up and probes).
    pub run: u64,
    /// Calls the span covers (probes time a batch of calls in one span).
    pub calls: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` that covers `calls` calls.
    pub fn span<T>(&mut self, name: &str, calls: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            calls,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of the most recent span named `name`.
    pub fn last_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::seconds)
    }

    /// The most recently opened span.
    pub fn last_mut(&mut self) -> Option<&mut Span> {
        self.spans.last_mut()
    }

    /// Total seconds and calls over every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| (t + s.seconds(), c + s.calls))
    }

    /// Mean seconds per call over every span named `name`.
    pub fn per_call_s(&self, name: &str) -> f64 {
        let (seconds, calls) = self.total(name);
        seconds / calls.max(1) as f64
    }

    /// Median seconds per call over the spans named `name`, one sample per
    /// span.
    pub fn median_per_call_s(&self, name: &str) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() / s.calls.max(1) as f64)
            .collect();
        crate::median(&samples)
    }
}

/// The simulator's event counters, kept from its `Recorder` stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub arrival: u64,
    pub chip_free: u64,
    pub completion: u64,
    pub batch_deadline: u64,
    pub fault_start: u64,
    pub fault_end: u64,
    /// Every `sim.event.*` increment, whatever its key.
    pub events: u64,
    pub issued: u64,
    pub shed: u64,
    pub depth_peak: u64,
}

impl SimCounts {
    /// Sum of the per-type event counters.
    pub fn per_type_sum(&self) -> u64 {
        self.arrival
            + self.chip_free
            + self.completion
            + self.batch_deadline
            + self.fault_start
            + self.fault_end
    }
}

/// A recorder that counts and keeps nothing else. It reports itself
/// disabled, so the engine skips composing histogram keys and latency
/// histograms; counters and gauges are delivered regardless.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    pub counts: SimCounts,
}

impl Recorder for CountingRecorder {
    fn counter_add(&mut self, key: &str, delta: u64) {
        let c = &mut self.counts;
        if key.starts_with("sim.event.") {
            c.events += delta;
        }
        match key {
            "sim.event.arrival" => c.arrival += delta,
            "sim.event.chip_free" => c.chip_free += delta,
            "sim.event.completion" => c.completion += delta,
            "sim.event.batch_deadline" => c.batch_deadline += delta,
            "sim.event.fault_start" => c.fault_start += delta,
            "sim.event.fault_end" => c.fault_end += delta,
            "sim.issued" => c.issued += delta,
            "sim.shed" => c.shed += delta,
            _ => {}
        }
    }

    fn gauge_max(&mut self, key: &str, value: f64) {
        if key == "sim.queue.depth_peak" {
            self.counts.depth_peak = self.counts.depth_peak.max(value as u64);
        }
    }
}

/// FNV-1a over the report's serde encoding: a stable digest of every field.
pub fn digest<T: Serialize>(value: &T) -> u64 {
    serde::json::to_string(value)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

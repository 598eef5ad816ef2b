//! The discrete-event queue core.
//!
//! A simulation run is a loop over a priority queue of timestamped events.
//! Determinism is load-bearing for the whole crate: two runs with the same
//! seed must produce bit-identical reports, so ties in simulated time are
//! broken by a monotonically increasing sequence number (insertion order),
//! never by container internals, and no wall-clock source exists anywhere in
//! the simulator.
//!
//! The queue is a calendar queue (R. Brown, "Calendar queues", CACM 1988):
//! a wheel of uniform-width time buckets plus an overflow list for events
//! beyond the wheel's window. A pop removes the `(time, seq)` minimum of the
//! first non-empty bucket, so bucket layout never leaks into pop order.
//! Pushes and pops are amortized O(1) while a bucket holds O(1) events, and
//! calibration keeps that true:
//!
//! * **Width.** A rebuild sizes the buckets from the events about to be
//!   popped: the width is (median − min) / (n/2) over the n pending times,
//!   so a few far-future events, such as fault windows seeded at fractions
//!   of the horizon, cannot stretch the buckets. Only when the whole span
//!   is at most `MAX_SPAN_PER_SPREAD` times (median − min), that is, when
//!   there are no far outliers, is the width (max − min) / n instead: that
//!   wheel holds every pending event and drains less often.
//! * **Triggers.** A rebuild runs when the population outgrows the wheel,
//!   when the wheel drains while events wait in the overflow list, and when
//!   the bucket about to be scanned holds more than `CROWDED_BUCKET` events
//!   and at least `len()` pops have passed since the last rebuild. The last
//!   condition keeps rebuilds amortized O(1). Every trigger depends only on
//!   how full the queue is, never on the workload.
//!
//! [`EventQueue::work`] reports deterministic work counters: pops, entries
//! scanned and rebuilds. The test suite pins the pop order against a
//! flat-list executable spec (`crates/sim/tests/event_queue.rs`).

use crate::error::SimError;

/// The event queue's backing data structure: the calendar queue is the only
/// one.
///
/// This enum and [`EventQueue::with_kind`] remain only because the
/// repository benchmark's queue probe (`perfbench/src/probes.rs`) builds its
/// queue through them; both go once that probe calls [`EventQueue::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed calendar wheel + overflow list; amortized O(1) per event.
    Calendar,
}

/// Deterministic work counters of one [`EventQueue`]: what its pops cost,
/// independent of the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Events popped.
    pub pops: u64,
    /// Entries the pops' minimum scans compared: each pop scans its whole
    /// bucket (or the overflow list, once the wheel is empty).
    pub scanned: u64,
    /// Wheel rebuilds, each an O(len) redistribution of every pending event.
    pub rebuilds: u64,
}

/// One scheduled event: a payload due at a simulated time.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

/// Whether `a` pops strictly before `b`: earlier time first, insertion
/// order (FIFO) on ties.
fn earlier<E>(a: &Entry<E>, b: &Entry<E>) -> bool {
    a.time
        .total_cmp(&b.time)
        .then_with(|| a.seq.cmp(&b.seq))
        .is_lt()
}

/// Smallest wheel; also the size a fresh calendar starts with.
const MIN_BUCKETS: usize = 16;
/// Largest wheel; beyond this the overflow list absorbs growth until the
/// wheel drains and rebuilding rebases the window.
const MAX_BUCKETS: usize = 1 << 16;
/// A rebuild triggers when the population exceeds this many events per
/// bucket (the classic calendar-queue resize rule).
const GROW_FACTOR: usize = 4;
/// A pop that finds more events than this in its bucket recalibrates the
/// wheel, once at least `len()` pops have passed since the last rebuild.
const CROWDED_BUCKET: usize = 32;
/// A rebuild sizes buckets from the whole span of pending times when that
/// span is at most this multiple of the earliest half's spread, and from
/// the earliest half otherwise.
const MAX_SPAN_PER_SPREAD: f64 = 4.0;

/// A deterministic event queue ordered by `(time, insertion order)`.
///
/// `buckets[i]` holds the events in
/// `[base_s + i*width_s, base_s + (i+1)*width_s)`; events at or beyond the
/// wheel's end wait in `overflow` until a rebuild rebases the window.
/// Buckets are unordered; a pop selects the `(time, seq)` minimum of the
/// first non-empty bucket, so internal `swap_remove` order never leaks into
/// pop order and determinism holds by construction.
///
/// Scheduling at a non-finite or negative time is a caller bug; the queue
/// stays panic-free by clamping negative times to 0, dropping non-finite
/// ones, and counting both in [`EventQueue::invalid_pushes`].
/// [`EventQueue::try_push`] reports the same conditions as a structured
/// [`SimError::InvalidEventTime`] instead.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Width of one bucket, in seconds.
    width_s: f64,
    /// Start of bucket 0's window, in seconds.
    base_s: f64,
    /// First bucket that may be non-empty; pushes pull it back, pops walk
    /// it forward past drained buckets.
    cursor: usize,
    /// Events currently in buckets (excludes the overflow list).
    in_wheel: usize,
    /// Events at or beyond the wheel window, unordered.
    overflow: Vec<Entry<E>>,
    /// Scratch for the pending times a rebuild calibrates from.
    times: Vec<f64>,
    /// `work.pops` at the last rebuild; a crowded bucket recalibrates only
    /// once `len()` more pops have passed.
    rebuilt_at_pop: u64,
    work: QueueWork,
    seq: u64,
    invalid: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            buckets: std::iter::repeat_with(Vec::new).take(MIN_BUCKETS).collect(),
            width_s: 1.0,
            base_s: 0.0,
            cursor: 0,
            in_wheel: 0,
            overflow: Vec::new(),
            times: Vec::new(),
            rebuilt_at_pop: 0,
            work: QueueWork::default(),
            seq: 0,
            invalid: 0,
        }
    }

    /// Creates an empty queue with an explicit backing; the same as
    /// [`EventQueue::new`]. Goes together with [`QueueKind`].
    pub fn with_kind(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => Self::new(),
        }
    }

    /// Schedules `event` at simulated time `time_s` (seconds).
    ///
    /// Invalid times never panic: a negative finite time is clamped to 0 and
    /// the event scheduled there; a NaN or infinite time drops the event.
    /// Both increment [`EventQueue::invalid_pushes`] so callers can surface
    /// the bug without unwinding mid-run.
    pub fn push(&mut self, time_s: f64, event: E) {
        if !(time_s.is_finite() && time_s >= 0.0) {
            self.invalid += 1;
            if !time_s.is_finite() {
                return;
            }
        }
        self.push_valid(time_s.max(0.0), event);
    }

    /// Schedules `event` at `time_s`, rejecting invalid times structurally.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidEventTime`] (scheduling nothing and
    /// counting nothing) when `time_s` is NaN, infinite, or negative.
    pub fn try_push(&mut self, time_s: f64, event: E) -> Result<(), SimError> {
        if !(time_s.is_finite() && time_s >= 0.0) {
            return Err(SimError::InvalidEventTime { time_s });
        }
        self.push_valid(time_s, event);
        Ok(())
    }

    // lint:hot calendar-wheel push: runs once per scheduled event
    fn push_valid(&mut self, time_s: f64, event: E) {
        let entry = Entry {
            time: time_s,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if time_s >= self.wheel_end_s() {
            self.overflow.push(entry);
        } else {
            let idx = self.bucket_index(time_s);
            self.buckets[idx].push(entry);
            self.in_wheel += 1;
            if idx < self.cursor {
                self.cursor = idx;
            }
        }
        if self.len() > GROW_FACTOR * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.in_wheel == 0 && !self.overflow.is_empty() {
            // The wheel drained but future events are waiting: rebase the
            // window around them. The width guard in rebuild() lands at
            // least the earliest event inside the new wheel.
            self.rebuild();
        }
        let mut entry = None;
        if self.in_wheel > 0 {
            entry = self.pop_in_wheel();
            if entry.is_none() {
                // Defensive: `in_wheel > 0` guarantees a non-empty bucket at
                // or after the cursor, so this rescan is unreachable;
                // restoring the cursor keeps the queue panic-free even if
                // the invariant slips.
                self.cursor = 0;
                entry = self.pop_in_wheel();
            }
        }
        let entry = entry.or_else(|| self.pop_overflow_min())?;
        self.work.pops += 1;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many pushes carried an invalid (negative, NaN, or infinite)
    /// time. Always 0 in a correct simulation; the engine surfaces a
    /// nonzero count as a `sim.event.invalid_time` telemetry counter.
    pub fn invalid_pushes(&self) -> u64 {
        self.invalid
    }

    /// The queue's work counters so far.
    pub fn work(&self) -> QueueWork {
        self.work
    }

    /// End of the wheel's window (exclusive), in seconds.
    fn wheel_end_s(&self) -> f64 {
        self.base_s + self.width_s * self.buckets.len() as f64
    }

    /// The bucket for a time inside the wheel window. Times at or before
    /// `base_s` (pushes into the past of the window start) clamp to
    /// bucket 0.
    fn bucket_index(&self, time_s: f64) -> usize {
        if time_s <= self.base_s {
            return 0;
        }
        // time_s < wheel_end_s, so the quotient is finite and in range; the
        // min() guards the boundary rounding.
        (((time_s - self.base_s) / self.width_s) as usize).min(self.buckets.len() - 1)
    }

    /// Walks the cursor to the first non-empty bucket and removes its
    /// `(time, seq)` minimum, first recalibrating the wheel if that bucket
    /// is crowded.
    // lint:hot calendar-wheel pop: runs once per simulated event
    fn pop_in_wheel(&mut self) -> Option<Entry<E>> {
        while self.cursor < self.buckets.len() {
            let len = self.buckets[self.cursor].len();
            if len == 0 {
                self.cursor += 1;
                continue;
            }
            if len > CROWDED_BUCKET && self.work.pops - self.rebuilt_at_pop >= self.len() as u64 {
                // The buckets no longer match the near-term event density.
                // The rebuild leaves the earliest event in the wheel and the
                // cursor at 0, so the walk restarts on the fresh wheel.
                self.rebuild();
                continue;
            }
            let bucket = &mut self.buckets[self.cursor];
            let mut best = 0;
            for i in 1..bucket.len() {
                if earlier(&bucket[i], &bucket[best]) {
                    best = i;
                }
            }
            self.work.scanned += len as u64;
            self.in_wheel -= 1;
            return Some(bucket.swap_remove(best));
        }
        None
    }

    /// Removes the `(time, seq)` minimum of the overflow list directly.
    /// Only reachable when the wheel is empty (every overflow event is later
    /// than every wheel event by construction).
    // lint:hot overflow pop: linear min-scan on the simulator's tail events
    fn pop_overflow_min(&mut self) -> Option<Entry<E>> {
        if self.overflow.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.overflow.len() {
            if earlier(&self.overflow[i], &self.overflow[best]) {
                best = i;
            }
        }
        self.work.scanned += self.overflow.len() as u64;
        Some(self.overflow.swap_remove(best))
    }

    /// Collects every pending event and redistributes it over a wheel sized
    /// to the current population, rebased so the earliest event defines
    /// bucket 0. The width gives about one event per bucket: at the density
    /// of the earliest half when far outliers stretch the span, and across
    /// the whole span otherwise. Events past the wheel's window stay in the
    /// overflow list.
    fn rebuild(&mut self) {
        self.work.rebuilds += 1;
        self.rebuilt_at_pop = self.work.pops;
        // After a drain the buckets are already empty.
        if self.in_wheel > 0 {
            for bucket in &mut self.buckets {
                self.overflow.append(bucket);
            }
            self.in_wheel = 0;
        }
        self.cursor = 0;
        let n = self.overflow.len();
        if n == 0 {
            return;
        }
        self.times.clear();
        self.times
            .extend(self.overflow.iter().map(|entry| entry.time));
        let half = n / 2;
        let (earliest, median_t, _) = self.times.select_nth_unstable_by(half, f64::total_cmp);
        let median_t = *median_t;
        let min_t = earliest.iter().fold(median_t, |min_t, &t| min_t.min(t));
        let target = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != target {
            // Shrinking drops only empty Vecs (everything was drained above).
            self.buckets.resize_with(target, Vec::new);
        }
        let spread = median_t - min_t;
        let max_t = self.times[half..]
            .iter()
            .fold(median_t, |max_t, &t| max_t.max(t));
        let span = max_t - min_t;
        let mut width = if spread > 0.0 && spread.is_finite() {
            if span <= MAX_SPAN_PER_SPREAD * spread {
                // No far outliers: a wheel sized to the whole span holds
                // every pending event and drains less often, at worst at
                // half the earliest half's density.
                span / n as f64
            } else {
                spread / half as f64
            }
        } else {
            // Degenerate spread (the earliest half at one instant): keep the
            // old width, which the floor below makes positive.
            self.width_s
        };
        // Floor the width so `base_s + width_s * buckets > base_s` holds in
        // floating point: the earliest event must land inside the wheel,
        // which is what makes pop() after a drain terminate.
        let ulp_floor = (min_t.abs() + 1.0) * f64::EPSILON;
        if !(width > ulp_floor && width.is_finite()) {
            width = ulp_floor.max(1.0 * f64::EPSILON);
        }
        self.width_s = width;
        self.base_s = min_t;
        let wheel_end_s = self.wheel_end_s();
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].time < wheel_end_s {
                let entry = self.overflow.swap_remove(i);
                let idx = self.bucket_index(entry.time);
                self.buckets[idx].push(entry);
                self.in_wheel += 1;
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        for i in 0..16 {
            q.push(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q: EventQueue<i32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, 0);
        q.push(0.5, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn invalid_times_are_counted_not_panicked() {
        let mut q: EventQueue<i32> = EventQueue::new();
        // NaN and infinities drop the event.
        q.push(f64::NAN, 0);
        q.push(f64::INFINITY, 1);
        q.push(f64::NEG_INFINITY, 2);
        assert_eq!(q.len(), 0);
        assert_eq!(q.invalid_pushes(), 3);
        // A negative finite time clamps to zero but still schedules.
        q.push(-1.0, 3);
        assert_eq!(q.invalid_pushes(), 4);
        assert_eq!(q.pop(), Some((0.0, 3)));
    }

    #[test]
    fn try_push_rejects_invalid_times_structurally() {
        let mut q: EventQueue<i32> = EventQueue::new();
        assert!(matches!(
            q.try_push(f64::NAN, 0),
            Err(SimError::InvalidEventTime { .. })
        ));
        assert!(matches!(
            q.try_push(-0.25, 0),
            Err(SimError::InvalidEventTime { time_s }) if time_s < 0.0
        ));
        assert_eq!(q.invalid_pushes(), 0, "try_push counts nothing");
        assert!(q.try_push(0.25, 7).is_ok());
        assert_eq!(q.pop(), Some((0.25, 7)));
    }

    #[test]
    fn far_future_events_survive_the_overflow_list() {
        let mut q = EventQueue::new();
        q.push(1e9, 1); // far beyond the initial 16 s wheel window
        q.push(0.5, 0);
        q.push(2e9, 2);
        assert_eq!(q.pop(), Some((0.5, 0)));
        assert_eq!(q.pop(), Some((1e9, 1)));
        assert_eq!(q.pop(), Some((2e9, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_rebuilds_keep_sorted_order() {
        let mut q = EventQueue::new();
        // A deterministic scramble big enough to force several rebuilds.
        let times: Vec<f64> = (0..10_000u64)
            .map(|i| ((i * 7919) % 10_000) as f64 * 1e-3)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as i32);
        }
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped.len(), sorted.len());
        assert!(popped
            .iter()
            .zip(&sorted)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn all_equal_times_drain_in_fifo_order_across_rebuilds() {
        let mut q = EventQueue::new();
        for i in 0..200 {
            q.push(5.0, i);
        }
        // Interleave pops and same-time pushes to exercise the degenerate
        // zero-span rebuild path.
        for i in 200..400 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..400).collect::<Vec<_>>());
    }
}

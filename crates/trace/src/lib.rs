#![warn(missing_docs)]

//! # gasnub-trace
//!
//! A hand-rolled, dependency-free structured event + counter subsystem for
//! the GASNUB simulation stack (matching the `core::pool` style: no external
//! crates, deterministic by construction).
//!
//! The simulation crates keep cheap internal `u64` counters in their hot
//! loops (cache hits, bus transactions, NI packets). This crate provides the
//! *observability* layer on top:
//!
//! * [`CounterSet`] — a named, sorted bag of `u64` counters that components
//!   export into after a probe. Sorted iteration makes any rendering of a
//!   counter set canonical: the same measurements always produce the same
//!   bytes, which is what makes counter reports goldenable and
//!   byte-identical across worker counts.
//! * [`Event`] — one structured trace event: a label plus ordered
//!   `(name, value)` fields.
//! * [`Recorder`] — the sink abstraction the machine layer threads through:
//!   [`NullRecorder`] is the zero-cost default (a disabled recorder makes
//!   the harvest path a single branch), [`RingRecorder`] buffers the most
//!   recent events in a bounded ring for inspection.
//!
//! Everything here is plain data: recorders are `Send`, counter sets are
//! `Clone + Eq`, and nothing reads clocks or global state.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A named bag of monotonically meaningful `u64` counters.
///
/// Keys are held sorted (BTreeMap), so [`CounterSet::iter`] and any
/// serialization built on it are canonical. Missing counters read as zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Adds `delta` to counter `name` (saturating), creating it at zero.
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets counter `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The value of counter `name`; zero when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether counter `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    /// Merges another set into this one, adding overlapping counters.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the set holds no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// One structured trace event: a label plus ordered fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dotted event label, e.g. `"probe.deposit"` or `"interconnect.ni"`.
    pub label: String,
    /// Ordered `(name, value)` fields (insertion order is preserved, so an
    /// event renders the way its emitter built it).
    pub fields: Vec<(String, u64)>,
}

impl Event {
    /// Creates an event with no fields.
    pub fn new(label: impl Into<String>) -> Self {
        Event {
            label: label.into(),
            fields: Vec::new(),
        }
    }

    /// Appends one field (builder style).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: u64) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Appends every counter of `set` as a field, in sorted name order.
    #[must_use]
    pub fn with_counters(mut self, set: &CounterSet) -> Self {
        for (name, value) in set.iter() {
            self.fields.push((name.to_string(), value));
        }
        self
    }

    /// The value of field `name`, if present (first match).
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Canonical counter names for sweep-execution robustness events.
///
/// The resilient sweep runner (`gasnub-core`) accumulates these into the
/// [`CounterSet`] it returns per run, and `--counters` reports them. They
/// live here — next to the counter type — so the runner, the CLI and the
/// tests agree on one spelling.
pub mod robustness {
    /// Extra probe attempts spent re-running panicking cells.
    pub const RETRIES: &str = "sweep.retries";
    /// Cells that exhausted their retry budget and were quarantined
    /// (rendered as an explicit `NaN` hole, skipped on resume).
    pub const QUARANTINES: &str = "sweep.quarantines";
    /// Cells stopped by their per-cell wall-clock budget.
    pub const TIMEOUTS: &str = "sweep.timeouts";
    /// Corrupt checkpoints recovered by `--force-restart` (the file is
    /// preserved as `<path>.corrupt`).
    pub const FORCE_RESTARTS: &str = "sweep.force_restarts";
    /// The subset of force-restarts whose corruption was a torn tail.
    pub const TORN_TAIL_RECOVERIES: &str = "sweep.torn_tail_recoveries";
    /// Checkpoint writes that failed once and succeeded on the retry.
    pub const CHECKPOINT_WRITE_RETRIES: &str = "sweep.checkpoint_write_retries";
}

/// Canonical counter names for the characterization server (`gasnub-serve`).
///
/// The serving layer accumulates these with cheap per-request atomics —
/// *not* by installing a [`Recorder`] on the probing engines, which would
/// bypass the server's probe memo and force every served probe onto the
/// cold path. `/metrics` and the shutdown report render them through a
/// [`CounterSet`], so they sort canonically next to the
/// [`robustness`] counters the backing sweeps produce.
pub mod serving {
    /// HTTP requests accepted (all endpoints, before routing).
    pub const REQUESTS: &str = "serve.requests";
    /// Responses in the 2xx class.
    pub const RESPONSES_2XX: &str = "serve.responses_2xx";
    /// Responses in the 4xx class (structured client errors).
    pub const RESPONSES_4XX: &str = "serve.responses_4xx";
    /// Responses in the 5xx class.
    pub const RESPONSES_5XX: &str = "serve.responses_5xx";
    /// `POST /v1/probe` requests answered.
    pub const PROBES: &str = "serve.probes";
    /// `POST /v1/sweep` requests answered.
    pub const SWEEPS: &str = "serve.sweeps";
    /// Sweep surfaces actually computed by this process (cache misses).
    pub const SWEEPS_COMPUTED: &str = "serve.sweeps_computed";
    /// Sweep requests answered from the in-memory payload cache.
    pub const SWEEP_CACHE_HITS_MEMORY: &str = "serve.sweep_cache_hits_memory";
    /// Sweep requests answered by resuming a durable checkpoint on disk
    /// (the warm-restart path: no cell was re-measured).
    pub const SWEEP_CACHE_HITS_DISK: &str = "serve.sweep_cache_hits_disk";
    /// Sweep requests that piggybacked on an identical in-flight
    /// computation instead of starting their own.
    pub const SWEEPS_COALESCED: &str = "serve.sweeps_coalesced";
    /// TCP connections accepted.
    pub const CONNECTIONS: &str = "serve.connections";
    /// Highest number of requests ever in flight at once.
    pub const QUEUE_DEPTH_PEAK: &str = "serve.queue_depth_peak";
    /// Surfaces currently held in the in-memory payload cache.
    pub const CACHED_SURFACES: &str = "serve.cached_surfaces";
}

/// A sink for structured events.
///
/// The machine layer holds a `Box<dyn Recorder>` and consults
/// [`Recorder::enabled`] before doing any harvest work, so a disabled
/// recorder costs one branch per probe and nothing per access.
pub trait Recorder: std::fmt::Debug + Send {
    /// Whether this recorder wants events (guards the harvest path).
    fn enabled(&self) -> bool;

    /// Records one event. Disabled recorders drop it.
    fn record(&mut self, event: Event);

    /// Removes and returns all buffered events, oldest first.
    fn drain(&mut self) -> Vec<Event>;
}

/// The zero-cost default recorder: always disabled, buffers nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}

    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

/// A bounded ring buffer of the most recent events.
///
/// When full, recording evicts the oldest event and counts it as dropped,
/// so long-running probes stay O(capacity) in memory.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first (without draining).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn drain(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero_and_accumulate() {
        let mut c = CounterSet::new();
        assert_eq!(c.get("bus_transactions"), 0);
        assert!(!c.contains("bus_transactions"));
        c.add("bus_transactions", 3);
        c.add("bus_transactions", 2);
        assert_eq!(c.get("bus_transactions"), 5);
        c.set("bus_transactions", 1);
        assert_eq!(c.get("bus_transactions"), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn counter_add_saturates() {
        let mut c = CounterSet::new();
        c.set("x", u64::MAX - 1);
        c.add("x", 5);
        assert_eq!(c.get("x"), u64::MAX);
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let mut c = CounterSet::new();
        c.add("z_last", 1);
        c.add("a_first", 2);
        c.add("m_mid", 3);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a_first", "m_mid", "z_last"]);
    }

    #[test]
    fn merge_adds_overlapping_counters() {
        let mut a = CounterSet::new();
        a.add("hits", 10);
        let mut b = CounterSet::new();
        b.add("hits", 5);
        b.add("misses", 1);
        a.merge(&b);
        assert_eq!(a.get("hits"), 15);
        assert_eq!(a.get("misses"), 1);
    }

    #[test]
    fn event_builder_and_lookup() {
        let mut c = CounterSet::new();
        c.add("misses", 7);
        let e = Event::new("probe.load")
            .with("ws_bytes", 1024)
            .with_counters(&c);
        assert_eq!(e.field("ws_bytes"), Some(1024));
        assert_eq!(e.field("misses"), Some(7));
        assert_eq!(e.field("absent"), None);
    }

    #[test]
    fn null_recorder_is_disabled_and_empty() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Event::new("x"));
        assert!(r.drain().is_empty());
    }

    #[test]
    fn ring_recorder_evicts_oldest() {
        let mut r = RingRecorder::new(2);
        assert!(r.enabled());
        r.record(Event::new("a"));
        r.record(Event::new("b"));
        r.record(Event::new("c"));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.len(), 2);
        let labels: Vec<String> = r.drain().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["b".to_string(), "c".to_string()]);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let mut r = RingRecorder::new(0);
        r.record(Event::new("only"));
        r.record(Event::new("newer"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().unwrap().label, "newer");
    }

    #[test]
    fn recorders_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NullRecorder>();
        assert_send::<RingRecorder>();
        assert_send::<Box<dyn Recorder>>();
    }
}

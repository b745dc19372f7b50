//! Serving counters: cheap per-request atomics, folded into a
//! [`CounterSet`] only when `/metrics` or the shutdown report asks.
//!
//! This is the counter path that closes the latent gap between metrics
//! and the warm path: installing a [`gasnub_trace::Recorder`] on the
//! probing engines would report per-probe counters, but the server's
//! probe memo is (correctly) bypassed whenever a recorder is enabled —
//! observed probes must be genuine recomputations. A server that recorded
//! every request would therefore serve every probe cold. Instead, the
//! serving layer counts at the request boundary with relaxed atomics
//! (nanoseconds per request), leaves the engines unobserved so repeats hit
//! the memo, and reads the memo's own hit/miss statistics into the
//! snapshot for free.

use std::sync::atomic::{AtomicU64, Ordering};

use gasnub_trace::{serving, CounterSet};

/// The serving layer's request-boundary counters.
#[derive(Debug, Default)]
pub struct ServeCounters {
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    probes: AtomicU64,
    sweeps: AtomicU64,
    sweeps_computed: AtomicU64,
    sweep_cache_hits_memory: AtomicU64,
    sweep_cache_hits_disk: AtomicU64,
    sweeps_coalesced: AtomicU64,
    connections: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
}

impl ServeCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        ServeCounters::default()
    }

    /// Counts an accepted connection.
    pub fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request entering service and updates the queue-depth
    /// high-water mark. Pair with [`ServeCounters::finish_request`].
    pub fn start_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts a response by status class and releases the queue slot.
    pub fn finish_request(&self, status: u16) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a probe request.
    pub fn probe(&self) {
        self.probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a sweep request.
    pub fn sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts how a sweep payload was obtained.
    pub fn sweep_source(&self, source: &'static str) {
        let counter = match source {
            "memory" => &self.sweep_cache_hits_memory,
            "disk" => &self.sweep_cache_hits_disk,
            "coalesced" => &self.sweeps_coalesced,
            _ => &self.sweeps_computed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests currently in flight.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Total sweep surfaces computed (cache misses) so far.
    pub fn sweeps_computed(&self) -> u64 {
        self.sweeps_computed.load(Ordering::Relaxed)
    }

    /// Folds the block into a [`CounterSet`] under the canonical
    /// [`gasnub_trace::serving`] names.
    pub fn snapshot(&self) -> CounterSet {
        let mut set = CounterSet::new();
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        set.set(serving::REQUESTS, read(&self.requests));
        set.set(serving::RESPONSES_2XX, read(&self.responses_2xx));
        set.set(serving::RESPONSES_4XX, read(&self.responses_4xx));
        set.set(serving::RESPONSES_5XX, read(&self.responses_5xx));
        set.set(serving::PROBES, read(&self.probes));
        set.set(serving::SWEEPS, read(&self.sweeps));
        set.set(serving::SWEEPS_COMPUTED, read(&self.sweeps_computed));
        set.set(
            serving::SWEEP_CACHE_HITS_MEMORY,
            read(&self.sweep_cache_hits_memory),
        );
        set.set(
            serving::SWEEP_CACHE_HITS_DISK,
            read(&self.sweep_cache_hits_disk),
        );
        set.set(serving::SWEEPS_COALESCED, read(&self.sweeps_coalesced));
        set.set(serving::CONNECTIONS, read(&self.connections));
        set.set(serving::QUEUE_DEPTH_PEAK, read(&self.queue_depth_peak));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_uses_canonical_names() {
        let c = ServeCounters::new();
        c.connection();
        c.start_request();
        c.sweep();
        c.sweep_source("computed");
        c.finish_request(200);
        c.start_request();
        c.finish_request(404);
        let snap = c.snapshot();
        assert_eq!(snap.get(serving::REQUESTS), 2);
        assert_eq!(snap.get(serving::RESPONSES_2XX), 1);
        assert_eq!(snap.get(serving::RESPONSES_4XX), 1);
        assert_eq!(snap.get(serving::SWEEPS_COMPUTED), 1);
        assert_eq!(snap.get(serving::CONNECTIONS), 1);
        assert_eq!(snap.get(serving::QUEUE_DEPTH_PEAK), 1);
        assert_eq!(c.queue_depth(), 0);
    }
}

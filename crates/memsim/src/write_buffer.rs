//! Coalescing write buffer (the T3D's "write-back queue").
//!
//! From the paper (§3.2): "The write path contains an on-chip write-back
//! queue that buffers the high rate processor writes and coalesces them into
//! 32 bytes entities if they are contiguous." Remote stores "are directly
//! captured from the write back queues".
//!
//! The model: stores enter the buffer; a store that falls into the currently
//! open aligned window merges for free, otherwise a new entry is opened. In
//! steady state the processor is limited by the drain rate of entries, so the
//! amortized cost of a store is `drain cost / stores-per-entry` — which is
//! what gives the T3D its strided-store advantage (contiguous stores share a
//! 32-byte entry, strided stores each pay for a full entry drain).

use crate::access::Addr;
use crate::error::ConfigError;

/// Static description of a write buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBufferConfig {
    /// Number of entries the queue holds. The queue only throttles once it is
    /// full, so small counts make stalls visible earlier.
    pub entries: usize,
    /// Aligned window (bytes) a single entry covers; stores within the window
    /// coalesce. The T3D uses 32-byte entities.
    pub entry_bytes: u64,
    /// Cycles to drain one entry to the next level (memory or network).
    pub drain_cycles_per_entry: f64,
    /// Whether coalescing is enabled. Disabling it is the "WBQ coalescing
    /// off" ablation: every store opens (and drains) its own entry.
    pub coalesce: bool,
}

impl WriteBufferConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are no entries, the window is not a
    /// non-zero power of two, or the drain cost is negative.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = "write buffer";
        if self.entries == 0 {
            return Err(ConfigError::new(c, "must have at least one entry"));
        }
        if self.entry_bytes == 0 || !self.entry_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                c,
                "entry window must be a non-zero power of two",
            ));
        }
        if self.drain_cycles_per_entry < 0.0 {
            return Err(ConfigError::new(c, "drain cost must be non-negative"));
        }
        Ok(())
    }
}

/// Outcome of pushing one store into the buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushOutcome {
    /// Cycles the processor stalled because the queue was full.
    pub stall_cycles: f64,
    /// Whether the store coalesced into the open entry.
    pub coalesced: bool,
}

/// Runtime state of a coalescing write buffer.
///
/// Like [`crate::dram::Dram`], the buffer is driven by a caller-supplied
/// monotonic *now* timestamp: entries drain continuously at the configured
/// rate while the processor makes progress.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBuffer {
    config: WriteBufferConfig,
    /// `log2(entry_bytes)`; the window is a validated power of two, so
    /// `addr >> entry_shift` is exactly `addr / entry_bytes`.
    entry_shift: u32,
    /// Window index of the entry currently open for coalescing.
    open_window: Option<u64>,
    /// Number of entries logically occupied (including the open one).
    pub(crate) occupancy: usize,
    /// Simulated time at which the oldest entry finishes draining.
    drain_front: f64,
    entries_drained: u64,
    stores: u64,
    coalesced_stores: u64,
    /// Stall cycles since the last reset or the start of the owning
    /// hierarchy's statistics window.
    pub(crate) stall_total: f64,
}

impl WriteBuffer {
    /// Builds a write buffer from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`WriteBufferConfig::validate`] errors.
    pub fn new(config: WriteBufferConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(WriteBuffer {
            entry_shift: config.entry_bytes.trailing_zeros(),
            config,
            open_window: None,
            occupancy: 0,
            drain_front: 0.0,
            entries_drained: 0,
            stores: 0,
            coalesced_stores: 0,
            stall_total: 0.0,
        })
    }

    /// The configuration this buffer was built from.
    pub fn config(&self) -> &WriteBufferConfig {
        &self.config
    }

    /// Total stores pushed.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Stores that merged into an open entry.
    pub fn coalesced_stores(&self) -> u64 {
        self.coalesced_stores
    }

    /// Entries fully drained to the next level.
    pub fn entries_drained(&self) -> u64 {
        self.entries_drained
    }

    /// Total processor stall cycles caused by a full queue since the last
    /// reset (or, in a hierarchy, since its statistics window began).
    pub fn total_stall_cycles(&self) -> f64 {
        self.stall_total
    }

    /// Clears all state and statistics.
    pub fn reset(&mut self) {
        self.open_window = None;
        self.occupancy = 0;
        self.drain_front = 0.0;
        self.entries_drained = 0;
        self.stores = 0;
        self.coalesced_stores = 0;
        self.stall_total = 0.0;
    }

    fn catch_up_drain(&mut self, now: f64) {
        // Entries complete one after another, drain_cycles apart.
        while self.occupancy > 0 && self.drain_front <= now {
            self.occupancy -= 1;
            self.entries_drained += 1;
            self.drain_front += self.config.drain_cycles_per_entry;
            if self.occupancy == 0 {
                self.open_window = None;
            }
        }
        if self.occupancy == 0 {
            // Idle queue: next entry starts draining when pushed.
            self.drain_front = now;
        }
    }

    /// Pushes one store at simulated time `now`.
    ///
    /// Returns the stall (if the queue was full, the processor waits for the
    /// oldest entry to finish draining) and whether the store coalesced.
    pub fn push(&mut self, addr: Addr, now: f64) -> PushOutcome {
        self.stores += 1;
        self.catch_up_drain(now);

        let window = addr >> self.entry_shift;
        if self.config.coalesce && self.open_window == Some(window) {
            self.coalesced_stores += 1;
            return PushOutcome {
                stall_cycles: 0.0,
                coalesced: true,
            };
        }

        // Need a new entry: stall if full.
        let mut stall = 0.0;
        if self.occupancy >= self.config.entries {
            stall = (self.drain_front - now).max(0.0);
            self.stall_total += stall;
            // The oldest entry completes at drain_front.
            self.occupancy -= 1;
            self.entries_drained += 1;
            self.drain_front += self.config.drain_cycles_per_entry;
        }
        if self.occupancy == 0 {
            self.drain_front = (now + stall) + self.config.drain_cycles_per_entry;
        }
        self.occupancy += 1;
        self.open_window = Some(window);
        PushOutcome {
            stall_cycles: stall,
            coalesced: false,
        }
    }

    /// Drains all remaining entries, returning the cycles needed beyond `now`.
    pub fn flush(&mut self, now: f64) -> f64 {
        self.catch_up_drain(now);
        if self.occupancy == 0 {
            return 0.0;
        }
        let remaining = self.occupancy as f64;
        let done = (self.drain_front - now).max(0.0)
            + (remaining - 1.0).max(0.0) * self.config.drain_cycles_per_entry;
        self.entries_drained += self.occupancy as u64;
        self.occupancy = 0;
        self.open_window = None;
        self.drain_front = now + done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(entries: usize, coalesce: bool) -> WriteBufferConfig {
        WriteBufferConfig {
            entries,
            entry_bytes: 32,
            drain_cycles_per_entry: 10.0,
            coalesce,
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(cfg(0, true).validate().is_err());
        let mut c = cfg(4, true);
        c.entry_bytes = 24;
        assert!(c.validate().is_err());
        let mut c = cfg(4, true);
        c.drain_cycles_per_entry = -1.0;
        assert!(c.validate().is_err());
        assert!(cfg(4, true).validate().is_ok());
    }

    #[test]
    fn contiguous_stores_coalesce_four_to_one() {
        let mut wb = WriteBuffer::new(cfg(8, true)).unwrap();
        let mut now = 0.0;
        for w in 0..16u64 {
            let out = wb.push(w * 8, now);
            now += 1.0;
            assert_eq!(out.stall_cycles, 0.0);
        }
        // 16 stores / (32 B / 8 B) = 4 entries opened.
        assert_eq!(wb.coalesced_stores(), 12);
        assert_eq!(wb.stores(), 16);
    }

    #[test]
    fn strided_stores_never_coalesce() {
        let mut wb = WriteBuffer::new(cfg(64, true)).unwrap();
        let mut now = 0.0;
        for w in 0..16u64 {
            let out = wb.push(w * 64, now); // stride 8 words = 64 B > window
            now += 1.0;
            assert!(!out.coalesced);
        }
        assert_eq!(wb.coalesced_stores(), 0);
    }

    #[test]
    fn coalescing_off_ablation_disables_merging() {
        let mut wb = WriteBuffer::new(cfg(64, false)).unwrap();
        let mut now = 0.0;
        for w in 0..8u64 {
            assert!(!wb.push(w * 8, now).coalesced);
            now += 1.0;
        }
    }

    #[test]
    fn full_queue_stalls_at_drain_rate() {
        // 2 entries, 10 cycles each; push 4 strided stores back-to-back.
        let mut wb = WriteBuffer::new(cfg(2, true)).unwrap();
        let mut now = 0.0;
        let mut total_stall = 0.0;
        for w in 0..8u64 {
            let out = wb.push(w * 64, now);
            total_stall += out.stall_cycles;
            now += 1.0 + out.stall_cycles;
        }
        assert!(
            total_stall > 0.0,
            "a saturated queue must throttle the processor"
        );
        // Steady state cost per store approaches the drain cost.
        assert!(wb.total_stall_cycles() > 0.0);
    }

    #[test]
    fn idle_time_drains_the_queue() {
        let mut wb = WriteBuffer::new(cfg(2, true)).unwrap();
        wb.push(0, 0.0);
        wb.push(64, 1.0);
        // Wait long enough for both entries to drain; the next push is free.
        let out = wb.push(128, 1000.0);
        assert_eq!(out.stall_cycles, 0.0);
        assert!(wb.entries_drained() >= 2);
    }

    #[test]
    fn flush_charges_remaining_drain() {
        let mut wb = WriteBuffer::new(cfg(8, true)).unwrap();
        wb.push(0, 0.0);
        wb.push(64, 0.0);
        wb.push(128, 0.0);
        let cost = wb.flush(0.0);
        assert!(
            cost >= 20.0,
            "three entries at 10 cycles each need >= 20 cycles beyond now, got {cost}"
        );
        assert_eq!(wb.flush(1_000.0), 0.0);
    }
}

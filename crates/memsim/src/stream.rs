//! Sequential stream detection (read-ahead logic / stream buffers).
//!
//! Both Cray machines owe their contiguous-DRAM bandwidth to hardware that
//! recognizes sequential access and pre-fetches ahead of the processor:
//! "The external circuitry supports contiguous reads with a read-ahead logic"
//! (T3D, §3.2); "the memory system includes support for memory streams"
//! (T3E, §3.3). The DEC 8400 likewise "includes modest stream support for
//! large contiguous transfers" (§3.1).
//!
//! The model: a small table of stream slots, each remembering the last line
//! index it saw. A miss whose line index is exactly `last + 1` for some slot
//! advances that slot and counts as *streamed* once the slot has seen enough
//! consecutive lines to train. Streamed fills are charged the pipelined
//! transfer cost instead of the full access latency.

use crate::error::ConfigError;

/// Static description of a stream detector at one hierarchy boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Number of independent streams tracked simultaneously. The T3E has six
    /// stream buffers; the T3D read-ahead logic follows one stream.
    pub slots: usize,
    /// Consecutive-line count required before fills are considered streamed.
    /// Training misses are charged the full (non-streamed) cost.
    pub train_length: u32,
}

impl StreamConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are no slots or the train length is
    /// zero (a zero train length would classify every access as streamed).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.slots == 0 {
            return Err(ConfigError::new(
                "stream detector",
                "must have at least one slot",
            ));
        }
        if self.train_length == 0 {
            return Err(ConfigError::new(
                "stream detector",
                "train length must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for StreamConfig {
    /// One slot, trains after two consecutive lines — the minimal useful
    /// read-ahead unit (T3D-like).
    fn default() -> Self {
        StreamConfig {
            slots: 1,
            train_length: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    pub(crate) last_line: u64,
    /// Consecutive lines seen, capped at the train length: only whether it
    /// has reached the train length matters.
    pub(crate) run: u32,
    /// LRU stamp for slot replacement.
    pub(crate) lru: u64,
    pub(crate) valid: bool,
}

/// Runtime state of a stream detector.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    config: StreamConfig,
    pub(crate) slots: Vec<Slot>,
    pub(crate) tick: u64,
    pub(crate) streamed: u64,
    pub(crate) unstreamed: u64,
    /// Slots (re)allocated to a new stream.
    pub(crate) allocations: u64,
    /// While set, [`StreamDetector::observe`] counts into `ambiguous` the
    /// lines more than one slot would claim (which one wins then depends
    /// on slot order). An observation, not state: equality ignores both.
    pub(crate) audit: bool,
    pub(crate) ambiguous: u64,
}

impl PartialEq for StreamDetector {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.slots == other.slots
            && self.tick == other.tick
            && self.streamed == other.streamed
            && self.unstreamed == other.unstreamed
            && self.allocations == other.allocations
    }
}

impl StreamDetector {
    /// Builds a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConfig::validate`] errors.
    pub fn new(config: StreamConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let slots = vec![
            Slot {
                last_line: 0,
                run: 0,
                lru: 0,
                valid: false
            };
            config.slots
        ];
        Ok(StreamDetector {
            config,
            slots,
            tick: 0,
            streamed: 0,
            unstreamed: 0,
            allocations: 0,
            audit: false,
            ambiguous: 0,
        })
    }

    /// The configuration this detector was built from.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of fills classified as streamed so far.
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// Number of fills classified as not streamed so far.
    pub fn unstreamed(&self) -> u64 {
        self.unstreamed
    }

    /// Forgets all stream state and statistics.
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            s.valid = false;
            s.run = 0;
        }
        self.tick = 0;
        self.streamed = 0;
        self.unstreamed = 0;
        self.allocations = 0;
    }

    /// Observes a line-granular fill request and classifies it.
    ///
    /// Returns `true` when the fill is part of a trained sequential stream
    /// (and should be charged the pipelined cost).
    pub fn observe(&mut self, line_index: u64) -> bool {
        self.tick += 1;
        if self.audit {
            let claims = self
                .slots
                .iter()
                .filter(|s| s.valid && (line_index == s.last_line + 1 || line_index == s.last_line))
                .count();
            self.ambiguous += u64::from(claims > 1);
        }

        // Continuation of an existing stream?
        for s in self.slots.iter_mut() {
            if s.valid && line_index == s.last_line + 1 {
                s.last_line = line_index;
                s.run = s.run.saturating_add(1).min(self.config.train_length);
                s.lru = self.tick;
                if s.run >= self.config.train_length {
                    self.streamed += 1;
                    return true;
                }
                self.unstreamed += 1;
                return false;
            }
            if s.valid && line_index == s.last_line {
                // Repeated fill of the same line (e.g. multiple upper-level
                // lines per lower-level line); keep the stream alive.
                s.lru = self.tick;
                if s.run >= self.config.train_length {
                    self.streamed += 1;
                    return true;
                }
                self.unstreamed += 1;
                return false;
            }
        }

        // Allocate a slot (LRU) for a potential new stream.
        let mut victim = 0;
        let mut best = u64::MAX;
        for (i, s) in self.slots.iter().enumerate() {
            if !s.valid {
                victim = i;
                break;
            }
            if s.lru < best {
                best = s.lru;
                victim = i;
            }
        }
        self.slots[victim] = Slot {
            last_line: line_index,
            run: 1,
            lru: self.tick,
            valid: true,
        };
        self.allocations += 1;
        self.unstreamed += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(StreamConfig {
            slots: 0,
            train_length: 2
        }
        .validate()
        .is_err());
        assert!(StreamConfig {
            slots: 1,
            train_length: 0
        }
        .validate()
        .is_err());
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn sequential_lines_train_then_stream() {
        // First observation starts the stream (run = 1, not streamed); the
        // second consecutive line reaches the train length and is streamed.
        let mut d = StreamDetector::new(StreamConfig {
            slots: 1,
            train_length: 2,
        })
        .unwrap();
        assert!(!d.observe(10));
        assert!(
            d.observe(11),
            "second consecutive line reaches train length 2"
        );
        assert!(d.observe(12));
        assert_eq!(d.streamed(), 2);
    }

    #[test]
    fn non_sequential_lines_never_stream() {
        let mut d = StreamDetector::new(StreamConfig {
            slots: 1,
            train_length: 2,
        })
        .unwrap();
        for i in 0..20 {
            assert!(
                !d.observe(i * 7),
                "stride-7 lines must not be classified as streamed"
            );
        }
        assert_eq!(d.streamed(), 0);
        assert_eq!(d.unstreamed(), 20);
    }

    #[test]
    fn multiple_slots_track_interleaved_streams() {
        let mut d = StreamDetector::new(StreamConfig {
            slots: 2,
            train_length: 2,
        })
        .unwrap();
        // Interleave two sequential streams; both should train.
        d.observe(100);
        d.observe(500);
        assert!(d.observe(101));
        assert!(d.observe(501));
        assert!(d.observe(102));
        assert!(d.observe(502));
    }

    #[test]
    fn one_slot_thrashes_on_interleaved_streams() {
        let mut d = StreamDetector::new(StreamConfig {
            slots: 1,
            train_length: 2,
        })
        .unwrap();
        d.observe(100);
        d.observe(500); // evicts stream at 100
        assert!(!d.observe(101), "single slot cannot hold two streams");
    }

    #[test]
    fn repeated_line_keeps_stream_alive() {
        let mut d = StreamDetector::new(StreamConfig {
            slots: 1,
            train_length: 2,
        })
        .unwrap();
        d.observe(7);
        assert!(d.observe(8));
        assert!(d.observe(8), "re-request of current line stays streamed");
        assert!(d.observe(9));
    }

    #[test]
    fn reset_forgets_training() {
        let mut d = StreamDetector::new(StreamConfig::default()).unwrap();
        d.observe(1);
        d.observe(2);
        d.reset();
        assert!(!d.observe(3));
        assert_eq!(d.streamed(), 0);
    }
}

//! Run statistics produced by the trace engine.

use gasnub_trace::CounterSet;

/// Per-cache-level counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed in this level (and went further down).
    pub misses: u64,
    /// Line fills into this level that were classified as streamed.
    pub streamed_fills: u64,
    /// Line fills into this level charged the full (untrained) cost.
    pub unstreamed_fills: u64,
    /// Dirty victim lines written back out of this level.
    pub write_backs: u64,
}

impl LevelStats {
    /// Hit rate in `[0, 1]`; 0 when the level saw no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Aggregate result of running a trace through a [`crate::engine::MemoryEngine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total accesses processed.
    pub accesses: u64,
    /// Read accesses processed.
    pub reads: u64,
    /// Write accesses processed.
    pub writes: u64,
    /// Total simulated cycles consumed.
    pub cycles: f64,
    /// Bytes the trace touched (8 per access).
    pub bytes: u64,
    /// One entry per configured cache level, L1 first.
    pub levels: Vec<LevelStats>,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// DRAM accesses that hit an open row.
    pub dram_row_hits: u64,
    /// DRAM accesses that stalled on a busy bank.
    pub dram_bank_conflicts: u64,
    /// DRAM fills that were streamed (served by the prefetch pipeline).
    pub dram_streamed_fills: u64,
    /// Processor stall cycles caused by a saturated write buffer.
    pub write_buffer_stall_cycles: f64,
}

impl RunStats {
    /// Cycles per access; 0 when the run was empty.
    pub fn cycles_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.cycles / self.accesses as f64
        }
    }

    /// Merges another run's counters into this one (used by multi-phase
    /// benchmarks that time several traces as one measurement).
    pub fn merge(&mut self, other: &RunStats) {
        self.accesses += other.accesses;
        self.reads += other.reads;
        self.writes += other.writes;
        self.cycles += other.cycles;
        self.bytes += other.bytes;
        if self.levels.len() < other.levels.len() {
            self.levels
                .resize(other.levels.len(), LevelStats::default());
        }
        for (mine, theirs) in self.levels.iter_mut().zip(other.levels.iter()) {
            mine.hits += theirs.hits;
            mine.misses += theirs.misses;
            mine.streamed_fills += theirs.streamed_fills;
            mine.unstreamed_fills += theirs.unstreamed_fills;
            mine.write_backs += theirs.write_backs;
        }
        self.dram_accesses += other.dram_accesses;
        self.dram_row_hits += other.dram_row_hits;
        self.dram_bank_conflicts += other.dram_bank_conflicts;
        self.dram_streamed_fills += other.dram_streamed_fills;
        self.write_buffer_stall_cycles += other.write_buffer_stall_cycles;
    }

    /// Exports the run's counters into `out` for the observability layer.
    ///
    /// Cycle quantities are rounded to whole cycles so the export stays in
    /// the integer counter domain; level counters are keyed `l1_*`, `l2_*`,
    /// ... top level first, matching the configured hierarchy order.
    pub fn export_counters(&self, out: &mut CounterSet) {
        out.add("accesses", self.accesses);
        out.add("reads", self.reads);
        out.add("writes", self.writes);
        for (i, level) in self.levels.iter().enumerate() {
            let prefix = format!("l{}", i + 1);
            out.add(&format!("{prefix}_hits"), level.hits);
            out.add(&format!("{prefix}_misses"), level.misses);
            out.add(&format!("{prefix}_streamed_fills"), level.streamed_fills);
            out.add(
                &format!("{prefix}_unstreamed_fills"),
                level.unstreamed_fills,
            );
            out.add(&format!("{prefix}_write_backs"), level.write_backs);
        }
        out.add("dram_accesses", self.dram_accesses);
        out.add("dram_row_hits", self.dram_row_hits);
        out.add("dram_bank_conflicts", self.dram_bank_conflicts);
        out.add("dram_streamed_fills", self.dram_streamed_fills);
        out.add(
            "write_buffer_stall_cycles",
            self.write_buffer_stall_cycles.round() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(LevelStats::default().hit_rate(), 0.0);
        let s = LevelStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cycles_per_access_handles_empty() {
        assert_eq!(RunStats::default().cycles_per_access(), 0.0);
    }

    #[test]
    fn export_counters_names_levels_top_first() {
        let stats = RunStats {
            accesses: 10,
            reads: 7,
            writes: 3,
            levels: vec![
                LevelStats {
                    hits: 5,
                    misses: 5,
                    ..Default::default()
                },
                LevelStats {
                    hits: 4,
                    misses: 1,
                    write_backs: 2,
                    ..Default::default()
                },
            ],
            dram_accesses: 1,
            write_buffer_stall_cycles: 2.6,
            ..Default::default()
        };
        let mut out = CounterSet::new();
        stats.export_counters(&mut out);
        assert_eq!(out.get("accesses"), 10);
        assert_eq!(out.get("l1_hits"), 5);
        assert_eq!(out.get("l2_write_backs"), 2);
        assert_eq!(out.get("dram_accesses"), 1);
        assert_eq!(out.get("write_buffer_stall_cycles"), 3);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = RunStats {
            accesses: 10,
            reads: 10,
            cycles: 100.0,
            bytes: 80,
            levels: vec![LevelStats {
                hits: 5,
                misses: 5,
                ..Default::default()
            }],
            ..Default::default()
        };
        let b = RunStats {
            accesses: 6,
            writes: 6,
            cycles: 30.0,
            bytes: 48,
            levels: vec![
                LevelStats {
                    hits: 1,
                    misses: 5,
                    ..Default::default()
                },
                LevelStats {
                    hits: 2,
                    misses: 3,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 16);
        assert_eq!(a.cycles, 130.0);
        assert_eq!(a.levels.len(), 2);
        assert_eq!(a.levels[0].hits, 6);
        assert_eq!(a.levels[1].misses, 3);
    }
}

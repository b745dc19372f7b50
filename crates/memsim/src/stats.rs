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
}

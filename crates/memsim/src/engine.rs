//! The trace engine: runs access streams through a node and accounts cycles.

use crate::access::{Access, AccessKind, WORD_BYTES};
use crate::config::NodeConfig;
use crate::cpu::CpuConfig;
use crate::error::ConfigError;
use crate::hierarchy::MemoryHierarchy;
use crate::stats::RunStats;

/// A complete simulated node: CPU issue model + memory hierarchy, with a
/// monotonically advancing simulated clock.
///
/// The engine is deliberately single-threaded and deterministic: identical
/// traces over identical configurations always produce identical cycle
/// counts (a property the test suite asserts).
#[derive(Debug, Clone)]
pub struct MemoryEngine {
    cpu: CpuConfig,
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) now: f64,
    /// Priming accesses fast-forwarded instead of simulated.
    pub(crate) replayed: u64,
}

impl MemoryEngine {
    /// Builds an engine for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`MemoryEngine::try_new`]
    /// to handle configuration errors gracefully.
    pub fn new(node: NodeConfig) -> Self {
        match Self::try_new(node) {
            Ok(e) => e,
            Err(err) => panic!("invalid node configuration: {err}"),
        }
    }

    /// Builds an engine for `node`, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any component configuration is invalid.
    pub fn try_new(node: NodeConfig) -> Result<Self, ConfigError> {
        node.validate()?;
        let hierarchy = MemoryHierarchy::new(node.hierarchy, node.cpu.miss_overlap)?;
        Ok(MemoryEngine {
            cpu: node.cpu,
            hierarchy,
            now: 0.0,
            replayed: 0,
        })
    }

    /// The CPU configuration (for clock/bandwidth conversions).
    pub fn cpu(&self) -> &CpuConfig {
        &self.cpu
    }

    /// The memory hierarchy (for probing in tests and coherence layers).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy (coherence layers invalidate lines).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// Current simulated time in cycles since construction or [`Self::flush`].
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Clears all cache/DRAM/stream/write-buffer state and rewinds the clock.
    pub fn flush(&mut self) {
        self.hierarchy.flush();
        self.now = 0.0;
        self.replayed = 0;
    }

    /// Priming accesses that [`MemoryEngine::prime`] fast-forwarded
    /// instead of simulating, since construction or the last
    /// [`Self::flush`].
    pub fn replayed_accesses(&self) -> u64 {
        self.replayed
    }

    /// Runs every access of `trace`, returning the window statistics.
    ///
    /// Statistics cover exactly this call; the hierarchy's tag/row state
    /// carries over between calls (so a priming pass followed by a measured
    /// pass expresses the paper's "primed cache" methodology).
    pub fn run_trace<I>(&mut self, trace: I) -> RunStats
    where
        I: IntoIterator<Item = Access>,
    {
        self.hierarchy.reset_window_stats();
        let mut stats = RunStats::default();
        let start = self.now;
        for access in trace {
            self.step(access);
            stats.accesses += 1;
            match access.kind {
                AccessKind::Read => stats.reads += 1,
                AccessKind::Write => stats.writes += 1,
            }
        }
        // Outstanding buffered writes are part of the transfer's cost.
        let drain = self.hierarchy.drain_writes(self.now);
        self.now += drain;
        stats.cycles = self.now - start;
        stats.bytes = stats.accesses * WORD_BYTES;
        self.hierarchy.export_stats(&mut stats);
        stats
    }

    /// Runs every access of `trace` for its *state effects only*: tags, LRU
    /// stamps, stream detectors, DRAM row/bank state, write-buffer occupancy
    /// and the simulated clock end exactly as after
    /// [`MemoryEngine::run_trace`], but no [`RunStats`] is assembled.
    ///
    /// Unless `literal` (the `--cold` path) simulates every access, a
    /// stretch of the pass that is provably periodic is fast-forwarded
    /// instead (DESIGN.md §5e); every access is still drawn from `trace`,
    /// and the result is bit-identical.
    pub fn prime<I>(&mut self, trace: I, literal: bool)
    where
        I: IntoIterator<Item = Access>,
    {
        if literal {
            for access in trace {
                self.step(access);
            }
        } else {
            crate::period::prime(self, trace.into_iter());
        }
        let drain = self.hierarchy.drain_writes(self.now);
        self.now += drain;
    }

    /// [`MemoryEngine::prime`] with the fast-forward.
    pub fn prime_trace<I>(&mut self, trace: I)
    where
        I: IntoIterator<Item = Access>,
    {
        self.prime(trace, false);
    }

    /// Simulates one access, returning the cycles it added to the clock.
    #[inline(always)]
    pub(crate) fn step(&mut self, access: Access) -> f64 {
        let issue = match access.kind {
            AccessKind::Read => self.cpu.load_issue_cycles,
            AccessKind::Write => self.cpu.store_issue_cycles,
        } + self.cpu.loop_overhead_cycles;
        let cost = match access.kind {
            AccessKind::Read => self.hierarchy.load(access.addr, self.now),
            AccessKind::Write => self.hierarchy.store(access.addr, self.now),
        };
        let cycles = issue + cost.cycles;
        self.now += cycles;
        cycles
    }

    /// Primes the hierarchy with one full pass of `prime` (see
    /// [`MemoryEngine::prime`]), then measures a second pass `measure` —
    /// the paper's methodology: "our micro-benchmarks access all locations
    /// of the working set exactly once, but start with a primed cache for
    /// exactly that working set."
    pub fn prime_and_measure<P, M>(&mut self, prime: P, measure: M, literal: bool) -> RunStats
    where
        P: IntoIterator<Item = Access>,
        M: IntoIterator<Item = Access>,
    {
        self.prime(prime, literal);
        self.run_trace(measure)
    }

    /// Bandwidth of a run in MB/s, counting the bytes the run touched.
    pub fn bandwidth_mb_s(&self, stats: &RunStats) -> f64 {
        self.cpu.bandwidth_mb_s(stats.bytes as f64, stats.cycles)
    }

    /// Bandwidth in MB/s counting only `bytes` as payload (copy benchmarks
    /// count the copied words once even though they issue a load *and* a
    /// store per word).
    pub fn payload_bandwidth_mb_s(&self, bytes: u64, stats: &RunStats) -> f64 {
        self.cpu.bandwidth_mb_s(bytes as f64, stats.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::trace::{CopyPass, StridedPass};

    #[test]
    fn determinism() {
        let run = |literal| {
            let mut e = MemoryEngine::new(presets::tiny_test_node());
            let pass = StridedPass::new(0, 4096, 3);
            e.prime_and_measure(pass.clone(), pass, literal).cycles
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(true), run(false), "a literal prime is state-identical");
    }

    #[test]
    fn primed_small_working_set_hits_l1() {
        let mut e = MemoryEngine::new(presets::tiny_test_node());
        let words = 4 * 1024 / 8; // 4 KB < 8 KB L1
        let pass = StridedPass::new(0, words, 1);
        let stats = e.prime_and_measure(pass.clone(), pass, false);
        assert_eq!(stats.levels[0].misses, 0, "primed 4 KB must fully hit L1");
        let bw = e.bandwidth_mb_s(&stats);
        // 1 cycle per 8-byte load at 100 MHz = 800 MB/s.
        assert!((bw - 800.0).abs() < 1.0, "got {bw}");
    }

    #[test]
    fn large_working_set_misses_to_dram() {
        let mut e = MemoryEngine::new(presets::tiny_test_node());
        let words = 1024 * 1024 / 8; // 1 MB >> 64 KB L2
        let pass = StridedPass::new(0, words, 1);
        let stats = e.prime_and_measure(pass.clone(), pass, false);
        assert!(stats.dram_accesses > 0);
        let bw = e.bandwidth_mb_s(&stats);
        assert!(
            bw < 800.0,
            "DRAM-bound run must be slower than L1, got {bw}"
        );
    }

    #[test]
    fn contiguous_beats_strided_from_dram() {
        let words = 1024 * 1024 / 8;
        let mut e1 = MemoryEngine::new(presets::tiny_test_node());
        let contig = StridedPass::new(0, words, 1);
        let bw_contig = {
            let s = e1.prime_and_measure(contig.clone(), contig, false);
            e1.bandwidth_mb_s(&s)
        };
        let mut e2 = MemoryEngine::new(presets::tiny_test_node());
        let strided = StridedPass::new(0, words, 16);
        let bw_strided = {
            let s = e2.prime_and_measure(strided.clone(), strided, false);
            e2.bandwidth_mb_s(&s)
        };
        assert!(
            bw_contig > 2.0 * bw_strided,
            "stream support must favor contiguous access: {bw_contig} vs {bw_strided}"
        );
    }

    #[test]
    fn working_set_plateau_ordering() {
        // Bandwidth must be monotonically non-increasing across the plateaus:
        // L1-resident > L2-resident > DRAM-resident.
        let bw_at = |bytes: u64| {
            let mut e = MemoryEngine::new(presets::tiny_test_node());
            let pass = StridedPass::new(0, bytes / 8, 1);
            let s = e.prime_and_measure(pass.clone(), pass, false);
            e.bandwidth_mb_s(&s)
        };
        let l1 = bw_at(4 * 1024);
        let l2 = bw_at(32 * 1024);
        let dram = bw_at(1024 * 1024);
        assert!(l1 > l2, "L1 {l1} must beat L2 {l2}");
        assert!(l2 > dram, "L2 {l2} must beat DRAM {dram}");
    }

    #[test]
    fn copy_counts_payload_once() {
        let mut e = MemoryEngine::new(presets::tiny_test_node());
        let words = 64 * 1024 / 8;
        let pass = CopyPass::new(0, 16 << 20, words, 1, 1);
        let stats = e.run_trace(pass);
        assert_eq!(stats.reads, words);
        assert_eq!(stats.writes, words);
        let payload = e.payload_bandwidth_mb_s(words * 8, &stats);
        let raw = e.bandwidth_mb_s(&stats);
        assert!((raw / payload - 2.0).abs() < 1e-9);
    }

    #[test]
    fn write_buffer_coalescing_speeds_contiguous_stores() {
        use crate::trace::StorePass;
        let words = 64 * 1024 / 8;
        let mut e = MemoryEngine::new(presets::tiny_streamed_node());
        let contig = e.run_trace(StorePass::new(0, words, 1));
        let mut e2 = MemoryEngine::new(presets::tiny_streamed_node());
        let strided = e2.run_trace(StorePass::new(0, words, 8));
        assert!(
            contig.cycles < strided.cycles,
            "coalesced contiguous stores must be cheaper: {} vs {}",
            contig.cycles,
            strided.cycles
        );
    }

    #[test]
    fn try_new_rejects_invalid_configs() {
        let mut node = presets::tiny_test_node();
        node.cpu.miss_overlap = 0.0;
        assert!(MemoryEngine::try_new(node).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid node configuration")]
    fn new_panics_on_invalid_configs() {
        let mut node = presets::tiny_test_node();
        node.cpu.clock_mhz = 0.0;
        let _ = MemoryEngine::new(node);
    }
}

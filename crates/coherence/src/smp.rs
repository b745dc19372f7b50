//! A complete bus-based, cache-coherent SMP (the DEC 8400 shape).
//!
//! [`SnoopingSmp`] owns one [`MemoryEngine`] per processor, the shared
//! split-transaction [`Bus`], the shared home DRAM, and a [`Directory`] of
//! line states. It implements the paper's remote micro-benchmark flow
//! (§5.2): "one processor is producing data by storing it while another
//! processor retrieves the same data elements. To ensure race-free behavior,
//! reading takes place after the two processors reached a synchronization
//! point. We measure the transfer bandwidth of the second processor while it
//! is pulling the data over."

use gasnub_interconnect::bus::{Bus, BusConfig, BusJitterConfig};
use gasnub_memsim::access::Access;
use gasnub_memsim::config::NodeConfig;
use gasnub_memsim::dram::{Dram, DramConfig};
use gasnub_memsim::engine::MemoryEngine;
use gasnub_memsim::stats::RunStats;
use gasnub_memsim::{Addr, ConfigError, WORD_BYTES};
use gasnub_trace::CounterSet;

use crate::directory::Directory;

/// Coherence-protocol cost parameters (CPU cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Fixed protocol latency per coherent miss beyond bus occupancy and the
    /// supplier (miss detection, snoop response collection).
    pub read_overhead_cycles: f64,
    /// Supplier latency when a dirty peer cache intervenes (cache-to-cache).
    pub cache_to_cache_cycles: f64,
    /// Outstanding coherent misses that overlap; divides the remote portion
    /// of a pull. The 8400's 21164 sustains very limited overlap on
    /// coherent misses.
    pub pull_overlap: f64,
}

impl ProtocolConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for negative costs or an overlap below one.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.read_overhead_cycles < 0.0 || self.cache_to_cache_cycles < 0.0 {
            return Err(ConfigError::new(
                "coherence protocol",
                "cycle costs must be non-negative",
            ));
        }
        if self.pull_overlap < 1.0 {
            return Err(ConfigError::new(
                "coherence protocol",
                "pull overlap must be at least 1.0",
            ));
        }
        Ok(())
    }
}

/// Static description of the whole SMP.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpConfig {
    /// Number of processors on the bus.
    pub nodes: usize,
    /// Per-processor node configuration (CPU + caches + the DRAM path used
    /// for *local* accesses, whose costs already include crossing the bus).
    pub node: NodeConfig,
    /// The shared system bus.
    pub bus: BusConfig,
    /// Protocol costs.
    pub protocol: ProtocolConfig,
    /// The home memory banks used to supply coherent misses that no cache
    /// intervenes for.
    pub home_dram: DramConfig,
}

impl SmpConfig {
    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Propagates component validation; rejects a zero node count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new("smp", "node count must be at least 1"));
        }
        self.node.validate()?;
        self.bus.validate()?;
        self.protocol.validate()?;
        self.home_dram.validate()
    }
}

/// Runtime state of the snooping SMP.
#[derive(Debug)]
pub struct SnoopingSmp {
    config: SmpConfig,
    engines: Vec<MemoryEngine>,
    bus: Bus,
    home: Dram,
    directory: Directory,
}

impl SnoopingSmp {
    /// Builds the SMP, validating all configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SmpConfig::validate`] errors.
    pub fn new(config: SmpConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let engines = (0..config.nodes)
            .map(|_| MemoryEngine::try_new(config.node.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let bus = Bus::new(config.bus.clone())?;
        let home = Dram::new(config.home_dram.clone())?;
        let line_bytes = config.node.hierarchy.last_level_line_bytes();
        let directory = Directory::new(config.nodes, line_bytes);
        Ok(SnoopingSmp {
            config,
            engines,
            bus,
            home,
            directory,
        })
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SmpConfig {
        &self.config
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.engines.len()
    }

    /// Borrow one processor's engine mutably (local benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn engine_mut(&mut self, node: usize) -> &mut MemoryEngine {
        &mut self.engines[node]
    }

    /// Borrow one processor's engine (probing).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn engine(&self, node: usize) -> &MemoryEngine {
        &self.engines[node]
    }

    /// The directory of line states (inspection/tests).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Total coherent bus transactions so far.
    pub fn bus_transactions(&self) -> u64 {
        self.bus.transactions()
    }

    /// Exports the shared-fabric counters into `out`: bus transactions and
    /// stalls plus directory MESI transitions and peer invalidations.
    pub fn export_counters(&self, out: &mut CounterSet) {
        self.bus.export_counters(out);
        self.directory.export_counters(out);
    }

    /// Attaches (or removes) deterministic arbitration-stall jitter on the
    /// shared bus — the degraded-arbiter fault model. The jitter stream is
    /// indexed by transaction count, so a [`SnoopingSmp::flush`] restarts it
    /// and repeated runs stay reproducible.
    ///
    /// # Errors
    ///
    /// Propagates [`BusJitterConfig::validate`] errors.
    pub fn set_bus_jitter(&mut self, jitter: Option<BusJitterConfig>) -> Result<(), ConfigError> {
        self.bus.set_jitter(jitter)
    }

    /// Flushes all caches, the bus, home memory and the directory.
    pub fn flush(&mut self) {
        for e in &mut self.engines {
            e.flush();
        }
        self.bus.reset();
        self.home.reset();
        self.directory.clear();
    }

    /// Runs a purely local trace on `node` (no coherence traffic is modelled
    /// because the paper's local benchmarks run with "other processors
    /// idle" on untouched data).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn run_local(&mut self, node: usize, trace: impl IntoIterator<Item = Access>) -> RunStats {
        self.engines[node].run_trace(trace)
    }

    /// Runs a producer store pass on `node`, recording ownership in the
    /// directory (the "producing data by storing it" half of §5.2).
    ///
    /// The pass only prepares state for a following
    /// [`SnoopingSmp::consumer_pull`], so it streams through
    /// [`MemoryEngine::prime`], recording each line's directory write as
    /// the store reaches it: fast-forwarded, or with `literal` access by
    /// access (the `--cold` path). Both leave identical state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn producer_store(
        &mut self,
        node: usize,
        trace: impl IntoIterator<Item = Access>,
        literal: bool,
    ) {
        let directory = &mut self.directory;
        let line_bytes = directory.line_bytes();
        let mut last_line = u64::MAX;
        let trace = trace.into_iter().inspect(|a| {
            debug_assert!(a.kind.is_write(), "producer traces must be store passes");
            let line = a.addr / line_bytes;
            if line != last_line {
                directory.record_write(node, a.addr);
                last_line = line;
            }
        });
        self.engines[node].prime(trace, literal);
    }

    /// Is the line containing `addr` still dirty in `node`'s caches?
    fn node_holds_dirty(&self, node: usize, addr: Addr) -> bool {
        let h = self.engines[node].hierarchy();
        let mut level = 0;
        while let Some(c) = h.cache(level) {
            if c.probe_dirty(addr) {
                return true;
            }
            level += 1;
        }
        false
    }

    /// Runs a consumer pull: `consumer` reads data previously produced by
    /// other processors (after a synchronization point). Every consumer
    /// cache miss becomes a coherent bus transaction supplied by the dirty
    /// owner's cache or by home memory.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    pub fn consumer_pull(
        &mut self,
        consumer: usize,
        trace: impl IntoIterator<Item = Access>,
    ) -> RunStats {
        let line_bytes = self.directory.line_bytes();
        let cpu = self.engines[consumer].cpu().clone();
        let mut stats = RunStats::default();
        self.engines[consumer].hierarchy_mut().reset_window_stats();
        let mut now = self.engines[consumer].now();
        let start = now;

        // Pre-computed per access to keep the borrow ranges disjoint.
        let mut cache_supplies = 0u64;
        let mut home_supplies = 0u64;

        for access in trace {
            let addr = access.addr;

            if access.kind.is_write() {
                // Local store of the copy loop. The consumer is latency
                // bound on its coherent misses, so the store's own memory
                // traffic retires entirely under that slack (fig 12:
                // contiguous remote copies run at the pure pull rate); only
                // the issue slot is charged, but the tag state still updates.
                let issue = cpu.store_issue_cycles + cpu.loop_overhead_cycles;
                let _ = self.engines[consumer].hierarchy_mut().store(addr, now);
                now += issue;
                stats.accesses += 1;
                stats.writes += 1;
                continue;
            }

            let owner_dirty = match self.directory.dirty_owner(addr) {
                Some(o) if o != consumer => self.node_holds_dirty(o, addr),
                _ => false,
            };

            let issue = cpu.load_issue_cycles + cpu.loop_overhead_cycles;
            let bus = &mut self.bus;
            let home = &mut self.home;
            let protocol = &self.config.protocol;
            let mut fetched_remotely = false;
            let mut remote_fill = |t: f64| {
                fetched_remotely = true;
                let bus_cycles = bus.transaction(line_bytes, t);
                let supply = if owner_dirty {
                    protocol.cache_to_cache_cycles
                } else {
                    home.access(addr, t).cycles
                };
                (bus_cycles + supply + protocol.read_overhead_cycles) / protocol.pull_overlap
            };
            let cost =
                self.engines[consumer]
                    .hierarchy_mut()
                    .load_supplied(addr, now, &mut remote_fill);
            now += issue + cost.cycles;
            if fetched_remotely {
                if owner_dirty {
                    cache_supplies += 1;
                } else {
                    home_supplies += 1;
                }
                self.directory.record_read(consumer, addr);
            }
            stats.accesses += 1;
            stats.reads += 1;
        }

        stats.cycles = now - start;
        stats.bytes = stats.accesses * WORD_BYTES;
        self.engines[consumer]
            .hierarchy_mut()
            .export_stats(&mut stats);
        // Re-purpose the DRAM counters for supplier provenance.
        stats.dram_accesses = cache_supplies + home_supplies;
        stats.dram_row_hits = 0;
        stats.dram_streamed_fills = cache_supplies;
        stats
    }

    /// Bandwidth of a pull run in MB/s.
    pub fn bandwidth_mb_s(&self, consumer: usize, stats: &RunStats) -> f64 {
        self.engines[consumer]
            .cpu()
            .bandwidth_mb_s(stats.bytes as f64, stats.cycles)
    }

    /// One coherent store by `node`: pays bus + invalidation costs whenever
    /// another processor holds a valid copy of the line (write miss /
    /// upgrade), then takes exclusive ownership.
    fn coherent_store(&mut self, node: usize, addr: Addr, now: f64) -> f64 {
        let mut cycles = 0.0;
        let others_valid = self.directory.others_have_copy(node, addr);
        if others_valid {
            let owner_dirty = match self.directory.dirty_owner(addr) {
                Some(o) if o != node => self.node_holds_dirty(o, addr),
                _ => false,
            };
            let line_bytes = self.directory.line_bytes();
            cycles += self.bus.transaction(line_bytes, now);
            cycles += self.config.protocol.read_overhead_cycles;
            if owner_dirty {
                cycles += self.config.protocol.cache_to_cache_cycles;
            }
            // Invalidate every other processor's copy.
            for i in 0..self.engines.len() {
                if i != node {
                    self.engines[i].hierarchy_mut().invalidate(addr);
                }
            }
        }
        let local = self.engines[node].hierarchy_mut().store(addr, now + cycles);
        cycles += self.engines[node].cpu().store_issue_cycles + local.cycles;
        self.directory.record_write(node, addr);
        cycles
    }

    /// The false-sharing experiment of §1 ("it is advisable … to adjust the
    /// granularity of access so that false sharing is eliminated"): P0 and
    /// P1 alternately store to two words `words_apart` words apart. When
    /// both words share a cache line, every store invalidates the other
    /// processor's copy and the line ping-pongs across the bus; one line
    /// apart, both processors write locally. Returns the average cycles per
    /// store.
    ///
    /// # Panics
    ///
    /// Panics if the system has fewer than two processors or `iterations`
    /// is zero.
    pub fn alternating_store_cycles(&mut self, iterations: u64, words_apart: u64) -> f64 {
        assert!(
            self.engines.len() >= 2,
            "the experiment needs two processors"
        );
        assert!(iterations > 0, "at least one iteration");
        self.flush();
        let mut now = 0.0;
        for _ in 0..iterations {
            now += self.coherent_store(0, 0, now);
            now += self.coherent_store(1, words_apart * 8, now);
        }
        now / (2 * iterations) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_memsim::config::presets;
    use gasnub_memsim::trace::{StorePass, StridedPass};

    fn smp() -> SnoopingSmp {
        let cfg = SmpConfig {
            nodes: 2,
            node: presets::tiny_test_node(),
            bus: BusConfig {
                bus_clock_mhz: 25.0,
                cpu_clock_mhz: 100.0,
                width_bytes: 32,
                arbitration_bus_cycles: 0.5,
                snoop_bus_cycles: 0.5,
                burst: true,
            },
            protocol: ProtocolConfig {
                read_overhead_cycles: 30.0,
                cache_to_cache_cycles: 20.0,
                pull_overlap: 1.0,
            },
            home_dram: presets::tiny_test_node().hierarchy.dram,
        };
        SnoopingSmp::new(cfg).unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut cfg = smp().config().clone();
        cfg.nodes = 0;
        assert!(SnoopingSmp::new(cfg).is_err());
    }

    #[test]
    fn remote_pull_is_much_slower_than_local_read() {
        let words = 256 * 1024 / 8; // larger than all caches
        let mut sys = smp();
        // Local: P0 reads its own (primed) data.
        let local_pass = StridedPass::new(0, words, 1);
        let _ = sys.run_local(0, local_pass.clone());
        let local = sys.run_local(0, local_pass);
        let local_bw = sys.bandwidth_mb_s(0, &local);

        // Remote: P1 produces, P0 pulls.
        let mut sys = smp();
        sys.producer_store(1, StorePass::new(0, words, 1), false);
        let remote = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        let remote_bw = sys.bandwidth_mb_s(0, &remote);

        assert!(
            remote_bw < local_bw / 2.0,
            "coherent pull must be far below local read: {remote_bw} vs {local_bw}"
        );
        assert!(sys.bus_transactions() > 0);
    }

    #[test]
    fn small_working_set_is_supplied_cache_to_cache() {
        // 16 KB fits the producer's 64 KB L2, so lines stay Modified there.
        let words = 16 * 1024 / 8;
        let mut sys = smp();
        sys.producer_store(1, StorePass::new(0, words, 1), false);
        let stats = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        assert!(
            stats.dram_streamed_fills > 0,
            "expected cache-to-cache supplies"
        );
        assert_eq!(
            stats.dram_streamed_fills, stats.dram_accesses,
            "all supplies from the dirty owner"
        );
    }

    #[test]
    fn large_working_set_is_supplied_by_home_memory() {
        // 1 MB evicts the producer's caches almost entirely.
        let words = 1024 * 1024 / 8;
        let mut sys = smp();
        sys.producer_store(1, StorePass::new(0, words, 1), false);
        let stats = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        let cache_frac = stats.dram_streamed_fills as f64 / stats.dram_accesses as f64;
        assert!(
            cache_frac < 0.2,
            "most supplies must come from home memory, got {cache_frac}"
        );
    }

    #[test]
    fn strided_pull_is_slower_than_contiguous_pull() {
        let words = 512 * 1024 / 8;
        let run = |stride: u64| {
            let mut sys = smp();
            sys.producer_store(1, StorePass::new(0, words, 1), false);
            let stats = sys.consumer_pull(0, StridedPass::new(0, words, stride));
            sys.bandwidth_mb_s(0, &stats)
        };
        let contig = run(1);
        let strided = run(16);
        assert!(
            contig > 3.0 * strided,
            "line overfetch must crush strided pulls: {contig} vs {strided}"
        );
    }

    /// The producer pass primes with the fast-forward by default and
    /// literally under a cold context; both must leave the same directory
    /// and the same state for the pull that follows.
    #[test]
    fn producer_pass_is_identical_on_both_priming_paths() {
        let words = 32 * 1024 / 8;
        let run = |literal: bool| {
            let mut sys = smp();
            sys.producer_store(1, StorePass::new(0, words, 1), literal);
            let _ = sys.consumer_pull(0, StridedPass::new(0, words, 1));
            // Producing again invalidates the consumer's copies.
            sys.producer_store(1, StorePass::new(0, words, 1), literal);
            let pull = sys.consumer_pull(0, StridedPass::new(0, words, 3));
            let directory = sys.directory();
            (*directory.tally(), directory.invalidations(), pull)
        };
        let warm = run(false);
        assert!(warm.1 > 0, "the second pass must invalidate copies");
        assert_eq!(warm, run(true));
    }

    #[test]
    fn consumer_rereads_hit_locally() {
        let words = 8 * 1024 / 8; // fits consumer caches
        let mut sys = smp();
        sys.producer_store(1, StorePass::new(0, words, 1), false);
        let first = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        let second = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        assert!(
            second.cycles < first.cycles / 2.0,
            "pulled data must now be cached locally"
        );
        assert_eq!(second.dram_accesses, 0, "no bus traffic on re-read");
    }

    #[test]
    fn false_sharing_makes_lines_ping_pong() {
        let mut sys = smp();
        // Same 64-byte line: every store invalidates the peer's copy.
        let shared = sys.alternating_store_cycles(200, 1);
        // One line apart: after warmup both processors own their line.
        let private = sys.alternating_store_cycles(200, 64 / 8);
        assert!(
            shared > 5.0 * private,
            "false sharing must ping-pong: {shared} vs {private} cycles/store"
        );
    }

    #[test]
    fn bus_jitter_slows_pulls_deterministically() {
        let words = 64 * 1024 / 8;
        let run = |jitter: Option<BusJitterConfig>| {
            let mut sys = smp();
            sys.set_bus_jitter(jitter).unwrap();
            sys.producer_store(1, StorePass::new(0, words, 1), false);
            let stats = sys.consumer_pull(0, StridedPass::new(0, words, 1));
            stats.cycles
        };
        let clean = run(None);
        let jitter = BusJitterConfig {
            amplitude_bus_cycles: 8.0,
            seed: 42,
        };
        let jittered = run(Some(jitter.clone()));
        assert!(
            jittered > clean,
            "arbitration jitter must cost cycles: {jittered} vs {clean}"
        );
        assert_eq!(jittered, run(Some(jitter)), "same seed, same cycle count");
    }

    #[test]
    fn flush_restores_cold_state() {
        let words = 8 * 1024 / 8;
        let mut sys = smp();
        sys.producer_store(1, StorePass::new(0, words, 1), false);
        let _ = sys.consumer_pull(0, StridedPass::new(0, words, 1));
        sys.flush();
        assert_eq!(sys.directory().tracked_lines(), 0);
        assert_eq!(sys.bus_transactions(), 0);
    }
}

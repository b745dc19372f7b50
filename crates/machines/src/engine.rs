//! The shared transfer engine: one implementation of the paper's probes.
//!
//! [`TransferEngine`] owns *all* mutable simulation state for one run
//! (memory hierarchy, NI pipelines, link occupancy, destination DRAM rows)
//! and implements every probe once, parameterized by the backend an
//! immutable [`crate::spec::MachineSpec`] describes. Engines are cheap to
//! construct, `Send`, and independent — a parallel sweep builds one per
//! grid cell.

use gasnub_coherence::smp::SnoopingSmp;
use gasnub_interconnect::link::Link;
use gasnub_interconnect::ni::{ERegisters, T3dNi};
use gasnub_memsim::dram::Dram;
use gasnub_memsim::engine::MemoryEngine;
use gasnub_memsim::stats::RunStats;
use gasnub_memsim::trace::{CopyPass, StorePass, StridedOrder, StridedPass};
use gasnub_memsim::write_buffer::WriteBuffer;
use gasnub_memsim::WORD_BYTES;
use gasnub_trace::{CounterSet, Event, NullRecorder, Recorder};

use crate::cancel::{CancelToken, Guarded};
use crate::limits::MeasureLimits;
use crate::machine::{Machine, MachineId, Measurement};
use crate::memo::{self, MemoKey};
use crate::probe::{ProbeOp, ProbeRequest};
use crate::spec::{T3dRemoteParams, T3eRemoteParams};

/// Byte offset separating source and destination regions.
pub(crate) const DST_REGION: u64 = 1 << 32;

/// Destination PE number used for partner-switch accounting.
const DEST_PE: u32 = 2;

/// Working-set size in 64-bit words (at least one word).
///
/// The single shared copy of the helper every machine model used to
/// duplicate.
pub fn words_of(ws_bytes: u64) -> u64 {
    (ws_bytes / WORD_BYTES).max(1)
}

/// A kernel's result: the measurement plus the measured pass's statistics,
/// when the kernel produced them (see [`TransferEngine::harvest_counters`]).
type Run = (Measurement, Option<RunStats>);

/// Which side of a strided word transfer serializes on memory banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Puts: incoming words are stored in arrival order, so destination
    /// bank busy windows stall the stream.
    Deposit,
    /// Gets: the deeply pipelined E-register reads reorder across banks.
    Fetch,
}

/// Mutable state of the T3D remote path (fetch/deposit circuitry).
#[derive(Debug)]
pub(crate) struct T3dRemotePath {
    params: T3dRemoteParams,
    ni: T3dNi,
    link: Link,
    /// Destination-side write path driven by the deposit circuitry:
    /// coalescing window per the WBQ shape, service time from the
    /// destination DRAM's row state (large-stride deposits reopen a row
    /// per word).
    dest_write: WriteBuffer,
    dest_dram: Dram,
    dest_busy_until: f64,
    /// Remote source DRAM as read by the fetch circuitry.
    remote_dram: Dram,
}

impl T3dRemotePath {
    pub(crate) fn new(
        params: T3dRemoteParams,
        ni: T3dNi,
        link: Link,
        dest_write: WriteBuffer,
        dest_dram: Dram,
        remote_dram: Dram,
    ) -> Self {
        T3dRemotePath {
            params,
            ni,
            link,
            dest_write,
            dest_dram,
            dest_busy_until: 0.0,
            remote_dram,
        }
    }

    fn reset(&mut self) {
        self.ni.reset();
        self.link.reset();
        self.dest_write.reset();
        self.dest_dram.reset();
        self.dest_busy_until = 0.0;
        self.remote_dram.reset();
    }

    /// Runs a deposit transfer: contiguous local loads feed strided remote
    /// stores, coalesced into packets by the write-back queue and injected
    /// by the NI.
    fn run_deposit(
        &mut self,
        engine: &mut MemoryEngine,
        limits: MeasureLimits,
        clock: f64,
        ws_bytes: u64,
        stride: u64,
        cancel: Option<CancelToken>,
    ) -> Measurement {
        engine.flush();
        self.reset();
        let words = words_of(ws_bytes);
        let measured = limits.measure_words(words);

        // Prime the source region so cache effects along the working-set
        // axis match the paper's methodology. The warm path skips the
        // per-access statistics the next line discards anyway.
        let prime = StridedPass::new(0, words, 1).take(limits.prime_words(words) as usize);
        if gasnub_memsim::cold_path() {
            let _ = engine.run_trace(prime);
        } else {
            engine.prime_trace(prime);
        }
        // Scope the hierarchy's statistics window to the measured pass (the
        // window is observational only; costs are unaffected).
        engine.hierarchy_mut().reset_window_stats();

        let cpu = engine.cpu().clone();
        let window = self.params.dest_write.entry_bytes;
        let header = self.params.header_bytes;
        let hops = self.params.hops;
        let coalesce = self.params.dest_write.coalesce;

        let mut now = engine.now();
        let start = now;
        let mut open_window: Option<u64> = None;
        let mut open_bytes: u64 = 0;

        for (k, idx) in Guarded::new(StridedOrder::new(words, stride), cancel)
            .take(measured as usize)
            .enumerate()
        {
            // Contiguous local load of the outgoing word.
            let local_addr = k as u64 * WORD_BYTES;
            let load = engine.hierarchy_mut().load(local_addr, now);
            now += cpu.load_issue_cycles + cpu.loop_overhead_cycles + load.cycles;

            // Remote store: coalesce into packets of `window` bytes.
            let remote_addr = DST_REGION + idx * WORD_BYTES;
            now += cpu.store_issue_cycles;
            let this_window = remote_addr / window;
            let coalesced = coalesce && open_window == Some(this_window);
            if coalesced {
                open_bytes += WORD_BYTES;
            } else {
                if open_window.is_some() {
                    now += self.flush_packet(open_bytes + header, hops, now);
                }
                open_window = Some(this_window);
                open_bytes = WORD_BYTES;
                // The deposit circuitry writes one entity into destination
                // DRAM per window; page-mode keeps low-stride deposits
                // cheap, but each large-stride word reopens a row. A busy
                // destination back-pressures the sender.
                let stall = (self.dest_busy_until - now).max(0.0);
                let service = self.dest_dram.access(remote_addr, now + stall).cycles;
                self.dest_busy_until = now + stall + service;
                now += stall;
            }
        }
        if open_window.is_some() {
            now += self.flush_packet(open_bytes + header, hops, now);
        }
        now = now.max(self.dest_busy_until);
        Measurement::new(measured * WORD_BYTES, now - start, clock)
    }

    /// Injects one packet; the sender observes injection cost plus link
    /// back-pressure (transfer itself is fire-and-forget).
    fn flush_packet(&mut self, wire_bytes: u64, hops: u32, now: f64) -> f64 {
        let inject = self.ni.deposit_packet(wire_bytes, DEST_PE);
        let link_total = self.link.send(wire_bytes, hops, now + inject);
        let link_occupancy = self.link.config().transfer_cycles(wire_bytes, hops);
        let link_stall = (link_total - link_occupancy).max(0.0);
        inject + link_stall
    }

    /// Runs a fetch transfer: strided remote loads through the prefetch
    /// FIFO, contiguous local stores through the write-back queue.
    fn run_fetch(
        &mut self,
        engine: &mut MemoryEngine,
        limits: MeasureLimits,
        clock: f64,
        ws_bytes: u64,
        stride: u64,
        cancel: Option<CancelToken>,
    ) -> Measurement {
        engine.flush();
        self.reset();
        let words = words_of(ws_bytes);
        let measured = limits.measure_words(words);
        let cpu = engine.cpu().clone();
        let row_hit = self.remote_dram.config().row_hit_cycles;

        let mut now = engine.now();
        let start = now;
        for (k, idx) in Guarded::new(StridedOrder::new(words, stride), cancel)
            .take(measured as usize)
            .enumerate()
        {
            let remote_addr = idx * WORD_BYTES;
            // Remote load through the FIFO (round trip amortized by depth).
            now += self.ni.fetch_word(now);
            // Extra penalty when the remote DRAM row must be reopened.
            let dram = self.remote_dram.access(remote_addr, now);
            now += (dram.cycles - row_hit).max(0.0) + dram.bank_stall_cycles;
            // Contiguous local store of the fetched word.
            let local_addr = DST_REGION + k as u64 * WORD_BYTES;
            let store = engine.hierarchy_mut().store(local_addr, now);
            now += cpu.store_issue_cycles + cpu.loop_overhead_cycles + store.cycles;
        }
        now += engine.hierarchy_mut().drain_writes(now);
        Measurement::new(measured * WORD_BYTES, now - start, clock)
    }
}

/// Mutable state of the T3E remote path (E-registers + torus link).
#[derive(Debug)]
pub(crate) struct T3eRemotePath {
    params: T3eRemoteParams,
    eregs: ERegisters,
    link: Link,
    /// Destination memory banks as seen by incoming single-word puts.
    dest_banks: Dram,
}

impl T3eRemotePath {
    pub(crate) fn new(
        params: T3eRemoteParams,
        eregs: ERegisters,
        link: Link,
        dest_banks: Dram,
    ) -> Self {
        T3eRemotePath {
            params,
            eregs,
            link,
            dest_banks,
        }
    }

    fn reset(&mut self) {
        self.eregs.reset();
        self.link.reset();
        self.dest_banks.reset();
    }

    /// Runs one remote transfer of `words` words at `stride` through the
    /// E-registers in the given direction. Unit-stride data moves as
    /// coalesced blocks; non-unit strides move single words.
    #[allow(clippy::too_many_arguments)]
    fn run_remote(
        &mut self,
        engine: &mut MemoryEngine,
        limits: MeasureLimits,
        clock: f64,
        ws_bytes: u64,
        stride: u64,
        dir: Direction,
        cancel: Option<CancelToken>,
    ) -> Measurement {
        engine.flush();
        self.reset();
        let words = words_of(ws_bytes);
        let measured = limits.measure_words(words);
        let hops = self.params.hops;

        let mut now = 0.0;
        now += self.eregs.begin_call();
        let start = now;

        if stride == 1 {
            // Block path: the E-registers gather/scatter whole cache-line
            // sized blocks without per-word processor involvement.
            let block_words = self.params.block_bytes / WORD_BYTES;
            let blocks = measured.div_ceil(block_words);
            for b in Guarded::new(0..blocks, cancel) {
                let wire = self.params.block_bytes + WORD_BYTES; // block + address
                let link_total = self.link.send(wire, hops, now);
                let occupancy = self.link.config().transfer_cycles(wire, hops);
                let link_stall = (link_total - occupancy).max(0.0);
                now += self.params.block_cycles + link_stall;
                let _ = b;
            }
        } else {
            for idx in
                Guarded::new(StridedOrder::new(words, stride), cancel).take(measured as usize)
            {
                let word_cost =
                    self.eregs.transfer_word(now) + self.params.strided_word_extra_cycles;
                now += word_cost;
                if dir == Direction::Deposit {
                    // Incoming words commit to destination banks in arrival
                    // order; a busy bank stalls the stream (Fig. 8 ripples).
                    let addr = DST_REGION + idx * WORD_BYTES;
                    let out = self.dest_banks.access(addr, now);
                    now += out.bank_stall_cycles;
                }
            }
        }
        Measurement::new(measured * WORD_BYTES, now - start, clock)
    }
}

/// The remote paths a node-style backend may carry.
#[derive(Debug)]
pub(crate) enum RemotePath {
    /// No remote capability (custom single-node machines).
    None,
    /// T3D fetch/deposit circuitry.
    T3d(Box<T3dRemotePath>),
    /// T3E E-registers.
    T3e(Box<T3eRemotePath>),
}

/// The mutable simulation substrate behind an engine.
#[derive(Debug)]
pub(crate) enum Backend {
    /// Bus-based SMP (DEC 8400): remote transfers are coherent pulls.
    Smp(SnoopingSmp),
    /// Single PE plus an explicit remote path (T3D, T3E, custom nodes).
    Node {
        engine: MemoryEngine,
        remote: RemotePath,
    },
}

/// A per-run transfer engine: all mutable state of one simulated machine.
///
/// Built by [`crate::spec::MachineSpec::build`] — the only way to get a
/// machine; implements every probe of the [`Machine`] trait exactly once.
#[derive(Debug)]
pub struct TransferEngine {
    id: MachineId,
    /// Registry label ("t3d", "numa2s", …) reported by [`Machine::label`].
    label: String,
    /// Resolved display name ("Cray T3D", "reference custom node", …).
    display: String,
    clock_mhz: f64,
    gather_seed: u64,
    limits: MeasureLimits,
    backend: Backend,
    /// Event sink of the observability layer. The default [`NullRecorder`]
    /// is disabled, so probes skip the whole harvest path.
    recorder: Box<dyn Recorder>,
    /// Counters harvested by the most recent observed probe.
    last_counters: Option<CounterSet>,
    /// Cooperative cancellation token consulted inside probe loops. `None`
    /// (the default) means probes run to completion.
    cancel: Option<CancelToken>,
    /// The originating spec's identity hash — the machine half of every
    /// memo key (see [`crate::memo`]).
    spec_hash: u64,
}

impl TransferEngine {
    /// Assembles an engine around `backend`; `display` is the resolved
    /// display name and `spec_hash` the originating spec's identity.
    pub(crate) fn new(
        id: MachineId,
        label: String,
        display: String,
        backend: Backend,
        gather_seed: u64,
        limits: MeasureLimits,
        spec_hash: u64,
    ) -> Self {
        let clock_mhz = match &backend {
            Backend::Smp(smp) => smp.config().node.cpu.clock_mhz,
            Backend::Node { engine, .. } => engine.cpu().clock_mhz,
        };
        TransferEngine {
            id,
            label,
            display,
            clock_mhz,
            gather_seed,
            limits,
            backend,
            recorder: Box::new(NullRecorder),
            last_counters: None,
            cancel: None,
            spec_hash,
        }
    }

    /// The memo key for a (normalised) probe about to run, or `None` when
    /// memoization does not apply: an enabled recorder (component counters
    /// and events must be recomputed) or the `--cold` escape hatch
    /// ([`gasnub_memsim::cold_path`]).
    fn memo_key(&self, req: &ProbeRequest) -> Option<MemoKey> {
        if self.recorder.enabled() {
            return None;
        }
        req.memo_key(self.spec_hash, self.limits)
    }

    /// Whether an enabled recorder is installed, i.e. probe side effects
    /// (counters, events) matter. Tiered wrappers consult this to force
    /// real simulation for observed probes.
    pub fn recorder_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Access to the underlying SMP system when the backend is bus-based
    /// (for coherence-level tests).
    pub fn smp_system(&self) -> Option<&SnoopingSmp> {
        match &self.backend {
            Backend::Smp(smp) => Some(smp),
            Backend::Node { .. } => None,
        }
    }

    /// Resets every piece of mutable state: caches, DRAM rows, NI
    /// pipelines, link occupancy. Every probe starts from this state, which
    /// is also the just-constructed state — the invariant that makes a
    /// fresh engine per grid cell bit-identical to a reused one.
    fn flush_all(&mut self) {
        match &mut self.backend {
            Backend::Smp(smp) => smp.flush(),
            Backend::Node { engine, remote } => {
                engine.flush();
                match remote {
                    RemotePath::None => {}
                    RemotePath::T3d(path) => path.reset(),
                    RemotePath::T3e(path) => path.reset(),
                }
            }
        }
    }

    /// The memory engine the measuring processor drives.
    fn mem(&mut self) -> &mut MemoryEngine {
        match &mut self.backend {
            Backend::Smp(smp) => smp.engine_mut(0),
            Backend::Node { engine, .. } => engine,
        }
    }

    /// Gathers every component's counters for the probe that just ran.
    ///
    /// `stats` is the measured pass's [`RunStats`] when the probe produced
    /// one; probes that drive the hierarchy directly (the T3D/T3E remote
    /// inner loops) leave it `None` and the hierarchy's statistics window is
    /// read instead. `pull_provenance` marks the SMP consumer-pull stats,
    /// whose DRAM fields are repurposed as supplier provenance — those are
    /// exported as `smp_*_supplies` counters rather than DRAM traffic.
    fn harvest_counters(&self, stats: Option<&RunStats>, pull_provenance: bool) -> CounterSet {
        let mut out = CounterSet::new();
        match &self.backend {
            Backend::Smp(smp) => {
                if let Some(stats) = stats {
                    if pull_provenance {
                        let mut plain = stats.clone();
                        let total = plain.dram_accesses;
                        let cache = plain.dram_streamed_fills;
                        plain.dram_accesses = 0;
                        plain.dram_row_hits = 0;
                        plain.dram_bank_conflicts = 0;
                        plain.dram_streamed_fills = 0;
                        plain.export_counters(&mut out);
                        out.set("smp_supplies_total", total);
                        out.set("smp_cache_supplies", cache);
                        out.set("smp_home_supplies", total - cache);
                    } else {
                        stats.export_counters(&mut out);
                    }
                }
                smp.export_counters(&mut out);
            }
            Backend::Node { engine, remote } => {
                match stats {
                    Some(stats) => stats.export_counters(&mut out),
                    None => {
                        let mut window = RunStats::default();
                        engine.hierarchy().export_stats(&mut window);
                        window.export_counters(&mut out);
                    }
                }
                match remote {
                    RemotePath::None => {}
                    RemotePath::T3d(path) => {
                        path.ni.export_counters(&mut out);
                        path.link.export_counters(&mut out);
                    }
                    RemotePath::T3e(path) => {
                        path.eregs.export_counters(&mut out);
                        path.link.export_counters(&mut out);
                    }
                }
            }
        }
        out
    }

    /// Observes one finished probe: when the recorder is enabled, harvests
    /// all component counters, stamps the payload/cycle totals, records one
    /// `probe.<op>` event and stores the counter set for
    /// [`Machine::take_counters`]. With the default [`NullRecorder`] this is
    /// a single branch. Remote probes that return run statistics are SMP
    /// consumer pulls, whose DRAM fields carry supplier provenance.
    fn observe(&mut self, req: &ProbeRequest, measurement: &Measurement, stats: Option<&RunStats>) {
        if !self.recorder.enabled() {
            return;
        }
        let pull_provenance = req.op.is_remote() && stats.is_some();
        let mut counters = self.harvest_counters(stats, pull_provenance);
        counters.set("payload_bytes", measurement.bytes);
        counters.set("cycles", measurement.cycles.round() as u64);
        let event = Event::new(format!("probe.{}", req.op.label()))
            .with("ws_bytes", req.ws_bytes)
            .with("stride", req.stride)
            .with_counters(&counters);
        self.recorder.record(event);
        self.last_counters = Some(counters);
    }

    /// Wraps a pass iterator so it consults this engine's cancellation
    /// token (if any) every [`crate::cancel::CHECK_INTERVAL`] accesses.
    fn guard<I: Iterator>(&self, pass: I) -> Guarded<I> {
        Guarded::new(pass, self.cancel.clone())
    }

    // The probe kernels behind [`Machine::probe`], one per [`ProbeOp`]. Each
    // starts from the flushed state and returns its measurement with the
    // measured pass's statistics; the remote ones return `None` where the
    // backend has no such path.

    fn sim_local_load(&mut self, ws_bytes: u64, stride: u64) -> Run {
        self.flush_all();
        let (limits, clock) = (self.limits, self.clock_mhz);
        let words = words_of(ws_bytes);
        let prime =
            self.guard(StridedPass::new(0, words, stride).take(limits.prime_words(words) as usize));
        let measured = limits.measure_words(words);
        let measure = self.guard(StridedPass::new(0, words, stride).take(measured as usize));
        let stats = self.mem().prime_and_measure(prime, measure);
        let m = Measurement::new(stats.bytes, stats.cycles, clock);
        (m, Some(stats))
    }

    fn sim_local_store(&mut self, ws_bytes: u64, stride: u64) -> Run {
        self.flush_all();
        let (limits, clock) = (self.limits, self.clock_mhz);
        let words = words_of(ws_bytes);
        let prime =
            self.guard(StorePass::new(0, words, stride).take(limits.prime_words(words) as usize));
        let measured = limits.measure_words(words);
        let measure = self.guard(StorePass::new(0, words, stride).take(measured as usize));
        let stats = self.mem().prime_and_measure(prime, measure);
        let m = Measurement::new(stats.bytes, stats.cycles, clock);
        (m, Some(stats))
    }

    fn sim_local_copy(&mut self, ws_bytes: u64, load_stride: u64, store_stride: u64) -> Run {
        self.flush_all();
        let (limits, clock) = (self.limits, self.clock_mhz);
        let words = words_of(ws_bytes);
        let measured = limits.measure_words(words);
        let prime = self.guard(
            CopyPass::new(0, DST_REGION, words, load_stride, store_stride)
                .take(2 * limits.prime_words(words) as usize),
        );
        let measure = self.guard(
            CopyPass::new(0, DST_REGION, words, load_stride, store_stride)
                .take(2 * measured as usize),
        );
        let stats = self.mem().prime_and_measure(prime, measure);
        // Copied payload counts once.
        let m = Measurement::new(measured * WORD_BYTES, stats.cycles, clock);
        (m, Some(stats))
    }

    fn sim_local_gather(&mut self, ws_bytes: u64) -> Run {
        self.flush_all();
        let (limits, clock) = (self.limits, self.clock_mhz);
        let words = words_of(ws_bytes);
        let measured = limits.measure_words(words);
        let prime =
            self.guard(StridedPass::new(0, words, 1).take(limits.prime_words(words) as usize));
        let indices =
            gasnub_memsim::trace::shuffled_indices(words, measured as usize, self.gather_seed);
        let measure = self.guard(gasnub_memsim::trace::IndexedPass::new(0, indices));
        let stats = self.mem().prime_and_measure(prime, measure);
        let m = Measurement::new(stats.bytes, stats.cycles, clock);
        (m, Some(stats))
    }

    fn sim_remote_load(&mut self, ws_bytes: u64, stride: u64) -> Option<Run> {
        let (limits, clock) = (self.limits, self.clock_mhz);
        let cancel = self.cancel.clone();
        match &mut self.backend {
            Backend::Smp(smp) => {
                smp.flush();
                let words = words_of(ws_bytes);
                // Producer (P1) writes the data; consumer (P0) pulls after a
                // synchronization point (§5.2).
                let produce = StorePass::new(0, words, 1).take(limits.prime_words(words) as usize);
                let _ = smp.producer_store(1, Guarded::new(produce, cancel.clone()));
                let measured = limits.measure_words(words);
                let pull = StridedPass::new(0, words, stride).take(measured as usize);
                let stats = smp.consumer_pull(0, Guarded::new(pull, cancel));
                let m = Measurement::new(stats.bytes, stats.cycles, clock);
                Some((m, Some(stats)))
            }
            // Pure remote loads without a local destination are not one of
            // the paper's torus benchmarks (fig 4 measures shmem_iget
            // transfers).
            Backend::Node { .. } => None,
        }
    }

    fn sim_remote_fetch(&mut self, ws_bytes: u64, stride: u64) -> Option<Run> {
        let (limits, clock) = (self.limits, self.clock_mhz);
        let cancel = self.cancel.clone();
        match &mut self.backend {
            Backend::Smp(smp) => {
                smp.flush();
                let words = words_of(ws_bytes);
                let produce = StorePass::new(0, words, 1).take(limits.prime_words(words) as usize);
                let _ = smp.producer_store(1, Guarded::new(produce, cancel.clone()));
                let measured = limits.measure_words(words);
                // Strided remote loads, contiguous local stores (fig 12).
                let copy =
                    CopyPass::new(0, DST_REGION, words, stride, 1).take(2 * measured as usize);
                let stats = smp.consumer_pull(0, Guarded::new(copy, cancel));
                let m = Measurement::new(measured * WORD_BYTES, stats.cycles, clock);
                Some((m, Some(stats)))
            }
            Backend::Node { engine, remote } => match remote {
                RemotePath::None => None,
                RemotePath::T3d(path) => {
                    Some(path.run_fetch(engine, limits, clock, ws_bytes, stride, cancel))
                }
                RemotePath::T3e(path) => Some(path.run_remote(
                    engine,
                    limits,
                    clock,
                    ws_bytes,
                    stride,
                    Direction::Fetch,
                    cancel,
                )),
            }
            .map(|m| (m, None)),
        }
    }

    fn sim_remote_deposit(&mut self, ws_bytes: u64, stride: u64) -> Option<Run> {
        let (limits, clock) = (self.limits, self.clock_mhz);
        let cancel = self.cancel.clone();
        let deposited = match &mut self.backend {
            // "The DEC 8400 does not have support for pushing data into
            // memory or caches of a remote processor." (§5.2)
            Backend::Smp(_) => None,
            Backend::Node { engine, remote } => match remote {
                RemotePath::None => None,
                RemotePath::T3d(path) => {
                    Some(path.run_deposit(engine, limits, clock, ws_bytes, stride, cancel))
                }
                RemotePath::T3e(path) => Some(path.run_remote(
                    engine,
                    limits,
                    clock,
                    ws_bytes,
                    stride,
                    Direction::Deposit,
                    cancel,
                )),
            },
        };
        deposited.map(|m| (m, None))
    }
}

impl Machine for TransferEngine {
    fn id(&self) -> MachineId {
        self.id
    }

    fn name(&self) -> String {
        format!("{} ({} MHz)", self.display, self.clock_mhz)
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn clock_mhz(&self) -> f64 {
        self.clock_mhz
    }

    fn limits(&self) -> MeasureLimits {
        self.limits
    }

    fn set_limits(&mut self, limits: MeasureLimits) {
        self.limits = limits;
    }

    fn probe(&mut self, req: &ProbeRequest) -> Option<Measurement> {
        let req = req.normalized();
        let key = self.memo_key(&req);
        if let Some(cached) = key.as_ref().and_then(memo::lookup) {
            return cached;
        }
        let (ws, stride) = (req.ws_bytes, req.stride);
        let run = match req.op {
            ProbeOp::LocalLoad => Some(self.sim_local_load(ws, stride)),
            ProbeOp::LocalStore => Some(self.sim_local_store(ws, stride)),
            ProbeOp::LocalCopy => Some(self.sim_local_copy(ws, stride, req.stride2)),
            ProbeOp::LocalGather => Some(self.sim_local_gather(ws)),
            ProbeOp::RemoteLoad => self.sim_remote_load(ws, stride),
            ProbeOp::RemoteFetch => self.sim_remote_fetch(ws, stride),
            ProbeOp::RemoteDeposit => self.sim_remote_deposit(ws, stride),
        };
        let result = run.map(|(m, stats)| {
            self.observe(&req, &m, stats.as_ref());
            m
        });
        if let Some(k) = key {
            memo::insert(k, result);
        }
        result
    }

    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
        self.last_counters = None;
    }

    fn take_counters(&mut self) -> Option<CounterSet> {
        self.last_counters.take()
    }

    fn drain_events(&mut self) -> Vec<Event> {
        self.recorder.drain()
    }

    fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    /// Parallel sweeps move engines across threads; the backends must stay
    /// plain data.
    #[test]
    fn transfer_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TransferEngine>();
    }

    #[test]
    fn words_of_rounds_up_to_one() {
        assert_eq!(words_of(0), 1);
        assert_eq!(words_of(7), 1);
        assert_eq!(words_of(8), 1);
        assert_eq!(words_of(64), 8);
    }

    #[test]
    fn smp_accessor_only_on_bus_backends() {
        let dec = MachineSpec::dec8400().build().unwrap();
        assert!(dec.smp_system().is_some());
        let t3d = MachineSpec::t3d().build().unwrap();
        assert!(t3d.smp_system().is_none());
    }

    fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
        ProbeRequest::new(op, ws, stride)
    }

    /// Without a recorder, probes leave no counters behind; with a
    /// `RingRecorder` installed, each probe harvests counters and records
    /// one event, and the observation does not change the measurement.
    #[test]
    fn recorder_harvests_counters_without_changing_measurements() {
        use gasnub_trace::RingRecorder;

        let mut quiet = MachineSpec::t3d().build().unwrap();
        quiet.set_limits(MeasureLimits::fast());
        let baseline = quiet.probe(&req(ProbeOp::LocalLoad, 64 << 10, 8)).unwrap();
        assert!(quiet.take_counters().is_none());
        assert!(quiet.drain_events().is_empty());

        let mut observed = MachineSpec::t3d().build().unwrap();
        observed.set_limits(MeasureLimits::fast());
        observed.set_recorder(Box::new(RingRecorder::new(16)));
        let measured = observed
            .probe(&req(ProbeOp::LocalLoad, 64 << 10, 8))
            .unwrap();
        assert_eq!(measured.bytes, baseline.bytes);
        assert_eq!(measured.cycles, baseline.cycles);

        let counters = observed.take_counters().expect("harvested counters");
        assert_eq!(counters.get("payload_bytes"), measured.bytes);
        assert!(counters.get("accesses") > 0);
        let events = observed.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "probe.local_load");
        assert_eq!(events[0].field("stride"), Some(8));

        let deposit = observed
            .probe(&req(ProbeOp::RemoteDeposit, 64 << 10, 8))
            .expect("t3d deposits remotely");
        let counters = observed.take_counters().expect("remote counters");
        assert_eq!(counters.get("payload_bytes"), deposit.bytes);
        assert!(counters.get("ni_packets") > 0);
        assert!(counters.get("link_transfers") > 0);
    }

    /// Repeated cells hit the per-process memo instead of re-simulating,
    /// for every op on one machine of each model family, and memoized
    /// results are bit-identical to computed ones. Unsupported outcomes
    /// memoize as `None`, and a gather (which ignores its stride) at a
    /// second stride is served from the first stride's entry. Observed
    /// engines (enabled recorder) bypass the memo entirely so counters and
    /// events stay faithful.
    #[test]
    fn repeated_probes_hit_the_memo_with_identical_results() {
        use crate::memo;
        let _guard = memo::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let bits = |m: Option<Measurement>| m.map(|m| (m.bytes, m.cycles.to_bits()));
        let ops = [
            ProbeOp::LocalLoad,
            ProbeOp::LocalStore,
            ProbeOp::LocalCopy,
            ProbeOp::LocalGather,
            ProbeOp::RemoteLoad,
            ProbeOp::RemoteFetch,
            ProbeOp::RemoteDeposit,
        ];

        let families = [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
            MachineSpec::for_id(MachineId::Custom),
        ];
        for spec in families {
            let mut engine = spec.with_limits(MeasureLimits::fast()).build().unwrap();
            let label = engine.label();
            for op in ops {
                let cell = req(op, 48 << 10, 3);
                let first = engine.probe(&cell);
                let (hits0, _) = memo::stats();
                let second = engine.probe(&cell);
                let (hits1, _) = memo::stats();
                assert!(
                    hits1 > hits0,
                    "{label} {op:?}: repeat must be served by the memo"
                );
                assert_eq!(bits(first), bits(second), "{label} {op:?}");
                if first.is_none() {
                    let key = engine.memo_key(&cell.normalized()).expect("memoizable");
                    assert_eq!(memo::lookup(&key), Some(None), "{label} {op:?}");
                }
            }
            let gather = engine.probe(&req(ProbeOp::LocalGather, 48 << 10, 3));
            let (hits0, _) = memo::stats();
            let restrided = engine.probe(&req(ProbeOp::LocalGather, 48 << 10, 16));
            let (hits1, _) = memo::stats();
            assert!(
                hits1 > hits0,
                "{label}: a gather's stride must not split the memo"
            );
            assert_eq!(bits(gather), bits(restrided), "{label}");
        }

        // An enabled recorder turns memoization off: the probe recomputes
        // and harvests real counters.
        let mut engine = MachineSpec::t3e()
            .with_limits(MeasureLimits::fast())
            .build()
            .unwrap();
        let first = engine.probe(&req(ProbeOp::LocalLoad, 48 << 10, 3));
        engine.set_recorder(Box::new(gasnub_trace::RingRecorder::new(4)));
        let observed = engine.probe(&req(ProbeOp::LocalLoad, 48 << 10, 3));
        assert_eq!(bits(observed), bits(first));
        assert!(engine.take_counters().is_some());
    }
}

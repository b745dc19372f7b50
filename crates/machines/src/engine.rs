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
use gasnub_interconnect::ni::{ERegisters, NiLossConfig, NiLossModel, T3dNi};
use gasnub_memsim::dram::{Dram, DramConfig};
use gasnub_memsim::engine::MemoryEngine;
use gasnub_memsim::stats::RunStats;
use gasnub_memsim::trace::{
    shuffled_indices, CopyPass, IndexedPass, StorePass, StridedOrder, StridedPass,
};
use gasnub_memsim::write_buffer::WriteBuffer;
use gasnub_memsim::{Access, ConfigError, WORD_BYTES};
use gasnub_trace::{CounterSet, Event, NullRecorder, Recorder};

use crate::cancel::{CancelToken, Guarded};
use crate::limits::MeasureLimits;
use crate::machine::{Machine, MachineId, Measurement};
use crate::memo::RunContext;
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

/// One remote transfer, as the remote kernels see it.
struct Transfer {
    op: ProbeOp,
    limits: MeasureLimits,
    /// The clock the measurement is reported at.
    clock: f64,
    ws_bytes: u64,
    stride: u64,
    cancel: Option<CancelToken>,
    /// Whether priming simulates every access (no fast-forward).
    literal: bool,
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
    /// Builds the path's components; `remote_dram` is the source node's
    /// DRAM as the fetch circuitry reads it.
    pub(crate) fn new(
        params: T3dRemoteParams,
        remote_dram: DramConfig,
        loss: Option<NiLossConfig>,
    ) -> Result<Self, ConfigError> {
        let mut path = T3dRemotePath {
            ni: T3dNi::new(params.ni.clone())?,
            link: Link::new(params.link.clone())?,
            dest_write: WriteBuffer::new(params.dest_write.clone())?,
            dest_dram: Dram::new(params.dest_dram.clone())?,
            dest_busy_until: 0.0,
            remote_dram: Dram::new(remote_dram)?,
            params,
        };
        path.ni
            .set_loss_model(loss.map(NiLossModel::new).transpose()?);
        Ok(path)
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
    fn run_deposit(&mut self, engine: &mut MemoryEngine, t: Transfer) -> Measurement {
        let Transfer {
            limits,
            stride,
            cancel,
            ..
        } = t;
        let words = words_of(t.ws_bytes);
        let measured = limits.measure_words(words);

        // Prime the source region so cache effects along the working-set
        // axis match the paper's methodology.
        let prime = StridedPass::new(0, words, 1).take(limits.prime_words(words) as usize);
        engine.prime(prime, t.literal);
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
        Measurement::new(measured * WORD_BYTES, now - start, t.clock)
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
    fn run_fetch(&mut self, engine: &mut MemoryEngine, t: Transfer) -> Measurement {
        let Transfer {
            limits,
            stride,
            cancel,
            ..
        } = t;
        let words = words_of(t.ws_bytes);
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
        Measurement::new(measured * WORD_BYTES, now - start, t.clock)
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
    /// Builds the path's components.
    pub(crate) fn new(
        params: T3eRemoteParams,
        loss: Option<NiLossConfig>,
    ) -> Result<Self, ConfigError> {
        let mut path = T3eRemotePath {
            eregs: ERegisters::new(params.eregs.clone())?,
            link: Link::new(params.link.clone())?,
            dest_banks: Dram::new(params.dest_word_banks.clone())?,
            params,
        };
        path.eregs
            .set_loss_model(loss.map(NiLossModel::new).transpose()?);
        Ok(path)
    }

    fn reset(&mut self) {
        self.eregs.reset();
        self.link.reset();
        self.dest_banks.reset();
    }

    /// Runs one remote fetch or deposit through the E-registers. Unit-stride
    /// data moves as coalesced blocks; non-unit strides move single words.
    fn run_remote(&mut self, t: Transfer) -> Measurement {
        let Transfer {
            limits,
            stride,
            cancel,
            ..
        } = t;
        let words = words_of(t.ws_bytes);
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
                if t.op == ProbeOp::RemoteDeposit {
                    // Incoming puts commit to destination banks in arrival
                    // order; a busy bank stalls the stream (Fig. 8 ripples).
                    // Gets need no such step: the deeply pipelined
                    // E-register reads reorder across banks.
                    let addr = DST_REGION + idx * WORD_BYTES;
                    let out = self.dest_banks.access(addr, now);
                    now += out.bank_stall_cycles;
                }
            }
        }
        Measurement::new(measured * WORD_BYTES, now - start, t.clock)
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
    /// The run this engine belongs to: its memo and priming path.
    ctx: RunContext,
}

impl TransferEngine {
    /// Assembles an engine around `backend`; `display` is the resolved
    /// display name and `spec_hash` the originating spec's identity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: MachineId,
        label: String,
        display: String,
        backend: Backend,
        gather_seed: u64,
        limits: MeasureLimits,
        spec_hash: u64,
        ctx: RunContext,
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
            ctx,
        }
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

    // The probe kernels behind [`Machine::probe`], one for the local and one
    // for the remote ops. Both run on the flushed state and return the
    // measurement with the measured pass's statistics; the remote one
    // returns `None` where the backend has no such path.

    /// The local kernels: a primed pass, then a measured pass over the
    /// measuring processor's hierarchy. Copies count their payload once
    /// (they issue a load and a store per word).
    fn sim_local(&mut self, req: &ProbeRequest, literal: bool) -> Run {
        let (limits, clock) = (self.limits, self.clock_mhz);
        let (words, stride) = (words_of(req.ws_bytes), req.stride);
        let measured = limits.measure_words(words);
        let (primed, m) = (limits.prime_words(words) as usize, measured as usize);
        let stats = match req.op {
            ProbeOp::LocalStore => {
                let pass = StorePass::new(0, words, stride);
                self.prime_and_measure(pass.clone().take(primed), pass.take(m), literal)
            }
            ProbeOp::LocalCopy => {
                let pass = CopyPass::new(0, DST_REGION, words, stride, req.stride2);
                self.prime_and_measure(pass.clone().take(2 * primed), pass.take(2 * m), literal)
            }
            ProbeOp::LocalGather => {
                let prime = StridedPass::new(0, words, 1).take(primed);
                let indices = shuffled_indices(words, m, self.gather_seed);
                self.prime_and_measure(prime, IndexedPass::new(0, indices), literal)
            }
            _ => {
                let pass = StridedPass::new(0, words, stride);
                self.prime_and_measure(pass.clone().take(primed), pass.take(m), literal)
            }
        };
        let bytes = match req.op {
            ProbeOp::LocalCopy => measured * WORD_BYTES,
            _ => stats.bytes,
        };
        (Measurement::new(bytes, stats.cycles, clock), Some(stats))
    }

    /// Primes with one pass and measures another on the measuring
    /// processor's hierarchy. Both consult the cancellation token (if any)
    /// every [`crate::cancel::CHECK_INTERVAL`] accesses.
    fn prime_and_measure(
        &mut self,
        prime: impl Iterator<Item = Access>,
        measure: impl Iterator<Item = Access>,
        literal: bool,
    ) -> RunStats {
        let prime = Guarded::new(prime, self.cancel.clone());
        let measure = Guarded::new(measure, self.cancel.clone());
        self.mem().prime_and_measure(prime, measure, literal)
    }

    fn sim_remote(&mut self, req: &ProbeRequest, literal: bool) -> Option<Run> {
        let t = Transfer {
            op: req.op,
            limits: self.limits,
            clock: self.clock_mhz,
            ws_bytes: req.ws_bytes,
            stride: req.stride,
            cancel: self.cancel.clone(),
            literal,
        };
        match &mut self.backend {
            // "The DEC 8400 does not have support for pushing data into
            // memory or caches of a remote processor." (§5.2)
            Backend::Smp(_) if t.op == ProbeOp::RemoteDeposit => None,
            Backend::Smp(smp) => {
                let (limits, words) = (t.limits, words_of(t.ws_bytes));
                // Producer (P1) writes the data; consumer (P0) pulls after a
                // synchronization point (§5.2).
                let produce = StorePass::new(0, words, 1).take(limits.prime_words(words) as usize);
                smp.producer_store(1, Guarded::new(produce, t.cancel.clone()), t.literal);
                let measured = limits.measure_words(words);
                let (bytes, stats) = if t.op == ProbeOp::RemoteLoad {
                    let pull = StridedPass::new(0, words, t.stride).take(measured as usize);
                    let stats = smp.consumer_pull(0, Guarded::new(pull, t.cancel));
                    (stats.bytes, stats)
                } else {
                    // Strided remote loads, contiguous local stores (fig 12).
                    let copy = CopyPass::new(0, DST_REGION, words, t.stride, 1)
                        .take(2 * measured as usize);
                    let stats = smp.consumer_pull(0, Guarded::new(copy, t.cancel));
                    (measured * WORD_BYTES, stats)
                };
                Some((Measurement::new(bytes, stats.cycles, t.clock), Some(stats)))
            }
            Backend::Node { engine, remote } => {
                let m = match remote {
                    // Pure remote loads without a local destination are not
                    // one of the paper's torus benchmarks (fig 4 measures
                    // shmem_iget transfers).
                    _ if t.op == ProbeOp::RemoteLoad => return None,
                    RemotePath::None => return None,
                    RemotePath::T3d(path) if t.op == ProbeOp::RemoteFetch => {
                        path.run_fetch(engine, t)
                    }
                    RemotePath::T3d(path) => path.run_deposit(engine, t),
                    RemotePath::T3e(path) => path.run_remote(t),
                };
                Some((m, None))
            }
        }
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
        // The one place a probe's shortcuts are decided: only an unobserved
        // probe (no enabled recorder, whose counters must be real) in a
        // context with a memo may skip simulation, and only a cold context
        // primes literally, with no fast-forward.
        let memoized = self.ctx.memo().is_some() && !self.recorder.enabled();
        let key = memoized.then_some((self.spec_hash, req, self.limits));
        let literal = self.ctx.cold;
        if let Some(cached) = key.and_then(|k| self.ctx.memo()?.lookup(&k)) {
            return cached;
        }
        self.flush_all();
        let run = if req.op.is_remote() {
            self.sim_remote(&req, literal)
        } else {
            Some(self.sim_local(&req, literal))
        };
        let result = run.map(|(m, stats)| {
            self.observe(&req, &m, stats.as_ref());
            m
        });
        if let (Some(k), Some(memo)) = (key, self.ctx.memo()) {
            memo.insert(k, result);
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

    /// Repeated cells hit the context's memo instead of re-simulating, for
    /// every op on one machine of each model family, and memoized results
    /// are bit-identical to computed ones. Unsupported outcomes memoize as
    /// `None`, and a gather (which ignores its stride) at a second stride
    /// is served from the first stride's entry. Observed engines (enabled
    /// recorder) bypass the memo entirely so counters and events stay
    /// faithful.
    #[test]
    fn repeated_probes_hit_the_memo_with_identical_results() {
        let ctx = RunContext::fresh();
        let memo = ctx.memo().expect("a fresh context memoizes");
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
            let spec = spec.with_limits(MeasureLimits::fast());
            let mut engine = spec.with_context(ctx.clone()).build().unwrap();
            let label = engine.label();
            for op in ops {
                let cell = req(op, 48 << 10, 3);
                let first = engine.probe(&cell);
                let (hits0, misses0) = memo.stats();
                let second = engine.probe(&cell);
                assert_eq!(
                    memo.stats(),
                    (hits0 + 1, misses0),
                    "{label} {op:?}: repeat must be served by the memo"
                );
                assert_eq!(bits(first), bits(second), "{label} {op:?}");
            }
            let gather = engine.probe(&req(ProbeOp::LocalGather, 48 << 10, 3));
            let (hits0, _) = memo.stats();
            let restrided = engine.probe(&req(ProbeOp::LocalGather, 48 << 10, 16));
            assert_eq!(
                memo.stats().0,
                hits0 + 1,
                "{label}: a gather's stride must not split the memo"
            );
            assert_eq!(bits(gather), bits(restrided), "{label}");
        }

        // An enabled recorder turns memoization off: the probe recomputes
        // and harvests real counters.
        let mut engine = MachineSpec::t3e()
            .with_limits(MeasureLimits::fast())
            .with_context(ctx.clone())
            .build()
            .unwrap();
        let first = engine.probe(&req(ProbeOp::LocalLoad, 48 << 10, 3));
        engine.set_recorder(Box::new(gasnub_trace::RingRecorder::new(4)));
        let before = memo.stats();
        let observed = engine.probe(&req(ProbeOp::LocalLoad, 48 << 10, 3));
        assert_eq!(bits(observed), bits(first));
        assert!(engine.take_counters().is_some());
        assert_eq!(
            memo.stats(),
            before,
            "observed probes never consult the memo"
        );
    }
}

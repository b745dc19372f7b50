//! Immutable machine specifications and the engine-spawning factory.
//!
//! A [`MachineSpec`] is the *description* of a machine: clock and hierarchy
//! parameters, NI/topology configuration, and any fault plan already folded
//! in. It owns no mutable simulation state, is `Clone + Send + Sync`, and
//! can be shared freely across threads. [`MachineSpec::build`] turns it
//! into a fresh [`TransferEngine`] — the cheap per-run object that owns all
//! mutable state. The [`SpawnEngine`] trait abstracts that factory step so
//! the sweep layer (`gasnub-core`) can hand every grid cell its own engine.
//!
//! Machine *identity* is data, not code: a spec is defined by a spec file
//! (see [`crate::specfile`] for the dialect) and the built-in machines are
//! embedded spec files parsed through the same loader. The
//! [`MachineId`] enum survives only as a *model-family tag* — a handful of
//! consumers (shmem call overheads, FFT scalability models, figure
//! renderers) model the three paper machines specifically and key off it;
//! everything else identifies a machine by its [`MachineSpec::label`] and
//! [`MachineSpec::spec_hash`].

use gasnub_coherence::smp::{SmpConfig, SnoopingSmp};
use gasnub_faults::FaultPlan;
use gasnub_interconnect::bus::BusJitterConfig;
use gasnub_interconnect::link::LinkConfig;
use gasnub_interconnect::ni::{ERegistersConfig, NiLossConfig, T3dNiConfig};
use gasnub_memsim::config::NodeConfig;
use gasnub_memsim::dram::DramConfig;
use gasnub_memsim::engine::MemoryEngine;
use gasnub_memsim::write_buffer::WriteBufferConfig;
use gasnub_memsim::{ConfigError, SimError};

use crate::engine::{Backend, RemotePath, T3dRemotePath, T3eRemotePath, TransferEngine};
use crate::limits::MeasureLimits;
use crate::machine::{Machine, MachineId};
use crate::memo::RunContext;
use crate::specfile::{self, SpecError};

/// Remote-path parameters of a `torus` spec: NI fetch/deposit circuitry
/// over point-to-point links (the T3D's, and the NUMA uncore's).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct T3dRemoteParams {
    /// Network interface (packet costs, prefetch FIFO, node-pair sharing).
    pub ni: T3dNiConfig,
    /// Link occupancy in CPU cycles.
    pub link: LinkConfig,
    /// Extra wire bytes per packet.
    pub header_bytes: u64,
    /// Destination-side write path the deposit circuitry drives.
    /// `drain_cycles_per_entry` is unused — the service time comes from
    /// `dest_dram`'s row state.
    pub dest_write: WriteBufferConfig,
    /// Destination DRAM as driven by the deposit circuitry.
    pub dest_dram: DramConfig,
    /// Hops between the benchmark's source and destination PEs.
    pub hops: u32,
}

/// Remote-path parameters of an `eregs` spec (the T3E's E-registers).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct T3eRemoteParams {
    /// The E-register file.
    pub eregs: ERegistersConfig,
    /// Link occupancy in CPU cycles.
    pub link: LinkConfig,
    /// Cycles per coalesced block transfer (unit-stride puts/gets).
    pub block_cycles: f64,
    /// Block size the E-register gather/scatter uses for unit-stride data.
    pub block_bytes: u64,
    /// Extra per-word cycles for non-unit-stride (single-word) operations.
    pub strided_word_extra_cycles: f64,
    /// Destination memory banks as seen by incoming single-word puts.
    pub dest_word_banks: DramConfig,
    /// Hops between source and destination PEs.
    pub hops: u32,
}

/// The model family of a spec, plus its full parameterization.
///
/// The family selects the simulation backend; it deliberately does *not*
/// name a machine. A two-socket NUMA node is a `Torus` (the remote socket
/// is one hop over the processor interconnect), a many-core server is an
/// `Smp` — same models, different parameter files.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SpecKind {
    /// A snooping-bus SMP; remote transfers are coherent consumer pulls.
    Smp {
        smp: SmpConfig,
        bus_jitter: Option<BusJitterConfig>,
    },
    /// One node plus NI fetch/deposit circuitry over point-to-point links.
    Torus {
        node: NodeConfig,
        remote: T3dRemoteParams,
        ni_loss: Option<NiLossConfig>,
    },
    /// One node plus an E-register block/word remote path.
    Eregs {
        node: NodeConfig,
        remote: T3eRemoteParams,
        ni_loss: Option<NiLossConfig>,
    },
    /// A single node without remote paths (local probes only).
    Node { node: NodeConfig },
}

impl SpecKind {
    /// The deterministic seed for the gather probe's index permutation.
    /// Keyed by model family so a zoo-loaded paper machine shuffles
    /// identically to its built-in twin.
    fn gather_seed(&self) -> u64 {
        match self {
            SpecKind::Smp { .. } => 0x8400,
            SpecKind::Torus { .. } => 0x73d,
            SpecKind::Eregs { .. } => 0x73e,
            SpecKind::Node { .. } => 0xC05705,
        }
    }
}

/// A mechanism the paper credits, switched off or re-sized: a parameter
/// overlay applied by [`MachineSpec::ablate`]. Each variant applies to
/// the model family that has the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// §5.1: all four processors access DRAM simultaneously (-8%
    /// contiguous, -25% strided). `smp` specs.
    DramContention,
    /// §2: a different processor count ("We used a four processor system
    /// and also repeated some measurements on an eight processor system").
    /// `smp` specs.
    Processors(usize),
    /// §3.2: the external read-ahead logic disabled ("can be turned on/off
    /// at program load time"). `torus` specs.
    NoReadAhead,
    /// Write-back queue coalescing disabled, locally and in the deposit
    /// circuitry. `torus` specs.
    NoCoalescing,
    /// Footnote 1: both PEs of a node pair communicate simultaneously, so
    /// per-PE link bandwidth halves (≈ 70 MB/s each). `torus` specs.
    PairedTraffic,
    /// The prefetch FIFO unused: "remote loads can be performed in a
    /// transparent blocking manner at minimal speed". `torus` specs.
    BlockingFetch,
    /// Footnote 3: the early T3E test vehicle with streaming support
    /// disabled (measured ~120 MB/s contiguous from DRAM). `eregs` specs.
    NoStreams,
}

/// An immutable, thread-shareable machine description.
///
/// Construction is free of validation — errors surface when
/// [`MachineSpec::build`] assembles the engine. Specs loaded from
/// files ([`MachineSpec::from_spec_str`]) *are* validated at load time,
/// because a file's errors should point at the file.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Model-family tag; `Custom` for everything but the paper machines.
    id: MachineId,
    /// Short registry label ("t3d", "numa2s", …) — the name the CLI
    /// resolves and tables report.
    label: String,
    /// Optional human-readable display name; `None` falls back to the
    /// canonical id display ("Cray T3D") or the label.
    display: Option<String>,
    /// Alternative labels the registry also resolves.
    aliases: Vec<String>,
    /// One-line description for machine listings.
    summary: String,
    /// Relative tolerance for calibration assertions, when the spec
    /// carries calibrated bandwidth expectations.
    calibration_tolerance: Option<f64>,
    kind: SpecKind,
    limits: MeasureLimits,
    /// The run spawned engines belong to; never part of the spec's hash,
    /// rendering or equality.
    ctx: RunContext,
}

/// Embedded spec files: the built-in machines are ordinary zoo files,
/// parsed through the same loader as everything under `machines/zoo/`.
macro_rules! zoo_file {
    ($name:literal) => {
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../machines/zoo/",
            $name
        ))
    };
}

/// The embedded spec text of the built-in machines, in registry order:
/// every file of `machines/zoo/`, so the binary knows the whole zoo from
/// any working directory.
pub(crate) const BUILTIN_SPECS: &[(&str, &str)] = &[
    ("dec8400", zoo_file!("dec8400.toml")),
    ("t3d", zoo_file!("t3d.toml")),
    ("t3e", zoo_file!("t3e.toml")),
    ("custom", zoo_file!("custom.toml")),
    ("numa2s", zoo_file!("numa2s.toml")),
    ("smp16", zoo_file!("smp16.toml")),
];

fn builtin(label: &str) -> MachineSpec {
    let text = BUILTIN_SPECS
        .iter()
        .find(|(name, _)| *name == label)
        .map(|(_, text)| *text)
        .expect("builtin spec table covers every builtin label");
    MachineSpec::from_spec_str(text).expect("embedded builtin specs must parse")
}

impl MachineSpec {
    /// The paper's four-processor DEC 8400: a bus-based, cache-coherent
    /// SMP (§3.1) whose remote transfers are coherent consumer *pulls* —
    /// "The DEC 8400 does not have support for pushing data into memory or
    /// caches of a remote processor" (§5.2).
    pub fn dec8400() -> Self {
        builtin("dec8400")
    }

    /// The paper's Cray T3D PE: a 150 MHz 21064 with only an 8 KB L1,
    /// external read-ahead logic, a coalescing write-back queue, and
    /// fetch/deposit circuitry on a 3D torus (§3.2).
    pub fn t3d() -> Self {
        builtin("t3d")
    }

    /// The paper's Cray T3E PE: a 300 MHz 21164 with six stream buffers and
    /// 512 E-registers that make fetch and deposit symmetric (§3.3, §5.6).
    pub fn t3e() -> Self {
        builtin("t3e")
    }

    /// A user-described single-node machine. The paper's closing argument
    /// is that memory-system models "require measurements of micro
    /// benchmarks" (§9); any node description (caches, DRAM, stream units,
    /// write buffers) runs the same local characterization. Remote probes
    /// return `None`: remote paths need a full interconnect description.
    ///
    /// ```rust
    /// use gasnub_machines::{Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest};
    /// use gasnub_memsim::config::presets;
    ///
    /// let mut machine = MachineSpec::custom("my node", presets::tiny_test_node())
    ///     .with_limits(MeasureLimits::fast())
    ///     .build()?;
    /// let load = machine.probe(&ProbeRequest::new(ProbeOp::LocalLoad, 64 * 1024, 1));
    /// assert!(load.unwrap().mb_s > 0.0);
    /// assert!(machine.probe(&ProbeRequest::new(ProbeOp::RemoteFetch, 1 << 20, 1)).is_none());
    /// # Ok::<(), gasnub_memsim::ConfigError>(())
    /// ```
    pub fn custom(name: impl Into<String>, node: NodeConfig) -> Self {
        MachineSpec {
            id: MachineId::Custom,
            label: "custom".to_string(),
            display: Some(name.into()),
            aliases: Vec::new(),
            summary: String::new(),
            calibration_tolerance: None,
            kind: SpecKind::Node { node },
            limits: MeasureLimits::new(),
            ctx: RunContext::default(),
        }
    }

    /// The paper-parameter spec for a machine id. `Custom` resolves to the
    /// reference node the test presets describe, so every id the CLI can
    /// parse also names a machine that runs.
    pub fn for_id(id: MachineId) -> Self {
        match id {
            MachineId::Dec8400 => Self::dec8400(),
            MachineId::CrayT3d => Self::t3d(),
            MachineId::CrayT3e => Self::t3e(),
            MachineId::Custom => builtin("custom"),
        }
    }

    /// Assembles a spec from decoded parts (the loader's constructor).
    pub(crate) fn from_parts(
        id: MachineId,
        label: String,
        display: Option<String>,
        aliases: Vec<String>,
        summary: String,
        calibration_tolerance: Option<f64>,
        kind: SpecKind,
    ) -> Self {
        MachineSpec {
            id,
            label,
            display,
            aliases,
            summary,
            calibration_tolerance,
            kind,
            limits: MeasureLimits::new(),
            ctx: RunContext::default(),
        }
    }

    /// Parses a machine spec file (see [`crate::specfile`] for the
    /// dialect). The three paper machines keep their canonical
    /// [`MachineId`]; any other spec is [`MachineId::Custom`].
    ///
    /// # Errors
    ///
    /// Returns a structured [`SpecError`] locating the offending line/key
    /// for syntax errors, unknown or missing keys, type mismatches, and
    /// out-of-range values.
    pub fn from_spec_str(text: &str) -> Result<Self, SpecError> {
        specfile::parse_spec(text)
    }

    /// Serializes this spec to the file dialect [`from_spec_str`] reads.
    /// The round trip is exact: `from_spec_str(to_spec_string(s)) == s`
    /// (measurement limits are runtime caps, not part of the description,
    /// and are not serialized).
    ///
    /// [`from_spec_str`]: MachineSpec::from_spec_str
    pub fn to_spec_string(&self) -> String {
        specfile::render_spec(self)
    }

    /// A stable 64-bit identity hash (FNV-1a over the canonical
    /// serialization). Two specs hash equal iff they describe the same
    /// machine — checkpoint headers store this so a resumed sweep can
    /// refuse a checkpoint written by a different machine description.
    pub fn spec_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.to_spec_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// The model-family tag (paper machines keep their canonical id; every
    /// other spec is `Custom`).
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// The short registry label ("t3d", "numa2s", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The human-readable display name: the spec's `display` field, the
    /// canonical machine name for paper machines, or the label.
    pub fn display_name(&self) -> String {
        match (&self.display, self.id) {
            (Some(d), _) => d.clone(),
            (None, MachineId::Custom) => self.label.clone(),
            (None, id) => id.to_string(),
        }
    }

    /// Optional explicit display name from the spec file.
    pub(crate) fn display(&self) -> Option<&str> {
        self.display.as_deref()
    }

    /// Alternative labels the registry resolves to this spec.
    pub fn aliases(&self) -> &[String] {
        &self.aliases
    }

    /// One-line description for machine listings.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Relative tolerance for calibration assertions, if the spec sets one.
    pub fn calibration_tolerance(&self) -> Option<f64> {
        self.calibration_tolerance
    }

    /// The processor clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        match &self.kind {
            SpecKind::Smp { smp, .. } => smp.node.cpu.clock_mhz,
            SpecKind::Torus { node, .. }
            | SpecKind::Eregs { node, .. }
            | SpecKind::Node { node } => node.cpu.clock_mhz,
        }
    }

    /// The node-level memory configuration (caches, DRAM, CPU issue
    /// costs) this spec builds its processing element from. For SMP
    /// specs this is the per-node configuration behind the shared bus.
    pub fn node_config(&self) -> &NodeConfig {
        match &self.kind {
            SpecKind::Smp { smp, .. } => &smp.node,
            SpecKind::Torus { node, .. }
            | SpecKind::Eregs { node, .. }
            | SpecKind::Node { node } => node,
        }
    }

    /// The model family name ("smp", "torus", "eregs", "node").
    pub fn model_family(&self) -> &'static str {
        match &self.kind {
            SpecKind::Smp { .. } => "smp",
            SpecKind::Torus { .. } => "torus",
            SpecKind::Eregs { .. } => "eregs",
            SpecKind::Node { .. } => "node",
        }
    }

    pub(crate) fn kind(&self) -> &SpecKind {
        &self.kind
    }

    /// Replaces the measurement caps every spawned engine starts with.
    #[must_use]
    pub fn with_limits(mut self, limits: MeasureLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The measurement caps spawned engines start with.
    pub fn limits(&self) -> MeasureLimits {
        self.limits
    }

    /// Replaces the run context spawned engines belong to ([`crate::memo`]).
    #[must_use]
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Folds a fault plan into the spec: failed/degraded torus channels
    /// become more hops and a scaled per-byte link rate, network interfaces
    /// pick up the plan's loss model, and bus-based machines give their
    /// arbiter deterministic jitter. Same plan, same cycle counts — the
    /// transform happens once here, not per engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the plan disconnects the canonical remote
    /// pair, or for a node-only machine (which has no remote path or shared
    /// bus to degrade).
    pub fn with_faults(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        match &mut self.kind {
            SpecKind::Smp { bus_jitter, .. } => {
                *bus_jitter = Some(plan.bus_jitter());
            }
            SpecKind::Torus {
                remote, ni_loss, ..
            } => {
                let impact = plan.remote_impact()?;
                remote.hops = impact.hops.max(remote.hops);
                remote.link.cycles_per_byte *= impact.per_byte_scale();
                *ni_loss = Some(plan.ni_loss());
            }
            SpecKind::Eregs {
                remote, ni_loss, ..
            } => {
                let impact = plan.remote_impact()?;
                remote.hops = impact.hops.max(remote.hops);
                remote.link.cycles_per_byte *= impact.per_byte_scale();
                // The coalesced block path is paced by the same bottleneck
                // channel.
                remote.block_cycles *= impact.per_byte_scale();
                *ni_loss = Some(plan.ni_loss());
            }
            SpecKind::Node { .. } => {
                return Err(SimError::unsupported(
                    "fault plans on machines without a remote path or shared bus",
                ));
            }
        }
        Ok(self)
    }

    /// Applies `ablation` as an overlay on this spec's parameters. The
    /// result keeps the label and display name; its
    /// [`MachineSpec::spec_hash`] differs, so the probe memo never serves
    /// an unablated value for it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] when this spec's model family
    /// lacks the mechanism (e.g. [`Ablation::NoStreams`] on an SMP).
    pub fn ablate(mut self, ablation: Ablation) -> Result<Self, SimError> {
        let family = self.model_family();
        match (ablation, &mut self.kind) {
            (Ablation::DramContention, SpecKind::Smp { smp, .. }) => {
                // (streamed multiplier, random multiplier)
                smp.node.hierarchy.dram_stream_contention = 1.10;
                smp.node.hierarchy.dram_contention = 1.45;
            }
            (Ablation::Processors(nodes), SpecKind::Smp { smp, .. }) => smp.nodes = nodes,
            (Ablation::NoReadAhead, SpecKind::Torus { node, .. }) => {
                node.hierarchy.dram_stream = None;
            }
            (Ablation::NoCoalescing, SpecKind::Torus { node, remote, .. }) => {
                if let Some(wb) = &mut node.hierarchy.write_buffer {
                    wb.coalesce = false;
                }
                remote.dest_write.coalesce = false;
            }
            (Ablation::PairedTraffic, SpecKind::Torus { remote, .. }) => {
                // Both the link payload rate and the shared NI's injection
                // port are split between the pair.
                remote.link.cycles_per_byte *= 2.0;
                remote.ni.message.per_message_cycles *= 2.0;
                remote.ni.message.per_byte_cycles *= 2.0;
            }
            (Ablation::BlockingFetch, SpecKind::Torus { remote, .. }) => {
                remote.ni.prefetch_fifo_depth = 1;
            }
            (Ablation::NoStreams, SpecKind::Eregs { node, .. }) => {
                node.hierarchy.dram_stream = None;
                // Without stream buffers the 21164 cannot overlap its misses
                // either: each fill blocks for the full access.
                node.cpu.miss_overlap = 1.0;
            }
            (ablation, _) => {
                return Err(SimError::unsupported(format!(
                    "ablation {ablation:?} on a {family} machine"
                )));
            }
        }
        Ok(self)
    }

    /// Validates the description and assembles a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any component description is invalid.
    pub fn build(self) -> Result<TransferEngine, ConfigError> {
        let spec_hash = self.spec_hash();
        let display = self.display_name();
        let seed = self.kind.gather_seed();
        let backend = match self.kind {
            SpecKind::Smp { smp, bus_jitter } => {
                let mut system = SnoopingSmp::new(smp)?;
                if let Some(jitter) = bus_jitter {
                    system.set_bus_jitter(Some(jitter))?;
                }
                Backend::Smp(system)
            }
            SpecKind::Torus {
                node,
                remote,
                ni_loss,
            } => {
                let remote_dram = node.hierarchy.dram.clone();
                let engine = MemoryEngine::try_new(node)?;
                let path = T3dRemotePath::new(remote, remote_dram, ni_loss)?;
                Backend::Node {
                    engine,
                    remote: RemotePath::T3d(Box::new(path)),
                }
            }
            SpecKind::Eregs {
                node,
                remote,
                ni_loss,
            } => {
                let engine = MemoryEngine::try_new(node)?;
                let path = T3eRemotePath::new(remote, ni_loss)?;
                Backend::Node {
                    engine,
                    remote: RemotePath::T3e(Box::new(path)),
                }
            }
            SpecKind::Node { node } => Backend::Node {
                engine: MemoryEngine::try_new(node)?,
                remote: RemotePath::None,
            },
        };
        Ok(TransferEngine::new(
            self.id,
            self.label,
            display,
            backend,
            seed,
            self.limits,
            spec_hash,
            self.ctx,
        ))
    }
}

/// A thread-shareable factory of independent probe engines.
///
/// The sweep layer is generic over this: each grid cell spawns its own
/// engine, so cells need no synchronization and can run on any thread.
/// Because every probe starts by flushing all mutable state, a fresh engine
/// measures exactly what a reused one would — parallel results are
/// bit-identical to sequential ones.
pub trait SpawnEngine: Sync {
    /// The engine type this factory produces.
    type Engine: Machine + Send;

    /// Builds one independent engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the underlying description is invalid.
    fn spawn_engine(&self) -> Result<Self::Engine, SimError>;
}

impl SpawnEngine for MachineSpec {
    type Engine = TransferEngine;

    fn spawn_engine(&self) -> Result<TransferEngine, SimError> {
        Ok(self.clone().build()?)
    }
}

/// Any `Sync` closure producing a machine is a factory; this keeps ad-hoc
/// uses (tests, custom wrappers) free of boilerplate.
impl<F, M> SpawnEngine for F
where
    F: Fn() -> M + Sync,
    M: Machine + Send,
{
    type Engine = M;

    fn spawn_engine(&self) -> Result<M, SimError> {
        Ok(self())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeOp::{
        LocalCopy, LocalGather, LocalLoad, RemoteDeposit, RemoteFetch, RemoteLoad,
    };
    use crate::probe::{ProbeOp, ProbeRequest};
    use gasnub_memsim::config::presets;

    fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
        ProbeRequest::new(op, ws, stride)
    }

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    /// The measurement caps the paper-machine and ablation tests probe
    /// with.
    fn limits() -> MeasureLimits {
        MeasureLimits {
            max_measure_words: 16 * 1024,
            max_prime_words: 2 * 1024 * 1024,
        }
    }

    fn engine(spec: MachineSpec) -> TransferEngine {
        spec.with_limits(limits()).build().unwrap()
    }

    fn ablated(spec: MachineSpec, ablation: Ablation) -> TransferEngine {
        engine(spec.ablate(ablation).unwrap())
    }

    fn custom() -> TransferEngine {
        MachineSpec::custom("test node", presets::tiny_test_node())
            .with_limits(MeasureLimits::fast())
            .build()
            .unwrap()
    }

    #[test]
    fn spec_is_send_sync_and_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<MachineSpec>();
    }

    #[test]
    fn for_id_covers_every_label() {
        for id in [
            MachineId::Dec8400,
            MachineId::CrayT3d,
            MachineId::CrayT3e,
            MachineId::Custom,
        ] {
            let spec = MachineSpec::for_id(id);
            assert_eq!(spec.id(), id);
            assert_eq!(spec.label(), id.label());
            let engine = spec.build().expect("paper parameters must validate");
            assert_eq!(engine.id(), id);
            assert_eq!(engine.label(), id.label());
        }
    }

    #[test]
    fn paper_machine_spec_hashes_are_pinned() {
        // The zoo files are the only copy of the paper's §3 numbers; these
        // hashes pin them. Any edit to a paper machine's parameters (or to
        // the canonical rendering) moves a hash, and with it every
        // checkpoint header and memo key.
        assert_eq!(MachineSpec::dec8400().spec_hash(), 0x42ba_7dba_cdf4_561c);
        assert_eq!(MachineSpec::t3d().spec_hash(), 0x983a_669e_808b_0b2f);
        assert_eq!(MachineSpec::t3e().spec_hash(), 0x6821_90e1_4a56_ac52);
        // The embedded copies of the non-paper zoo files are pinned the
        // same way.
        assert_eq!(builtin("numa2s").spec_hash(), 0x5ade_1d80_a944_89e2);
        assert_eq!(builtin("smp16").spec_hash(), 0x62e0_208c_202a_76db);
    }

    #[test]
    fn paper_configs_validate() {
        for spec in [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
        ] {
            spec.node_config().validate().unwrap();
            match spec.kind() {
                SpecKind::Smp { smp, .. } => smp.validate().unwrap(),
                SpecKind::Torus { remote, .. } => {
                    remote.ni.validate().unwrap();
                    remote.link.validate().unwrap();
                    remote.dest_write.validate().unwrap();
                }
                SpecKind::Eregs { remote, .. } => {
                    remote.eregs.validate().unwrap();
                    remote.link.validate().unwrap();
                    remote.dest_word_banks.validate().unwrap();
                }
                SpecKind::Node { .. } => panic!("paper machines have remote paths"),
            }
        }
    }

    #[test]
    fn clock_rates_match_paper() {
        assert_eq!(MachineSpec::dec8400().clock_mhz(), 300.0);
        assert_eq!(MachineSpec::t3d().clock_mhz(), 150.0);
        assert_eq!(MachineSpec::t3e().clock_mhz(), 300.0);
        assert_eq!(engine(MachineSpec::t3d()).clock_mhz(), 150.0);
    }

    #[test]
    fn cache_geometry_matches_paper() {
        let dec = MachineSpec::dec8400();
        let levels = &dec.node_config().hierarchy.levels;
        assert_eq!(levels[0].cache.capacity_bytes, 8 * KB);
        assert_eq!(levels[1].cache.capacity_bytes, 96 * KB);
        assert_eq!(levels[1].cache.associativity, 3);
        assert_eq!(levels[2].cache.capacity_bytes, 4 * MB);
        let t3d = MachineSpec::t3d();
        assert_eq!(
            t3d.node_config().hierarchy.levels.len(),
            1,
            "the T3D has only an on-chip L1"
        );
        let t3e = MachineSpec::t3e();
        let hierarchy = &t3e.node_config().hierarchy;
        assert_eq!(hierarchy.levels.len(), 2, "the T3E has no L3");
        assert_eq!(hierarchy.dram_stream.as_ref().unwrap().slots, 6);
    }

    #[test]
    fn bus_peak_is_2_4_gb_s() {
        let engine = engine(MachineSpec::dec8400());
        let smp = engine.smp_system().expect("the 8400 is bus-based");
        assert_eq!(smp.config().nodes, 4);
        assert!((smp.config().bus.peak_mb_s() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn t3d_link_is_300_mb_s() {
        let SpecKind::Torus { remote, .. } = MachineSpec::t3d().kind().clone() else {
            panic!("the T3D is a torus machine");
        };
        assert!((remote.link.bandwidth_mb_s(150.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn eregister_count_is_512() {
        let SpecKind::Eregs { remote, .. } = MachineSpec::t3e().kind().clone() else {
            panic!("the T3E is an eregs machine");
        };
        assert_eq!(remote.eregs.count, 512);
    }

    #[test]
    fn display_names_keep_their_canonical_form() {
        assert_eq!(MachineSpec::dec8400().display_name(), "DEC 8400");
        assert_eq!(MachineSpec::t3d().display_name(), "Cray T3D");
        assert_eq!(MachineSpec::t3e().display_name(), "Cray T3E");
        assert_eq!(
            MachineSpec::for_id(MachineId::Custom).display_name(),
            "reference custom node"
        );
    }

    #[test]
    fn every_ablation_changes_the_spec_hash_and_rejects_other_families() {
        let paper = [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
            MachineSpec::for_id(MachineId::Custom),
        ];
        let ablations = [
            (Ablation::DramContention, "smp"),
            (Ablation::Processors(8), "smp"),
            (Ablation::NoReadAhead, "torus"),
            (Ablation::NoCoalescing, "torus"),
            (Ablation::PairedTraffic, "torus"),
            (Ablation::BlockingFetch, "torus"),
            (Ablation::NoStreams, "eregs"),
        ];
        for (ablation, family) in ablations {
            for spec in &paper {
                let result = spec.clone().ablate(ablation);
                if spec.model_family() != family {
                    assert!(
                        matches!(result, Err(SimError::Unsupported { .. })),
                        "{ablation:?} must not apply to {}",
                        spec.label()
                    );
                    continue;
                }
                // A changed hash keeps the memo from serving an unablated
                // value for the ablated machine.
                let ablated = result.unwrap();
                assert_ne!(ablated.spec_hash(), spec.spec_hash(), "{ablation:?}");
                assert_eq!(ablated.label(), spec.label());
                let back = MachineSpec::from_spec_str(&ablated.to_spec_string()).unwrap();
                assert_eq!(back, ablated, "{ablation:?} round-trips");
            }
        }
        assert!(MachineSpec::dec8400()
            .ablate(Ablation::Processors(0))
            .unwrap()
            .build()
            .is_err());
    }

    #[test]
    fn contended_dram_is_slower_mostly_for_strided() {
        let mut idle = engine(MachineSpec::dec8400());
        let mut loaded = ablated(MachineSpec::dec8400(), Ablation::DramContention);
        let idle_contig = idle.probe(&req(LocalLoad, 32 * MB, 1)).unwrap().mb_s;
        let load_contig = loaded.probe(&req(LocalLoad, 32 * MB, 1)).unwrap().mb_s;
        let idle_strided = idle.probe(&req(LocalLoad, 32 * MB, 16)).unwrap().mb_s;
        let load_strided = loaded.probe(&req(LocalLoad, 32 * MB, 16)).unwrap().mb_s;
        let contig_drop = 1.0 - load_contig / idle_contig;
        let strided_drop = 1.0 - load_strided / idle_strided;
        assert!(
            contig_drop > 0.0 && contig_drop < 0.15,
            "contig drop {contig_drop}"
        );
        assert!(
            strided_drop > 0.15 && strided_drop < 0.40,
            "strided drop {strided_drop}"
        );
    }

    #[test]
    fn eight_processor_system_measures_identically_when_idle() {
        // §2: with the other processors idle, per-processor results match.
        let mut four = engine(MachineSpec::dec8400());
        let mut eight = ablated(MachineSpec::dec8400(), Ablation::Processors(8));
        let a = four.probe(&req(LocalLoad, 32 * MB, 1)).unwrap().mb_s;
        let b = eight.probe(&req(LocalLoad, 32 * MB, 1)).unwrap().mb_s;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        let ra = four.probe(&req(RemoteLoad, 32 * MB, 16)).unwrap().mb_s;
        let rb = eight.probe(&req(RemoteLoad, 32 * MB, 16)).unwrap().mb_s;
        assert!((ra - rb).abs() / ra < 0.05, "{ra} vs {rb}");
    }

    #[test]
    fn read_ahead_ablation_loses_the_edge() {
        let with = engine(MachineSpec::t3d())
            .probe(&req(LocalLoad, 8 * MB, 1))
            .unwrap()
            .mb_s;
        let without = ablated(MachineSpec::t3d(), Ablation::NoReadAhead)
            .probe(&req(LocalLoad, 8 * MB, 1))
            .unwrap()
            .mb_s;
        assert!(
            with / without > 1.2,
            "read-ahead must matter: {with} vs {without}"
        );
    }

    #[test]
    fn coalescing_ablation_hurts_contiguous_deposits() {
        let with = engine(MachineSpec::t3d())
            .probe(&req(RemoteDeposit, MB, 1))
            .unwrap()
            .mb_s;
        let without = ablated(MachineSpec::t3d(), Ablation::NoCoalescing)
            .probe(&req(RemoteDeposit, MB, 1))
            .unwrap()
            .mb_s;
        assert!(
            with > 1.3 * without,
            "coalescing must matter: {with} vs {without}"
        );
    }

    #[test]
    fn blocking_fetch_is_worse_than_fifo_fetch() {
        let fifo = engine(MachineSpec::t3d())
            .probe(&req(RemoteFetch, MB, 1))
            .unwrap()
            .mb_s;
        let blocking = ablated(MachineSpec::t3d(), Ablation::BlockingFetch)
            .probe(&req(RemoteFetch, MB, 1))
            .unwrap()
            .mb_s;
        assert!(fifo > 2.0 * blocking, "FIFO {fifo} vs blocking {blocking}");
    }

    #[test]
    fn paired_traffic_reduces_deposit_bandwidth() {
        let single = engine(MachineSpec::t3d())
            .probe(&req(RemoteDeposit, MB, 1))
            .unwrap()
            .mb_s;
        let paired = ablated(MachineSpec::t3d(), Ablation::PairedTraffic)
            .probe(&req(RemoteDeposit, MB, 1))
            .unwrap()
            .mb_s;
        assert!(paired < single, "{paired} vs {single}");
    }

    #[test]
    fn streams_ablation_collapses_contiguous_dram() {
        // Footnote 3: the test vehicle without streaming measured about
        // 120 MB/s.
        let with = engine(MachineSpec::t3e())
            .probe(&req(LocalLoad, 8 * MB, 1))
            .unwrap()
            .mb_s;
        let without = ablated(MachineSpec::t3e(), Ablation::NoStreams)
            .probe(&req(LocalLoad, 8 * MB, 1))
            .unwrap()
            .mb_s;
        assert!(
            with / without > 2.0,
            "streams must matter: {with} vs {without}"
        );
        assert!(
            without < 250.0,
            "streams-off must fall well below 430: {without}"
        );
    }

    #[test]
    fn custom_specs_validate_at_build() {
        let mut node = presets::tiny_test_node();
        node.cpu.clock_mhz = 0.0;
        assert!(MachineSpec::custom("bad", node).build().is_err());
    }

    #[test]
    fn custom_machines_run_the_local_probes_only() {
        let mut m = custom();
        assert_eq!(m.id(), MachineId::Custom);
        assert!(m.name().contains("test node") && m.name().contains("100"));
        let l1 = m.probe(&req(LocalLoad, 4 << 10, 1)).unwrap().mb_s;
        let dram = m.probe(&req(LocalLoad, 2 << 20, 1)).unwrap().mb_s;
        assert!(l1 > 2.0 * dram, "L1 {l1} vs DRAM {dram}");
        assert!(m.probe(&req(LocalCopy, 1 << 20, 1)).unwrap().mb_s > 0.0);
        assert!(m.probe(&req(LocalGather, 1 << 20, 0)).unwrap().mb_s > 0.0);
        assert!(m.probe(&req(RemoteFetch, 1 << 20, 1)).is_none());
        assert!(m.probe(&req(RemoteDeposit, 1 << 20, 1)).is_none());
    }

    #[test]
    fn faults_on_node_only_specs_are_unsupported() {
        let plan = FaultPlan::new(1, 0.5).unwrap();
        let spec = MachineSpec::for_id(MachineId::Custom);
        assert!(spec.with_faults(&plan).is_err());
    }

    #[test]
    fn fault_plans_fold_into_the_spec_deterministically() {
        let plan = FaultPlan::new(7, 0.6).unwrap();
        let a = MachineSpec::t3d()
            .with_faults(&plan)
            .unwrap()
            .with_limits(MeasureLimits::fast());
        let b = MachineSpec::t3d()
            .with_faults(&plan)
            .unwrap()
            .with_limits(MeasureLimits::fast());
        let ma = a
            .spawn_engine()
            .unwrap()
            .probe(&req(RemoteDeposit, 1 << 20, 8))
            .unwrap();
        let mb = b
            .spawn_engine()
            .unwrap()
            .probe(&req(RemoteDeposit, 1 << 20, 8))
            .unwrap();
        assert_eq!(ma.cycles.to_bits(), mb.cycles.to_bits());
    }

    #[test]
    fn spec_hash_distinguishes_machines_and_is_stable() {
        let hashes: Vec<u64> = [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
            MachineSpec::for_id(MachineId::Custom),
        ]
        .iter()
        .map(MachineSpec::spec_hash)
        .collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "distinct machines must hash differently");
            }
        }
        assert_eq!(
            MachineSpec::t3d().spec_hash(),
            MachineSpec::t3d().spec_hash()
        );
    }

    #[test]
    fn closures_are_spawners() {
        fn takes_spawner<S: SpawnEngine>(s: &S) -> MachineId {
            s.spawn_engine().unwrap().id()
        }
        let spawner = || engine(MachineSpec::t3e());
        assert_eq!(takes_spawner(&spawner), MachineId::CrayT3e);
    }
}

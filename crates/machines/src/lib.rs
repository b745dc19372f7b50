#![warn(missing_docs)]

//! # gasnub-machines
//!
//! Machine models of the three parallel systems characterized by Stricker &
//! Gross (HPCA-3, 1997), assembled from the `gasnub-memsim`,
//! `gasnub-interconnect` and `gasnub-coherence` substrates with the paper's
//! §3 parameters:
//!
//! * [`MachineSpec::dec8400`] — 300 MHz 21164 (EV-5), three cache levels
//!   (8 KB L1 / 96 KB L2 / 4 MB L3), interleaved DRAM, 256-bit 75 MHz
//!   coherent bus; remote transfers are coherent consumer *pulls*.
//! * [`MachineSpec::t3d`] — 150 MHz 21064 (EV-4), 8 KB L1 only, external
//!   read-ahead logic and coalescing write-back queue, 3D torus with
//!   fetch/deposit circuitry; deposit ≫ naive fetch.
//! * [`MachineSpec::t3e`] — 300 MHz 21164, L1/L2 on chip, six stream
//!   buffers, no L3, 512 E-registers; fetch ≈ deposit at 4x the T3D's
//!   remote bandwidth.
//!
//! A machine is data: a [`MachineSpec`] parsed from a spec file. The paper
//! machines are the embedded `machines/zoo/*.toml` files, whose comments
//! carry the rationale for every calibrated number, and the
//! [`MachineRegistry`] adds whatever else the zoo directory holds. A spec
//! is immutable and `Clone + Send + Sync`; [`MachineSpec::build`] produces
//! a fresh [`TransferEngine`] owning all mutable simulation state and
//! implementing every probe exactly once, and the [`SpawnEngine`] factory
//! trait lets the sweep layer hand each grid cell its own engine.
//! Variants are overlays on a spec: [`MachineSpec::with_faults`] folds in
//! a [`FaultPlan`] (failed/degraded torus channels, lossy network
//! interfaces, a jittery bus arbiter) and [`MachineSpec::ablate`] switches
//! off one of the mechanisms the paper credits ([`Ablation`]).
//!
//! Every engine implements the [`machine::Machine`] trait, whose single
//! probing method, [`Machine::probe`], answers a [`ProbeRequest`]: the
//! surface the characterization layer (`gasnub-core`) sweeps. Absolute
//! cycle parameters are calibrated against the ~30 bandwidth figures quoted
//! in the paper's prose; [`calibration`] holds that table and the test
//! suite asserts it (see `EXPERIMENTS.md` for paper-vs-measured).
//!
//! ## Example
//!
//! ```rust
//! use gasnub_machines::{Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest};
//!
//! let mut t3d = MachineSpec::t3d().with_limits(MeasureLimits::fast()).build()?;
//! // The read-ahead logic makes contiguous DRAM loads far faster than
//! // strided ones (fig 3).
//! let mut load = |stride| t3d.probe(&ProbeRequest::new(ProbeOp::LocalLoad, 8 << 20, stride));
//! let contiguous = load(1).unwrap().mb_s;
//! let strided = load(16).unwrap().mb_s;
//! assert!(contiguous > 3.0 * strided);
//! # Ok::<(), gasnub_memsim::ConfigError>(())
//! ```

pub mod calibration;
pub mod cancel;
pub mod engine;
pub mod limits;
pub mod machine;
pub mod memo;
pub mod probe;
pub mod registry;
pub mod spec;
pub mod specfile;
pub mod warm;

pub use cancel::{CancelToken, CellCancelled};
pub use engine::{words_of, TransferEngine};
pub use gasnub_faults::{FaultPlan, RouteImpact};
pub use gasnub_trace::{CounterSet, Event, NullRecorder, Recorder, RingRecorder};
pub use limits::MeasureLimits;
pub use machine::{Machine, MachineId, Measurement};
pub use memo::{Memo, RunContext};
pub use probe::{ProbeOp, ProbePath, ProbeRequest, ProbeTier};
pub use registry::{BrokenSpec, MachineRegistry, ResolveError};
pub use spec::{Ablation, MachineSpec, SpawnEngine};
pub use specfile::SpecError;
pub use warm::WarmState;

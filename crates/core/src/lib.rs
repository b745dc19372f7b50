#![warn(missing_docs)]

//! # gasnub-core
//!
//! The paper's primary contribution, as a library: an **extended
//! copy-transfer model** for characterizing memory system performance of
//! parallel systems with a global address space and non-uniform bandwidth.
//!
//! The copy-transfer model (Stricker & Gross, ISCA '95, extended in the
//! HPCA-3 paper reproduced here) characterizes a memory system by the
//! *bandwidth* of basic copy transfers, parameterized by
//!
//! * the **access pattern** — the stride between the 64-bit words touched —
//!   capturing spatial locality, and
//! * the **working set** — the bytes touched — capturing temporal locality
//!   (the HPCA-3 extension: "we extend the copy transfer model by a working
//!   set parameter", §4.1),
//!
//! for local accesses, remote accesses (communication), and both transfer
//! styles (fetch/deposit).
//!
//! The crate provides:
//!
//! * [`mod@bench`] — the three micro-benchmarks of §4.2 (Load-Sum, Load/Store
//!   copy, Store-Constant) dispatched onto any
//!   [`gasnub_machines::Machine`];
//! * [`sweep`] — the stride x working-set sweep driver with the paper's
//!   grid axes;
//! * [`mod@pool`] — a dependency-free work-distributing thread pool; the
//!   one run scheduler behind [`bench::sweep_surface_par`],
//!   [`counters::collect_counters`] and
//!   [`resilient::ResilientSweep::run_parallel`] uses it to spread
//!   same-stride runs of grid cells across workers, one warm engine
//!   (spawned from a [`gasnub_machines::MachineSpec`]) per run, with
//!   results gathered in grid order so parallel sweeps are bit-identical
//!   to sequential ones;
//! * [`surface`] — the 2D bandwidth surface (figs 1-8) with CSV and
//!   terminal rendering;
//! * [`counters`] — per-cell counter reports (cache misses, bus
//!   transactions, NI packets, MESI transitions) harvested through
//!   `gasnub-trace` recorders: the *mechanism* behind every bandwidth
//!   number, rendered as canonical JSON (the golden-trace fixture format)
//!   or counter-annotated CSV;
//! * [`resilient`] — a checkpointed, resumable, panic-isolating sweep
//!   runner (with [`json`] as its dependency-free persistence format) for
//!   long or degraded-machine sweeps;
//! * [`profile`] — one-call characterization of a machine (all surfaces);
//! * [`cost`] — the compiler-facing cost model: given the measured
//!   characterization, pick the cheapest way to implement a transfer
//!   (deposit vs. fetch vs. pack-then-send), reproducing the paper's §9
//!   guidance.
//!
//! ## Example
//!
//! ```rust
//! use gasnub_core::sweep::Grid;
//! use gasnub_core::bench::{sweep_surface, SweepOp};
//! use gasnub_machines::{MachineSpec, MeasureLimits};
//!
//! let mut t3d = MachineSpec::t3d().with_limits(MeasureLimits::fast()).build()?;
//! let surface = sweep_surface(&mut t3d, SweepOp::LocalLoad, &Grid::quick()).unwrap();
//! // Contiguous DRAM access is far faster than strided on the T3D.
//! let ws = 4 * 1024 * 1024;
//! assert!(surface.value(ws, 1).unwrap() > 2.0 * surface.value(ws, 16).unwrap());
//! # Ok::<(), gasnub_memsim::ConfigError>(())
//! ```

pub mod bench;
pub mod chaos;
pub mod compare;
pub mod cost;
pub mod counters;
pub mod json;
pub mod pool;
pub mod profile;
pub mod report;
pub mod resilient;
pub mod storage;
pub mod surface;
pub mod sweep;

pub use chaos::{AppliedFault, FaultInjector, StorageFault};
pub use storage::{read_verified, write_durable, CheckpointError};

pub use bench::{sweep_surface, sweep_surface_par, SweepOp};
pub use compare::{Comparison, MachineSummary};
pub use cost::{CostModel, Strategy, TransferEstimate};
pub use counters::{collect_counters, CellReport, CounterReport};
pub use pool::{auto_threads, run_indexed, run_indexed_while};
pub use profile::MachineProfile;
pub use resilient::{FailedCell, FailureKind, ResilientSweep, SweepError, SweepOutcome};
pub use surface::Surface;
pub use sweep::Grid;

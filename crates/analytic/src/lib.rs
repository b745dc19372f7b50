#![warn(missing_docs)]

//! # gasnub-analytic
//!
//! An ECM-style closed-form bandwidth model ([Treibig & Hager,
//! arXiv:0905.0792]) derived automatically from any
//! [`gasnub_machines::MachineSpec`], and the tiered dispatch that wires it
//! in as a fast path beside the cycle-accounting simulator.
//!
//! The paper's characterization surfaces are plateau functions: per-level
//! bandwidths, flat in the working set wherever one hierarchy level
//! dominates, with stride-dependent effective line utilization selecting
//! the plateau height. [`AnalyticModel`] exploits exactly that structure —
//! regime windows derived from the spec's cache capacities, plateau values
//! calibrated by probing the simulator at a handful of anchor working sets
//! per `(op, stride)` class, and an explicit *trust* rule: a cell's answer
//! is only trusted when the simulator demonstrably sits on a flat plateau
//! around it. Trusted cells cost O(1) arithmetic instead of an
//! O(working-set) simulation — the ≥100x fast path behind million-cell
//! sweeps.
//!
//! [`TieredSpec`]/[`TieredMachine`] package the model with a full
//! simulator engine behind the unified probe API
//! ([`gasnub_machines::ProbeRequest`]): the `auto` tier answers trusted
//! cells analytically and simulates the rest; `analytic` forces the model
//! everywhere (validation); `sim` is bit-compatible with pre-tier
//! behavior. Fault plans and enabled recorders always route to the
//! simulator; `--cold` changes how the simulator runs, not the route.
//!
//! ```rust
//! use gasnub_analytic::TieredSpec;
//! use gasnub_machines::{
//!     Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, ProbeTier, SpawnEngine,
//! };
//!
//! let spec = MachineSpec::t3e().with_limits(MeasureLimits::fast());
//! let tiered = TieredSpec::new(spec, ProbeTier::Auto).unwrap();
//! let mut machine = tiered.spawn_engine().unwrap();
//! // In-L1 cell: answered from the calibrated plateau, no simulation.
//! let cell = ProbeRequest::new(ProbeOp::LocalLoad, 2 << 10, 1);
//! let bw = machine.probe(&cell).unwrap().mb_s;
//! assert!(bw > 0.0);
//! ```

pub mod model;
pub mod tiered;

pub use model::{AnalyticModel, Prediction, DEFAULT_TOLERANCE};
pub use tiered::{TieredMachine, TieredSpec};

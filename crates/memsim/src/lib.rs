#![warn(missing_docs)]

//! # gasnub-memsim
//!
//! A deterministic, trace-driven, cycle-accounting **memory hierarchy
//! simulator**. This crate is the lowest-level substrate of the GASNUB
//! reproduction of Stricker & Gross, *"Global Address Space, Non-Uniform
//! Bandwidth"* (HPCA-3, 1997).
//!
//! The paper characterizes memory system *bandwidth* as a function of access
//! pattern (stride) and working set. This simulator reproduces the hardware
//! mechanisms that give those surfaces their shape:
//!
//! * [`cache::Cache`] — tag-array cache simulation (capacity, line size,
//!   associativity, write/allocate policy) → working-set plateaus and
//!   per-line overfetch for strided access;
//! * [`dram::Dram`] — banked DRAM with open-row (page-mode) state →
//!   contiguous/strided gap and even-stride bank-conflict ripples;
//! * [`stream::StreamDetector`] — sequential stream detection / read-ahead →
//!   the Cray machines' contiguous-DRAM advantage;
//! * [`write_buffer::WriteBuffer`] — coalescing write-back queue → the
//!   T3D's strided-store advantage;
//! * [`engine::MemoryEngine`] — ties a CPU issue model and a
//!   [`hierarchy::MemoryHierarchy`] together and runs access traces,
//!   producing cycle counts and bandwidth figures.
//!
//! Everything is deterministic: the same trace and configuration always
//! produce the same cycle count. No wall-clock timing is involved; simulated
//! bandwidth is computed as `bytes * clock_mhz / cycles`.
//!
//! ## Example
//!
//! ```rust
//! use gasnub_memsim::config::presets;
//! use gasnub_memsim::engine::MemoryEngine;
//! use gasnub_memsim::trace::StridedPass;
//!
//! // A small, generic two-level machine.
//! let mut engine = MemoryEngine::new(presets::tiny_test_node());
//! // Stream 64 KB through it contiguously.
//! let pass = StridedPass::new(0, 64 * 1024 / 8, 1);
//! let stats = engine.run_trace(pass.clone());
//! assert!(stats.cycles > 0.0);
//! let mb_s = engine.bandwidth_mb_s(&stats);
//! assert!(mb_s > 0.0);
//! ```

pub mod access;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod dram;
pub mod engine;
pub mod error;
pub mod hierarchy;
mod period;
pub mod replay;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod write_buffer;

pub use access::{Access, AccessKind, Addr, WORD_BYTES};
pub use config::NodeConfig;
pub use engine::MemoryEngine;
pub use error::{ConfigError, SimError};
pub use stats::{LevelStats, RunStats};

#![warn(missing_docs)]

//! # gasnub-bench
//!
//! The figure-regeneration harness: one entry per figure of the paper's
//! evaluation (figs 1-17) plus the ablation studies called out in
//! `DESIGN.md`. Each [`Figure`] renders the same rows/series the paper
//! reports, as an aligned text table plus CSV.
//!
//! Run `gasnub figures list` for the index, or `gasnub figures all --quick`
//! to regenerate everything on reduced grids. The crate's binaries record
//! the committed baselines: `experiments` (`EXPERIMENTS.md`),
//! `perf_baseline` (`BENCH_9.json`, and the CI throughput gate) and
//! `serve_load` (`BENCH_10.json`).

pub mod ablations;
pub mod extras;
pub mod figures;

pub use figures::{all_figures, figure_by_id, Figure, FigureOutput};

/// The request mix of the `serve_load` load generator, in tenths of all
/// requests: repeated probes, shared-grid sweeps and unique-grid sweeps.
/// `experiments` prints the same shares next to `BENCH_10.json`'s numbers.
pub const SERVE_MIX_TENTHS: [u64; 3] = [7, 2, 1];

//! Bench comparing sequential and parallel execution of a full paper-grid
//! sweep. Plain `std::time::Instant` timing — no external harness.
//!
//! Both runs spawn one warm engine per same-stride run from the same
//! `MachineSpec`, so the surfaces are bit-identical and the only variable
//! is how many workers the cells are spread across. The speedup scales
//! with the host's cores; on a single-core host it is ~1x by construction.

use std::time::Instant;

use gasnub_core::{auto_threads, sweep_surface_par, Grid, SweepOp};
use gasnub_machines::{MachineSpec, MeasureLimits};

fn main() {
    let workers = auto_threads();
    let grid = Grid::paper_remote();
    for (label, spec, op) in [
        ("t3d/deposit", MachineSpec::t3d(), SweepOp::RemoteDeposit),
        ("t3e/fetch", MachineSpec::t3e(), SweepOp::RemoteFetch),
    ] {
        let spec = spec.with_limits(MeasureLimits::fast());
        let t0 = Instant::now();
        let sequential = sweep_surface_par(&spec, op, &grid, 1)
            .expect("spec builds")
            .expect("op supported");
        let seq = t0.elapsed();
        let t1 = Instant::now();
        let parallel = sweep_surface_par(&spec, op, &grid, workers)
            .expect("spec builds")
            .expect("op supported");
        let par = t1.elapsed();
        assert_eq!(sequential, parallel, "parallel sweep must be bit-identical");
        println!(
            "sweep_parallel/{label}  {} cells  1 thread: {seq:?}  {workers} thread{}: {par:?}  \
             speedup {:.2}x (surfaces bit-identical)",
            grid.cells(),
            if workers == 1 { "" } else { "s" },
            seq.as_secs_f64() / par.as_secs_f64()
        );
    }
}

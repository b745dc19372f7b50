//! Full memory-system characterization of one machine: every surface the
//! paper draws for it, rendered as terminal tables.
//!
//! ```text
//! cargo run --release --example characterize -- t3e
//! cargo run --release --example characterize -- dec8400 --full
//! ```
//!
//! Any machine the registry resolves works, zoo files included.

use gasnub::core::profile::MachineProfile;
use gasnub::core::sweep::Grid;
use gasnub::machines::{Machine, MachineRegistry, MeasureLimits};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("t3d");
    let full = args.iter().any(|a| a == "--full");

    let spec = MachineRegistry::discover()
        .resolve(which)
        .cloned()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let mut machine = spec.build().expect("registry specs build");

    let (local_grid, remote_grid) = if full {
        machine.set_limits(MeasureLimits::new());
        (Grid::paper_local(), Grid::paper_remote())
    } else {
        machine.set_limits(MeasureLimits::fast());
        (
            Grid {
                strides: vec![1, 2, 4, 8, 16, 64],
                working_sets: Grid::paper_working_sets(16 << 20),
            },
            Grid {
                strides: vec![1, 2, 4, 8, 16, 64],
                working_sets: Grid::paper_working_sets(8 << 20),
            },
        )
    };

    eprintln!(
        "characterizing {} ({} cells per surface) …",
        machine.name(),
        local_grid.cells()
    );
    let profile = MachineProfile::measure(&mut machine, &local_grid, &remote_grid);
    println!("{}", profile.report());
}

//! HPF array redistribution (BLOCK ↔ CYCLIC) priced by the measured cost
//! models: the best transfer style flips with the direction, because the
//! remote-side access pattern flips.
//!
//! ```text
//! cargo run --release --example redistribute
//! ```

use gasnub::machines::{MachineId, MachineSpec, MeasureLimits};
use gasnub::shmem::{block_to_cyclic, cyclic_to_block, MeasuredCost, Pe, RedistStyle, ShmemCtx};

/// Runs one redistribution of `n` words on a 4-PE machine and returns the
/// max per-PE communication time in milliseconds.
fn run(machine: MachineId, to_cyclic: bool, style: RedistStyle, n: usize) -> f64 {
    let engine = MachineSpec::for_id(machine)
        .build()
        .expect("paper machines build");
    let cost = MeasuredCost::new(Box::new(engine));
    let clock = {
        use gasnub::shmem::TransferCost;
        cost.clock_mhz()
    };
    let mut ctx = ShmemCtx::new(4, 2 * n / 4 + n, cost);
    // Fill the source layout.
    for pe in 0..4 {
        for w in 0..n / 4 {
            ctx.heap_mut().local_mut(Pe(pe))[w] = (pe * (n / 4) + w) as f64;
        }
    }
    if to_cyclic {
        block_to_cyclic(&mut ctx, style, n / 4, 0, n);
    } else {
        cyclic_to_block(&mut ctx, style, n / 4, 0, n);
    }
    let max_comm = (0..4).map(|p| ctx.comm_cycles(Pe(p))).fold(0.0, f64::max);
    max_comm / clock / 1000.0
}

fn main() {
    // Keep the machine limits small; MeasuredCost probes internally.
    let _ = MeasureLimits::fast();
    let n = 1 << 20; // 8 MB array

    println!("HPF redistribution of a 1M-word array on 4 PEs (max per-PE comm time, ms):\n");
    println!(
        "{:<12}{:>22}{:>22}{:>22}{:>22}",
        "machine",
        "block->cyclic push",
        "block->cyclic pull",
        "cyclic->block push",
        "cyclic->block pull"
    );
    for id in [MachineId::CrayT3d, MachineId::Dec8400, MachineId::CrayT3e] {
        let bc_push = run(id, true, RedistStyle::Push, n);
        let bc_pull = run(id, true, RedistStyle::Pull, n);
        let cb_push = run(id, false, RedistStyle::Push, n);
        let cb_pull = run(id, false, RedistStyle::Pull, n);
        println!(
            "{:<12}{:>22.1}{:>22.1}{:>22.1}{:>22.1}",
            id.label(),
            bc_push,
            bc_pull,
            cb_push,
            cb_pull
        );
    }
    println!(
        "\nblock->cyclic deposits land contiguously at the target (cheap remote side);\n\
         cyclic->block reverses the pattern — the measured cost model flips its choice."
    );
}

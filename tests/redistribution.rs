//! Integration test: the HPF BLOCK↔CYCLIC redistribution kernel, where the
//! best transfer style flips with the direction of the redistribution —
//! the paper's cost-model decision applied to the Catacomb back end's
//! general array-assignment case (§2.1).

use gasnub::machines::{MachineId, MachineSpec};
use gasnub::shmem::{
    block_to_cyclic, cyclic_to_block, MeasuredCost, Pe, RedistStyle, ShmemCtx, TransferCost,
};

fn comm_ms(machine: MachineId, to_cyclic: bool, style: RedistStyle, n: usize) -> f64 {
    let engine = MachineSpec::for_id(machine).build().unwrap();
    let cost = MeasuredCost::new(Box::new(engine));
    let clock = cost.clock_mhz();
    let mut ctx = ShmemCtx::new(4, n / 2, cost);
    if to_cyclic {
        block_to_cyclic(&mut ctx, style, n / 8, 0, n / 8 * 4);
    } else {
        cyclic_to_block(&mut ctx, style, n / 8, 0, n / 8 * 4);
    }
    let max_comm = (0..4).map(|p| ctx.comm_cycles(Pe(p))).fold(0.0, f64::max);
    max_comm / clock / 1000.0
}

const N: usize = 1 << 18;

#[test]
fn t3e_best_style_flips_with_direction() {
    // block->cyclic: deposits land contiguously -> push wins.
    let push = comm_ms(MachineId::CrayT3e, true, RedistStyle::Push, N);
    let pull = comm_ms(MachineId::CrayT3e, true, RedistStyle::Pull, N);
    assert!(
        push < pull,
        "block->cyclic: push {push} must beat pull {pull}"
    );

    // cyclic->block: the pattern mirrors -> pull wins.
    let push = comm_ms(MachineId::CrayT3e, false, RedistStyle::Push, N);
    let pull = comm_ms(MachineId::CrayT3e, false, RedistStyle::Pull, N);
    assert!(
        pull < push,
        "cyclic->block: pull {pull} must beat push {push}"
    );
}

#[test]
fn t3d_deposits_win_both_directions() {
    // §9: "On the T3D, pulling data (fetch model) proves to be consistently
    // inferior than pushing data (deposit model)" — even when the deposit
    // side is the strided one.
    for to_cyclic in [true, false] {
        let push = comm_ms(MachineId::CrayT3d, to_cyclic, RedistStyle::Push, N);
        let pull = comm_ms(MachineId::CrayT3d, to_cyclic, RedistStyle::Pull, N);
        assert!(
            push < pull,
            "to_cyclic={to_cyclic}: push {push} must beat pull {pull}"
        );
    }
}

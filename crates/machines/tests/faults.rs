//! Degraded-machine invariants: a `FaultPlan` only ever slows a machine
//! down, and does so deterministically.

use gasnub_machines::ProbeOp::{RemoteDeposit, RemoteFetch, RemoteLoad};
use gasnub_machines::{
    FaultPlan, Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, TransferEngine,
};

fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
    ProbeRequest::new(op, ws, stride)
}

fn fast() -> MeasureLimits {
    MeasureLimits {
        max_measure_words: 8 * 1024,
        max_prime_words: 64 * 1024,
    }
}

const WS: u64 = 1 << 20;

fn healthy(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(fast()).build().unwrap()
}

fn degraded(spec: MachineSpec, plan: &FaultPlan) -> TransferEngine {
    spec.with_faults(plan)
        .unwrap()
        .with_limits(fast())
        .build()
        .unwrap()
}

#[test]
fn zero_severity_plan_matches_healthy_t3d() {
    let plan = FaultPlan::new(11, 0.0).unwrap();
    let mut healthy = healthy(MachineSpec::t3d());
    let mut degraded = degraded(MachineSpec::t3d(), &plan);
    let h = healthy.probe(&req(RemoteDeposit, WS, 1)).unwrap();
    let d = degraded.probe(&req(RemoteDeposit, WS, 1)).unwrap();
    assert_eq!(h.cycles, d.cycles, "severity 0 must be a healthy machine");
}

#[test]
fn degraded_t3d_is_never_faster() {
    for seed in [1_u64, 7, 42] {
        let plan = FaultPlan::new(seed, 0.6).unwrap();
        let mut healthy = healthy(MachineSpec::t3d());
        let mut degraded = degraded(MachineSpec::t3d(), &plan);
        for stride in [1_u64, 8] {
            let h = healthy.probe(&req(RemoteDeposit, WS, stride)).unwrap();
            let d = degraded.probe(&req(RemoteDeposit, WS, stride)).unwrap();
            assert!(
                d.cycles >= h.cycles,
                "seed {seed} stride {stride}: {} < {}",
                d.cycles,
                h.cycles
            );
            let h = healthy.probe(&req(RemoteFetch, WS, stride)).unwrap();
            let d = degraded.probe(&req(RemoteFetch, WS, stride)).unwrap();
            assert!(d.cycles >= h.cycles, "fetch seed {seed} stride {stride}");
        }
    }
}

#[test]
fn degraded_t3e_is_never_faster() {
    for seed in [3_u64, 19] {
        let plan = FaultPlan::new(seed, 0.6).unwrap();
        let mut healthy = healthy(MachineSpec::t3e());
        let mut degraded = degraded(MachineSpec::t3e(), &plan);
        for stride in [1_u64, 4] {
            let h = healthy.probe(&req(RemoteDeposit, WS, stride)).unwrap();
            let d = degraded.probe(&req(RemoteDeposit, WS, stride)).unwrap();
            assert!(d.cycles >= h.cycles, "seed {seed} stride {stride}");
        }
    }
}

#[test]
fn degraded_dec8400_pull_is_never_faster() {
    let plan = FaultPlan::new(5, 0.8).unwrap();
    let mut healthy = healthy(MachineSpec::dec8400());
    let mut degraded = degraded(MachineSpec::dec8400(), &plan);
    let h = healthy.probe(&req(RemoteLoad, WS, 1)).unwrap();
    let d = degraded.probe(&req(RemoteLoad, WS, 1)).unwrap();
    assert!(
        d.cycles > h.cycles,
        "jittered bus must slow the coherent pull"
    );
}

#[test]
fn same_plan_gives_identical_cycle_counts() {
    let plan = FaultPlan::new(42, 0.5).unwrap();
    let run = |plan: &FaultPlan| {
        let mut t3d = degraded(MachineSpec::t3d(), plan);
        let a = t3d.probe(&req(RemoteDeposit, WS, 1)).unwrap().cycles;
        let b = t3d.probe(&req(RemoteFetch, WS, 8)).unwrap().cycles;
        let mut t3e = degraded(MachineSpec::t3e(), plan);
        let c = t3e.probe(&req(RemoteDeposit, WS, 2)).unwrap().cycles;
        let mut dec = degraded(MachineSpec::dec8400(), plan);
        let d = dec.probe(&req(RemoteLoad, WS, 1)).unwrap().cycles;
        (a.to_bits(), b.to_bits(), c.to_bits(), d.to_bits())
    };
    assert_eq!(
        run(&plan),
        run(&plan),
        "same FaultPlan must give bit-identical cycles"
    );
}

#[test]
fn harsher_plans_hurt_more_on_average() {
    // Not guaranteed per-seed (a mild plan can happen to hit the canonical
    // route), so compare totals over a handful of seeds.
    let total = |severity: f64| -> f64 {
        (0..6_u64)
            .map(|seed| {
                let plan = FaultPlan::new(seed, severity).unwrap();
                degraded(MachineSpec::t3d(), &plan)
                    .probe(&req(RemoteDeposit, WS, 1))
                    .unwrap()
                    .cycles
            })
            .sum()
    };
    assert!(total(0.9) > total(0.1));
}

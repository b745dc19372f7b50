//! Characterize a machine that never existed: a "T3D with a big L2" —
//! the methodology applied to a design question instead of a data sheet.
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```

use gasnub::core::report::{machine_report, ReportOptions};
use gasnub::machines::{
    Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, TransferEngine,
};
use gasnub::memsim::cache::{AllocatePolicy, CacheConfig, WritePolicy};
use gasnub::memsim::hierarchy::LevelConfig;
use gasnub::memsim::stream::StreamConfig;

fn main() {
    // Start from the T3D node and graft a 512 KB L2 behind its L1 — the
    // design question the paper's §7.3 raises implicitly: would a board
    // cache have fixed the T3D's large-FFT falloff?
    let mut node = MachineSpec::t3d().node_config().clone();
    node.name = "T3D + 512 KB L2 (what-if)".to_string();
    // The L1's fill cost was the DRAM interface's; refilling from a nearby
    // SRAM L2 is much faster.
    node.hierarchy.levels[0].fill_cycles = 5.0;
    node.hierarchy.levels[0].streamed_fill_cycles = 5.0;
    node.hierarchy.levels.push(LevelConfig {
        cache: CacheConfig {
            name: "L2".to_string(),
            capacity_bytes: 512 << 10,
            line_bytes: 64,
            associativity: 4,
            write_policy: WritePolicy::WriteBack,
            allocate_policy: AllocatePolicy::ReadWriteAllocate,
        },
        fill_cycles: 10.0,
        streamed_fill_cycles: 5.0,
        stream: Some(StreamConfig {
            slots: 2,
            train_length: 2,
        }),
        write_back_cycles: 8.0,
    });

    let mut what_if = MachineSpec::custom("T3D+L2", node)
        .with_limits(MeasureLimits::fast())
        .build()
        .expect("valid design");

    // Compare against the real T3D at an FFT-row-sized working set (64 KB:
    // a 4096-point complex row).
    let mut real = MachineSpec::t3d()
        .with_limits(MeasureLimits::fast())
        .build()
        .expect("paper machines build");
    let ws = 64 << 10;
    println!("64 KB working set (a 4096-point complex FFT row):");
    let mb_s = |m: &mut TransferEngine, stride| {
        let req = ProbeRequest::new(ProbeOp::LocalLoad, ws, stride);
        m.probe(&req).expect("local loads always run").mb_s
    };
    println!(
        "  real T3D : {:>6.0} MB/s contiguous, {:>6.0} MB/s strided",
        mb_s(&mut real, 1),
        mb_s(&mut real, 16)
    );
    println!(
        "  T3D + L2 : {:>6.0} MB/s contiguous, {:>6.0} MB/s strided",
        mb_s(&mut what_if, 1),
        mb_s(&mut what_if, 16)
    );
    println!();

    println!("{}", machine_report(&mut what_if, &ReportOptions::quick()));
}

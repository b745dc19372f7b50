//! Probes every machine in the zoo with one DRAM-resident working set:
//! contiguous and strided, local and remote — the one-screen version of
//! the paper's bandwidth characterization, across three decades of
//! machines.
//!
//! ```text
//! cargo run --release --example zoo_probe
//! ```

use gasnub::machines::{Machine, MachineRegistry, MeasureLimits, ProbeOp, ProbeRequest};

fn main() {
    // 32 MB: past every cache in the zoo, so the probes measure memory.
    let ws: u64 = 32 << 20;
    let registry = MachineRegistry::discover();

    println!(
        "{:<10}{:>12}{:>12}{:>8}  {:>12}{:>12}",
        "machine", "local MB/s", "remote MB/s", "ratio", "local s=8", "remote s=8"
    );
    for spec in registry.specs() {
        let label = spec.label().to_string();
        let mut m = match spec.clone().with_limits(MeasureLimits::new()).build() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{label}: does not build: {e}");
                continue;
            }
        };
        let mut probe = |op, stride| m.probe(&ProbeRequest::new(op, ws, stride));
        let local = probe(ProbeOp::LocalLoad, 1).expect("local loads always run");
        let local8 = probe(ProbeOp::LocalLoad, 8).expect("local loads always run");
        match (
            probe(ProbeOp::RemoteFetch, 1),
            probe(ProbeOp::RemoteFetch, 8),
        ) {
            (Some(remote), Some(remote8)) => println!(
                "{:<10}{:>12.0}{:>12.0}{:>7.2}x  {:>12.0}{:>12.0}",
                label,
                local.mb_s,
                remote.mb_s,
                local.mb_s / remote.mb_s,
                local8.mb_s,
                remote8.mb_s
            ),
            _ => println!(
                "{:<10}{:>12.0}{:>12}{:>8}  {:>12.0}{:>12}",
                label, local.mb_s, "-", "-", local8.mb_s, "-"
            ),
        }
    }
    for broken in registry.broken() {
        eprintln!("broken spec {}: {}", broken.path.display(), broken.message);
    }
}

//! Ablation studies: the design choices the paper credits, switched off.
//!
//! Each ablation returns `(with, without)` bandwidth pairs so the harness
//! (and the `ablations` Criterion bench) can print the effect of the
//! mechanism alone.

use gasnub_machines::{
    Ablation as Overlay, Machine, MachineId, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest,
    TransferEngine,
};

/// One ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Stable identifier.
    pub id: &'static str,
    /// Which machine the mechanism belongs to.
    pub machine: MachineId,
    /// What is switched off.
    pub description: &'static str,
    /// Bandwidth with the mechanism (MB/s).
    pub with_mb_s: f64,
    /// Bandwidth without it (MB/s).
    pub without_mb_s: f64,
}

impl Ablation {
    /// The speedup the mechanism provides.
    pub fn speedup(&self) -> f64 {
        self.with_mb_s / self.without_mb_s
    }
}

fn engine(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits {
        max_measure_words: 32 * 1024,
        max_prime_words: 2 * 1024 * 1024,
    })
    .build()
    .expect("paper machines build")
}

/// The DRAM-resident working set the mechanism ablations probe.
const WS: u64 = 8 << 20;

/// Contiguous bandwidth of `op` over [`WS`]; every ablated op is supported
/// on its machine.
fn contiguous(mut m: TransferEngine, op: ProbeOp) -> f64 {
    let req = ProbeRequest::new(op, WS, 1);
    m.probe(&req).expect("ablated ops are supported").mb_s
}

/// Runs every ablation study.
pub fn run_all() -> Vec<Ablation> {
    let overlays: [(&str, MachineSpec, Overlay, ProbeOp, &str); 5] = [
        // Paper footnote 3: ~120 MB/s without streaming.
        (
            "t3e-streams-off",
            MachineSpec::t3e(),
            Overlay::NoStreams,
            ProbeOp::LocalLoad,
            "T3E stream buffers disabled (early test vehicle, footnote 3)",
        ),
        // §3.2: "can be turned on/off at program load time".
        (
            "t3d-read-ahead-off",
            MachineSpec::t3d(),
            Overlay::NoReadAhead,
            ProbeOp::LocalLoad,
            "T3D external read-ahead logic disabled",
        ),
        // §3.2: coalesces into 32-byte entities.
        (
            "t3d-coalescing-off",
            MachineSpec::t3d(),
            Overlay::NoCoalescing,
            ProbeOp::RemoteDeposit,
            "T3D write-back queue coalescing disabled (contiguous deposits)",
        ),
        // §3.2: prefetch FIFO vs blocking remote loads.
        (
            "t3d-blocking-fetch",
            MachineSpec::t3d(),
            Overlay::BlockingFetch,
            ProbeOp::RemoteFetch,
            "T3D prefetch FIFO unused: transparent blocking remote loads",
        ),
        // Footnote 1: 70 MB/s per PE when the node pair shares the link.
        (
            "t3d-paired-traffic",
            MachineSpec::t3d(),
            Overlay::PairedTraffic,
            ProbeOp::RemoteDeposit,
            "both PEs of a T3D node pair communicate simultaneously",
        ),
    ];
    let mut out: Vec<Ablation> = overlays
        .into_iter()
        .map(|(id, spec, overlay, op, description)| {
            let ablated = spec
                .clone()
                .ablate(overlay)
                .expect("the overlay fits its machine");
            Ablation {
                id,
                machine: spec.id(),
                description,
                with_mb_s: contiguous(engine(spec), op),
                without_mb_s: contiguous(engine(ablated), op),
            }
        })
        .collect();

    // 8400 bus burst protocol (§3.1: 2.4 GB/s peak, 1.6 GB/s under the
    // best burst protocol). A single latency-bound consumer barely notices,
    // so the ablation reports the protocol's *ceiling* — the rate the bus
    // sustains for back-to-back line transactions, which is what bounds the
    // four-processor transposes of figs 15-17.
    let mut dec = engine(MachineSpec::dec8400());
    {
        let bus_on = dec
            .smp_system()
            .expect("the 8400 is bus-based")
            .config()
            .bus
            .clone();
        let mut bus_off = bus_on.clone();
        bus_off.burst = false;
        let line = 64;
        out.push(Ablation {
            id: "dec8400-burst-off",
            machine: MachineId::Dec8400,
            description: "DEC 8400 bus burst transfer protocol disabled (line-transaction ceiling)",
            with_mb_s: bus_on.effective_mb_s(line),
            without_mb_s: bus_off.effective_mb_s(line),
        });
    }

    // 8400 L3-blocked communication (§6.1/§9: blocked cache-to-cache
    // transfers beat DRAM-to-DRAM remote copies for strided data).
    let mut pull = |ws| {
        let req = ProbeRequest::new(ProbeOp::RemoteLoad, ws, 16);
        dec.probe(&req).expect("8400 pulls").mb_s
    };
    let (blocked, unblocked) = (pull(2 << 20), pull(32 << 20));
    out.push(Ablation {
        id: "dec8400-blocked-transpose",
        machine: MachineId::Dec8400,
        description: "strided pull from the producer's L3 (blocked) vs from DRAM",
        with_mb_s: blocked,
        without_mb_s: unblocked,
    });

    out
}

/// Renders the ablation table.
pub fn render(ablations: &[Ablation]) -> String {
    let mut out = format!(
        "{:<26}{:>12}{:>12}{:>9}  {}\n",
        "ablation", "with MB/s", "without", "speedup", "description"
    );
    for a in ablations {
        out.push_str(&format!(
            "{:<26}{:>12.1}{:>12.1}{:>8.2}x  {}\n",
            a.id,
            a.with_mb_s,
            a.without_mb_s,
            a.speedup(),
            a.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_helps() {
        let all = run_all();
        assert_eq!(all.len(), 7);
        for a in &all {
            assert!(
                a.speedup() > 1.05,
                "{} must show a benefit: {} vs {}",
                a.id,
                a.with_mb_s,
                a.without_mb_s
            );
        }
    }

    #[test]
    fn streams_matter_most_on_the_t3e() {
        let all = run_all();
        let streams = all.iter().find(|a| a.id == "t3e-streams-off").unwrap();
        assert!(
            streams.speedup() > 2.0,
            "stream buffers are worth >2x: {}",
            streams.speedup()
        );
    }

    #[test]
    fn render_mentions_every_id() {
        let all = run_all();
        let text = render(&all);
        for a in &all {
            assert!(text.contains(a.id));
        }
    }
}

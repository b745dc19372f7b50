//! Quickstart: measure a few memory-system bandwidths on the three
//! machines and let the cost model pick a transfer strategy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gasnub::core::cost::CostModel;
use gasnub::core::sweep::Grid;
use gasnub::machines::{
    Machine, MachineRegistry, MeasureLimits, Measurement, ProbeOp, ProbeRequest,
};

fn main() {
    let mut machines: Vec<Box<dyn Machine>> = MachineRegistry::builtin()
        .paper_specs()
        .map(|spec| -> Box<dyn Machine> {
            let spec = spec.clone().with_limits(MeasureLimits::fast());
            Box::new(spec.build().expect("paper machines build"))
        })
        .collect();

    println!("== Local load bandwidth (MB/s), 8 MB working set ==");
    println!("{:<22}{:>12}{:>12}", "machine", "stride 1", "stride 16");
    for m in &mut machines {
        let mut mb_s = |op, stride| {
            let req = ProbeRequest::new(op, 8 << 20, stride);
            m.probe(&req).map(|r| r.mb_s)
        };
        let contig = mb_s(ProbeOp::LocalLoad, 1).expect("local loads always run");
        let strided = mb_s(ProbeOp::LocalLoad, 16).expect("local loads always run");
        println!("{:<22}{:>12.0}{:>12.0}", m.name(), contig, strided);
    }

    println!("\n== Remote transfer bandwidth (MB/s), 8 MB working set ==");
    println!("{:<22}{:>14}{:>14}", "machine", "fetch s16", "deposit s16");
    for m in &mut machines {
        let fetch = m.probe(&ProbeRequest::new(ProbeOp::RemoteFetch, 8 << 20, 16));
        let deposit = m.probe(&ProbeRequest::new(ProbeOp::RemoteDeposit, 8 << 20, 16));
        let fmt = |v: Option<Measurement>| v.map_or("n/a".into(), |v| format!("{:.0}", v.mb_s));
        println!("{:<22}{:>14}{:>14}", m.name(), fmt(fetch), fmt(deposit));
    }

    println!("\n== Cheapest way to move 1M words at stride 16 (the compiler's question) ==");
    for m in &mut machines {
        let model = CostModel::characterize(m.as_mut(), &Grid::copy_strides(), 32 << 20);
        let best = model.best(1 << 20, 16);
        println!(
            "{:<22}{} ({:.0} MB/s, {:.1} ms)",
            m.name(),
            best.strategy,
            best.mb_s,
            best.us / 1000.0
        );
    }
}

//! The §9 guidance, derived from measurement: for each machine and stride,
//! which implementation of a strided remote transfer is cheapest?
//!
//! Reproduces the paper's conclusions: deposits win on the T3D, fetches win
//! (or tie) on the T3E, the 8400 can only pull, and packing into contiguous
//! buffers "never pays off".
//!
//! ```text
//! cargo run --release --example compiler_strategy
//! ```

use gasnub::core::cost::{CostModel, Strategy};
use gasnub::machines::{Machine, MachineRegistry, MeasureLimits};

fn main() {
    let strides = [1u64, 2, 8, 15, 16, 64];
    let words = 1 << 20; // 8 MB transfer
    let mut machines: Vec<Box<dyn Machine>> = MachineRegistry::builtin()
        .paper_specs()
        .map(|spec| -> Box<dyn Machine> {
            let spec = spec.clone().with_limits(MeasureLimits::fast());
            Box::new(spec.build().expect("paper machines build"))
        })
        .collect();

    println!(
        "Cheapest strategy for moving {words} words ({} MB) at each stride:\n",
        (words * 8) >> 20
    );
    for m in &mut machines {
        let model = CostModel::characterize(m.as_mut(), &strides, 32 << 20);
        println!("== {} ==", m.name());
        println!("{:>8} {:>10} {:<42}ranking", "stride", "MB/s", "winner");
        for &s in &strides {
            let ranked = model.rank(words, s);
            let best = &ranked[0];
            let ranking: Vec<String> = ranked
                .iter()
                .map(|e| {
                    let tag = match e.strategy {
                        Strategy::Deposit => "deposit",
                        Strategy::Fetch => "fetch",
                        Strategy::PackAndDeposit => "pack+dep",
                        Strategy::PackAndFetch => "pack+fetch",
                        Strategy::BlockedFetch => "blocked",
                    };
                    format!("{tag} {:.0}", e.mb_s)
                })
                .collect();
            println!(
                "{s:>8} {:>10.0} {:<42}{}",
                best.mb_s,
                best.strategy.to_string(),
                ranking.join("  >  ")
            );
        }
        println!();
    }
    println!("Paper §9: deposits on the T3D, fetch on the T3E for even strides,");
    println!("pull-only on the 8400 — and packing never pays off on any of them.");
}

//! Exhibits beyond the paper's figures: the §9 summary table, the indexed
//! (gather) access class, and the false-sharing experiment of §1.

use gasnub_coherence::smp::SnoopingSmp;
use gasnub_core::bench::local_gather_curve;
use gasnub_core::compare::Comparison;
use gasnub_core::sweep::Grid;
use gasnub_machines::{Machine, MachineRegistry, MachineSpec, MeasureLimits};

fn machines() -> Vec<Box<dyn Machine>> {
    MachineRegistry::builtin()
        .paper_specs()
        .map(|spec| -> Box<dyn Machine> {
            let spec = spec.clone().with_limits(MeasureLimits::fast());
            Box::new(spec.build().expect("paper machines build"))
        })
        .collect()
}

/// The §9 cross-machine summary table.
pub fn comparison_table() -> String {
    let mut ms = machines();
    let c = Comparison::measure(&mut ms, 32 << 20);
    format!(
        "Cross-machine summary, 32 MB working sets (MB/s):\n\n{}",
        c.render()
    )
}

/// Gather (indexed access) curves along the working-set axis.
pub fn gather_curves() -> String {
    let ws = Grid::paper_working_sets(8 << 20);
    let mut out = String::from("Indexed (gather) loads, MB/s by working set:\n\n");
    out.push_str(&format!("{:>10}", "ws"));
    let mut ms = machines();
    for m in &ms {
        out.push_str(&format!("{:>10}", m.id().label()));
    }
    out.push('\n');
    let curves: Vec<Vec<(u64, f64)>> = ms
        .iter_mut()
        .map(|m| local_gather_curve(m.as_mut(), &ws))
        .collect();
    for (i, &w) in ws.iter().enumerate() {
        let human = if w >= 1 << 20 {
            format!("{}M", w >> 20)
        } else if w >= 1 << 10 {
            format!("{}K", w >> 10)
        } else {
            format!("{w}B")
        };
        out.push_str(&format!("{human:>10}"));
        for c in &curves {
            out.push_str(&format!("{:>10.0}", c[i].1));
        }
        out.push('\n');
    }
    out
}

/// 2D-FFT strong scaling: total MFlop/s vs. PE count per machine (the
/// paper's §8 run from four PEs toward machine scale).
pub fn fft_scaling(n: usize) -> String {
    let pes = [1usize, 2, 4, 8, 16];
    let mut out = format!("2D-FFT({n}x{n}) strong scaling, total MFlop/s by PE count:\n\n");
    out.push_str(&format!("{:>8}", "npes"));
    let ids = [
        gasnub_machines::MachineId::CrayT3d,
        gasnub_machines::MachineId::Dec8400,
        gasnub_machines::MachineId::CrayT3e,
    ];
    for id in ids {
        out.push_str(&format!("{:>10}", id.label()));
    }
    out.push('\n');
    for &p in &pes {
        if !n.is_multiple_of(p) {
            continue;
        }
        out.push_str(&format!("{p:>8}"));
        for id in ids {
            let r = gasnub_fft::run_benchmark(id, n, p);
            out.push_str(&format!("{:>10.0}", r.total_mflops));
        }
        out.push('\n');
    }
    out
}

/// §7.3's planned iput rewrite, evaluated: the T3E 2D-FFT with a
/// fetch-based transpose vs. the measured iput transpose.
pub fn t3e_fetch_rewrite(n: usize) -> String {
    use gasnub_fft::dist2d::{run_benchmark_with_style, TransposeStyle};
    use gasnub_machines::MachineId;
    let iput = run_benchmark_with_style(MachineId::CrayT3e, n, 4, TransposeStyle::Deposit);
    let fetch = run_benchmark_with_style(MachineId::CrayT3e, n, 4, TransposeStyle::Fetch);
    format!(
        "T3E 2D-FFT({n}x{n}) transpose primitive (the §7.3 planned rewrite):\n\n\
         {:<22}{:>14}{:>14}\n{:<22}{:>14.0}{:>14.1}\n{:<22}{:>14.0}{:>14.1}\n",
        "primitive",
        "MFlop/s",
        "comm ms",
        "shmem_iput (paper)",
        iput.total_mflops,
        iput.comm_us / 1000.0,
        "fetch rewrite",
        fetch.total_mflops,
        fetch.comm_us / 1000.0,
    )
}

/// The §1 false-sharing experiment on the 8400.
pub fn false_sharing() -> String {
    let dec = MachineSpec::dec8400()
        .build()
        .expect("paper machines build");
    let config = dec.smp_system().expect("the 8400 is bus-based").config();
    let mut smp = SnoopingSmp::new(config.clone()).expect("built-in parameters validate");
    let shared = smp.alternating_store_cycles(500, 1);
    let private = smp.alternating_store_cycles(500, 8);
    format!(
        "False sharing on the DEC 8400 (alternating stores by P0/P1):\n\n\
         same 64-byte line : {shared:>8.1} cycles/store\n\
         one line apart    : {private:>8.1} cycles/store\n\
         penalty           : {:>8.1}x\n",
        shared / private
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_has_three_machines() {
        let t = comparison_table();
        assert!(t.contains("dec8400") && t.contains("t3d") && t.contains("t3e"));
    }

    #[test]
    fn false_sharing_reports_a_penalty() {
        let t = false_sharing();
        assert!(t.contains("penalty"));
    }
}

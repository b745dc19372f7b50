//! A complete characterization report for one machine, in markdown.
//!
//! This is what a compiler team would generate per target: inferred cache
//! structure (working-set spectroscopy), the bandwidth plateaus, the full
//! surfaces, and the transfer-strategy rankings — the paper's whole
//! methodology in one document.

use gasnub_machines::Machine;

use crate::bench::{sweep_surface, SweepOp};
use crate::cost::CostModel;
use crate::profile::MachineProfile;
use crate::sweep::Grid;

/// Options controlling the report's measurement effort.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Grid for the local surfaces.
    pub local_grid: Grid,
    /// Grid for the remote surfaces.
    pub remote_grid: Grid,
    /// Strides for the cost-model rankings.
    pub ranking_strides: Vec<u64>,
    /// Working set for the cost-model rankings (DRAM-resident).
    pub ranking_ws: u64,
}

impl ReportOptions {
    /// Fast defaults suitable for examples and tests.
    pub fn quick() -> Self {
        ReportOptions {
            local_grid: Grid {
                strides: vec![1, 2, 4, 8, 16, 64],
                working_sets: Grid::paper_working_sets(16 << 20),
            },
            remote_grid: Grid {
                strides: vec![1, 2, 8, 16, 64],
                working_sets: vec![512 << 10, 8 << 20],
            },
            ranking_strides: vec![1, 8, 16, 64],
            ranking_ws: 32 << 20,
        }
    }
}

/// Generates the full markdown report for `machine`.
pub fn machine_report(machine: &mut dyn Machine, options: &ReportOptions) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Memory system characterization — {}\n\n",
        machine.name()
    ));

    // 1. Working-set spectroscopy.
    let loads = sweep_surface(machine, SweepOp::LocalLoad, &options.local_grid)
        .expect("local loads are supported everywhere");
    let caches = loads.inferred_cache_bytes();
    out.push_str("## Inferred cache structure\n\n");
    if caches.is_empty() {
        out.push_str("No capacity knees detected on this grid.\n\n");
    } else {
        out.push_str("Working-set knees of the contiguous load column imply caches of:\n\n");
        for c in &caches {
            let human = if *c >= 1 << 20 {
                format!("{} MB", c >> 20)
            } else {
                format!("{} KB", c >> 10)
            };
            out.push_str(&format!("* ~{human}\n"));
        }
        out.push('\n');
    }

    // 2. Plateau summary.
    out.push_str("## Plateaus (MB/s)\n\n| working set | stride 1 | stride 16 |\n|---|---:|---:|\n");
    for &ws in &options.local_grid.working_sets {
        let s1 = loads.value(ws, 1).unwrap_or(0.0);
        let s16 = loads.value(ws, 16).unwrap_or_else(|| {
            // Grid may not include stride 16: fall back to the largest.
            let last = *options.local_grid.strides.last().expect("non-empty grid");
            loads.value(ws, last).unwrap_or(0.0)
        });
        let human = if ws >= 1 << 20 {
            format!("{} MB", ws >> 20)
        } else if ws >= 1 << 10 {
            format!("{} KB", ws >> 10)
        } else {
            format!("{ws} B")
        };
        out.push_str(&format!("| {human} | {s1:.0} | {s16:.0} |\n"));
    }
    out.push('\n');

    // 3. Full surfaces.
    out.push_str("## Surfaces\n\n```text\n");
    let profile = MachineProfile::measure(machine, &options.local_grid, &options.remote_grid);
    for s in profile.surfaces() {
        out.push_str(&s.render());
        out.push('\n');
    }
    out.push_str("```\n\n");

    // 4. Transfer strategy rankings (only when the machine has remote paths).
    if profile.remote_fetch.is_some() || profile.remote_deposit.is_some() {
        out.push_str("## Transfer strategy rankings\n\n");
        let model = CostModel::characterize(machine, &options.ranking_strides, options.ranking_ws);
        out.push_str("| stride | best | MB/s |\n|---:|---|---:|\n");
        for &s in &options.ranking_strides {
            let best = model.best(1 << 20, s);
            out.push_str(&format!("| {s} | {} | {:.0} |\n", best.strategy, best.mb_s));
        }
        out.push('\n');
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineSpec, MeasureLimits};
    use gasnub_memsim::config::presets;

    #[test]
    fn t3d_report_contains_all_sections() {
        let mut m = MachineSpec::t3d()
            .with_limits(MeasureLimits::fast())
            .build()
            .unwrap();
        let report = machine_report(&mut m, &ReportOptions::quick());
        assert!(report.contains("# Memory system characterization — Cray T3D"));
        assert!(report.contains("## Inferred cache structure"));
        assert!(
            report.contains("8 KB"),
            "the T3D's 8 KB L1 must be inferred:\n{report}"
        );
        assert!(report.contains("## Plateaus"));
        assert!(report.contains("## Surfaces"));
        assert!(report.contains("## Transfer strategy rankings"));
        assert!(
            report.contains("deposit"),
            "T3D rankings must mention deposits"
        );
    }

    #[test]
    fn custom_machine_report_omits_remote_sections() {
        let mut m = MachineSpec::custom("toy", presets::tiny_test_node())
            .with_limits(MeasureLimits::fast())
            .build()
            .unwrap();
        let report = machine_report(&mut m, &ReportOptions::quick());
        assert!(report.contains("toy"));
        assert!(!report.contains("## Transfer strategy rankings"));
    }
}

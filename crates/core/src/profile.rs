//! One-call characterization of a machine: every surface the paper draws
//! for it, bundled with a text report.

use gasnub_machines::{Machine, MachineId};

use crate::bench::{sweep_surface, SweepOp};
use crate::surface::Surface;
use crate::sweep::Grid;

/// The full characterization of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Which machine was profiled.
    pub machine: MachineId,
    /// Human-readable machine name.
    pub name: String,
    /// Local Load-Sum surface (figs 1/3/6).
    pub local_loads: Surface,
    /// Local copy, strided loads (figs 9-11, `o` series).
    pub copy_strided_loads: Surface,
    /// Local copy, strided stores (figs 9-11, `◆`/`x` series).
    pub copy_strided_stores: Surface,
    /// Pure remote loads (fig 2), when supported.
    pub remote_loads: Option<Surface>,
    /// Fetch transfers (figs 4/7/12-14), when supported.
    pub remote_fetch: Option<Surface>,
    /// Deposit transfers (figs 5/8/13-14), when supported.
    pub remote_deposit: Option<Surface>,
}

impl MachineProfile {
    /// Measures every supported surface of `machine` over `local_grid`
    /// (local benchmarks) and `remote_grid` (remote benchmarks).
    pub fn measure(machine: &mut dyn Machine, local_grid: &Grid, remote_grid: &Grid) -> Self {
        let (id, name) = (machine.id(), machine.name());
        let mut surface = |op: SweepOp, grid: &Grid| sweep_surface(machine, op, grid);
        MachineProfile {
            machine: id,
            name,
            local_loads: surface(SweepOp::LocalLoad, local_grid)
                .expect("local loads are supported everywhere"),
            copy_strided_loads: surface(SweepOp::CopyStridedLoads, local_grid)
                .expect("local copies are supported everywhere"),
            copy_strided_stores: surface(SweepOp::CopyStridedStores, local_grid)
                .expect("local copies are supported everywhere"),
            remote_loads: surface(SweepOp::RemoteLoad, remote_grid),
            remote_fetch: surface(SweepOp::RemoteFetch, remote_grid),
            remote_deposit: surface(SweepOp::RemoteDeposit, remote_grid),
        }
    }

    /// All surfaces present in this profile, in a stable order.
    pub fn surfaces(&self) -> Vec<&Surface> {
        let mut out = vec![
            &self.local_loads,
            &self.copy_strided_loads,
            &self.copy_strided_stores,
        ];
        out.extend(self.remote_loads.iter());
        out.extend(self.remote_fetch.iter());
        out.extend(self.remote_deposit.iter());
        out
    }

    /// Renders every surface as one text report.
    pub fn report(&self) -> String {
        let mut out = format!("==== {} ====\n\n", self.name);
        for s in self.surfaces() {
            out.push_str(&s.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineSpec, MeasureLimits, TransferEngine};

    fn fast(spec: MachineSpec) -> TransferEngine {
        spec.with_limits(MeasureLimits::fast()).build().unwrap()
    }

    #[test]
    fn t3d_profile_has_both_remote_directions() {
        let mut m = fast(MachineSpec::t3d());
        let grid = Grid {
            strides: vec![1, 16],
            working_sets: vec![1 << 20],
        };
        let p = MachineProfile::measure(&mut m, &grid, &grid);
        assert!(p.remote_fetch.is_some());
        assert!(p.remote_deposit.is_some());
        assert!(p.remote_loads.is_none());
        assert_eq!(p.surfaces().len(), 5);
        assert!(p.report().contains("local loads"));
    }

    #[test]
    fn dec8400_profile_has_pull_only() {
        let mut m = fast(MachineSpec::dec8400());
        let grid = Grid {
            strides: vec![1],
            working_sets: vec![1 << 20],
        };
        let p = MachineProfile::measure(&mut m, &grid, &grid);
        assert!(p.remote_loads.is_some());
        assert!(p.remote_deposit.is_none());
        assert_eq!(p.machine, MachineId::Dec8400);
    }
}

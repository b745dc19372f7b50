//! One-call characterization of a machine: every surface the paper draws
//! for it, bundled with a text report.

use gasnub_machines::{Machine, MachineId, SpawnEngine};
use gasnub_memsim::SimError;

use crate::bench::{sweep_surface, sweep_surface_par, SweepOp};
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

    /// Measures the same profile as [`MachineProfile::measure`], but with
    /// every surface's cells grouped into same-stride runs, each run walked
    /// on a warm engine spawned from `spawner` ([`gasnub_machines::WarmState`])
    /// and the runs spread across `threads` workers. Because a flushed
    /// engine is indistinguishable from a fresh one, the profile is
    /// bit-identical to the sequential one for any thread count.
    ///
    /// # Errors
    ///
    /// Returns any [`SimError`] from `spawner`.
    pub fn measure_parallel<S: SpawnEngine>(
        spawner: &S,
        local_grid: &Grid,
        remote_grid: &Grid,
        threads: usize,
    ) -> Result<Self, SimError> {
        let probe = spawner.spawn_engine()?;
        let surface = |op: SweepOp, grid: &Grid| sweep_surface_par(spawner, op, grid, threads);
        Ok(MachineProfile {
            machine: probe.id(),
            name: probe.name(),
            local_loads: surface(SweepOp::LocalLoad, local_grid)?
                .expect("local loads are supported everywhere"),
            copy_strided_loads: surface(SweepOp::CopyStridedLoads, local_grid)?
                .expect("local copies are supported everywhere"),
            copy_strided_stores: surface(SweepOp::CopyStridedStores, local_grid)?
                .expect("local copies are supported everywhere"),
            remote_loads: surface(SweepOp::RemoteLoad, remote_grid)?,
            remote_fetch: surface(SweepOp::RemoteFetch, remote_grid)?,
            remote_deposit: surface(SweepOp::RemoteDeposit, remote_grid)?,
        })
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

    /// A fast engine kept off the probe memo by its recorder, so the
    /// sequential oracle re-simulates instead of reading back cells that
    /// another engine of the same spec memoized.
    fn unmemoized(spec: MachineSpec) -> TransferEngine {
        let mut m = fast(spec);
        m.set_recorder(Box::new(gasnub_trace::RingRecorder::new(4)));
        m
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
    fn parallel_profile_is_bit_identical_to_sequential() {
        let spec = MachineSpec::t3e().with_limits(MeasureLimits::fast());
        let grid = Grid {
            strides: vec![1, 16],
            working_sets: vec![1 << 20],
        };
        let mut m = unmemoized(MachineSpec::t3e());
        let sequential = MachineProfile::measure(&mut m, &grid, &grid);
        let parallel = MachineProfile::measure_parallel(&spec, &grid, &grid, 4).unwrap();
        assert_eq!(parallel, sequential);
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

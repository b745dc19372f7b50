//! The micro-benchmarks of §4.2, swept over a grid.
//!
//! "Two different basic memory operations are examined, all of them operate
//! on 64 bit double words. **Load Sum** — a load operation and an
//! add-summing operation … **Load/Store copy** — all data of the working
//! set is copied by either loading it with a fixed stride and storing it
//! contiguously, or by loading it contiguously and storing it with a fixed
//! stride." A third **Store Constant** benchmark evaluates store
//! performance.

use gasnub_machines::{CancelToken, Machine, ProbeOp, ProbeRequest, ProbeTier, SpawnEngine};
use gasnub_memsim::SimError;

use crate::surface::Surface;
use crate::sweep::{run_cells, Grid};

/// One sweepable benchmark, as a value: the operation the CLI names on the
/// command line and the parallel sweep dispatches per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepOp {
    /// Load-Sum (figs 1/3/6).
    LocalLoad,
    /// Store-Constant.
    LocalStore,
    /// Copy with strided loads / contiguous stores.
    CopyStridedLoads,
    /// Copy with contiguous loads / strided stores.
    CopyStridedStores,
    /// Pure remote loads (fig 2's pull).
    RemoteLoad,
    /// Fetch transfers (figs 4/7).
    RemoteFetch,
    /// Deposit transfers (figs 5/8).
    RemoteDeposit,
}

impl SweepOp {
    /// Every operation, in the order reports list them.
    pub fn all() -> [SweepOp; 7] {
        [
            SweepOp::LocalLoad,
            SweepOp::LocalStore,
            SweepOp::CopyStridedLoads,
            SweepOp::CopyStridedStores,
            SweepOp::RemoteLoad,
            SweepOp::RemoteFetch,
            SweepOp::RemoteDeposit,
        ]
    }

    /// Parses the CLI label of an operation.
    pub fn parse(label: &str) -> Option<SweepOp> {
        match label {
            "load" => Some(SweepOp::LocalLoad),
            "store" => Some(SweepOp::LocalStore),
            "copy-loads" => Some(SweepOp::CopyStridedLoads),
            "copy-stores" => Some(SweepOp::CopyStridedStores),
            "pull" => Some(SweepOp::RemoteLoad),
            "fetch" => Some(SweepOp::RemoteFetch),
            "deposit" => Some(SweepOp::RemoteDeposit),
            _ => None,
        }
    }

    /// The CLI label of this operation.
    pub fn label(self) -> &'static str {
        match self {
            SweepOp::LocalLoad => "load",
            SweepOp::LocalStore => "store",
            SweepOp::CopyStridedLoads => "copy-loads",
            SweepOp::CopyStridedStores => "copy-stores",
            SweepOp::RemoteLoad => "pull",
            SweepOp::RemoteFetch => "fetch",
            SweepOp::RemoteDeposit => "deposit",
        }
    }

    /// The surface title for a machine called `name` — the title both
    /// [`sweep_surface`] and [`sweep_surface_par`] give, so checkpoints
    /// written by either path interoperate.
    pub fn title_for(self, name: &str) -> String {
        match self {
            SweepOp::LocalLoad => format!("{name} local loads"),
            SweepOp::LocalStore => format!("{name} local stores"),
            SweepOp::CopyStridedLoads => {
                format!("{name} local copy (strided loads/contiguous stores)")
            }
            SweepOp::CopyStridedStores => {
                format!("{name} local copy (contiguous loads/strided stores)")
            }
            SweepOp::RemoteLoad => format!("{name} remote loads (pull)"),
            SweepOp::RemoteFetch => format!("{name} remote fetch"),
            SweepOp::RemoteDeposit => format!("{name} remote deposit"),
        }
    }

    /// The checkpoint title of one `(machine, health, op, tier)` surface —
    /// the single spelling shared by the offline `sweep` subcommand and the
    /// serving layer. The title is embedded in the durable checkpoint
    /// payload (a foreign title refuses to resume), and served sweep bodies
    /// are required to be byte-identical to offline checkpoints, so both
    /// sides must build it from the same function. `name` is the engine's
    /// full [`Machine::name`]; the tier rides in a ` [tier …]` marker
    /// except for the default `sim` tier, which stays unmarked for
    /// compatibility with pre-tier checkpoints.
    pub fn checkpoint_title(self, name: &str, degraded: bool, tier: ProbeTier) -> String {
        let marker = match tier {
            ProbeTier::Simulate => String::new(),
            other => format!(" [tier {}]", other.label()),
        };
        format!(
            "{name} {} {}{marker}",
            if degraded { "degraded" } else { "healthy" },
            self.label()
        )
    }

    /// The [`ProbeOp`] this benchmark drives.
    pub fn probe_op(self) -> ProbeOp {
        match self {
            SweepOp::LocalLoad => ProbeOp::LocalLoad,
            SweepOp::LocalStore => ProbeOp::LocalStore,
            SweepOp::CopyStridedLoads | SweepOp::CopyStridedStores => ProbeOp::LocalCopy,
            SweepOp::RemoteLoad => ProbeOp::RemoteLoad,
            SweepOp::RemoteFetch => ProbeOp::RemoteFetch,
            SweepOp::RemoteDeposit => ProbeOp::RemoteDeposit,
        }
    }

    /// The [`ProbeRequest`] for one grid cell of this benchmark — the
    /// single place the grid's `stride` maps onto an operation's stride
    /// pair (strided-load copies stride the load side, strided-store
    /// copies the store side).
    pub fn request(self, ws_bytes: u64, stride: u64) -> ProbeRequest {
        match self {
            SweepOp::CopyStridedStores => {
                ProbeRequest::new(ProbeOp::LocalCopy, ws_bytes, 1).with_stride2(stride)
            }
            SweepOp::CopyStridedLoads => {
                ProbeRequest::new(ProbeOp::LocalCopy, ws_bytes, stride).with_stride2(1)
            }
            other => ProbeRequest::new(other.probe_op(), ws_bytes, stride),
        }
    }

    /// Measures one cell on `machine` through the unified probe API.
    /// `None` when the operation is unsupported there.
    pub fn measure(self, machine: &mut dyn Machine, ws_bytes: u64, stride: u64) -> Option<f64> {
        machine
            .probe(&self.request(ws_bytes, stride))
            .map(|m| m.mb_s)
    }
}

/// Sweeps `op` over `grid` on `threads` workers through the run scheduler
/// (`sweep::run_cells`): workers claim whole same-stride runs and
/// reuse one warm engine per run. Every probe starts from flushed
/// (≡ just-constructed) state, so the surface is bit-identical to
/// [`sweep_surface`] of the same spec for any thread count.
///
/// Returns `Ok(None)` when the machine does not support `op`.
///
/// # Errors
///
/// Returns [`SimError`] when the spec fails to build an engine.
pub fn sweep_surface_par<S: SpawnEngine>(
    spawner: &S,
    op: SweepOp,
    grid: &Grid,
    threads: usize,
) -> Result<Option<Surface>, SimError> {
    let title = op.title_for(&spawner.spawn_engine()?.name());
    let cells: Vec<(u64, u64)> = (0..grid.cells()).map(|i| grid.cell(i)).collect();
    let slots = run_cells(threads, &cells, &CancelToken::new(), |warm, ws, stride| {
        Some(warm.engine(spawner).map(|e| op.measure(e, ws, stride)))
    });
    // Cells come back in grid order: working sets outer, strides inner.
    let mut values = vec![Vec::with_capacity(grid.strides.len()); grid.working_sets.len()];
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.expect("a live claim reaches every cell")? {
            Some(mb_s) => values[i / grid.strides.len()].push(mb_s),
            None => return Ok(None),
        }
    }
    Ok(Some(Surface::new(
        title,
        grid.strides.clone(),
        grid.working_sets.clone(),
        values,
    )))
}

/// Sweeps `op` over `grid` on one machine, cell by cell in grid order —
/// the sequential reference that [`sweep_surface_par`] and the resilient
/// runner must match bit for bit. Returns `None` when the machine does not
/// support `op`.
pub fn sweep_surface(machine: &mut dyn Machine, op: SweepOp, grid: &Grid) -> Option<Surface> {
    let title = op.title_for(&machine.name());
    let mut values = Vec::with_capacity(grid.working_sets.len());
    for &ws in &grid.working_sets {
        let mut row = Vec::with_capacity(grid.strides.len());
        for &stride in &grid.strides {
            row.push(op.measure(machine, ws, stride)?);
        }
        values.push(row);
    }
    Some(Surface::new(
        title,
        grid.strides.clone(),
        grid.working_sets.clone(),
        values,
    ))
}

/// Sweeps the indexed (gather) benchmark along the working-set axis — a 1D
/// curve, since a random permutation has no stride parameter.
pub fn local_gather_curve(machine: &mut dyn Machine, working_sets: &[u64]) -> Vec<(u64, f64)> {
    working_sets
        .iter()
        .map(|&ws| {
            let req = ProbeRequest::new(ProbeOp::LocalGather, ws, 0);
            (ws, machine.probe(&req).expect("gathers always run").mb_s)
        })
        .collect()
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
    fn t3d_load_surface_has_two_plateaus() {
        let mut m = fast(MachineSpec::t3d());
        let grid = Grid {
            strides: vec![1, 16],
            working_sets: vec![4 << 10, 4 << 20],
        };
        let s = sweep_surface(&mut m, SweepOp::LocalLoad, &grid).unwrap();
        let l1 = s.value(4 << 10, 1).unwrap();
        let dram_contig = s.value(4 << 20, 1).unwrap();
        let dram_strided = s.value(4 << 20, 16).unwrap();
        assert!(l1 > 2.0 * dram_contig, "{l1} vs {dram_contig}");
        assert!(
            dram_contig > 3.0 * dram_strided,
            "{dram_contig} vs {dram_strided}"
        );
    }

    #[test]
    fn dec8400_remote_surfaces() {
        let mut m = fast(MachineSpec::dec8400());
        let grid = Grid {
            strides: vec![1, 16],
            working_sets: vec![8 << 20],
        };
        assert!(sweep_surface(&mut m, SweepOp::RemoteLoad, &grid).is_some());
        assert!(sweep_surface(&mut m, SweepOp::RemoteFetch, &grid).is_some());
        assert!(
            sweep_surface(&mut m, SweepOp::RemoteDeposit, &grid).is_none(),
            "8400 cannot push"
        );
    }

    #[test]
    fn t3e_deposit_surface_shows_ripples() {
        let mut m = fast(MachineSpec::t3e());
        let grid = Grid {
            strides: vec![15, 16],
            working_sets: vec![4 << 20],
        };
        let s = sweep_surface(&mut m, SweepOp::RemoteDeposit, &grid).unwrap();
        let odd = s.value(4 << 20, 15).unwrap();
        let even = s.value(4 << 20, 16).unwrap();
        assert!(odd > 1.5 * even, "ripples: odd {odd} vs even {even}");
    }

    #[test]
    fn copy_variants_differ_on_the_t3d() {
        let mut m = fast(MachineSpec::t3d());
        let grid = Grid {
            strides: vec![16],
            working_sets: vec![4 << 20],
        };
        let loads = sweep_surface(&mut m, SweepOp::CopyStridedLoads, &grid).unwrap();
        let stores = sweep_surface(&mut m, SweepOp::CopyStridedStores, &grid).unwrap();
        assert!(
            stores.value(4 << 20, 16).unwrap() > loads.value(4 << 20, 16).unwrap(),
            "T3D strided stores must beat strided loads"
        );
    }

    #[test]
    fn gather_curve_falls_with_working_set() {
        let mut m = fast(MachineSpec::t3d());
        let curve = local_gather_curve(&mut m, &[4 << 10, 4 << 20]);
        assert_eq!(curve.len(), 2);
        assert!(
            curve[0].1 > 3.0 * curve[1].1,
            "cache-resident gathers must be far faster: {curve:?}"
        );
    }

    #[test]
    fn measured_surface_reveals_the_cache_sizes() {
        // Working-set spectroscopy on the simulated T3D finds its 8 KB L1.
        let mut m = fast(MachineSpec::t3d());
        let grid = Grid {
            strides: vec![1],
            working_sets: vec![2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10],
        };
        let s = sweep_surface(&mut m, SweepOp::LocalLoad, &grid).unwrap();
        let caches = s.inferred_cache_bytes();
        assert_eq!(
            caches,
            vec![8 << 10],
            "the T3D has exactly one 8 KB cache, got {caches:?}"
        );
    }

    #[test]
    fn store_surface_runs() {
        let mut m = fast(MachineSpec::t3e());
        let grid = Grid {
            strides: vec![1],
            working_sets: vec![64 << 10],
        };
        let s = sweep_surface(&mut m, SweepOp::LocalStore, &grid).unwrap();
        assert!(s.peak() > 0.0);
    }

    #[test]
    fn sweep_op_labels_round_trip() {
        for op in SweepOp::all() {
            assert_eq!(SweepOp::parse(op.label()), Some(op));
        }
        assert_eq!(SweepOp::parse("teleport"), None);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let grid = Grid {
            strides: vec![1, 8, 16],
            working_sets: vec![32 << 10, 4 << 20],
        };
        let mut m = unmemoized(MachineSpec::t3d());
        let sequential = sweep_surface(&mut m, SweepOp::RemoteDeposit, &grid).unwrap();
        let parallel = sweep_surface_par(&spec, SweepOp::RemoteDeposit, &grid, 4)
            .unwrap()
            .unwrap();
        assert_eq!(parallel.title(), sequential.title());
        for &ws in &grid.working_sets {
            for &stride in &grid.strides {
                let a = sequential.value(ws, stride).unwrap().to_bits();
                let b = parallel.value(ws, stride).unwrap().to_bits();
                assert_eq!(a, b, "cell ({ws}, {stride})");
            }
        }
    }

    #[test]
    fn parallel_sweep_of_unsupported_op_is_none() {
        let spec = MachineSpec::dec8400().with_limits(MeasureLimits::fast());
        let grid = Grid {
            strides: vec![1],
            working_sets: vec![32 << 10],
        };
        let got = sweep_surface_par(&spec, SweepOp::RemoteDeposit, &grid, 2).unwrap();
        assert!(got.is_none(), "the 8400 cannot push");
    }

    #[test]
    fn sweep_titles_spell_the_figure_legends() {
        let mut m = fast(MachineSpec::t3d());
        let grid = Grid {
            strides: vec![1],
            working_sets: vec![32 << 10],
        };
        let mut title = |op| {
            sweep_surface(&mut m, op, &grid)
                .unwrap()
                .title()
                .to_string()
        };
        assert_eq!(title(SweepOp::LocalLoad), "Cray T3D (150 MHz) local loads");
        assert_eq!(
            title(SweepOp::CopyStridedStores),
            "Cray T3D (150 MHz) local copy (contiguous loads/strided stores)"
        );
        assert_eq!(
            title(SweepOp::RemoteFetch),
            "Cray T3D (150 MHz) remote fetch"
        );
    }
}

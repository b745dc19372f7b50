//! Sweep grids: the stride and working-set axes of the paper's figures,
//! and the one run scheduler every sweep walks them with.

use std::collections::BTreeMap;

use gasnub_machines::{CancelToken, WarmState};

use crate::pool::run_indexed_while;

/// A sweep grid: which strides and working sets to measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Strides between 64-bit words, ascending.
    pub strides: Vec<u64>,
    /// Working sets in bytes, ascending.
    pub working_sets: Vec<u64>,
}

impl Grid {
    /// The stride axis of figs 1-8:
    /// 1..8, 12, 15, 16, 24, 31, 32, 48, 63, 64, 96, 127, 128, 192.
    pub fn paper_strides() -> Vec<u64> {
        vec![
            1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 24, 31, 32, 48, 63, 64, 96, 127, 128, 192,
        ]
    }

    /// The stride axis of the large-transfer figures 9-14:
    /// 1..8, 12, 15, 16, 24, 31, 32, 48, 63, 64.
    pub fn copy_strides() -> Vec<u64> {
        vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 24, 31, 32, 48, 63, 64]
    }

    /// The working-set axis of figs 1-8: 0.5 KB to `max` by powers of two.
    pub fn paper_working_sets(max: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut ws = 512u64;
        while ws <= max {
            out.push(ws);
            ws *= 2;
        }
        out
    }

    /// The full paper grid for local surfaces (up to 128 MB like Fig. 1).
    pub fn paper_local() -> Self {
        Grid {
            strides: Self::paper_strides(),
            working_sets: Self::paper_working_sets(128 << 20),
        }
    }

    /// The full paper grid for remote surfaces (up to 8 MB like figs 2/4-8).
    pub fn paper_remote() -> Self {
        Grid {
            strides: Self::paper_strides(),
            working_sets: Self::paper_working_sets(8 << 20),
        }
    }

    /// A small grid for tests and examples: six strides, working sets
    /// 2 KB - 8 MB.
    pub fn quick() -> Self {
        Grid {
            strides: vec![1, 2, 8, 16, 64],
            working_sets: vec![2 << 10, 32 << 10, 512 << 10, 4 << 20, 8 << 20],
        }
    }

    /// Number of cells this grid contains.
    pub fn cells(&self) -> usize {
        self.strides.len() * self.working_sets.len()
    }

    /// The `(working_set, stride)` of cell `idx` in row-major order
    /// (working sets outer, strides inner) — the order every sweep
    /// iterates and every checkpoint records.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= self.cells()`.
    pub fn cell(&self, idx: usize) -> (u64, u64) {
        let ws = self.working_sets[idx / self.strides.len()];
        let stride = self.strides[idx % self.strides.len()];
        (ws, stride)
    }

    /// Groups `cells` (given as `(working_set, stride)` pairs, typically the
    /// remaining work of a sweep in grid order) into **runs**: chains of
    /// cells sharing a stride, in ascending working-set order. Runs are the
    /// scheduling unit of the warm-path sweep engine — a worker takes a
    /// whole run, spawns one engine for it and walks the chain, so each
    /// cell's working set is a prefix extension of the previous one at the
    /// same stride (the engine's allocations, and the host's caches, stay
    /// hot). Runs are ordered by first appearance of their stride; cells
    /// inside a run keep their input order.
    pub fn runs_of(cells: &[(u64, u64)]) -> Vec<Vec<(u64, u64)>> {
        let mut order: Vec<u64> = Vec::new();
        let mut runs: Vec<Vec<(u64, u64)>> = Vec::new();
        for &(ws, stride) in cells {
            match order.iter().position(|&s| s == stride) {
                Some(i) => runs[i].push((ws, stride)),
                None => {
                    order.push(stride);
                    runs.push(vec![(ws, stride)]);
                }
            }
        }
        runs
    }
}

/// The run scheduler behind every sweep in this crate
/// ([`crate::bench::sweep_surface_par`], [`crate::counters::collect_counters`]
/// and [`crate::resilient::ResilientSweep::run_parallel`]).
///
/// `cells` are grouped into runs ([`Grid::runs_of`]); `threads` workers
/// claim whole runs from the pool while `claim` is live, and each run gets
/// one [`WarmState`] engine cache that `cell` probes through, in ascending
/// working-set order. Every probe starts from flushed (≡ just-constructed)
/// engine state, so results do not depend on which worker walked which run.
///
/// Returns one slot per cell, in the order of `cells`. A slot is `None`
/// when `cell` returned `None`, when its run was never claimed, or when
/// `claim` was cancelled before the cell was reached.
pub(crate) fn run_cells<E, T, F>(
    threads: usize,
    cells: &[(u64, u64)],
    claim: &CancelToken,
    cell: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(&mut WarmState<E>, u64, u64) -> Option<T> + Sync,
{
    let runs = Grid::runs_of(cells);
    let per_run = run_indexed_while(threads, runs.len(), claim, |r| {
        let mut warm = WarmState::new();
        runs[r]
            .iter()
            .map(|&(ws, stride)| {
                if claim.is_cancelled() {
                    None
                } else {
                    cell(&mut warm, ws, stride)
                }
            })
            .collect::<Vec<_>>()
    });
    let mut gathered = BTreeMap::new();
    for (run, slots) in runs.iter().zip(per_run) {
        for (&key, slot) in run.iter().zip(slots.into_iter().flatten()) {
            if let Some(value) = slot {
                gathered.insert(key, value);
            }
        }
    }
    cells.iter().map(|key| gathered.remove(key)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_axes_match_figure_labels() {
        let s = Grid::paper_strides();
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&192));
        assert!(s.contains(&31) && s.contains(&63) && s.contains(&127));
        let ws = Grid::paper_working_sets(128 << 20);
        assert_eq!(ws.first(), Some(&512));
        assert_eq!(ws.last(), Some(&(128 << 20)));
        assert_eq!(ws.len(), 19); // 0.5K .. 128M by powers of two
    }

    #[test]
    fn axes_are_ascending() {
        for grid in [Grid::paper_local(), Grid::paper_remote(), Grid::quick()] {
            assert!(grid.strides.windows(2).all(|w| w[0] < w[1]));
            assert!(grid.working_sets.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn cells_is_the_product() {
        let g = Grid::quick();
        assert_eq!(g.cells(), g.strides.len() * g.working_sets.len());
    }

    #[test]
    fn runs_partition_the_grid_by_stride() {
        let g = Grid::quick();
        let cells: Vec<(u64, u64)> = (0..g.cells()).map(|i| g.cell(i)).collect();
        let runs = Grid::runs_of(&cells);
        assert_eq!(runs.len(), g.strides.len());
        let total: usize = runs.iter().map(Vec::len).sum();
        assert_eq!(total, g.cells());
        for (run, &stride) in runs.iter().zip(&g.strides) {
            assert!(run.iter().all(|&(_, s)| s == stride));
            // Working sets ascend within a run: each cell extends the
            // previous cell's address chain.
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn runs_of_a_sparse_work_list_preserve_order() {
        // A resumed sweep attempts only the remaining cells.
        let cells = [(2048, 8), (4096, 1), (4096, 8), (8192, 1)];
        let runs = Grid::runs_of(&cells);
        assert_eq!(
            runs,
            vec![vec![(2048, 8), (4096, 8)], vec![(4096, 1), (8192, 1)],]
        );
        assert!(Grid::runs_of(&[]).is_empty());
    }

    #[test]
    fn run_cells_gathers_in_cell_order_and_skips_after_cancel() {
        let g = Grid::quick();
        let cells: Vec<(u64, u64)> = (0..g.cells()).map(|i| g.cell(i)).collect();
        let expected: Vec<Option<u64>> = cells.iter().map(|&(ws, s)| Some(ws * s)).collect();
        for threads in [1, 4] {
            let got = run_cells(
                threads,
                &cells,
                &CancelToken::new(),
                |_: &mut WarmState<()>, ws, s| Some(ws * s),
            );
            assert_eq!(got, expected, "threads={threads}");

            // Once a cell cancels the claim, each worker reaches at most
            // the cell it had already started.
            let claim = CancelToken::new();
            let got = run_cells(threads, &cells, &claim, |_: &mut WarmState<()>, ws, s| {
                claim.cancel();
                Some(ws * s)
            });
            let reached = got.iter().flatten().count();
            assert!(
                (1..=threads).contains(&reached),
                "threads={threads}: {reached}"
            );
        }
    }

    #[test]
    fn cell_indexing_matches_the_nested_loop_order() {
        let g = Grid::quick();
        let mut idx = 0;
        for &ws in &g.working_sets {
            for &stride in &g.strides {
                assert_eq!(g.cell(idx), (ws, stride));
                idx += 1;
            }
        }
        assert_eq!(idx, g.cells());
    }
}

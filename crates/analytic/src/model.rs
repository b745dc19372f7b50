//! The closed-form bandwidth model and its calibration machinery.
//!
//! ## Model shape
//!
//! Following the ECM ansatz (Treibig & Hager), a bandwidth-limited strided
//! kernel's throughput is a *plateau function* of the working set: flat
//! wherever one hierarchy level dominates, with transitions pinned to the
//! cache capacities. The gasnub simulator's surfaces have exactly this
//! shape by construction — within a regime the hit ratio, stream-buffer
//! state and DRAM row behavior are independent of the working set — so the
//! model is a per-`(op, stride)` step function over working-set *regimes*
//! rather than a curve over cells.
//!
//! ## Derivation from the spec
//!
//! The **structure** comes straight from the [`MachineSpec`]: each cache
//! level with capacity `c_i` contributes a trust window
//! `[max(512, 4·c_{i-1}), c_i / 2]` (safely inside the regime, away from
//! both transition shoulders), and everything past `4·c_top` is the memory
//! regime. The **plateau values** are calibrated, not guessed: the model
//! probes the cycle-accounting simulator at up to three *anchor* working
//! sets per window (the edges plus a power-of-two geometric mid) and at a
//! lazily-extended ×4 ladder through the memory regime. Anchor results are
//! memoized per `(op, strides, working set, measurement caps)`, so a full
//! reference-grid sweep costs a handful of simulated probes per
//! `(op, stride)` class and every further cell is O(1) arithmetic.
//!
//! ## Trust
//!
//! A prediction is [`Prediction::Trusted`] only when the simulator itself
//! *demonstrates* the plateau: all anchors of the cell's window must agree
//! pairwise within half the machine's calibration tolerance. A cell in a
//! transition zone (between windows), or whose window turns out not to be
//! flat (bank-conflict ripples, stride/associativity aliasing), is
//! [`Prediction::Untrusted`] and falls back to full simulation in the
//! `Auto` tier. This makes the agreement guarantee structural: trusting a
//! cell requires the ground truth to be flat around it.

use std::collections::HashMap;
use std::sync::Mutex;

use gasnub_machines::{
    words_of, Machine, MachineSpec, MeasureLimits, Measurement, ProbeOp, ProbeRequest, SpawnEngine,
    TransferEngine,
};
use gasnub_memsim::{SimError, WORD_BYTES};

/// Trust tolerance when the spec does not set a calibration tolerance.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Fraction of the machine tolerance the anchors must agree within for a
/// window to be trusted. Half the budget is spent proving flatness; the
/// other half absorbs the residual between the nearest anchor and the cell.
const TRUST_FRACTION: f64 = 0.5;

/// Smallest working set any trust window covers, in bytes.
const MIN_WS: u64 = 512;

/// A working-set regime the model predicts inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    lo: u64,
    /// Upper edge; `None` for the unbounded memory regime.
    hi: Option<u64>,
}

/// One calibrated sample: the simulator's bandwidth for an `(op, strides,
/// working set, caps)` point, or `None` when the machine does not support
/// the op (support never depends on the cell).
type AnchorKey = (ProbeOp, u64, u64, u64, u64, u64);

/// Mutable calibration state behind the model's lock: the probing engine
/// plus every anchor measured so far. Anchor values are pure functions of
/// the spec and the key (the simulator's determinism invariant), so the
/// cache only avoids recomputation — it never changes an answer, which is
/// what keeps multi-threaded sweeps byte-identical regardless of which
/// thread populates an entry first.
struct CalState {
    engine: TransferEngine,
    anchors: HashMap<AnchorKey, Option<f64>>,
}

/// The verdict of the model for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prediction {
    /// The cell sits on a demonstrated plateau; the measurement is the
    /// closed-form answer.
    Trusted(Measurement),
    /// The cell is in a transition zone or its window is not flat — the
    /// caller must simulate.
    Untrusted,
    /// The machine does not support the operation (e.g. deposits on the
    /// 8400); matches the simulator returning `None`.
    Unsupported,
}

/// An ECM-style analytic bandwidth model derived from a [`MachineSpec`]
/// and calibrated against the spec's own simulator.
///
/// Cheap to share: clone the surrounding `Arc` and every spawned tiered
/// machine reuses one calibration (see `CalState` for why sharing cannot
/// perturb results).
pub struct AnalyticModel {
    spec: MachineSpec,
    clock_mhz: f64,
    /// Cache capacities, innermost first.
    caps: Vec<u64>,
    tolerance: f64,
    cal: Mutex<CalState>,
}

impl std::fmt::Debug for AnalyticModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticModel")
            .field("label", &self.spec.label())
            .field("caps", &self.caps)
            .field("tolerance", &self.tolerance)
            .field("anchors", &self.anchor_count())
            .finish()
    }
}

impl AnalyticModel {
    /// Derives a model from `spec`: regime structure from the cache
    /// capacities, trust budget from the spec's calibration tolerance
    /// (or [`DEFAULT_TOLERANCE`]).
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure when the spec cannot build its
    /// calibration engine.
    pub fn new(spec: &MachineSpec) -> Result<Self, SimError> {
        let engine = spec.spawn_engine()?;
        let caps = spec
            .node_config()
            .hierarchy
            .levels
            .iter()
            .map(|level| level.cache.capacity_bytes)
            .collect();
        Ok(AnalyticModel {
            spec: spec.clone(),
            clock_mhz: spec.clock_mhz(),
            caps,
            tolerance: spec.calibration_tolerance().unwrap_or(DEFAULT_TOLERANCE),
            cal: Mutex::new(CalState {
                engine,
                anchors: HashMap::new(),
            }),
        })
    }

    /// The spec this model was derived from.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The relative disagreement budget trusted predictions stay within.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Number of anchor cells calibrated (simulated) so far.
    pub fn anchor_count(&self) -> usize {
        let state = match self.cal.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.anchors.len()
    }

    /// The model's trust windows as `(lo, hi)` byte ranges (`hi = None`
    /// for the unbounded memory regime). Exposed for docs and tests; the
    /// gaps between windows are the tiering decision boundary.
    pub fn windows(&self) -> Vec<(u64, Option<u64>)> {
        let mut out: Vec<(u64, Option<u64>)> = self
            .cache_windows()
            .into_iter()
            .map(|w| (w.lo, w.hi))
            .collect();
        out.push((self.memory_floor(), None));
        out
    }

    /// Trust windows inside the cache hierarchy. A level squeezed between
    /// a close-by inner capacity and its own half-capacity can yield an
    /// empty window, which simply isn't offered.
    fn cache_windows(&self) -> Vec<Window> {
        let mut out = Vec::new();
        let mut prev = 0u64;
        for &cap in &self.caps {
            let lo = MIN_WS.max(4 * prev);
            let hi = cap / 2;
            if lo <= hi {
                out.push(Window { lo, hi: Some(hi) });
            }
            prev = cap;
        }
        out
    }

    /// Lower edge of the memory regime: far enough past the outermost
    /// cache that capacity misses dominate.
    fn memory_floor(&self) -> u64 {
        (2 * MIN_WS).max(4 * self.caps.last().copied().unwrap_or(MIN_WS))
    }

    /// Anchor working sets of a bounded window: the edges plus a
    /// power-of-two geometric mid (grid working sets are powers of two, so
    /// a power-of-two mid keeps stride/associativity aliasing congruent
    /// across the window).
    fn window_anchors(w: Window) -> Vec<u64> {
        let hi = w.hi.expect("bounded window");
        let mid = ((w.lo as f64).log2() + (hi as f64).log2()) / 2.0;
        let mid = (mid.round() as u32).min(62);
        let mut anchors = vec![w.lo, (1u64 << mid).clamp(w.lo, hi), hi];
        anchors.sort_unstable();
        anchors.dedup();
        anchors
    }

    /// Anchor working sets of the ×4 memory ladder around `ws`: the
    /// nearest rung in log space plus its neighbors.
    fn ladder_anchors(&self, ws: u64) -> Vec<u64> {
        let floor = self.memory_floor();
        let ratio = (ws.max(floor) as f64) / (floor as f64);
        // log4(ratio), nearest rung.
        let k = (ratio.log2() / 2.0).round().max(0.0) as u32;
        let mut anchors: Vec<u64> = [k.saturating_sub(1), k, k + 1]
            .into_iter()
            .map(|k| floor.saturating_mul(4u64.saturating_pow(k)))
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        anchors
    }

    /// The anchors governing `ws`, or `None` when `ws` falls in a
    /// transition zone between regimes (→ untrusted).
    fn anchors_for(&self, ws: u64) -> Option<Vec<u64>> {
        for w in self.cache_windows() {
            if ws >= w.lo && ws <= w.hi.unwrap_or(u64::MAX) {
                return Some(Self::window_anchors(w));
            }
        }
        if ws >= self.memory_floor() {
            return Some(self.ladder_anchors(ws));
        }
        None
    }

    /// Every candidate anchor near `ws`, transition zones included — the
    /// forced-tier lookup set.
    fn all_anchors(&self, ws: u64) -> Vec<u64> {
        let mut anchors: Vec<u64> = self
            .cache_windows()
            .into_iter()
            .flat_map(Self::window_anchors)
            .collect();
        anchors.extend(self.ladder_anchors(ws));
        anchors.sort_unstable();
        anchors.dedup();
        anchors
    }

    /// Log-space distance between two working sets.
    fn log_dist(a: u64, b: u64) -> f64 {
        ((a.max(1) as f64).log2() - (b.max(1) as f64).log2()).abs()
    }

    /// Simulates (or recalls) the anchor `(op, strides, ws)` under `limits`.
    fn anchor_mb_s(
        &self,
        op: ProbeOp,
        stride: u64,
        stride2: u64,
        ws: u64,
        limits: MeasureLimits,
    ) -> Option<f64> {
        let key = (
            op,
            stride,
            stride2,
            ws,
            limits.max_measure_words,
            limits.max_prime_words,
        );
        let mut state = match self.cal.lock() {
            Ok(g) => g,
            // Anchor probes cannot tear the map (single insert per probe);
            // recover like the probe memo does.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(&v) = state.anchors.get(&key) {
            return v;
        }
        state.engine.set_limits(limits);
        let req = ProbeRequest::new(op, ws, stride).with_stride2(stride2);
        let value = state.engine.probe(&req).map(|m| m.mb_s);
        state.anchors.insert(key, value);
        value
    }

    /// Reconstructs a [`Measurement`] for a cell from a plateau bandwidth,
    /// mirroring the simulator's payload accounting (measured words ×
    /// word size).
    fn measurement(&self, ws: u64, limits: MeasureLimits, mb_s: f64) -> Measurement {
        let bytes = limits.measure_words(words_of(ws)) * WORD_BYTES;
        let cycles = if mb_s > 0.0 {
            bytes as f64 * self.clock_mhz / mb_s
        } else {
            0.0
        };
        Measurement::new(bytes, cycles, self.clock_mhz)
    }

    /// Predicts one cell, trusting the answer only on a demonstrated
    /// plateau (see the module docs for the trust rule).
    pub fn predict(
        &self,
        op: ProbeOp,
        ws: u64,
        stride: u64,
        stride2: u64,
        limits: MeasureLimits,
    ) -> Prediction {
        let Some(anchors) = self.anchors_for(ws) else {
            return Prediction::Untrusted;
        };
        let mut values = Vec::with_capacity(anchors.len());
        for &a in &anchors {
            match self.anchor_mb_s(op, stride, stride2, a, limits) {
                Some(v) => values.push(v),
                // Support is cell-independent: one unsupported anchor
                // means the op is unsupported everywhere.
                None => return Prediction::Unsupported,
            }
        }
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        if min <= 0.0 || max / min - 1.0 > self.tolerance * TRUST_FRACTION {
            return Prediction::Untrusted;
        }
        let nearest = anchors
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                Self::log_dist(**a, ws)
                    .partial_cmp(&Self::log_dist(**b, ws))
                    .expect("finite log distances")
            })
            .map(|(i, _)| values[i])
            .expect("windows always carry anchors");
        Prediction::Trusted(self.measurement(ws, limits, nearest))
    }

    /// Predicts one cell unconditionally from the nearest anchor,
    /// transition zones and non-flat windows included — the forced
    /// `analytic` tier. `None` when the op is unsupported.
    pub fn predict_forced(
        &self,
        op: ProbeOp,
        ws: u64,
        stride: u64,
        stride2: u64,
        limits: MeasureLimits,
    ) -> Option<Measurement> {
        let anchors = self.all_anchors(ws);
        let nearest = anchors
            .into_iter()
            .min_by(|a, b| {
                Self::log_dist(*a, ws)
                    .partial_cmp(&Self::log_dist(*b, ws))
                    .expect("finite log distances")
            })
            .expect("the memory ladder is never empty");
        let mb_s = self.anchor_mb_s(op, stride, stride2, nearest, limits)?;
        Some(self.measurement(ws, limits, mb_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::Machine;

    #[test]
    fn windows_stay_inside_regimes_and_leave_transition_gaps() {
        let model = AnalyticModel::new(&MachineSpec::dec8400()).unwrap();
        // 8K L1 / 96K L2 / 4M L3 → windows [512,4K], [32K,48K], [384K,2M],
        // memory floor 16M.
        let windows = model.windows();
        assert_eq!(
            windows,
            vec![
                (512, Some(4 << 10)),
                (32 << 10, Some(48 << 10)),
                (384 << 10, Some(2 << 20)),
                (16 << 20, None),
            ]
        );
        // 8M sits in the L3→memory transition: untrusted by construction.
        assert!(model.anchors_for(8 << 20).is_none());
        assert!(model.anchors_for(2 << 10).is_some());
    }

    #[test]
    fn trusted_predictions_match_the_simulator_on_anchor_cells() {
        let spec = MachineSpec::t3d();
        let model = AnalyticModel::new(&spec).unwrap();
        let limits = MeasureLimits::fast();
        // The memory floor is itself an anchor: the prediction must be the
        // simulator's own value there.
        let ws = 32 << 10;
        match model.predict(ProbeOp::LocalLoad, ws, 1, 0, limits) {
            Prediction::Trusted(m) => {
                let mut sim = spec.spawn_engine().unwrap();
                sim.set_limits(limits);
                let truth = sim
                    .probe(&ProbeRequest::new(ProbeOp::LocalLoad, ws, 1))
                    .unwrap();
                let rel = (m.mb_s - truth.mb_s).abs() / truth.mb_s;
                assert!(rel < 1e-9, "anchor cell must be exact, got rel {rel}");
            }
            other => panic!("expected a trusted in-window prediction, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_ops_are_reported_not_guessed() {
        let model = AnalyticModel::new(&MachineSpec::t3d()).unwrap();
        // Pure remote loads are an SMP-only probe.
        assert_eq!(
            model.predict(ProbeOp::RemoteLoad, 32 << 10, 1, 0, MeasureLimits::fast()),
            Prediction::Unsupported
        );
        assert!(model
            .predict_forced(ProbeOp::RemoteLoad, 32 << 10, 1, 0, MeasureLimits::fast())
            .is_none());
    }

    #[test]
    fn forced_predictions_cover_transition_zones() {
        let model = AnalyticModel::new(&MachineSpec::dec8400()).unwrap();
        let forced = model
            .predict_forced(ProbeOp::LocalLoad, 8 << 20, 1, 0, MeasureLimits::fast())
            .expect("local loads always supported");
        assert!(forced.mb_s > 0.0);
    }

    #[test]
    fn calibration_is_shared_and_counted() {
        let model = AnalyticModel::new(&MachineSpec::t3e()).unwrap();
        assert_eq!(model.anchor_count(), 0);
        let _ = model.predict(ProbeOp::LocalLoad, 2 << 10, 1, 0, MeasureLimits::fast());
        let after_first = model.anchor_count();
        assert!(after_first > 0);
        // Same window, different cell: no new anchors.
        let _ = model.predict(ProbeOp::LocalLoad, 3 << 10, 1, 0, MeasureLimits::fast());
        assert_eq!(model.anchor_count(), after_first);
    }
}

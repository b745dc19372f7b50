//! Tiered execution: one machine, two backends, per-cell routing.
//!
//! A [`TieredMachine`] pairs a full [`TransferEngine`] with a shared
//! [`AnalyticModel`] and routes every probe by tier:
//!
//! * `Simulate` — everything runs through the simulator (the default CLI
//!   behavior, bit-compatible with pre-tier releases);
//! * `Analytic` — every cell is answered from the model's nearest anchor,
//!   trusted or not (model validation and raw speed);
//! * `Auto` — trusted cells take the closed-form answer, everything else
//!   (transition zones, non-flat windows, unsupported ops aside) simulates.
//!
//! Routing is *forced* to simulation whenever probe side effects matter,
//! regardless of tier: an enabled recorder must observe real component
//! counters. A spec's run context (memo, `--cold` priming) only decides
//! how the simulator runs, never which tier answers a cell, so `--cold`
//! gives the same answers at every tier. Fault
//! plans are kept out of the analytic path one layer up — the CLI
//! downgrades the tier to `sim` whenever a plan is active — so a model is
//! only ever consulted for the healthy installation it calibrated against.

use std::sync::Arc;

use gasnub_machines::cancel::CancelToken;
use gasnub_machines::{
    Machine, MachineId, MachineSpec, MeasureLimits, Measurement, ProbePath, ProbeRequest,
    ProbeTier, SpawnEngine, TransferEngine,
};
use gasnub_memsim::SimError;
use gasnub_trace::{CounterSet, Event, Recorder};

use crate::model::{AnalyticModel, Prediction};

/// A spawner producing [`TieredMachine`]s that all share one calibrated
/// [`AnalyticModel`]. Drop-in wherever a [`MachineSpec`] is used as a
/// [`SpawnEngine`] — parallel sweeps get per-thread engines but a single
/// calibration, which keeps checkpoints byte-identical across thread
/// counts.
#[derive(Debug, Clone)]
pub struct TieredSpec {
    spec: MachineSpec,
    model: Arc<AnalyticModel>,
    tier: ProbeTier,
}

impl TieredSpec {
    /// Derives the analytic model from `spec` and binds the tier spawned
    /// machines route by.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure when the spec cannot build the model's
    /// calibration engine.
    pub fn new(spec: MachineSpec, tier: ProbeTier) -> Result<Self, SimError> {
        let model = Arc::new(AnalyticModel::new(&spec)?);
        Ok(TieredSpec { spec, model, tier })
    }

    /// The underlying machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The shared analytic model.
    pub fn model(&self) -> &Arc<AnalyticModel> {
        &self.model
    }

    /// The tier spawned machines route by.
    pub fn tier(&self) -> ProbeTier {
        self.tier
    }
}

impl SpawnEngine for TieredSpec {
    type Engine = TieredMachine;

    fn spawn_engine(&self) -> Result<TieredMachine, SimError> {
        Ok(TieredMachine {
            sim: self.spec.spawn_engine()?,
            model: Arc::clone(&self.model),
            tier: self.tier,
            last_path: ProbePath::Simulated,
        })
    }
}

/// Where a routed probe goes.
enum Route {
    /// Answered without per-cell simulation (`None` = unsupported op).
    Value(Option<Measurement>),
    /// Run the full simulator.
    Sim,
}

/// A [`Machine`] whose probes route between the analytic model and a full
/// simulator engine by tier. See the module docs for the routing rules.
#[derive(Debug)]
pub struct TieredMachine {
    sim: TransferEngine,
    model: Arc<AnalyticModel>,
    /// The spawning [`TieredSpec`]'s tier.
    tier: ProbeTier,
    /// Which path answered the most recent probe.
    last_path: ProbePath,
}

impl TieredMachine {
    /// The shared analytic model.
    pub fn model(&self) -> &Arc<AnalyticModel> {
        &self.model
    }

    /// Which path answered the most recent probe.
    pub fn last_path(&self) -> ProbePath {
        self.last_path
    }

    /// Routes one (normalised) request. Side effects win over tiers:
    /// observed probes always simulate.
    fn route(&mut self, req: &ProbeRequest) -> Route {
        if self.sim.recorder_enabled() {
            self.last_path = ProbePath::Simulated;
            return Route::Sim;
        }
        let (op, ws, stride, stride2) = (req.op, req.ws_bytes, req.stride, req.stride2);
        let limits = self.sim.limits();
        let route = match self.tier {
            ProbeTier::Simulate => Route::Sim,
            ProbeTier::Analytic => {
                Route::Value(self.model.predict_forced(op, ws, stride, stride2, limits))
            }
            ProbeTier::Auto => match self.model.predict(op, ws, stride, stride2, limits) {
                Prediction::Trusted(m) => Route::Value(Some(m)),
                Prediction::Unsupported => Route::Value(None),
                Prediction::Untrusted => Route::Sim,
            },
        };
        self.last_path = match route {
            Route::Value(_) => ProbePath::Analytic,
            Route::Sim => ProbePath::Simulated,
        };
        route
    }
}

impl Machine for TieredMachine {
    fn id(&self) -> MachineId {
        self.sim.id()
    }

    fn name(&self) -> String {
        self.sim.name()
    }

    fn label(&self) -> String {
        self.sim.label()
    }

    fn clock_mhz(&self) -> f64 {
        self.sim.clock_mhz()
    }

    fn limits(&self) -> MeasureLimits {
        self.sim.limits()
    }

    fn set_limits(&mut self, limits: MeasureLimits) {
        self.sim.set_limits(limits);
    }

    fn probe(&mut self, req: &ProbeRequest) -> Option<Measurement> {
        let req = req.normalized();
        match self.route(&req) {
            Route::Value(Some(m)) => Some(m),
            // Local probes are universally supported; an (impossible)
            // analytic refusal still answers rather than panicking.
            Route::Value(None) if req.op.is_remote() => None,
            Route::Value(None) | Route::Sim => self.sim.probe(&req),
        }
    }

    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.sim.set_recorder(recorder);
    }

    fn take_counters(&mut self) -> Option<CounterSet> {
        self.sim.take_counters()
    }

    fn drain_events(&mut self) -> Vec<Event> {
        self.sim.drain_events()
    }

    fn set_cancel_token(&mut self, token: CancelToken) {
        self.sim.set_cancel_token(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::ProbeOp;
    use gasnub_machines::ProbeOp::{LocalLoad, RemoteDeposit};

    fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
        ProbeRequest::new(op, ws, stride)
    }

    fn fast(spec: MachineSpec) -> MachineSpec {
        spec.with_limits(MeasureLimits::fast())
    }

    #[test]
    fn sim_tier_is_bit_identical_to_a_plain_engine() {
        let spec = fast(MachineSpec::t3d());
        let tiered = TieredSpec::new(spec.clone(), ProbeTier::Simulate).unwrap();
        let mut a = tiered.spawn_engine().unwrap();
        let mut b = spec.spawn_engine().unwrap();
        let x = a.probe(&req(LocalLoad, 512 << 10, 8)).unwrap();
        let y = b.probe(&req(LocalLoad, 512 << 10, 8)).unwrap();
        assert_eq!(x.cycles.to_bits(), y.cycles.to_bits());
        assert_eq!(a.last_path(), ProbePath::Simulated);
    }

    #[test]
    fn auto_tier_answers_trusted_cells_analytically() {
        let spec = fast(MachineSpec::t3e());
        let tiered = TieredSpec::new(spec, ProbeTier::Auto).unwrap();
        let mut m = tiered.spawn_engine().unwrap();
        // Mid-L1 cell on a machine with generous plateaus.
        let v = m.probe(&req(LocalLoad, 2 << 10, 1)).unwrap();
        assert!(v.mb_s > 0.0);
        assert_eq!(m.last_path(), ProbePath::Analytic);
    }

    #[test]
    fn recorder_forces_simulation_in_every_tier() {
        let spec = fast(MachineSpec::t3e());
        let tiered = TieredSpec::new(spec, ProbeTier::Analytic).unwrap();
        let mut m = tiered.spawn_engine().unwrap();
        m.set_recorder(Box::new(gasnub_trace::RingRecorder::new(4)));
        let _ = m.probe(&req(LocalLoad, 2 << 10, 1)).unwrap();
        assert_eq!(m.last_path(), ProbePath::Simulated);
        assert!(m.take_counters().is_some(), "observed probes harvest");
    }

    #[test]
    fn unsupported_ops_stay_unsupported_across_tiers() {
        let spec = fast(MachineSpec::dec8400());
        for tier in [ProbeTier::Auto, ProbeTier::Analytic, ProbeTier::Simulate] {
            let tiered = TieredSpec::new(spec.clone(), tier).unwrap();
            let mut m = tiered.spawn_engine().unwrap();
            // "The DEC 8400 does not have support for pushing data into
            // memory or caches of a remote processor."
            assert!(
                m.probe(&req(RemoteDeposit, 1 << 20, 1)).is_none(),
                "tier {tier:?}"
            );
        }
    }

    #[test]
    fn spawned_machines_share_one_calibration() {
        let spec = fast(MachineSpec::t3d());
        let tiered = TieredSpec::new(spec, ProbeTier::Auto).unwrap();
        let mut a = tiered.spawn_engine().unwrap();
        let mut b = tiered.spawn_engine().unwrap();
        let x = a.probe(&req(LocalLoad, 2 << 10, 2)).unwrap();
        let count = tiered.model().anchor_count();
        let y = b.probe(&req(LocalLoad, 2 << 10, 2)).unwrap();
        assert_eq!(x.cycles.to_bits(), y.cycles.to_bits());
        assert_eq!(
            tiered.model().anchor_count(),
            count,
            "second machine reuses the first's anchors"
        );
    }
}

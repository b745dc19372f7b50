//! The unified probe API: one request type, one entry point, one answer.
//!
//! Historically every layer picked its probe path through a different
//! mechanism: callers chose among seven per-op [`Machine`] methods, the
//! warm path was selected by handing a [`crate::WarmState`] to the sweep
//! loop, memoization switched off through a hand-built engine's missing
//! spec hash, and the `--cold` escape hatch was a process global. This
//! module collapses that tier selection into data:
//!
//! * a [`ProbeRequest`] names the operation, the grid cell, the measurement
//!   caps and the requested [`ProbeTier`];
//! * a [`ProbeBackend`] answers requests through a single
//!   `probe(&ProbeRequest)` entry point — implemented by the simulator
//!   engine ([`crate::TransferEngine`], which consults the probe memo
//!   internally) and the analytic fast path (`gasnub-analytic`'s tiered
//!   machine);
//! * a [`ProbeOutcome`] carries the measurement plus which path produced
//!   it, so tiered dispatch is observable instead of implicit.
//!
//! The per-op [`Machine`] methods remain as the backend SPI (every backend
//! ultimately implements them), and [`dispatch`] is the one place that maps
//! a request onto them.

use gasnub_memsim::SimError;

use crate::limits::MeasureLimits;
use crate::machine::{Machine, Measurement};
use crate::memo::MemoKey;

/// Which probe an outcome answers. Also the operation half of every memo
/// key (see [`crate::memo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOp {
    /// [`Machine::local_load`] — strided Load-Sum.
    LocalLoad,
    /// [`Machine::local_store`] — strided Store-Constant.
    LocalStore,
    /// [`Machine::local_copy`] — copy with a load and a store stride.
    LocalCopy,
    /// [`Machine::local_gather`] — indexed loads over a permutation.
    LocalGather,
    /// [`Machine::remote_load`] — pure remote loads (the 8400's pull).
    RemoteLoad,
    /// [`Machine::remote_fetch`] — strided remote loads, contiguous local
    /// stores.
    RemoteFetch,
    /// [`Machine::remote_deposit`] — contiguous local loads, strided remote
    /// stores.
    RemoteDeposit,
}

impl ProbeOp {
    /// Short ASCII label ("local_load", "remote_fetch", ...), matching the
    /// `probe.*` event names of the trace layer.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOp::LocalLoad => "local_load",
            ProbeOp::LocalStore => "local_store",
            ProbeOp::LocalCopy => "local_copy",
            ProbeOp::LocalGather => "local_gather",
            ProbeOp::RemoteLoad => "remote_load",
            ProbeOp::RemoteFetch => "remote_fetch",
            ProbeOp::RemoteDeposit => "remote_deposit",
        }
    }

    /// Whether this operation crosses the machine's remote path.
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            ProbeOp::RemoteLoad | ProbeOp::RemoteFetch | ProbeOp::RemoteDeposit
        )
    }
}

/// Which execution tier a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeTier {
    /// Analytic answer where the model is trusted for the cell, full
    /// simulation everywhere else (fault plans, recorders, boundary cells).
    Auto,
    /// Force the analytic model, trusted or not (model validation).
    Analytic,
    /// Force the full cycle-accounting simulation (the historical default).
    #[default]
    Simulate,
}

impl ProbeTier {
    /// Parses the CLI spelling (`auto` / `analytic` / `sim`).
    pub fn parse(label: &str) -> Option<ProbeTier> {
        match label {
            "auto" => Some(ProbeTier::Auto),
            "analytic" => Some(ProbeTier::Analytic),
            "sim" => Some(ProbeTier::Simulate),
            _ => None,
        }
    }

    /// The CLI spelling of this tier.
    pub fn label(self) -> &'static str {
        match self {
            ProbeTier::Auto => "auto",
            ProbeTier::Analytic => "analytic",
            ProbeTier::Simulate => "sim",
        }
    }
}

/// One probe, fully described: the operation, the grid cell, the
/// measurement caps and the execution tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRequest {
    /// The operation to measure.
    pub op: ProbeOp,
    /// Working set in bytes.
    pub ws_bytes: u64,
    /// Primary stride in 64-bit words (load stride for copies; ignored by
    /// gathers).
    pub stride: u64,
    /// Secondary stride (store stride for [`ProbeOp::LocalCopy`]; 0
    /// elsewhere).
    pub stride2: u64,
    /// Measurement caps to install before probing; `None` keeps the
    /// backend's current caps.
    pub limits: Option<MeasureLimits>,
    /// The execution tier. Backends without an analytic model treat every
    /// tier as [`ProbeTier::Simulate`].
    pub tier: ProbeTier,
}

impl ProbeRequest {
    /// A request for `op` at `(ws_bytes, stride)` with default tier
    /// ([`ProbeTier::Simulate`]) and the backend's current caps.
    pub fn new(op: ProbeOp, ws_bytes: u64, stride: u64) -> Self {
        ProbeRequest {
            op,
            ws_bytes,
            stride,
            stride2: if op == ProbeOp::LocalCopy { 1 } else { 0 },
            limits: None,
            tier: ProbeTier::Simulate,
        }
    }

    /// Sets the secondary (store) stride of a copy.
    #[must_use]
    pub fn with_stride2(mut self, stride2: u64) -> Self {
        self.stride2 = stride2;
        self
    }

    /// Sets the measurement caps to install before probing.
    #[must_use]
    pub fn with_limits(mut self, limits: MeasureLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Sets the execution tier.
    #[must_use]
    pub fn with_tier(mut self, tier: ProbeTier) -> Self {
        self.tier = tier;
        self
    }

    /// The memo key of this request on a machine with the given spec
    /// hash, or `None` when the result must not be memoized: unresolved
    /// measurement caps, or the `--cold` escape hatch.
    pub(crate) fn memo_key(&self, spec_hash: u64) -> Option<MemoKey> {
        if gasnub_memsim::cold_path() {
            return None;
        }
        let limits = self.limits?;
        Some(MemoKey {
            spec_hash,
            op: self.op,
            ws_bytes: self.ws_bytes,
            stride: self.stride,
            stride2: self.stride2,
            max_measure_words: limits.max_measure_words,
            max_prime_words: limits.max_prime_words,
        })
    }
}

/// Which path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbePath {
    /// The closed-form analytic model.
    Analytic,
    /// The cycle-accounting simulator (directly or via the memo).
    Simulated,
}

/// The answer to one [`ProbeRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    /// The measurement; `None` when the machine does not support the
    /// operation (deterministic — support depends on the machine and the
    /// op, never on the cell).
    pub measurement: Option<Measurement>,
    /// Which path produced it.
    pub path: ProbePath,
}

impl ProbeOutcome {
    /// A simulator-produced outcome.
    pub fn simulated(measurement: Option<Measurement>) -> Self {
        ProbeOutcome {
            measurement,
            path: ProbePath::Simulated,
        }
    }

    /// An analytically produced outcome.
    pub fn analytic(measurement: Option<Measurement>) -> Self {
        ProbeOutcome {
            measurement,
            path: ProbePath::Analytic,
        }
    }

    /// The measured bandwidth, `None` when the op is unsupported.
    pub fn mb_s(&self) -> Option<f64> {
        self.measurement.map(|m| m.mb_s)
    }
}

/// One probe entry point for every backend.
///
/// Implementations: [`crate::TransferEngine`] (full simulation) and the
/// analytic crate's tiered machine (closed-form fast path with simulation
/// fallback).
pub trait ProbeBackend {
    /// Answers one request.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the backend cannot assemble an engine for
    /// the request (spawn failures on lazy backends).
    fn probe(&mut self, req: &ProbeRequest) -> Result<ProbeOutcome, SimError>;
}

/// Maps a request onto a [`Machine`]'s per-op probe methods — the single
/// place the request/SPI translation lives. Installs the request's
/// measurement caps first (when it carries any).
pub fn dispatch<M: Machine + ?Sized>(machine: &mut M, req: &ProbeRequest) -> ProbeOutcome {
    if let Some(limits) = req.limits {
        if machine.limits() != limits {
            machine.set_limits(limits);
        }
    }
    let measurement = match req.op {
        ProbeOp::LocalLoad => Some(machine.local_load(req.ws_bytes, req.stride)),
        ProbeOp::LocalStore => Some(machine.local_store(req.ws_bytes, req.stride)),
        ProbeOp::LocalCopy => {
            Some(machine.local_copy(req.ws_bytes, req.stride, req.stride2.max(1)))
        }
        ProbeOp::LocalGather => Some(machine.local_gather(req.ws_bytes)),
        ProbeOp::RemoteLoad => machine.remote_load(req.ws_bytes, req.stride),
        ProbeOp::RemoteFetch => machine.remote_fetch(req.ws_bytes, req.stride),
        ProbeOp::RemoteDeposit => machine.remote_deposit(req.ws_bytes, req.stride),
    };
    ProbeOutcome::simulated(measurement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, SpawnEngine};

    #[test]
    fn tier_labels_round_trip() {
        for tier in [ProbeTier::Auto, ProbeTier::Analytic, ProbeTier::Simulate] {
            assert_eq!(ProbeTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(ProbeTier::parse("warp"), None);
        assert_eq!(ProbeTier::default(), ProbeTier::Simulate);
    }

    #[test]
    fn dispatch_matches_direct_probe_calls() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut a = spec.spawn_engine().unwrap();
        let mut b = spec.spawn_engine().unwrap();
        let req = ProbeRequest::new(ProbeOp::LocalLoad, 64 << 10, 8);
        let via_request = a.probe(&req).unwrap();
        let direct = b.local_load(64 << 10, 8);
        assert_eq!(via_request.path, ProbePath::Simulated);
        assert_eq!(
            via_request.measurement.unwrap().cycles.to_bits(),
            direct.cycles.to_bits()
        );
    }

    #[test]
    fn dispatch_applies_request_limits() {
        let spec = MachineSpec::t3e();
        let mut engine = spec.spawn_engine().unwrap();
        let req =
            ProbeRequest::new(ProbeOp::LocalStore, 32 << 10, 2).with_limits(MeasureLimits::fast());
        let _ = engine.probe(&req).unwrap();
        assert_eq!(engine.limits(), MeasureLimits::fast());
    }

    #[test]
    fn copy_requests_carry_both_strides() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut via = spec.spawn_engine().unwrap();
        let mut direct = spec.spawn_engine().unwrap();
        let req = ProbeRequest::new(ProbeOp::LocalCopy, 1 << 20, 1).with_stride2(16);
        let a = via.probe(&req).unwrap().measurement.unwrap();
        let b = direct.local_copy(1 << 20, 1, 16);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }

    #[test]
    fn only_capped_requests_memoize() {
        let req =
            ProbeRequest::new(ProbeOp::LocalLoad, 1 << 20, 1).with_limits(MeasureLimits::fast());
        assert!(req.memo_key(42).is_some());
        // Requests without resolved caps never memoize: the result would
        // depend on backend state the key cannot see.
        let uncapped = ProbeRequest::new(ProbeOp::LocalLoad, 1 << 20, 1);
        assert!(uncapped.memo_key(42).is_none());
    }
}

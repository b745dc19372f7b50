//! Warm probe-execution state: a spawned engine reused across grid cells.
//!
//! Spawning a [`crate::TransferEngine`] validates and allocates the whole
//! simulation substrate (cache ways, DRAM banks, NI pipelines) — up to
//! milliseconds for large SMP configurations, which dominates small cells.
//! A [`WarmState`] amortizes that cost over a *run* of cells (a chain of
//! working sets at fixed stride, see the sweep layer): the engine is
//! spawned once and reused for every cell of the run.
//!
//! ## State-validity rules
//!
//! Reuse is sound because every probe begins by flushing all mutable state,
//! and the flushed state is exactly the just-constructed state — the
//! invariant `TransferEngine::flush_all` documents and the determinism
//! suite asserts. Consequently a warm engine is state-*compatible* with any
//! next cell, and results are bit-identical to a fresh-engine-per-cell
//! sweep. The transitions that *are* state-incompatible, and therefore
//! require [`WarmState::reset`]:
//!
//! * a probe **unwound** (cancellation, a panic mid-probe): the engine may
//!   hold arbitrary partial state and, unlike the flush at probe start,
//!   nothing re-establishes the constructed-state invariant for the
//!   *observability* layer (a recorder's ring buffer can hold a partial
//!   event stream). `reset()` discards the engine; the next
//!   [`WarmState::engine`] call spawns a fresh one.
//! * the **spawner changes** (a different machine spec): a `WarmState` is
//!   bound to one spawner; use one per machine.
//!
//! Identical repeated cells are not re-executed at all on the warm path —
//! the run context's memo (see [`crate::memo`]) serves them before the
//! engine is touched.

use gasnub_memsim::SimError;

use crate::spec::SpawnEngine;

/// A lazily spawned, reusable probe engine (see the module docs).
#[derive(Debug)]
pub struct WarmState<E> {
    engine: Option<E>,
    spawns: u64,
}

impl<E> Default for WarmState<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WarmState<E> {
    /// An empty (cold) state; the first [`WarmState::engine`] call spawns.
    pub fn new() -> Self {
        WarmState {
            engine: None,
            spawns: 0,
        }
    }

    /// The warm engine, spawning one from `spawner` on first use (and after
    /// a [`WarmState::reset`]).
    ///
    /// # Errors
    ///
    /// Propagates the spawner's [`SimError`] when construction fails.
    pub fn engine<S>(&mut self, spawner: &S) -> Result<&mut E, SimError>
    where
        S: SpawnEngine<Engine = E>,
    {
        if self.engine.is_none() {
            self.engine = Some(spawner.spawn_engine()?);
            self.spawns += 1;
        }
        Ok(self.engine.as_mut().expect("engine just spawned"))
    }

    /// Discards the held engine after a state-incompatible transition (an
    /// unwound probe). The next [`WarmState::engine`] call spawns fresh.
    pub fn reset(&mut self) {
        self.engine = None;
    }

    /// Whether an engine is currently held.
    pub fn is_warm(&self) -> bool {
        self.engine.is_some()
    }

    /// How many engines this state has spawned (diagnostics: a healthy run
    /// spawns once; every unwind adds one).
    pub fn spawns(&self) -> u64 {
        self.spawns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::probe::{ProbeOp, ProbeRequest};
    use crate::spec::MachineSpec;
    use crate::{MeasureLimits, RunContext};

    use crate::probe::ProbeOp::LocalLoad;

    fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
        ProbeRequest::new(op, ws, stride)
    }

    #[test]
    fn spawns_once_and_reuses() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let mut warm = WarmState::new();
        assert!(!warm.is_warm());
        let a = warm
            .engine(&spec)
            .unwrap()
            .probe(&req(LocalLoad, 16 << 10, 2))
            .unwrap();
        assert!(warm.is_warm());
        let b = warm
            .engine(&spec)
            .unwrap()
            .probe(&req(LocalLoad, 16 << 10, 2))
            .unwrap();
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        assert_eq!(warm.spawns(), 1);
    }

    #[test]
    fn reset_respawns() {
        let spec = MachineSpec::t3e().with_limits(MeasureLimits::fast());
        let mut warm = WarmState::new();
        let _ = warm.engine(&spec).unwrap();
        warm.reset();
        assert!(!warm.is_warm());
        let _ = warm.engine(&spec).unwrap();
        assert_eq!(warm.spawns(), 2);
    }

    #[test]
    fn warm_probes_match_fresh_engines_across_a_run() {
        // A run: fixed stride, ascending working sets; the warm engine must
        // reproduce fresh-engine measurements bit for bit.
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let fresh = spec.clone().with_context(RunContext::unmemoized());
        let mut warm = WarmState::new();
        for ws in [8 << 10, 64 << 10, 1 << 20] {
            let w = warm
                .engine(&spec)
                .unwrap()
                .probe(&req(LocalLoad, ws, 8))
                .unwrap();
            // An unmemoized engine genuinely recomputes the cell.
            let f = fresh
                .spawn_engine()
                .unwrap()
                .probe(&req(LocalLoad, ws, 8))
                .unwrap();
            assert_eq!(w.cycles.to_bits(), f.cycles.to_bits(), "ws {ws}");
        }
    }
}

//! A self-healing sweep runner: checkpointed, resumable, panic-isolating,
//! with durable checksummed checkpoints and per-cell retry / timeout /
//! quarantine policies.
//!
//! The paper's surfaces are thousands of simulated measurements; on a
//! degraded machine model (or a buggy experimental one) a single cell can
//! panic or hang, and a long sweep can outlive a batch-queue time slot.
//! This runner makes the sweep loop of [`crate::bench`] robust:
//!
//! * **Durable checkpointing** — after every attempted cell the partial
//!   surface is written through [`crate::storage`]: atomically (temp file +
//!   rename) and with a CRC32 checksum footer, so a torn or bit-rotted
//!   file is *detected*, never silently treated as empty. Fsyncs are
//!   batched ([`ResilientSweep::with_fsync_every`]): the final write of a
//!   run always syncs, so a completed run is fully durable, and an OS
//!   crash mid-run costs at most the last batch of cells.
//! * **Resume** — re-running with the same checkpoint path verifies the
//!   file's integrity and identity (schema version, title, grid axes),
//!   skips every cell already recorded, and produces a surface
//!   *bit-identical* to an uninterrupted run: bandwidths are persisted as
//!   `f64::to_bits`. A checkpoint that fails verification is a structured
//!   [`CheckpointError`] — the `--force-restart` escape hatch
//!   ([`ResilientSweep::with_force_restart`]) moves it aside to
//!   `<path>.corrupt` and starts fresh, preserving the evidence.
//! * **Retry and quarantine** — a panicking cell is re-attempted at once,
//!   up to [`ResilientSweep::with_retries`] times; a cell that exhausts its
//!   retries is **quarantined**: recorded as a [`FailureKind::Panic`] hole
//!   (its cell renders as `NaN`), skipped on resume, never aborting the run.
//! * **Per-cell wall-clock budgets** — [`ResilientSweep::with_cell_timeout`]
//!   derives a [`CancelToken`] per attempt and installs it on the cell's
//!   engine; instrumented engines bail out of their probe loops
//!   cooperatively and the cell is recorded as [`FailureKind::Timeout`].
//!   The run-wide budget ([`ResilientSweep::with_budget`]) cancels in-flight
//!   cells the same way, but those stay pending and are measured on resume.
//! * **Robustness counters** — retries, quarantines, timeouts and
//!   force-restart recoveries accumulate into the
//!   [`gasnub_trace::CounterSet`] on [`SweepOutcome::robustness`], under
//!   the canonical [`gasnub_trace::robustness`] names. Because each cell's
//!   verdict depends only on its own (deterministic) probe, the counts are
//!   identical across thread counts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gasnub_machines::{CancelToken, CellCancelled, Machine, SpawnEngine, WarmState};
use gasnub_memsim::SimError;
use gasnub_trace::{robustness, CounterSet};

use crate::json::Json;
use crate::storage::{self, CheckpointError, WriteFaults};
use crate::surface::Surface;
use crate::sweep::{run_cells, Grid};

/// The checkpoint schema version this binary reads and writes.
pub const SCHEMA_VERSION: u64 = 2;

/// Default checkpoint fsync batch ([`ResilientSweep::with_fsync_every`]):
/// every cell's write is still atomically renamed into place, but only one
/// write in this many — plus the final write of a run — pays the fsync.
pub const FSYNC_BATCH_DEFAULT: u64 = 16;

/// Why a sweep run failed outright (as opposed to individual cells, which
/// degrade to holes in the surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The checkpoint could not be read, verified, or written.
    Checkpoint(CheckpointError),
    /// The engine factory failed; no cells can run without engines.
    Spawn(SimError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Checkpoint(e) => e.fmt(f),
            SweepError::Spawn(e) => write!(f, "spawning an engine failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

impl From<SweepError> for SimError {
    fn from(e: SweepError) -> Self {
        match e {
            SweepError::Checkpoint(c) => c.into(),
            SweepError::Spawn(s) => s,
        }
    }
}

/// How a cell failed. Serialized into the checkpoint (`kind` field), so a
/// resumed run knows which holes were timeouts vs. quarantined panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The probe reported the operation unsupported on this machine
    /// (deterministic — never retried).
    Unsupported,
    /// The probe panicked on every allowed attempt; the cell is
    /// quarantined.
    Panic,
    /// The cell's wall-clock budget expired before the probe finished.
    Timeout,
}

impl FailureKind {
    /// The checkpoint serialization of this kind.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Unsupported => "unsupported",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }

    /// Parses [`FailureKind::label`] output.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "unsupported" => Some(FailureKind::Unsupported),
            "panic" => Some(FailureKind::Panic),
            "timeout" => Some(FailureKind::Timeout),
            _ => None,
        }
    }
}

/// A cell recorded as a hole in the surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// The cell's working set in bytes.
    pub ws_bytes: u64,
    /// The cell's stride in words.
    pub stride: u64,
    /// How the cell failed.
    pub kind: FailureKind,
    /// Probe attempts spent on the cell (1 = no retries).
    pub attempts: u32,
    /// The panic message or failure reason.
    pub error: String,
}

/// The result of a resilient sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The (possibly partial) surface. Failed and pending cells are `NaN`.
    pub surface: Surface,
    /// Cells attempted during *this* run (measured, quarantined, timed out
    /// or unsupported — everything that got a verdict).
    pub measured: usize,
    /// Cells restored from the checkpoint instead of re-measured.
    pub resumed: usize,
    /// Cells recorded as holes: quarantined panics, timeouts, unsupported.
    pub failed: Vec<FailedCell>,
    /// Cells not attempted because the budget or cell cap ran out.
    pub pending: usize,
    /// Robustness counters for this run (retries, quarantines, timeouts,
    /// force-restart recoveries), under [`gasnub_trace::robustness`] names.
    /// Empty when nothing went wrong.
    pub robustness: CounterSet,
}

impl SweepOutcome {
    /// Whether every cell was either measured or recorded as failed.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }
}

/// Checkpointed sweep driver; see the module docs.
#[derive(Clone)]
pub struct ResilientSweep {
    checkpoint: PathBuf,
    budget: Option<Duration>,
    max_cells: Option<usize>,
    retries: u32,
    cell_timeout: Option<Duration>,
    force_restart: bool,
    fsync: bool,
    fsync_every: u64,
    spec_hash: Option<u64>,
    faults: Option<Arc<Mutex<dyn WriteFaults + Send>>>,
}

impl std::fmt::Debug for ResilientSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSweep")
            .field("checkpoint", &self.checkpoint)
            .field("budget", &self.budget)
            .field("max_cells", &self.max_cells)
            .field("retries", &self.retries)
            .field("cell_timeout", &self.cell_timeout)
            .field("force_restart", &self.force_restart)
            .field("fsync", &self.fsync)
            .field("fsync_every", &self.fsync_every)
            .field("faults", &self.faults.as_ref().map(|_| "<injected>"))
            .finish()
    }
}

/// One cell's verdict after the retry loop.
enum Verdict {
    Done(f64),
    Failed(FailureKind, String),
}

impl ResilientSweep {
    /// Creates a runner persisting its checkpoint at `checkpoint`.
    pub fn new(checkpoint: impl Into<PathBuf>) -> Self {
        ResilientSweep {
            checkpoint: checkpoint.into(),
            budget: None,
            max_cells: None,
            retries: 0,
            cell_timeout: None,
            force_restart: false,
            fsync: true,
            fsync_every: FSYNC_BATCH_DEFAULT,
            spec_hash: None,
            faults: None,
        }
    }

    /// Limits the wall-clock time spent measuring. Expiry stops workers
    /// from claiming new cells and cancels the cells in flight through
    /// their engines' tokens; a cell stopped that way is not recorded, so
    /// it stays pending and is measured on resume.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Limits how many cells this run may measure (useful for slot-sized
    /// chunks of a long sweep, and for testing resume).
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Re-attempts a panicking cell up to `retries` extra times before
    /// quarantining it. Unsupported cells and timeouts are never retried
    /// (the former is deterministic, the latter has already spent its
    /// budget).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Gives every cell attempt a wall-clock budget. The token is checked
    /// once *before* the attempt (so an expired budget is deterministic)
    /// and cooperatively inside instrumented probe loops; expiry records
    /// the cell as [`FailureKind::Timeout`].
    pub fn with_cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// When resume finds a corrupt, schema-mismatched or foreign
    /// checkpoint, move it aside to `<path>.corrupt` and start fresh
    /// instead of failing. I/O errors are never bulldozed.
    pub fn with_force_restart(mut self, force: bool) -> Self {
        self.force_restart = force;
        self
    }

    /// Ties the checkpoint to a machine description
    /// (`MachineSpec::spec_hash`). When set, the hash is written into
    /// every checkpoint and verified on resume: a checkpoint written by a
    /// different machine description — a different spec file, a different
    /// fault plan, an edited zoo entry — is rejected as a grid mismatch
    /// instead of silently mixing measurements. Unset (the default), the
    /// title/axes identity check alone applies, and checkpoints written
    /// without a hash stay loadable.
    pub fn with_spec_hash(mut self, hash: u64) -> Self {
        self.spec_hash = Some(hash);
        self
    }

    /// Whether checkpoint writes fsync before renaming (default `true`).
    /// Turning it off trades crash-durability for write latency — the
    /// checksum footer still catches the resulting torn files.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Batches checkpoint fsyncs: the checkpoint is still *written* (and
    /// atomically renamed) after every cell, but only every `n`-th write —
    /// and always the last write of a run — pays the fsync. On small sweeps
    /// the fsync dominates the per-cell cost, so batching buys most of the
    /// warm path's checkpoint speedup while keeping the durability
    /// guarantee that matters: a completed (or budget-expired) run is fully
    /// durable on return. A crash mid-run can lose at most the last `n - 1`
    /// cells of progress to the page cache; a torn rename is still caught
    /// by the checksum footer and re-measured on resume.
    ///
    /// `n` is clamped to at least 1; `with_fsync_every(1)` restores the
    /// fsync-per-cell behavior. The default is [`FSYNC_BATCH_DEFAULT`].
    pub fn with_fsync_every(mut self, n: u64) -> Self {
        self.fsync_every = n.max(1);
        self
    }

    /// Routes every checkpoint write through a fault-injection hook — the
    /// chaos harness' entry point ([`crate::chaos::FaultInjector`]).
    pub fn with_write_faults(mut self, faults: Arc<Mutex<dyn WriteFaults + Send>>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Removes the checkpoint, so the next run starts from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if the file exists but cannot be removed.
    pub fn clear_checkpoint(&self) -> Result<(), SimError> {
        match std::fs::remove_file(&self.checkpoint) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(SimError::io(format!(
                "removing {}: {e}",
                self.checkpoint.display()
            ))),
        }
    }

    /// Runs (or resumes) the sweep of `grid` with `probe` across `threads`
    /// workers — the one checkpointed sweep loop. Cells go through the run
    /// scheduler (`sweep::run_cells`): workers claim whole
    /// same-stride runs ([`Grid::runs_of`]) and walk each on one warm
    /// engine ([`gasnub_machines::WarmState`]), re-spawned only after an
    /// unwound probe. `probe` returns the cell's bandwidth in MB/s, or
    /// `None` when the operation is unsupported on this machine (recorded
    /// as failed). The checkpoint is rewritten after every attempted cell.
    ///
    /// Because every probe starts from the flushed (≡ just-constructed)
    /// engine state and each probe is deterministic, the outcome — surface
    /// values, checkpoint bytes, failed cells, robustness counters — is
    /// bit-identical for any thread count and completion order: the
    /// checkpoint keeps cells in a `BTreeMap` and the surface is assembled
    /// in grid order after the pool drains.
    ///
    /// The per-cell timeout is installed on each engine as a
    /// [`CancelToken`] derived from the run-wide one, so instrumented
    /// probes stop cooperatively mid-loop. A cell stopped by its own
    /// deadline records as a [`FailureKind::Timeout`] hole; a cell stopped
    /// by the run-wide budget or a fatal error stays pending.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Checkpoint`] when an existing checkpoint fails
    /// verification (corrupt bytes, wrong schema version, foreign
    /// title/grid) or cannot be read or written, and [`SweepError::Spawn`]
    /// when `spawner` fails — a spawn failure stops the sweep (the
    /// checkpoint keeps all cells finished before the failure).
    pub fn run_parallel<S, P>(
        &self,
        title: &str,
        grid: &Grid,
        threads: usize,
        spawner: &S,
        probe: P,
    ) -> Result<SweepOutcome, SweepError>
    where
        S: SpawnEngine,
        P: Fn(&mut S::Engine, u64, u64) -> Option<f64> + Sync,
    {
        let (state, counters) = self.load_state(title, grid)?;
        let resumed = state.done.len();

        // The cells left to measure, in grid order. The cell cap splits off
        // the tail up front — unlike the budget, it is deterministic.
        let work: Vec<(u64, u64)> = (0..grid.cells())
            .map(|i| grid.cell(i))
            .filter(|key| !state.done.contains_key(key) && !state.failed.contains_key(key))
            .collect();
        let allowed = work.len().min(self.max_cells.unwrap_or(usize::MAX));
        let (attempt, capped) = work.split_at(allowed);

        let state = Mutex::new(state);
        let counters = Mutex::new(counters);
        let fatal: Mutex<Option<SweepError>> = Mutex::new(None);
        // Budget expiry and fatal errors both cancel this token: workers
        // stop claiming, and in-flight cells (whose tokens derive from it)
        // unwind cooperatively and stay pending.
        let claim = match self.budget {
            Some(b) => CancelToken::with_deadline(b),
            None => CancelToken::new(),
        };
        let saves = AtomicU64::new(0);

        let slots = run_cells(threads, attempt, &claim, |warm, ws, stride| {
            let attempted = self.attempt(warm, spawner, &probe, &claim, ws, stride);
            let (attempts, verdict) = match attempted {
                Ok(Some(done)) => done,
                // Stopped by the run-wide token: the cell stays pending.
                Ok(None) => return None,
                Err(err) => {
                    *lock_or_recover(&fatal) = Some(SweepError::Spawn(err));
                    claim.cancel();
                    return None;
                }
            };
            let mut st = lock_or_recover(&state);
            let mut rc = lock_or_recover(&counters);
            record_verdict(&mut st, &mut rc, (ws, stride), attempts, verdict);
            // Saving under the state lock serializes checkpoint writes (and
            // keeps the batched-fsync cadence well-defined).
            let nth = saves.fetch_add(1, Ordering::Relaxed) + 1;
            match self.save_state(title, grid, &st, self.durable_save(nth)) {
                Ok(retried) => {
                    if retried {
                        rc.add(robustness::CHECKPOINT_WRITE_RETRIES, 1);
                    }
                    Some(())
                }
                Err(err) => {
                    drop(st);
                    drop(rc);
                    *lock_or_recover(&fatal) = Some(err.into());
                    claim.cancel();
                    None
                }
            }
        });

        if let Some(err) = lock_or_recover(&fatal).take() {
            return Err(err);
        }
        let measured = slots.iter().flatten().count();
        let pending = capped.len() + slots.len() - measured;
        let state = state.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut counters = counters.into_inner().unwrap_or_else(|p| p.into_inner());
        if self.final_flush(title, grid, &state, saves.into_inner())? {
            counters.add(robustness::CHECKPOINT_WRITE_RETRIES, 1);
        }
        Ok(self.outcome(title, grid, state, measured, resumed, pending, counters))
    }

    /// Attempts one cell on the run's warm engine, retrying panics, and
    /// returns the attempts spent with the verdict. `Ok(None)` means the
    /// run-wide `claim` token stopped the cell: it gets no verdict.
    ///
    /// # Errors
    ///
    /// Returns the spawner's error when no engine can be built.
    fn attempt<S, P>(
        &self,
        warm: &mut WarmState<S::Engine>,
        spawner: &S,
        probe: &P,
        claim: &CancelToken,
        ws: u64,
        stride: u64,
    ) -> Result<Option<(u32, Verdict)>, SimError>
    where
        S: SpawnEngine,
        P: Fn(&mut S::Engine, u64, u64) -> Option<f64>,
    {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let token = match self.cell_timeout {
                Some(t) => claim.child_with_deadline(t),
                None => claim.clone(),
            };
            if token.is_cancelled() {
                return Ok(self.timed_out(claim, attempts));
            }
            let engine = warm.engine(spawner)?;
            engine.set_cancel_token(token);
            let verdict = match catch_unwind(AssertUnwindSafe(|| probe(engine, ws, stride))) {
                Ok(Some(mb_s)) => Verdict::Done(mb_s),
                Ok(None) => Verdict::Failed(FailureKind::Unsupported, UNSUPPORTED.to_string()),
                Err(panic) => {
                    // An unwound probe is the one state-incompatible
                    // transition: drop the engine, re-spawn fresh.
                    warm.reset();
                    if panic.downcast_ref::<CellCancelled>().is_some() {
                        return Ok(self.timed_out(claim, attempts));
                    }
                    if attempts <= self.retries {
                        continue;
                    }
                    Verdict::Failed(FailureKind::Panic, panic_text(panic.as_ref()))
                }
            };
            return Ok(Some((attempts, verdict)));
        }
    }

    /// The verdict of a cancelled cell: a [`FailureKind::Timeout`] when its
    /// own deadline stopped it, none when the run-wide token did.
    fn timed_out(&self, claim: &CancelToken, attempts: u32) -> Option<(u32, Verdict)> {
        (!claim.is_cancelled()).then(|| {
            let verdict = Verdict::Failed(FailureKind::Timeout, CELL_TIMEOUT.to_string());
            (attempts, verdict)
        })
    }

    /// [`ResilientSweep::run_parallel`] with the probe closure derived
    /// from a [`crate::bench::SweepOp`] through the unified probe API — the common case
    /// for CLI sweeps, where the operation (not an arbitrary closure)
    /// names the work. Tier selection rides on the spawner: hand a
    /// `gasnub_analytic::TieredSpec` here and trusted cells take the
    /// analytic fast path while the rest simulate.
    ///
    /// # Errors
    ///
    /// Everything [`ResilientSweep::run_parallel`] returns.
    pub fn run_parallel_op<S>(
        &self,
        title: &str,
        grid: &Grid,
        threads: usize,
        spawner: &S,
        op: crate::bench::SweepOp,
    ) -> Result<SweepOutcome, SweepError>
    where
        S: SpawnEngine,
    {
        self.run_parallel(title, grid, threads, spawner, |machine, ws, stride| {
            op.measure(machine, ws, stride)
        })
    }

    /// Assembles the surface and outcome from the final checkpoint state.
    #[allow(clippy::too_many_arguments)]
    fn outcome(
        &self,
        title: &str,
        grid: &Grid,
        state: SweepState,
        measured: usize,
        resumed: usize,
        pending: usize,
        robustness: CounterSet,
    ) -> SweepOutcome {
        let values = grid
            .working_sets
            .iter()
            .map(|&ws| {
                grid.strides
                    .iter()
                    .map(|&stride| {
                        state
                            .done
                            .get(&(ws, stride))
                            .map_or(f64::NAN, |&bits| f64::from_bits(bits))
                    })
                    .collect()
            })
            .collect();
        let surface = Surface::new(
            title,
            grid.strides.clone(),
            grid.working_sets.clone(),
            values,
        );
        let failed = state
            .failed
            .iter()
            .map(|(&(ws_bytes, stride), rec)| FailedCell {
                ws_bytes,
                stride,
                kind: rec.kind,
                attempts: rec.attempts,
                error: rec.error.clone(),
            })
            .collect();
        SweepOutcome {
            surface,
            measured,
            resumed,
            failed,
            pending,
            robustness,
        }
    }

    /// Loads and verifies the checkpoint; on failure, either recovers via
    /// `--force-restart` (quarantining the file, counting the recovery) or
    /// fails with the structured error.
    fn load_state(&self, title: &str, grid: &Grid) -> Result<(SweepState, CounterSet), SweepError> {
        let mut recovery = CounterSet::new();
        match self.try_load(title, grid) {
            Ok(state) => Ok((state, recovery)),
            Err(err) if self.force_restart && err.force_restart_recoverable() => {
                let torn = matches!(&err, CheckpointError::Corrupt { detail, .. }
                    if detail.contains("torn"));
                storage::quarantine_file(&self.checkpoint)?;
                recovery.add(robustness::FORCE_RESTARTS, 1);
                if torn {
                    recovery.add(robustness::TORN_TAIL_RECOVERIES, 1);
                }
                Ok((SweepState::default(), recovery))
            }
            Err(err) => Err(err.into()),
        }
    }

    /// The strict load path: verified bytes, schema check, identity check,
    /// structurally complete `cells`/`failed` arrays.
    fn try_load(&self, title: &str, grid: &Grid) -> Result<SweepState, CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: self.checkpoint.clone(),
            detail,
        };
        let payload = match storage::read_verified(&self.checkpoint)? {
            Some(payload) => payload,
            None => return Ok(SweepState::default()),
        };
        let doc = Json::parse(&payload)
            .map_err(|e| corrupt(format!("verified payload is not valid JSON: {e}")))?;
        let version = doc.get("version").and_then(Json::as_u64).unwrap_or(1);
        if version != SCHEMA_VERSION {
            return Err(CheckpointError::SchemaMismatch {
                path: self.checkpoint.clone(),
                found: version,
                expected: SCHEMA_VERSION,
            });
        }
        let stored_title = doc.get("title").and_then(Json::as_str);
        if stored_title != Some(title) {
            return Err(CheckpointError::GridMismatch {
                path: self.checkpoint.clone(),
                detail: format!(
                    "titled {:?}, not {title:?}",
                    stored_title.unwrap_or("<missing>")
                ),
            });
        }
        if let Some(expected) = self.spec_hash {
            let stored = doc.get("spec_hash").and_then(Json::as_u64);
            if stored != Some(expected) {
                return Err(CheckpointError::GridMismatch {
                    path: self.checkpoint.clone(),
                    detail: match stored {
                        Some(found) => format!(
                            "written by a different machine description \
                             (spec hash {found:#x}, expected {expected:#x})"
                        ),
                        None => "carries no machine spec hash".to_string(),
                    },
                });
            }
        }
        let axis = |key: &str| -> Result<Vec<u64>, CheckpointError> {
            doc.get(key)
                .and_then(Json::as_array)
                .map(|items| items.iter().filter_map(Json::as_u64).collect::<Vec<_>>())
                .ok_or_else(|| corrupt(format!("axis {key:?} missing or not an array")))
        };
        if axis("strides")? != grid.strides || axis("working_sets")? != grid.working_sets {
            return Err(CheckpointError::GridMismatch {
                path: self.checkpoint.clone(),
                detail: "taken on different grid axes".to_string(),
            });
        }
        let mut state = SweepState::default();
        let cells = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("\"cells\" missing or not an array".to_string()))?;
        for cell in cells {
            let (ws, stride, bits) = (
                cell.get("ws").and_then(Json::as_u64),
                cell.get("stride").and_then(Json::as_u64),
                cell.get("bits").and_then(Json::as_u64),
            );
            match (ws, stride, bits) {
                (Some(ws), Some(stride), Some(bits)) => {
                    state.done.insert((ws, stride), bits);
                }
                _ => return Err(corrupt("cell entry missing ws/stride/bits".to_string())),
            }
        }
        let failed = doc
            .get("failed")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("\"failed\" missing or not an array".to_string()))?;
        for cell in failed {
            let (ws, stride, kind, attempts, error) = (
                cell.get("ws").and_then(Json::as_u64),
                cell.get("stride").and_then(Json::as_u64),
                cell.get("kind").and_then(Json::as_str),
                cell.get("attempts").and_then(Json::as_u64),
                cell.get("error").and_then(Json::as_str),
            );
            match (ws, stride, kind, attempts, error) {
                (Some(ws), Some(stride), Some(kind), Some(attempts), Some(error)) => {
                    let kind = FailureKind::from_label(kind).ok_or_else(|| {
                        corrupt(format!("failure entry has unknown kind {kind:?}"))
                    })?;
                    state.failed.insert(
                        (ws, stride),
                        FailureRecord {
                            kind,
                            attempts: attempts.min(u32::MAX as u64) as u32,
                            error: error.to_string(),
                        },
                    );
                }
                _ => {
                    return Err(corrupt(
                        "failure entry missing ws/stride/kind/attempts/error".to_string(),
                    ))
                }
            }
        }
        Ok(state)
    }

    /// Renders the canonical v2 checkpoint payload.
    fn render_state(&self, title: &str, grid: &Grid, state: &SweepState) -> String {
        let cells = state
            .done
            .iter()
            .map(|(&(ws, stride), &bits)| {
                Json::object([
                    ("ws", Json::U64(ws)),
                    ("stride", Json::U64(stride)),
                    ("bits", Json::U64(bits)),
                ])
            })
            .collect();
        let failed = state
            .failed
            .iter()
            .map(|(&(ws, stride), rec)| {
                Json::object([
                    ("ws", Json::U64(ws)),
                    ("stride", Json::U64(stride)),
                    ("kind", Json::Str(rec.kind.label().to_string())),
                    ("attempts", Json::U64(rec.attempts as u64)),
                    ("error", Json::Str(rec.error.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("version", Json::U64(SCHEMA_VERSION)),
            ("title", Json::Str(title.to_string())),
        ];
        if let Some(hash) = self.spec_hash {
            fields.push(("spec_hash", Json::U64(hash)));
        }
        fields.extend([
            (
                "strides",
                Json::Array(grid.strides.iter().map(|&s| Json::U64(s)).collect()),
            ),
            (
                "working_sets",
                Json::Array(grid.working_sets.iter().map(|&w| Json::U64(w)).collect()),
            ),
            ("cells", Json::Array(cells)),
            ("failed", Json::Array(failed)),
        ]);
        Json::object(fields).render()
    }

    /// Writes the checkpoint (fsyncing when `durable`); one immediate retry
    /// on failure (the temp+rename discipline makes a retry always safe).
    /// Returns whether the retry was needed.
    fn save_state(
        &self,
        title: &str,
        grid: &Grid,
        state: &SweepState,
        durable: bool,
    ) -> Result<bool, CheckpointError> {
        let payload = self.render_state(title, grid, state);
        match self.write_checkpoint(&payload, durable) {
            Ok(()) => Ok(false),
            Err(_first) => {
                self.write_checkpoint(&payload, durable)?;
                Ok(true)
            }
        }
    }

    /// Whether the `n`-th save of a run (1-based) pays the fsync.
    fn durable_save(&self, n: u64) -> bool {
        self.fsync && n.is_multiple_of(self.fsync_every)
    }

    /// Re-writes the final state durably when the last batched save did not
    /// fsync, so a completed (or budget-expired) run is fully durable on
    /// return. Returns whether the write needed a retry.
    fn final_flush(
        &self,
        title: &str,
        grid: &Grid,
        state: &SweepState,
        saves: u64,
    ) -> Result<bool, CheckpointError> {
        if self.fsync && saves > 0 && !self.durable_save(saves) {
            self.save_state(title, grid, state, true)
        } else {
            Ok(false)
        }
    }

    fn write_checkpoint(&self, payload: &str, durable: bool) -> Result<(), CheckpointError> {
        match &self.faults {
            Some(faults) => {
                let mut injector = faults.lock().unwrap_or_else(|p| p.into_inner());
                storage::write_durable_with(&self.checkpoint, payload, durable, &mut *injector)
            }
            None => storage::write_durable(&self.checkpoint, payload, durable),
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: a worker that
/// panicked while holding the state left it in a consistent snapshot (the
/// BTreeMaps are updated atomically per cell), so the sweep carries on
/// instead of cascading the panic into a runner abort.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Applies a cell's verdict to the state and counters.
fn record_verdict(
    state: &mut SweepState,
    counters: &mut CounterSet,
    key: (u64, u64),
    attempts: u32,
    verdict: Verdict,
) {
    if attempts > 1 {
        counters.add(robustness::RETRIES, (attempts - 1) as u64);
    }
    match verdict {
        Verdict::Done(mb_s) => {
            state.done.insert(key, mb_s.to_bits());
        }
        Verdict::Failed(kind, error) => {
            match kind {
                FailureKind::Panic => counters.add(robustness::QUARANTINES, 1),
                FailureKind::Timeout => counters.add(robustness::TIMEOUTS, 1),
                FailureKind::Unsupported => {}
            }
            state.failed.insert(
                key,
                FailureRecord {
                    kind,
                    attempts,
                    error,
                },
            );
        }
    }
}

/// The failure reason recorded for a probe returning `None`.
const UNSUPPORTED: &str = "operation unsupported on this machine";

/// The failure reason recorded for a cell stopped by its wall-clock budget.
const CELL_TIMEOUT: &str = "cell wall-clock budget expired";

/// One recorded failure: how, after how many attempts, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FailureRecord {
    kind: FailureKind,
    attempts: u32,
    error: String,
}

/// In-memory checkpoint state: measured bandwidths (as bits) and failures.
#[derive(Debug, Default)]
struct SweepState {
    done: BTreeMap<(u64, u64), u64>,
    failed: BTreeMap<(u64, u64), FailureRecord>,
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineId, MeasureLimits, Measurement, ProbeOp, ProbeRequest};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique checkpoint path per test (tests run concurrently).
    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gasnub-ckpt-{}-{tag}-{n}.json", std::process::id()))
    }

    fn grid() -> Grid {
        Grid {
            strides: vec![1, 2, 4],
            working_sets: vec![1024, 2048],
        }
    }

    /// A deterministic synthetic probe.
    fn model(ws: u64, stride: u64) -> f64 {
        (ws as f64).sqrt() / stride as f64 + 1.0 / 3.0
    }

    /// The probe of a healthy cell.
    fn ok(ws: u64, stride: u64) -> Option<f64> {
        Some(model(ws, stride))
    }

    /// Silences the default panic hook for the duration of `f`.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prior);
        out
    }

    /// A trivial deterministic machine whose every probe reports the
    /// synthetic [`model`] bandwidth; lets the tests exercise the runner
    /// without simulating a real hierarchy. A spinning stub instead waits
    /// on the token the runner installs until it is cancelled.
    #[derive(Default)]
    struct Stub {
        spin: bool,
        token: Option<CancelToken>,
    }

    impl Machine for Stub {
        fn id(&self) -> MachineId {
            MachineId::Custom
        }
        fn clock_mhz(&self) -> f64 {
            100.0
        }
        fn limits(&self) -> MeasureLimits {
            MeasureLimits::fast()
        }
        fn set_limits(&mut self, _limits: MeasureLimits) {}
        fn probe(&mut self, req: &ProbeRequest) -> Option<Measurement> {
            if self.spin {
                let token = self.token.as_ref().expect("the runner installs a token");
                loop {
                    token.bail_if_cancelled();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Some(Measurement {
                bytes: req.ws_bytes,
                cycles: 1.0,
                mb_s: model(req.ws_bytes, req.stride),
            })
        }
        fn set_cancel_token(&mut self, token: CancelToken) {
            self.token = Some(token);
        }
    }

    fn stub_probe(m: &mut Stub, ws: u64, stride: u64) -> Option<f64> {
        m.probe(&ProbeRequest::new(ProbeOp::LocalLoad, ws, stride))
            .map(|r| r.mb_s)
    }

    /// Sweeps `grid()` as "t" on `threads` workers of stub engines,
    /// measuring `probe(ws, stride)` for each cell.
    fn sweep(
        runner: &ResilientSweep,
        threads: usize,
        probe: impl Fn(u64, u64) -> Option<f64> + Sync,
    ) -> Result<SweepOutcome, SweepError> {
        runner.run_parallel(
            "t",
            &grid(),
            threads,
            &Stub::default,
            |_: &mut Stub, ws, s| probe(ws, s),
        )
    }

    #[test]
    fn complete_runs_write_the_same_bytes_at_any_thread_count() {
        let mut bytes = Vec::new();
        for threads in [1, 4] {
            let runner = ResilientSweep::new(scratch("complete"));
            let out = sweep(&runner, threads, ok).unwrap();
            assert!(out.is_complete(), "threads={threads}");
            assert_eq!(out.measured, grid().cells(), "threads={threads}");
            assert_eq!(out.resumed, 0);
            assert!(out.failed.is_empty());
            assert!(out.robustness.is_empty());
            assert_eq!(out.surface.value(2048, 4), Some(model(2048, 4)));
            bytes.push(std::fs::read(&runner.checkpoint).unwrap());
            runner.clear_checkpoint().unwrap();
        }
        assert_eq!(
            bytes[0], bytes[1],
            "threads 4 must write the threads-1 bytes"
        );
    }

    #[test]
    fn interrupted_then_resumed_is_bit_identical() {
        for threads in [1, 4] {
            let direct = ResilientSweep::new(scratch("direct"));
            let uninterrupted = sweep(&direct, threads, ok).unwrap();
            direct.clear_checkpoint().unwrap();

            let path = scratch("resume");
            let first = sweep(&ResilientSweep::new(&path).with_max_cells(3), threads, ok).unwrap();
            assert_eq!(first.measured, 3, "threads={threads}");
            assert_eq!(first.pending, grid().cells() - 3);
            assert!(!first.is_complete());

            // Resume at the other thread count: a checkpoint does not
            // depend on how many workers wrote it.
            let second = sweep(&ResilientSweep::new(&path), 5 - threads, ok).unwrap();
            assert_eq!(second.resumed, 3, "threads={threads}");
            assert_eq!(second.measured, grid().cells() - 3);
            assert!(second.is_complete());
            // Bit-identical: compare the stored bit patterns cell by cell.
            for &ws in &grid().working_sets {
                for &s in &grid().strides {
                    let a = uninterrupted.surface.value(ws, s).unwrap().to_bits();
                    let b = second.surface.value(ws, s).unwrap().to_bits();
                    assert_eq!(a, b, "cell ({ws}, {s}) threads={threads}");
                    assert_eq!(b, model(ws, s).to_bits());
                }
            }
            ResilientSweep::new(&path).clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn panicking_cell_is_recorded_and_isolated() {
        for threads in [1, 4] {
            let runner = ResilientSweep::new(scratch("panic"));
            let out = quietly(|| {
                sweep(&runner, threads, |ws, s| {
                    assert!(!(ws == 2048 && s == 2), "injected failure");
                    ok(ws, s)
                })
                .unwrap()
            });
            assert!(out.is_complete(), "threads={threads}");
            assert_eq!(out.failed.len(), 1);
            assert_eq!((out.failed[0].ws_bytes, out.failed[0].stride), (2048, 2));
            assert_eq!(out.failed[0].kind, FailureKind::Panic);
            assert_eq!(out.failed[0].attempts, 1);
            assert!(
                out.failed[0].error.contains("injected failure"),
                "got {:?}",
                out.failed[0].error
            );
            assert_eq!(out.robustness.get(gasnub_trace::robustness::QUARANTINES), 1);
            assert!(out.surface.value(2048, 2).unwrap().is_nan());
            assert_eq!(out.surface.value(2048, 4), Some(model(2048, 4)));
            // A resumed run does not retry the quarantined cell.
            let again = sweep(&runner, threads, ok).unwrap();
            assert_eq!(again.failed.len(), 1);
            assert_eq!(again.failed[0].kind, FailureKind::Panic);
            assert_eq!(again.measured, 0);
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn retries_heal_a_transient_panic() {
        let runner = ResilientSweep::new(scratch("retry-heal")).with_retries(2);
        let flaky_calls = AtomicUsize::new(0);
        let out = quietly(|| {
            sweep(&runner, 1, |ws, s| {
                if ws == 2048 && s == 2 {
                    // Panic on the first two attempts, succeed on the
                    // third.
                    if flaky_calls.fetch_add(1, Ordering::Relaxed) < 2 {
                        panic!("transient failure");
                    }
                }
                ok(ws, s)
            })
            .unwrap()
        });
        assert!(out.is_complete());
        assert!(out.failed.is_empty());
        assert_eq!(out.surface.value(2048, 2), Some(model(2048, 2)));
        assert_eq!(out.robustness.get(gasnub_trace::robustness::RETRIES), 2);
        assert_eq!(out.robustness.get(gasnub_trace::robustness::QUARANTINES), 0);
        runner.clear_checkpoint().unwrap();
    }

    #[test]
    fn persistent_panic_exhausts_retries_and_quarantines() {
        let runner = ResilientSweep::new(scratch("retry-exhaust")).with_retries(2);
        let out = quietly(|| {
            sweep(&runner, 1, |ws, s| {
                assert!(!(ws == 2048 && s == 2), "poison cell");
                ok(ws, s)
            })
            .unwrap()
        });
        assert!(out.is_complete());
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].kind, FailureKind::Panic);
        assert_eq!(out.failed[0].attempts, 3);
        assert_eq!(out.robustness.get(gasnub_trace::robustness::RETRIES), 2);
        assert_eq!(out.robustness.get(gasnub_trace::robustness::QUARANTINES), 1);
        runner.clear_checkpoint().unwrap();
    }

    #[test]
    fn zero_cell_timeout_records_deterministic_timeouts() {
        for threads in [1, 4] {
            let runner =
                ResilientSweep::new(scratch("cell-timeout")).with_cell_timeout(Duration::ZERO);
            let out = sweep(&runner, threads, ok).unwrap();
            assert!(out.is_complete(), "threads={threads}");
            assert_eq!(out.failed.len(), grid().cells());
            assert!(out.failed.iter().all(|f| f.kind == FailureKind::Timeout));
            assert_eq!(
                out.robustness.get(gasnub_trace::robustness::TIMEOUTS),
                grid().cells() as u64,
                "threads={threads}"
            );
            // Timed-out cells are holes, skipped on resume.
            let again = sweep(&ResilientSweep::new(&runner.checkpoint), threads, ok).unwrap();
            assert_eq!(again.measured, 0);
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn unsupported_cells_fail_rather_than_abort() {
        for threads in [1, 4] {
            let runner = ResilientSweep::new(scratch("unsupported"));
            let out = sweep(&runner, threads, |_, _| None).unwrap();
            assert_eq!(out.failed.len(), grid().cells(), "threads={threads}");
            assert!(out.failed.iter().all(|f| f.error.contains("unsupported")));
            assert!(out
                .failed
                .iter()
                .all(|f| f.kind == FailureKind::Unsupported));
            // Unsupported is not a robustness event: nothing to report.
            assert!(out.robustness.is_empty());
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn zero_budget_attempts_nothing() {
        for threads in [1, 4] {
            let runner = ResilientSweep::new(scratch("budget")).with_budget(Duration::ZERO);
            let out = sweep(&runner, threads, ok).unwrap();
            assert_eq!(out.measured, 0, "threads={threads}");
            assert_eq!(out.pending, grid().cells());
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn budget_expiry_leaves_in_flight_cells_pending() {
        for threads in [1, 4] {
            // Every first cell of a run outlives the budget: the run-wide
            // token, not a cell deadline, stops it.
            let runner = ResilientSweep::new(scratch("budget-expiry"))
                .with_budget(Duration::from_millis(50));
            let spinning = || Stub {
                spin: true,
                token: None,
            };
            let out = runner
                .run_parallel("t", &grid(), threads, &spinning, stub_probe)
                .unwrap();
            assert!(out.pending >= 1, "threads={threads}");
            assert_eq!(out.pending + out.measured, grid().cells());
            assert!(out.failed.is_empty(), "threads={threads}: {:?}", out.failed);
            assert_eq!(out.robustness.get(gasnub_trace::robustness::TIMEOUTS), 0);

            // The cells left pending are measured on resume.
            let resumed = ResilientSweep::new(&runner.checkpoint)
                .run_parallel("t", &grid(), threads, &Stub::default, stub_probe)
                .unwrap();
            assert!(resumed.is_complete(), "threads={threads}");
            assert!(resumed.failed.is_empty());
            assert_eq!(resumed.measured, out.pending);
            assert_eq!(resumed.surface.value(1024, 1), Some(model(1024, 1)));
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn robustness_counters_are_identical_across_thread_counts() {
        let mut baseline: Option<CounterSet> = None;
        for threads in [1, 2, 4] {
            let runner = ResilientSweep::new(scratch("par-counters")).with_retries(1);
            let out = quietly(|| {
                sweep(&runner, threads, |ws, s| {
                    // Two poison cells that panic deterministically on
                    // every attempt.
                    assert!(s != 2, "poison stride");
                    ok(ws, s)
                })
                .unwrap()
            });
            assert_eq!(
                out.robustness.get(gasnub_trace::robustness::RETRIES),
                2,
                "threads={threads}"
            );
            assert_eq!(
                out.robustness.get(gasnub_trace::robustness::QUARANTINES),
                2,
                "threads={threads}"
            );
            match &baseline {
                None => baseline = Some(out.robustness.clone()),
                Some(b) => assert_eq!(b, &out.robustness, "threads={threads}"),
            }
            runner.clear_checkpoint().unwrap();
        }
    }

    /// Counts writes and fsyncs flowing through the checkpoint path.
    #[derive(Default)]
    struct CountFsyncs {
        writes: usize,
        fsyncs: usize,
    }

    impl WriteFaults for CountFsyncs {
        fn corrupt_file_bytes(&mut self, bytes: Vec<u8>) -> Vec<u8> {
            bytes
        }
        fn fail_rename(&mut self) -> bool {
            false
        }
        fn observe_fsync(&mut self, durable: bool) {
            self.writes += 1;
            if durable {
                self.fsyncs += 1;
            }
        }
    }

    #[test]
    fn fsync_batching_syncs_the_final_write_and_keeps_bytes_identical() {
        let cells = grid().cells(); // 6
        let per_cell_path = scratch("fsync-per-cell");
        let per_cell_count: Arc<Mutex<CountFsyncs>> = Arc::default();
        ResilientSweep::new(&per_cell_path)
            .with_fsync_every(1)
            .with_write_faults(per_cell_count.clone())
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        {
            let c = per_cell_count.lock().unwrap();
            assert_eq!((c.writes, c.fsyncs), (cells, cells));
        }

        let batched_path = scratch("fsync-batched");
        let batched_count: Arc<Mutex<CountFsyncs>> = Arc::default();
        ResilientSweep::new(&batched_path)
            .with_fsync_every(4)
            .with_write_faults(batched_count.clone())
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        {
            // Write 4 syncs, plus the final durable flush (6 % 4 != 0):
            // one extra write, two fsyncs total instead of six.
            let c = batched_count.lock().unwrap();
            assert_eq!((c.writes, c.fsyncs), (cells + 1, 2));
        }
        assert_eq!(
            std::fs::read(&per_cell_path).unwrap(),
            std::fs::read(&batched_path).unwrap(),
            "batching must not change the checkpoint bytes"
        );

        // Several workers batch on the same cadence: with a batch larger
        // than the sweep, only the final flush syncs.
        let par_path = scratch("fsync-par");
        let par_count: Arc<Mutex<CountFsyncs>> = Arc::default();
        ResilientSweep::new(&par_path)
            .with_fsync_every(64)
            .with_write_faults(par_count.clone())
            .run_parallel("t", &grid(), 3, &Stub::default, stub_probe)
            .unwrap();
        {
            let c = par_count.lock().unwrap();
            assert_eq!((c.writes, c.fsyncs), (cells + 1, 1));
        }
        assert_eq!(
            std::fs::read(&per_cell_path).unwrap(),
            std::fs::read(&par_path).unwrap()
        );

        // Disabling fsync entirely also disables the final flush.
        let nosync_path = scratch("fsync-off");
        let nosync_count: Arc<Mutex<CountFsyncs>> = Arc::default();
        ResilientSweep::new(&nosync_path)
            .with_fsync(false)
            .with_write_faults(nosync_count.clone())
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        {
            let c = nosync_count.lock().unwrap();
            assert_eq!((c.writes, c.fsyncs), (cells, 0));
        }

        for p in [&per_cell_path, &batched_path, &par_path, &nosync_path] {
            ResilientSweep::new(p).clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn parallel_spawn_failures_stop_the_sweep() {
        struct FailingSpawner;
        impl SpawnEngine for FailingSpawner {
            type Engine = Stub;
            fn spawn_engine(&self) -> Result<Stub, SimError> {
                Err(SimError::malformed("no engines today"))
            }
        }
        let runner = ResilientSweep::new(scratch("par-spawn-fail"));
        let got = runner.run_parallel("t", &grid(), 2, &FailingSpawner, stub_probe);
        assert!(matches!(got, Err(SweepError::Spawn(_))));
        runner.clear_checkpoint().unwrap();
    }

    /// The corruption table: every way a checkpoint can be bad
    /// maps to a named error variant, and `--force-restart` recovers from
    /// each (preserving the evidence as `<path>.corrupt`).
    #[test]
    fn corruption_table_names_each_failure_and_force_restart_recovers() {
        let grid = grid();
        let complete = |runner: &ResilientSweep| {
            runner
                .run_parallel("t", &grid, 1, &Stub::default, stub_probe)
                .unwrap()
        };

        type Sabotage = Box<dyn Fn(&PathBuf)>;
        let cases: Vec<(&str, Sabotage, &str)> = vec![
            (
                "torn-tail",
                Box::new(|p: &PathBuf| {
                    // Chop mid-footer: the crash-mid-write signature.
                    let text = std::fs::read_to_string(p).unwrap();
                    std::fs::write(p, &text[..text.len() - 7]).unwrap();
                }),
                "corrupt",
            ),
            (
                "truncated-cell",
                Box::new(|p: &PathBuf| {
                    // Surgically remove a cell's "bits" field, then re-seal
                    // with a valid footer: structural damage the checksum
                    // cannot catch, only strict parsing can.
                    let payload = storage::read_verified(p).unwrap().unwrap();
                    let broken = payload.replacen("\"bits\":", "\"bots\":", 1);
                    storage::write_durable(p, &broken, false).unwrap();
                }),
                "corrupt",
            ),
            (
                "bad-checksum",
                Box::new(|p: &PathBuf| {
                    let mut bytes = std::fs::read(p).unwrap();
                    bytes[10] ^= 0x01;
                    std::fs::write(p, bytes).unwrap();
                }),
                "corrupt",
            ),
            (
                "wrong-schema",
                Box::new(|p: &PathBuf| {
                    let payload = storage::read_verified(p).unwrap().unwrap();
                    let old = payload.replacen("\"version\":2", "\"version\":7", 1);
                    storage::write_durable(p, &old, false).unwrap();
                }),
                "schema-mismatch",
            ),
        ];

        for (name, sabotage, expected_kind) in cases {
            let path = scratch(&format!("corrupt-{name}"));
            let runner = ResilientSweep::new(&path);
            complete(&runner);
            sabotage(&path);

            // Without force-restart: the named error, no silent restart.
            let err = runner
                .run_parallel("t", &grid, 1, &Stub::default, stub_probe)
                .unwrap_err();
            let SweepError::Checkpoint(ck) = &err else {
                panic!("{name}: expected checkpoint error, got {err:?}");
            };
            assert_eq!(ck.kind(), expected_kind, "{name}: {ck}");

            // With force-restart: full recovery, evidence preserved,
            // recovery counted.
            let healed = ResilientSweep::new(&path)
                .with_force_restart(true)
                .run_parallel("t", &grid, 1, &Stub::default, stub_probe)
                .unwrap();
            assert!(healed.is_complete(), "{name}");
            assert_eq!(healed.measured, grid.cells(), "{name}");
            assert_eq!(
                healed
                    .robustness
                    .get(gasnub_trace::robustness::FORCE_RESTARTS),
                1,
                "{name}"
            );
            assert!(
                storage::corrupt_path(&path).exists(),
                "{name}: corrupt file not preserved"
            );
            if name == "torn-tail" {
                assert_eq!(
                    healed
                        .robustness
                        .get(gasnub_trace::robustness::TORN_TAIL_RECOVERIES),
                    1
                );
            }
            let _ = std::fs::remove_file(storage::corrupt_path(&path));
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn wrong_grid_is_a_grid_mismatch() {
        let path = scratch("foreign");
        let runner = ResilientSweep::new(&path);
        runner
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        // Different title.
        let err = runner
            .run_parallel("other", &grid(), 1, &Stub::default, stub_probe)
            .unwrap_err();
        assert!(matches!(
            err,
            SweepError::Checkpoint(CheckpointError::GridMismatch { .. })
        ));
        // Different grid axes.
        let other = Grid {
            strides: vec![1],
            working_sets: vec![1024],
        };
        let err = runner
            .run_parallel("t", &other, 1, &Stub::default, stub_probe)
            .unwrap_err();
        assert!(matches!(
            err,
            SweepError::Checkpoint(CheckpointError::GridMismatch { .. })
        ));
        // A pre-checksum (v1-era) file has no footer: corrupt, not silently
        // restarted.
        std::fs::write(&path, "not json").unwrap();
        let err = runner
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap_err();
        assert!(matches!(
            err,
            SweepError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
        runner.clear_checkpoint().unwrap();
    }

    #[test]
    fn missing_cells_array_is_corrupt_not_empty() {
        // The regression at the heart of satellite (a): a verified payload
        // whose "cells" key is missing (or not an array) must be a named
        // Corrupt error, never an implicit restart-from-scratch.
        for broken in [
            r#"{"failed":[],"strides":[1,2,4],"title":"t","version":2,"working_sets":[1024,2048]}"#,
            r#"{"cells":7,"failed":[],"strides":[1,2,4],"title":"t","version":2,"working_sets":[1024,2048]}"#,
            r#"{"cells":[],"strides":[1,2,4],"title":"t","version":2,"working_sets":[1024,2048]}"#,
            r#"{"cells":[{"stride":1,"ws":1024}],"failed":[],"strides":[1,2,4],"title":"t","version":2,"working_sets":[1024,2048]}"#,
        ] {
            let path = scratch("missing-cells");
            storage::write_durable(&path, broken, false).unwrap();
            let runner = ResilientSweep::new(&path);
            let err = runner
                .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
                .unwrap_err();
            assert!(
                matches!(err, SweepError::Checkpoint(CheckpointError::Corrupt { .. })),
                "payload {broken:?} gave {err:?}"
            );
            runner.clear_checkpoint().unwrap();
        }
    }

    #[test]
    fn force_restart_leaves_healthy_checkpoints_alone() {
        let path = scratch("force-noop");
        let first = ResilientSweep::new(&path)
            .with_max_cells(3)
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        assert_eq!(first.measured, 3);
        // force_restart on a *valid* checkpoint must still resume.
        let second = ResilientSweep::new(&path)
            .with_force_restart(true)
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        assert_eq!(second.resumed, 3);
        assert!(second.robustness.is_empty());
        ResilientSweep::new(&path).clear_checkpoint().unwrap();
    }

    #[test]
    fn failure_kinds_round_trip_through_the_checkpoint() {
        let path = scratch("kind-roundtrip");
        let runner = ResilientSweep::new(&path).with_retries(1);
        let out = quietly(|| {
            sweep(&runner, 1, |ws, s| match (ws, s) {
                (1024, 1) => panic!("poison"),
                (1024, 2) => None,
                _ => ok(ws, s),
            })
            .unwrap()
        });
        assert_eq!(out.failed.len(), 2);
        // Reload and verify kinds and attempts survived serialization.
        let again = ResilientSweep::new(&path)
            .run_parallel("t", &grid(), 1, &Stub::default, stub_probe)
            .unwrap();
        let poison = again
            .failed
            .iter()
            .find(|f| (f.ws_bytes, f.stride) == (1024, 1))
            .unwrap();
        assert_eq!(poison.kind, FailureKind::Panic);
        assert_eq!(poison.attempts, 2);
        let unsup = again
            .failed
            .iter()
            .find(|f| (f.ws_bytes, f.stride) == (1024, 2))
            .unwrap();
        assert_eq!(unsup.kind, FailureKind::Unsupported);
        runner.clear_checkpoint().unwrap();
    }
}

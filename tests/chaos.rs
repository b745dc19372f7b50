//! Chaos proptests for the self-healing sweep pipeline (tier 2).
//!
//! The contract under attack: **a sweep whose checkpoint storage misbehaves
//! either produces a final surface byte-identical to an undisturbed run, or
//! fails with a named structured error — never a silently wrong surface and
//! never a silent restart-from-scratch.**
//!
//! Two properties, both driven by the dependency-free seeded case runner
//! (`gasnub::memsim::rng::run_cases`), so every failure is replayable from
//! the printed seed:
//!
//! 1. *Write chaos*: every checkpoint write passes through a seeded
//!    [`FaultInjector`] (short writes, bit flips, rename failures). The
//!    run may succeed or fail with a checkpoint error; a follow-up
//!    `--force-restart` run with healthy storage must always converge to
//!    the byte-identical reference checkpoint.
//! 2. *Read chaos*: a complete, valid checkpoint is mutated (bit flip or
//!    truncation). Resume must either see bytes identical to the original
//!    (no-op mutation) or fail with a named `Corrupt`-family error — and
//!    `--force-restart` must then recover fully.
//!
//! When a case fails, the injector's applied-fault schedule is written to
//! `$TMPDIR/gasnub-chaos/` so CI can upload the exact failing schedule as
//! an artifact.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use gasnub::core::chaos::FaultInjector;
use gasnub::core::resilient::{ResilientSweep, SweepError, SweepOutcome};
use gasnub::core::storage::{self, WriteFaults};
use gasnub::core::sweep::Grid;
use gasnub::machines::{Machine, MachineId, MeasureLimits, Measurement, ProbeRequest};
use gasnub::memsim::rng::run_cases;

fn grid() -> Grid {
    Grid {
        strides: vec![1, 2],
        working_sets: vec![1024, 4096],
    }
}

/// The deterministic synthetic probe every run in this file measures.
fn model(ws: u64, stride: u64) -> f64 {
    (ws as f64).sqrt() / stride as f64 + 1.0 / 7.0
}

/// A placeholder engine: every run here measures [`model`] through the
/// probe closure and never probes the engine.
struct Stub;

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
    fn probe(&mut self, _req: &ProbeRequest) -> Option<Measurement> {
        None
    }
}

/// Runs (or resumes) the sweep of [`grid`] with `runner`, measuring
/// [`model`] in every cell.
fn sweep(runner: ResilientSweep) -> Result<SweepOutcome, SweepError> {
    runner.run_parallel("t", &grid(), 1, &|| Stub, |_: &mut Stub, ws, s| {
        Some(model(ws, s))
    })
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gasnub-chaos-e2e-{}-{tag}.json",
        std::process::id()
    ))
}

/// The checkpoint bytes an undisturbed complete run writes — the reference
/// every chaos case must converge back to. Both tests ask for it from
/// parallel threads, and its scratch file is named only by the process, so
/// it is computed once: two concurrent runs would write, read and delete
/// the same file under each other.
fn reference_bytes() -> Vec<u8> {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE
        .get_or_init(|| {
            let path = scratch("reference");
            let _ = std::fs::remove_file(&path);
            sweep(ResilientSweep::new(&path).with_fsync(false))
                .expect("the undisturbed run must succeed");
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        })
        .clone()
}

/// Saves a failing case's fault schedule where CI picks artifacts up, and
/// panics with the replay coordinates.
fn fail_case(case: u64, seed: u64, schedule: &str, why: &str) -> ! {
    let dir = std::env::temp_dir().join("gasnub-chaos");
    std::fs::create_dir_all(&dir).expect("schedule dir must be creatable");
    let file = dir.join(format!("case-{case}-seed-{seed:016x}.txt"));
    std::fs::write(&file, format!("# {why}\n{schedule}")).expect("schedule must be writable");
    panic!(
        "chaos case {case} (seed {seed:#018x}) failed: {why}\n\
         fault schedule saved to {}",
        file.display()
    );
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(storage::corrupt_path(path));
}

#[test]
fn write_chaos_converges_or_names_the_error() {
    let reference = reference_bytes();
    let cells = grid().cells();
    let mut case = 0u64;
    run_cases(0xC7A0_5EED, 24, |rng| {
        case += 1;
        let seed = rng.next_u64();
        let max_cells = 1 + (rng.gen_range(0, cells as u64) as usize);
        let path = scratch(&format!("write-{case}"));
        cleanup(&path);

        let injector = Arc::new(Mutex::new(FaultInjector::new(seed, 35)));
        let schedule = || injector.lock().unwrap().render_log();
        let faults: Arc<Mutex<dyn WriteFaults + Send>> = injector.clone();

        // Phase 1: an interrupted sweep (random cell cap) with every write
        // passing through the injector. Success and checkpoint errors are
        // both legal outcomes; anything else is a property violation.
        let chaotic = sweep(
            ResilientSweep::new(&path)
                .with_fsync(false)
                .with_max_cells(max_cells)
                .with_write_faults(faults),
        );
        match &chaotic {
            Ok(_) | Err(SweepError::Checkpoint(_)) => {}
            Err(other) => fail_case(
                case,
                seed,
                &schedule(),
                &format!("write chaos raised a non-checkpoint error: {other}"),
            ),
        }

        // Phase 2: healthy storage + --force-restart must always converge.
        // Whatever the injector left behind — a good checkpoint, a torn
        // tail, a flipped bit, or nothing — the healed run finishes and its
        // checkpoint is byte-identical to the undisturbed reference.
        let healed = sweep(
            ResilientSweep::new(&path)
                .with_fsync(false)
                .with_force_restart(true),
        );
        let outcome = match healed {
            Ok(outcome) => outcome,
            Err(e) => fail_case(
                case,
                seed,
                &schedule(),
                &format!("force-restart recovery failed: {e}"),
            ),
        };
        if !outcome.is_complete() || !outcome.failed.is_empty() {
            fail_case(case, seed, &schedule(), "recovered sweep is incomplete");
        }
        for &ws in &grid().working_sets {
            for &s in &grid().strides {
                let got = outcome.surface.value(ws, s).unwrap();
                if got.to_bits() != model(ws, s).to_bits() {
                    fail_case(
                        case,
                        seed,
                        &schedule(),
                        &format!("silently wrong surface at ({ws}, {s}): {got}"),
                    );
                }
            }
        }
        let final_bytes = std::fs::read(&path).unwrap();
        if final_bytes != reference {
            fail_case(
                case,
                seed,
                &schedule(),
                "final checkpoint bytes differ from the undisturbed reference",
            );
        }
        cleanup(&path);
    });
}

#[test]
fn read_chaos_is_detected_never_silently_resurveyed() {
    let reference = reference_bytes();
    let mut case = 0u64;
    run_cases(0x0DD5_EED5, 32, |rng| {
        case += 1;
        let seed = rng.next_u64();
        let path = scratch(&format!("read-{case}"));
        cleanup(&path);
        std::fs::write(&path, &reference).unwrap();

        // Mutate the complete checkpoint: flip one random bit or truncate a
        // random tail (zero-length truncation = the unchanged control case).
        let mut bytes = reference.clone();
        let mutation = match rng.gen_range(0, 3) {
            0 => {
                let bit = rng.gen_range(0, bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                format!("bit-flip bit={bit}")
            }
            1 => {
                let keep = rng.gen_range(0, bytes.len() as u64 + 1) as usize;
                bytes.truncate(keep);
                format!("truncate keep={keep}")
            }
            _ => "unchanged".to_string(),
        };
        let changed = bytes != reference;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = sweep(ResilientSweep::new(&path).with_fsync(false));
        match resumed {
            Ok(outcome) => {
                // Only an unchanged file may resume — and then it resumes
                // *everything*, measuring nothing.
                if changed {
                    fail_case(
                        case,
                        seed,
                        &mutation,
                        "a mutated checkpoint resumed without an error",
                    );
                }
                if outcome.measured != 0 || outcome.resumed != grid().cells() {
                    fail_case(
                        case,
                        seed,
                        &mutation,
                        &format!(
                            "clean resume re-measured cells: measured={} resumed={}",
                            outcome.measured, outcome.resumed
                        ),
                    );
                }
            }
            Err(SweepError::Checkpoint(ck)) => {
                if !changed {
                    fail_case(case, seed, &mutation, &format!("clean file rejected: {ck}"));
                }
                // Named, force-restart-recoverable corruption.
                if !ck.force_restart_recoverable() {
                    fail_case(
                        case,
                        seed,
                        &mutation,
                        &format!("corruption surfaced as a non-recoverable error: {ck}"),
                    );
                }
                let healed = sweep(
                    ResilientSweep::new(&path)
                        .with_fsync(false)
                        .with_force_restart(true),
                );
                match healed {
                    Ok(outcome) if outcome.is_complete() => {
                        let final_bytes = std::fs::read(&path).unwrap();
                        if final_bytes != reference {
                            fail_case(
                                case,
                                seed,
                                &mutation,
                                "healed checkpoint differs from the reference",
                            );
                        }
                    }
                    Ok(_) => fail_case(case, seed, &mutation, "healed sweep incomplete"),
                    Err(e) => fail_case(
                        case,
                        seed,
                        &mutation,
                        &format!("force-restart failed to recover: {e}"),
                    ),
                }
            }
            Err(other) => fail_case(
                case,
                seed,
                &mutation,
                &format!("unexpected error class: {other}"),
            ),
        }
        cleanup(&path);
    });
}

//! Records the repository's performance baseline as machine-readable JSON
//! (`BENCH_<n>.json`, ROADMAP item 5).
//!
//! BENCH_9 measures the warm-path sweep engine (DESIGN §5e) and the
//! analytic fast path (DESIGN §5f), reporting per zoo machine four honest
//! cells/sec columns:
//!
//! * **cold** — `--cold` semantics: fresh simulation per cell, no memo, no
//!   fast paths; the BENCH_7-comparable number.
//! * **warm first pass** — the default sweep path on an empty memo table:
//!   run-granular scheduling, engine reuse across a stride run, stats-free
//!   priming. Every cell still simulates; this is the honest "first sweep
//!   of a new spec" speed.
//! * **warm memoized** — steady state: every cell hits the per-process
//!   probe memo, as in repeated `faults`/`trace`/`sweep` invocations.
//! * **analytic** — the `--tier auto` fast path on its calibration-trusted
//!   cells, measured at probe level on a pre-calibrated model (no runner,
//!   no checkpoint IO: the column isolates the model's answer cost, which
//!   a per-cell checkpoint write would otherwise dominate).
//!
//! Plus golden-trace overhead (a `RingRecorder` per probe, which also
//! bypasses the memo — genuine recomputation), checkpoint-write costs
//! (fsync per write, none, and the batched default), and a thread-pool
//! micro-benchmark (per-item vs chunked claiming) for the scheduling layer.
//!
//! Usage: `perf_baseline [--check BASELINE.json] [OUT.json]`
//!
//! `--check` compares the fresh measurement against a committed baseline
//! and exits non-zero if any warm cells/sec column dropped more than 20%
//! below it (the CI perf-smoke gate). A missing or unreadable baseline is
//! a warning, not a failure, so the first run of the gate is warn-only.
//! Wall-clock timings vary by host; each `BENCH_<n>.json` is a snapshot of
//! one machine, committed so later PRs can compare shapes.

use std::path::PathBuf;
use std::time::Instant;

use gasnub_analytic::TieredSpec;
use gasnub_core::json::Json;
use gasnub_core::pool::run_indexed_chunked;
use gasnub_core::{auto_threads, run_indexed, storage, Grid, ResilientSweep, SweepOp};
use gasnub_machines::{
    Machine, MachineSpec, MeasureLimits, ProbePath, ProbeTier, RingRecorder, SpawnEngine,
    TransferEngine,
};

/// The CI gate: fail `--check` when a guarded column drops below this
/// fraction of the committed baseline.
const CHECK_FLOOR: f64 = 0.8;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gasnub-perf-{}-{tag}.json", std::process::id()))
}

/// One complete resilient sweep of `grid` on a fresh checkpoint; returns
/// cells/sec through the default runner (checkpoint write per cell, fsync
/// batched).
fn sweep_rate<P>(spec: &MachineSpec, grid: &Grid, threads: usize, probe: P) -> f64
where
    P: Fn(&mut TransferEngine, u64, u64) -> Option<f64> + Sync,
{
    let path = scratch(&format!("sweep-{threads}"));
    let _ = std::fs::remove_file(&path);
    let start = Instant::now();
    let outcome = ResilientSweep::new(&path)
        .run_parallel("perf baseline", grid, threads, spec, probe)
        .expect("the baseline sweep must succeed");
    let secs = start.elapsed().as_secs_f64();
    assert!(outcome.is_complete(), "the baseline sweep must complete");
    let _ = std::fs::remove_file(&path);
    grid.cells() as f64 / secs
}

/// Best-of-`rounds` sweep rate; `prep` runs before every round (memo
/// clearing, cold-path toggling). Best-of-N because the gate compares
/// against a committed baseline: max is the noise-robust statistic for
/// "how fast can this host go", and more rounds shrink the variance the
/// 20% floor must absorb.
fn best_rate<P>(
    rounds: u32,
    spec: &MachineSpec,
    grid: &Grid,
    threads: usize,
    prep: impl Fn(),
    probe: P,
) -> f64
where
    P: Fn(&mut TransferEngine, u64, u64) -> Option<f64> + Sync,
{
    let mut best = 0.0f64;
    for _ in 0..rounds {
        prep();
        best = best.max(sweep_rate(spec, grid, threads, &probe));
    }
    best
}

fn plain_probe(m: &mut TransferEngine, ws: u64, s: u64) -> Option<f64> {
    SweepOp::LocalLoad.measure(m, ws, s)
}

fn traced_probe(m: &mut TransferEngine, ws: u64, s: u64) -> Option<f64> {
    m.set_recorder(Box::new(RingRecorder::new(64)));
    SweepOp::LocalLoad.measure(m, ws, s)
}

/// Cells/sec answering the grid's calibration-trusted cells through the
/// analytic tier, plus how many of the grid's cells are trusted. The model
/// is calibrated by the discovery pass, so the timed rounds measure the
/// steady state a `--tier auto` sweep sees on every trusted cell.
fn analytic_rate(spec: &MachineSpec, grid: &Grid) -> (f64, usize) {
    let tiered = TieredSpec::new(spec.clone(), ProbeTier::Auto)
        .expect("zoo machines always carry an analytic model");
    let mut machine = tiered.spawn_engine().expect("zoo machines always build");
    let mut trusted = Vec::new();
    for &ws in &grid.working_sets {
        for &stride in &grid.strides {
            let req = SweepOp::LocalLoad.request(ws, stride);
            if machine.probe(&req).is_some() && machine.last_path() == ProbePath::Analytic {
                trusted.push(req);
            }
        }
    }
    if trusted.is_empty() {
        return (0.0, 0);
    }
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut cells = 0u64;
        while start.elapsed().as_secs_f64() < 0.05 {
            for req in &trusted {
                assert!(machine.probe(req).is_some());
                cells += 1;
            }
        }
        best = best.max(cells as f64 / start.elapsed().as_secs_f64());
    }
    (best, trusted.len())
}

/// Mean microseconds per checkpoint write of `payload`. `fsync_every = 0`
/// disables fsync entirely; `1` syncs every write; `n` syncs every nth
/// (the batched default path).
fn write_micros(payload: &str, fsync_every: u64) -> f64 {
    let path = scratch(&format!("write-{fsync_every}"));
    let rounds = 64u64;
    let start = Instant::now();
    for n in 1..=rounds {
        let durable = fsync_every > 0 && n % fsync_every == 0;
        storage::write_durable(&path, payload, durable).expect("baseline write must succeed");
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    let _ = std::fs::remove_file(&path);
    micros
}

/// A real completed-sweep checkpoint payload for the write benchmark. Its
/// cells are synthetic, so the T3D engines the runner spawns go unused.
fn reference_payload(grid: &Grid) -> String {
    let path = scratch("payload");
    let _ = std::fs::remove_file(&path);
    ResilientSweep::new(&path)
        .with_fsync(false)
        .run_parallel(
            "perf baseline",
            grid,
            1,
            &MachineSpec::t3d(),
            |_: &mut TransferEngine, ws, s| Some((ws as f64).sqrt() / s as f64),
        )
        .expect("the payload sweep must succeed");
    let payload = storage::read_verified(&path)
        .expect("the payload checkpoint must verify")
        .expect("the payload checkpoint must exist");
    let _ = std::fs::remove_file(&path);
    payload
}

/// Golden-trace overhead: the percent a `RingRecorder` adds per probe.
///
/// Measured at probe level — no runner, no checkpoint IO — because the
/// recorder's harvest cost is a small delta that sweep-level disk noise
/// swamps. Each round walks the whole grid untraced and then traced on
/// one warm engine (memo cleared before the untraced pass so every probe
/// is a genuine simulation), and the reported figure is the median
/// per-round ratio: slow host drift hits both sides of a pair and
/// cancels, where independent best-of columns would not.
fn trace_overhead_pct(spec: &MachineSpec, grid: &Grid) -> f64 {
    use gasnub_machines::NullRecorder;
    let mut engine = spec.spawn_engine().expect("zoo machines always build");
    let pass = |engine: &mut TransferEngine| {
        let start = Instant::now();
        for &ws in &grid.working_sets {
            for &s in &grid.strides {
                let _ = plain_probe(engine, ws, s);
            }
        }
        start.elapsed().as_secs_f64()
    };
    let mut ratios = Vec::new();
    for _ in 0..5 {
        gasnub_machines::memo::clear();
        engine.set_recorder(Box::new(NullRecorder));
        let plain = pass(&mut engine);
        engine.set_recorder(Box::new(RingRecorder::new(64)));
        let traced = pass(&mut engine);
        ratios.push(traced / plain - 1.0);
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2] * 100.0
}

/// Jobs/sec pushing `n` trivial jobs through the pool at the given
/// claiming granularity (`chunk = 0` means the auto-chunked
/// [`run_indexed`] entry point).
fn pool_rate(threads: usize, n: usize, chunk: usize) -> f64 {
    let job = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 >> 7);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let out = if chunk == 0 {
            run_indexed(threads, n, job)
        } else {
            run_indexed_chunked(threads, n, chunk, job)
        };
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(out.len(), n);
        best = best.max(n as f64 / secs);
    }
    best
}

/// Fixed-precision decimal for the JSON snapshot (the checkpoint JSON
/// subset has no float type, and full float precision is noise here).
fn rate(value: f64) -> Json {
    Json::Str(format!("{value:.1}"))
}

fn ratio(value: f64) -> Json {
    Json::Str(format!("{value:.2}"))
}

/// The per-machine columns `--check` guards (warm path only: the cold
/// column is the slow reference and the trace column is measured against
/// the warm one, so gating the warm columns covers the sweep path users
/// actually run).
const GUARDED: [&str; 3] = [
    "warm_first_cells_per_sec_1t",
    "warm_memo_cells_per_sec_1t",
    "analytic_cells_per_sec_1t",
];

/// Compares `report` against a committed baseline; returns the number of
/// regressions (guarded columns below [`CHECK_FLOOR`] of the baseline).
fn check_against(report: &Json, baseline_path: &str) -> usize {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("perf-check: no baseline at {baseline_path}; skipping (warn-only first run)");
        return 0;
    };
    let Ok(baseline) = Json::parse(&text) else {
        eprintln!("perf-check: baseline {baseline_path} is not valid JSON; skipping");
        return 0;
    };
    let column = |doc: &Json, machine: &str, key: &str| -> Option<f64> {
        doc.get("machines")?
            .get(machine)?
            .get(key)?
            .as_str()?
            .parse()
            .ok()
    };
    let mut regressions = 0;
    for machine in ["dec8400", "t3d", "t3e"] {
        for key in GUARDED {
            let (Some(was), Some(now)) = (
                column(&baseline, machine, key),
                column(report, machine, key),
            ) else {
                eprintln!("perf-check: {machine}.{key} missing from baseline or report; skipping");
                continue;
            };
            let floor = was * CHECK_FLOOR;
            if now < floor {
                eprintln!(
                    "perf-check: REGRESSION {machine}.{key}: {now:.1} < {floor:.1} \
                     (baseline {was:.1}, floor {:.0}%)",
                    CHECK_FLOOR * 100.0
                );
                regressions += 1;
            } else {
                eprintln!("perf-check: ok {machine}.{key}: {now:.1} vs baseline {was:.1}");
            }
        }
    }
    regressions
}

fn main() {
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check = Some(args.next().expect("--check needs a baseline path"));
        } else {
            out = Some(arg);
        }
    }

    let grid = Grid::quick();
    let threads = auto_threads();
    let report = measure_report(&grid, threads);

    let rendered = format!("{}\n", report.render());
    if let Some(path) = &out {
        std::fs::write(path, &rendered).expect("baseline output must be writable");
        eprintln!("wrote {path}");
    }
    if let Some(baseline) = &check {
        // Best-of-N absorbs most host noise, but an IO-bound column on a
        // shared runner can still swing past the floor. A *real* regression
        // is stable; noise is not — so a failing check is re-measured up to
        // twice and only a drop that survives every attempt fails the job.
        let mut regressions = check_against(&report, baseline);
        for attempt in 0..2 {
            if regressions == 0 {
                break;
            }
            eprintln!(
                "perf-check: {regressions} regression(s); re-measuring (retry {})",
                attempt + 1
            );
            regressions = check_against(&measure_report(&grid, threads), baseline);
        }
        if regressions > 0 {
            eprintln!("perf-check: {regressions} regression(s) after retries");
            std::process::exit(1);
        }
        eprintln!("perf-check: pass");
    }
    if out.is_none() {
        print!("{rendered}");
    }
}

/// Measures the full BENCH_9 report for `grid` at the given thread count.
fn measure_report(grid: &Grid, threads: usize) -> Json {
    let grid = grid.clone();
    let cold = || gasnub_memsim::set_cold_path(true);
    let warm_fresh = || {
        gasnub_memsim::set_cold_path(false);
        gasnub_machines::memo::clear();
    };
    let warm_memo = || gasnub_memsim::set_cold_path(false);

    let mut machines = std::collections::BTreeMap::new();
    for (label, spec) in [
        ("dec8400", MachineSpec::dec8400()),
        ("t3d", MachineSpec::t3d()),
        ("t3e", MachineSpec::t3e()),
    ] {
        let spec = spec.with_limits(MeasureLimits::fast());
        eprintln!("measuring {label} ({} cells) ...", grid.cells());
        let cold_1 = best_rate(3, &spec, &grid, 1, cold, plain_probe);
        let warm_first_1 = best_rate(4, &spec, &grid, 1, warm_fresh, plain_probe);
        warm_fresh();
        let trace_1 = best_rate(2, &spec, &grid, 1, warm_fresh, traced_probe);
        let trace_overhead_pct = trace_overhead_pct(&spec, &grid);
        // The memo is populated by the warm-first rounds above; these
        // rounds are all steady-state hits.
        let warm_memo_1 = best_rate(4, &spec, &grid, 1, warm_memo, plain_probe);
        let (analytic_1, analytic_trusted) = analytic_rate(&spec, &grid);
        // On a single-core host the n-thread sweep *is* the 1-thread
        // sweep; re-measuring it would only record scheduler noise.
        let (cold_n, warm_first_n, warm_memo_n) = if threads > 1 {
            (
                best_rate(3, &spec, &grid, threads, cold, plain_probe),
                best_rate(4, &spec, &grid, threads, warm_fresh, plain_probe),
                best_rate(4, &spec, &grid, threads, warm_memo, plain_probe),
            )
        } else {
            (cold_1, warm_first_1, warm_memo_1)
        };
        gasnub_memsim::set_cold_path(false);
        machines.insert(
            label.to_string(),
            Json::object([
                ("cold_cells_per_sec_1t", rate(cold_1)),
                ("cold_cells_per_sec_nt", rate(cold_n)),
                ("warm_first_cells_per_sec_1t", rate(warm_first_1)),
                ("warm_first_cells_per_sec_nt", rate(warm_first_n)),
                ("warm_memo_cells_per_sec_1t", rate(warm_memo_1)),
                ("warm_memo_cells_per_sec_nt", rate(warm_memo_n)),
                ("analytic_cells_per_sec_1t", rate(analytic_1)),
                ("analytic_trusted_cells", Json::U64(analytic_trusted as u64)),
                ("analytic_speedup_vs_memo", ratio(analytic_1 / warm_memo_1)),
                ("trace_cells_per_sec_1t", rate(trace_1)),
                ("warm_first_speedup_vs_cold", ratio(warm_first_1 / cold_1)),
                ("warm_memo_speedup_vs_cold", ratio(warm_memo_1 / cold_1)),
                (
                    "parallel_speedup_warm_first",
                    ratio(warm_first_n / warm_first_1),
                ),
                (
                    "trace_overhead_pct",
                    Json::Str(format!("{trace_overhead_pct:.1}")),
                ),
            ]),
        );
    }

    let payload = reference_payload(&grid);
    let fsync_on = write_micros(&payload, 1);
    let fsync_batch = write_micros(&payload, gasnub_core::resilient::FSYNC_BATCH_DEFAULT);
    let fsync_off = write_micros(&payload, 0);

    // Pool micro-benchmark: chunked claiming must amortize the per-claim
    // fetch_add + channel send that per-item claiming pays on every job.
    // Forced to >= 2 workers so the pool machinery is exercised even on a
    // single-core host.
    let pool_threads = threads.max(2);
    let pool_jobs = 1 << 20;
    let per_item = pool_rate(pool_threads, pool_jobs, 1);
    let chunked = pool_rate(pool_threads, pool_jobs, 0);

    Json::object([
        ("bench", Json::U64(9)),
        (
            "grid",
            Json::object([
                ("cells", Json::U64(grid.cells() as u64)),
                (
                    "strides",
                    Json::Array(grid.strides.iter().map(|&s| Json::U64(s)).collect()),
                ),
                (
                    "working_sets",
                    Json::Array(grid.working_sets.iter().map(|&w| Json::U64(w)).collect()),
                ),
            ]),
        ),
        ("threads", Json::U64(threads as u64)),
        ("machines", Json::Object(machines)),
        (
            "checkpoint_write",
            Json::object([
                ("payload_bytes", Json::U64(payload.len() as u64)),
                ("micros_per_write_fsync", rate(fsync_on)),
                ("micros_per_write_fsync_batched", rate(fsync_batch)),
                ("micros_per_write_no_fsync", rate(fsync_off)),
            ]),
        ),
        (
            "pool",
            Json::object([
                ("threads", Json::U64(pool_threads as u64)),
                ("jobs", Json::U64(pool_jobs as u64)),
                ("per_item_jobs_per_sec", rate(per_item)),
                ("chunked_jobs_per_sec", rate(chunked)),
                ("chunked_speedup", ratio(chunked / per_item)),
            ]),
        ),
    ])
}

//! The `gasnub` command-line tool: one front door to the reproduction.
//!
//! ```text
//! gasnub figures list
//! gasnub figures fig15 --quick
//! gasnub figures all extras ablations --csv results > results/all_figures.txt
//! gasnub compare
//! gasnub fft 512
//! gasnub scale t3d 2048 512
//! gasnub faults t3d --seed 7 --severity 0.5
//! gasnub sweep t3e deposit --checkpoint /tmp/t3e.json --max-cells 10
//! gasnub trace t3d deposit --ws 4194304 --stride 8
//! gasnub sweep dec8400 pull --checkpoint /tmp/pull.json --counters -
//! ```
//!
//! Every usage error (unknown subcommand, unknown figure or machine,
//! malformed numeric argument) prints a message to stderr and exits with
//! code 2; the tool never panics on bad input.

use std::path::PathBuf;
use std::time::Duration;

use gasnub::analytic::TieredSpec;
use gasnub::core::counters::collect_counters;
use gasnub::core::json::Json;
use gasnub::core::{auto_threads, run_indexed, Grid, ResilientSweep, SweepOp};
use gasnub::fft::run_benchmark;
use gasnub::fft::scalability;
use gasnub::machines::{
    CounterSet, FaultPlan, Machine, MachineId, MachineRegistry, MachineSpec, MeasureLimits,
    ProbeOp, ProbeRequest, ProbeTier, RingRecorder, SpawnEngine,
};

fn usage() -> ! {
    eprintln!(
        "usage: gasnub <command> [args]\n\
         \n\
         machines [--check]                      list every resolvable machine (built-in\n\
         \x20                                        + machines/zoo specs; --check builds\n\
         \x20                                        and smoke-probes each one)\n\
         figures <list|all|ablations|extras|figNN...>\n\
         \x20       [--quick] [--csv DIR]            regenerate paper figures (--quick:\n\
         \x20                                        reduced grids; --csv also writes\n\
         \x20                                        DIR/<figNN>.csv)\n\
         compare                                 the §9 cross-machine table\n\
         fft [n]                                 2D-FFT benchmark (figs 15-17) at size n\n\
         scale <t3d|t3e> <n> <npes>              §8 scalability projection\n\
         report <machine>                        full markdown characterization report\n\
         faults <machine> [--seed N] [--severity S] [--threads N] [--counters FILE]\n\
         \x20       [--cold]                         healthy-vs-degraded remote bandwidth\n\
         sweep <machine> <op> --checkpoint FILE [--max-cells N] [--budget-secs N]\n\
         \x20       [--seed N] [--severity S]        checkpointed/resumable surface sweep\n\
         \x20       [--threads N]                    (op: load, store, copy-loads,\n\
         \x20       [--counters FILE]                copy-stores, pull, fetch, deposit;\n\
         \x20       [--counters-csv FILE]            --threads 0 = all cores; FILE '-'\n\
         \x20       [--retries N]                    writes to stdout; retry panicking\n\
         \x20       [--cell-timeout-ms N]            cells N times; cap each cell's wall\n\
         \x20       [--force-restart]                clock; move a corrupt checkpoint to\n\
         \x20       [--cold] [--fsync-every N]       FILE.corrupt and start fresh; --cold\n\
         \x20       [--tier auto|analytic|sim]       disables the warm path (memoized\n\
         \x20                                        probes + fast priming); fsync the\n\
         \x20                                        checkpoint every N cells (default 16);\n\
         \x20                                        --tier auto answers calibration-trusted\n\
         \x20                                        cells analytically, simulates the rest\n\
         \x20                                        (default sim; fault plans force sim)\n\
         trace <machine> <op> [--ws BYTES] [--stride WORDS] [--seed N] [--severity S]\n\
         \x20       [--cold] [--tier auto|sim]       one probe's harvested counters and\n\
         \x20                                        trace events, as canonical JSON\n\
         serve [--addr HOST:PORT] [--state-dir DIR] [--threads N]\n\
         \x20       [--tier auto|analytic|sim]       characterization-as-a-service: JSON\n\
         \x20                                        API over HTTP (POST /v1/sweep,\n\
         \x20                                        POST /v1/probe, GET /v1/machines,\n\
         \x20                                        GET /metrics); sweeps are cached,\n\
         \x20                                        coalesced and resume warm from DIR\n\
         \x20                                        (default 127.0.0.1:7177, .gasnub-serve)\n\
         \n\
         <machine> is any name `gasnub machines` lists: built-ins plus spec\n\
         files under machines/zoo/ (override the directory with $GASNUB_ZOO)\n\
         \n\
         (see also: cargo run -p gasnub-bench --bin experiments)"
    );
    std::process::exit(2);
}

/// Exits with code 2 after printing a specific usage error.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("gasnub: {message}");
    eprintln!("(run `gasnub` with no arguments for usage)");
    std::process::exit(2);
}

/// Resolves a machine that the §8 scalability projection can model. Any
/// registry name is accepted; names that resolve to a machine outside the
/// paper's three systems are a precise capability error, and unknown names
/// get the registry's full "expected ..." list — the same list every other
/// subcommand uses.
fn paper_machine_id(registry: &MachineRegistry, label: &str) -> MachineId {
    let spec = registry.resolve(label).unwrap_or_else(|e| fail(e));
    match spec.id() {
        MachineId::Custom => fail(format!(
            "machine {:?} has no scalability model (the §8 projection covers \
             dec8400, t3d and t3e)",
            spec.label()
        )),
        id => id,
    }
}

/// Parses a required numeric argument, failing with exit code 2 on garbage.
fn parse_num<T: std::str::FromStr>(what: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(format!("{what}: malformed number {text:?}")))
}

/// Minimal flag parser: `--flag value` pairs, bare `--flag` booleans
/// (listed in `known_bool`, recorded with value `"true"`), plus positional
/// arguments. Unknown flags are usage errors.
fn split_flags(
    args: &[String],
    known: &[&str],
    known_bool: &[&str],
) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if known_bool.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            if !known.contains(&name) {
                fail(format!("unknown flag --{name}"));
            }
            let Some(value) = it.next() else {
                fail(format!("--{name} needs a value"))
            };
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(arg.clone());
        }
    }
    (positional, flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The spec of the machine named on the command line, resolved through the
/// registry (built-ins + zoo files), with fast limits and the fault plan
/// (if any) folded in. Unknown names fail with the registry's full list of
/// resolvable machines; a fault plan on a machine without a remote path or
/// shared bus is a usage error (exit 2).
fn build_spec(registry: &MachineRegistry, label: &str, plan: Option<&FaultPlan>) -> MachineSpec {
    let mut spec = registry
        .resolve(label)
        .unwrap_or_else(|e| fail(e))
        .clone()
        .with_limits(MeasureLimits::fast());
    if let Some(plan) = plan {
        spec = spec.with_faults(plan).unwrap_or_else(|e| fail(e));
    }
    spec
}

/// The plan described by `--seed` / `--severity` flags (defaults 0 / 0.5).
fn plan_from_flags(flags: &[(String, String)]) -> FaultPlan {
    let seed: u64 = flag(flags, "seed").map_or(0, |v| parse_num("--seed", v));
    let severity: f64 = flag(flags, "severity").map_or(0.5, |v| parse_num("--severity", v));
    FaultPlan::new(seed, severity).unwrap_or_else(|e| fail(e))
}

/// Options every probing subcommand (`sweep`, `faults`, `trace`) shares,
/// parsed in one place with the single exit-2 usage path: worker count,
/// execution tier, fault plan, counter outputs, checkpoint fsync cadence
/// and the `--cold` escape hatch.
struct CommonOpts {
    threads: usize,
    tier: ProbeTier,
    /// Present iff `--seed` / `--severity` appeared (the `faults`
    /// subcommand applies its own 0 / 0.5 defaults on top).
    plan: Option<FaultPlan>,
    counters: Option<String>,
    counters_csv: Option<String>,
    fsync_every: Option<u64>,
}

impl CommonOpts {
    /// The value-taking flags shared by the probing subcommands.
    const VALUE_FLAGS: [&'static str; 7] = [
        "threads",
        "tier",
        "seed",
        "severity",
        "counters",
        "counters-csv",
        "fsync-every",
    ];

    /// The boolean flags shared by the probing subcommands.
    const BOOL_FLAGS: [&'static str; 1] = ["cold"];

    /// The shared value flags plus a subcommand's own.
    fn value_flags(extra: &[&'static str]) -> Vec<&'static str> {
        let mut all = Self::VALUE_FLAGS.to_vec();
        all.extend_from_slice(extra);
        all
    }

    /// The shared boolean flags plus a subcommand's own.
    fn bool_flags(extra: &[&'static str]) -> Vec<&'static str> {
        let mut all = Self::BOOL_FLAGS.to_vec();
        all.extend_from_slice(extra);
        all
    }

    /// Parses the shared options out of an already-split flag list and
    /// applies the process-wide ones (`--cold` disables the warm execution
    /// path: probe memoization, fast priming, and every analytic shortcut).
    fn parse(flags: &[(String, String)]) -> CommonOpts {
        if flag(flags, "cold").is_some() {
            gasnub::memsim::set_cold_path(true);
        }
        let tier = match flag(flags, "tier") {
            None => ProbeTier::Simulate,
            Some(v) => ProbeTier::parse(v).unwrap_or_else(|| {
                fail(format!("--tier must be auto, analytic or sim, got {v:?}"))
            }),
        };
        let threads = match flag(flags, "threads") {
            None => 1,
            Some(v) => match parse_num::<usize>("--threads", v) {
                0 => auto_threads(),
                n => n,
            },
        };
        CommonOpts {
            threads,
            tier,
            plan: (flag(flags, "seed").is_some() || flag(flags, "severity").is_some())
                .then(|| plan_from_flags(flags)),
            counters: flag(flags, "counters").map(str::to_string),
            counters_csv: flag(flags, "counters-csv").map(str::to_string),
            fsync_every: flag(flags, "fsync-every").map(|v| parse_num("--fsync-every", v)),
        }
    }

    /// The tier probes actually run at: a fault plan forces `sim`, since
    /// analytic models are calibrated against the healthy installation
    /// only. Prints the downgrade once so the choice is visible.
    fn effective_tier(&self) -> ProbeTier {
        if self.plan.is_some() && self.tier != ProbeTier::Simulate {
            eprintln!(
                "gasnub: fault plan active, --tier {} downgraded to sim \
                 (analytic models cover healthy installations only)",
                self.tier.label()
            );
            return ProbeTier::Simulate;
        }
        self.tier
    }
}

/// Writes a report to `path`, with `-` meaning stdout.
fn write_output(path: &str, text: &str) {
    if path == "-" {
        print!("{text}");
    } else {
        std::fs::write(path, text).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("counter report written to {path}");
    }
}

/// A [`CounterSet`] as a canonical JSON object.
fn counters_to_json(counters: &CounterSet) -> Json {
    Json::Object(
        counters
            .iter()
            .map(|(name, value)| (name.to_string(), Json::U64(value)))
            .collect(),
    )
}

fn trace_cmd(registry: &MachineRegistry, args: &[String]) {
    let (positional, flags) = split_flags(
        args,
        &CommonOpts::value_flags(&["ws", "stride"]),
        &CommonOpts::bool_flags(&[]),
    );
    let [label, op] = positional.as_slice() else {
        fail(
            "trace takes a machine and an operation \
             (load, store, copy-loads, copy-stores, pull, fetch, deposit)",
        );
    };
    let Some(op) = SweepOp::parse(op) else {
        fail(format!("unknown operation {op:?}"))
    };
    let opts = CommonOpts::parse(&flags);
    if opts.tier == ProbeTier::Analytic {
        fail(
            "trace needs a real simulation to harvest events and counters; \
             the analytic tier has none (use --tier sim, or auto — observed \
             probes always simulate)",
        );
    }
    let ws: u64 = flag(&flags, "ws").map_or(4 << 20, |v| parse_num("--ws", v));
    let stride: u64 = flag(&flags, "stride").map_or(1, |v| parse_num("--stride", v));
    let spec = build_spec(registry, label, opts.plan.as_ref());
    let mut engine = spec.spawn_engine().unwrap_or_else(|e| fail(e));
    engine.set_recorder(Box::new(RingRecorder::new(8)));
    let Some(mb_s) = op.measure(&mut engine, ws, stride) else {
        fail(format!("{} does not support {}", engine.name(), op.label()))
    };
    let counters = engine.take_counters().unwrap_or_default();
    let events = Json::Array(
        engine
            .drain_events()
            .iter()
            .map(|event| {
                Json::object([
                    ("label", Json::Str(event.label.clone())),
                    (
                        "fields",
                        Json::Object(
                            event
                                .fields
                                .iter()
                                .map(|(name, value)| (name.clone(), Json::U64(*value)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let doc = Json::object([
        ("machine", Json::Str(engine.label())),
        ("op", Json::Str(op.label().to_string())),
        ("ws_bytes", Json::U64(ws)),
        ("stride", Json::U64(stride)),
        ("mb_s_bits", Json::U64(mb_s.to_bits())),
        ("counters", counters_to_json(&counters)),
        ("events", events),
    ]);
    println!("{}", doc.render());
}

fn faults_cmd(registry: &MachineRegistry, args: &[String]) {
    let (positional, flags) = split_flags(
        args,
        &CommonOpts::value_flags(&[]),
        &CommonOpts::bool_flags(&[]),
    );
    let [label] = positional.as_slice() else {
        fail("faults takes exactly one machine argument");
    };
    let opts = CommonOpts::parse(&flags);
    if opts.tier != ProbeTier::Simulate {
        eprintln!(
            "gasnub: faults always simulates (degraded installations are \
             outside the analytic calibration); ignoring --tier {}",
            opts.tier.label()
        );
    }
    let plan = plan_from_flags(&flags);
    let threads = opts.threads;

    let torus = gasnub::faults::canonical_torus();
    let channel_faults = plan.channel_faults_for(&torus);
    let impact = plan.remote_impact().unwrap_or_else(|e| fail(e));
    let healthy_spec = build_spec(registry, label, None);
    let degraded_spec = build_spec(registry, label, Some(&plan));
    let healthy = healthy_spec.spawn_engine().unwrap_or_else(|e| fail(e));

    println!(
        "Fault plan seed={} severity={:.2}: {} failed / {} degraded channels on the 8x8x8 torus,",
        plan.seed(),
        plan.severity(),
        channel_faults.failed_count(),
        channel_faults.degraded_count(),
    );
    println!(
        "remote route {} -> {} hops, bottleneck capacity {:.0}%, NI loss {:.1}%/attempt.\n",
        impact.healthy_hops,
        impact.hops,
        impact.min_capacity_factor * 100.0,
        plan.ni_loss().loss_probability * 100.0,
    );
    println!(
        "{} remote bandwidth, healthy vs degraded (MB/s):\n",
        healthy.name()
    );
    println!(
        "{:<9}{:>10}{:>8}{:>12}{:>12}{:>10}",
        "op", "ws", "stride", "healthy", "degraded", "ratio"
    );
    let ws = 4 << 20;
    let ops = [
        SweepOp::RemoteLoad,
        SweepOp::RemoteFetch,
        SweepOp::RemoteDeposit,
    ];
    let strides = [1u64, 8, 64];
    let jobs: Vec<(SweepOp, u64)> = ops
        .iter()
        .flat_map(|&op| strides.iter().map(move |&s| (op, s)))
        .collect();
    // Every probe starts on a fresh engine (identical to a flushed one), so
    // the table is bit-identical for any worker count.
    let cells = run_indexed(threads, jobs.len(), |i| {
        let (op, stride) = jobs[i];
        let pair = |spec: &MachineSpec| {
            spec.spawn_engine()
                .map(|mut m| op.measure(&mut m, ws, stride))
        };
        pair(&healthy_spec).and_then(|h| pair(&degraded_spec).map(|d| (h, d)))
    });
    for ((op, stride), cell) in jobs.iter().zip(cells) {
        let (h, d) = cell.unwrap_or_else(|e| fail(e));
        let (Some(h), Some(d)) = (h, d) else { continue };
        println!(
            "{:<9}{:>9}M{stride:>8}{h:>12.1}{d:>12.1}{:>10.2}",
            op.label(),
            ws >> 20,
            if h > 0.0 { d / h } else { 0.0 }
        );
    }

    // With --counters, re-measure each cell with a recorder installed and
    // report the healthy/degraded mechanism counters side by side (fresh
    // engines, gathered in job order: deterministic for any worker count).
    if let Some(path) = opts.counters.as_deref() {
        let observed = run_indexed(threads, jobs.len(), |i| {
            let (op, stride) = jobs[i];
            let side = |spec: &MachineSpec| {
                spec.spawn_engine().map(|mut m| {
                    m.set_recorder(Box::new(RingRecorder::new(8)));
                    op.measure(&mut m, ws, stride)
                        .map(|mb_s| (mb_s, m.take_counters().unwrap_or_default()))
                })
            };
            side(&healthy_spec).and_then(|h| side(&degraded_spec).map(|d| (h, d)))
        });
        let mut rows = Vec::new();
        for ((op, stride), cell) in jobs.iter().zip(observed) {
            let (h, d) = cell.unwrap_or_else(|e| fail(e));
            let side = |s: Option<(f64, CounterSet)>| match s {
                None => Json::Null,
                Some((mb_s, counters)) => Json::object([
                    ("mb_s_bits", Json::U64(mb_s.to_bits())),
                    ("counters", counters_to_json(&counters)),
                ]),
            };
            rows.push(Json::object([
                ("op", Json::Str(op.label().to_string())),
                ("ws_bytes", Json::U64(ws)),
                ("stride", Json::U64(*stride)),
                ("healthy", side(h)),
                ("degraded", side(d)),
            ]));
        }
        let mut route = CounterSet::new();
        impact.export_counters(&mut route);
        let doc = Json::object([
            ("machine", Json::Str(healthy.label())),
            ("seed", Json::U64(plan.seed())),
            (
                "severity_ppm",
                Json::U64((plan.severity() * 1_000_000.0).round() as u64),
            ),
            ("route", counters_to_json(&route)),
            ("cells", Json::Array(rows)),
        ]);
        let mut text = doc.render();
        text.push('\n');
        write_output(path, &text);
    }
}

fn sweep_cmd(registry: &MachineRegistry, args: &[String]) {
    let (positional, flags) = split_flags(
        args,
        &CommonOpts::value_flags(&[
            "checkpoint",
            "max-cells",
            "budget-secs",
            "retries",
            "cell-timeout-ms",
        ]),
        &CommonOpts::bool_flags(&["force-restart"]),
    );
    let [label, op] = positional.as_slice() else {
        fail(
            "sweep takes a machine and an operation \
             (load, store, copy-loads, copy-stores, pull, fetch, deposit)",
        );
    };
    let Some(op) = SweepOp::parse(op) else {
        fail(format!("unknown operation {op:?}"))
    };
    let Some(checkpoint) = flag(&flags, "checkpoint") else {
        fail("sweep needs --checkpoint FILE (re-run with the same file to resume)");
    };

    let opts = CommonOpts::parse(&flags);
    let tier = opts.effective_tier();
    let plan = opts.plan;
    let spec = build_spec(registry, label, plan.as_ref());
    let threads = opts.threads;

    // The checkpoint carries the machine description's hash, so resuming
    // against an edited zoo file (or a different fault plan) is caught
    // instead of silently mixing measurements.
    let mut runner = ResilientSweep::new(checkpoint).with_spec_hash(spec.spec_hash());
    if let Some(n) = flag(&flags, "max-cells") {
        runner = runner.with_max_cells(parse_num("--max-cells", n));
    }
    if let Some(secs) = flag(&flags, "budget-secs") {
        runner = runner.with_budget(Duration::from_secs(parse_num("--budget-secs", secs)));
    }
    if let Some(n) = flag(&flags, "retries") {
        runner = runner.with_retries(parse_num("--retries", n));
    }
    if let Some(ms) = flag(&flags, "cell-timeout-ms") {
        runner =
            runner.with_cell_timeout(Duration::from_millis(parse_num("--cell-timeout-ms", ms)));
    }
    if flag(&flags, "force-restart").is_some() {
        runner = runner.with_force_restart(true);
    }
    if let Some(n) = opts.fsync_every {
        runner = runner.with_fsync_every(n);
    }

    let name = spec.spawn_engine().unwrap_or_else(|e| fail(e)).name();
    // The tier rides in the title so a checkpoint started under one tier
    // refuses to resume under another (the foreign-title check fires),
    // keeping every checkpoint's provenance uniform. The spelling is shared
    // with `gasnub serve`, whose sweep bodies must be byte-identical to
    // these offline checkpoints.
    let title = op.checkpoint_title(&name, plan.is_some(), tier);
    let grid = Grid::quick();
    let run = |runner: &ResilientSweep| match tier {
        ProbeTier::Simulate => runner.run_parallel_op(&title, &grid, threads, &spec, op),
        tier => {
            let spawner = TieredSpec::new(spec.clone(), tier).unwrap_or_else(|e| fail(e));
            runner.run_parallel_op(&title, &grid, threads, &spawner, op)
        }
    };
    let outcome = run(&runner).unwrap_or_else(|e| match e {
        gasnub::core::SweepError::Checkpoint(ck) if ck.force_restart_recoverable() => fail(
            format!("{ck}\n(re-run with --force-restart to move it aside and start fresh)"),
        ),
        other => fail(other),
    });

    println!("{}", outcome.surface.render());
    println!(
        "cells: {} measured, {} resumed from checkpoint, {} failed, {} pending",
        outcome.measured,
        outcome.resumed,
        outcome.failed.len(),
        outcome.pending
    );
    for f in &outcome.failed {
        println!(
            "  failed ws={} stride={} [{} after {} attempt{}]: {}",
            f.ws_bytes,
            f.stride,
            f.kind.label(),
            f.attempts,
            if f.attempts == 1 { "" } else { "s" },
            f.error
        );
    }
    if !outcome.robustness.is_empty() {
        let parts: Vec<String> = outcome
            .robustness
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        println!("robustness: {}", parts.join(" "));
    }
    if outcome.is_complete() {
        println!("sweep complete (checkpoint kept at {checkpoint})");
    } else {
        println!("sweep interrupted; re-run the same command to resume from {checkpoint}");
    }

    // With --counters / --counters-csv, sweep the same grid again with
    // recorders installed and emit the per-cell counter report (JSON is the
    // golden-trace format; CSV is the counter-annotated figure form).
    let json_path = opts.counters.as_deref();
    let csv_path = opts.counters_csv.as_deref();
    if json_path.is_some() || csv_path.is_some() {
        let mut report = collect_counters(&spec, op, &grid, threads)
            .unwrap_or_else(|e| fail(e))
            .unwrap_or_else(|| fail(format!("{label} does not support {}", op.label())));
        // The sweep's robustness counters ride along in the report, so a
        // troubled run's retries/quarantines/timeouts are visible next to
        // the mechanism counters they disturbed.
        report.robustness = outcome.robustness.clone();
        if let Some(path) = json_path {
            write_output(path, &report.render_json());
        }
        if let Some(path) = csv_path {
            write_output(path, &report.to_csv());
        }
    }
}

/// Regenerates the paper's figures as text tables on stdout, with
/// `--csv DIR` also writing one `DIR/<figNN>.csv` per figure; `ablations`
/// and `extras` add the ablation studies and the exhibits beyond the
/// paper. Progress goes to stderr, so stdout is the `results/` record.
fn figures_cmd(args: &[String]) {
    let (selectors, flags) = split_flags(args, &["csv"], &["quick"]);
    let selected = |name: &str| selectors.iter().any(|s| s == name);
    if selectors.is_empty() || selected("list") {
        for f in gasnub_bench::all_figures() {
            println!("{:<7} {}\n        expect: {}", f.id, f.title, f.expectation);
        }
        return;
    }
    let figures = if selected("all") {
        gasnub_bench::all_figures()
    } else {
        selectors
            .iter()
            .filter(|s| *s != "ablations" && *s != "extras")
            .map(|s| {
                gasnub_bench::figure_by_id(s)
                    .unwrap_or_else(|| fail(format!("unknown figure {s:?}")))
            })
            .collect()
    };
    let quick = flag(&flags, "quick").is_some();
    let csv_dir = flag(&flags, "csv").map(PathBuf::from);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    }

    for f in figures {
        eprintln!("[{}] {} …", f.id, f.title);
        let out = f.run(quick);
        println!("---- {} — {}", f.id, f.title);
        println!("expectation: {}", f.expectation);
        println!("{}", out.text);
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", f.id));
            std::fs::write(&path, &out.csv)
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
            eprintln!("[{}] wrote {}", f.id, path.display());
        }
    }

    if selected("ablations") {
        use gasnub_bench::ablations;
        eprintln!("[ablations] running …");
        println!("---- ablations");
        println!("{}", ablations::render(&ablations::run_all()));
    }

    if selected("extras") {
        use gasnub_bench::extras;
        eprintln!("[extras] running …");
        println!("---- extras");
        println!("{}", extras::comparison_table());
        println!("{}", extras::gather_curves());
        println!("{}", extras::fft_scaling(256));
        println!("{}", extras::t3e_fetch_rewrite(256));
        println!("{}", extras::false_sharing());
    }
}

/// Lists every resolvable machine; with `--check`, also parses, builds and
/// smoke-probes each one (the CI gate for `machines/zoo/`). Broken zoo
/// files and failed checks exit 2 like every other usage error.
fn machines_cmd(registry: &MachineRegistry, args: &[String]) {
    let (positional, flags) = split_flags(args, &[], &["check"]);
    if !positional.is_empty() {
        fail(format!(
            "machines takes no positional arguments, got {positional:?}"
        ));
    }
    let check = flag(&flags, "check").is_some();

    println!("{:<10}{:<7}{:>10}  summary", "name", "model", "clock");
    for spec in registry.specs() {
        println!(
            "{:<10}{:<7}{:>6} MHz  {}",
            spec.label(),
            spec.model_family(),
            spec.clock_mhz(),
            if spec.summary().is_empty() {
                spec.display_name()
            } else {
                spec.summary().to_string()
            }
        );
    }
    for broken in registry.broken() {
        eprintln!(
            "gasnub: broken spec {}: {}",
            broken.path.display(),
            broken.message
        );
    }

    // A bare listing stays usable with broken zoo files (they are already
    // surfaced above); --check treats them as failures.
    let mut failures = if check { registry.broken().len() } else { 0 };
    if check {
        println!();
        for spec in registry.specs() {
            // Round-trip sanity first: the serialized form must describe
            // the same machine.
            let text = spec.to_spec_string();
            match MachineSpec::from_spec_str(&text) {
                Ok(back) if back == *spec => {}
                Ok(_) => {
                    println!(
                        "{:<10} FAIL: serialization round trip drifted",
                        spec.label()
                    );
                    failures += 1;
                    continue;
                }
                Err(e) => {
                    println!(
                        "{:<10} FAIL: serialized form does not parse: {e}",
                        spec.label()
                    );
                    failures += 1;
                    continue;
                }
            }
            // Then a fast-limits smoke probe: build an engine and take one
            // local (and, where supported, one remote) measurement.
            let fast = spec.clone().with_limits(MeasureLimits::fast());
            let mut engine = match fast.spawn_engine() {
                Ok(engine) => engine,
                Err(e) => {
                    println!("{:<10} FAIL: does not build: {e}", spec.label());
                    failures += 1;
                    continue;
                }
            };
            let mut probe = |op| engine.probe(&ProbeRequest::new(op, 1 << 20, 1));
            let local = probe(ProbeOp::LocalLoad).expect("local loads always run");
            let remote = probe(ProbeOp::RemoteFetch);
            if !(local.mb_s.is_finite() && local.mb_s > 0.0) {
                println!(
                    "{:<10} FAIL: local probe returned {} MB/s",
                    spec.label(),
                    local.mb_s
                );
                failures += 1;
                continue;
            }
            match remote {
                Some(r) if !(r.mb_s.is_finite() && r.mb_s > 0.0) => {
                    println!(
                        "{:<10} FAIL: remote probe returned {} MB/s",
                        spec.label(),
                        r.mb_s
                    );
                    failures += 1;
                    continue;
                }
                _ => {}
            }
            match remote {
                Some(r) => println!(
                    "{:<10} ok: local {:.0} MB/s, remote {:.0} MB/s",
                    spec.label(),
                    local.mb_s,
                    r.mb_s
                ),
                None => println!("{:<10} ok: local {:.0} MB/s", spec.label(), local.mb_s),
            }
        }
    }
    if failures > 0 {
        fail(format!(
            "{failures} machine spec{} failed",
            if failures == 1 { "" } else { "s" }
        ));
    }
}

/// The `serve` subcommand: boots the characterization server, prints one
/// parseable `serving on http://…` line (the actual port when `:0` was
/// requested), blocks until `POST /v1/shutdown`, and prints the shutdown
/// counter report.
fn serve_cmd(args: &[String]) {
    let (positional, flags) = split_flags(args, &["addr", "state-dir", "threads", "tier"], &[]);
    if let Some(extra) = positional.first() {
        fail(format!(
            "serve takes no positional arguments, got {extra:?}"
        ));
    }
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:7177");
    let state_dir = flag(&flags, "state-dir").unwrap_or(".gasnub-serve");
    let threads = match flag(&flags, "threads") {
        None => 1,
        Some(v) => match parse_num::<usize>("--threads", v) {
            0 => auto_threads(),
            n => n,
        },
    };
    let tier = match flag(&flags, "tier") {
        None => ProbeTier::Simulate,
        Some(v) => ProbeTier::parse(v)
            .unwrap_or_else(|| fail(format!("--tier must be auto, analytic or sim, got {v:?}"))),
    };
    let config = gasnub::serve::ServeConfig::new(addr, state_dir)
        .with_threads(threads)
        .with_tier(tier);
    let server = gasnub::serve::Server::bind(config).unwrap_or_else(|e| fail(e));
    println!("gasnub: serving on http://{}", server.local_addr());
    let report = server.run();
    let pairs: Vec<String> = report.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("serving: {}", pairs.join(" "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let registry = MachineRegistry::discover();

    match command.as_str() {
        "machines" => machines_cmd(&registry, &args[1..]),
        "figures" => figures_cmd(&args[1..]),
        "compare" => println!("{}", gasnub_bench::extras::comparison_table()),
        "fft" => {
            let n: usize = match args.get(1) {
                None => 256,
                Some(a) => parse_num("fft size", a),
            };
            println!("2D-FFT on 4 PEs, n = {n}:");
            println!(
                "{:<12}{:>16}{:>18}{:>16}",
                "machine", "total MFlop/s", "compute MFlop/s", "comm MB/s"
            );
            for id in [MachineId::CrayT3d, MachineId::Dec8400, MachineId::CrayT3e] {
                let r = run_benchmark(id, n, 4);
                println!(
                    "{:<12}{:>16.0}{:>18.0}{:>16.0}",
                    id.label(),
                    r.total_mflops,
                    r.compute_mflops_total,
                    r.comm_mb_s_total
                );
            }
        }
        "report" => {
            let Some(label) = args.get(1) else { usage() };
            use gasnub::core::report::{machine_report, ReportOptions};
            let mut machine = build_spec(&registry, label, None)
                .spawn_engine()
                .unwrap_or_else(|e| fail(e));
            println!("{}", machine_report(&mut machine, &ReportOptions::quick()));
        }
        "scale" => {
            let (Some(label), Some(n), Some(p)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            let mid = paper_machine_id(&registry, label);
            let n: u64 = parse_num("scale size", n);
            let p: u64 = parse_num("scale PE count", p);
            let point = scalability::project(mid, n, p);
            println!(
                "{} 2D-FFT({}x{}) on {} PEs: {:.1} GFlop/s total, {:.1} MFlop/s per PE{}",
                mid,
                n,
                n,
                p,
                point.gflops_total,
                point.mflops_per_pe,
                if point.bisection_limited {
                    " (bisection limited)"
                } else {
                    ""
                }
            );
        }
        "faults" => faults_cmd(&registry, &args[1..]),
        "sweep" => sweep_cmd(&registry, &args[1..]),
        "trace" => trace_cmd(&registry, &args[1..]),
        "serve" => serve_cmd(&args[1..]),
        _ => usage(),
    }
}

//! Integration tests for the `gasnub` binary: usage errors must exit with
//! code 2 (never panic), and the fault/sweep subcommands must be
//! deterministic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gasnub(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gasnub"))
        .args(args)
        .output()
        .expect("the gasnub binary must spawn")
}

fn assert_usage_error(args: &[&str]) {
    let out = gasnub(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic: {stderr}"
    );
    assert!(
        stderr.contains("usage") || stderr.contains("gasnub:"),
        "{args:?} must print a usage error: {stderr}"
    );
}

#[test]
fn bad_invocations_exit_2_without_panicking() {
    assert_usage_error(&[]);
    assert_usage_error(&["frobnicate"]);
    assert_usage_error(&["figures", "fig99"]);
    assert_usage_error(&["figures", "--csv"]); // missing directory
    assert_usage_error(&["figures", "fig03", "--bogus"]);
    assert_usage_error(&["fft", "banana"]);
    assert_usage_error(&["scale", "t3d", "many", "512"]);
    assert_usage_error(&["scale", "paragon", "512", "512"]);
    assert_usage_error(&["report", "paragon"]);
    assert_usage_error(&["faults"]);
    assert_usage_error(&["faults", "t3x"]);
    assert_usage_error(&["faults", "t3d", "--seed", "NaN"]);
    assert_usage_error(&["faults", "t3d", "--severity", "2.0"]);
    assert_usage_error(&["faults", "t3d", "--frob", "1"]);
    assert_usage_error(&["sweep", "t3d"]);
    assert_usage_error(&["sweep", "t3d", "deposit"]); // missing --checkpoint
    assert_usage_error(&["sweep", "t3d", "teleport", "--checkpoint", "/tmp/x.json"]);
    assert_usage_error(&["serve", "extra-positional"]);
    assert_usage_error(&["serve", "--addr"]); // missing value
    assert_usage_error(&["serve", "--tier", "warp"]);
    assert_usage_error(&["serve", "--port", "80"]); // unknown flag
    assert_usage_error(&["serve", "--addr", "256.256.256.256:99999"]); // unbindable
    assert_usage_error(&[
        "sweep",
        "t3d",
        "deposit",
        "--checkpoint",
        "/tmp/x.json",
        "--threads",
    ]);
    assert_usage_error(&[
        "sweep",
        "t3d",
        "deposit",
        "--checkpoint",
        "/tmp/x.json",
        "--threads",
        "lots",
    ]);
    assert_usage_error(&["faults", "t3d", "--threads", "-1"]);
    // Fault plans only model the three reference systems.
    assert_usage_error(&["faults", "custom"]);
    // Custom machines are not in the scalability model either.
    assert_usage_error(&["scale", "custom", "512", "512"]);
    // The trace subcommand follows the same conventions.
    assert_usage_error(&["trace"]);
    assert_usage_error(&["trace", "t3d"]);
    assert_usage_error(&["trace", "paragon", "load"]);
    assert_usage_error(&["trace", "t3d", "teleport"]);
    assert_usage_error(&["trace", "t3d", "load", "--ws", "huge"]);
    assert_usage_error(&["trace", "t3d", "load", "--stride"]);
    assert_usage_error(&["trace", "t3d", "load", "--frob", "1"]);
    // Unsupported machine/op combinations are usage errors, not panics.
    assert_usage_error(&["trace", "dec8400", "deposit"]);
    assert_usage_error(&["trace", "t3d", "pull"]);
    // --counters reports inherit the conventions too.
    assert_usage_error(&["sweep", "t3d", "load", "--counters"]);
    assert_usage_error(&["faults", "t3d", "--counters"]);
    // The robustness flags inherit the exit-2 conventions.
    fn with_ck<'a>(extra: &[&'a str]) -> Vec<&'a str> {
        let mut args = vec!["sweep", "t3d", "load", "--checkpoint", "/tmp/x.json"];
        args.extend_from_slice(extra);
        args
    }
    assert_usage_error(&with_ck(&["--retries"]));
    assert_usage_error(&with_ck(&["--retries", "lots"]));
    assert_usage_error(&with_ck(&["--cell-timeout-ms", "soon"]));
    // --force-restart is boolean: a stray value becomes a positional arg.
    assert_usage_error(&with_ck(&["--force-restart", "yes"]));
    // The machines subcommand inherits the exit-2 conventions.
    assert_usage_error(&["machines", "extra"]);
    assert_usage_error(&["machines", "--frob"]);
}

#[test]
fn unknown_machine_errors_enumerate_the_registry() {
    // Every subcommand resolves names through the one registry, so every
    // unknown-machine error lists the same resolvable names.
    for args in [
        vec!["sweep", "paragon", "load", "--checkpoint", "/tmp/x.json"],
        vec!["faults", "paragon"],
        vec!["trace", "paragon", "load"],
    ] {
        let out = gasnub(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for name in ["dec8400", "t3d", "t3e", "custom"] {
            assert!(
                stderr.contains(name),
                "{args:?} must enumerate {name}: {stderr}"
            );
        }
    }
}

#[test]
fn figures_list_prints_every_figure_id() {
    let out = gasnub(&["figures", "list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<String> = (1..=17).map(|n| format!("fig{n:02}")).collect();
    assert_eq!(ids, expected, "{stdout}");
}

#[test]
fn figures_csv_matches_the_library_and_prints_the_expectation() {
    let dir = std::env::temp_dir().join(format!("gasnub-cli-figures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv_dir = dir.to_str().expect("temp dir is UTF-8");
    let out = gasnub(&["figures", "fig03", "--quick", "--csv", csv_dir]);
    let csv = std::fs::read_to_string(dir.join("fig03.csv"));
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let fig = gasnub_bench::figure_by_id("fig03").expect("fig03 exists");
    assert_eq!(csv.expect("fig03.csv is written"), fig.run(true).csv);
    assert!(
        stdout.contains(&format!("\nexpectation: {}\n", fig.expectation)),
        "{stdout}"
    );
}

#[test]
fn machines_lists_the_whole_zoo_outside_the_repo_root() {
    // The zoo files are embedded, so no `machines/zoo` directory (and no
    // `GASNUB_ZOO`) is needed to reach any of them.
    let dir = std::env::temp_dir().join(format!("gasnub-cli-nozoo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gasnub"))
        .arg("machines")
        .current_dir(&dir)
        .env_remove("GASNUB_ZOO")
        .output()
        .expect("the gasnub binary must spawn");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for name in ["numa2s", "smp16"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(name)),
            "machines must list {name}: {stdout}"
        );
    }
}

#[test]
fn corrupt_checkpoints_exit_2_and_force_restart_recovers() {
    let ckpt = std::env::temp_dir().join(format!("gasnub-cli-corrupt-{}.json", std::process::id()));
    let corrupt_copy = ckpt.with_extension("json.corrupt");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&corrupt_copy);
    let run = |extra: &[&str]| -> Output {
        let mut args = vec![
            "sweep",
            "t3d",
            "load",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        gasnub(&args)
    };

    let clean = run(&[]);
    assert_eq!(clean.status.code(), Some(0));
    let good = std::fs::read(&ckpt).unwrap();

    // Tear the tail off the checkpoint: the next run must refuse loudly —
    // a named corruption error with exit 2, not a silent restart.
    std::fs::write(&ckpt, &good[..good.len() - 9]).unwrap();
    let refused = run(&[]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("corrupt") && stderr.contains("--force-restart"),
        "refusal must name the corruption and the escape hatch: {stderr}"
    );

    // --force-restart: recovers, preserves the evidence, reports the event.
    let healed = run(&["--force-restart"]);
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert_eq!(healed.status.code(), Some(0), "stderr: {stderr}");
    let text = String::from_utf8_lossy(&healed.stdout);
    assert!(
        text.contains("robustness:") && text.contains("sweep.force_restarts=1"),
        "recovery must be counted: {text}"
    );
    assert!(
        corrupt_copy.exists(),
        "the corrupt checkpoint must be preserved as {}",
        corrupt_copy.display()
    );
    assert_eq!(
        std::fs::read(&ckpt).unwrap(),
        good,
        "the healed run must converge to the original checkpoint bytes"
    );

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&corrupt_copy);
}

#[test]
fn sweep_robustness_counters_are_deterministic_across_threads() {
    // A zero cell budget times out every cell — deterministically, because
    // the runner checks the expired token before each attempt. The recorded
    // counters must be identical for any worker count.
    let scratch = |threads: usize| {
        std::env::temp_dir().join(format!(
            "gasnub-cli-timeout-{}-t{threads}.json",
            std::process::id()
        ))
    };
    let mut lines = Vec::new();
    for threads in [1, 4] {
        let ckpt = scratch(threads);
        let _ = std::fs::remove_file(&ckpt);
        let out = gasnub(&[
            "sweep",
            "t3d",
            "load",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--cell-timeout-ms",
            "0",
            "--threads",
            &threads.to_string(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("robustness:"))
            .unwrap_or_else(|| panic!("no robustness line in: {text}"))
            .to_string();
        assert!(line.contains("sweep.timeouts="), "{line}");
        lines.push(line);
        let _ = std::fs::remove_file(&ckpt);
    }
    assert_eq!(lines[0], lines[1], "counters must not depend on --threads");
}

#[test]
fn trace_prints_counters_and_events_as_json() {
    let out = gasnub(&["trace", "t3d", "deposit", "--ws", "262144", "--stride", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "trace must succeed: {stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    // Canonical JSON: one object, sorted keys, counters and events present.
    assert!(text.starts_with("{\"counters\":"), "doc shape: {text}");
    assert!(text.contains("\"machine\":\"t3d\""), "machine: {text}");
    assert!(text.contains("\"op\":\"deposit\""), "op: {text}");
    assert!(text.contains("\"ni_packets\":"), "NI counters: {text}");
    assert!(
        text.contains("\"label\":\"probe.remote_deposit\""),
        "probe event: {text}"
    );

    let again = gasnub(&["trace", "t3d", "deposit", "--ws", "262144", "--stride", "8"]);
    assert_eq!(out.stdout, again.stdout, "traces must be deterministic");
}

#[test]
fn trace_observes_degraded_machines() {
    let healthy = gasnub(&["trace", "t3d", "deposit", "--ws", "262144"]);
    let degraded = gasnub(&[
        "trace",
        "t3d",
        "deposit",
        "--ws",
        "262144",
        "--seed",
        "7",
        "--severity",
        "0.5",
    ]);
    assert_eq!(degraded.status.code(), Some(0));
    let text = String::from_utf8_lossy(&degraded.stdout);
    assert!(
        text.contains("\"ni_retries\":"),
        "a lossy NI must report retries: {text}"
    );
    assert!(
        !String::from_utf8_lossy(&healthy.stdout).contains("\"ni_retries\":"),
        "a healthy NI has no loss model and no retry counter"
    );
}

#[test]
fn sweep_counter_reports_parse_and_annotate() {
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("gasnub-cli-ctr-{}-{tag}", std::process::id()))
    };
    let json_path = scratch("report.json");
    let csv_path = scratch("report.csv");
    let ckpt = scratch("ckpt.json");
    let out = gasnub(&[
        "sweep",
        "t3e",
        "fetch",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--counters",
        json_path.to_str().unwrap(),
        "--counters-csv",
        csv_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "sweep must succeed: {stderr}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    let report = gasnub::core::counters::CounterReport::parse(&json)
        .expect("the CLI writes parseable counter reports");
    assert_eq!(report.machine, "t3e");
    assert_eq!(report.op, "fetch");
    assert!(!report.cells.is_empty());
    assert!(report.cells.iter().all(|c| c.counters.get("cycles") > 0));

    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let header = csv.lines().next().unwrap();
    assert!(header.starts_with("ws_bytes,stride,mb_s,"), "{header}");
    assert!(header.contains("ereg_words"), "annotated columns: {header}");
    assert_eq!(csv.lines().count(), report.cells.len() + 1);

    for f in [&json_path, &csv_path, &ckpt] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn custom_machines_sweep_end_to_end() {
    let ckpt = std::env::temp_dir().join(format!("gasnub-cli-custom-{}.json", std::process::id()));
    let out = gasnub(&[
        "sweep",
        "custom",
        "load",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "custom sweep must succeed: {stderr}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("reference custom node"),
        "custom machine name missing: {text}"
    );
    assert!(
        text.contains("sweep complete"),
        "custom sweep must finish: {text}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn faults_tables_are_byte_identical_across_runs() {
    let args = ["faults", "t3d", "--seed", "7", "--severity", "0.6"];
    let a = gasnub(&args);
    let b = gasnub(&args);
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must print a byte-identical table"
    );
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("healthy"), "table header missing: {text}");
    assert!(text.contains("deposit"), "T3D deposit rows missing: {text}");
}

#[test]
fn interrupted_sweep_resumes_to_the_same_surface() {
    let scratch = |tag: &str| -> PathBuf {
        std::env::temp_dir().join(format!(
            "gasnub-cli-sweep-{}-{tag}.json",
            std::process::id()
        ))
    };
    let direct_ckpt = scratch("direct");
    let resumed_ckpt = scratch("resumed");
    let run = |ckpt: &PathBuf, extra: &[&str]| -> Output {
        let mut args = vec![
            "sweep",
            "t3d",
            "deposit",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        gasnub(&args)
    };

    let direct = run(&direct_ckpt, &[]);
    assert_eq!(direct.status.code(), Some(0));

    let first = run(&resumed_ckpt, &["--max-cells", "5"]);
    assert_eq!(first.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&first.stdout).contains("pending"));
    let second = run(&resumed_ckpt, &[]);
    assert_eq!(second.status.code(), Some(0));

    let surface_of = |out: &Output| -> String {
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        // Everything up to the cell-accounting line is the rendered surface.
        text.split("\ncells:")
            .next()
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(
        surface_of(&direct),
        surface_of(&second),
        "resumed sweep must render the identical surface"
    );

    let _ = std::fs::remove_file(&direct_ckpt);
    let _ = std::fs::remove_file(&resumed_ckpt);
}

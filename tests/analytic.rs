//! The analytic fast path's acceptance bar. Over the full reference grid
//! of every zoo machine, the `auto` tier must agree with full simulation:
//! bit-identical wherever it simulates, and within the machine's
//! calibration tolerance wherever it answers from the analytic model. The
//! residual surface (one row per analytic cell) can be exported for CI by
//! setting `GASNUB_ANALYTIC_RESIDUALS` to an output path.

use std::path::{Path, PathBuf};

use gasnub::analytic::TieredSpec;
use gasnub::core::json::Json;
use gasnub::core::{Grid, SweepOp};
use gasnub::machines::{
    Machine, MachineSpec, MeasureLimits, ProbePath, ProbeTier, RunContext, SpawnEngine,
};

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn zoo_spec(name: &str) -> MachineSpec {
    let text = std::fs::read_to_string(repo_file(&format!("machines/zoo/{name}.toml")))
        .unwrap_or_else(|e| panic!("machines/zoo/{name}.toml must be readable: {e}"));
    MachineSpec::from_spec_str(&text)
        .unwrap_or_else(|e| panic!("machines/zoo/{name}.toml must parse: {e}"))
        .with_limits(MeasureLimits::fast())
}

/// Every machine the zoo ships, with the analytic-path cell count the
/// agreement sweep must reach on the reference grid (25 cells × 7 ops).
/// The floors pin today's trust coverage so a calibration regression
/// (trusted cells silently falling back to simulation) fails loudly.
const ZOO: [(&str, usize); 6] = [
    ("dec8400", 40),
    ("t3d", 40),
    ("t3e", 40),
    ("custom", 20),
    ("numa2s", 20),
    ("smp16", 20),
];

struct Residual {
    op: SweepOp,
    ws: u64,
    stride: u64,
    sim_mb_s: f64,
    model_mb_s: f64,
}

impl Residual {
    fn rel_err(&self) -> f64 {
        if self.sim_mb_s > 0.0 {
            (self.model_mb_s - self.sim_mb_s).abs() / self.sim_mb_s
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("op", Json::Str(self.op.label().to_string())),
            ("ws_bytes", Json::U64(self.ws)),
            ("stride", Json::U64(self.stride)),
            ("sim_mb_s_bits", Json::U64(self.sim_mb_s.to_bits())),
            ("model_mb_s_bits", Json::U64(self.model_mb_s.to_bits())),
            (
                "rel_err_ppm",
                Json::U64((self.rel_err() * 1e6).round() as u64),
            ),
        ])
    }
}

/// Sweeps one machine's reference grid under `--tier auto` and plain
/// simulation side by side, checking the tiering contract cell by cell.
/// Returns the analytic-path residual rows.
fn agreement_sweep(name: &str, spec: &MachineSpec) -> Vec<Residual> {
    let tolerance = spec.calibration_tolerance().unwrap_or(0.15);
    let tiered = TieredSpec::new(spec.clone(), ProbeTier::Auto)
        .unwrap_or_else(|e| panic!("{name}: analytic model must build: {e}"));
    let mut auto = tiered.spawn_engine().unwrap();
    // `sim` is unmemoized: `auto` memoizes the cells it simulates, and the
    // comparison must be against a separate simulation, not that memo entry.
    let unmemoized = spec.clone().with_context(RunContext::unmemoized());
    let mut sim = unmemoized.spawn_engine().unwrap();
    let grid = Grid::quick();
    let mut residuals = Vec::new();
    for op in SweepOp::all() {
        for &ws in &grid.working_sets {
            for &stride in &grid.strides {
                let req = op.request(ws, stride);
                let tiered_cell = auto.probe(&req);
                let path = auto.last_path();
                let sim_cell = sim.probe(&req);
                let cell = format!("{name} {} ws={ws} stride={stride}", op.label());
                match (tiered_cell, sim_cell) {
                    (None, None) => {} // unsupported on both sides
                    pair @ ((None, Some(_)) | (Some(_), None)) => {
                        panic!("{cell}: tiers disagree on op support ({pair:?})")
                    }
                    (Some(a), Some(s)) if path == ProbePath::Simulated => assert_eq!(
                        (a.bytes, a.cycles.to_bits(), a.mb_s.to_bits()),
                        (s.bytes, s.cycles.to_bits(), s.mb_s.to_bits()),
                        "{cell}: a simulated auto-tier cell must be bit-identical"
                    ),
                    (Some(a), Some(s)) => {
                        let residual = Residual {
                            op,
                            ws,
                            stride,
                            sim_mb_s: s.mb_s,
                            model_mb_s: a.mb_s,
                        };
                        assert!(
                            residual.rel_err() <= tolerance,
                            "{cell}: analytic {:.1} MB/s vs simulated {:.1} MB/s \
                             ({:.1}% off, tolerance {:.0}%)",
                            a.mb_s,
                            s.mb_s,
                            residual.rel_err() * 100.0,
                            tolerance * 100.0
                        );
                        residuals.push(residual);
                    }
                }
            }
        }
    }
    residuals
}

/// The tentpole's cross-validation: on every zoo machine's full reference
/// grid, analytic-path cells agree with simulation within the machine's
/// calibration tolerance, simulated cells are bit-identical, and trust
/// coverage stays at or above today's level.
#[test]
fn analytic_tier_agrees_with_simulation_on_every_zoo_machine() {
    let mut surface = Vec::new();
    for (name, min_analytic_cells) in ZOO {
        let spec = zoo_spec(name);
        let residuals = agreement_sweep(name, &spec);
        assert!(
            residuals.len() >= min_analytic_cells,
            "{name}: only {} analytic-path cells on the reference grid \
             (expected at least {min_analytic_cells}) — trust coverage regressed",
            residuals.len()
        );
        surface.push((name, residuals));
    }

    if let Ok(path) = std::env::var("GASNUB_ANALYTIC_RESIDUALS") {
        let doc = Json::Object(
            surface
                .iter()
                .map(|(name, residuals)| {
                    (
                        name.to_string(),
                        Json::Array(residuals.iter().map(Residual::to_json).collect()),
                    )
                })
                .collect(),
        );
        let mut text = doc.render();
        text.push('\n');
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write residual surface to {path}: {e}"));
    }
}

/// The `auto` tier keeps the determinism contract: checkpoints are
/// byte-identical at every worker count. Analytic answers come from pure
/// arithmetic over memoized anchor probes, so thread interleaving cannot
/// change a single bit.
#[test]
fn auto_tier_checkpoints_are_byte_identical_across_thread_counts() {
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!(
            "gasnub-analytic-det-{}-{tag}.json",
            std::process::id()
        ))
    };
    let sweep = |machine: &str, ckpt: &Path, threads: &str, tier: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
            .args([
                "sweep",
                machine,
                "load",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--threads",
                threads,
                "--tier",
                tier,
            ])
            .output()
            .expect("the gasnub binary must spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{machine} --tier {tier} --threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    for machine in ["t3d", "t3e"] {
        let reference = scratch(&format!("{machine}-t1"));
        sweep(machine, &reference, "1", "auto");
        let want = std::fs::read(&reference).unwrap();
        for threads in ["2", "4"] {
            let ckpt = scratch(&format!("{machine}-t{threads}"));
            sweep(machine, &ckpt, threads, "auto");
            let got = std::fs::read(&ckpt).unwrap();
            assert_eq!(
                want, got,
                "{machine}: --tier auto checkpoint must not depend on --threads"
            );
            let _ = std::fs::remove_file(&ckpt);
        }
        let _ = std::fs::remove_file(&reference);
    }
}

/// A checkpoint written under one tier refuses to resume under another:
/// the tier is part of the sweep title, so the foreign-title check fires
/// before mixed-provenance measurements can land in one file.
#[test]
fn checkpoints_do_not_mix_tiers() {
    let ckpt =
        std::env::temp_dir().join(format!("gasnub-analytic-mix-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let run = |tier: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
            .args([
                "sweep",
                "t3e",
                "load",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--max-cells",
                "3",
                "--tier",
                tier,
            ])
            .output()
            .expect("the gasnub binary must spawn")
    };
    let first = run("auto");
    assert_eq!(
        first.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run("sim");
    assert_eq!(
        second.status.code(),
        Some(2),
        "resuming an auto-tier checkpoint under --tier sim must be refused"
    );
    let _ = std::fs::remove_file(&ckpt);
}

/// Usage-error paths: a malformed tier exits 2, and `trace` (which exists
/// to harvest simulation observability) rejects the pure-analytic tier.
#[test]
fn tier_flag_usage_errors_exit_2() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
            .args(args)
            .output()
            .expect("the gasnub binary must spawn")
    };
    let bogus = run(&[
        "sweep",
        "t3d",
        "load",
        "--checkpoint",
        "/tmp/unused.json",
        "--tier",
        "warp",
    ]);
    assert_eq!(bogus.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bogus.stderr).contains("--tier"),
        "the error must name the flag"
    );

    let trace = run(&["trace", "t3d", "load", "--tier", "analytic"]);
    assert_eq!(trace.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&trace.stderr).contains("analytic"),
        "trace must explain why the analytic tier is rejected"
    );
}

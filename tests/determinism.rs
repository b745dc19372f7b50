//! Every layer of the stack is deterministic: identical configurations and
//! inputs produce bit-identical results. This is the property that makes
//! the characterization reproducible and the figures stable.

use gasnub::core::sweep::Grid;
use gasnub::core::{sweep_surface, CostModel, SweepOp};
use gasnub::fft::run_benchmark;
use gasnub::machines::ProbeOp::{LocalCopy, LocalLoad, RemoteDeposit, RemoteFetch};
use gasnub::machines::{
    Machine, MachineId, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, RunContext,
    TransferEngine,
};

fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
    ProbeRequest::new(op, ws, stride)
}

/// A fast engine in an unmemoized context: every probe re-simulates, so two
/// engines built from one spec are compared simulation against simulation,
/// not a table against its source.
fn fast(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits::fast())
        .with_context(RunContext::unmemoized())
        .build()
        .unwrap()
}

#[test]
fn machine_probes_are_deterministic() {
    let probe = |m: &mut dyn Machine| {
        (
            m.probe(&req(LocalLoad, 8 << 20, 7)).unwrap().cycles,
            m.probe(&req(LocalCopy, 4 << 20, 16)).unwrap().cycles,
            m.probe(&req(RemoteFetch, 4 << 20, 3)).map(|r| r.cycles),
            m.probe(&req(RemoteDeposit, 4 << 20, 3)).map(|r| r.cycles),
        )
    };
    let mut a = fast(MachineSpec::t3d());
    let mut b = fast(MachineSpec::t3d());
    assert_eq!(probe(&mut a), probe(&mut b));

    let mut a = fast(MachineSpec::t3e());
    let mut b = fast(MachineSpec::t3e());
    assert_eq!(probe(&mut a), probe(&mut b));

    let mut a = fast(MachineSpec::dec8400());
    let mut b = fast(MachineSpec::dec8400());
    assert_eq!(probe(&mut a), probe(&mut b));
}

#[test]
fn repeated_probes_on_one_machine_are_stable() {
    // Each probe flushes, so state from a previous probe must not leak.
    let mut m = fast(MachineSpec::t3e());
    let first = m.probe(&req(LocalLoad, 4 << 20, 5)).unwrap().cycles;
    let _ = m.probe(&req(RemoteDeposit, 4 << 20, 16));
    let second = m.probe(&req(LocalLoad, 4 << 20, 5)).unwrap().cycles;
    assert_eq!(first, second);
}

#[test]
fn surfaces_are_deterministic() {
    let grid = Grid {
        strides: vec![1, 8],
        working_sets: vec![64 << 10, 4 << 20],
    };
    let mut a = fast(MachineSpec::t3d());
    let mut b = fast(MachineSpec::t3d());
    assert_eq!(
        sweep_surface(&mut a, SweepOp::LocalLoad, &grid),
        sweep_surface(&mut b, SweepOp::LocalLoad, &grid)
    );
}

#[test]
fn cost_models_are_deterministic() {
    let mut a = fast(MachineSpec::t3e());
    let mut b = fast(MachineSpec::t3e());
    let ma = CostModel::characterize(&mut a, &[1, 16], 32 << 20);
    let mb = CostModel::characterize(&mut b, &[1, 16], 32 << 20);
    assert_eq!(ma, mb);
}

#[test]
fn fft_benchmark_is_deterministic() {
    let a = run_benchmark(MachineId::CrayT3d, 64, 4);
    let b = run_benchmark(MachineId::CrayT3d, 64, 4);
    assert_eq!(a, b);
}

#[test]
fn parallel_sweeps_match_sequential_ones_bit_for_bit() {
    use gasnub::core::sweep_surface_par;
    let grid = Grid {
        strides: vec![1, 8],
        working_sets: vec![64 << 10, 4 << 20],
    };
    let mut m = fast(MachineSpec::t3d());
    let sequential = sweep_surface(&mut m, SweepOp::LocalLoad, &grid).unwrap();
    let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
    let parallel = sweep_surface_par(&spec, SweepOp::LocalLoad, &grid, 4)
        .unwrap()
        .unwrap();
    assert_eq!(parallel, sequential);
}

/// The acceptance bar for parallel execution: a `--threads 4` sweep leaves
/// a checkpoint file *and* a `--counters` report byte-identical to a
/// `--threads 1` sweep of the same grid, for every reference machine.
#[test]
fn parallel_cli_sweeps_write_byte_identical_checkpoints() {
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("gasnub-det-par-{}-{tag}.json", std::process::id()))
    };
    for (machine, op) in [("dec8400", "pull"), ("t3d", "deposit"), ("t3e", "fetch")] {
        let seq_ckpt = scratch(&format!("{machine}-seq"));
        let par_ckpt = scratch(&format!("{machine}-par"));
        let seq_counters = scratch(&format!("{machine}-seq-counters"));
        let par_counters = scratch(&format!("{machine}-par-counters"));
        let mut outputs = Vec::new();
        for (ckpt, counters, threads) in [
            (&seq_ckpt, &seq_counters, "1"),
            (&par_ckpt, &par_counters, "4"),
        ] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
                .args([
                    "sweep",
                    machine,
                    op,
                    "--checkpoint",
                    ckpt.to_str().unwrap(),
                    "--threads",
                    threads,
                    "--counters",
                    counters.to_str().unwrap(),
                ])
                .output()
                .expect("the gasnub binary must spawn");
            assert_eq!(
                out.status.code(),
                Some(0),
                "{machine} {op} --threads {threads}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            // Everything before the cell-accounting line is the rendered
            // surface (the tail names the per-run checkpoint path).
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            outputs.push(
                text.split("\ncells:")
                    .next()
                    .unwrap_or_default()
                    .to_string(),
            );
        }
        assert_eq!(
            outputs[0], outputs[1],
            "{machine} {op}: parallel run must render the same surface"
        );
        let seq = std::fs::read(&seq_ckpt).unwrap();
        let par = std::fs::read(&par_ckpt).unwrap();
        assert_eq!(
            seq, par,
            "{machine} {op}: checkpoints must be byte-identical"
        );
        let seq = std::fs::read(&seq_counters).unwrap();
        let par = std::fs::read(&par_counters).unwrap();
        assert_eq!(
            seq, par,
            "{machine} {op}: counter reports must be byte-identical"
        );
        for f in [&seq_ckpt, &par_ckpt, &seq_counters, &par_counters] {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// The warm path's acceptance bar: a default (warm) sweep — memoized
/// probes, fast-forwarded priming, run-granular scheduling, batched fsync —
/// leaves a checkpoint byte-identical to a `--cold` sweep (no memo,
/// literal priming, fsync per cell) at every thread count, for every
/// reference machine, and so does a `--tier auto` sweep: `--cold` never
/// changes which tier answers a cell. The `--counters` reports of the cold
/// and the one-thread warm sweep are byte-identical too: a fast-forwarded
/// prime leaves every mechanism counter of the measured pass as a literal
/// one does. The warm path is an optimization, never a different answer.
#[test]
fn warm_sweeps_write_byte_identical_checkpoints_to_cold_sweeps() {
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("gasnub-det-warm-{}-{tag}.json", std::process::id()))
    };
    let sweep = |machine: &str, ckpt: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "sweep",
            machine,
            "load",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
            .args(&args)
            .output()
            .expect("the gasnub binary must spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{machine} {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    for machine in ["dec8400", "t3d", "t3e"] {
        let cold_ckpt = scratch(&format!("{machine}-cold"));
        let cold_counters = scratch(&format!("{machine}-cold-counters"));
        sweep(
            machine,
            &cold_ckpt,
            &[
                "--cold",
                "--fsync-every",
                "1",
                "--threads",
                "1",
                "--counters",
                cold_counters.to_str().unwrap(),
            ],
        );
        let cold = std::fs::read(&cold_ckpt).unwrap();
        let warm_counters = scratch(&format!("{machine}-warm-counters"));
        for threads in ["1", "2", "4"] {
            let warm_ckpt = scratch(&format!("{machine}-warm-{threads}"));
            let mut extra = vec!["--threads", threads];
            if threads == "1" {
                extra.extend(["--counters", warm_counters.to_str().unwrap()]);
            }
            sweep(machine, &warm_ckpt, &extra);
            let warm = std::fs::read(&warm_ckpt).unwrap();
            assert_eq!(
                cold, warm,
                "{machine} --threads {threads}: warm checkpoint must match --cold"
            );
            let _ = std::fs::remove_file(&warm_ckpt);
        }
        assert_eq!(
            std::fs::read(&cold_counters).unwrap(),
            std::fs::read(&warm_counters).unwrap(),
            "{machine}: warm counter report must match --cold"
        );
        for f in [&cold_ckpt, &cold_counters, &warm_counters] {
            let _ = std::fs::remove_file(f);
        }
        let auto = |tag: &str, extra: &[&str]| {
            let ckpt = scratch(&format!("{machine}-auto-{tag}"));
            sweep(machine, &ckpt, &[&["--tier", "auto"], extra].concat());
            let bytes = std::fs::read(&ckpt).unwrap();
            let _ = std::fs::remove_file(&ckpt);
            bytes
        };
        assert_eq!(
            auto("cold", &["--cold"]),
            auto("warm", &[]),
            "{machine} --tier auto: warm checkpoint must match --cold"
        );
    }
}

/// Counter collection gathers cells in grid order whatever the worker
/// count, so the library-level report is identical too (the CLI test above
/// pins the rendered bytes; this pins the structured value).
#[test]
fn counter_reports_are_thread_count_invariant() {
    use gasnub::core::counters::collect_counters;
    use gasnub::core::SweepOp;
    use gasnub::machines::MachineSpec;
    let grid = Grid {
        strides: vec![1, 8],
        working_sets: vec![64 << 10, 4 << 20],
    };
    let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
    let sequential = collect_counters(&spec, SweepOp::RemoteDeposit, &grid, 1)
        .unwrap()
        .unwrap();
    let parallel = collect_counters(&spec, SweepOp::RemoteDeposit, &grid, 4)
        .unwrap()
        .unwrap();
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.render_json(), parallel.render_json());
}

//! Regenerates `EXPERIMENTS.md`: paper-vs-measured for every calibration
//! point and every figure-level claim.
//!
//! ```text
//! cargo run --release -p gasnub-bench --bin experiments > EXPERIMENTS.md
//! ```

use gasnub_analytic::TieredSpec;
use gasnub_core::counters::collect_counters;
use gasnub_core::{auto_threads, sweep_surface_par, Grid, SweepOp};
use gasnub_fft::run_benchmark;
use gasnub_machines::calibration::run_calibration;
use gasnub_machines::ProbeOp::{LocalLoad, RemoteFetch};
use gasnub_machines::{
    FaultPlan, Machine, MachineId, MachineSpec, MeasureLimits, ProbePath, ProbeRequest, ProbeTier,
    RunContext, SpawnEngine,
};

fn human_ws(ws: u64) -> String {
    if ws >= 1 << 20 {
        format!("{}M", ws >> 20)
    } else {
        format!("{}K", ws >> 10)
    }
}

fn main() {
    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!(
        "Regenerate with `cargo run --release -p gasnub-bench --bin experiments > EXPERIMENTS.md`."
    );
    println!("All values are MB/s unless noted. \"Paper\" quotes the HPCA-3 text; tolerances");
    println!("are the calibration table's accepted relative deviation (loose where the paper");
    println!("itself is approximate). Shape claims (orderings, crossovers, who-wins) are");
    println!("asserted by the test suite; this file records the magnitudes.");
    println!();

    // ---------------------------------------------------------------- 1
    println!("## 1. Calibration table (prose-quoted bandwidths, figs 1-14)");
    println!();
    println!("| id | paper | measured | Δ | tol | source |");
    println!("|---|---:|---:|---:|---:|---|");
    let limits = MeasureLimits {
        max_measure_words: 32 * 1024,
        max_prime_words: 2 * 1024 * 1024,
    };
    for id in [MachineId::Dec8400, MachineId::CrayT3d, MachineId::CrayT3e] {
        let spec = MachineSpec::for_id(id).with_limits(limits);
        let mut machine = spec.build().expect("paper machines build");
        for (point, measured) in run_calibration(&mut machine) {
            let delta = (measured - point.paper_mb_s) / point.paper_mb_s * 100.0;
            let ok = if point.accepts(measured) { "" } else { " ⚠" };
            println!(
                "| {} | {:.0} | {:.1}{} | {:+.0}% | ±{:.0}% | {} |",
                point.id,
                point.paper_mb_s,
                measured,
                ok,
                delta,
                point.tolerance * 100.0,
                point.source.replace('|', "/")
            );
        }
    }
    println!();
    println!("Rows marked ⚠ (if any) exceed tolerance; the CI test `calibration` fails in");
    println!("that case, so a clean build implies none.");
    println!();

    // ---------------------------------------------------------------- 2
    println!("## 2. 2D-FFT application kernel (figs 15-17, 4 PEs)");
    println!();
    println!("Paper values at 256x256: T3D 133, DEC 8400 ~220, T3E ~330 MFlop/s total.");
    println!();
    println!("| n | T3D total | 8400 total | T3E total | T3D comp | 8400 comp | T3E comp | T3D comm | 8400 comm | T3E comm |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for n in [32usize, 64, 128, 256, 512, 1024] {
        let t3d = run_benchmark(MachineId::CrayT3d, n, 4);
        let dec = run_benchmark(MachineId::Dec8400, n, 4);
        let t3e = run_benchmark(MachineId::CrayT3e, n, 4);
        println!(
            "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} |",
            n,
            t3d.total_mflops,
            dec.total_mflops,
            t3e.total_mflops,
            t3d.compute_mflops_total,
            dec.compute_mflops_total,
            t3e.compute_mflops_total,
            t3d.comm_mb_s_total,
            dec.comm_mb_s_total,
            t3e.comm_mb_s_total
        );
    }
    println!();
    println!("(totals/comp in MFlop/s across 4 PEs; comm in MB/s across 4 PEs)");
    println!();
    println!("Shape checks (asserted in `tests/headline_findings.rs`):");
    println!();
    println!("* fig 15: T3E > 8400 > T3D at every size; the 8400's overall lead over the");
    println!("  T3D stays well below its >2x compute lead (paper: 1.65x vs 2.5x).");
    println!("* fig 16: 8400 compute ≈ flat with n (L2/L3 hold the rows); T3D falls off at");
    println!("  n=1024 (8 KB L1); T3E highest.");
    println!(
        "* fig 17: 8400 ≈ T3D (\"approximately the same performance level\"), T3E well above."
    );
    println!();

    // ---------------------------------------------------------------- 3
    println!("## 3. §8 scalability projection");
    println!();
    let p512 = gasnub_fft::scalability::project(MachineId::CrayT3d, 2048, 512);
    let p512e = gasnub_fft::scalability::project(MachineId::CrayT3e, 2048, 512);
    let eff = gasnub_fft::scalability::efficiency(MachineId::CrayT3d, 2048, 16, 512);
    println!("| quantity | paper | measured |");
    println!("|---|---:|---:|");
    println!(
        "| T3D 512-PE aggregate (GFlop/s) | 8.75 | {:.1} |",
        p512.gflops_total
    );
    println!(
        "| T3D per-PE at 512 (MFlop/s) | ~20 | {:.1} |",
        p512.mflops_per_pe
    );
    println!(
        "| T3D efficiency 16→512 PEs | \"almost linear\" | {:.0}% |",
        eff * 100.0
    );
    println!(
        "| T3E 512-PE projection (GFlop/s) | ~20 | {:.1} |",
        p512e.gflops_total
    );
    println!();

    // ---------------------------------------------------------------- 4
    println!("## 4. Fault experiments (beyond the paper)");
    println!();
    println!("The paper measures healthy machines; `gasnub-faults` asks how the same");
    println!("characterization shifts when the machine degrades. A `FaultPlan(seed,");
    println!("severity)` deterministically fails/slows torus channels (traffic detours");
    println!("around dead links and is charged the detour hops plus the bottleneck");
    println!("capacity of the surviving path), makes the network interface lossy (retry");
    println!("with exponential backoff), and adds bus-arbitration jitter on the 8400.");
    println!("Same seed, same numbers — the table below is reproducible byte for byte,");
    println!("and `cargo run -p gasnub -- faults <machine>` prints the live version.");
    println!();
    println!("Remote bandwidth at 4 MB working set, plan seed=7 severity=0.5:");
    println!();
    println!("| machine | op | stride | healthy | degraded | ratio |");
    println!("|---|---|---:|---:|---:|---:|");
    let plan = FaultPlan::new(7, 0.5).expect("severity 0.5 is in range");
    let fault_limits = MeasureLimits {
        max_measure_words: 8 * 1024,
        max_prime_words: 64 * 1024,
    };
    let pairs = [
        MachineSpec::t3d(),
        MachineSpec::t3e(),
        MachineSpec::dec8400(),
    ]
    .map(|spec| {
        let spec = spec.with_limits(fault_limits);
        let degraded = spec.clone().with_faults(&plan).expect("plan applies");
        (
            spec.build().expect("builds"),
            degraded.build().expect("builds"),
        )
    });
    for (mut healthy, mut degraded) in pairs {
        for op in [
            SweepOp::RemoteLoad,
            SweepOp::RemoteFetch,
            SweepOp::RemoteDeposit,
        ] {
            for stride in [1u64, 8] {
                let ws = 4 * 1024 * 1024;
                let (Some(h), Some(d)) = (
                    op.measure(&mut healthy, ws, stride),
                    op.measure(&mut degraded, ws, stride),
                ) else {
                    continue;
                };
                println!(
                    "| {} | {} | {stride} | {h:.1} | {d:.1} | {:.2} |",
                    healthy.name(),
                    op.label(),
                    if h > 0.0 { d / h } else { 0.0 }
                );
            }
        }
    }
    println!();
    println!("Shape checks (asserted in `crates/machines/tests/faults.rs` and");
    println!("`crates/interconnect/tests/fault_routing.rs`): severity 0 is a no-op,");
    println!("degraded machines are never faster, harsher plans hurt more on average,");
    println!("fault-avoiding routes are loop-free/live/complete, and the whole pipeline");
    println!("is bit-reproducible. The `sweep` subcommand re-runs any surface under a");
    println!("plan with JSON checkpointing: interrupt it (`--max-cells`,");
    println!("`--budget-secs`, or a crash) and the re-run resumes to a bit-identical");
    println!("surface; per-cell panics are recorded as failed cells, never retried.");
    println!();

    // ---------------------------------------------------------------- 5
    println!("## 5. Parallel sweep execution (beyond the paper)");
    println!();
    println!("The machine layer separates an immutable `MachineSpec` from the mutable");
    println!("`TransferEngine` it builds, so a sweep can group same-stride cells into");
    println!("runs, walk each run on one warm engine, and schedule whole runs on a");
    println!("work-stealing pool (DESIGN \u{a7}5e). Because each probe flushes first and");
    println!("every stochastic draw is keyed by (operation, attempt), a flushed engine");
    println!("is indistinguishable from a fresh one — the parallel surface and its");
    println!("checkpoint are bit-identical to a sequential run's for any thread count");
    println!("(asserted in `tests/determinism.rs`).");
    println!();
    let workers = auto_threads();
    let grid = Grid::paper_remote();
    println!(
        "T3D deposit over the paper remote grid ({} cells), fast limits, this host",
        grid.cells()
    );
    println!(
        "({workers} hardware thread{}):",
        if workers == 1 { "" } else { "s" }
    );
    println!();
    println!("| threads | wall time (s) | speedup | surfaces |");
    println!("|---:|---:|---:|---|");
    let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
    let time_sweep = |threads: usize| {
        // Both timings are warm-first passes: each runs in a fresh context
        // (an empty memo), so the second run re-simulates instead of
        // replaying the first (steady-state memo throughput is BENCH_9's
        // column, not this one).
        let spec = spec.clone().with_context(RunContext::fresh());
        let start = std::time::Instant::now();
        let surface = sweep_surface_par(&spec, SweepOp::RemoteDeposit, &grid, threads)
            .expect("spec builds")
            .expect("deposit supported");
        (start.elapsed(), surface)
    };
    let (seq, sequential) = time_sweep(1);
    let (par, parallel) = time_sweep(workers);
    let identical = if parallel == sequential {
        "bit-identical"
    } else {
        "DIFFER ⚠"
    };
    println!("| 1 | {:.2} | 1.00x | reference |", seq.as_secs_f64());
    println!(
        "| {workers} | {:.2} | {:.2}x | {identical} |",
        par.as_secs_f64(),
        seq.as_secs_f64() / par.as_secs_f64()
    );
    println!();
    println!("Wall times vary with the host; the identity column does not. The speedup");
    println!("scales with available cores (a single-core host reports ~1.00x by");
    println!("construction — the pool degenerates to the sequential loop). Reproduce");
    println!("with `gasnub sweep t3d deposit --checkpoint x.json --threads 0`.");
    println!();

    // ---------------------------------------------------------------- 6
    println!("## 6. Counter-annotated figures (beyond the paper)");
    println!();
    println!("The paper infers mechanisms from bandwidth shapes; the observability layer");
    println!("(`gasnub-trace` + `core::counters`) measures them directly. Each probe can");
    println!("harvest the component counters behind its number — cache misses per level,");
    println!("bus transactions, MESI transitions, NI packets and fetched words — and the");
    println!("`trace` / `sweep --counters` commands export them per grid cell. Two");
    println!("examples (fast limits; regenerate live with");
    println!("`gasnub sweep dec8400 pull --checkpoint x.json --counters-csv -`):");
    println!();
    println!("Fig 2's coherent-pull collapse on the 8400, explained: every pulled 64-byte");
    println!("line is a bus transaction, and the supplier shifts from the producer's cache");
    println!("(cache-to-cache, with M→S downgrades) to home memory as the set outgrows it.");
    println!();
    println!("| ws | stride | MB/s | bus txns | lines | cache supplies | home supplies | M→S |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
    let annotate_grid = Grid {
        strides: vec![1, 16],
        working_sets: vec![32 << 10, 4 << 20],
    };
    let dec_spec = MachineSpec::dec8400().with_limits(fault_limits);
    let report = collect_counters(&dec_spec, SweepOp::RemoteLoad, &annotate_grid, 1)
        .expect("spec builds")
        .expect("the 8400 pulls");
    for cell in &report.cells {
        let c = &cell.counters;
        println!(
            "| {} | {} | {:.1} | {} | {} | {} | {} | {} |",
            human_ws(cell.ws_bytes),
            cell.stride,
            cell.mb_s(),
            c.get("bus_transactions"),
            c.get("payload_bytes") / 64,
            c.get("smp_cache_supplies"),
            c.get("smp_home_supplies"),
            c.get("mesi_m_to_s"),
        );
    }
    println!();
    println!("Finding 3's fetch/deposit asymmetry on the T3D, explained: a fetch pulls");
    println!("every 64-bit word through the NI's fetch circuitry individually, while a");
    println!("contiguous deposit coalesces words into fewer, larger packets.");
    println!();
    println!("| op | stride | MB/s | NI fetched words | NI packets | words moved |");
    println!("|---|---:|---:|---:|---:|---:|");
    let t3d_spec = MachineSpec::t3d().with_limits(fault_limits);
    let t3d_grid = Grid {
        strides: vec![1, 16],
        working_sets: vec![4 << 20],
    };
    for op in [SweepOp::RemoteFetch, SweepOp::RemoteDeposit] {
        let report = collect_counters(&t3d_spec, op, &t3d_grid, 1)
            .expect("spec builds")
            .expect("the T3D runs both remote styles");
        for cell in &report.cells {
            let c = &cell.counters;
            println!(
                "| {} | {} | {:.1} | {} | {} | {} |",
                op.label(),
                cell.stride,
                cell.mb_s(),
                c.get("ni_fetched_words"),
                c.get("ni_packets"),
                c.get("payload_bytes") / 8,
            );
        }
    }
    println!();
    println!("The golden-trace suite (`tests/golden_traces.rs`) pins these counters");
    println!("byte-for-byte on a reference grid for all three machines, so any model");
    println!("change shows up as a named-counter diff rather than a shifted bandwidth.");
    println!();

    // ---------------------------------------------------------------- 7
    println!("## 7. Modern machines (beyond the paper)");
    println!();
    println!("The machine zoo (`machines/zoo/`) extends the characterization to two");
    println!("modern designs described purely as spec files — no Rust changed to add");
    println!("either. Both reuse the paper-era model families: the NUMA node is a");
    println!("\"torus\" machine whose remote socket is one hop over the processor");
    println!("interconnect, and the many-core SMP is an \"smp\" machine with a wider,");
    println!("faster snooping bus.");
    println!();
    println!("`cargo run --release --example zoo_probe` (32 MB working set, past every");
    println!("cache in the zoo; contiguous and stride-8 word loads):");
    println!();
    println!("| machine | local MB/s | remote MB/s | ratio | local s=8 | remote s=8 |");
    println!("|---|---:|---:|---:|---:|---:|");
    let zoo_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/zoo");
    let mut numa_ratio = None;
    for name in ["dec8400", "t3d", "t3e", "custom", "numa2s", "smp16"] {
        let text =
            std::fs::read_to_string(format!("{zoo_dir}/{name}.toml")).expect("zoo spec readable");
        let spec = MachineSpec::from_spec_str(&text).expect("zoo spec parses");
        let mut m = spec
            .with_limits(MeasureLimits::new())
            .build()
            .expect("zoo spec builds");
        let ws = 32 << 20;
        let mut probe = |op, stride| m.probe(&ProbeRequest::new(op, ws, stride));
        let local = probe(LocalLoad, 1).expect("local loads always run").mb_s;
        let local8 = probe(LocalLoad, 8).expect("local loads always run").mb_s;
        match (probe(RemoteFetch, 1), probe(RemoteFetch, 8)) {
            (Some(remote), Some(remote8)) => {
                if name == "numa2s" {
                    numa_ratio = Some(local / remote.mb_s);
                }
                println!(
                    "| {name} | {local:.0} | {:.0} | {:.2}x | {local8:.0} | {:.0} |",
                    remote.mb_s,
                    local / remote.mb_s,
                    remote8.mb_s
                );
            }
            _ => println!("| {name} | {local:.0} | - | - | {local8:.0} | - |"),
        }
    }
    println!();
    let ratio = numa_ratio.expect("numa2s has a remote path");
    println!("**numa2s** (two-socket NUMA node, circa-2011 Nehalem/Westmere class) is");
    println!("calibrated against the STREAM characterization in Bergstrom, *\"Measuring");
    println!("NUMA effects with the STREAM benchmark\"* (arXiv:1103.3225): one global");
    println!("address space, but a thread reads the other socket's memory at a modest");
    println!("fraction of its local bandwidth. The measured remote/local fraction of");
    println!(
        "{:.2} (ratio {ratio:.2}x) sits inside Bergstrom's reported 0.4–0.8 band, and",
        1.0 / ratio
    );
    println!("`tests/zoo.rs` asserts the ratio stays in [1.3, 2.5]. Two paper echoes");
    println!("reproduce on 2011-era parameters:");
    println!();
    println!("* *Non-uniform bandwidth under a uniform address space* — the paper's");
    println!("  thesis — survives three decades: the gap shrank from the T3D's ~6x to");
    println!("  {ratio:.2}x, but it did not close.");
    println!("* *Strided remote beats strided local* (the paper's T3D finding 3");
    println!("  inversion): at stride 8 the remote fetch path outruns the local");
    println!("  hierarchy, because word-granular fetches through the deep request");
    println!("  window skip the local line-fill penalty.");
    println!();
    println!("**smp16** (many-core single-board SMP in the spirit of the SPARC T3-4's");
    println!("throughput cores) stresses the 8400's model family at 4x the node count:");
    println!("sixteen in-order cores on one snooping bus. The bus stays far closer to");
    println!("uniform than any distributed machine in the zoo — which is exactly why");
    println!("the paper filed bus-based SMPs under \"global address space\" rather than");
    println!("\"message passing\".");
    println!();

    // ---------------------------------------------------------------- 8
    println!("## 8. Warm-path sweep throughput (BENCH_9, beyond the paper)");
    println!();
    println!("The warm execution path (DESIGN \u{a7}5e) \u{2014} run-granular scheduling with");
    println!("engine reuse, a probe memo, and batched checkpoint fsyncs \u{2014} against");
    println!("the `--cold` path on the reference `Grid::quick` (25 cells, fast limits),");
    println!("one thread, this host. `--cold` keeps the scheduler and engine reuse but");
    println!("runs in a cold run context: no memo and literal priming, so every");
    println!("cell simulates. Cells/sec, best-of-N, from `BENCH_9.json`");
    println!("(regenerate with `perf_baseline BENCH_9.json`):");
    println!();
    println!("| machine | cold | warm, first pass | warm, memoized | first-pass speedup | memoized speedup |");
    println!("|---|---:|---:|---:|---:|---:|");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    let bench = std::fs::read_to_string(bench_path)
        .ok()
        .and_then(|t| gasnub_core::json::Json::parse(&t).ok())
        .expect("committed BENCH_9.json parses");
    // One machine's BENCH_9 column, as committed (rate strings verbatim).
    let column = |name: &str, key: &str| -> String {
        let value = bench
            .get("machines")
            .and_then(|m| m.get(name)?.get(key))
            .expect("BENCH_9 column present");
        value
            .as_str()
            .map_or_else(|| value.render(), str::to_string)
    };
    for name in ["dec8400", "t3d", "t3e"] {
        let col = |key: &str| column(name, key);
        println!(
            "| {name} | {} | {} | {} | {}x | {}x |",
            col("cold_cells_per_sec_1t"),
            col("warm_first_cells_per_sec_1t"),
            col("warm_memo_cells_per_sec_1t"),
            col("warm_first_speedup_vs_cold"),
            col("warm_memo_speedup_vs_cold"),
        );
    }
    println!();
    println!("Three honest columns, because they answer different questions. *Cold* is");
    println!("the reproducibility anchor \u{2014} what a from-scratch survey costs. *Warm");
    println!("first pass* is the first sweep of a new spec in a process: every cell");
    println!("still simulates, and the gain over *cold* is the warm priming path");
    println!("(both walk each stride run on one engine).");
    println!("*Warm memoized* is every later pass \u{2014} `faults` and `trace` sessions");
    println!("revisiting grid cells, repeated sweeps in one process \u{2014} where probes");
    println!("are table lookups and throughput is bounded by checkpoint writes, not");
    println!("simulation. Versus the BENCH_7 baseline (per-cell fsync, cold-only");
    println!("engine-per-cell loop: 16.8 / 25.7 / 27.7 cells/s on this host class),");
    println!("even the first-pass column clears 4-7x and the steady state clears two");
    println!("orders of magnitude.");
    println!();
    println!("Identity is asserted, not assumed: warm checkpoints are byte-identical");
    println!("to `--cold` checkpoints at `--threads {{1,2,4}}` and at `--tier auto` on");
    println!("the paper machines (`tests/determinism.rs`), and a recorder bypasses the");
    println!("memo, costing ~3% per probe (the `trace_overhead_pct` column, measured");
    println!("paired at probe level) for a genuine re-simulation. The CI `perf-smoke`");
    println!("job re-measures the warm columns and fails on a >20% drop below the");
    println!("committed baseline; a failing check is re-measured up to twice so only a");
    println!(
        "drop that survives every attempt \u{2014} a real regression, not host noise \u{2014}"
    );
    println!("fails the job.");
    println!();

    // ---------------------------------------------------------------- 9
    println!("## 9. Analytic fast path: agreement and tiering (beyond the paper)");
    println!();
    println!("The ECM-style analytic backend (DESIGN \u{a7}5f) predicts a cell's bandwidth");
    println!("from spec-derived plateau anchors instead of simulating it \u{2014} but only");
    println!("where the model has demonstrated a flat plateau within half the");
    println!("machine's calibration tolerance. Cross-validation on the full reference");
    println!("grid (`Grid::quick`, 25 cells \u{d7} 7 ops) of **every** zoo machine, `--tier");
    println!("auto` against pure simulation (`tests/analytic.rs`; the CI");
    println!("`analytic-agreement` job uploads the residual surface as an artifact):");
    println!();
    println!("| machine | tolerance | analytic cells | max residual | mean residual |");
    println!("|---|---:|---:|---:|---:|");
    let zoo_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/zoo");
    for name in ["dec8400", "t3d", "t3e", "custom", "numa2s", "smp16"] {
        let text =
            std::fs::read_to_string(format!("{zoo_dir}/{name}.toml")).expect("zoo spec readable");
        let spec = MachineSpec::from_spec_str(&text)
            .expect("zoo spec parses")
            .with_limits(MeasureLimits::fast());
        let tolerance = spec.calibration_tolerance().unwrap_or(0.15);
        let (count, max_err, sum_err) = analytic_residuals(&spec);
        println!(
            "| {name} | {:.0}% | {count} | {max_err:.2}% | {:.2}% |",
            tolerance * 100.0,
            sum_err / count.max(1) as f64,
        );
    }
    println!();
    println!("Every analytic-path cell agrees with full simulation well inside the");
    println!("machine's tolerance; every simulated-path cell is bit-identical by");
    println!("construction (the auto tier *is* the simulator there).");
    println!();
    println!("**The tiering decision boundary** is the interesting part. Cells whose");
    println!("working set sits inside a cache regime's window \u{2014} `[4\u{b7}cap_below,");
    println!("cap/2]`, or past `4\u{b7}cap_top` for memory \u{2014} ride the plateau the paper's");
    println!("figures show between the bandwidth cliffs, and the nearest anchor");
    println!("answers them. Cells in the *transition zones* (the cliffs themselves:");
    println!("working sets near a capacity boundary, where bandwidth is a mix of two");
    println!("regimes) are exactly where a plateau model must not speak \u{2014} they stay");
    println!("simulated. The dec8400's three-level hierarchy leaves the widest");
    println!("transition zones, the flat T3D trusts its entire grid minus unsupported");
    println!("rungs, and the modern `numa2s`/`smp16` specs sit in between. Fault");
    println!("plans and recorders force simulation categorically. `--cold` does not:");
    println!("it changes how the simulator runs (no memo, literal priming), not");
    println!("which tier answers a cell, so `--cold --tier auto` writes the same bytes.");
    println!();
    println!("The payoff (`BENCH_9.json`, probe-level on trusted cells, one thread):");
    for name in ["dec8400", "t3d", "t3e"] {
        let col = |key: &str| column(name, key);
        println!(
            "{name} answers {} trusted cells at {} cells/s \u{2014} {}x the memoized",
            col("analytic_trusted_cells"),
            col("analytic_cells_per_sec_1t"),
            col("analytic_speedup_vs_memo"),
        );
        println!("steady state's {};", col("warm_memo_cells_per_sec_1t"),);
    }
    println!("two orders of magnitude past the 100x target, because a trusted cell is");
    println!("one hash lookup and a nearest-anchor comparison instead of a simulated");
    println!("measurement pass.");
    println!();

    // ---------------------------------------------------------------- 10
    println!("## 10. Characterization as a service (BENCH_10, beyond the paper)");
    println!();
    println!("`gasnub serve` exposes the sweep machinery as a JSON-over-HTTP service");
    println!("(DESIGN \u{a7}5g): surfaces are cached by `(machine, spec hash, op, grid,");
    println!("fault plan, tier)`, identical concurrent requests coalesce onto one");
    println!("computation, and response bodies are the durable checkpoint payload");
    println!("verbatim \u{2014} byte-identical to offline `gasnub sweep` checkpoints");
    println!("(`tests/serve.rs`, `tests/serve_restart.rs`, and the serving-determinism");
    println!("property in `tests/proptests.rs`).");
    println!();
    let serve_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    let serve_bench = std::fs::read_to_string(serve_path)
        .ok()
        .and_then(|t| gasnub_core::json::Json::parse(&t).ok())
        .expect("committed BENCH_10.json parses");
    let serve = |key: &str| {
        let section = serve_bench.get("serve");
        section
            .and_then(|s| s.get(key))
            .expect("BENCH_10 serve field present")
    };
    let count = |key: &str| -> u64 { serve(key).render().parse().expect("BENCH_10 count") };
    println!("`BENCH_10.json` (from `cargo run --release -p gasnub-bench --bin");
    println!(
        "serve_load`) records the server under a seeded mixed hit/miss load \u{2014} {}",
        count("clients")
    );
    let [probes, shared, unique] = gasnub_bench::SERVE_MIX_TENTHS;
    println!(
        "client threads \u{d7} {} requests: ~{}% repeated probes (warm memo hits),",
        count("requests") / count("clients"),
        probes * 10
    );
    println!(
        "~{}% shared-grid sweeps (cache hits/coalesces), ~{}% unique-grid sweeps",
        shared * 10,
        unique * 10
    );
    println!("(guaranteed fresh computations):");
    println!();
    println!("| metric | value |");
    println!("|---|---:|");
    println!(
        "| throughput | {} req/s |",
        serve("throughput_req_per_sec")
            .as_str()
            .expect("BENCH_10 throughput")
    );
    println!(
        "| latency p50 / p95 / p99 | {} \u{b5}s / {} \u{b5}s / {} \u{b5}s |",
        count("p50_micros"),
        count("p95_micros"),
        count("p99_micros")
    );
    println!(
        "| sweeps: computed / reused | {} / {} |",
        count("sweeps_computed"),
        count("sweeps_reused")
    );
    println!("| probe memo hits | {} |", count("memo_hits"));
    println!();
    println!("The tail percentiles are the honest price of a miss: a p99 request is");
    println!("one that drew a unique grid and paid for a real multi-cell sweep, while");
    println!("the p50 request rides the memo or the payload cache. The serving layer");
    println!("deliberately counts at the request boundary (atomics) instead of");
    println!("installing recorders on the engines \u{2014} recorders disable the probe memo,");
    println!("so an observed server would serve every probe cold.");
    println!();

    // ---------------------------------------------------------------- 11
    println!("## 11. Known deviations");
    println!();
    println!("* The DEC 8400 contiguous local copy measures ~76 MB/s against the paper's");
    println!("  ~57 MB/s (tolerance ±35%): the model under-charges the write-back traffic");
    println!("  of the destination stream relative to the real machine.");
    println!("* The T3D contiguous-load/strided-store copy lands at ~52 MB/s against the");
    println!("  quoted \"up to 70 MByte/s\" (tolerance ±30%): the shared-DRAM-pipe model");
    println!("  charges the read stream slightly more interference than the hardware did.");
    println!("* The T3E streams-off ablation lands near ~150-200 MB/s against the");
    println!("  footnote's ~120 MB/s test vehicle — the footnote machine likely also");
    println!("  lacked other tuning; the >2x effect of the stream buffers reproduces.");
    println!("* Fig 1's L1/L2 ridge fall-off at very large strides is a micro-benchmark");
    println!("  measurement artifact the paper itself attributes to loop overhead (\"the");
    println!("  diagram rather reflects what is achievable by a compiler\"); the simulator");
    println!("  reports the hardware-achievable plateau instead.");
}

/// Analytic-vs-simulated residuals over the reference grid: (analytic
/// cell count, max residual %, summed residual %) \u{2014} the same sweep the
/// agreement suite asserts on, reported here as magnitudes.
fn analytic_residuals(spec: &MachineSpec) -> (usize, f64, f64) {
    let tiered = TieredSpec::new(spec.clone(), ProbeTier::Auto)
        .expect("zoo machines always carry an analytic model");
    let mut auto = tiered.spawn_engine().expect("zoo machines always build");
    let mut sim = spec.spawn_engine().expect("zoo machines always build");
    let grid = Grid::quick();
    let (mut count, mut max_err, mut sum_err) = (0usize, 0.0f64, 0.0f64);
    for op in SweepOp::all() {
        for &ws in &grid.working_sets {
            for &stride in &grid.strides {
                let req = op.request(ws, stride);
                let a = auto.probe(&req);
                if auto.last_path() != ProbePath::Analytic {
                    continue;
                }
                let (Some(a), Some(s)) = (a, sim.probe(&req)) else {
                    continue;
                };
                let err = if s.mb_s > 0.0 {
                    (a.mb_s - s.mb_s).abs() / s.mb_s * 100.0
                } else {
                    0.0
                };
                count += 1;
                max_err = max_err.max(err);
                sum_err += err;
            }
        }
    }
    (count, max_err, sum_err)
}

//! The traced run: the benchmark's own timers around calls into each
//! layer's public functions, plus one recorder-on pass that harvests the
//! mechanism counters. Recorders bypass the probe memo, so that pass always
//! re-simulates; none of these numbers feeds an end-to-end metric.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use gasnub::analytic::{AnalyticModel, Prediction, TieredSpec};
use gasnub::core::storage::write_durable;
use gasnub::core::{Grid, ResilientSweep, SweepOp};
use gasnub::machines::{
    memo, Machine, MachineRegistry, MachineSpec, ProbePath, ProbeTier, RingRecorder, SpawnEngine,
};
use gasnub::memsim::trace::StridedPass;
use gasnub::memsim::MemoryEngine;

use crate::mix::WARM;
use crate::offline::{checkpoint, fast_spec, probe};
use crate::out::{median, J};
use crate::reference;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Per-probe samples of a traced sweep pass.
#[derive(Default)]
struct Pass {
    local_sim_ms: Vec<f64>,
    remote_sim_ms: Vec<f64>,
    probe_s: f64,
    wall_s: f64,
    cells: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// Sweeps each surface as `gasnub sweep` does (same runner, title and
/// checkpoint), timing the probe closure. The memo is cleared per surface
/// when `fresh_process` is set, as one CLI process per surface would have.
fn traced_pass(
    registry: &MachineRegistry,
    surfaces: &[(&'static str, SweepOp, ProbeTier)],
    fresh_process: bool,
    checkpoint_path: &Path,
) -> Result<Pass, String> {
    let grid = Grid::quick();
    let mut pass = Pass::default();
    memo::clear();
    for &(machine, op, tier) in surfaces {
        if fresh_process {
            memo::clear();
        }
        let spec = fast_spec(registry, machine)?;
        let name = spec.spawn_engine().map_err(|e| e.to_string())?.name();
        let title = op.checkpoint_title(&name, false, tier);
        let _ = std::fs::remove_file(checkpoint_path);
        let runner = ResilientSweep::new(checkpoint_path).with_spec_hash(spec.spec_hash());
        let samples: Mutex<Vec<(f64, bool)>> = Mutex::new(Vec::new());
        let remote = op.probe_op().is_remote();
        let record = |t: Instant, simulated: bool| {
            let s = t.elapsed().as_secs_f64();
            samples.lock().expect("sample lock").push((s, simulated));
        };
        let (outcome, wall) = match tier {
            ProbeTier::Simulate => secs(|| {
                runner.run_parallel(&title, &grid, 1, &spec, |m, ws, stride| {
                    let t = Instant::now();
                    let v = op.measure(m, ws, stride);
                    record(t, true);
                    v
                })
            }),
            t => {
                let tiered = TieredSpec::new(spec.clone(), t).map_err(|e| e.to_string())?;
                secs(|| {
                    runner.run_parallel(&title, &grid, 1, &tiered, |m, ws, stride| {
                        let t = Instant::now();
                        let v = op.measure(m, ws, stride);
                        record(t, m.last_path() == ProbePath::Simulated);
                        v
                    })
                })
            }
        };
        let outcome = outcome.map_err(|e| format!("traced sweep {machine} {}: {e}", op.label()))?;
        if !outcome.is_complete() || !outcome.failed.is_empty() {
            return Err(format!(
                "traced sweep {machine} {} did not complete",
                op.label()
            ));
        }
        pass.wall_s += wall;
        pass.cells += grid.cells() as u64;
        for (s, simulated) in samples.into_inner().expect("sample lock") {
            pass.probe_s += s;
            if simulated {
                if remote {
                    pass.remote_sim_ms.push(s * 1e3);
                } else {
                    pass.local_sim_ms.push(s * 1e3);
                }
            }
        }
        if fresh_process {
            let (h, m) = memo::stats();
            pass.memo_hits += h;
            pass.memo_misses += m;
        }
    }
    if !fresh_process {
        (pass.memo_hits, pass.memo_misses) = memo::stats();
    }
    Ok(pass)
}

/// The workload's own pass: the surfaces it sweeps and at which tier.
fn workload_surfaces(workload: &str) -> (Vec<(&'static str, SweepOp, ProbeTier)>, bool) {
    let all = |tier| {
        reference::surfaces()
            .into_iter()
            .map(|(m, op)| (m, op, tier))
            .collect()
    };
    match workload {
        "first-touch" => (all(ProbeTier::Simulate), true),
        "tier-auto" => (all(ProbeTier::Auto), true),
        // serve-mixed: one server process computes the warm surfaces at
        // sim, then auto.
        _ => {
            let mut v = Vec::new();
            for tier in [ProbeTier::Simulate, ProbeTier::Auto] {
                for (m, op) in WARM {
                    v.push((m, SweepOp::parse(op).expect("warm ops are known"), tier));
                }
            }
            (v, false)
        }
    }
}

pub fn run(workload: &str, work: &Path) -> Result<J, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut out = J::obj();
    let ms = |s: f64| J::Num(s * 1e3);

    // machines: registry discovery and engine spawn.
    let discover: Vec<f64> = (0..15).map(|_| secs(MachineRegistry::discover).1).collect();
    out.set("machines.discover_ms", ms(median(&discover)));
    let registry = MachineRegistry::discover();
    let specs: Vec<MachineSpec> = registry
        .specs()
        .iter()
        .map(|s| fast_spec(&registry, s.label()))
        .collect::<Result<_, _>>()?;
    let mut spawns = Vec::new();
    for spec in &specs {
        for _ in 0..5 {
            let (engine, s) = secs(|| spec.spawn_engine());
            engine.map_err(|e| e.to_string())?;
            spawns.push(s);
        }
    }
    out.set("machines.spawn_ms", ms(median(&spawns)));

    // The workload's pass, traced.
    let (surfaces, fresh) = workload_surfaces(workload);
    let ckpt = work.join("traced-pass.json");
    let pass = traced_pass(&registry, &surfaces, fresh, &ckpt)?;
    out.set("machines.sim_probes", J::Int(pass.memo_misses));
    out.set(
        "machines.probe_sim_local_ms",
        J::Num(median(&pass.local_sim_ms)),
    );
    out.set(
        "machines.probe_sim_remote_ms",
        J::Num(median(&pass.remote_sim_ms)),
    );
    let lookups = pass.memo_hits + pass.memo_misses;
    out.set(
        "machines.memo_hit_ratio",
        J::Num(pass.memo_hits as f64 / lookups.max(1) as f64),
    );
    out.set(
        "core.runner_us_per_cell",
        J::Num((pass.wall_s - pass.probe_s) / pass.cells as f64 * 1e6),
    );

    // core: checkpoint writes of a full surface at the runner's cadence
    // (one durable write in sixteen).
    let payload = checkpoint(&ckpt)?.text;
    let target = work.join("write-bench.json");
    let (written, s) =
        secs(|| (0..32).try_for_each(|i| write_durable(&target, &payload, i % 16 == 15)));
    written.map_err(|e| e.to_string())?;
    out.set("core.checkpoint_write_us", J::Num(s / 32.0 * 1e6));
    out.set("core.checkpoint_bytes", J::Int(payload.len() as u64));

    // memsim: the engine alone over each paper machine's node.
    let (mut prime_s, mut measure_s, mut accesses) = (0.0, 0.0, 0u64);
    for label in ["dec8400", "t3d", "t3e"] {
        let node = fast_spec(&registry, label)?.node_config().clone();
        for (ws, stride) in [(32 << 10, 1), (512 << 10, 1), (4 << 20, 1), (4 << 20, 16)] {
            let words = ws / 8;
            let mut engine = MemoryEngine::new(node.clone());
            prime_s += secs(|| engine.prime_trace(StridedPass::new(0, words, stride))).1;
            let (stats, s) = secs(|| engine.run_trace(StridedPass::new(0, words, stride)));
            measure_s += s;
            accesses += stats.accesses;
        }
    }
    out.set(
        "memsim.prime_ns_per_access",
        J::Num(prime_s / accesses as f64 * 1e9),
    );
    out.set(
        "memsim.measure_ns_per_access",
        J::Num(measure_s / accesses as f64 * 1e9),
    );

    // Mechanism counters of the paper's 28 quoted cells, recorders on.
    let mut totals = gasnub::trace::CounterSet::new();
    for b in reference::bandwidths() {
        let spec = fast_spec(&registry, b.cell.machine)?;
        let mut engine = spec.spawn_engine().map_err(|e| e.to_string())?;
        engine.set_recorder(Box::new(RingRecorder::new(1)));
        b.cell
            .sweep_op()
            .measure(&mut engine, b.cell.ws, b.cell.stride);
        if let Some(c) = engine.take_counters() {
            totals.merge(&c);
        }
    }
    let sum = |prefix: &str| -> u64 {
        totals
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    for (metric, counter) in [
        ("memsim.accesses", "accesses"),
        ("memsim.l1_misses", "l1_misses"),
        ("memsim.l2_misses", "l2_misses"),
        ("memsim.dram_accesses", "dram_accesses"),
        (
            "memsim.write_buffer_stall_cycles",
            "write_buffer_stall_cycles",
        ),
        ("interconnect.bus_transactions", "bus_transactions"),
        ("interconnect.link_transfers", "link_transfers"),
        ("interconnect.ereg_words", "ereg_words"),
        (
            "coherence.directory_invalidations",
            "directory_invalidations",
        ),
    ] {
        out.set(metric, J::Int(totals.get(counter)));
    }
    out.set("coherence.mesi_transitions", J::Int(sum("mesi_")));

    // analytic: model derivation, then the model over every zoo machine's
    // load surface; trusted cells are compared with simulation.
    let mut model_new = Vec::new();
    let (mut anchors, mut trusted, mut cells) = (0u64, 0u64, 0u64);
    let (mut predict, mut residuals, mut memo_hit) = (Vec::new(), Vec::new(), Vec::new());
    let grid = Grid::quick();
    for spec in &specs {
        let mut model = None;
        for _ in 0..3 {
            let (m, s) = secs(|| AnalyticModel::new(spec));
            model = Some(m.map_err(|e| e.to_string())?);
            model_new.push(s);
        }
        let model = model.expect("three derivations ran");
        let mut engine = spec.spawn_engine().map_err(|e| e.to_string())?;
        for i in 0..grid.cells() {
            let (ws, stride) = grid.cell(i);
            let req = SweepOp::LocalLoad.request(ws, stride);
            let limits = spec.limits();
            model.predict(req.op, ws, req.stride, req.stride2, limits);
            let (p, s) = secs(|| model.predict(req.op, ws, req.stride, req.stride2, limits));
            predict.push(s);
            cells += 1;
            if let Prediction::Trusted(m) = p {
                trusted += 1;
                let sim = probe(spec, SweepOp::LocalLoad, ProbeTier::Simulate, ws, stride)?
                    .ok_or("local loads are always supported")?;
                residuals.push((m.mb_s - sim).abs() / sim);
                // The simulation above filled the memo: this is a hit.
                memo_hit.push(secs(|| SweepOp::LocalLoad.measure(&mut engine, ws, stride)).1);
            }
        }
        anchors += model.anchor_count() as u64;
    }
    out.set("machines.probe_memo_us", J::Num(median(&memo_hit) * 1e6));
    out.set("analytic.model_new_ms", ms(median(&model_new)));
    out.set("analytic.anchors", J::Int(anchors));
    out.set(
        "analytic.trusted_ratio",
        J::Num(trusted as f64 / cells as f64),
    );
    out.set("analytic.predict_us", J::Num(median(&predict) * 1e6));
    out.set(
        "analytic.residual_pct",
        J::Num(100.0 * residuals.iter().sum::<f64>() / residuals.len().max(1) as f64),
    );
    Ok(out)
}

//! Checks on the checkpoints a `gasnub sweep` pass leaves behind, made
//! after the timed section: every cell, the paper's headline orderings,
//! the 28 quoted bandwidths, and (at `auto`) analytic answers against
//! simulation.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use gasnub::analytic::{Prediction, TieredSpec};
use gasnub::core::json::Json;
use gasnub::core::{Grid, SweepOp};
use gasnub::machines::{Machine, MachineRegistry, ProbePath, ProbeTier, SpawnEngine};
use gasnub::memsim::rng::Rng;

use crate::offline::{checkpoint, fast_spec, probe};
use crate::out::{middle, nearest_rank, strs, J};
use crate::reference::{self, Cell};

/// Analytically answered cells of a tier-auto pass checked against
/// simulation.
const AUTO_SAMPLE: u64 = 40;

/// Reads and checks one surface's checkpoint; returns its cells.
fn read_surface(
    registry: &MachineRegistry,
    dir: &Path,
    machine: &'static str,
    op: SweepOp,
    tier: ProbeTier,
) -> Result<Vec<(Cell, f64)>, String> {
    // run.py names each surface's checkpoint `<machine>-<op>.json`.
    let path = dir.join(format!("{machine}-{}.json", op.label()));
    let payload = checkpoint(&path)?;
    let doc = Json::parse(&payload.text).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = fast_spec(registry, machine)?;
    let name = spec.spawn_engine().map_err(|e| e.to_string())?.name();
    let title = op.checkpoint_title(&name, false, tier);
    let bad = |what: &str| Err(format!("{}: {what}", path.display()));
    if doc.get("title").and_then(Json::as_str) != Some(title.as_str()) {
        return bad("wrong title");
    }
    if doc.get("spec_hash").and_then(Json::as_u64) != Some(spec.spec_hash()) {
        return bad("wrong spec hash");
    }
    if doc
        .get("failed")
        .and_then(Json::as_array)
        .is_none_or(|f| !f.is_empty())
    {
        return bad("failed cells recorded");
    }
    let axis = |key: &str| -> Option<Vec<u64>> {
        doc.get(key)?.as_array()?.iter().map(Json::as_u64).collect()
    };
    let quick = Grid::quick();
    if axis("strides") != Some(quick.strides.clone())
        || axis("working_sets") != Some(quick.working_sets.clone())
    {
        return bad("grid is not Grid::quick");
    }
    let cells = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    if cells.len() != quick.cells() {
        return bad("cell count");
    }
    let mut out = Vec::new();
    for c in cells {
        let (Some(ws), Some(stride), Some(bits)) = (
            c.get("ws").and_then(Json::as_u64),
            c.get("stride").and_then(Json::as_u64),
            c.get("bits").and_then(Json::as_u64),
        ) else {
            return bad("malformed cell");
        };
        let mb_s = f64::from_bits(bits);
        if !(mb_s.is_finite() && mb_s > 0.0) {
            return bad(&format!("cell ws={ws} stride={stride} reads {mb_s} MB/s"));
        }
        let cell = Cell {
            machine,
            op: op.label(),
            ws,
            stride,
        };
        out.push((cell, mb_s));
    }
    Ok(out)
}

/// Mean |measured − paper| / paper over the quoted bandwidths, in percent,
/// measured at `tier`. With `enforce`, a value outside its tolerance is an
/// error.
pub fn paper_deviation(
    registry: &MachineRegistry,
    tier: ProbeTier,
    enforce: bool,
    errors: &mut Vec<String>,
) -> f64 {
    let mut devs = Vec::new();
    for b in reference::bandwidths() {
        let measured = fast_spec(registry, b.cell.machine)
            .and_then(|spec| probe(&spec, b.cell.sweep_op(), tier, b.cell.ws, b.cell.stride));
        match measured {
            Ok(Some(mb_s)) => {
                let dev = b.deviation(mb_s);
                if enforce && dev > b.tolerance {
                    errors.push(format!(
                        "{}: {mb_s:.1} MB/s is {:.0}% from the paper's {} (tolerance {:.0}%)",
                        b.id,
                        dev * 100.0,
                        b.paper_mb_s,
                        b.tolerance * 100.0
                    ));
                }
                devs.push(dev);
            }
            Ok(None) => errors.push(format!("{}: probe unsupported", b.id)),
            Err(e) => errors.push(format!("{}: {e}", b.id)),
        }
    }
    100.0 * devs.iter().sum::<f64>() / devs.len().max(1) as f64
}

/// Checks a finished pass at `tier_label` in `dir`. `latencies_ms` are the
/// per-machine wall times per cell the caller measured; their p50 and p99
/// are computed here, beside the serve client's.
pub fn run(tier_label: &str, dir: &Path, seed: u64, latencies_ms: &[f64]) -> J {
    let registry = MachineRegistry::discover();
    let tier = crate::offline::tier(tier_label);
    let mut errors = Vec::new();
    let mut values: BTreeMap<Cell, f64> = BTreeMap::new();
    for (machine, op) in reference::surfaces() {
        match read_surface(&registry, dir, machine, op, tier) {
            Ok(cells) => values.extend(cells),
            Err(e) => errors.push(e),
        }
    }

    let mut sampled_analytic = 0u64;
    let enforce = tier == ProbeTier::Simulate;
    if enforce {
        for o in reference::orderings() {
            let (Some(n), Some(d)) = (values.get(&o.num), values.get(&o.den)) else {
                errors.push(format!("finding {}: cells missing", o.finding));
                continue;
            };
            if !o.holds(n / d) {
                errors.push(format!(
                    "finding {} ({}): {} / {} = {:.3}, outside [{}, {}]",
                    o.finding,
                    o.claim,
                    o.num,
                    o.den,
                    n / d,
                    o.min,
                    o.max.map_or("inf".to_string(), |m| m.to_string())
                ));
            }
        }
    } else {
        // A seeded sample of the analytically answered cells: each must be
        // the library's answer bit for bit and lie within its machine's
        // calibration tolerance of a simulation of the same cell. The
        // model's own verdict picks the cells, so no untrusted cell is
        // simulated here.
        let mut cells: Vec<(&Cell, f64)> = values.iter().map(|(c, v)| (c, *v)).collect();
        Rng::new(seed).shuffle(&mut cells);
        let mut tiered: HashMap<&str, TieredSpec> = HashMap::new();
        for (cell, value) in cells {
            if sampled_analytic == AUTO_SAMPLE {
                break;
            }
            let answer = fast_spec(&registry, cell.machine).and_then(|spec| {
                if !tiered.contains_key(cell.machine) {
                    let t = TieredSpec::new(spec.clone(), tier).map_err(|e| e.to_string())?;
                    tiered.insert(cell.machine, t);
                }
                let t = &tiered[cell.machine];
                let req = cell.sweep_op().request(cell.ws, cell.stride);
                let verdict =
                    t.model()
                        .predict(req.op, req.ws_bytes, req.stride, req.stride2, spec.limits());
                if !matches!(verdict, Prediction::Trusted(_)) {
                    return Ok(None);
                }
                let mut machine = t.spawn_engine().map_err(|e| e.to_string())?;
                let v = cell.sweep_op().measure(&mut machine, cell.ws, cell.stride);
                if machine.last_path() != ProbePath::Analytic {
                    return Err("trusted by the model but simulated".to_string());
                }
                let sim = probe(
                    &spec,
                    cell.sweep_op(),
                    ProbeTier::Simulate,
                    cell.ws,
                    cell.stride,
                )?;
                Ok(Some((v, sim, t.model().tolerance())))
            });
            match answer {
                Ok(None) => {}
                Ok(Some((Some(v), Some(s), tolerance))) => {
                    sampled_analytic += 1;
                    if v.to_bits() != value.to_bits() {
                        errors.push(format!("{cell}: checkpoint {value} != library {v}"));
                    }
                    if (v - s).abs() / s > tolerance {
                        errors.push(format!(
                            "{cell}: analytic {v:.1} vs simulated {s:.1} MB/s exceeds {:.0}%",
                            tolerance * 100.0
                        ));
                    }
                }
                Ok(Some(_)) => errors.push(format!("{cell}: unsupported in the library")),
                Err(e) => errors.push(format!("{cell}: {e}")),
            }
        }
        if sampled_analytic < AUTO_SAMPLE {
            errors.push(format!(
                "only {sampled_analytic} analytically answered cells to check, {AUTO_SAMPLE} needed"
            ));
        }
    }
    let paper_dev_pct = paper_deviation(&registry, tier, enforce, &mut errors);

    let mut out = J::obj();
    out.set("checked_cells", J::Int(values.len() as u64));
    out.set("sampled_analytic", J::Int(sampled_analytic));
    out.set("paper_dev_pct", J::Num(paper_dev_pct));
    out.set("p50_ms", middle(latencies_ms).map_or(J::Num(0.0), J::Num));
    out.set(
        "p99_ms",
        nearest_rank(latencies_ms, 0.99).map_or(J::Num(0.0), J::Num),
    );
    out.set("errors", strs(&errors));
    out
}

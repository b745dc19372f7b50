//! Per-cell counter reports: *why* each bandwidth number is what it is.
//!
//! A bandwidth surface says a cell runs at 57 MB/s; a counter report says
//! the same cell missed L1 4096 times, crossed the bus once per cache line,
//! and stalled 1200 cycles in the write buffer. This module sweeps a grid
//! with an event recorder installed on each engine, harvests the component
//! counters every probe leaves behind, and packages them per cell —
//! deterministically, in grid order, so a `--threads 4` report is
//! byte-identical to a sequential one.
//!
//! Reports render to canonical JSON (sorted keys, unsigned integers only;
//! bandwidths stored as `f64::to_bits` so they round-trip exactly — the
//! golden-trace test fixtures in `tests/golden/` are these bytes) and to
//! CSV with one column per counter, annotating a figure's cells with the
//! mechanism behind them.

use gasnub_machines::{CancelToken, CounterSet, Machine, RingRecorder, SpawnEngine};
use gasnub_memsim::SimError;

use crate::bench::SweepOp;
use crate::json::Json;
use crate::sweep::{run_cells, Grid};

/// Events buffered per probe. Counter collection drains the recorder after
/// every cell, so a small ring suffices.
const RING_CAPACITY: usize = 8;

/// One grid cell's measurement plus the harvested component counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Working set in bytes.
    pub ws_bytes: u64,
    /// Stride in 64-bit words.
    pub stride: u64,
    /// Measured bandwidth as IEEE-754 bits (`f64::to_bits`), which
    /// round-trips through JSON exactly.
    pub mb_s_bits: u64,
    /// The counters the probe harvested (cache hits/misses, bus
    /// transactions, NI packets, MESI transitions, ...).
    pub counters: CounterSet,
}

impl CellReport {
    /// The measured bandwidth in MB/s.
    pub fn mb_s(&self) -> f64 {
        f64::from_bits(self.mb_s_bits)
    }
}

/// A full counter sweep of one operation on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterReport {
    /// Machine label (`dec8400` / `t3d` / `t3e` / `custom`).
    pub machine: String,
    /// Operation label (as [`SweepOp::label`]).
    pub op: String,
    /// Human-readable title, matching the bandwidth surface's title.
    pub title: String,
    /// Cells in grid order (working sets outer, strides inner).
    pub cells: Vec<CellReport>,
    /// Run-level robustness counters (retries, quarantines, timeouts,
    /// force-restart recoveries — the [`gasnub_trace::robustness`] names),
    /// filled in by the resilient sweep runner's outcome. Omitted from the
    /// JSON rendering when empty, so reports from untroubled runs keep
    /// their historical bytes.
    pub robustness: CounterSet,
}

impl CounterReport {
    /// Builds the canonical JSON value of this report.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let counters = Json::Object(
                    cell.counters
                        .iter()
                        .map(|(name, value)| (name.to_string(), Json::U64(value)))
                        .collect(),
                );
                Json::object([
                    ("ws_bytes", Json::U64(cell.ws_bytes)),
                    ("stride", Json::U64(cell.stride)),
                    ("mb_s_bits", Json::U64(cell.mb_s_bits)),
                    ("counters", counters),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("machine", Json::Str(self.machine.clone())),
            ("op", Json::Str(self.op.clone())),
            ("title", Json::Str(self.title.clone())),
            ("cells", Json::Array(cells)),
        ];
        if !self.robustness.is_empty() {
            pairs.push((
                "robustness",
                Json::Object(
                    self.robustness
                        .iter()
                        .map(|(name, value)| (name.to_string(), Json::U64(value)))
                        .collect(),
                ),
            ));
        }
        Json::object(pairs)
    }

    /// Renders the report as one line of canonical JSON plus a trailing
    /// newline. Identical reports render to identical bytes — this is the
    /// golden-trace fixture format and the `--counters` output format.
    pub fn render_json(&self) -> String {
        let mut out = self.to_json().render();
        out.push('\n');
        out
    }

    /// Reads a report back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Malformed`] on syntax errors or a document of
    /// the wrong shape.
    pub fn parse(text: &str) -> Result<CounterReport, SimError> {
        let doc = Json::parse(text)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| SimError::malformed(format!("missing '{key}'")))
        };
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| SimError::malformed(format!("'{key}' is not a string")))
        };
        let mut cells = Vec::new();
        for cell in field("cells")?
            .as_array()
            .ok_or_else(|| SimError::malformed("'cells' is not an array"))?
        {
            let number = |key: &str| {
                cell.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| SimError::malformed(format!("cell '{key}' is not a number")))
            };
            let mut counters = CounterSet::new();
            match cell.get("counters") {
                Some(Json::Object(map)) => {
                    for (name, value) in map {
                        let value = value.as_u64().ok_or_else(|| {
                            SimError::malformed(format!("counter '{name}' is not a number"))
                        })?;
                        counters.set(name, value);
                    }
                }
                _ => return Err(SimError::malformed("cell 'counters' is not an object")),
            }
            cells.push(CellReport {
                ws_bytes: number("ws_bytes")?,
                stride: number("stride")?,
                mb_s_bits: number("mb_s_bits")?,
                counters,
            });
        }
        let mut robustness = CounterSet::new();
        match doc.get("robustness") {
            None => {}
            Some(Json::Object(map)) => {
                for (name, value) in map {
                    let value = value.as_u64().ok_or_else(|| {
                        SimError::malformed(format!("robustness '{name}' is not a number"))
                    })?;
                    robustness.set(name, value);
                }
            }
            Some(_) => return Err(SimError::malformed("'robustness' is not an object")),
        }
        Ok(CounterReport {
            machine: string("machine")?,
            op: string("op")?,
            title: string("title")?,
            cells,
            robustness,
        })
    }

    /// Renders the report as CSV: `ws_bytes,stride,mb_s` followed by one
    /// column per counter (the sorted union across all cells; absent
    /// counters print 0). This is the "annotated figure" form — each cell
    /// of a bandwidth plot alongside the mechanism counts explaining it.
    pub fn to_csv(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for cell in &self.cells {
            for (name, _) in cell.counters.iter() {
                if let Err(at) = names.binary_search(&name) {
                    names.insert(at, name);
                }
            }
        }
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        let mut out = String::from("ws_bytes,stride,mb_s");
        for name in &names {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for cell in &self.cells {
            out.push_str(&format!(
                "{},{},{:.1}",
                cell.ws_bytes,
                cell.stride,
                cell.mb_s()
            ));
            for name in &names {
                out.push_str(&format!(",{}", cell.counters.get(name)));
            }
            out.push('\n');
        }
        out
    }
}

/// Sweeps `op` over `grid` with counters on, through the run scheduler
/// (`sweep::run_cells`): each run's warm engine gets a fresh
/// [`RingRecorder`] before every cell, and cells are gathered in grid
/// order — so the report (and its rendered bytes) is identical however
/// many threads run it. A flushed engine is identical to a new one, so the
/// counters are those of a fresh engine per cell.
///
/// Returns `Ok(None)` when the machine does not support `op` (mirroring
/// [`crate::bench::sweep_surface_par`]).
///
/// # Errors
///
/// Returns [`SimError`] when the spec fails to build an engine.
pub fn collect_counters<S: SpawnEngine>(
    spawner: &S,
    op: SweepOp,
    grid: &Grid,
    threads: usize,
) -> Result<Option<CounterReport>, SimError> {
    let probe = spawner.spawn_engine()?;
    let (machine, title) = (probe.label(), op.title_for(&probe.name()));
    drop(probe);
    let cells: Vec<(u64, u64)> = (0..grid.cells()).map(|i| grid.cell(i)).collect();
    let slots = run_cells(threads, &cells, &CancelToken::new(), |warm, ws, stride| {
        Some(warm.engine(spawner).map(|engine| {
            engine.set_recorder(Box::new(RingRecorder::new(RING_CAPACITY)));
            let mb_s = op.measure(engine, ws, stride)?;
            Some(CellReport {
                ws_bytes: ws,
                stride,
                mb_s_bits: mb_s.to_bits(),
                counters: engine.take_counters().unwrap_or_default(),
            })
        }))
    });
    let mut report = CounterReport {
        machine,
        op: op.label().to_string(),
        title,
        cells: Vec::with_capacity(grid.cells()),
        robustness: CounterSet::new(),
    };
    for slot in slots {
        match slot.expect("a live claim reaches every cell")? {
            Some(cell) => report.cells.push(cell),
            None => return Ok(None),
        }
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineSpec, MeasureLimits};

    fn small_grid() -> Grid {
        Grid {
            strides: vec![1, 16],
            working_sets: vec![32 << 10, 4 << 20],
        }
    }

    #[test]
    fn collects_cells_in_grid_order_with_counters() {
        let spec = MachineSpec::t3d().with_limits(MeasureLimits::fast());
        let report = collect_counters(&spec, SweepOp::LocalLoad, &small_grid(), 1)
            .unwrap()
            .expect("local loads are always supported");
        assert_eq!(report.machine, "t3d");
        assert_eq!(report.op, "load");
        assert_eq!(report.cells.len(), 4);
        let first = &report.cells[0];
        assert_eq!((first.ws_bytes, first.stride), (32 << 10, 1));
        assert!(first.counters.get("accesses") > 0);
        assert!(first.mb_s() > 0.0);
    }

    #[test]
    fn unsupported_op_reports_none() {
        let spec = MachineSpec::dec8400().with_limits(MeasureLimits::fast());
        let got = collect_counters(&spec, SweepOp::RemoteDeposit, &small_grid(), 1).unwrap();
        assert!(got.is_none(), "the 8400 cannot push");
    }

    #[test]
    fn parallel_report_renders_identically_to_sequential() {
        let spec = MachineSpec::t3e().with_limits(MeasureLimits::fast());
        let sequential = collect_counters(&spec, SweepOp::RemoteFetch, &small_grid(), 1)
            .unwrap()
            .unwrap();
        let parallel = collect_counters(&spec, SweepOp::RemoteFetch, &small_grid(), 4)
            .unwrap()
            .unwrap();
        assert_eq!(sequential.render_json(), parallel.render_json());
    }

    #[test]
    fn json_round_trips() {
        let spec = MachineSpec::dec8400().with_limits(MeasureLimits::fast());
        let report = collect_counters(&spec, SweepOp::RemoteLoad, &small_grid(), 1)
            .unwrap()
            .unwrap();
        let text = report.render_json();
        let back = CounterReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.render_json(), text);
    }

    #[test]
    fn csv_has_one_column_per_counter() {
        let report = CounterReport {
            machine: "t3d".into(),
            op: "load".into(),
            title: "t".into(),
            robustness: CounterSet::new(),
            cells: vec![
                CellReport {
                    ws_bytes: 1024,
                    stride: 1,
                    mb_s_bits: 800.0f64.to_bits(),
                    counters: {
                        let mut c = CounterSet::new();
                        c.set("beta", 2);
                        c
                    },
                },
                CellReport {
                    ws_bytes: 1024,
                    stride: 8,
                    mb_s_bits: 100.0f64.to_bits(),
                    counters: {
                        let mut c = CounterSet::new();
                        c.set("alpha", 7);
                        c
                    },
                },
            ],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "ws_bytes,stride,mb_s,alpha,beta");
        assert_eq!(lines[1], "1024,1,800.0,0,2");
        assert_eq!(lines[2], "1024,8,100.0,7,0");
    }

    #[test]
    fn robustness_counters_render_only_when_present_and_round_trip() {
        let mut report = CounterReport {
            machine: "t3d".into(),
            op: "load".into(),
            title: "t".into(),
            cells: Vec::new(),
            robustness: CounterSet::new(),
        };
        // Empty: the key is omitted, preserving pre-robustness bytes.
        assert!(!report.render_json().contains("robustness"));
        let back = CounterReport::parse(&report.render_json()).unwrap();
        assert!(back.robustness.is_empty());
        // Non-empty: rendered and round-tripped.
        report.robustness.add("sweep.retries", 3);
        report.robustness.add("sweep.quarantines", 1);
        let text = report.render_json();
        assert!(text.contains("\"robustness\":{\"sweep.quarantines\":1,\"sweep.retries\":3}"));
        let back = CounterReport::parse(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        for text in [
            "",
            "{}",
            "{\"machine\":\"t3d\",\"op\":\"load\",\"title\":\"t\"}",
            "{\"machine\":\"t3d\",\"op\":\"load\",\"title\":\"t\",\"cells\":[{}]}",
            "{\"machine\":1,\"op\":\"load\",\"title\":\"t\",\"cells\":[]}",
        ] {
            assert!(CounterReport::parse(text).is_err(), "{text:?} should fail");
        }
    }
}

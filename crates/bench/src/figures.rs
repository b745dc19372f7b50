//! One regeneration target per figure of the paper.

use gasnub_core::bench::{sweep_surface, SweepOp};
use gasnub_core::surface::Surface;
use gasnub_core::sweep::Grid;
use gasnub_fft::run_benchmark;
use gasnub_machines::{Machine, MachineId, MachineSpec, MeasureLimits};

/// The rendered output of one figure: a terminal table and machine-readable
/// CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOutput {
    /// Aligned text table(s).
    pub text: String,
    /// CSV of the same data.
    pub csv: String,
}

/// One figure of the paper, regenerable on demand.
pub struct Figure {
    /// Stable identifier (`"fig01"` … `"fig17"`).
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub title: &'static str,
    /// What the reproduction asserts about the shape.
    pub expectation: &'static str,
    runner: fn(bool) -> FigureOutput,
}

impl Figure {
    /// Regenerates the figure. `quick` uses reduced grids (seconds instead
    /// of minutes) without changing any plateau location.
    pub fn run(&self, quick: bool) -> FigureOutput {
        (self.runner)(quick)
    }
}

impl std::fmt::Debug for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Figure")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

fn machine(id: MachineId) -> Box<dyn Machine> {
    let spec = MachineSpec::for_id(id).with_limits(MeasureLimits {
        max_measure_words: 32 * 1024,
        max_prime_words: 2 * 1024 * 1024,
    });
    Box::new(spec.build().expect("paper machines build"))
}

fn local_grid(quick: bool, max_ws: u64) -> Grid {
    if quick {
        Grid {
            strides: vec![1, 2, 4, 8, 16, 64],
            working_sets: Grid::paper_working_sets(max_ws.min(16 << 20))
                .into_iter()
                .step_by(2)
                .collect(),
        }
    } else {
        Grid {
            strides: Grid::paper_strides(),
            working_sets: Grid::paper_working_sets(max_ws),
        }
    }
}

fn surface_output(s: Surface) -> FigureOutput {
    FigureOutput {
        text: s.render(),
        csv: s.to_csv(),
    }
}

fn surface_figure(id: MachineId, quick: bool, max_ws: u64, op: SweepOp) -> FigureOutput {
    let mut m = machine(id);
    let grid = local_grid(quick, max_ws);
    let s = sweep_surface(m.as_mut(), op, &grid).expect("surface supported on this machine");
    surface_output(s)
}

// ---------------------------------------------------------------- figs 1-8

fn fig01(quick: bool) -> FigureOutput {
    surface_figure(MachineId::Dec8400, quick, 128 << 20, SweepOp::LocalLoad)
}

fn fig02(quick: bool) -> FigureOutput {
    surface_figure(MachineId::Dec8400, quick, 8 << 20, SweepOp::RemoteLoad)
}

fn fig03(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3d, quick, 16 << 20, SweepOp::LocalLoad)
}

fn fig04(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3d, quick, 8 << 20, SweepOp::RemoteFetch)
}

fn fig05(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3d, quick, 8 << 20, SweepOp::RemoteDeposit)
}

fn fig06(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3e, quick, 8 << 20, SweepOp::LocalLoad)
}

fn fig07(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3e, quick, 8 << 20, SweepOp::RemoteFetch)
}

fn fig08(quick: bool) -> FigureOutput {
    surface_figure(MachineId::CrayT3e, quick, 8 << 20, SweepOp::RemoteDeposit)
}

// -------------------------------------------------------------- figs 9-14

/// The large-transfer working set of §6 ("a working set of 65 MByte per
/// processor is sufficient to force every copy operation to go from DRAM
/// memory to DRAM memory").
const BIG_WS: u64 = 64 << 20;

/// One named bandwidth-vs-stride probe of a stride-series figure.
type SeriesProbe<'a> = (&'a str, Box<dyn FnMut(u64) -> Option<f64> + 'a>);

fn stride_series(title: &str, quick: bool, series: Vec<SeriesProbe<'_>>) -> FigureOutput {
    let strides = if quick {
        vec![1, 2, 4, 8, 16, 64]
    } else {
        Grid::copy_strides()
    };
    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    let mut columns: Vec<Vec<Option<f64>>> = Vec::new();
    let mut names = Vec::new();
    for (name, mut probe) in series {
        names.push(name.to_string());
        columns.push(strides.iter().map(|&s| probe(s)).collect());
    }
    for (i, &s) in strides.iter().enumerate() {
        rows.push((s.to_string(), columns.iter().map(|c| c[i]).collect()));
    }

    let mut text = format!("{title} (MB/s)\n{:>8}", "stride");
    for n in &names {
        text.push_str(&format!("{n:>38}"));
    }
    text.push('\n');
    let mut csv = String::from("stride");
    for n in &names {
        csv.push_str(&format!(",{}", n.replace(' ', "_")));
    }
    csv.push('\n');
    for (s, vals) in &rows {
        text.push_str(&format!("{s:>8}"));
        csv.push_str(s);
        for v in vals {
            match v {
                Some(v) => {
                    text.push_str(&format!("{v:>38.1}"));
                    csv.push_str(&format!(",{v:.1}"));
                }
                None => {
                    text.push_str(&format!("{:>38}", "n/a"));
                    csv.push_str(",n/a");
                }
            }
        }
        text.push('\n');
        csv.push('\n');
    }
    FigureOutput { text, csv }
}

fn local_copy_figure(id: MachineId, quick: bool) -> FigureOutput {
    let title = format!("Local memory copy, 64 MB working set — {id}");
    let m1 = std::cell::RefCell::new(machine(id));
    let m2 = std::cell::RefCell::new(machine(id));
    stride_series(
        &title,
        quick,
        vec![
            (
                "strided loads/contiguous stores",
                Box::new(move |s| {
                    SweepOp::CopyStridedLoads.measure(&mut **m1.borrow_mut(), BIG_WS, s)
                }),
            ),
            (
                "contiguous loads/strided stores",
                Box::new(move |s| {
                    SweepOp::CopyStridedStores.measure(&mut **m2.borrow_mut(), BIG_WS, s)
                }),
            ),
        ],
    )
}

fn fig09(quick: bool) -> FigureOutput {
    local_copy_figure(MachineId::Dec8400, quick)
}

fn fig10(quick: bool) -> FigureOutput {
    local_copy_figure(MachineId::CrayT3d, quick)
}

fn fig11(quick: bool) -> FigureOutput {
    local_copy_figure(MachineId::CrayT3e, quick)
}

fn fig12(quick: bool) -> FigureOutput {
    let m = std::cell::RefCell::new(machine(MachineId::Dec8400));
    stride_series(
        "Remote copy transfers, DEC 8400 (P0 pulls from P1), 64 MB",
        quick,
        vec![(
            "strided remote loads/contiguous stores",
            Box::new(move |s| SweepOp::RemoteFetch.measure(&mut **m.borrow_mut(), BIG_WS, s)),
        )],
    )
}

fn remote_copy_figure(id: MachineId, quick: bool) -> FigureOutput {
    let title = format!("Remote copy transfers — {id}, 64 MB");
    let m1 = std::cell::RefCell::new(machine(id));
    let m2 = std::cell::RefCell::new(machine(id));
    stride_series(
        &title,
        quick,
        vec![
            (
                "strided remote loads (fetch)",
                Box::new(move |s| SweepOp::RemoteFetch.measure(&mut **m1.borrow_mut(), BIG_WS, s)),
            ),
            (
                "strided remote stores (deposit)",
                Box::new(move |s| {
                    SweepOp::RemoteDeposit.measure(&mut **m2.borrow_mut(), BIG_WS, s)
                }),
            ),
        ],
    )
}

fn fig13(quick: bool) -> FigureOutput {
    remote_copy_figure(MachineId::CrayT3d, quick)
}

fn fig14(quick: bool) -> FigureOutput {
    remote_copy_figure(MachineId::CrayT3e, quick)
}

// ------------------------------------------------------------- figs 15-17

/// Which 2D-FFT metric a figure reports.
#[derive(Clone, Copy)]
enum FftMetric {
    Total,
    Compute,
    Comm,
}

fn fft_figure(metric: FftMetric, quick: bool) -> FigureOutput {
    let sizes: Vec<usize> = if quick {
        vec![32, 64, 256]
    } else {
        vec![32, 64, 128, 256, 512, 1024]
    };
    let machines = [MachineId::CrayT3d, MachineId::Dec8400, MachineId::CrayT3e];
    let (title, unit) = match metric {
        FftMetric::Total => (
            "2D-FFT overall application performance, 4 PEs",
            "MFlop/s total",
        ),
        FftMetric::Compute => (
            "2D-FFT local computation performance, 4 PEs",
            "MFlop/s total",
        ),
        FftMetric::Comm => (
            "2D-FFT communication performance (transposes), 4 PEs",
            "MB/s total",
        ),
    };
    let mut text = format!("{title} [{unit}]\n{:>8}", "n");
    let mut csv = String::from("n");
    for m in machines {
        text.push_str(&format!("{:>12}", m.label()));
        csv.push_str(&format!(",{}", m.label()));
    }
    text.push('\n');
    csv.push('\n');
    for &n in &sizes {
        text.push_str(&format!("{n:>8}"));
        csv.push_str(&n.to_string());
        for m in machines {
            let r = run_benchmark(m, n, 4);
            let v = match metric {
                FftMetric::Total => r.total_mflops,
                FftMetric::Compute => r.compute_mflops_total,
                FftMetric::Comm => r.comm_mb_s_total,
            };
            text.push_str(&format!("{v:>12.0}"));
            csv.push_str(&format!(",{v:.1}"));
        }
        text.push('\n');
        csv.push('\n');
    }
    FigureOutput { text, csv }
}

fn fig15(quick: bool) -> FigureOutput {
    fft_figure(FftMetric::Total, quick)
}

fn fig16(quick: bool) -> FigureOutput {
    fft_figure(FftMetric::Compute, quick)
}

fn fig17(quick: bool) -> FigureOutput {
    fft_figure(FftMetric::Comm, quick)
}

/// The complete figure index, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        Figure {
            id: "fig01",
            title: "DEC 8400 local load bandwidth (stride x working set)",
            expectation: "plateaus ~1100/700/600c-120s/150c-28s MB/s",
            runner: fig01,
        },
        Figure {
            id: "fig02",
            title: "DEC 8400 remote (pull) load bandwidth",
            expectation: "<=140 MB/s contiguous, ~22 strided",
            runner: fig02,
        },
        Figure {
            id: "fig03",
            title: "Cray T3D local load bandwidth",
            expectation: "~600 L1; 195 contiguous / 43 strided DRAM",
            runner: fig03,
        },
        Figure {
            id: "fig04",
            title: "Cray T3D fetch transfers (remote loads)",
            expectation: "~25 MB/s, far below deposits",
            runner: fig04,
        },
        Figure {
            id: "fig05",
            title: "Cray T3D deposit transfers (remote stores)",
            expectation: "~120 contiguous / 55-70 strided",
            runner: fig05,
        },
        Figure {
            id: "fig06",
            title: "Cray T3E local load bandwidth",
            expectation: "L1/L2 like the 8400; 430 contiguous / 42 strided DRAM",
            runner: fig06,
        },
        Figure {
            id: "fig07",
            title: "Cray T3E fetch transfers (E-registers)",
            expectation: "350 contiguous / ~140 strided, smooth",
            runner: fig07,
        },
        Figure {
            id: "fig08",
            title: "Cray T3E deposit transfers (E-registers)",
            expectation: "350 contiguous; even-stride ripples down to ~70",
            runner: fig08,
        },
        Figure {
            id: "fig09",
            title: "DEC 8400 local copies vs stride",
            expectation: "57 contiguous -> ~18-26 strided, both variants alike",
            runner: fig09,
        },
        Figure {
            id: "fig10",
            title: "Cray T3D local copies vs stride",
            expectation: "100 contiguous; strided stores ~70 >> strided loads ~40",
            runner: fig10,
        },
        Figure {
            id: "fig11",
            title: "Cray T3E local copies vs stride",
            expectation: "200 contiguous; strided resembles the 8400, not the T3D",
            runner: fig11,
        },
        Figure {
            id: "fig12",
            title: "DEC 8400 remote copies vs stride",
            expectation: "~140 contiguous -> ~20 strided",
            runner: fig12,
        },
        Figure {
            id: "fig13",
            title: "Cray T3D remote copies vs stride",
            expectation: "deposit >> fetch; strided deposits ~55-70",
            runner: fig13,
        },
        Figure {
            id: "fig14",
            title: "Cray T3E remote copies vs stride",
            expectation: "350 contiguous; fetch 140 / deposit 70 strided, odd-stride ripples",
            runner: fig14,
        },
        Figure {
            id: "fig15",
            title: "2D-FFT overall performance (4 PEs)",
            expectation: "T3E > 8400 > T3D; 8400/T3D ~1.5x despite 2.5x compute",
            runner: fig15,
        },
        Figure {
            id: "fig16",
            title: "2D-FFT local computation performance",
            expectation: "8400 ~2.5x T3D, flat; T3D falls off at n=1024; T3E highest",
            runner: fig16,
        },
        Figure {
            id: "fig17",
            title: "2D-FFT communication performance",
            expectation: "8400 ~ T3D; T3E well above both",
            runner: fig17,
        },
    ]
}

/// Looks up a figure by its id (`"fig01"` … `"fig17"`).
pub fn figure_by_id(id: &str) -> Option<Figure> {
    all_figures().into_iter().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_complete_and_ordered() {
        let figs = all_figures();
        assert_eq!(figs.len(), 17);
        for (i, f) in figs.iter().enumerate() {
            assert_eq!(f.id, format!("fig{:02}", i + 1));
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(figure_by_id("fig07").is_some());
        assert!(figure_by_id("fig99").is_none());
    }

    #[test]
    fn quick_fig03_regenerates_t3d_plateaus() {
        let out = figure_by_id("fig03").unwrap().run(true);
        assert!(out.text.contains("local loads"));
        assert!(out.csv.starts_with("ws_bytes"));
        assert!(out.csv.lines().count() > 3);
    }

    #[test]
    fn quick_fig13_has_both_series() {
        let out = figure_by_id("fig13").unwrap().run(true);
        assert!(out.text.contains("fetch"));
        assert!(out.text.contains("deposit"));
        assert!(
            !out.text.contains("n/a"),
            "the T3D supports both directions"
        );
    }

    #[test]
    fn quick_fig12_marks_unsupported_deposit_absent() {
        let out = figure_by_id("fig12").unwrap().run(true);
        // Fig 12 only has the pull series by construction.
        assert!(out.text.contains("strided remote loads"));
    }

    #[test]
    fn quick_fig15_shows_the_ordering() {
        let out = figure_by_id("fig15").unwrap().run(true);
        let last = out.csv.lines().last().unwrap(); // n=256 row: n,t3d,dec,t3e
        let vals: Vec<f64> = last
            .split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(
            vals[2] > vals[1] && vals[1] > vals[0],
            "T3E > 8400 > T3D: {vals:?}"
        );
    }
}

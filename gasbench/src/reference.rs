//! The benchmark's own yardsticks, embedded at build time: the paper's
//! quoted bandwidths, its headline orderings and the surface list. They
//! live in `reference/*.tsv`, not in the program, so a change to the
//! program cannot move the values it is judged against.

use gasnub::core::SweepOp;

const BANDWIDTHS: &str = include_str!("../reference/bandwidths.tsv");
const ORDERINGS: &str = include_str!("../reference/orderings.tsv");
const SURFACES: &str = include_str!("../reference/surfaces.tsv");

/// One micro-benchmark cell: a machine, an operation, a working set in
/// bytes and a stride in 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    pub machine: &'static str,
    pub op: &'static str,
    pub ws: u64,
    pub stride: u64,
}

impl Cell {
    pub fn sweep_op(&self) -> SweepOp {
        SweepOp::parse(self.op).expect("reference cells name known operations")
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} ws={} stride={}",
            self.machine, self.op, self.ws, self.stride
        )
    }
}

/// A bandwidth the paper's prose quotes.
#[derive(Debug, Clone)]
pub struct Bandwidth {
    pub id: String,
    pub cell: Cell,
    pub paper_mb_s: f64,
    pub tolerance: f64,
}

impl Bandwidth {
    /// |measured − paper| / paper.
    pub fn deviation(&self, measured: f64) -> f64 {
        (measured - self.paper_mb_s).abs() / self.paper_mb_s
    }
}

/// One headline ordering: `num / den` must lie in `[min, max]`.
#[derive(Debug, Clone)]
pub struct Ordering {
    pub finding: u32,
    pub claim: String,
    pub num: Cell,
    pub den: Cell,
    pub min: f64,
    pub max: Option<f64>,
}

impl Ordering {
    pub fn holds(&self, ratio: f64) -> bool {
        ratio >= self.min && self.max.is_none_or(|max| ratio <= max)
    }
}

fn rows(text: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

fn op_label(text: &str) -> &'static str {
    SweepOp::parse(text)
        .unwrap_or_else(|| panic!("reference data names unknown operation {text:?}"))
        .label()
}

fn num<T: std::str::FromStr>(text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| panic!("reference data holds a malformed number {text:?}"))
}

fn cell(f: &[&'static str]) -> Cell {
    Cell {
        machine: f[0],
        op: op_label(f[1]),
        ws: num(f[2]),
        stride: num(f[3]),
    }
}

pub fn bandwidths() -> Vec<Bandwidth> {
    rows(BANDWIDTHS)
        .map(|f| Bandwidth {
            id: f[0].to_string(),
            cell: cell(&f[1..5]),
            paper_mb_s: num(f[5]),
            tolerance: num(f[6]),
        })
        .collect()
}

pub fn orderings() -> Vec<Ordering> {
    rows(ORDERINGS)
        .map(|f| Ordering {
            finding: num(f[0]),
            claim: f[1].to_string(),
            num: cell(&f[2..6]),
            den: cell(&f[6..10]),
            min: num(f[10]),
            max: (f[11] != "-").then(|| num(f[11])),
        })
        .collect()
}

/// Every supported `(machine, op)` surface, in file order.
pub fn surfaces() -> Vec<(&'static str, SweepOp)> {
    rows(SURFACES)
        .map(|f| {
            (
                f[0],
                SweepOp::parse(f[1]).expect("surface list names known operations"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_have_the_documented_sizes() {
        assert_eq!(bandwidths().len(), 28);
        assert_eq!(surfaces().len(), 34);
        let findings: std::collections::BTreeSet<u32> =
            orderings().iter().map(|o| o.finding).collect();
        assert_eq!(
            findings.into_iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn orderings_read_cells_of_the_quick_grid() {
        let grid = gasnub::core::Grid::quick();
        for o in orderings() {
            for c in [&o.num, &o.den] {
                assert!(grid.working_sets.contains(&c.ws), "{}: {c}", o.claim);
                assert!(grid.strides.contains(&c.stride), "{}: {c}", o.claim);
            }
        }
    }
}

//! Times the warm priming pass of every zoo machine's local probes at the
//! benchmark grid's large cells (512 KiB, 4 MiB and 8 MiB working sets,
//! strides 1, 2, 8, 16 and 64, `MeasureLimits::fast()` caps) and reports,
//! per machine and working set, the prime's wall time per access, the
//! share of its accesses the fast-forward replayed instead of simulating,
//! and the wall time per access of the literal (`--cold`) prime, which
//! simulates every access.
//! SMP machines get one more row per working set: the producer pass that
//! `pull` and `fetch` cells run before the consumer reads (a stride-1
//! store pass).
//!
//! ```sh
//! cargo run --release --example prime_profile -- [REPEATS]
//! ```
//!
//! Each trace is primed `REPEATS` times (default 3) each way on a fresh
//! engine; a row's time is the sum over its traces of each trace's
//! fastest run.

use std::path::Path;
use std::time::Instant;

use gasnub::machines::{MachineSpec, MeasureLimits};
use gasnub::memsim::trace::{CopyPass, StorePass, StridedPass};
use gasnub::memsim::{Access, MemoryEngine, NodeConfig};

/// Accesses, accesses replayed and the seconds of the warm and the
/// literal prime, summed over a row's traces.
#[derive(Default, Clone, Copy)]
struct Row {
    accesses: u64,
    replayed: u64,
    seconds: f64,
    literal_seconds: f64,
}

impl Row {
    /// Primes `trace` `repeats` times each way on fresh engines for
    /// `node`, adding its length, its replayed share and its fastest
    /// times.
    fn add(&mut self, node: &NodeConfig, trace: &[Access], repeats: u32) {
        let mut best = [f64::INFINITY; 2];
        let mut replayed = 0;
        for _ in 0..repeats {
            for (literal, best) in [false, true].into_iter().zip(&mut best) {
                let mut engine = MemoryEngine::new(node.clone());
                let start = Instant::now();
                engine.prime(trace.iter().copied(), literal);
                *best = best.min(start.elapsed().as_secs_f64());
                if !literal {
                    replayed = engine.replayed_accesses();
                }
            }
        }
        self.accesses += trace.len() as u64;
        self.replayed += replayed;
        self.seconds += best[0];
        self.literal_seconds += best[1];
    }

    fn merge(&mut self, other: Row) {
        self.accesses += other.accesses;
        self.replayed += other.replayed;
        self.seconds += other.seconds;
        self.literal_seconds += other.literal_seconds;
    }

    fn print(&self, machine: &str, cells: &str) {
        let ns = |seconds: f64| seconds * 1e9 / self.accesses as f64;
        println!(
            "{machine:<9} {cells:<17} {:>14} {:>10.2} {:>8.1}% {:>10.2}",
            self.accesses,
            ns(self.seconds),
            100.0 * self.replayed as f64 / self.accesses as f64,
            ns(self.literal_seconds)
        );
    }
}

fn main() {
    let repeats: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("REPEATS must be a number"))
        .unwrap_or(3);
    let limits = MeasureLimits::fast();
    let zoo = Path::new(env!("CARGO_MANIFEST_DIR")).join("machines/zoo");
    let mut files: Vec<_> = std::fs::read_dir(zoo)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    println!("machine   cells             prime_accesses  ns/access  replayed    literal");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let spec = MachineSpec::from_spec_str(&text).unwrap();
        let node = spec.node_config();
        let label = spec.label();
        let mut total = Row::default();
        let mut producer = Vec::new();
        for ws in [512u64 << 10, 4 << 20, 8 << 20] {
            let words = ws / 8;
            let primed = limits.prime_words(words) as usize;
            let mut row = Row::default();
            for stride in [1u64, 2, 8, 16, 64] {
                let traces: [Vec<Access>; 4] = [
                    StridedPass::new(0, words, stride).take(primed).collect(),
                    StorePass::new(0, words, stride).take(primed).collect(),
                    CopyPass::new(0, 1 << 32, words, stride, 1)
                        .take(2 * primed)
                        .collect(),
                    CopyPass::new(0, 1 << 32, words, 1, stride)
                        .take(2 * primed)
                        .collect(),
                ];
                for trace in traces {
                    row.add(node, &trace, repeats);
                }
            }
            row.print(label, &format!("local {} KiB", ws >> 10));
            total.merge(row);
            if spec.model_family() == "smp" {
                let produce: Vec<Access> = StorePass::new(0, words, 1).take(primed).collect();
                let mut row = Row::default();
                row.add(node, &produce, repeats);
                producer.push((ws, row));
            }
        }
        total.print(label, "local, all");
        for (ws, row) in producer {
            row.print(label, &format!("producer {} KiB", ws >> 10));
        }
    }
}

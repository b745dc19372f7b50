//! Times the warm priming pass of every zoo machine's local probes at the
//! benchmark grid's large cells (512 KiB and 8 MiB working sets, strides
//! 1, 2, 8, 16 and 64, `MeasureLimits::fast()` caps) and reports, per
//! machine, the prime's wall time per access and the share of its
//! accesses the fast-forward replayed instead of simulating.
//!
//! ```sh
//! cargo run --release --example prime_profile -- [REPEATS]
//! ```
//!
//! Each cell is primed `REPEATS` times (default 3) on a fresh engine; the
//! per-machine time is the sum over cells of each cell's fastest run.

use std::path::Path;
use std::time::Instant;

use gasnub::machines::{MachineSpec, MeasureLimits};
use gasnub::memsim::trace::{CopyPass, StorePass, StridedPass};
use gasnub::memsim::{Access, MemoryEngine};

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
    println!("machine   prime_accesses  ns/access  replayed");
    for file in files {
        let spec = MachineSpec::from_spec_str(&std::fs::read_to_string(&file).unwrap()).unwrap();
        let (mut accesses, mut replayed, mut seconds) = (0u64, 0u64, 0f64);
        for ws in [512u64 << 10, 8 << 20] {
            for stride in [1u64, 2, 8, 16, 64] {
                let words = ws / 8;
                let primed = limits.prime_words(words) as usize;
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
                    let mut best = f64::INFINITY;
                    for _ in 0..repeats {
                        let mut engine = MemoryEngine::new(spec.node_config().clone());
                        let start = Instant::now();
                        engine.prime_trace(trace.iter().copied());
                        best = best.min(start.elapsed().as_secs_f64());
                        replayed += engine.replayed_accesses();
                    }
                    accesses += trace.len() as u64 * u64::from(repeats);
                    seconds += best * f64::from(repeats);
                }
            }
        }
        println!(
            "{:<9} {:>14} {:>10.2} {:>8.1}%",
            spec.label(),
            accesses / u64::from(repeats),
            seconds * 1e9 / accesses as f64,
            100.0 * replayed as f64 / accesses as f64
        );
    }
}

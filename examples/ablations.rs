//! Runs the ablation suite: each hardware mechanism the paper credits,
//! switched off, with the bandwidth it was worth.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use gasnub_bench::ablations;

fn main() {
    print!("{}", ablations::render(&ablations::run_all()));
}

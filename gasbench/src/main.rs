//! `gasbench`: the in-process half of the benchmark. `run.py` builds it,
//! drives the `gasnub` binary for the timed sections, and calls these
//! subcommands for checks, the serve client and the traced run. Each
//! subcommand prints one JSON object on stdout.
//!
//! ```text
//! gasbench check-sweeps --tier sim|auto --dir DIR --seed N --latencies-ms A,B,..
//! gasbench serve-load --addr HOST:PORT --seed N --seconds S --work DIR
//! gasbench layers --workload NAME --work DIR
//! ```

mod http;
mod layers;
mod mix;
mod offline;
mod out;
mod reference;
mod serve_load;
mod sweeps;

use std::path::Path;

fn usage(message: &str) -> ! {
    eprintln!("gasbench: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage("expected check-sweeps, serve-load or layers")
    };
    let flag = |name: &str| -> &str {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{command} needs {name}")))
    };
    let number = |name: &str| -> u64 {
        flag(name)
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} takes a whole number")))
    };
    let report = match command.as_str() {
        "check-sweeps" => {
            let tier = flag("--tier");
            if !matches!(tier, "sim" | "auto") {
                usage("--tier must be sim or auto");
            }
            let latencies: Vec<f64> = flag("--latencies-ms")
                .split(',')
                .map(|v| v.parse().unwrap_or_else(|_| usage("bad --latencies-ms")))
                .collect();
            sweeps::run(tier, Path::new(flag("--dir")), number("--seed"), &latencies)
        }
        "serve-load" => {
            let seconds: f64 = flag("--seconds")
                .parse()
                .unwrap_or_else(|_| usage("--seconds takes a number"));
            serve_load::run(
                flag("--addr"),
                number("--seed"),
                seconds,
                Path::new(flag("--work")),
            )
        }
        "layers" => {
            let workload = flag("--workload");
            if !matches!(workload, "first-touch" | "tier-auto" | "serve-mixed") {
                usage(&format!("unknown workload {workload:?}"));
            }
            layers::run(workload, Path::new(flag("--work"))).unwrap_or_else(out::failure)
        }
        other => usage(&format!("unknown subcommand {other:?}")),
    };
    println!("{}", report.render());
}

//! Load-tests the characterization server and records BENCH_10
//! (`BENCH_10.json`): serving throughput and latency percentiles under a
//! seeded mixed hit/miss request stream, plus the BENCH_9-comparable
//! offline warm-path columns so the serving PR's perf gate can prove the
//! warm sweep path did not regress.
//!
//! Usage: `serve_load [--clients N] [--requests N] [--quick]
//!         [--check BASELINE.json] [OUT.json]`
//!
//! The server runs in-process on an ephemeral port with a scratch state
//! directory. Each client thread replays a seeded stream of requests —
//! mostly repeated probes (warm memo hits), some shared small-grid sweeps
//! (cache hits and coalesces after the first), and a trickle of
//! unique-grid sweeps (guaranteed misses) — and records one wall-clock
//! latency per request. Percentiles are computed over the merged stream.
//!
//! `--check` compares the fresh offline warm columns against a committed
//! BENCH_9 baseline and exits non-zero when one drops more than 20% below
//! it (same floor and retry discipline as `perf_baseline --check`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use gasnub_bench::SERVE_MIX_TENTHS;
use gasnub_core::json::Json;
use gasnub_core::{Grid, ResilientSweep, SweepOp};
use gasnub_machines::{MachineSpec, MeasureLimits, TransferEngine};
use gasnub_memsim::rng::Rng;
use gasnub_serve::{ServeConfig, Server};

/// The perf gate: fail `--check` when a guarded warm column drops below
/// this fraction of the committed baseline.
const CHECK_FLOOR: f64 = 0.8;

/// The offline columns the serving PR must not regress.
const GUARDED: [&str; 2] = ["warm_first_cells_per_sec_1t", "warm_memo_cells_per_sec_1t"];

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gasnub-serve-load-{}-{tag}", std::process::id()))
}

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gasnub\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response reads");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line parses");
    (status, body.to_string())
}

const MACHINES: [&str; 3] = ["t3d", "t3e", "dec8400"];

/// One seeded request: the JSON body and which endpoint it targets.
/// In the shares of [`SERVE_MIX_TENTHS`]: probes over a small key space
/// (warm memo hits after the first pass), sweeps of two shared grids
/// (cache hits / coalesces), and sweeps of a grid unique to
/// (client, index) — guaranteed misses.
fn next_request(rng: &mut Rng, client: u64, index: u64) -> (&'static str, String) {
    let [probes, shared, _unique] = SERVE_MIX_TENTHS;
    let machine = MACHINES[rng.gen_range(0, MACHINES.len() as u64) as usize];
    let draw = rng.gen_range(0, 10);
    if draw < probes {
        let ws = 2048u64 << rng.gen_range(0, 5); // 2K..32K
        let stride = 1u64 << rng.gen_range(0, 4); // 1..8
        (
            "/v1/probe",
            format!(r#"{{"machine":"{machine}","op":"load","ws_bytes":{ws},"stride":{stride}}}"#),
        )
    } else if draw < probes + shared {
        // One of two shared grids: computed once, then memory hits.
        let grid = if rng.gen_bool(0.5) {
            r#"{"strides":[1,8],"working_sets":[2048,32768]}"#
        } else {
            r#"{"strides":[1,2,64],"working_sets":[2048,32768]}"#
        };
        (
            "/v1/sweep",
            format!(r#"{{"grid":{grid},"machine":"{machine}","op":"store"}}"#),
        )
    } else {
        // A grid no other request asks for: always a fresh computation.
        let k = client * 10_000 + index;
        (
            "/v1/sweep",
            format!(
                r#"{{"grid":{{"strides":[1,{}],"working_sets":[2048,{}]}},"machine":"{machine}","op":"load"}}"#,
                2 + k % 61,
                32_768 + 1024 * (k % 97)
            ),
        )
    }
}

/// Latency percentile (already-sorted input), in microseconds.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the load phase: boots the server, fans out `clients` threads
/// replaying `requests` seeded requests each, merges latencies.
fn load_phase(clients: u64, requests: u64) -> Json {
    let state_dir = scratch("state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::bind(ServeConfig::new("127.0.0.1:0", &state_dir)).expect("server binds");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());

    eprintln!("load: {clients} clients x {requests} requests against {addr} ...");
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            std::thread::spawn(move || {
                let mut rng = Rng::new(0xBEEF).fork(client);
                let mut latencies = Vec::with_capacity(requests as usize);
                let (mut probes, mut sweeps) = (0u64, 0u64);
                for index in 0..requests {
                    let (path, body) = next_request(&mut rng, client, index);
                    if path == "/v1/probe" {
                        probes += 1;
                    } else {
                        sweeps += 1;
                    }
                    let t0 = Instant::now();
                    let (status, response) = http(addr, "POST", path, &body);
                    latencies.push(t0.elapsed().as_micros() as u64);
                    assert_eq!(status, 200, "load request failed: {body} -> {response}");
                }
                (latencies, probes, sweeps)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let (mut probes, mut sweeps) = (0u64, 0u64);
    for worker in workers {
        let (lat, p, s) = worker.join().expect("client thread joins");
        latencies.extend(lat);
        probes += p;
        sweeps += s;
    }
    let wall = start.elapsed().as_secs_f64();

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    let _ = http(addr, "POST", "/v1/shutdown", "");
    let report = server.join().expect("server thread joins");
    let _ = std::fs::remove_dir_all(&state_dir);

    let counters = Json::parse(&metrics).expect("metrics is valid JSON");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let computed = counter("serve.sweeps_computed");
    let reused = counter("serve.sweep_cache_hits_memory")
        + counter("serve.sweep_cache_hits_disk")
        + counter("serve.sweeps_coalesced");
    eprintln!(
        "load: {total} requests in {wall:.2}s ({:.1} req/s), \
         {computed} surfaces computed, {reused} reused",
        total as f64 / wall
    );
    // The shutdown report and /metrics must agree on what was served.
    assert_eq!(report.get("serve.sweeps"), counter("serve.sweeps"));

    Json::object([
        ("clients", Json::U64(clients)),
        ("requests", Json::U64(total)),
        ("probes", Json::U64(probes)),
        ("sweeps", Json::U64(sweeps)),
        ("sweeps_computed", Json::U64(computed)),
        ("sweeps_reused", Json::U64(reused)),
        ("memo_hits", Json::U64(counter("memo.hits"))),
        (
            "throughput_req_per_sec",
            Json::Str(format!("{:.1}", total as f64 / wall)),
        ),
        ("p50_micros", Json::U64(percentile(&latencies, 50.0))),
        ("p95_micros", Json::U64(percentile(&latencies, 95.0))),
        ("p99_micros", Json::U64(percentile(&latencies, 99.0))),
        (
            "queue_depth_peak",
            Json::U64(counter("serve.queue_depth_peak")),
        ),
    ])
}

/// One complete 1-thread resilient sweep; returns cells/sec (the BENCH_9
/// definition: default runner, checkpoint write per cell, fsync batched).
fn sweep_rate(spec: &MachineSpec, grid: &Grid) -> f64 {
    let path = scratch("offline.json");
    let _ = std::fs::remove_file(&path);
    let start = Instant::now();
    let probe = |m: &mut TransferEngine, ws: u64, s: u64| SweepOp::LocalLoad.measure(m, ws, s);
    let outcome = ResilientSweep::new(&path)
        .run_parallel("serve-load offline reference", grid, 1, spec, probe)
        .expect("the offline sweep must succeed");
    let secs = start.elapsed().as_secs_f64();
    assert!(outcome.is_complete(), "the offline sweep must complete");
    let _ = std::fs::remove_file(&path);
    grid.cells() as f64 / secs
}

fn best_rate(rounds: u32, spec: &MachineSpec, grid: &Grid, prep: impl Fn()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..rounds {
        prep();
        best = best.max(sweep_rate(spec, grid));
    }
    best
}

/// The BENCH_9-comparable offline warm columns, re-measured so `--check`
/// can prove the serving layer left the warm sweep path intact.
fn offline_columns(grid: &Grid) -> Json {
    let warm_fresh = || {
        gasnub_memsim::set_cold_path(false);
        gasnub_machines::memo::clear();
    };
    let warm_memo = || gasnub_memsim::set_cold_path(false);
    let mut machines = std::collections::BTreeMap::new();
    for (label, spec) in [
        ("dec8400", MachineSpec::dec8400()),
        ("t3d", MachineSpec::t3d()),
        ("t3e", MachineSpec::t3e()),
    ] {
        let spec = spec.with_limits(MeasureLimits::fast());
        eprintln!("offline: measuring {label} ({} cells) ...", grid.cells());
        // More rounds than perf_baseline uses: a memoized sweep of this
        // grid takes single-digit milliseconds, so the best-of statistic
        // needs a bigger sample to shake off scheduler noise before the
        // 20%-of-BENCH_9 gate judges it.
        let warm_first = best_rate(6, &spec, grid, warm_fresh);
        // The memo is populated by the warm-first rounds; these rounds are
        // all steady-state hits.
        let memoized = best_rate(10, &spec, grid, warm_memo);
        machines.insert(
            label.to_string(),
            Json::object([
                (
                    "warm_first_cells_per_sec_1t",
                    Json::Str(format!("{warm_first:.1}")),
                ),
                (
                    "warm_memo_cells_per_sec_1t",
                    Json::Str(format!("{memoized:.1}")),
                ),
            ]),
        );
    }
    Json::Object(machines)
}

/// Compares fresh offline columns against a committed BENCH_9 baseline;
/// returns the number of guarded columns below [`CHECK_FLOOR`].
fn check_against(machines: &Json, baseline_path: &str) -> usize {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("serve-check: no baseline at {baseline_path}; skipping (warn-only first run)");
        return 0;
    };
    let Ok(baseline) = Json::parse(&text) else {
        eprintln!("serve-check: baseline {baseline_path} is not valid JSON; skipping");
        return 0;
    };
    let column = |doc: &Json, machine: &str, key: &str| -> Option<f64> {
        doc.get(machine)?.get(key)?.as_str()?.parse().ok()
    };
    let mut regressions = 0;
    for machine in MACHINES {
        for key in GUARDED {
            let was = baseline
                .get("machines")
                .and_then(|m| column(m, machine, key));
            let now = column(machines, machine, key);
            let (Some(was), Some(now)) = (was, now) else {
                eprintln!("serve-check: {machine}.{key} missing; skipping");
                continue;
            };
            let floor = was * CHECK_FLOOR;
            if now < floor {
                eprintln!(
                    "serve-check: REGRESSION {machine}.{key}: {now:.1} < {floor:.1} \
                     (baseline {was:.1}, floor {:.0}%)",
                    CHECK_FLOOR * 100.0
                );
                regressions += 1;
            } else {
                eprintln!("serve-check: ok {machine}.{key}: {now:.1} vs baseline {was:.1}");
            }
        }
    }
    regressions
}

fn main() {
    let mut clients = 4u64;
    let mut requests = 150u64;
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a number")
            }
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number")
            }
            "--quick" => {
                clients = 2;
                requests = 25;
            }
            "--check" => check = Some(args.next().expect("--check needs a baseline path")),
            other => out = Some(other.to_string()),
        }
    }

    let grid = Grid::quick();
    let serve = load_phase(clients, requests);
    let mut machines = offline_columns(&grid);

    if let Some(baseline) = &check {
        // Best-of-N absorbs most host noise; a real regression is stable,
        // noise is not — re-measure a failing check up to twice.
        let mut regressions = check_against(&machines, baseline);
        for attempt in 0..2 {
            if regressions == 0 {
                break;
            }
            eprintln!(
                "serve-check: {regressions} regression(s); re-measuring (retry {})",
                attempt + 1
            );
            machines = offline_columns(&grid);
            regressions = check_against(&machines, baseline);
        }
        if regressions > 0 {
            eprintln!("serve-check: {regressions} regression(s) after retries");
            std::process::exit(1);
        }
        eprintln!("serve-check: pass");
    }

    let report = Json::object([
        ("bench", Json::U64(10)),
        (
            "grid",
            Json::object([
                ("cells", Json::U64(grid.cells() as u64)),
                (
                    "strides",
                    Json::Array(grid.strides.iter().map(|&s| Json::U64(s)).collect()),
                ),
                (
                    "working_sets",
                    Json::Array(grid.working_sets.iter().map(|&w| Json::U64(w)).collect()),
                ),
            ]),
        ),
        ("threads", Json::U64(1)),
        ("serve", serve),
        ("machines", machines),
    ]);
    let rendered = format!("{}\n", report.render());
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered).expect("output must be writable");
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
}

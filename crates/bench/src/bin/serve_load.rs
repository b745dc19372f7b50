//! Load-tests the characterization server and records BENCH_10
//! (`BENCH_10.json`): serving throughput and latency percentiles under a
//! seeded mixed hit/miss request stream.
//!
//! Usage: `serve_load [--clients N] [--requests N] [--quick] [OUT.json]`
//!
//! The server runs in-process on an ephemeral port with a scratch state
//! directory. Each client thread replays a seeded stream of requests —
//! mostly repeated probes (warm memo hits), some shared small-grid sweeps
//! (cache hits and coalesces after the first), and a trickle of
//! unique-grid sweeps (guaranteed misses) — and records one wall-clock
//! latency per request. Percentiles are computed over the merged stream.
//! Every request must return 200, and the `/metrics` and shutdown-report
//! counters must agree; either failure panics. The offline warm-path
//! columns are `perf_baseline`'s to record and gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use gasnub_bench::SERVE_MIX_TENTHS;
use gasnub_core::json::Json;
use gasnub_memsim::rng::Rng;
use gasnub_serve::{ServeConfig, Server};

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
    let state_dir =
        std::env::temp_dir().join(format!("gasnub-serve-load-{}-state", std::process::id()));
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

fn main() {
    let mut clients = 4u64;
    let mut requests = 150u64;
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
            flag if flag.starts_with("--") => {
                eprintln!("serve_load: unknown flag {flag}");
                std::process::exit(2);
            }
            path => out = Some(path.to_string()),
        }
    }

    let report = Json::object([
        ("bench", Json::U64(10)),
        ("serve", load_phase(clients, requests)),
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

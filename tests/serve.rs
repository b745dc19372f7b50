//! Black-box tests for the characterization server: byte-identity with
//! offline checkpoints, compute-once coalescing, stable error shapes, the
//! `gasnub serve` binary, and the warm-path counter contract.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gasnub::core::storage::read_verified;
use gasnub::serve::{ServeConfig, Server};

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gasnub-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Boots an in-process server on an ephemeral port; the accept loop runs
/// on a background thread until [`shutdown`].
fn boot(state_dir: &std::path::Path) -> SocketAddr {
    let server = Server::bind(ServeConfig::new("127.0.0.1:0", state_dir)).expect("server binds");
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());
    addr
}

fn shutdown(addr: SocketAddr) {
    let _ = http(addr, "POST", "/v1/shutdown", "");
}

/// A minimal HTTP/1.1 client: one request per connection
/// (`Connection: close`), returning status, lowercased headers and body.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
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
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line parses");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// One keep-alive request on an open connection: no `Connection` header
/// (HTTP/1.1 keeps the connection open by default); returns the status and
/// the `Content-Length` body.
fn keep_alive_request(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gasnub\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    reader
        .get_mut()
        .write_all(request.as_bytes())
        .expect("request writes");
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .expect("status line reads");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line reads");
        if line == "\r\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().expect("content-length parses");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body reads");
    (status, String::from_utf8(body).expect("body is UTF-8"))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The named counter out of a flat JSON object like `/metrics` returns.
fn counter(metrics_body: &str, name: &str) -> u64 {
    let doc = gasnub::core::json::Json::parse(metrics_body).expect("metrics is valid JSON");
    doc.get(name)
        .and_then(gasnub::core::json::Json::as_u64)
        .unwrap_or_else(|| panic!("metrics must carry {name}: {metrics_body}"))
}

/// ISSUE satellite (a): a served sweep body is byte-identical to the
/// payload of an offline `gasnub sweep` checkpoint of the same
/// (machine, grid, tier) — both are the canonical checkpoint bytes.
#[test]
fn sweep_response_is_byte_identical_to_offline_checkpoint() {
    let dir = scratch("identity");
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    let offline = dir.join("offline.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
        .args(["sweep", "t3d", "load", "--checkpoint"])
        .arg(&offline)
        .output()
        .expect("the gasnub binary must spawn");
    assert!(
        out.status.success(),
        "offline sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let offline_payload = read_verified(&offline)
        .expect("offline checkpoint verifies")
        .expect("offline checkpoint exists");

    let addr = boot(&dir.join("state"));
    // No "grid" field: the server defaults to the same quick grid the
    // offline `sweep` subcommand uses.
    let body = r#"{"machine":"t3d","op":"load"}"#;
    let (status, headers, served) = http(addr, "POST", "/v1/sweep", body);
    assert_eq!(status, 200, "sweep must succeed: {served}");
    assert_eq!(header(&headers, "x-gasnub-source"), Some("computed"));
    assert_eq!(
        served, offline_payload,
        "served sweep must be byte-identical to the offline checkpoint payload"
    );

    // A repeat is a memory-cache hit with the exact same bytes.
    let (status, headers, again) = http(addr, "POST", "/v1/sweep", body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gasnub-source"), Some("memory"));
    assert_eq!(again, offline_payload);
    shutdown(addr);
}

/// ISSUE satellite (b): two concurrent identical requests return identical
/// bodies and the counters show the surface was computed exactly once.
#[test]
fn concurrent_identical_sweeps_compute_once() {
    let dir = scratch("coalesce");
    let addr = boot(&dir);
    let body = r#"{"machine":"t3e","op":"fetch","grid":{"strides":[1,8,64],"working_sets":[2048,32768,524288]}}"#;
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                http(addr, "POST", "/v1/sweep", body)
            })
        })
        .collect();
    let responses: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread joins"))
        .collect();

    for (status, _, body) in &responses {
        assert_eq!(*status, 200, "both requests must succeed: {body}");
    }
    assert_eq!(
        responses[0].2, responses[1].2,
        "concurrent identical requests must return identical bodies"
    );

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        counter(&metrics, "serve.sweeps_computed"),
        1,
        "the surface must be computed exactly once: {metrics}"
    );
    assert_eq!(counter(&metrics, "serve.sweeps"), 2);
    // The follower either coalesced onto the leader's in-flight run or
    // (if it arrived after completion) hit the memory cache.
    assert_eq!(
        counter(&metrics, "serve.sweeps_coalesced")
            + counter(&metrics, "serve.sweep_cache_hits_memory"),
        1,
        "the second request must reuse the first: {metrics}"
    );
    shutdown(addr);
}

/// ISSUE satellite (c): malformed JSON, unknown machines and bad grids map
/// to structured 4xx responses with stable shapes.
#[test]
fn malformed_requests_return_stable_4xx_shapes() {
    let dir = scratch("errors");
    let addr = boot(&dir);
    let cases: &[(&str, &str, &str, u16, &str)] = &[
        ("POST", "/v1/sweep", "{not json", 400, "bad_json"),
        ("POST", "/v1/sweep", "[1,2,3]", 400, "bad_json"),
        ("POST", "/v1/sweep", r#"{"op":"load"}"#, 400, "bad_request"),
        (
            "POST",
            "/v1/sweep",
            r#"{"machine":"paragon","op":"load"}"#,
            404,
            "unknown_machine",
        ),
        (
            "POST",
            "/v1/sweep",
            r#"{"machine":"t3d","op":"teleport"}"#,
            400,
            "unknown_op",
        ),
        (
            "POST",
            "/v1/sweep",
            r#"{"machine":"t3d","op":"load","tier":"warp"}"#,
            400,
            "bad_tier",
        ),
        (
            "POST",
            "/v1/sweep",
            r#"{"machine":"t3d","op":"load","grid":{"strides":[8,1],"working_sets":[2048]}}"#,
            400,
            "bad_grid",
        ),
        (
            "POST",
            "/v1/probe",
            r#"{"machine":"t3d","op":"load","ws_bytes":1}"#,
            400,
            "bad_request",
        ),
        ("GET", "/v1/teapot", "", 404, "unknown_endpoint"),
        ("GET", "/v1/sweep", "", 405, "method_not_allowed"),
    ];
    for &(method, path, body, want_status, want_code) in cases {
        let (status, _, response) = http(addr, method, path, body);
        assert_eq!(
            status, want_status,
            "{method} {path} with {body:?}: {response}"
        );
        let doc = gasnub::core::json::Json::parse(&response).expect("error body is valid JSON");
        let error = doc.get("error").expect("error body has an \"error\" key");
        assert_eq!(
            error.get("code").and_then(gasnub::core::json::Json::as_str),
            Some(want_code),
            "{method} {path} with {body:?}: {response}"
        );
        assert_eq!(
            error
                .get("status")
                .and_then(gasnub::core::json::Json::as_u64),
            Some(u64::from(want_status))
        );
        assert!(
            error
                .get("detail")
                .and_then(gasnub::core::json::Json::as_str)
                .is_some_and(|d| !d.is_empty()),
            "errors must carry a human-readable detail: {response}"
        );
    }
    // Unknown machines get the registry's full "expected ..." list, the
    // same detail the CLI prints.
    let (_, _, response) = http(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"machine":"paragon","op":"load"}"#,
    );
    assert!(
        response.contains("expected"),
        "unknown machine must list resolvable names: {response}"
    );
    shutdown(addr);
}

/// The `gasnub serve` binary boots, prints a parseable address line,
/// answers requests, and prints the shutdown counter report.
#[test]
fn cli_serve_boots_and_reports() {
    let dir = scratch("cli");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gasnub"))
        .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("the gasnub binary must spawn");

    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut first_line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stdout.read(&mut byte).expect("serve stdout reads");
        assert!(n > 0, "serve must print its address before closing stdout");
        if byte[0] == b'\n' {
            break;
        }
        first_line.push(byte[0]);
    }
    let first_line = String::from_utf8(first_line).expect("address line is UTF-8");
    let addr: SocketAddr = first_line
        .strip_prefix("gasnub: serving on http://")
        .unwrap_or_else(|| panic!("unexpected boot line: {first_line}"))
        .parse()
        .expect("boot line ends in the bound address");

    let (status, _, body) = http(addr, "GET", "/v1/status", "");
    assert_eq!(status, 200, "status must answer: {body}");
    assert!(
        body.contains("\"machines\""),
        "status lists the zoo: {body}"
    );
    shutdown(addr);

    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("serve stdout drains");
    let out = child.wait().expect("serve exits after shutdown");
    assert!(out.success(), "serve must exit cleanly after shutdown");
    assert!(
        rest.lines().any(|l| l.starts_with("serving: ")
            && l.contains("serve.requests=")
            && l.contains("serve.responses_2xx=")),
        "serve must print a shutdown counter report, got: {rest:?}"
    );
}

/// The serving counter path must not force probes cold. The first of three
/// identical probes simulates and the other two hit the server's own memo
/// (observed via the memo's statistics on `/metrics`, which count nothing
/// but this server's probes) while `serve.probes` still counts every
/// request — counters and the warm path coexist.
#[test]
fn serving_probes_stay_on_the_warm_path() {
    let dir = scratch("warm");
    let addr = boot(&dir);
    let body = r#"{"machine":"dec8400","op":"store","ws_bytes":32768,"stride":2}"#;
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let (status, _, response) = http(addr, "POST", "/v1/probe", body);
        assert_eq!(status, 200, "probe must succeed: {response}");
        bodies.push(response);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "repeated probes must be deterministic: {bodies:?}"
    );
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(counter(&metrics, "serve.probes"), 3);
    let memo = ["memo.hits", "memo.misses", "memo.dropped"].map(|name| counter(&metrics, name));
    assert_eq!(
        memo,
        [2, 1, 0],
        "repeated served probes must hit the probe memo (warm path): {metrics}"
    );
    shutdown(addr);
}

/// Keep-alive responses leave in one segment on a `TCP_NODELAY` socket, so
/// sequential requests on one connection never wait on a delayed ACK (about
/// 40 ms each, which would put 40 probes at 1.6 s or more).
#[test]
fn keep_alive_connection_serves_many_requests_without_stall() {
    let dir = scratch("keepalive");
    let addr = boot(&dir);
    let bodies: Vec<String> = [2048u64, 16_384, 131_072, 1_048_576]
        .iter()
        .map(|ws| format!(r#"{{"machine":"t3d","op":"load","ws_bytes":{ws},"stride":1}}"#))
        .collect();
    // Fresh-connection answers first; they also fill the probe memo, so the
    // timed session measures the wire, not the simulator.
    let fresh: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, _, response) = http(addr, "POST", "/v1/probe", body);
            assert_eq!(status, 200, "probe must succeed: {response}");
            response
        })
        .collect();

    let stream = TcpStream::connect(addr).expect("server accepts connections");
    stream.set_nodelay(true).expect("client sets TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client sets a read timeout");
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    for i in 0..40 {
        let (status, response) =
            keep_alive_request(&mut reader, "POST", "/v1/probe", &bodies[i % bodies.len()]);
        assert_eq!(status, 200, "probe {i} must succeed: {response}");
        assert_eq!(
            response,
            fresh[i % bodies.len()],
            "keep-alive probe {i} must match the fresh-connection answer"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 keep-alive probes took {elapsed:?}: responses are stalling"
    );
    shutdown(addr);
}

/// A keep-alive peer that goes quiet is closed by the server's read
/// timeout, releasing the connection's thread.
#[test]
fn idle_keep_alive_connections_are_closed() {
    let dir = scratch("idle");
    let addr = boot(&dir);
    let stream = TcpStream::connect(addr).expect("server accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client sets a read timeout");
    let mut reader = BufReader::new(stream);
    let (status, _) = keep_alive_request(&mut reader, "GET", "/v1/status", "");
    assert_eq!(status, 200);
    let idle = Instant::now();
    let mut rest = Vec::new();
    let read = reader.read_to_end(&mut rest);
    assert!(
        matches!(read, Ok(0)),
        "the server must close an idle connection cleanly, got {read:?} after {:?}",
        idle.elapsed()
    );
    assert!(
        idle.elapsed() < Duration::from_secs(30),
        "the idle close must come from the server's timeout"
    );
    shutdown(addr);
}

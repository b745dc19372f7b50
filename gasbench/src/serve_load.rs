//! The `serve-mixed` client: readiness and warm-up, two closed-loop
//! clients for the timed section, then the output checks against offline
//! answers.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use gasnub::core::json::Json;
use gasnub::core::storage::crc32;

use crate::http::{once, Conn, Response};
use crate::mix::{Class, Request, Stream, What, WARM};
use crate::offline::Offline;
use crate::out::{failure, median, nearest_rank, strs, J};
use crate::reference;

/// One completed request of the timed section.
struct Record {
    request: Request,
    keep_alive: bool,
    latency_ms: f64,
    response: Result<Response, String>,
}

/// Pause of each client between an answer and its next request: synthetic
/// pacing, not a measured client trait. It bounds each client to 500
/// requests a second however fast the server answers, so the unique-request
/// pools of the mix last a 30-second timed section. Without it the
/// per-request-connection client opened thousands of connections a second,
/// and the TIME_WAIT sockets and checkpoint files it left behind slowed
/// down the next run.
const THINK: Duration = Duration::from_millis(2);

/// Closed loop: the next request leaves only after the previous answer and
/// [`THINK`]. Client 0 keeps one connection alive; client 1 connects per
/// request.
fn client(addr: &str, seed: u64, index: usize, deadline: Instant) -> (Vec<Record>, Vec<String>) {
    let keep_alive = index == 0;
    let mut stream = Stream::new(seed, index);
    let mut conn: Option<Conn> = None;
    let mut records = Vec::new();
    let mut errors = Vec::new();
    while Instant::now() < deadline {
        let Some(request) = stream.next_request() else {
            errors.push(format!("client {index}: unique-request pool used up"));
            break;
        };
        let body = request.body();
        let start = Instant::now();
        let response = if keep_alive {
            let c = match conn.take() {
                Some(c) => Ok(c),
                None => Conn::open(addr),
            };
            c.and_then(|mut c| {
                let r = c.request("POST", request.path(), &body, true);
                if r.is_ok() {
                    conn = Some(c);
                }
                r
            })
        } else {
            once(addr, "POST", request.path(), &body)
        };
        records.push(Record {
            request,
            keep_alive,
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            response,
        });
        std::thread::sleep(THINK);
    }
    (records, errors)
}

/// Checks one response against the offline answer; `Err` names the fault.
fn check(
    off: &mut Offline,
    request: &Request,
    response: &Result<Response, String>,
) -> Result<(), String> {
    let r = response.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("status {} for {}", r.status, request.body()));
    }
    if r.source.as_deref() != request.class.expected_source() {
        return Err(format!(
            "{} answered from {:?}, the cache design requires {:?}",
            request.class.label(),
            r.source,
            request.class.expected_source()
        ));
    }
    match &request.what {
        What::Probe { ws, stride } => {
            let doc = Json::parse(r.body.trim_end()).map_err(|e| format!("probe body: {e}"))?;
            let served = doc.get("mb_s_bits").and_then(Json::as_u64);
            let offline =
                off.probe_bits(request.machine, request.op, request.tier, *ws, *stride)?;
            if served != offline {
                return Err(format!(
                    "probe {} mb_s_bits {served:?} != offline dispatch {offline:?}",
                    request.body()
                ));
            }
        }
        What::Sweep { .. } => {
            let grid = request.grid().expect("sweep requests carry a grid");
            let payload = off.sweep(request.machine, request.op, request.tier, &grid)?;
            if r.body != payload.text {
                return Err(format!(
                    "sweep {} differs from the offline checkpoint",
                    request.body()
                ));
            }
            if crc32(r.body.as_bytes()) != payload.crc {
                return Err(format!("sweep {} fails its checksum", request.body()));
            }
        }
    }
    Ok(())
}

fn post(addr: &str, request: &Request) -> Result<Response, String> {
    once(addr, "POST", request.path(), &request.body())
}

/// Runs the whole client side and reports raw results for the caller.
pub fn run(addr: &str, seed: u64, seconds: f64, work: &Path) -> J {
    let t0 = Instant::now();
    let mut errors: Vec<String> = Vec::new();
    let mut off = match Offline::new(work) {
        Ok(o) => o,
        Err(e) => return failure(e),
    };

    // Ready: the first answered status request.
    let ready = loop {
        match once(addr, "GET", "/v1/status", "") {
            Ok(r) if r.status == 200 => break true,
            _ if t0.elapsed() > Duration::from_secs(60) => break false,
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    if !ready {
        return failure(format!("server at {addr} never became ready"));
    }
    let ready_s = t0.elapsed().as_secs_f64();

    // Warm-up: every warm surface at sim and at auto. Its cells fill the
    // server's memo and its payloads the memory cache.
    let mut warm = Vec::new();
    for pair in WARM {
        for tier in ["sim", "auto"] {
            // Checked as computed: the first request for each surface.
            let mut request = Request::warm_sweep(pair, tier);
            request.class = Class::SweepComputed;
            let response = post(addr, &request);
            warm.push((request, response));
        }
    }
    let warmup_s = t0.elapsed().as_secs_f64();

    // The timed section.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (records, client_errors) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| s.spawn(move || client(addr, seed, i, deadline)))
            .collect();
        let mut records = Vec::new();
        let mut errors = Vec::new();
        for h in handles {
            let (r, e) = h.join().expect("client threads do not panic");
            records.extend(r);
            errors.extend(e);
        }
        (records, errors)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    errors.extend(client_errors);

    // The paper's quoted bandwidths through the served probe endpoint.
    let mut devs = Vec::new();
    for b in reference::bandwidths() {
        let request = Request {
            class: Class::ProbeSim,
            machine: b.cell.machine,
            op: b.cell.op,
            tier: "sim",
            what: What::Probe {
                ws: b.cell.ws,
                stride: b.cell.stride,
            },
        };
        let response = post(addr, &request);
        if let Err(e) = check(&mut off, &request, &response) {
            errors.push(format!("paper probe {}: {e}", b.id));
            continue;
        }
        let bits = off
            .probe_bits(request.machine, request.op, "sim", b.cell.ws, b.cell.stride)
            .ok()
            .flatten();
        match bits {
            Some(bits) => devs.push(b.deviation(f64::from_bits(bits))),
            None => errors.push(format!("paper probe {} is unsupported", b.id)),
        }
    }
    let metrics = match once(addr, "GET", "/metrics", "") {
        Ok(r) if r.status == 200 => Json::parse(r.body.trim_end()).ok(),
        _ => None,
    };
    if metrics.is_none() {
        errors.push("GET /metrics failed".to_string());
    }

    // Checks, outside every timed section.
    for (request, response) in &warm {
        if let Err(e) = check(&mut off, request, response) {
            errors.push(format!("warm-up: {e}"));
        }
    }
    let mut failed = 0u64;
    let mut sources: BTreeMap<(Class, String), u64> = BTreeMap::new();
    let mut cells = 0u64;
    for rec in &records {
        if let Ok(r) = &rec.response {
            let src = r.source.clone().unwrap_or_else(|| "none".to_string());
            *sources.entry((rec.request.class, src)).or_default() += 1;
        }
        cells += rec.request.grid().map_or(1, |g| g.cells() as u64);
        if let Err(e) = check(&mut off, &rec.request, &rec.response) {
            failed += 1;
            if errors.len() < 20 {
                errors.push(e);
            }
        }
    }

    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let class_p50 = |class: Class, keep_alive: Option<bool>| {
        let xs: Vec<f64> = records
            .iter()
            .filter(|r| r.request.class == class && keep_alive.is_none_or(|k| r.keep_alive == k))
            .map(|r| r.latency_ms)
            .collect();
        J::Num(median(&xs))
    };
    let mut out = J::obj();
    out.set("ready_s", J::Num(ready_s));
    out.set("warmup_s", J::Num(warmup_s));
    out.set("elapsed_s", J::Num(elapsed_s));
    out.set("attempted", J::Int(records.len() as u64));
    out.set("failed", J::Int(failed));
    out.set("errors", strs(&errors));
    out.set("cells", J::Int(cells));
    out.set("p50_ms", J::Num(median(&latencies)));
    // A tail percentile needs at least ten samples beyond it.
    let p99 = (latencies.len() >= 1000)
        .then(|| nearest_rank(&latencies, 0.99))
        .flatten();
    out.set(
        "p99_ms",
        p99.map_or(J::Str("too few requests".into()), J::Num),
    );
    out.set(
        "paper_dev_pct",
        J::Num(100.0 * devs.iter().sum::<f64>() / devs.len().max(1) as f64),
    );
    let mut per_class = J::obj();
    for class in Class::ALL {
        per_class.set(class.label(), class_p50(class, None));
    }
    out.set("class_p50_ms", per_class);
    out.set("keepalive_p50_ms", class_p50(Class::ProbeSim, Some(true)));
    out.set("new_conn_p50_ms", class_p50(Class::ProbeSim, Some(false)));
    let mut src = J::obj();
    for ((class, source), n) in &sources {
        src.set(&format!("{}.{source}", class.label()), J::Int(*n));
    }
    out.set("sources", src);
    let mut m = J::obj();
    if let Some(Json::Object(map)) = &metrics {
        for (k, v) in map {
            if let Some(n) = v.as_u64() {
                m.set(k, J::Int(n));
            }
        }
    }
    out.set("server_metrics", m);
    out
}

//! The characterization server: request parsing, surface cache,
//! in-flight coalescing, and the accept loop.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use gasnub_analytic::TieredSpec;
use gasnub_core::json::Json;
use gasnub_core::storage::read_verified;
use gasnub_core::{Grid, ResilientSweep, SweepOp};
use gasnub_machines::{
    FaultPlan, Machine, MachineRegistry, MachineSpec, MeasureLimits, ProbeTier, RunContext,
    SpawnEngine,
};
use gasnub_trace::{serving, CounterSet};

use crate::counters::ServeCounters;
use crate::http::{read_request, write_response, ReadError, Response};

/// How a served sweep payload was obtained — the value of the
/// `X-Gasnub-Source` response header.
pub mod source {
    /// A fresh computation (at least one cell was measured this run).
    pub const COMPUTED: &str = "computed";
    /// Joined an identical in-flight computation and reused its result.
    pub const COALESCED: &str = "coalesced";
    /// Served from the in-memory payload cache.
    pub const MEMORY: &str = "memory";
    /// Resumed complete from the durable checkpoint on disk (warm
    /// restart: no cell re-measured).
    pub const DISK: &str = "disk";
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The address to bind, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Directory for durable surface checkpoints (created if missing).
    pub state_dir: PathBuf,
    /// Worker threads each sweep shards its grid across.
    pub threads: usize,
    /// Tier for requests that do not name one.
    pub tier: ProbeTier,
}

impl ServeConfig {
    /// A config with 1 sweep worker and the `sim` tier as defaults.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            threads: 1,
            tier: ProbeTier::Simulate,
        }
    }

    /// Sets the sweep worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the default tier.
    pub fn with_tier(mut self, tier: ProbeTier) -> Self {
        self.tier = tier;
        self
    }
}

/// A structured client/server error: HTTP status, a stable machine-readable
/// code, and a human-readable detail. Rendered as
/// `{"error":{"code":…,"detail":…,"status":…}}`.
#[derive(Debug, Clone)]
pub struct ApiError {
    status: u16,
    code: &'static str,
    detail: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, detail: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            detail: detail.into(),
        }
    }

    fn bad_request(code: &'static str, detail: impl Into<String>) -> Self {
        ApiError::new(400, code, detail)
    }

    fn internal(detail: impl Into<String>) -> Self {
        ApiError::new(500, "internal", detail)
    }

    fn response(&self) -> Response {
        let body = Json::object([(
            "error",
            Json::object([
                ("code", Json::Str(self.code.to_string())),
                ("detail", Json::Str(self.detail.clone())),
                ("status", Json::U64(self.status as u64)),
            ]),
        )]);
        Response {
            status: self.status,
            body: format!("{}\n", body.render()),
            source: None,
        }
    }
}

/// A parsed `POST /v1/sweep` body.
#[derive(Debug)]
struct SweepParams {
    machine: String,
    op: SweepOp,
    tier: ProbeTier,
    plan: Option<FaultPlan>,
    grid: Grid,
}

/// A parsed `POST /v1/probe` body.
struct ProbeParams {
    machine: String,
    op: SweepOp,
    tier: ProbeTier,
    plan: Option<FaultPlan>,
    ws_bytes: u64,
    stride: u64,
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_json", "body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ApiError::bad_request("bad_json", format!("body is not valid JSON: {e}")))?;
    if !matches!(doc, Json::Object(_)) {
        return Err(ApiError::bad_request("bad_json", "body must be an object"));
    }
    Ok(doc)
}

fn required_str<'a>(doc: &'a Json, field: &str) -> Result<&'a str, ApiError> {
    doc.get(field).and_then(Json::as_str).ok_or_else(|| {
        ApiError::bad_request(
            "bad_request",
            format!("field {field:?} is required and must be a string"),
        )
    })
}

fn optional_u64(doc: &Json, field: &str) -> Result<Option<u64>, ApiError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(
                "bad_request",
                format!("field {field:?} must be an unsigned integer"),
            )
        }),
    }
}

fn parse_op(doc: &Json) -> Result<SweepOp, ApiError> {
    let label = required_str(doc, "op")?;
    SweepOp::parse(label).ok_or_else(|| {
        ApiError::bad_request(
            "unknown_op",
            format!(
                "unknown operation {label:?} (expected load, store, copy-loads, \
                 copy-stores, pull, fetch or deposit)"
            ),
        )
    })
}

fn parse_tier(doc: &Json, default: ProbeTier) -> Result<ProbeTier, ApiError> {
    match doc.get("tier") {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let label = v.as_str().ok_or_else(|| {
                ApiError::bad_request("bad_tier", "field \"tier\" must be a string")
            })?;
            ProbeTier::parse(label).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_tier",
                    format!("tier must be auto, analytic or sim, got {label:?}"),
                )
            })
        }
    }
}

/// The optional fault plan: `seed` and/or `severity_ppm` (parts per
/// million, since the JSON subset has no floats). Absent both → healthy.
fn parse_plan(doc: &Json) -> Result<Option<FaultPlan>, ApiError> {
    let seed = optional_u64(doc, "seed")?;
    let ppm = optional_u64(doc, "severity_ppm")?;
    if seed.is_none() && ppm.is_none() {
        return Ok(None);
    }
    let severity = ppm.unwrap_or(500_000) as f64 / 1e6;
    FaultPlan::new(seed.unwrap_or(0), severity)
        .map(Some)
        .map_err(|e| ApiError::bad_request("bad_request", format!("bad fault plan: {e}")))
}

/// Largest accepted grid (cells), keeping one request's work bounded.
const MAX_GRID_CELLS: usize = 4096;

fn parse_axis(doc: &Json, field: &str, min: u64, max: u64) -> Result<Vec<u64>, ApiError> {
    let bad = |detail: String| ApiError::bad_request("bad_grid", detail);
    let items = doc
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("grid field {field:?} must be an array")))?;
    if items.is_empty() {
        return Err(bad(format!("grid field {field:?} must not be empty")));
    }
    let mut axis = Vec::with_capacity(items.len());
    for item in items {
        let v = item
            .as_u64()
            .ok_or_else(|| bad(format!("grid field {field:?} must hold unsigned integers")))?;
        if v < min || v > max {
            return Err(bad(format!(
                "grid field {field:?} values must be in [{min}, {max}], got {v}"
            )));
        }
        if axis.last().is_some_and(|&prev| prev >= v) {
            return Err(bad(format!(
                "grid field {field:?} must be strictly ascending"
            )));
        }
        axis.push(v);
    }
    Ok(axis)
}

/// The request's grid, or [`Grid::quick`] when absent — the same default
/// the offline `sweep` subcommand uses, so default served surfaces are
/// byte-identical to default offline checkpoints.
fn parse_grid(doc: &Json) -> Result<Grid, ApiError> {
    let grid_doc = match doc.get("grid") {
        None | Some(Json::Null) => return Ok(Grid::quick()),
        Some(g) => {
            if !matches!(g, Json::Object(_)) {
                return Err(ApiError::bad_request(
                    "bad_grid",
                    "field \"grid\" must be an object with \"strides\" and \"working_sets\"",
                ));
            }
            g
        }
    };
    let strides = parse_axis(grid_doc, "strides", 1, 16_384)?;
    let working_sets = parse_axis(grid_doc, "working_sets", 1024, 1 << 30)?;
    let grid = Grid {
        strides,
        working_sets,
    };
    if grid.cells() > MAX_GRID_CELLS {
        return Err(ApiError::bad_request(
            "bad_grid",
            format!("grid has {} cells, max {MAX_GRID_CELLS}", grid.cells()),
        ));
    }
    Ok(grid)
}

fn parse_sweep(body: &[u8], default_tier: ProbeTier) -> Result<SweepParams, ApiError> {
    let doc = parse_body(body)?;
    let machine = required_str(&doc, "machine")?.to_string();
    let op = parse_op(&doc)?;
    let plan = parse_plan(&doc)?;
    let mut tier = parse_tier(&doc, default_tier)?;
    // Like the CLI: analytic models cover healthy installations only, so a
    // fault plan forces simulation (and the checkpoint title records it).
    if plan.is_some() {
        tier = ProbeTier::Simulate;
    }
    let grid = parse_grid(&doc)?;
    Ok(SweepParams {
        machine,
        op,
        tier,
        plan,
        grid,
    })
}

fn parse_probe(body: &[u8], default_tier: ProbeTier) -> Result<ProbeParams, ApiError> {
    let doc = parse_body(body)?;
    let machine = required_str(&doc, "machine")?.to_string();
    let op = parse_op(&doc)?;
    let plan = parse_plan(&doc)?;
    let mut tier = parse_tier(&doc, default_tier)?;
    if plan.is_some() {
        tier = ProbeTier::Simulate;
    }
    let ws_bytes = optional_u64(&doc, "ws_bytes")?
        .ok_or_else(|| ApiError::bad_request("bad_request", "field \"ws_bytes\" is required"))?;
    let stride = optional_u64(&doc, "stride")?.unwrap_or(1);
    if !(1024..=1 << 30).contains(&ws_bytes) {
        return Err(ApiError::bad_request(
            "bad_request",
            format!("ws_bytes must be in [1024, {}], got {ws_bytes}", 1u64 << 30),
        ));
    }
    if !(1..=16_384).contains(&stride) {
        return Err(ApiError::bad_request(
            "bad_request",
            format!("stride must be in [1, 16384], got {stride}"),
        ));
    }
    Ok(ProbeParams {
        machine,
        op,
        tier,
        plan,
        ws_bytes,
        stride,
    })
}

/// One in-flight sweep computation that identical requests wait on.
struct Inflight {
    slot: Mutex<Option<Result<Arc<String>, ApiError>>>,
    ready: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// Shared server state: registry, caches, counters, stop flag.
struct ServerState {
    registry: MachineRegistry,
    state_dir: PathBuf,
    threads: usize,
    default_tier: ProbeTier,
    counters: ServeCounters,
    /// Robustness counters merged from every backing sweep run
    /// (force-restarts, torn-tail recoveries, retries, …).
    robustness: Mutex<CounterSet>,
    /// Completed surface payloads, keyed by the canonical cache key.
    cache: Mutex<HashMap<String, Arc<String>>>,
    /// Identical requests currently being computed, for coalescing.
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    /// One tiered spawner per `(spec_hash, tier)`, so `auto`/`analytic`
    /// requests share one analytic model instead of deriving it per
    /// request. Fault plans force `sim`, so only healthy registry specs
    /// enter: the map is bounded by the registry size times two tiers.
    tiered: Mutex<HashMap<(u64, ProbeTier), Arc<TieredSpec>>>,
    /// This server's run context: every engine it builds consults its
    /// memo, and `/metrics` reports that memo alone.
    ctx: RunContext,
    stop: AtomicBool,
    /// The bound address, for the self-connect that wakes the accept loop.
    addr: Mutex<Option<SocketAddr>>,
}

/// FNV-1a over the cache key: names the checkpoint file of a surface.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ServerState {
    /// Resolves and prepares the named machine exactly like the CLI does
    /// (registry lookup, fast limits, fault plan folded in), so serve and
    /// offline sweeps agree on the spec — and therefore on the spec hash
    /// the checkpoint records. The spec runs in this server's context.
    fn build_spec(&self, label: &str, plan: Option<&FaultPlan>) -> Result<MachineSpec, ApiError> {
        let mut spec = self
            .registry
            .resolve(label)
            .map_err(|e| ApiError::new(404, "unknown_machine", e.to_string()))?
            .clone()
            .with_limits(MeasureLimits::fast())
            .with_context(self.ctx.clone());
        if let Some(plan) = plan {
            spec = spec
                .with_faults(plan)
                .map_err(|e| ApiError::bad_request("bad_request", e.to_string()))?;
        }
        Ok(spec)
    }

    /// The shared tiered spawner of `spec` at `tier`, built on first use.
    /// Sharing never changes an answer: anchor values are pure functions
    /// of the spec (see `AnalyticModel`), which is also why parallel
    /// sweeps share one calibration.
    fn tiered_spec(
        &self,
        spec: &MachineSpec,
        tier: ProbeTier,
    ) -> Result<Arc<TieredSpec>, ApiError> {
        // Every update is one insert of a finished spawner, so the map is
        // valid even after a panic elsewhere poisoned the lock.
        let mut tiered = self.tiered.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = tiered.get(&(spec.spec_hash(), tier)) {
            return Ok(Arc::clone(hit));
        }
        let built = TieredSpec::new(spec.clone(), tier)
            .map(Arc::new)
            .map_err(|e| ApiError::internal(format!("tiered spawn failed: {e}")))?;
        tiered.insert((spec.spec_hash(), tier), Arc::clone(&built));
        Ok(built)
    }

    /// The canonical cache key of one surface: resolved machine label,
    /// spec hash (covers limits and the fault plan), op, tier, fault plan
    /// and the full grid — rendered as canonical JSON so equal requests
    /// produce equal bytes.
    fn cache_key(&self, p: &SweepParams, spec: &MachineSpec) -> String {
        let plan = match &p.plan {
            None => Json::Null,
            Some(plan) => Json::object([
                ("seed", Json::U64(plan.seed())),
                (
                    "severity_ppm",
                    Json::U64((plan.severity() * 1e6).round() as u64),
                ),
            ]),
        };
        Json::object([
            (
                "grid",
                Json::object([
                    (
                        "strides",
                        Json::Array(p.grid.strides.iter().map(|&s| Json::U64(s)).collect()),
                    ),
                    (
                        "working_sets",
                        Json::Array(p.grid.working_sets.iter().map(|&w| Json::U64(w)).collect()),
                    ),
                ]),
            ),
            ("machine", Json::Str(spec.label().to_string())),
            ("op", Json::Str(p.op.label().to_string())),
            ("plan", plan),
            ("spec_hash", Json::U64(spec.spec_hash())),
            ("tier", Json::Str(p.tier.label().to_string())),
        ])
        .render()
    }

    /// Runs (or resumes) the backing resilient sweep and returns the
    /// durable checkpoint payload — the exact bytes an offline
    /// `gasnub sweep` of the same `(machine, grid, tier)` produces.
    fn compute_sweep(
        &self,
        p: &SweepParams,
        spec: &MachineSpec,
        key: &str,
    ) -> Result<(Arc<String>, &'static str), ApiError> {
        let name = spec
            .spawn_engine()
            .map_err(|e| ApiError::internal(format!("engine spawn failed: {e}")))?
            .name();
        let title = p.op.checkpoint_title(&name, p.plan.is_some(), p.tier);
        let path = self
            .state_dir
            .join(format!("sweep-{:016x}.json", fnv64(key.as_bytes())));
        // force-restart: a torn or bit-rotted checkpoint under the state
        // dir is quarantined and recomputed instead of failing the request;
        // the recovery shows up in the robustness counters on /metrics.
        let runner = ResilientSweep::new(&path)
            .with_spec_hash(spec.spec_hash())
            .with_force_restart(true);
        let outcome = match p.tier {
            ProbeTier::Simulate => {
                runner.run_parallel_op(&title, &p.grid, self.threads, spec, p.op)
            }
            tier => {
                let spawner = self.tiered_spec(spec, tier)?;
                runner.run_parallel_op(&title, &p.grid, self.threads, &*spawner, p.op)
            }
        }
        .map_err(|e| ApiError::internal(format!("sweep failed: {e}")))?;
        if !outcome.robustness.is_empty() {
            if let Ok(mut rob) = self.robustness.lock() {
                rob.merge(&outcome.robustness);
            }
        }
        let payload = read_verified(&path)
            .map_err(|e| ApiError::internal(format!("checkpoint readback failed: {e}")))?
            .ok_or_else(|| ApiError::internal("checkpoint vanished after sweep"))?;
        let source = if outcome.measured == 0 && outcome.resumed > 0 {
            source::DISK
        } else {
            source::COMPUTED
        };
        Ok((Arc::new(payload), source))
    }

    /// The full sweep path: memory cache → in-flight coalescing → durable
    /// checkpoint (resume or compute). Exactly one thread computes any
    /// given key at a time; everyone else reuses its bytes.
    fn sweep_payload(&self, p: &SweepParams) -> Result<(Arc<String>, &'static str), ApiError> {
        let spec = self.build_spec(&p.machine, p.plan.as_ref())?;
        let key = self.cache_key(p, &spec);
        if let Some(hit) = self.cache.lock().unwrap().get(&key) {
            return Ok((Arc::clone(hit), source::MEMORY));
        }
        let (cell, leader) = {
            let mut inflight = self.inflight.lock().unwrap();
            match inflight.get(&key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    // Re-check the cache while holding the in-flight lock:
                    // a leader publishes to the cache before retiring its
                    // in-flight entry, so this closes the window where a
                    // just-finished surface would be recomputed.
                    if let Some(hit) = self.cache.lock().unwrap().get(&key) {
                        return Ok((Arc::clone(hit), source::MEMORY));
                    }
                    let cell = Arc::new(Inflight::new());
                    inflight.insert(key.clone(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if !leader {
            let mut slot = cell.slot.lock().unwrap();
            while slot.is_none() {
                slot = cell.ready.wait(slot).unwrap();
            }
            return slot
                .clone()
                .expect("in-flight slot is filled before notify")
                .map(|payload| (payload, source::COALESCED));
        }
        let result = self.compute_sweep(p, &spec, &key);
        if let Ok((payload, _)) = &result {
            self.cache
                .lock()
                .unwrap()
                .insert(key.clone(), Arc::clone(payload));
        }
        self.inflight.lock().unwrap().remove(&key);
        let mut slot = cell.slot.lock().unwrap();
        *slot = Some(result.clone().map(|(payload, _)| payload));
        cell.ready.notify_all();
        drop(slot);
        result
    }

    fn probe_response(&self, body: &[u8]) -> Result<Response, ApiError> {
        let p = parse_probe(body, self.default_tier)?;
        self.counters.probe();
        let spec = self.build_spec(&p.machine, p.plan.as_ref())?;
        // Engines stay recorder-free: repeated probes of the same cell hit
        // the server's memo instead of re-simulating (see
        // [`crate::counters`] for why the server never installs recorders).
        let mb_s = match p.tier {
            ProbeTier::Simulate => {
                let mut engine = spec
                    .spawn_engine()
                    .map_err(|e| ApiError::internal(format!("engine spawn failed: {e}")))?;
                p.op.measure(&mut engine, p.ws_bytes, p.stride)
            }
            tier => {
                let mut machine = self
                    .tiered_spec(&spec, tier)?
                    .spawn_engine()
                    .map_err(|e| ApiError::internal(format!("tiered spawn failed: {e}")))?;
                p.op.measure(&mut machine, p.ws_bytes, p.stride)
            }
        };
        let (supported, mb_s_bits, mb_s_text) = match mb_s {
            Some(v) => (
                Json::Bool(true),
                Json::U64(v.to_bits()),
                Json::Str(format!("{v:.1}")),
            ),
            None => (Json::Bool(false), Json::Null, Json::Null),
        };
        let doc = Json::object([
            ("machine", Json::Str(spec.label().to_string())),
            ("mb_s", mb_s_text),
            ("mb_s_bits", mb_s_bits),
            ("op", Json::Str(p.op.label().to_string())),
            ("stride", Json::U64(p.stride)),
            ("supported", supported),
            ("tier", Json::Str(p.tier.label().to_string())),
            ("ws_bytes", Json::U64(p.ws_bytes)),
        ]);
        Ok(Response::ok(format!("{}\n", doc.render())))
    }

    fn sweep_response(&self, body: &[u8]) -> Result<Response, ApiError> {
        let p = parse_sweep(body, self.default_tier)?;
        self.counters.sweep();
        let (payload, from) = self.sweep_payload(&p)?;
        self.counters.sweep_source(from);
        // The body is the checkpoint payload verbatim — byte-identical to
        // the offline checkpoint of the same (machine, grid, tier).
        Ok(Response::ok(payload.as_str().to_string()).with_source(from))
    }

    fn machines_response(&self) -> Response {
        let machines: Vec<Json> = self
            .registry
            .specs()
            .iter()
            .map(|spec| {
                Json::object([
                    ("clock_mhz", Json::Str(format!("{}", spec.clock_mhz()))),
                    ("model", Json::Str(spec.model_family().to_string())),
                    ("name", Json::Str(spec.label().to_string())),
                    ("spec_hash", Json::Str(format!("{:016x}", spec.spec_hash()))),
                    ("summary", Json::Str(spec.summary().to_string())),
                ])
            })
            .collect();
        let doc = Json::object([("machines", Json::Array(machines))]);
        Response::ok(format!("{}\n", doc.render()))
    }

    fn status_response(&self) -> Response {
        let snap = self.counters.snapshot();
        let doc = Json::object([
            (
                "cached_surfaces",
                Json::U64(self.cache.lock().unwrap().len() as u64),
            ),
            (
                "inflight_sweeps",
                Json::U64(self.inflight.lock().unwrap().len() as u64),
            ),
            ("machines", Json::U64(self.registry.specs().len() as u64)),
            ("queue_depth", Json::U64(self.counters.queue_depth())),
            ("requests", Json::U64(snap.get(serving::REQUESTS))),
            ("state_dir", Json::Str(self.state_dir.display().to_string())),
            ("threads", Json::U64(self.threads as u64)),
            ("tier", Json::Str(self.default_tier.label().to_string())),
        ]);
        Response::ok(format!("{}\n", doc.render()))
    }

    /// Every counter the server keeps, as one canonical set: serving
    /// atomics, its probe memo's own statistics (`memo.dropped` counts
    /// results refused at the memo's entry cap), and the robustness
    /// counters of every backing sweep.
    fn metrics(&self) -> CounterSet {
        let mut set = self.counters.snapshot();
        set.set(
            serving::CACHED_SURFACES,
            self.cache.lock().unwrap().len() as u64,
        );
        let memo = self.ctx.memo().expect("a server's context memoizes");
        let (hits, misses) = memo.stats();
        set.set("memo.hits", hits);
        set.set("memo.misses", misses);
        set.set("memo.entries", memo.entries() as u64);
        set.set("memo.dropped", memo.dropped());
        if let Ok(rob) = self.robustness.lock() {
            set.merge(&rob);
        }
        set
    }

    fn metrics_response(&self) -> Response {
        let set = self.metrics();
        let doc = Json::Object(
            set.iter()
                .map(|(name, value)| (name.to_string(), Json::U64(value)))
                .collect(),
        );
        Response::ok(format!("{}\n", doc.render()))
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the stop flag and nudges the accept loop with a self-connect.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = *self.addr.lock().unwrap() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Routes one request. Parse/validation failures become structured 4xx
/// bodies; nothing in here panics on client input.
fn route(state: &ServerState, method: &str, path: &str, body: &[u8]) -> Response {
    const KNOWN: [(&str, &str); 6] = [
        ("GET", "/v1/machines"),
        ("GET", "/v1/status"),
        ("GET", "/metrics"),
        ("POST", "/v1/probe"),
        ("POST", "/v1/sweep"),
        ("POST", "/v1/shutdown"),
    ];
    match (method, path) {
        ("GET", "/v1/machines") => state.machines_response(),
        ("GET", "/v1/status") => state.status_response(),
        ("GET", "/metrics") => state.metrics_response(),
        ("POST", "/v1/probe") => state.probe_response(body).unwrap_or_else(|e| e.response()),
        ("POST", "/v1/sweep") => state.sweep_response(body).unwrap_or_else(|e| e.response()),
        ("POST", "/v1/shutdown") => Response::ok("{\"stopping\":true}\n".to_string()),
        (_, path) if KNOWN.iter().any(|&(_, p)| p == path) => ApiError::new(
            405,
            "method_not_allowed",
            format!("{method} is not accepted on {path}"),
        )
        .response(),
        _ => ApiError::new(404, "unknown_endpoint", format!("no endpoint at {path}")).response(),
    }
}

/// How long an accepted connection may sit silent before the server closes
/// it (keep-alive idle time, or a stalled request), so a quiet peer cannot
/// hold a connection thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long one response write may block on a peer that stops reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Serves one connection: keep-alive request loop, structured errors,
/// per-request counters.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    loop {
        let request = match read_request(&mut stream) {
            Ok(request) => request,
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => return,
            Err(ReadError::TooLarge) => {
                state.counters.start_request();
                let resp =
                    ApiError::new(413, "payload_too_large", "request body too large").response();
                state.counters.finish_request(resp.status);
                let _ = write_response(&mut stream, &resp, false);
                return;
            }
            Err(ReadError::Malformed(detail)) => {
                state.counters.start_request();
                let resp = ApiError::bad_request("bad_request", detail).response();
                state.counters.finish_request(resp.status);
                let _ = write_response(&mut stream, &resp, false);
                return;
            }
        };
        state.counters.start_request();
        let response = route(state, &request.method, &request.path, &request.body);
        state.counters.finish_request(response.status);
        let keep_alive = request.keep_alive();
        let wrote = write_response(&mut stream, &response, keep_alive);
        // Stop only after the shutdown acknowledgement is on the wire, so
        // the stopping client always hears back.
        if request.method == "POST" && request.path == "/v1/shutdown" {
            state.request_stop();
            return;
        }
        if wrote.is_err() || !keep_alive {
            return;
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener, creates the state directory, discovers the
    /// machine registry and gives the server its own run context (a fresh
    /// probe memo).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the state directory cannot be
    /// created or the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&config.state_dir).map_err(|e| {
            format!(
                "cannot create state dir {}: {e}",
                config.state_dir.display()
            )
        })?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let state = Arc::new(ServerState {
            registry: MachineRegistry::discover(),
            state_dir: config.state_dir,
            threads: config.threads.max(1),
            default_tier: config.tier,
            counters: ServeCounters::new(),
            robustness: Mutex::new(CounterSet::new()),
            cache: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            tiered: Mutex::new(HashMap::new()),
            ctx: RunContext::fresh(),
            stop: AtomicBool::new(false),
            addr: Mutex::new(None),
        });
        *state.addr.lock().unwrap() = Some(
            listener
                .local_addr()
                .map_err(|e| format!("cannot read bound address: {e}"))?,
        );
        Ok(Server { listener, state })
    }

    /// The bound address (the actual port when `:0` was requested).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the bound address (never after a
    /// successful [`Server::bind`]).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener is bound")
    }

    /// Runs the accept loop until `POST /v1/shutdown`, then returns the
    /// final metrics snapshot (the shutdown report).
    ///
    /// Connections are served on one thread each; the loop itself never
    /// touches request state, so a slow sweep cannot stall accepting.
    /// Accepted sockets send without Nagle delay (`TCP_NODELAY`) and carry
    /// read and write timeouts (5 s and 10 s), so an idle or stalled peer
    /// releases its thread.
    pub fn run(self) -> CounterSet {
        for conn in self.listener.incoming() {
            if self.state.stopping() {
                break;
            }
            let Ok(stream) = conn else { continue };
            let configured = stream
                .set_nodelay(true)
                .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
                .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
            if configured.is_err() {
                continue;
            }
            self.state.counters.connection();
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        self.state.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable() {
        // Pinned so on-disk checkpoint names never silently move.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"gasnub"), fnv64(b"gasnub"));
        assert_ne!(fnv64(b"gasnub"), fnv64(b"gasnuc"));
    }

    #[test]
    fn sweep_body_parses_with_defaults() {
        let p = parse_sweep(br#"{"machine":"t3d","op":"load"}"#, ProbeTier::Simulate).unwrap();
        assert_eq!(p.machine, "t3d");
        assert_eq!(p.op, SweepOp::LocalLoad);
        assert_eq!(p.tier, ProbeTier::Simulate);
        assert!(p.plan.is_none());
        assert_eq!(p.grid, Grid::quick());
    }

    #[test]
    fn bad_bodies_map_to_stable_codes() {
        let code = |body: &[u8]| parse_sweep(body, ProbeTier::Simulate).unwrap_err().code;
        assert_eq!(code(b"{nope"), "bad_json");
        assert_eq!(code(b"[1,2]"), "bad_json");
        assert_eq!(code(br#"{"op":"load"}"#), "bad_request");
        assert_eq!(code(br#"{"machine":"t3d","op":"teleport"}"#), "unknown_op");
        assert_eq!(
            code(br#"{"machine":"t3d","op":"load","tier":"warp"}"#),
            "bad_tier"
        );
        assert_eq!(
            code(br#"{"machine":"t3d","op":"load","grid":{"strides":[],"working_sets":[2048]}}"#),
            "bad_grid"
        );
        assert_eq!(
            code(
                br#"{"machine":"t3d","op":"load","grid":{"strides":[8,1],"working_sets":[2048]}}"#
            ),
            "bad_grid"
        );
    }

    #[test]
    fn fault_plan_forces_sim_tier() {
        let p = parse_sweep(
            br#"{"machine":"t3d","op":"fetch","tier":"auto","seed":7}"#,
            ProbeTier::Simulate,
        )
        .unwrap();
        assert_eq!(p.tier, ProbeTier::Simulate);
        assert!(p.plan.is_some());
    }
}

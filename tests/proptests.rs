//! Property-based integration tests: invariants that must hold for *any*
//! stride and working set, not just the calibrated grid points.

use gasnub::machines::ProbeOp::{
    LocalCopy, LocalLoad, LocalStore, RemoteDeposit, RemoteFetch, RemoteLoad,
};
use gasnub::machines::{
    Machine, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, TransferEngine,
};
use gasnub_memsim::rng::run_cases;

fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
    ProbeRequest::new(op, ws, stride)
}

fn fast(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits {
        max_measure_words: 8 * 1024,
        max_prime_words: 64 * 1024,
    })
    .build()
    .unwrap()
}

fn fast_t3d() -> TransferEngine {
    fast(MachineSpec::t3d())
}

fn fast_t3e() -> TransferEngine {
    fast(MachineSpec::t3e())
}

fn fast_dec() -> TransferEngine {
    fast(MachineSpec::dec8400())
}

/// Bandwidth is always positive and never exceeds the machine's
/// theoretical issue-limited peak (one word per cycle).
#[test]
fn local_load_bandwidth_is_bounded() {
    run_cases(0xB0B0, 24, |rng| {
        let ws_kb = rng.gen_range(1, 4096);
        let stride = rng.gen_range(1, 256);
        let mut m = fast_t3d();
        let bw = m.probe(&req(LocalLoad, ws_kb * 1024, stride)).unwrap().mb_s;
        assert!(bw > 0.0, "bandwidth must be positive");
        let peak = 8.0 * m.clock_mhz(); // one 64-bit word per cycle
        assert!(bw <= peak * 1.01, "bw {bw} exceeds the issue peak {peak}");
    });
}

/// Contiguous access is never slower than the same working set at a
/// larger stride on the streams-focused T3D (its surface is monotone in
/// stride for DRAM-resident sets).
#[test]
fn t3d_contiguous_dominates_strided() {
    run_cases(0xC0411, 24, |rng| {
        let ws_mb = rng.gen_range(1, 8);
        let stride = rng.gen_range(2, 128);
        let mut m = fast_t3d();
        let contig = m.probe(&req(LocalLoad, ws_mb << 20, 1)).unwrap().mb_s;
        let strided = m.probe(&req(LocalLoad, ws_mb << 20, stride)).unwrap().mb_s;
        assert!(
            contig >= strided * 0.95,
            "contig {contig} vs stride-{stride} {strided}"
        );
    });
}

/// Copy payload bandwidth never exceeds pure load bandwidth at the same
/// stride (a copy does strictly more work per word).
#[test]
fn copy_never_beats_loads() {
    run_cases(0xC09E, 24, |rng| {
        let stride = rng.gen_range(1, 64);
        let mut m = fast_t3e();
        let ws = 4 << 20;
        let load = m.probe(&req(LocalLoad, ws, stride)).unwrap().mb_s;
        let copy = m.probe(&req(LocalCopy, ws, stride)).unwrap().mb_s;
        assert!(
            copy <= load * 1.05,
            "copy {copy} vs load {load} at stride {stride}"
        );
    });
}

/// Remote transfers never exceed the same machine's contiguous remote
/// peak, for any stride.
#[test]
fn remote_peak_is_at_unit_stride() {
    run_cases(0x3E40, 24, |rng| {
        let stride = rng.gen_range(2, 128);
        let mut m = fast_t3e();
        let ws = 4 << 20;
        let peak = m.probe(&req(RemoteDeposit, ws, 1)).unwrap().mb_s;
        let strided = m.probe(&req(RemoteDeposit, ws, stride)).unwrap().mb_s;
        assert!(
            strided <= peak * 1.05,
            "stride {stride}: {strided} vs peak {peak}"
        );
    });
}

/// The 8400's pull bandwidth is bounded by the bus burst ceiling.
#[test]
fn dec8400_pull_below_bus_ceiling() {
    run_cases(0x8400, 24, |rng| {
        let stride = rng.gen_range(1, 64);
        let ws_mb = rng.gen_range(1, 16);
        let mut m = fast_dec();
        let bw = m.probe(&req(RemoteLoad, ws_mb << 20, stride)).unwrap().mb_s;
        assert!(bw > 0.0);
        assert!(
            bw < 1600.0,
            "pulls cannot exceed the 1.6 GB/s burst ceiling: {bw}"
        );
    });
}

/// Observation is free: installing a `RingRecorder` (versus the default
/// `NullRecorder`) never changes a measured bandwidth, for any machine,
/// operation, stride or working set. The recorder only *harvests* counters
/// the components already keep — it must not perturb the simulation.
#[test]
fn recorders_never_change_measurements() {
    use gasnub::machines::RingRecorder;
    run_cases(0x0B5E4E, 24, |rng| {
        let ws_kb = rng.gen_range(8, 8192);
        let stride = rng.gen_range(1, 128);
        let machine_pick = rng.gen_range(0, 3);
        let op_pick = rng.gen_range(0, 4);
        let probe = |m: &mut dyn Machine| match op_pick {
            0 => Some(m.probe(&req(LocalLoad, ws_kb * 1024, stride)).unwrap()),
            1 => Some(m.probe(&req(LocalCopy, ws_kb * 1024, stride)).unwrap()),
            2 => m.probe(&req(RemoteFetch, ws_kb * 1024, stride)),
            _ => m.probe(&req(RemoteDeposit, ws_kb * 1024, stride)),
        };
        let mut quiet: Box<dyn Machine> = match machine_pick {
            0 => Box::new(fast_t3d()),
            1 => Box::new(fast_t3e()),
            _ => Box::new(fast_dec()),
        };
        let mut observed: Box<dyn Machine> = match machine_pick {
            0 => Box::new(fast_t3d()),
            1 => Box::new(fast_t3e()),
            _ => Box::new(fast_dec()),
        };
        observed.set_recorder(Box::new(RingRecorder::new(4)));
        let baseline = probe(quiet.as_mut());
        let traced = probe(observed.as_mut());
        match (baseline, traced) {
            (None, None) => {}
            (Some(b), Some(t)) => {
                assert_eq!(
                    (b.bytes, b.cycles.to_bits()),
                    (t.bytes, t.cycles.to_bits()),
                    "machine {machine_pick} op {op_pick} ws {ws_kb}K stride {stride}: \
                     recording must not change the measurement"
                );
            }
            (b, t) => panic!("support must not depend on the recorder: {b:?} vs {t:?}"),
        }
    });
}

/// Warm-path engine reuse is invisible: walking a random (stride, working
/// set) chain on *one* reused engine produces bit-identical measurements
/// and identical counters to spawning a fresh engine for every cell, on
/// every machine in the built-in zoo. This is the flushed ≡
/// just-constructed invariant the warm sweep scheduler
/// ([`gasnub::machines::WarmState`]) relies on. Both sides carry a
/// recorder, which bypasses the probe memo — each comparison is a genuine
/// recomputation, and the harvested counters must agree too.
#[test]
fn warm_engine_chains_match_fresh_engines() {
    use gasnub::machines::{
        MachineRegistry, MeasureLimits, RingRecorder, SpawnEngine, TransferEngine, WarmState,
    };
    let registry = MachineRegistry::builtin();
    let limits = MeasureLimits {
        max_measure_words: 8 * 1024,
        max_prime_words: 64 * 1024,
    };
    run_cases(0x3A44, 8, |rng| {
        for spec in registry.specs() {
            let mut warm = WarmState::new();
            let chain = rng.gen_range(2, 6);
            for _ in 0..chain {
                let ws = rng.gen_range(4, 2048) * 1024;
                let stride = rng.gen_range(1, 128);
                let op = rng.gen_range(0, 6);
                let probe = |m: &mut TransferEngine| match op {
                    0 => Some(m.probe(&req(LocalLoad, ws, stride)).unwrap()),
                    1 => Some(m.probe(&req(LocalStore, ws, stride)).unwrap()),
                    2 => Some(m.probe(&req(LocalCopy, ws, stride)).unwrap()),
                    3 => m.probe(&req(RemoteLoad, ws, stride)),
                    4 => m.probe(&req(RemoteFetch, ws, stride)),
                    _ => m.probe(&req(RemoteDeposit, ws, stride)),
                };
                let engine = warm.engine(spec).unwrap();
                engine.set_limits(limits);
                engine.set_recorder(Box::new(RingRecorder::new(4)));
                let warm_meas = probe(engine);
                let warm_counters = engine.take_counters();

                let mut fresh = spec.spawn_engine().unwrap();
                fresh.set_limits(limits);
                fresh.set_recorder(Box::new(RingRecorder::new(4)));
                let fresh_meas = probe(&mut fresh);
                let fresh_counters = fresh.take_counters();

                let ctx = format!("{} op {op} ws {ws} stride {stride}", spec.label());
                match (warm_meas, fresh_meas) {
                    (None, None) => {}
                    (Some(w), Some(f)) => assert_eq!(
                        (w.bytes, w.cycles.to_bits(), w.mb_s.to_bits()),
                        (f.bytes, f.cycles.to_bits(), f.mb_s.to_bits()),
                        "{ctx}: warm reuse must not change the measurement"
                    ),
                    (w, f) => panic!("{ctx}: support diverged: {w:?} vs {f:?}"),
                }
                assert_eq!(
                    warm_counters, fresh_counters,
                    "{ctx}: warm reuse must not change the counters"
                );
            }
            assert!(warm.is_warm());
            assert_eq!(warm.spawns(), 1, "one spawn must serve the whole chain");
        }
    });
}

/// Serving determinism: for random small grids and random interleavings
/// of 2–4 concurrent clients, every response body from the
/// characterization server equals the single-threaded offline oracle —
/// the checkpoint payload a plain [`gasnub::core::ResilientSweep`]
/// produces for the same (machine, grid, tier). Coalescing, caching and
/// thread scheduling may change *who* computes a surface, never its
/// bytes.
#[test]
fn served_sweeps_match_single_threaded_oracle() {
    use gasnub::core::json::Json;
    use gasnub::core::storage::read_verified;
    use gasnub::core::{Grid, ResilientSweep, SweepOp};
    use gasnub::machines::{MachineRegistry, ProbeTier, SpawnEngine};
    use gasnub::serve::{ServeConfig, Server};
    use std::io::{Read, Write};
    use std::sync::{Arc, Barrier};

    let mut root = std::env::temp_dir();
    root.push(format!("gasnub-serve-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let server = Server::bind(ServeConfig::new("127.0.0.1:0", root.join("state"))).unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());
    // One request on a fresh connection; returns the raw response.
    let exchange = move |request: String| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    };

    let registry = MachineRegistry::builtin();
    const MACHINES: [&str; 3] = ["t3d", "t3e", "dec8400"];
    const OPS: [&str; 4] = ["load", "store", "fetch", "deposit"];
    const STRIDES: [u64; 4] = [1, 2, 8, 64];
    const WORKING_SETS: [u64; 3] = [2048, 32768, 524288];

    let mut case = 0u64;
    run_cases(0x5E4E, 6, |rng| {
        case += 1;
        let machine = MACHINES[rng.gen_range(0, MACHINES.len() as u64) as usize];
        let op = SweepOp::parse(OPS[rng.gen_range(0, OPS.len() as u64) as usize]).unwrap();
        // An ascending subset of each axis: drop a random prefix/suffix.
        let strides = STRIDES[..rng.gen_range(2, STRIDES.len() as u64 + 1) as usize].to_vec();
        let ws_lo = rng.gen_range(0, 2) as usize;
        let working_sets = WORKING_SETS[ws_lo..].to_vec();
        let grid = Grid {
            strides: strides.clone(),
            working_sets: working_sets.clone(),
        };

        // The single-threaded offline oracle, through the same resilient
        // sweep machinery the server runs.
        let spec = registry
            .resolve(machine)
            .unwrap()
            .clone()
            .with_limits(gasnub::machines::MeasureLimits::fast());
        let name = spec.spawn_engine().unwrap().name();
        let title = op.checkpoint_title(&name, false, ProbeTier::Simulate);
        let oracle_path = root.join(format!("oracle-{case}.json"));
        ResilientSweep::new(&oracle_path)
            .with_spec_hash(spec.spec_hash())
            .run_parallel_op(&title, &grid, 1, &spec, op)
            .unwrap();
        let oracle = read_verified(&oracle_path).unwrap().unwrap();

        let body = Json::object([
            (
                "grid",
                Json::object([
                    (
                        "strides",
                        Json::Array(strides.iter().map(|&s| Json::U64(s)).collect()),
                    ),
                    (
                        "working_sets",
                        Json::Array(working_sets.iter().map(|&w| Json::U64(w)).collect()),
                    ),
                ]),
            ),
            ("machine", Json::Str(machine.to_string())),
            ("op", Json::Str(op.label().to_string())),
        ])
        .render();

        let clients = rng.gen_range(2, 5) as usize;
        let barrier = Arc::new(Barrier::new(clients));
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let body = body.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    exchange(format!(
                        "POST /v1/sweep HTTP/1.1\r\nHost: gasnub\r\nConnection: close\r\n\
                         Content-Length: {}\r\n\r\n{body}",
                        body.len()
                    ))
                })
            })
            .collect();
        for worker in workers {
            let response = worker.join().unwrap();
            let (head, served) = response.split_once("\r\n\r\n").unwrap();
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "{machine} {} must serve: {response}",
                op.label()
            );
            assert_eq!(
                served,
                oracle,
                "{machine} {} with {clients} interleaved clients must match \
                 the single-threaded oracle",
                op.label()
            );
        }
        // The server's memo is its own: its first sweep cannot be answered
        // from the entries the oracle wrote, so it simulates every cell.
        if case == 1 {
            let raw = exchange("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n".into());
            let metrics = Json::parse(raw.split_once("\r\n\r\n").unwrap().1).unwrap();
            let memo = ["memo.hits", "memo.misses"].map(|name| metrics.get(name)?.as_u64());
            assert_eq!(
                memo,
                [Some(0), Some(grid.cells() as u64)],
                "a fresh server's first sweep simulates every cell"
            );
        }
    });

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let _ = stream
        .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: gasnub\r\nContent-Length: 0\r\n\r\n");
}

/// Measurements scale: the cycle count grows with the measured words
/// (same stride, larger working set ⇒ at least as many cycles until the
/// measure cap).
#[test]
fn cycles_grow_with_working_set() {
    run_cases(0x9120, 24, |rng| {
        let stride = rng.gen_range(1, 32);
        let mut m = fast_t3d();
        let small = m.probe(&req(LocalLoad, 64 << 10, stride)).unwrap().cycles;
        let large = m.probe(&req(LocalLoad, 4 << 20, stride)).unwrap().cycles;
        // Both runs measure the same capped word count; the larger set must
        // not be meaningfully cheaper (small pattern-dependent wiggle from
        // DRAM row reuse is tolerated).
        assert!(large >= small * 0.9, "{large} >= {small}");
    });
}

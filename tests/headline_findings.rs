//! Integration tests for the six headline findings of the paper, as listed
//! in DESIGN.md §1 — each asserted end-to-end through the facade crate.

use gasnub::core::cost::{CostModel, Strategy};
use gasnub::fft::run_benchmark;
use gasnub::machines::ProbeOp::{LocalLoad, RemoteDeposit, RemoteFetch, RemoteLoad};
use gasnub::machines::{
    Machine, MachineId, MachineSpec, MeasureLimits, ProbeOp, ProbeRequest, TransferEngine,
};

fn req(op: ProbeOp, ws: u64, stride: u64) -> ProbeRequest {
    ProbeRequest::new(op, ws, stride)
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn fast(spec: MachineSpec) -> TransferEngine {
    spec.with_limits(MeasureLimits::fast()).build().unwrap()
}

/// Finding 1: local bandwidth plateaus track the cache hierarchy, and
/// strided DRAM accesses collapse by an order of magnitude vs. contiguous.
#[test]
fn finding_1_plateaus_track_the_hierarchy() {
    let mut dec = fast(MachineSpec::dec8400());
    let l1 = dec.probe(&req(LocalLoad, 4 * KB, 1)).unwrap().mb_s;
    let l2 = dec.probe(&req(LocalLoad, 64 * KB, 1)).unwrap().mb_s;
    let l3 = dec.probe(&req(LocalLoad, 2 * MB, 1)).unwrap().mb_s;
    let dram = dec.probe(&req(LocalLoad, 32 * MB, 1)).unwrap().mb_s;
    assert!(
        l1 > l2 && l2 > l3 && l3 > dram,
        "{l1} > {l2} > {l3} > {dram} expected"
    );

    let dram_strided = dec.probe(&req(LocalLoad, 32 * MB, 16)).unwrap().mb_s;
    assert!(
        dram / dram_strided > 4.0,
        "strided collapse: {dram} vs {dram_strided}"
    );

    // The T3D has only two tiers.
    let mut t3d = fast(MachineSpec::t3d());
    let t3d_l1 = t3d.probe(&req(LocalLoad, 4 * KB, 1)).unwrap().mb_s;
    let t3d_dram = t3d.probe(&req(LocalLoad, 8 * MB, 1)).unwrap().mb_s;
    assert!(t3d_l1 > 2.0 * t3d_dram);
}

/// Finding 2: remote bandwidth on the 8400 is an order of magnitude below
/// its local peak (1100 -> 140 MB/s).
#[test]
fn finding_2_remote_is_an_order_of_magnitude_below_local() {
    let mut dec = fast(MachineSpec::dec8400());
    let local_peak = dec.probe(&req(LocalLoad, 4 * KB, 1)).unwrap().mb_s;
    let remote_peak = dec.probe(&req(RemoteLoad, 32 * MB, 1)).unwrap().mb_s;
    let ratio = local_peak / remote_peak;
    assert!(
        ratio > 5.0 && ratio < 12.0,
        "local/remote ratio {ratio} (paper: 1100/140 ≈ 7.9)"
    );
}

/// Finding 3: the T3D's streams-focused design beats the cache-focused
/// 8400 for large strided transfers despite half the clock, and deposit
/// beats naive fetch on the T3D.
#[test]
fn finding_3_t3d_streams_beat_8400_caches_for_strided_transfers() {
    let mut t3d = fast(MachineSpec::t3d());
    let mut dec = fast(MachineSpec::dec8400());
    let t3d_strided = t3d.probe(&req(RemoteDeposit, 8 * MB, 16)).unwrap().mb_s;
    let dec_strided = dec.probe(&req(RemoteFetch, 32 * MB, 16)).unwrap().mb_s;
    assert!(
        t3d_strided > 2.0 * dec_strided,
        "paper: 55 vs 22 MB/s; got {t3d_strided} vs {dec_strided}"
    );

    let deposit = t3d.probe(&req(RemoteDeposit, 8 * MB, 1)).unwrap().mb_s;
    let fetch = t3d.probe(&req(RemoteFetch, 8 * MB, 1)).unwrap().mb_s;
    assert!(
        deposit > 3.0 * fetch,
        "deposit {deposit} must dominate naive fetch {fetch}"
    );
}

/// Finding 4: the T3E's E-registers make fetch and deposit symmetric at
/// ~350 MB/s contiguous — 4x the T3D and 2x the 8400 — but even-stride
/// deposits ripple down with destination bank conflicts.
#[test]
fn finding_4_t3e_eregisters() {
    let mut t3e = fast(MachineSpec::t3e());
    let put = t3e.probe(&req(RemoteDeposit, 8 * MB, 1)).unwrap().mb_s;
    let get = t3e.probe(&req(RemoteFetch, 8 * MB, 1)).unwrap().mb_s;
    assert!((put - get).abs() / put < 0.1, "symmetry: {put} vs {get}");

    let mut t3d = fast(MachineSpec::t3d());
    let mut dec = fast(MachineSpec::dec8400());
    assert!(put / t3d.probe(&req(RemoteDeposit, 8 * MB, 1)).unwrap().mb_s > 2.4);
    assert!(put / dec.probe(&req(RemoteLoad, 32 * MB, 1)).unwrap().mb_s > 1.7);

    let even = t3e.probe(&req(RemoteDeposit, 8 * MB, 16)).unwrap().mb_s;
    let odd = t3e.probe(&req(RemoteDeposit, 8 * MB, 15)).unwrap().mb_s;
    assert!(
        odd > 1.5 * even,
        "even-stride ripples: odd {odd} vs even {even}"
    );
}

/// Finding 5: strided DRAM load bandwidth is stuck across Cray generations
/// (43 -> 42 MB/s) while contiguous more than doubled.
#[test]
fn finding_5_strided_dram_stuck_across_generations() {
    let mut t3d = fast(MachineSpec::t3d());
    let mut t3e = fast(MachineSpec::t3e());
    let t3d_strided = t3d.probe(&req(LocalLoad, 8 * MB, 16)).unwrap().mb_s;
    let t3e_strided = t3e.probe(&req(LocalLoad, 8 * MB, 16)).unwrap().mb_s;
    let stuck_ratio = t3e_strided / t3d_strided;
    assert!(
        stuck_ratio > 0.7 && stuck_ratio < 1.4,
        "stuck: {t3d_strided} -> {t3e_strided}"
    );

    let t3d_contig = t3d.probe(&req(LocalLoad, 8 * MB, 1)).unwrap().mb_s;
    let t3e_contig = t3e.probe(&req(LocalLoad, 8 * MB, 1)).unwrap().mb_s;
    assert!(
        t3e_contig / t3d_contig > 1.8,
        "contiguous doubled: {t3d_contig} -> {t3e_contig}"
    );
}

/// Finding 6: in the 2D-FFT the 8400's ~2.5x compute advantage over the T3D
/// shrinks to well under 2x overall because its communication is no better,
/// and the T3E wins overall.
#[test]
fn finding_6_fft_compute_advantage_shrinks() {
    let t3d = run_benchmark(MachineId::CrayT3d, 256, 4);
    let dec = run_benchmark(MachineId::Dec8400, 256, 4);
    let t3e = run_benchmark(MachineId::CrayT3e, 256, 4);

    let compute_ratio = dec.compute_mflops_total / t3d.compute_mflops_total;
    assert!(
        compute_ratio > 2.0,
        "compute advantage {compute_ratio} (paper: >2.5)"
    );

    let overall_ratio = dec.total_mflops / t3d.total_mflops;
    assert!(
        overall_ratio < compute_ratio * 0.8 && overall_ratio > 1.2,
        "overall advantage {overall_ratio} must shrink below compute advantage {compute_ratio}"
    );

    // Communication: "approximately the same performance level".
    let comm_ratio = dec.comm_mb_s_total / t3d.comm_mb_s_total;
    assert!(
        comm_ratio > 0.5 && comm_ratio < 2.0,
        "8400 ≈ T3D comm: {comm_ratio}"
    );

    // The T3E wins overall.
    assert!(t3e.total_mflops > dec.total_mflops);
    assert!(t3e.total_mflops > 2.0 * t3d.total_mflops);
}

/// The counter layer ties the findings to their mechanisms. Finding 2's
/// slow 8400 pull: every remote cache line crosses the shared bus at least
/// once, supplied cache-to-cache out of the producer's modified lines.
/// Finding 3's slow naive T3D fetch: every single word comes back through
/// the NI's fetch circuitry — no read-ahead or coalescing can batch it,
/// unlike the deposit path, which streams packets without fetch requests.
#[test]
fn finding_mechanisms_show_in_the_counters() {
    use gasnub::machines::RingRecorder;

    let mut dec = fast(MachineSpec::dec8400());
    dec.set_recorder(Box::new(RingRecorder::new(4)));
    let pull = dec.probe(&req(RemoteLoad, 4 * MB, 1)).unwrap();
    let counters = dec.take_counters().expect("the pull must harvest counters");
    let lines = pull.bytes / 64;
    assert!(
        counters.get("bus_transactions") >= lines,
        "every pulled 64-byte line is at least one bus transaction: {} < {lines}",
        counters.get("bus_transactions")
    );

    // A cache-resident set stays dirty in the producer's cache, so the pull
    // is supplied cache-to-cache, downgrading Modified lines to Shared.
    let pull = dec.probe(&req(RemoteLoad, 32 * KB, 1)).unwrap();
    let counters = dec.take_counters().expect("the pull must harvest counters");
    assert!(
        counters.get("bus_transactions") >= pull.bytes / 64,
        "cache-to-cache supplies still cross the bus"
    );
    assert!(
        counters.get("smp_cache_supplies") > 0,
        "the producer's dirty lines must be supplied cache-to-cache"
    );
    assert!(
        counters.get("mesi_m_to_s") > 0,
        "coherent pulls must downgrade the producer's Modified lines"
    );

    let mut t3d = fast(MachineSpec::t3d());
    t3d.set_recorder(Box::new(RingRecorder::new(4)));
    let fetch = t3d.probe(&req(RemoteFetch, 4 * MB, 16)).unwrap();
    let counters = t3d
        .take_counters()
        .expect("the fetch must harvest counters");
    assert_eq!(
        counters.get("ni_fetched_words"),
        fetch.bytes / 8,
        "a strided fetch pulls every 64-bit word through the NI individually"
    );

    let deposit = t3d.probe(&req(RemoteDeposit, 4 * MB, 1)).unwrap();
    let counters = t3d
        .take_counters()
        .expect("the deposit must harvest counters");
    let words = deposit.bytes / 8;
    let packets = counters.get("ni_packets");
    assert!(
        packets > 0 && packets < words,
        "a contiguous deposit coalesces words into fewer packets: \
         {packets} packets for {words} words"
    );
    assert_eq!(
        counters.get("ni_fetched_words"),
        0,
        "the deposit path never issues fetch requests"
    );
}

/// §9's compiler guidance falls out of the measured cost model.
#[test]
fn cost_model_reproduces_section_9_guidance() {
    let strides = [15u64, 16];
    let words = 1 << 20;

    let mut t3d = fast(MachineSpec::t3d());
    let model = CostModel::characterize(&mut t3d, &strides, 32 * MB);
    for &s in &strides {
        assert_eq!(
            model.best(words, s).strategy,
            Strategy::Deposit,
            "T3D pushes"
        );
    }

    let mut t3e = fast(MachineSpec::t3e());
    let model = CostModel::characterize(&mut t3e, &strides, 32 * MB);
    assert_eq!(
        model.best(words, 16).strategy,
        Strategy::Fetch,
        "T3E pulls even strides"
    );

    let mut dec = fast(MachineSpec::dec8400());
    let model = CostModel::characterize(&mut dec, &strides, 32 * MB);
    for &s in &strides {
        let best = model.best(words, s);
        assert!(
            matches!(best.strategy, Strategy::Fetch | Strategy::BlockedFetch),
            "the 8400 can only pull (blocked or straight), and packing must not win: {best:?}"
        );
    }
}

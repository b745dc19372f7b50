//! Golden counter traces: the mechanism counters behind a small reference
//! grid, checked byte-for-byte against fixtures in `tests/golden/`.
//!
//! Each fixture is the canonical-JSON rendering of a
//! [`gasnub::core::counters::CounterReport`] — sorted keys, unsigned
//! integers only, bandwidths as `f64::to_bits` — so a report either matches
//! its fixture exactly or the simulation changed. Any intentional change to
//! cache parameters, interconnect costs or the coherence protocol shows up
//! here as a byte diff of named counters (`l1_misses`, `bus_transactions`,
//! `ni_packets`, `mesi_s_to_i`, ...), which is far easier to review than a
//! shifted bandwidth number.
//!
//! To regenerate the fixtures after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! then inspect `git diff tests/golden/` and commit the new fixtures with
//! an explanation of why the counters moved.

use std::path::PathBuf;

use gasnub::core::counters::{collect_counters, CounterReport};
use gasnub::core::sweep::Grid;
use gasnub::core::SweepOp;
use gasnub::machines::registry::MachineRegistry;
use gasnub::machines::{MachineSpec, MeasureLimits};

/// The reference grid: one cache-resident and one DRAM-resident working
/// set, contiguous and strided — small enough to run in seconds, rich
/// enough that every counter family is exercised.
fn golden_grid() -> Grid {
    Grid {
        strides: vec![1, 16],
        working_sets: vec![32 << 10, 4 << 20],
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str, spec: MachineSpec, op: SweepOp) {
    let spec = spec.with_limits(MeasureLimits::fast());
    let report = collect_counters(&spec, op, &golden_grid(), 1)
        .expect("the spec must build")
        .expect("the chosen op must be supported on this machine");
    let rendered = report.render_json();

    // The fixture bytes must also parse back to the identical report —
    // guards the parser alongside the renderer.
    let reparsed = CounterReport::parse(&rendered).expect("rendered reports must parse");
    assert_eq!(reparsed, report, "{name}: JSON round-trip must be lossless");

    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); \
             run `UPDATE_GOLDEN=1 cargo test --test golden_traces` to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "{name}: counter report diverged from tests/golden/{name}.json — \
         if the model change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_traces` and review the diff"
    );
}

/// The 8400's coherent consumer pull: bus transactions, MESI transitions
/// and cache-to-cache supplies.
#[test]
fn dec8400_pull_matches_golden() {
    check_golden("dec8400-pull", MachineSpec::dec8400(), SweepOp::RemoteLoad);
}

/// The T3D's deposit path: NI packets, link transfers and the local read
/// stream feeding them.
#[test]
fn t3d_deposit_matches_golden() {
    check_golden("t3d-deposit", MachineSpec::t3d(), SweepOp::RemoteDeposit);
}

/// The T3E's E-register fetch: E-register traffic plus the stream-buffered
/// local stores.
#[test]
fn t3e_fetch_matches_golden() {
    check_golden("t3e-fetch", MachineSpec::t3e(), SweepOp::RemoteFetch);
}

/// A local probe on the golden grid too, so the pure memory-hierarchy
/// counters (hits, misses, fills, write-backs) are pinned as well.
#[test]
fn t3d_local_load_matches_golden() {
    check_golden("t3d-load", MachineSpec::t3d(), SweepOp::LocalLoad);
}

/// Resolves a machine by name through the built-in registry (the zoo
/// machines have no named constructor).
fn registry_spec(name: &str) -> MachineSpec {
    MachineRegistry::builtin()
        .resolve(name)
        .unwrap_or_else(|e| panic!("{name} must resolve: {e}"))
        .clone()
}

/// The T3D's store path: write-through L1 misses landing in the
/// coalescing write buffer, and the stalls of a full queue.
#[test]
fn t3d_local_store_matches_golden() {
    check_golden("t3d-store", MachineSpec::t3d(), SweepOp::LocalStore);
}

/// The 8400's copy with strided stores: write-allocate fill chains through
/// L2 and L3, dirty write-backs below L1 and interleaved load and store
/// fills from DRAM.
#[test]
fn dec8400_copy_stores_matches_golden() {
    check_golden(
        "dec8400-copy-stores",
        MachineSpec::dec8400(),
        SweepOp::CopyStridedStores,
    );
}

/// numa2s's copy with strided loads: three write-back levels, each with a
/// stream detector, under mixed load and store traffic.
#[test]
fn numa2s_copy_loads_matches_golden() {
    check_golden(
        "numa2s-copy-loads",
        registry_spec("numa2s"),
        SweepOp::CopyStridedLoads,
    );
}

/// smp16's stores: a write-through L1 forwarding every store to a 16-way
/// write-back L2 that allocates, fills and writes back.
#[test]
fn smp16_local_store_matches_golden() {
    check_golden("smp16-store", registry_spec("smp16"), SweepOp::LocalStore);
}

//! Structural properties of the measured surfaces, asserted for all three
//! machines: plateau monotonicity along the working-set axis, spectroscopy
//! of the cache structure, and stride-axis behaviour.

use gasnub::core::bench::{sweep_surface, SweepOp};
use gasnub::core::sweep::Grid;
use gasnub::machines::{Machine, MachineId, MachineSpec, MeasureLimits};

fn machines() -> Vec<Box<dyn Machine>> {
    [
        MachineSpec::dec8400(),
        MachineSpec::t3d(),
        MachineSpec::t3e(),
    ]
    .into_iter()
    .map(|spec| -> Box<dyn Machine> {
        Box::new(spec.with_limits(MeasureLimits::fast()).build().unwrap())
    })
    .collect()
}

fn grid() -> Grid {
    Grid {
        strides: vec![1, 2, 8, 16, 64],
        working_sets: vec![
            2 << 10,
            4 << 10,
            8 << 10,
            16 << 10,
            64 << 10,
            256 << 10,
            1 << 20,
            4 << 20,
            8 << 20,
            16 << 20,
        ],
    }
}

#[test]
fn bandwidth_never_meaningfully_rises_with_working_set() {
    // Larger working sets can only move data further from the processor.
    for m in &mut machines() {
        let s = sweep_surface(m.as_mut(), SweepOp::LocalLoad, &grid()).unwrap();
        for &stride in s.strides() {
            let col = s.column(stride).unwrap();
            for pair in col.windows(2) {
                let (w0, v0) = pair[0];
                let (w1, v1) = pair[1];
                assert!(
                    v1 <= v0 * 1.10,
                    "{}: stride {stride}: bw rose {v0} -> {v1} between ws {w0} and {w1}",
                    m.name()
                );
            }
        }
    }
}

#[test]
fn spectroscopy_matches_the_data_sheets() {
    let expect: &[(MachineId, &[u64])] = &[
        // The 8400's 96 KB L2 sits between measured points (64 K and 128 K),
        // so the knee attributes ~64 KB; L1 (8 K) and L3 (4 M) are exact.
        (MachineId::Dec8400, &[8 << 10, 4 << 20]),
        (MachineId::CrayT3d, &[8 << 10]),
        (MachineId::CrayT3e, &[8 << 10]),
    ];
    for m in &mut machines() {
        let s = sweep_surface(m.as_mut(), SweepOp::LocalLoad, &grid()).unwrap();
        let caches = s.inferred_cache_bytes();
        let want = expect.iter().find(|(id, _)| *id == m.id()).unwrap().1;
        for w in want {
            assert!(
                caches.contains(w),
                "{}: expected a knee at {w} bytes, inferred {caches:?}",
                m.name()
            );
        }
    }
}

#[test]
fn contiguous_is_never_the_slowest_stride_in_dram() {
    for m in &mut machines() {
        let s = sweep_surface(m.as_mut(), SweepOp::LocalLoad, &grid()).unwrap();
        let row = s.row(16 << 20).unwrap();
        let contig = row[0].1;
        for &(stride, v) in &row[1..] {
            assert!(
                contig >= v * 0.95,
                "{}: stride {stride} ({v}) beat contiguous ({contig}) in DRAM",
                m.name()
            );
        }
    }
}

#[test]
fn every_machine_peaks_in_its_l1() {
    for m in &mut machines() {
        let s = sweep_surface(m.as_mut(), SweepOp::LocalLoad, &grid()).unwrap();
        let l1 = s.value(4 << 10, 1).unwrap();
        assert!(
            (s.peak() - l1).abs() < 1e-9 || l1 >= s.peak() * 0.99,
            "{}: peak {} should be the L1 plateau {}",
            m.name(),
            s.peak(),
            l1
        );
    }
}

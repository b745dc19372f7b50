//! The §9 cross-machine comparison, derived from measurement.
//!
//! "Large strided remote transfers achieve only 22 MByte/s per processor on
//! the DEC 8400, a factor of 2.5 less than the 55 MByte/s measured in the
//! T3D, or a factor of 6.5 less than the 140 MByte/s measured in the T3E.
//! An exception to these performance differences are the contiguous
//! accesses and small strides where T3D and DEC 8400 perform alike — but
//! still a factor 2 below the T3E. We attribute those differences to the
//! memory systems design philosophies, i.e. a cache focus on the DEC
//! machine and a streams focus on the Cray machines."

use gasnub_machines::ProbeOp::{LocalCopy, LocalGather, LocalLoad, RemoteDeposit, RemoteFetch};
use gasnub_machines::{Machine, MachineId, ProbeRequest};

/// The §9 summary row for one machine (all MB/s, large working sets).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Which machine.
    pub machine: MachineId,
    /// Contiguous local loads from DRAM.
    pub local_load_contig: f64,
    /// Strided (stride 16) local loads from DRAM.
    pub local_load_strided: f64,
    /// Contiguous local copies.
    pub local_copy_contig: f64,
    /// Best strided local copy (the better of the two variants).
    pub local_copy_strided: f64,
    /// Best contiguous remote transfer.
    pub remote_contig: f64,
    /// Best strided (stride 16) remote transfer.
    pub remote_strided: f64,
    /// Indexed (gather) loads from DRAM.
    pub gather: f64,
}

impl MachineSummary {
    /// Measures the summary for `machine` with a DRAM-resident working set.
    pub fn measure(machine: &mut dyn Machine, ws_bytes: u64) -> Self {
        let id = machine.id();
        // Unsupported (remote) ops read as 0 MB/s.
        let mut mb_s = |op, stride, stride2| {
            let req = ProbeRequest::new(op, ws_bytes, stride).with_stride2(stride2);
            machine.probe(&req).map_or(0.0, |m| m.mb_s)
        };
        MachineSummary {
            machine: id,
            local_load_contig: mb_s(LocalLoad, 1, 0),
            local_load_strided: mb_s(LocalLoad, 16, 0),
            local_copy_contig: mb_s(LocalCopy, 1, 1),
            local_copy_strided: mb_s(LocalCopy, 16, 1).max(mb_s(LocalCopy, 1, 16)),
            remote_contig: mb_s(RemoteFetch, 1, 0).max(mb_s(RemoteDeposit, 1, 0)),
            remote_strided: mb_s(RemoteFetch, 16, 0).max(mb_s(RemoteDeposit, 16, 0)),
            gather: mb_s(LocalGather, 0, 0),
        }
    }

    /// The paper's §9 observation that remote copies are never slower than
    /// local copies on any of these machines.
    pub fn remote_at_least_local_copy(&self) -> bool {
        self.remote_contig >= 0.9 * self.local_copy_contig
    }
}

/// The full §9 comparison across machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One summary per machine, in the order measured.
    pub rows: Vec<MachineSummary>,
}

impl Comparison {
    /// Measures all `machines` at the given working set.
    pub fn measure(machines: &mut [Box<dyn Machine>], ws_bytes: u64) -> Self {
        Comparison {
            rows: machines
                .iter_mut()
                .map(|m| MachineSummary::measure(m.as_mut(), ws_bytes))
                .collect(),
        }
    }

    /// The summary for one machine, if measured.
    pub fn row(&self, id: MachineId) -> Option<&MachineSummary> {
        self.rows.iter().find(|r| r.machine == id)
    }

    /// Renders the comparison as an aligned table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}\n",
            "machine",
            "load s1",
            "load s16",
            "copy s1",
            "copy s16",
            "remote s1",
            "remote s16",
            "gather"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12}{:>12.0}{:>12.0}{:>12.0}{:>12.0}{:>12.0}{:>12.0}{:>10.0}\n",
                r.machine.label(),
                r.local_load_contig,
                r.local_load_strided,
                r.local_copy_contig,
                r.local_copy_strided,
                r.remote_contig,
                r.remote_strided,
                r.gather
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineSpec, MeasureLimits};

    fn comparison() -> Comparison {
        let mut machines: Vec<Box<dyn Machine>> = [
            MachineSpec::dec8400(),
            MachineSpec::t3d(),
            MachineSpec::t3e(),
        ]
        .into_iter()
        .map(|spec| -> Box<dyn Machine> {
            Box::new(spec.with_limits(MeasureLimits::fast()).build().unwrap())
        })
        .collect();
        Comparison::measure(&mut machines, 32 << 20)
    }

    #[test]
    fn section_9_strided_remote_ratios() {
        // 22 (8400) vs 55 (T3D, factor ~2.5) vs 140 (T3E, factor ~6.5).
        let c = comparison();
        let dec = c.row(MachineId::Dec8400).unwrap().remote_strided;
        let t3d = c.row(MachineId::CrayT3d).unwrap().remote_strided;
        let t3e = c.row(MachineId::CrayT3e).unwrap().remote_strided;
        let r_t3d = t3d / dec;
        let r_t3e = t3e / dec;
        assert!(
            r_t3d > 1.8 && r_t3d < 4.0,
            "T3D/8400 strided remote ratio {r_t3d} (paper 2.5)"
        );
        assert!(
            r_t3e > 4.5 && r_t3e < 9.0,
            "T3E/8400 strided remote ratio {r_t3e} (paper 6.5)"
        );
    }

    #[test]
    fn section_9_contiguous_exception() {
        // "contiguous accesses ... where T3D and DEC 8400 perform alike —
        // but still a factor 2 below the T3E."
        let c = comparison();
        let dec = c.row(MachineId::Dec8400).unwrap().remote_contig;
        let t3d = c.row(MachineId::CrayT3d).unwrap().remote_contig;
        let t3e = c.row(MachineId::CrayT3e).unwrap().remote_contig;
        let alike = t3d / dec;
        assert!(
            alike > 0.6 && alike < 1.5,
            "T3D ≈ 8400 contiguous remote: {alike}"
        );
        assert!(t3e / t3d > 1.8, "T3E factor ~2 above: {}", t3e / t3d);
    }

    #[test]
    fn remote_copies_never_slower_than_local_copies() {
        // §9: "On all three machines, the straight remote memory copy
        // bandwidth ... is equal to or higher than the local copy
        // performance."
        for r in &comparison().rows {
            assert!(r.remote_at_least_local_copy(), "{:?}: {r:?}", r.machine);
        }
    }

    #[test]
    fn gather_never_beats_strided() {
        for r in &comparison().rows {
            assert!(
                r.gather <= r.local_load_strided * 1.1,
                "{:?}: gather {} vs strided {}",
                r.machine,
                r.gather,
                r.local_load_strided
            );
        }
    }

    #[test]
    fn render_has_one_row_per_machine() {
        let c = comparison();
        let text = c.render();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("t3e"));
    }
}

//! Performance models for the distributed FFT: compute rates coupled to the
//! measured memory characterization, and fleet-contention transfer costs.

use gasnub_machines::ProbeOp::{LocalCopy, RemoteDeposit, RemoteFetch};
use gasnub_machines::{Ablation, Machine, MachineId, MachineSpec, MeasureLimits, ProbeRequest};
use gasnub_memsim::WORD_BYTES;
use gasnub_shmem::{TransferCost, TransferKind};
use std::collections::HashMap;

use crate::fft1d::fft_flops;

/// Bytes per complex element (two 64-bit words).
pub const COMPLEX_BYTES: u64 = 16;

fn fast_machine(id: MachineId) -> Box<dyn Machine> {
    let limits = MeasureLimits {
        max_measure_words: 16 * 1024,
        max_prime_words: 2 * 1024 * 1024,
    };
    assert!(
        id != MachineId::Custom,
        "FFT performance models exist only for the paper's machines"
    );
    let spec = MachineSpec::for_id(id).with_limits(limits);
    Box::new(spec.build().expect("paper machines build"))
}

/// Local 1D-FFT timing: the vendor-library flop rate bounded by the
/// measured local copy bandwidth at the row working set.
///
/// An n-point FFT performs `5 n log2 n` flops and streams roughly
/// `traffic_factor * 32 n log2 n` bytes through the memory system (each of
/// the `log2 n` stages reads and writes all `16 n` bytes; the factor
/// credits the library's cache blocking). The model takes the slower of the
/// flop pipe and the memory pipe — which is exactly why "the performance on
/// the T3D falls off with large problems, while the performance on the
/// DEC 8400 stays nearly at the same level" (§7.3: the 8400's L2/L3 hold
/// rows the T3D's 8 KB L1 cannot).
pub struct ComputeModel {
    machine_id: MachineId,
    clock_mhz: f64,
    peak_mflops: f64,
    traffic_factor: f64,
    machine: Box<dyn Machine>,
    copy_bw_cache: HashMap<u64, f64>,
}

impl std::fmt::Debug for ComputeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeModel")
            .field("machine", &self.machine_id)
            .field("peak_mflops", &self.peak_mflops)
            .field("traffic_factor", &self.traffic_factor)
            .finish()
    }
}

impl ComputeModel {
    /// Builds the compute model for one machine with its built-in
    /// vendor-library rate.
    pub fn new(id: MachineId) -> Self {
        // Peak MFlop/s of the vendor's 1D-FFT library per PE (fig 16:
        // T3E "up to 200 MFlop/s per processor"; the 8400's sum over four
        // processors is "more than a factor 2.5 higher" than the T3D's).
        let (peak_mflops, traffic_factor) = match id {
            MachineId::Dec8400 => (135.0, 0.5),
            MachineId::CrayT3d => (55.0, 0.5),
            MachineId::CrayT3e => (230.0, 0.5),
            MachineId::Custom => {
                panic!("FFT performance models exist only for the paper's machines")
            }
        };
        let machine = fast_machine(id);
        ComputeModel {
            machine_id: id,
            clock_mhz: machine.clock_mhz(),
            peak_mflops,
            traffic_factor,
            machine,
            copy_bw_cache: HashMap::new(),
        }
    }

    /// The machine this model describes.
    pub fn machine_id(&self) -> MachineId {
        self.machine_id
    }

    /// The machine clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.clock_mhz
    }

    /// Measured contiguous local copy bandwidth at working set `ws` bytes.
    fn copy_bw(&mut self, ws: u64) -> f64 {
        let machine = &mut self.machine;
        *self.copy_bw_cache.entry(ws).or_insert_with(|| {
            let req = ProbeRequest::new(LocalCopy, ws, 1);
            machine.probe(&req).expect("local copies always run").mb_s
        })
    }

    /// Time of one n-point 1D-FFT in microseconds.
    pub fn row_fft_us(&mut self, n: u64) -> f64 {
        let flops = fft_flops(n);
        let flop_us = flops / self.peak_mflops; // MFlops / (MFlop/s) = µs
        let bytes = self.traffic_factor * 2.0 * (COMPLEX_BYTES * n) as f64 * (n as f64).log2();
        let ws = (COMPLEX_BYTES * n).next_power_of_two();
        let mem_us = bytes / self.copy_bw(ws); // bytes / (MB/s) = µs
        flop_us.max(mem_us)
    }

    /// Cycles of one n-point 1D-FFT.
    pub fn row_fft_cycles(&mut self, n: u64) -> f64 {
        self.row_fft_us(n) * self.clock_mhz
    }

    /// Effective MFlop/s of one n-point 1D-FFT under this model.
    pub fn row_fft_mflops(&mut self, n: u64) -> f64 {
        fft_flops(n) / self.row_fft_us(n)
    }
}

/// Transfer costs for a PE inside the paper's four-processor runs,
/// including the machine-specific contention regime:
///
/// * **DEC 8400** — all PEs share the bus and home memory: per-PE bandwidth
///   is additionally capped so the *aggregate* never exceeds the measured
///   contiguous remote rate (latency-bound strided pulls scale, bus-bound
///   contiguous pulls do not);
/// * **Cray T3D** — the two PEs of a node pair share one network access
///   (footnote 1), halving per-PE link bandwidth;
/// * **Cray T3E** — "On the T3E there is no contention" (§6.2).
pub struct FleetCost {
    machine: Box<dyn Machine>,
    npes: usize,
    overhead_per_call: f64,
    barrier: f64,
    /// Aggregate cap in MB/s (bus-bound machines); `None` when transfers
    /// scale per PE.
    aggregate_cap: Option<f64>,
    cycles_per_word: HashMap<(TransferKind, u64), f64>,
}

impl std::fmt::Debug for FleetCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCost")
            .field("machine", &self.machine.id())
            .field("npes", &self.npes)
            .field("aggregate_cap", &self.aggregate_cap)
            .finish()
    }
}

impl FleetCost {
    /// Builds the fleet cost model for `npes` PEs of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `npes` is zero.
    pub fn new(id: MachineId, npes: usize) -> Self {
        assert!(npes > 0, "a fleet needs at least one PE");
        let limits = MeasureLimits {
            max_measure_words: 16 * 1024,
            max_prime_words: 256 * 1024,
        };
        let (spec, aggregate_cap) = match id {
            MachineId::Dec8400 => (
                MachineSpec::dec8400().ablate(Ablation::DramContention),
                true,
            ),
            MachineId::CrayT3d => (MachineSpec::t3d().ablate(Ablation::PairedTraffic), false),
            MachineId::CrayT3e => (Ok(MachineSpec::t3e()), false),
            MachineId::Custom => {
                panic!("FFT performance models exist only for the paper's machines")
            }
        };
        let spec = spec.expect("paper machines take their ablations");
        let mut machine: Box<dyn Machine> = Box::new(
            spec.with_limits(limits)
                .build()
                .expect("paper machines build"),
        );
        let cap = if aggregate_cap {
            // The bus-bound ceiling: the contiguous pull rate is as fast as
            // the shared path ever goes, regardless of how many PEs pull.
            let req = ProbeRequest::new(RemoteFetch, 8 << 20, 1);
            machine.probe(&req).map(|m| m.mb_s)
        } else {
            None
        };
        let overheads = gasnub_shmem::cost::CallOverheads::for_machine(id);
        FleetCost {
            machine,
            npes,
            overhead_per_call: overheads.per_call_cycles,
            barrier: overheads.barrier_cycles,
            aggregate_cap: cap,
            cycles_per_word: HashMap::new(),
        }
    }

    /// The number of PEs this fleet prices.
    pub fn npes(&self) -> usize {
        self.npes
    }

    fn cycles_per_word(&mut self, kind: TransferKind, stride: u64) -> f64 {
        let key = (kind, stride);
        if let Some(&c) = self.cycles_per_word.get(&key) {
            return c;
        }
        let ws = 8 << 20;
        let mut probe = |op| self.machine.probe(&ProbeRequest::new(op, ws, stride));
        let m = match kind {
            TransferKind::Deposit => probe(RemoteDeposit).or_else(|| probe(RemoteFetch)),
            TransferKind::Fetch => probe(RemoteFetch),
        }
        .expect("machine supports neither transfer direction");
        let clock = self.machine.clock_mhz();
        let mut per_word = WORD_BYTES as f64 * clock / m.mb_s.max(1e-9);
        if let Some(cap) = self.aggregate_cap {
            // Per-PE share of the shared-path ceiling.
            let cap_per_word = WORD_BYTES as f64 * clock / (cap / self.npes as f64);
            per_word = per_word.max(cap_per_word);
        }
        self.cycles_per_word.insert(key, per_word);
        per_word
    }
}

impl TransferCost for FleetCost {
    fn clock_mhz(&self) -> f64 {
        self.machine.clock_mhz()
    }

    fn call_cycles(&mut self, kind: TransferKind, nelems: u64, remote_stride: u64) -> f64 {
        if nelems == 0 {
            return 0.0;
        }
        self.overhead_per_call + self.cycles_per_word(kind, remote_stride.max(1)) * nelems as f64
    }

    fn barrier_cycles(&mut self) -> f64 {
        self.barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3d_compute_falls_off_at_large_n() {
        let mut m = ComputeModel::new(MachineId::CrayT3d);
        let small = m.row_fft_mflops(256);
        let large = m.row_fft_mflops(4096);
        assert!(small > 1.3 * large, "T3D must fall off: {small} vs {large}");
    }

    #[test]
    fn dec8400_compute_stays_flat() {
        // §7.3: "the performance on the DEC 8400 stays nearly at the same
        // level" thanks to the L2/L3 caches.
        let mut m = ComputeModel::new(MachineId::Dec8400);
        let small = m.row_fft_mflops(256);
        let large = m.row_fft_mflops(1024);
        assert!(
            (small - large).abs() / small < 0.25,
            "8400 flat: {small} vs {large}"
        );
    }

    #[test]
    fn compute_ordering_matches_fig16() {
        let rate = |id| ComputeModel::new(id).row_fft_mflops(256);
        let t3d = rate(MachineId::CrayT3d);
        let dec = rate(MachineId::Dec8400);
        let t3e = rate(MachineId::CrayT3e);
        assert!(dec > 2.0 * t3d, "8400 {dec} must be ~2.5x T3D {t3d}");
        assert!(t3e > dec, "T3E {t3e} must lead the 8400 {dec}");
        assert!(t3e <= 230.0 + 1.0);
    }

    #[test]
    fn fleet_cost_caps_8400_aggregate() {
        let mut single = FleetCost::new(MachineId::Dec8400, 1);
        let mut four = FleetCost::new(MachineId::Dec8400, 4);
        // Contiguous: bus bound, per-PE cost must grow ~4x with 4 PEs.
        let c1 = single.call_cycles(TransferKind::Fetch, 10_000, 1);
        let c4 = four.call_cycles(TransferKind::Fetch, 10_000, 1);
        assert!(
            c4 > 3.0 * c1,
            "contiguous pulls share the bus: {c1} vs {c4}"
        );
        // Strided: latency bound, nearly unaffected by fleet size.
        let s1 = single.call_cycles(TransferKind::Fetch, 10_000, 512);
        let s4 = four.call_cycles(TransferKind::Fetch, 10_000, 512);
        assert!(
            s4 < 1.5 * s1,
            "strided pulls are latency bound: {s1} vs {s4}"
        );
    }

    #[test]
    fn t3e_fleet_is_uncontended() {
        let mut single = FleetCost::new(MachineId::CrayT3e, 1);
        let mut four = FleetCost::new(MachineId::CrayT3e, 4);
        let c1 = single.call_cycles(TransferKind::Deposit, 10_000, 1);
        let c4 = four.call_cycles(TransferKind::Deposit, 10_000, 1);
        assert!((c1 - c4).abs() < 1e-9);
    }

    #[test]
    fn fleet_probes_are_cached() {
        let mut f = FleetCost::new(MachineId::CrayT3d, 4);
        let a = f.call_cycles(TransferKind::Deposit, 100, 512);
        let b = f.call_cycles(TransferKind::Deposit, 100, 512);
        assert_eq!(a, b);
    }
}

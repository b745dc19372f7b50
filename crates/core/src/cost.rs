//! The compiler-facing transfer cost model.
//!
//! "If a given platform allows more than one way to implement a
//! communication step, the modeled bandwidth metric is used to determine the
//! best way to implement this communication step" (§4.1). This module is
//! that decision procedure: it measures the candidate implementations of a
//! strided remote transfer on a machine and picks the cheapest.
//!
//! The candidate strategies for moving `n` words whose remote side has a
//! given stride:
//!
//! * **Deposit** — strided remote stores (T3D's preferred style);
//! * **Fetch** — strided remote loads (8400's only style, T3E's preferred
//!   style for even strides);
//! * **PackAndDeposit / PackAndFetch** — first rearrange locally into a
//!   contiguous buffer, then send contiguously. The paper's §9 finding is
//!   that this "never pays off" on these machines because remote bandwidth
//!   is at least local copy bandwidth.

use gasnub_machines::ProbeOp::{LocalCopy, RemoteDeposit, RemoteFetch};
use gasnub_machines::{Machine, MachineId, ProbeRequest};
use gasnub_memsim::WORD_BYTES;

/// A candidate implementation of a strided remote transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Strided remote stores (push).
    Deposit,
    /// Strided remote loads (pull).
    Fetch,
    /// Local strided-to-contiguous copy, then contiguous push.
    PackAndDeposit,
    /// Local strided-to-contiguous copy, then contiguous pull.
    PackAndFetch,
    /// Partition the transfer into cache-resident sub-blocks pulled
    /// cache-to-cache: §6.2's "strided remote transfers can be done faster
    /// from L3 cache if a global communication operation can be blocked".
    BlockedFetch,
}

impl Strategy {
    /// All candidate strategies.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::Deposit,
            Strategy::Fetch,
            Strategy::PackAndDeposit,
            Strategy::PackAndFetch,
            Strategy::BlockedFetch,
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Deposit => "deposit (strided remote stores)",
            Strategy::Fetch => "fetch (strided remote loads)",
            Strategy::PackAndDeposit => "pack locally + contiguous deposit",
            Strategy::PackAndFetch => "pack locally + contiguous fetch",
            Strategy::BlockedFetch => "cache-blocked fetch (cache-to-cache sub-blocks)",
        };
        f.write_str(s)
    }
}

/// A priced strategy for a concrete transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEstimate {
    /// The strategy priced.
    pub strategy: Strategy,
    /// Estimated time in microseconds.
    pub us: f64,
    /// Effective bandwidth in MB/s.
    pub mb_s: f64,
}

/// Bandwidths (MB/s) measured for one stride.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StrideRates {
    stride: u64,
    deposit: Option<f64>,
    fetch: Option<f64>,
    local_pack: f64,
    /// Fetch rate with a cache-resident working set (the blocked regime),
    /// when the machine supports fetch.
    blocked_fetch: Option<f64>,
}

/// Per-sub-block synchronization cost of the blocked strategy, in
/// microseconds (the producer and consumer must hand off each block).
const BLOCK_SYNC_US: f64 = 20.0;

/// A measured per-machine cost model over a set of strides.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    machine: MachineId,
    clock_mhz: f64,
    ws_bytes: u64,
    block_bytes: u64,
    deposit_contig: Option<f64>,
    fetch_contig: Option<f64>,
    rates: Vec<StrideRates>,
}

impl CostModel {
    /// Measures the candidate implementations on `machine` for the given
    /// strides, using a working set of `ws_bytes` (large working sets give
    /// the asymptotic model of §6; figs 12-14 use 65 MB). The blocked
    /// strategy is priced at a 2 MB sub-block (half the 8400's L3).
    pub fn characterize(machine: &mut dyn Machine, strides: &[u64], ws_bytes: u64) -> Self {
        Self::characterize_with_block(machine, strides, ws_bytes, 2 << 20)
    }

    /// [`CostModel::characterize`] with an explicit blocked sub-block size.
    pub fn characterize_with_block(
        machine: &mut dyn Machine,
        strides: &[u64],
        ws_bytes: u64,
        block_bytes: u64,
    ) -> Self {
        let (machine_id, clock_mhz) = (machine.id(), machine.clock_mhz());
        let mut mb_s = |op, ws, stride| {
            let req = ProbeRequest::new(op, ws, stride);
            machine.probe(&req).map(|m| m.mb_s)
        };
        let deposit_contig = mb_s(RemoteDeposit, ws_bytes, 1);
        let fetch_contig = mb_s(RemoteFetch, ws_bytes, 1);
        let rates = strides
            .iter()
            .map(|&stride| StrideRates {
                stride,
                deposit: mb_s(RemoteDeposit, ws_bytes, stride),
                fetch: mb_s(RemoteFetch, ws_bytes, stride),
                // Packing rearranges with strided loads into a contiguous
                // buffer.
                local_pack: mb_s(LocalCopy, ws_bytes, stride).expect("local copies always run"),
                blocked_fetch: mb_s(RemoteFetch, block_bytes, stride),
            })
            .collect();
        CostModel {
            machine: machine_id,
            clock_mhz,
            ws_bytes,
            block_bytes,
            deposit_contig,
            fetch_contig,
            rates,
        }
    }

    /// Which machine this model describes.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The strides the model covers.
    pub fn strides(&self) -> Vec<u64> {
        self.rates.iter().map(|r| r.stride).collect()
    }

    fn rate_for(&self, stride: u64) -> Option<&StrideRates> {
        self.rates.iter().find(|r| r.stride == stride)
    }

    /// Prices one strategy for moving `words` words at `stride`, or `None`
    /// when the machine does not support it (or the stride was not
    /// characterized).
    pub fn estimate(
        &self,
        strategy: Strategy,
        words: u64,
        stride: u64,
    ) -> Option<TransferEstimate> {
        let r = self.rate_for(stride)?;
        let bytes = (words * WORD_BYTES) as f64;
        let us_at = |mb_s: f64| bytes / mb_s; // bytes / (MB/s) = µs
        let us = match strategy {
            Strategy::Deposit => us_at(r.deposit?),
            Strategy::Fetch => us_at(r.fetch?),
            Strategy::PackAndDeposit => us_at(r.local_pack) + us_at(self.deposit_contig?),
            Strategy::PackAndFetch => us_at(r.local_pack) + us_at(self.fetch_contig?),
            Strategy::BlockedFetch => {
                let blocks = ((words * WORD_BYTES) as f64 / self.block_bytes as f64).ceil();
                us_at(r.blocked_fetch?) + blocks * BLOCK_SYNC_US
            }
        };
        Some(TransferEstimate {
            strategy,
            us,
            mb_s: bytes / us,
        })
    }

    /// Prices every supported strategy, cheapest first.
    pub fn rank(&self, words: u64, stride: u64) -> Vec<TransferEstimate> {
        let mut out: Vec<TransferEstimate> = Strategy::all()
            .iter()
            .filter_map(|&s| self.estimate(s, words, stride))
            .collect();
        out.sort_by(|a, b| a.us.partial_cmp(&b.us).expect("estimates are finite"));
        out
    }

    /// The cheapest supported strategy.
    ///
    /// # Panics
    ///
    /// Panics if no strategy is supported for `stride` (stride not in the
    /// characterized set).
    pub fn best(&self, words: u64, stride: u64) -> TransferEstimate {
        self.rank(words, stride)
            .into_iter()
            .next()
            .expect("at least one strategy must be supported")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnub_machines::{MachineSpec, MeasureLimits};

    // Large enough to be DRAM-resident even past the 8400's 4 MB L3 — the
    // cost model's asymptotic regime (the paper's figs 12-14 use 65 MB).
    const WS: u64 = 32 << 20;

    fn model(spec: MachineSpec) -> CostModel {
        let mut m = spec.with_limits(MeasureLimits::fast()).build().unwrap();
        CostModel::characterize(&mut m, &[1, 15, 16], WS)
    }

    #[test]
    fn t3d_prefers_deposit() {
        // §9: "On the T3D, pulling data (fetch model) proves to be
        // consistently inferior than pushing data (deposit model)."
        let m = model(MachineSpec::t3d());
        for stride in [1, 15, 16] {
            let best = m.best(100_000, stride);
            assert_eq!(
                best.strategy,
                Strategy::Deposit,
                "stride {stride}: {best:?}"
            );
        }
    }

    #[test]
    fn t3e_prefers_fetch_for_even_strides() {
        // §9: "On the T3E, pulling data seems to work equally well (odd
        // strides) or better (even strides) than pushing data."
        let m = model(MachineSpec::t3e());
        let best = m.best(100_000, 16);
        assert_eq!(best.strategy, Strategy::Fetch);
        // Odd strides: roughly equal; neither should dominate by 2x.
        let dep = m.estimate(Strategy::Deposit, 100_000, 15).unwrap();
        let fetch = m.estimate(Strategy::Fetch, 100_000, 15).unwrap();
        let ratio = dep.us / fetch.us;
        assert!(ratio < 2.0 && ratio > 0.5, "odd-stride ratio {ratio}");
    }

    #[test]
    fn dec8400_only_pulls() {
        let m = model(MachineSpec::dec8400());
        let best = m.best(100_000, 16);
        assert!(
            matches!(
                best.strategy,
                Strategy::Fetch | Strategy::PackAndFetch | Strategy::BlockedFetch
            ),
            "the 8400 cannot deposit: {best:?}"
        );
        assert!(m.estimate(Strategy::Deposit, 100_000, 16).is_none());
    }

    #[test]
    fn blocked_fetch_wins_strided_transfers_on_the_8400() {
        // §6.2/§9: "strided remote transfers can be done faster from L3
        // cache if a global communication operation can be blocked" — the
        // L3-resident supplier beats the DRAM-resident one.
        let m = model(MachineSpec::dec8400());
        let blocked = m.estimate(Strategy::BlockedFetch, 1 << 20, 16).unwrap();
        let straight = m.estimate(Strategy::Fetch, 1 << 20, 16).unwrap();
        assert!(
            blocked.us < straight.us,
            "blocked {blocked:?} must beat straight {straight:?} on the 8400"
        );
    }

    #[test]
    fn blocked_fetch_does_not_help_the_crays() {
        // The Crays' remote rates do not depend on the producer's caches
        // (E-registers and the deposit circuitry read/write memory
        // directly), so blocking only adds synchronization.
        for m in [model(MachineSpec::t3d()), model(MachineSpec::t3e())] {
            let best = m.best(1 << 20, 16);
            assert_ne!(
                best.strategy,
                Strategy::BlockedFetch,
                "{:?}: {best:?}",
                m.machine()
            );
        }
    }

    #[test]
    fn packing_never_pays_off() {
        // §9: "using local memory copies to rearrange access patterns, or
        // pack communication buffers or blocks, never pays off."
        for m in [
            model(MachineSpec::t3d()),
            model(MachineSpec::t3e()),
            model(MachineSpec::dec8400()),
        ] {
            for stride in [15, 16] {
                let best = m.best(100_000, stride);
                assert!(
                    !matches!(
                        best.strategy,
                        Strategy::PackAndDeposit | Strategy::PackAndFetch
                    ),
                    "{:?}: packing won at stride {stride}: {best:?}",
                    m.machine()
                );
            }
        }
    }

    #[test]
    fn rank_is_sorted_and_estimates_scale_linearly() {
        let m = model(MachineSpec::t3d());
        let ranked = m.rank(10_000, 16);
        assert!(ranked.windows(2).all(|w| w[0].us <= w[1].us));
        let one = m.estimate(Strategy::Deposit, 10_000, 16).unwrap();
        let ten = m.estimate(Strategy::Deposit, 100_000, 16).unwrap();
        assert!((ten.us / one.us - 10.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_stride_is_none() {
        let m = model(MachineSpec::t3d());
        assert!(m.estimate(Strategy::Deposit, 10, 7).is_none());
    }
}

//! The unified probe API: one request type, one entry point.
//!
//! A [`ProbeRequest`] names the operation and its grid cell (working set,
//! stride and, for copies, the store stride). [`Machine::probe`] answers
//! it — the simulator engine ([`crate::TransferEngine`], which consults
//! the probe memo internally) and the analytic crate's tiered machine
//! (which routes each request between its model and the simulator by the
//! tier its spawner was built with, reporting the choice as a
//! [`ProbePath`]) both implement that one method.
//!
//! [`Machine::probe`]: crate::Machine::probe

/// Which probe a request runs. Also the operation half of every memo
/// key (see [`crate::memo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOp {
    /// Local Load-Sum: strided loads over a primed working set (figs
    /// 1/3/6).
    LocalLoad,
    /// Local Store-Constant: strided stores over a working set (§4.2's
    /// third benchmark, reported in the text only).
    LocalStore,
    /// Local memory copy with a load and a store stride (figs 9-11).
    /// Payload counts the copied words once.
    LocalCopy,
    /// Local indexed (gather) loads: the working set visited in a
    /// deterministic pseudo-random permutation — the paper's third access
    /// pattern class ("contiguous, strided, and indexed accesses", §4), the
    /// pattern of sparse-matrix codes. Neither read-ahead logic nor stream
    /// buffers can help here. Ignores the stride.
    LocalGather,
    /// Pure remote loads (fig 2's pull on the 8400); unsupported on
    /// machines without such a mode.
    RemoteLoad,
    /// Fetch transfer: strided remote loads + contiguous local stores
    /// (figs 4/7, and the fetch series of figs 12-14).
    RemoteFetch,
    /// Deposit transfer: contiguous local loads + strided remote stores
    /// (figs 5/8, and the deposit series of figs 13-14). Unsupported on the
    /// DEC 8400, which "does not have support for pushing data into memory
    /// or caches of a remote processor" (§5.2).
    RemoteDeposit,
}

impl ProbeOp {
    /// Short ASCII label ("local_load", "remote_fetch", ...), matching the
    /// `probe.*` event names of the trace layer.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOp::LocalLoad => "local_load",
            ProbeOp::LocalStore => "local_store",
            ProbeOp::LocalCopy => "local_copy",
            ProbeOp::LocalGather => "local_gather",
            ProbeOp::RemoteLoad => "remote_load",
            ProbeOp::RemoteFetch => "remote_fetch",
            ProbeOp::RemoteDeposit => "remote_deposit",
        }
    }

    /// Whether this operation crosses the machine's remote path.
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            ProbeOp::RemoteLoad | ProbeOp::RemoteFetch | ProbeOp::RemoteDeposit
        )
    }
}

/// Which execution tier a tiered machine routes by (`--tier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeTier {
    /// Analytic answer where the model is trusted for the cell, full
    /// simulation everywhere else (fault plans, recorders, boundary cells).
    Auto,
    /// Force the analytic model, trusted or not (model validation).
    Analytic,
    /// Force the full cycle-accounting simulation (the historical default).
    #[default]
    Simulate,
}

impl ProbeTier {
    /// Parses the CLI spelling (`auto` / `analytic` / `sim`).
    pub fn parse(label: &str) -> Option<ProbeTier> {
        match label {
            "auto" => Some(ProbeTier::Auto),
            "analytic" => Some(ProbeTier::Analytic),
            "sim" => Some(ProbeTier::Simulate),
            _ => None,
        }
    }

    /// The CLI spelling of this tier.
    pub fn label(self) -> &'static str {
        match self {
            ProbeTier::Auto => "auto",
            ProbeTier::Analytic => "analytic",
            ProbeTier::Simulate => "sim",
        }
    }
}

/// One probe, fully described: the operation and its grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeRequest {
    /// The operation to measure.
    pub op: ProbeOp,
    /// Working set in bytes.
    pub ws_bytes: u64,
    /// Primary stride in 64-bit words (load stride for copies; ignored by
    /// gathers).
    pub stride: u64,
    /// Secondary stride (store stride for [`ProbeOp::LocalCopy`]; ignored
    /// elsewhere).
    pub stride2: u64,
}

impl ProbeRequest {
    /// A request for `op` at `(ws_bytes, stride)`; copies store
    /// contiguously until [`ProbeRequest::with_stride2`] says otherwise.
    pub fn new(op: ProbeOp, ws_bytes: u64, stride: u64) -> Self {
        ProbeRequest {
            op,
            ws_bytes,
            stride,
            stride2: if op == ProbeOp::LocalCopy { 1 } else { 0 },
        }
    }

    /// Sets the secondary (store) stride of a copy.
    #[must_use]
    pub fn with_stride2(mut self, stride2: u64) -> Self {
        self.stride2 = stride2;
        self
    }

    /// The request with the fields its op ignores zeroed: gathers have no
    /// stride, only copies have a store stride, and a copy's store stride
    /// is at least 1. Requests that differ only in ignored fields normalise
    /// to the same value, so they share one memo entry and one analytic
    /// route.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        if self.op == ProbeOp::LocalGather {
            self.stride = 0;
        }
        self.stride2 = if self.op == ProbeOp::LocalCopy {
            self.stride2.max(1)
        } else {
            0
        };
        self
    }
}

/// Which path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbePath {
    /// The closed-form analytic model.
    Analytic,
    /// The cycle-accounting simulator (directly or via the memo).
    Simulated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_round_trip() {
        for tier in [ProbeTier::Auto, ProbeTier::Analytic, ProbeTier::Simulate] {
            assert_eq!(ProbeTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(ProbeTier::parse("warp"), None);
        assert_eq!(ProbeTier::default(), ProbeTier::Simulate);
    }

    #[test]
    fn normalisation_zeroes_ignored_fields() {
        let gather = ProbeRequest::new(ProbeOp::LocalGather, 1 << 20, 16).with_stride2(4);
        assert_eq!(gather.normalized().stride, 0);
        assert_eq!(gather.normalized().stride2, 0);
        let copy = ProbeRequest::new(ProbeOp::LocalCopy, 1 << 20, 2).with_stride2(0);
        assert_eq!(copy.normalized().stride, 2);
        assert_eq!(copy.normalized().stride2, 1);
        let load = ProbeRequest::new(ProbeOp::LocalLoad, 1 << 20, 8).with_stride2(3);
        assert_eq!(
            load.normalized(),
            ProbeRequest::new(ProbeOp::LocalLoad, 1 << 20, 8)
        );
    }
}

//! The common probe surface of a characterized machine.

use gasnub_trace::{CounterSet, Event, Recorder};

use crate::cancel::CancelToken;
use crate::limits::MeasureLimits;
use crate::probe::ProbeRequest;

/// Which of the paper's three systems a model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// DEC AlphaServer 8400 (bus-based cache-coherent SMP).
    Dec8400,
    /// Cray T3D (150 MHz EV-4 PEs on a 3D torus).
    CrayT3d,
    /// Cray T3E (300 MHz EV-5 PEs, E-registers, stream buffers).
    CrayT3e,
    /// Any other machine: a zoo spec file or [`crate::MachineSpec::custom`].
    Custom,
}

impl MachineId {
    /// Short ASCII label used in tables and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            MachineId::Dec8400 => "dec8400",
            MachineId::CrayT3d => "t3d",
            MachineId::CrayT3e => "t3e",
            MachineId::Custom => "custom",
        }
    }

    /// Parses a label (as produced by [`MachineId::label`]) or a common
    /// alias back into an id. Returns `None` for unknown names.
    pub fn from_label(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dec8400" | "8400" | "alphaserver" => Some(MachineId::Dec8400),
            "t3d" | "crayt3d" | "cray-t3d" => Some(MachineId::CrayT3d),
            "t3e" | "crayt3e" | "cray-t3e" => Some(MachineId::CrayT3e),
            "custom" => Some(MachineId::Custom),
            _ => None,
        }
    }
}

impl std::str::FromStr for MachineId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MachineId::from_label(s).ok_or_else(|| format!("unknown machine '{s}'"))
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            MachineId::Dec8400 => "DEC 8400",
            MachineId::CrayT3d => "Cray T3D",
            MachineId::CrayT3e => "Cray T3E",
            MachineId::Custom => "custom machine",
        };
        f.write_str(name)
    }
}

/// One benchmark result: payload moved, simulated cycles, and the bandwidth
/// those imply at the machine's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Payload bytes (copied words are counted once).
    pub bytes: u64,
    /// Simulated CPU cycles of the measured pass.
    pub cycles: f64,
    /// `bytes * clock_mhz / cycles`, in MB/s.
    pub mb_s: f64,
}

impl Measurement {
    /// Builds a measurement, computing the bandwidth from the clock.
    pub fn new(bytes: u64, cycles: f64, clock_mhz: f64) -> Self {
        let mb_s = if cycles > 0.0 {
            bytes as f64 * clock_mhz / cycles
        } else {
            0.0
        };
        Measurement {
            bytes,
            cycles,
            mb_s,
        }
    }
}

/// A machine that can run the paper's micro-benchmarks through one entry
/// point, [`Machine::probe`].
///
/// All working sets are in bytes, all strides in 64-bit words, matching the
/// paper's axes. Each probe starts from a cold machine (implementations
/// flush first), primes the hierarchy with one pass over the working set,
/// and measures a second pass — the paper's §5 methodology.
pub trait Machine {
    /// Which system this is.
    fn id(&self) -> MachineId;

    /// Human-readable name (includes the clock).
    fn name(&self) -> String {
        format!("{} ({} MHz)", self.id(), self.clock_mhz())
    }

    /// Short registry label used in tables, CSV and report output. For
    /// spec-defined machines this is the spec's `name` field; the default
    /// falls back to the model-family id's label.
    fn label(&self) -> String {
        self.id().label().to_string()
    }

    /// Processor clock in MHz.
    fn clock_mhz(&self) -> f64;

    /// Current measurement caps.
    fn limits(&self) -> MeasureLimits;

    /// Replaces the measurement caps (tests use [`MeasureLimits::fast`]).
    fn set_limits(&mut self, limits: MeasureLimits);

    /// Runs one probe (see [`crate::ProbeOp`] for the seven operations). Returns
    /// `None` only when the machine does not support the operation — a
    /// property of the machine and the op, never of the cell.
    fn probe(&mut self, req: &ProbeRequest) -> Option<Measurement>;

    /// Installs an event recorder. While the recorder is enabled, every
    /// probe harvests its component counters and records one `probe.*`
    /// event; the default [`gasnub_trace::NullRecorder`] keeps the probes on
    /// their unobserved fast path. The default implementation ignores the
    /// recorder (for machines without instrumentation).
    fn set_recorder(&mut self, _recorder: Box<dyn Recorder>) {}

    /// Takes the counter set harvested by the most recent probe, if any.
    /// Returns `None` when no enabled recorder observed a probe.
    fn take_counters(&mut self) -> Option<CounterSet> {
        None
    }

    /// Drains all events buffered by the installed recorder.
    fn drain_events(&mut self) -> Vec<Event> {
        Vec::new()
    }

    /// Installs a cooperative cancellation token. Instrumented machines
    /// ([`crate::engine::TransferEngine`]) consult it periodically inside
    /// their probe loops and unwind with
    /// [`crate::cancel::CellCancelled`] once it is cancelled — the hook the
    /// resilient sweep runner uses to enforce per-cell wall-clock budgets.
    /// The default implementation ignores the token (such machines simply
    /// cannot be interrupted mid-probe).
    fn set_cancel_token(&mut self, _token: CancelToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_bandwidth_formula() {
        let m = Measurement::new(8, 2.0, 300.0);
        assert!((m.mb_s - 1200.0).abs() < 1e-9);
        let empty = Measurement::new(8, 0.0, 300.0);
        assert_eq!(empty.mb_s, 0.0);
    }

    #[test]
    fn machine_labels() {
        assert_eq!(MachineId::Dec8400.label(), "dec8400");
        assert_eq!(MachineId::CrayT3d.to_string(), "Cray T3D");
    }
}

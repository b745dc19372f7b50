//! Offline answers computed apart from the process under test: probes
//! through `dispatch` and sweeps through `ResilientSweep`, exactly as the
//! library entry points give them. The serve checks compare against these.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use gasnub::analytic::TieredSpec;
use gasnub::core::storage::{crc32, read_verified};
use gasnub::core::{Grid, ResilientSweep, SweepOp};
use gasnub::machines::{
    Machine, MachineRegistry, MachineSpec, MeasureLimits, ProbeTier, SpawnEngine,
};

/// The spec the CLI and the server build for `machine`: registry lookup
/// plus the fast measurement caps.
pub fn fast_spec(registry: &MachineRegistry, machine: &str) -> Result<MachineSpec, String> {
    Ok(registry
        .resolve(machine)
        .map_err(|e| e.to_string())?
        .clone()
        .with_limits(MeasureLimits::fast()))
}

pub fn tier(label: &str) -> ProbeTier {
    ProbeTier::parse(label).expect("benchmark tiers are auto, analytic or sim")
}

/// One probe at `tier` on a freshly spawned engine.
pub fn probe(
    spec: &MachineSpec,
    op: SweepOp,
    tier: ProbeTier,
    ws: u64,
    stride: u64,
) -> Result<Option<f64>, String> {
    let err = |e: gasnub::memsim::SimError| e.to_string();
    Ok(match tier {
        ProbeTier::Simulate => op.measure(&mut spec.spawn_engine().map_err(err)?, ws, stride),
        t => {
            let tiered = TieredSpec::new(spec.clone(), t).map_err(err)?;
            op.measure(&mut tiered.spawn_engine().map_err(err)?, ws, stride)
        }
    })
}

/// The checkpoint payload (without footer) and the footer's CRC.
#[derive(Debug, Clone)]
pub struct Payload {
    pub text: String,
    pub crc: u32,
}

type SweepKey = (String, &'static str, &'static str, Vec<u64>, Vec<u64>);
type ProbeKey = (String, &'static str, &'static str, u64, u64);

/// Memoizing oracle for the serve checks.
pub struct Offline {
    registry: MachineRegistry,
    dir: PathBuf,
    probes: HashMap<ProbeKey, Option<u64>>,
    sweeps: HashMap<SweepKey, Payload>,
}

impl Offline {
    pub fn new(dir: &Path) -> Result<Offline, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Offline {
            registry: MachineRegistry::discover(),
            dir: dir.to_path_buf(),
            probes: HashMap::new(),
            sweeps: HashMap::new(),
        })
    }

    /// `f64::to_bits` of the probe's answer (`None`: unsupported).
    pub fn probe_bits(
        &mut self,
        machine: &str,
        op: &'static str,
        tier_label: &'static str,
        ws: u64,
        stride: u64,
    ) -> Result<Option<u64>, String> {
        let key = (machine.to_string(), op, tier_label, ws, stride);
        if let Some(&bits) = self.probes.get(&key) {
            return Ok(bits);
        }
        let spec = fast_spec(&self.registry, machine)?;
        let op_value = SweepOp::parse(op).ok_or("unknown op")?;
        let bits = probe(&spec, op_value, tier(tier_label), ws, stride)?.map(f64::to_bits);
        self.probes.insert(key, bits);
        Ok(bits)
    }

    /// The payload an offline `gasnub sweep` of this surface writes.
    pub fn sweep(
        &mut self,
        machine: &str,
        op: &'static str,
        tier_label: &'static str,
        grid: &Grid,
    ) -> Result<Payload, String> {
        let key = (
            machine.to_string(),
            op,
            tier_label,
            grid.strides.clone(),
            grid.working_sets.clone(),
        );
        if let Some(p) = self.sweeps.get(&key) {
            return Ok(p.clone());
        }
        let spec = fast_spec(&self.registry, machine)?;
        let op_value = SweepOp::parse(op).ok_or("unknown op")?;
        let tier = tier(tier_label);
        let name = spec.spawn_engine().map_err(|e| e.to_string())?.name();
        let title = op_value.checkpoint_title(&name, false, tier);
        let path = self.dir.join(format!("oracle-{}.json", self.sweeps.len()));
        let _ = std::fs::remove_file(&path);
        let runner = ResilientSweep::new(&path)
            .with_spec_hash(spec.spec_hash())
            .with_fsync(false);
        let outcome = match tier {
            ProbeTier::Simulate => runner.run_parallel_op(&title, grid, 1, &spec, op_value),
            t => {
                let tiered = TieredSpec::new(spec.clone(), t).map_err(|e| e.to_string())?;
                runner.run_parallel_op(&title, grid, 1, &tiered, op_value)
            }
        }
        .map_err(|e| format!("offline sweep {machine} {op}: {e}"))?;
        if !outcome.is_complete() {
            return Err(format!("offline sweep {machine} {op} did not complete"));
        }
        let payload = checkpoint(&path)?;
        let _ = std::fs::remove_file(&path);
        self.sweeps.insert(key, payload.clone());
        Ok(payload)
    }
}

/// Reads a checkpoint through the program's own verifier and returns its
/// payload with the CRC its footer declares. The declared CRC is checked
/// again here against the payload bytes.
pub fn checkpoint(path: &Path) -> Result<Payload, String> {
    let text = read_verified(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .ok_or_else(|| format!("{}: missing", path.display()))?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let crc = raw
        .trim_end()
        .rsplit('\n')
        .next()
        .and_then(|footer| {
            footer
                .split_whitespace()
                .find_map(|f| f.strip_prefix("crc32="))
        })
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("{}: no crc32 in footer", path.display()))?;
    if crc32(text.as_bytes()) != crc {
        return Err(format!(
            "{}: payload does not match its crc32",
            path.display()
        ));
    }
    Ok(Payload { text, crc })
}

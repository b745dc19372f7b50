//! Banked DRAM with open-row (page mode) state.
//!
//! The paper attributes several effects to DRAM internals:
//!
//! * "DRAM accesses within the same DRAM page are accelerated" (T3D, §3.2) —
//!   modelled by the open-row hit/miss distinction;
//! * interleaved memory modules on the DEC 8400 (§3.1) — modelled by bank
//!   interleaving;
//! * "the ripples in Figure 8 indicate that the memory system at the
//!   destination node has difficulties storing data at full network speed if
//!   the same bank is hit in consecutive receives" (§5.6) — modelled by
//!   per-bank busy windows that stall same-bank back-to-back accesses.

use crate::access::Addr;
use crate::error::ConfigError;

/// Static description of a DRAM subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent banks. Must be a power of two.
    pub banks: u64,
    /// Bytes of consecutive address space mapped to one bank before moving to
    /// the next (the interleave granularity). Must be a power of two.
    pub interleave_bytes: u64,
    /// Row (page) size in bytes per bank. Must be a power of two and at
    /// least the interleave granularity.
    pub row_bytes: u64,
    /// Cycles to transfer one line-sized burst when the row is already open.
    pub row_hit_cycles: f64,
    /// Extra cycles (precharge + activate) when the access goes to a
    /// different row of the bank than the currently open one.
    pub row_miss_extra_cycles: f64,
    /// Cycles a bank stays busy after an access begins; a subsequent access
    /// to the *same* bank within this window stalls for the remainder.
    pub bank_busy_cycles: f64,
}

impl DramConfig {
    /// Validates the structural invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if bank count, interleave or row size are not
    /// powers of two, if the row is smaller than the interleave granularity,
    /// or if any of the cycle costs is negative.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = "dram";
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(ConfigError::new(
                c,
                "bank count must be a non-zero power of two",
            ));
        }
        if self.interleave_bytes == 0 || !self.interleave_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                c,
                "interleave granularity must be a non-zero power of two",
            ));
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                c,
                "row size must be a non-zero power of two",
            ));
        }
        if self.row_bytes < self.interleave_bytes {
            return Err(ConfigError::new(
                c,
                "row size must be at least the interleave granularity",
            ));
        }
        if self.row_hit_cycles < 0.0
            || self.row_miss_extra_cycles < 0.0
            || self.bank_busy_cycles < 0.0
        {
            return Err(ConfigError::new(c, "cycle costs must be non-negative"));
        }
        Ok(())
    }

    /// The bank a byte address maps to.
    pub fn bank_of(&self, addr: Addr) -> u64 {
        (addr / self.interleave_bytes) % self.banks
    }

    /// The row (within its bank) a byte address maps to.
    pub fn row_of(&self, addr: Addr) -> u64 {
        // Consecutive interleave-sized chunks of one bank form its rows.
        (addr / (self.interleave_bytes * self.banks)) * self.interleave_bytes / self.row_bytes
    }
}

/// What one DRAM access experienced, for statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramOutcome {
    /// Total cycles charged for this access (including any bank stall).
    pub cycles: f64,
    /// Whether the open-row was hit.
    pub row_hit: bool,
    /// Cycles spent waiting for the bank to free up (0 when no conflict).
    pub bank_stall_cycles: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BankState {
    pub(crate) open_row: Option<u64>,
    /// Simulated time at which the bank becomes free again.
    pub(crate) busy_until: f64,
    /// Accesses this bank has served.
    pub(crate) accesses: u64,
    /// The [`Dram::epoch`] of the bank's latest access.
    epoch: u64,
}

/// The epoch is bookkeeping for [`Dram::min_slack`], not state.
impl PartialEq for BankState {
    fn eq(&self, other: &Self) -> bool {
        self.open_row == other.open_row
            && self.busy_until.to_bits() == other.busy_until.to_bits()
            && self.accesses == other.accesses
    }
}

/// A banked, open-row DRAM model.
///
/// The model is driven by a monotonically advancing *now* timestamp supplied
/// by the caller (the hierarchy engine), so that bank-conflict stalls are
/// relative to real progress through the trace.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    pub(crate) banks: Vec<BankState>,
    /// `log2(interleave_bytes)`; interleave is a validated power of two.
    interleave_shift: u32,
    /// `banks - 1`; the bank count is a validated power of two.
    bank_mask: u64,
    /// `log2(banks) + log2(row_bytes)`. Because `row_bytes >=
    /// interleave_bytes` (validated) and all three are powers of two,
    /// `addr >> row_shift` equals
    /// `(addr / (interleave * banks)) * interleave / row_bytes` exactly.
    pub(crate) row_shift: u32,
    pub(crate) row_hits: u64,
    pub(crate) row_misses: u64,
    pub(crate) bank_conflicts: u64,
    /// The smallest `now - busy_until` seen since this was last set to
    /// infinity by an access whose stall could matter: one whose cost is
    /// charged, or a bank's first access since [`Dram::epoch`] last moved
    /// (whose start fixes the bank's later times). How far those accesses
    /// were from a stall. An observation, not state: equality ignores it.
    pub(crate) min_slack: f64,
    pub(crate) epoch: u64,
}

impl PartialEq for Dram {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.banks == other.banks
            && self.row_hits == other.row_hits
            && self.row_misses == other.row_misses
            && self.bank_conflicts == other.bank_conflicts
    }
}

impl Dram {
    /// Builds a DRAM model from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`DramConfig::validate`] errors.
    pub fn new(config: DramConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let banks = vec![BankState::default(); config.banks as usize];
        Ok(Dram {
            interleave_shift: config.interleave_bytes.trailing_zeros(),
            bank_mask: config.banks - 1,
            row_shift: config.banks.trailing_zeros() + config.row_bytes.trailing_zeros(),
            config,
            banks,
            row_hits: 0,
            row_misses: 0,
            bank_conflicts: 0,
            min_slack: f64::INFINITY,
            epoch: 0,
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Row-buffer hits of charged accesses (every [`Dram::access`]; a
    /// stream prefetch occupies its bank uncounted).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses of charged accesses.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Number of charged accesses that stalled on a busy bank.
    pub fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    /// Clears statistics and open-row/busy state.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState::default();
        }
        self.row_hits = 0;
        self.row_misses = 0;
        self.bank_conflicts = 0;
        self.min_slack = f64::INFINITY;
    }

    /// Performs one burst access at simulated time `now`, returning the cost.
    #[inline]
    pub fn access(&mut self, addr: Addr, now: f64) -> DramOutcome {
        self.access_as(addr, now, true)
    }

    /// [`Dram::access`], telling whether the caller charges the returned
    /// cost (a stream prefetch's bank occupancy is not charged, and not
    /// counted in the row and conflict statistics).
    #[inline]
    pub(crate) fn access_as(&mut self, addr: Addr, now: f64, charged: bool) -> DramOutcome {
        // Shift/mask forms of [`DramConfig::bank_of`] / [`DramConfig::row_of`]
        // (exact: the geometry is validated powers of two).
        let bank_idx = ((addr >> self.interleave_shift) & self.bank_mask) as usize;
        let row = addr >> self.row_shift;
        let bank = &mut self.banks[bank_idx];
        bank.accesses += 1;
        if charged || bank.epoch != self.epoch {
            self.min_slack = self.min_slack.min(now - bank.busy_until);
        }
        bank.epoch = self.epoch;

        let stall = (bank.busy_until - now).max(0.0);
        let start = now + stall;

        let row_hit = bank.open_row == Some(row);
        if charged {
            self.bank_conflicts += u64::from(stall > 0.0);
            self.row_hits += u64::from(row_hit);
            self.row_misses += u64::from(!row_hit);
        }
        let service = if row_hit {
            self.config.row_hit_cycles
        } else {
            self.config.row_hit_cycles + self.config.row_miss_extra_cycles
        };
        bank.open_row = Some(row);
        bank.busy_until = start + self.config.bank_busy_cycles.max(service);

        DramOutcome {
            cycles: stall + service,
            row_hit,
            bank_stall_cycles: stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            banks: 4,
            interleave_bytes: 64,
            row_bytes: 4096,
            row_hit_cycles: 10.0,
            row_miss_extra_cycles: 30.0,
            bank_busy_cycles: 20.0,
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut c = cfg();
        c.banks = 3;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.interleave_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.row_bytes = 32; // smaller than interleave
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.row_hit_cycles = -1.0;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn bank_mapping_interleaves() {
        let c = cfg();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(64), 1);
        assert_eq!(c.bank_of(128), 2);
        assert_eq!(c.bank_of(192), 3);
        assert_eq!(c.bank_of(256), 0);
    }

    #[test]
    fn first_access_misses_row_then_hits() {
        let mut d = Dram::new(cfg()).unwrap();
        let first = d.access(0, 0.0);
        assert!(!first.row_hit);
        assert_eq!(first.cycles, 40.0);
        // Same bank, same row, after the busy window.
        let second = d.access(256, 100.0);
        assert!(second.row_hit);
        assert_eq!(second.cycles, 10.0);
        assert_eq!(d.row_hits(), 1);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn same_bank_back_to_back_stalls() {
        let mut d = Dram::new(cfg()).unwrap();
        d.access(0, 0.0); // bank 0 busy until max(20, 40) = 40
        let out = d.access(256, 5.0); // bank 0 again, 35 cycles too early
        assert!(out.bank_stall_cycles > 0.0);
        assert_eq!(d.bank_conflicts(), 1);
        // A different bank does not stall.
        let out2 = d.access(64, 5.0);
        assert_eq!(out2.bank_stall_cycles, 0.0);
    }

    #[test]
    fn different_row_same_bank_reopens() {
        let mut d = Dram::new(cfg()).unwrap();
        d.access(0, 0.0);
        // Bank 0 rows change every row_bytes*banks of address space per this mapping:
        // pick an address far away in bank 0.
        let far = 64 * 4 * 1024; // 256 KiB later, still bank 0
        assert_eq!(d.config().bank_of(far), 0);
        let out = d.access(far, 1000.0);
        assert!(!out.row_hit);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Dram::new(cfg()).unwrap();
        d.access(0, 0.0);
        d.access(256, 0.0);
        d.reset();
        assert_eq!(d.row_hits() + d.row_misses(), 0);
        assert_eq!(d.bank_conflicts(), 0);
        let out = d.access(0, 0.0);
        assert!(!out.row_hit, "open row must be forgotten after reset");
    }
}

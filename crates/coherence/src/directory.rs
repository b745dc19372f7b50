//! Line-granular ownership bookkeeping for the snooping system.
//!
//! A broadcast bus needs no directory in hardware — every cache snoops — but
//! the simulator tracks, per line, the MESI state each processor's copy is
//! in, so that a consumer pull can decide *who supplies the line* (dirty
//! owner's cache vs. home memory) without scanning every tag array.

use std::collections::HashMap;

use gasnub_memsim::Addr;
use gasnub_trace::CounterSet;

use crate::mesi::{MesiState, ProcessorOp, SnoopOp, TransitionTally};

/// Per-line sharing state across `n` processors.
#[derive(Debug, Clone)]
pub struct Directory {
    nodes: usize,
    line_bytes: u64,
    /// line index -> where the line's states start in `states` (absent =
    /// all Invalid).
    lines: HashMap<u64, usize>,
    /// Every tracked line's per-node MESI states, `nodes` per line, in one
    /// allocation rather than one per line.
    states: Vec<MesiState>,
    tally: TransitionTally,
    invalidations: u64,
}

impl Directory {
    /// Creates a directory for `nodes` processors with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `line_bytes` is not a power of two.
    pub fn new(nodes: usize, line_bytes: u64) -> Self {
        assert!(nodes > 0, "directory needs at least one node");
        assert!(
            line_bytes.is_power_of_two() && line_bytes > 0,
            "line size must be a power of two"
        );
        Directory {
            nodes,
            line_bytes,
            lines: HashMap::new(),
            states: Vec::new(),
            tally: TransitionTally::new(),
            invalidations: 0,
        }
    }

    /// The line size this directory tracks.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn line_of(&self, addr: Addr) -> u64 {
        addr / self.line_bytes
    }

    /// The per-node states of the line containing `addr`, if tracked.
    fn states(&self, addr: Addr) -> Option<&[MesiState]> {
        let start = *self.lines.get(&self.line_of(addr))?;
        Some(&self.states[start..start + self.nodes])
    }

    /// The per-node states of `line`, tracking it (all Invalid) if it is
    /// not yet. Takes the fields it needs so the tally stays borrowable.
    fn states_mut<'a>(
        lines: &mut HashMap<u64, usize>,
        states: &'a mut Vec<MesiState>,
        nodes: usize,
        line: u64,
    ) -> &'a mut [MesiState] {
        let start = *lines.entry(line).or_insert_with(|| {
            states.resize(states.len() + nodes, MesiState::Invalid);
            states.len() - nodes
        });
        &mut states[start..start + nodes]
    }

    /// Current state of `node`'s copy of the line containing `addr`.
    pub fn state(&self, node: usize, addr: Addr) -> MesiState {
        self.states(addr)
            .map(|v| v[node])
            .unwrap_or(MesiState::Invalid)
    }

    /// The node holding the line Modified, if any.
    pub fn dirty_owner(&self, addr: Addr) -> Option<usize> {
        self.states(addr)?
            .iter()
            .position(|&s| s == MesiState::Modified)
    }

    /// Whether any node other than `node` has a valid copy.
    pub fn others_have_copy(&self, node: usize, addr: Addr) -> bool {
        self.states(addr).is_some_and(|v| {
            v.iter()
                .enumerate()
                .any(|(i, &s)| i != node && s != MesiState::Invalid)
        })
    }

    /// Records that `node` completed a read of the line, snooping all peers.
    /// Returns `true` when a dirty peer supplied the data.
    pub fn record_read(&mut self, node: usize, addr: Addr) -> bool {
        let others = self.others_have_copy(node, addr);
        let line = self.line_of(addr);
        let states = Self::states_mut(&mut self.lines, &mut self.states, self.nodes, line);
        let mut supplied = false;
        for (i, s) in states.iter_mut().enumerate() {
            if i == node {
                continue;
            }
            let r = s.on_snoop(SnoopOp::BusRead);
            supplied |= r.supplies_data;
            self.tally.record(*s, r.next);
            *s = r.next;
        }
        let (next, _) = states[node].on_processor_op(ProcessorOp::Read, others);
        self.tally.record(states[node], next);
        states[node] = next;
        supplied
    }

    /// Records that `node` completed a write of the line, invalidating all
    /// peers. Returns `true` when a dirty peer had to flush first.
    pub fn record_write(&mut self, node: usize, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let states = Self::states_mut(&mut self.lines, &mut self.states, self.nodes, line);
        let mut supplied = false;
        for (i, s) in states.iter_mut().enumerate() {
            if i == node {
                continue;
            }
            let r = s.on_snoop(SnoopOp::BusReadExclusive);
            supplied |= r.supplies_data;
            if *s != MesiState::Invalid {
                self.invalidations += 1;
            }
            self.tally.record(*s, r.next);
            *s = r.next;
        }
        self.tally.record(states[node], MesiState::Modified);
        states[node] = MesiState::Modified;
        supplied
    }

    /// Records that `node` evicted (wrote back) its copy of the line.
    pub fn record_eviction(&mut self, node: usize, addr: Addr) {
        let line = self.line_of(addr);
        if let Some(&start) = self.lines.get(&line) {
            let s = &mut self.states[start + node];
            self.tally.record(*s, MesiState::Invalid);
            *s = MesiState::Invalid;
        }
    }

    /// Number of lines with any non-Invalid copy.
    pub fn tracked_lines(&self) -> usize {
        self.states
            .chunks(self.nodes)
            .filter(|v| v.iter().any(|&s| s != MesiState::Invalid))
            .count()
    }

    /// Tally of MESI state changes observed so far.
    pub fn tally(&self) -> &TransitionTally {
        &self.tally
    }

    /// Peer copies invalidated by coherent writes so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Exports directory statistics into `out`: the non-zero MESI transition
    /// counts plus the peer-invalidation total.
    pub fn export_counters(&self, out: &mut CounterSet) {
        self.tally.export_counters(out);
        out.add("directory_invalidations", self.invalidations);
    }

    /// Forgets all sharing state and statistics.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.states.clear();
        self.tally.clear();
        self.invalidations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_are_invalid_everywhere() {
        let d = Directory::new(4, 64);
        assert_eq!(d.state(0, 0), MesiState::Invalid);
        assert_eq!(d.dirty_owner(0), None);
        assert!(!d.others_have_copy(0, 0));
    }

    #[test]
    fn cold_read_loads_exclusive() {
        let mut d = Directory::new(2, 64);
        assert!(!d.record_read(0, 128));
        assert_eq!(d.state(0, 128), MesiState::Exclusive);
    }

    #[test]
    fn second_reader_demotes_to_shared() {
        let mut d = Directory::new(2, 64);
        d.record_read(0, 0);
        assert!(!d.record_read(1, 0));
        assert_eq!(d.state(0, 0), MesiState::Shared);
        assert_eq!(d.state(1, 0), MesiState::Shared);
    }

    #[test]
    fn producer_consumer_pull_supplies_from_dirty_owner() {
        let mut d = Directory::new(2, 64);
        assert!(!d.record_write(1, 0));
        assert_eq!(d.dirty_owner(0), Some(1));
        // Consumer read: the dirty owner supplies and both end Shared.
        assert!(d.record_read(0, 0));
        assert_eq!(d.state(1, 0), MesiState::Shared);
        assert_eq!(d.state(0, 0), MesiState::Shared);
        assert_eq!(d.dirty_owner(0), None);
    }

    #[test]
    fn write_invalidates_all_peers() {
        let mut d = Directory::new(3, 64);
        d.record_read(0, 0);
        d.record_read(1, 0);
        d.record_write(2, 0);
        assert_eq!(d.state(0, 0), MesiState::Invalid);
        assert_eq!(d.state(1, 0), MesiState::Invalid);
        assert_eq!(d.state(2, 0), MesiState::Modified);
    }

    #[test]
    fn eviction_clears_ownership() {
        let mut d = Directory::new(2, 64);
        d.record_write(1, 0);
        d.record_eviction(1, 0);
        assert_eq!(d.dirty_owner(0), None);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn addresses_share_line_state() {
        let mut d = Directory::new(2, 64);
        d.record_write(0, 0);
        // Address 56 is in the same 64-byte line.
        assert_eq!(d.dirty_owner(56), Some(0));
        assert_eq!(d.dirty_owner(64), None);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut d = Directory::new(2, 64);
        d.record_write(0, 0);
        d.clear();
        assert_eq!(d.state(0, 0), MesiState::Invalid);
        assert_eq!(d.tally().total(), 0);
        assert_eq!(d.invalidations(), 0);
    }

    #[test]
    fn counters_track_transitions_and_invalidations() {
        let mut d = Directory::new(2, 64);
        d.record_read(0, 0); // I -> E
        assert_eq!(d.tally().count(MesiState::Invalid, MesiState::Exclusive), 1);
        d.record_write(1, 0); // peer E -> I (one invalidation), own I -> M
        assert_eq!(d.invalidations(), 1);
        assert_eq!(d.tally().count(MesiState::Exclusive, MesiState::Invalid), 1);
        assert_eq!(d.tally().count(MesiState::Invalid, MesiState::Modified), 1);
        let mut out = CounterSet::new();
        d.export_counters(&mut out);
        assert_eq!(out.get("directory_invalidations"), 1);
        assert_eq!(out.get("mesi_i_to_e"), 1);
    }
}

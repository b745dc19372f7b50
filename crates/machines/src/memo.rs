//! Probe memoization and the run context that owns it.
//!
//! Probes are pure functions of the machine description and the cell: every
//! probe starts from the flushed (≡ just-constructed) state, so engines
//! built from the same [`crate::spec::MachineSpec`] produce bit-identical
//! [`Measurement`]s for the same cell — a property the determinism suite
//! asserts. A [`Memo`] in front of [`crate::engine::TransferEngine`]'s
//! probes exploits that purity: repeated cells skip the simulation. Its key
//! covers everything a result depends on: the spec hash (fault plans fold
//! into the spec, so degraded installations memoize separately), the
//! operation and its `(working set, stride, second stride)` cell, and the
//! measurement caps.
//!
//! Which memo an engine consults is part of its [`RunContext`], which the
//! run's owner creates and the spec carries into every engine it builds.
//! The default context shares the one process memo that [`clear`],
//! [`stats`] and [`len`] act on; each server owns a [`RunContext::fresh`]
//! one; tests that need a genuine recomputation use
//! [`RunContext::unmemoized`]; `--cold` runs in [`RunContext::cold`]. An
//! engine with an enabled recorder never consults a memo: the recorder
//! must observe real component counters.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::limits::MeasureLimits;
use crate::machine::Measurement;
use crate::probe::ProbeRequest;

/// Everything a probe's result is a pure function of: the spec hash, the
/// normalised request ([`ProbeRequest::normalized`]) and the measurement
/// caps.
pub(crate) type MemoKey = (u64, ProbeRequest, MeasureLimits);

/// Entry cap: a hard bound on table growth for long-lived processes. At
/// ~80 bytes per entry the table tops out around 20 MB; past the cap new
/// results are not inserted (lookups keep working) and count as dropped.
const MAX_ENTRIES: usize = 1 << 18;

/// One memo table and its counters. `Option` values memoize *unsupported*
/// outcomes too (e.g. the 8400's missing deposit path), which are just as
/// deterministic.
#[derive(Default)]
pub struct Memo {
    table: Mutex<HashMap<MemoKey, Option<Measurement>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    dropped: AtomicU64,
}

impl Memo {
    fn table(&self) -> MutexGuard<'_, HashMap<MemoKey, Option<Measurement>>> {
        // A panic while holding the lock cannot leave the map torn (all
        // mutations are single HashMap calls); keep serving.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the memoized outcome for `key`, if any probe has produced it.
    pub(crate) fn lookup(&self, key: &MemoKey) -> Option<Option<Measurement>> {
        let found = self.table().get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// Records the outcome of a completed probe, or counts it as dropped
    /// when the table is full.
    pub(crate) fn insert(&self, key: MemoKey, value: Option<Measurement>) {
        let mut table = self.table();
        if table.len() < MAX_ENTRIES || table.contains_key(&key) {
            table.insert(key, value);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Empties the table and zeroes the counters.
    fn clear(&self) {
        self.table().clear();
        for counter in [&self.hits, &self.misses, &self.dropped] {
            counter.store(0, Relaxed);
        }
    }

    /// `(hits, misses)` since creation or the last [`clear`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Results refused at the entry cap since creation or the last
    /// [`clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Number of memoized outcomes currently held.
    pub fn entries(&self) -> usize {
        self.table().len()
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memo {{ hits_misses: {:?} }}", self.stats())
    }
}

/// The process memo: the default context's table.
fn process_memo() -> &'static Arc<Memo> {
    static PROCESS: OnceLock<Arc<Memo>> = OnceLock::new();
    PROCESS.get_or_init(Arc::default)
}

/// Empties the process memo and zeroes its counters.
pub fn clear() {
    process_memo().clear();
}

/// The process memo's `(hits, misses)` since process start or the last
/// [`clear`].
pub fn stats() -> (u64, u64) {
    process_memo().stats()
}

/// Number of outcomes the process memo holds.
pub fn len() -> usize {
    process_memo().entries()
}

/// What the engines of one run share: the memo they may consult (or none)
/// and whether priming is literal, with no fast-forward. The run's owner
/// creates it and hands it to [`crate::MachineSpec::with_context`].
#[derive(Debug, Clone)]
pub struct RunContext {
    memo: Option<Arc<Memo>>,
    pub(crate) cold: bool,
}

impl Default for RunContext {
    /// The process context: the process memo, fast-forwarded priming.
    fn default() -> Self {
        Self::with(Some(Arc::clone(process_memo())), false)
    }
}

/// A context is not part of a machine's identity, so any two compare equal
/// and a spec's equality ignores the context it carries.
impl PartialEq for RunContext {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl RunContext {
    fn with(memo: Option<Arc<Memo>>, cold: bool) -> Self {
        RunContext { memo, cold }
    }

    /// A context with its own empty memo.
    pub fn fresh() -> Self {
        Self::with(Some(Arc::default()), false)
    }

    /// A context whose engines simulate every probe.
    pub fn unmemoized() -> Self {
        Self::with(None, false)
    }

    /// `--cold`: no memo, and every prime literal, with no fast-forward.
    pub fn cold() -> Self {
        Self::with(None, true)
    }

    /// The memo this context's engines consult, if any.
    pub fn memo(&self) -> Option<&Memo> {
        self.memo.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ws: u64) -> MemoKey {
        let req = ProbeRequest::new(crate::ProbeOp::LocalLoad, ws, 1);
        (0xdead_beef, req, MeasureLimits::fast())
    }

    #[test]
    fn round_trips_and_counts() {
        let memo = Memo::default();
        assert_eq!(memo.lookup(&key(1)), None);
        memo.insert(key(1), Some(Measurement::new(8, 2.0, 300.0)));
        assert_eq!(memo.lookup(&key(1)).expect("inserted").unwrap().bytes, 8);
        memo.insert(key(3), None);
        assert_eq!(
            memo.lookup(&key(3)),
            Some(None),
            "unsupported outcomes memoize"
        );
        assert_eq!(memo.stats(), (2, 1));
        memo.clear();
        assert_eq!((memo.stats(), memo.entries()), ((0, 0), 0));
    }

    #[test]
    fn a_full_memo_drops_new_keys_and_keeps_serving_held_ones() {
        let memo = Memo::default();
        for ws in 0..MAX_ENTRIES as u64 + 2 {
            memo.insert(key(ws), None);
        }
        memo.insert(key(0), Some(Measurement::new(8, 2.0, 300.0)));
        assert_eq!((memo.entries(), memo.dropped()), (MAX_ENTRIES, 2));
        assert_eq!(memo.lookup(&key(MAX_ENTRIES as u64)), None);
        assert!(memo.lookup(&key(0)).expect("held").is_some());
    }
}

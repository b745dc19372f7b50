//! Exact fast-forward of a periodic priming pass.
//!
//! The paper starts every measurement "with a primed cache for exactly that
//! working set", and [`MemoryEngine::prime_trace`] primes literally. Once a
//! strided pass has swept more than the caches hold, the hierarchy settles
//! into a steady state that moves with the addresses: after a lag of `P`
//! accesses, whose address shift `Δ` is a multiple of every cache level's
//! set span and of the DRAM's bank × row span, every set, bank and stream
//! slot the pass reads holds what it held `P` accesses earlier, relabelled
//! by `Δ`. From such a state the next period repeats the last one access
//! for access, cost for cost.
//!
//! [`prime`] simulates literally and, at quiet moments, tries to prove that:
//!
//! 1. **Shape.** The accesses are one, or two interleaved, arithmetic
//!    streams (a copy's loads and stores): accesses two apart share a kind
//!    and advance by a fixed positive step. Every access of the proof and
//!    of the replay is checked against that prediction.
//! 2. **Quiet.** Over the stretch before and during the proof no cache
//!    fills an invalid way (it is still filling), no store enters the write
//!    buffer, no write drain is owed, and no level only hits (its lines
//!    stay in place, which no shift relates).
//! 3. **Relation.** A snapshot at `b` of the sets the next period maps to
//!    (and of the stream slots, open rows and counters) must relate to the
//!    state at `b + P`: each way's line shifted by its stream's `Δ` and its
//!    LRU stamp by the period's tick count, possibly in another way of the
//!    same set (LRU picks victims by stamp, not by position); each stream
//!    slot likewise, possibly in another slot when no line was claimed by
//!    two slots; each bank the period used with its open row shifted; the
//!    mixed-traffic state equal. A set or slot the period read but left as
//!    it was stays in place, as long as no stream reaches what it holds.
//!    Lines, slots and rows are assigned to a stream by address when the
//!    two streams shift by different amounts.
//! 4. **Time.** A second period runs literally and must repeat the first's
//!    costs bit for bit. Every DRAM access whose stall could matter (its
//!    cost is charged, or it is a bank's first in a period and so fixes the
//!    bank's later times) must have been further from a stall than the
//!    rounding the growing clock can add, so no later period stalls there.
//!
//! The relation, applied to the simulation one access at a time, commutes
//! with it: running a period from a relabelled state gives the relabelled
//! result at the same cost. So every later period repeats. The rest of the
//! run is then drawn from the trace (so cancellation checks and any
//! side effects of the iterator still run), checked against the
//! prediction, and charged with `now += cost[i mod P]`: the very `f64`
//! additions the literal loop makes. The relation is applied once per
//! skipped period, and the last whole period is simulated for real, which
//! rewrites the time-valued fields (bank busy times) exactly.

use crate::access::{Access, AccessKind, Addr, WORD_BYTES};
use crate::cache::{is_valid, Way, INVALID, STAMP_SHIFT};
use crate::dram::BankState;
use crate::engine::MemoryEngine;
use crate::hierarchy::{FillOrigin, MemoryHierarchy};
use crate::stream::{Slot, StreamDetector};

/// The longest period, in accesses, a fast-forward attempts: bounds the
/// cost log and snapshot a proof holds.
const MAX_PERIOD: u64 = 1 << 16;
/// Literal accesses between a fast-forward and the next attempt.
const WARM_CHUNK: u64 = 1 << 10;
/// The back-off ceiling for repeated failed attempts, unless sixteen
/// periods are longer: failed attempts keep to a small share of the run.
const MAX_WARM_CHUNK: u64 = 1 << 14;

/// Primes `e` with every access of `trace`, fast-forwarding provably
/// periodic stretches.
pub(crate) fn prime(e: &mut MemoryEngine, mut trace: impl Iterator<Item = Access>) {
    let Some(granule) = granule(&e.hierarchy) else {
        for a in trace {
            e.prime_step(a);
        }
        return;
    };
    let mut held = None;
    let mut chunk = WARM_CHUNK;
    // The shape whose proofs stalls defeated, and how many times in a row:
    // the first may be a transient of the warm-up, a second is not.
    let mut stalls = None;
    loop {
        let quiet = Quiet::of(&e.hierarchy);
        if let Some(a) = held.take() {
            e.prime_step(a);
        }
        for _ in 0..chunk {
            let Some(a) = trace.next() else { return };
            e.prime_step(a);
        }
        if !quiet.holds(&e.hierarchy) {
            continue;
        }
        let (outcome, lag) = attempt(e, &mut trace, granule, &mut stalls);
        match outcome {
            Outcome::Ended => return,
            Outcome::Failed(a) | Outcome::Stalls(a) => {
                held = a;
                chunk = (chunk * 2).max(4 * lag).min(MAX_WARM_CHUNK.max(16 * lag));
            }
            Outcome::Replayed(a) => {
                held = a;
                chunk = WARM_CHUNK;
            }
        }
    }
}

/// How an attempt ended; the access, if any, was drawn but not simulated.
enum Outcome {
    /// The trace is exhausted.
    Ended,
    /// Nothing was fast-forwarded.
    Failed(Option<Access>),
    /// Nothing was fast-forwarded because an access whose stall matters
    /// came too close to one.
    Stalls(Option<Access>),
    /// A fast-forwarded stretch ended.
    Replayed(Option<Access>),
}

/// The address granule every period's shift is a multiple of: each cache
/// level's set span (`capacity / associativity`) and the DRAM's
/// `banks × row_bytes`. All are powers of two, so their least common
/// multiple is their maximum. `None` when even a unit-stride period would
/// exceed [`MAX_PERIOD`] (a 4 MiB direct-mapped L3, say).
fn granule(h: &MemoryHierarchy) -> Option<u64> {
    let dram = h.dram.config();
    let granule = h
        .caches
        .iter()
        .map(|c| c.config().capacity_bytes / c.config().associativity)
        .fold(dram.banks * dram.row_bytes, u64::max);
    debug_assert!(granule.is_power_of_two());
    (granule / WORD_BYTES <= MAX_PERIOD).then_some(granule)
}

/// Counters that tell, cheaply, that no period can be proven yet: fills
/// into invalid ways (a cache still filling), buffered stores (write-buffer
/// timing), and per level hits and misses.
struct Quiet {
    cold_fills: u64,
    buffered_stores: u64,
    hits_misses: Vec<(u64, u64)>,
}

impl Quiet {
    fn of(h: &MemoryHierarchy) -> Self {
        Quiet {
            cold_fills: h.caches.iter().map(|c| c.cold_fills).sum(),
            buffered_stores: h.write_buffer.as_ref().map_or(0, |w| w.stores()),
            hits_misses: h.caches.iter().map(|c| (c.hits, c.misses)).collect(),
        }
    }

    /// Whether, since `self` was taken, no cache filled an invalid way, no
    /// store was buffered, and every level that hit also missed (a level
    /// that only hits holds its lines in place, which no shift relates);
    /// and no write drain is owed.
    fn holds(&self, h: &MemoryHierarchy) -> bool {
        let now = Quiet::of(h);
        now.cold_fills == self.cold_fills
            && now.buffered_stores == self.buffered_stores
            && now
                .hits_misses
                .iter()
                .zip(&self.hits_misses)
                .all(|(n, o)| n.1 != o.1 || n.0 == o.0)
            && h.write_debt == 0.0
            && h.write_buffer.as_ref().is_none_or(|w| w.occupancy == 0)
    }
}

/// Predicts two interleaved arithmetic streams: the accesses at even and
/// at odd positions. A single stream is two with equal kinds and steps.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    kind: [AccessKind; 2],
    step: [u64; 2],
    next: [Addr; 2],
    parity: usize,
}

impl Cursor {
    /// The prediction following four consecutive accesses, when accesses two
    /// apart share a kind and advance by a positive step.
    fn after(x: &[Access; 4]) -> Option<Cursor> {
        let mut c = Cursor {
            kind: [x[0].kind, x[1].kind],
            step: [0; 2],
            next: [0; 2],
            parity: 0,
        };
        for q in 0..2 {
            if x[q + 2].kind != x[q].kind {
                return None;
            }
            c.step[q] = x[q + 2].addr.checked_sub(x[q].addr).filter(|&s| s > 0)?;
            c.next[q] = x[q + 2].addr.checked_add(c.step[q])?;
        }
        Some(c)
    }

    fn expect(&self) -> Access {
        Access {
            addr: self.next[self.parity],
            kind: self.kind[self.parity],
        }
    }

    fn advance(&mut self) {
        self.next[self.parity] = self.next[self.parity].wrapping_add(self.step[self.parity]);
        self.parity ^= 1;
    }

    /// Advances by `n` accesses, `n` even.
    fn skip(&mut self, n: u64) {
        debug_assert!(n.is_multiple_of(2));
        for q in 0..2 {
            self.next[q] = self.next[q].wrapping_add(n / 2 * self.step[q]);
        }
    }

    /// The smallest even lag whose per-stream shift `lag / 2 × step` is a
    /// multiple of `granule` (a power of two), if within [`MAX_PERIOD`] and
    /// the shifts fit in an address.
    fn lag(&self, granule: u64) -> Option<u64> {
        let log = granule.trailing_zeros();
        let half = self
            .step
            .iter()
            .map(|s| granule >> s.trailing_zeros().min(log))
            .max()?;
        let fits = self.step.iter().all(|s| s.checked_mul(half).is_some());
        Some(2 * half).filter(|&p| p <= MAX_PERIOD && fits)
    }
}

/// How one period relabels addresses: by the shift of the stream that
/// owns them. The streams are told apart by a boundary between them.
#[derive(Debug, Clone, Copy)]
struct Shift {
    /// The shift below `boundary` (the lower stream's), then at or above.
    delta: [u64; 2],
    /// A multiple of the granule between the two streams.
    boundary: Addr,
}

impl Shift {
    fn new(c: &Cursor, lag: u64, granule: u64) -> Self {
        let upper = usize::from(c.next[1] > c.next[0]);
        let (lo, hi) = (c.next[1 - upper], c.next[upper]);
        Shift {
            delta: [lag / 2 * c.step[1 - upper], lag / 2 * c.step[upper]],
            boundary: (lo + (hi - lo) / 2) & !(granule - 1),
        }
    }

    fn uniform(&self) -> bool {
        self.delta[0] == self.delta[1]
    }

    /// 0 below the boundary, 1 at or above it.
    fn class(&self, addr: Addr) -> usize {
        usize::from(addr >= self.boundary)
    }

    /// The shift of whatever lives at `addr`.
    fn of(&self, addr: Addr) -> u64 {
        self.delta[self.class(addr)]
    }
}

/// The byte address of the line a way of `set` holds under `tag`.
fn line_addr(set: usize, tag: u64, line_shift: u32, set_shift: u32) -> Addr {
    ((tag << set_shift) | set as u64) << line_shift
}

/// Each stream detector with the line shift of the addresses it observes:
/// the levels' fill boundaries, then DRAM's.
fn detectors(h: &MemoryHierarchy) -> Vec<(&StreamDetector, u32)> {
    let mut out: Vec<_> = h
        .streams
        .iter()
        .zip(&h.caches)
        .filter_map(|(d, c)| d.as_ref().map(|d| (d, c.line_shift)))
        .collect();
    out.extend(h.dram_stream.as_ref().map(|d| (d, h.last_line_shift)));
    out
}

fn detectors_mut(h: &mut MemoryHierarchy) -> Vec<(&mut StreamDetector, u32)> {
    let mut out: Vec<_> = h
        .streams
        .iter_mut()
        .zip(&h.caches)
        .filter_map(|(d, c)| d.as_mut().map(|d| (d, c.line_shift)))
        .collect();
    out.extend(h.dram_stream.as_mut().map(|d| (d, h.last_line_shift)));
    out
}

/// Turns the detectors' ambiguity audit on or off; off, reports whether
/// no line was claimed by two slots while it was on.
fn audit(h: &mut MemoryHierarchy, on: bool) -> bool {
    let mut clean = true;
    for (d, _) in detectors_mut(h) {
        d.audit = on;
        clean &= d.ambiguous == 0;
        d.ambiguous = 0;
    }
    clean
}

/// Every counter a period advances, in a fixed order: per cache its tick
/// and statistics, per detector its tick and classifications, the DRAM's
/// row statistics and per-bank access counts.
fn counters(h: &MemoryHierarchy) -> Vec<u64> {
    let mut out = Vec::new();
    for c in &h.caches {
        out.extend([c.tick, c.hits, c.misses, c.write_backs, c.cold_fills]);
    }
    for (d, _) in detectors(h) {
        out.extend([d.tick, d.streamed, d.unstreamed, d.allocations]);
    }
    let dram = &h.dram;
    out.extend([dram.row_hits, dram.row_misses, dram.bank_conflicts]);
    out.extend(dram.banks.iter().map(|b| b.accesses));
    out
}

/// Adds `times × inc` to the counters [`counters`] lists.
fn advance_counters(h: &mut MemoryHierarchy, inc: &[u64], times: u64) {
    let mut inc = inc.iter().map(|i| i * times);
    let mut bump = |field: &mut u64| *field += inc.next().expect("one increment per counter");
    for c in &mut h.caches {
        for field in [
            &mut c.tick,
            &mut c.hits,
            &mut c.misses,
            &mut c.write_backs,
            &mut c.cold_fills,
        ] {
            bump(field);
        }
    }
    for (d, _) in detectors_mut(h) {
        for field in [
            &mut d.tick,
            &mut d.streamed,
            &mut d.unstreamed,
            &mut d.allocations,
        ] {
            bump(field);
        }
    }
    let dram = &mut h.dram;
    for field in [
        &mut dram.row_hits,
        &mut dram.row_misses,
        &mut dram.bank_conflicts,
    ] {
        bump(field);
    }
    for b in &mut dram.banks {
        bump(&mut b.accesses);
    }
}

/// The state one period may read, taken at the period's start.
struct Snapshot {
    /// Per cache level: the sets the period's addresses map to.
    sets: Vec<Vec<usize>>,
    /// Per cache level: those sets' ways, set after set.
    ways: Vec<Vec<Way>>,
    cache_ticks: Vec<u64>,
    /// Per detector: its tick, allocation count and slots.
    detector_ticks: Vec<u64>,
    allocations: Vec<u64>,
    slots: Vec<Vec<Slot>>,
    banks: Vec<BankState>,
    counters: Vec<u64>,
    mixed: (Option<FillOrigin>, u32),
}

impl Snapshot {
    /// Snapshots what the next `lag` accesses `c` predicts can read.
    fn take(h: &MemoryHierarchy, c: &Cursor, lag: u64) -> Option<Snapshot> {
        let mut addrs = Vec::with_capacity(lag as usize);
        let mut c = *c;
        for _ in 0..lag {
            addrs.push(c.expect().addr);
            c.advance();
        }
        let mut sets = Vec::new();
        let mut ways = Vec::new();
        for cache in &h.caches {
            let assoc = cache.config().associativity as usize;
            if cache.ways.is_empty() || assoc > 64 {
                return None;
            }
            let mut seen = vec![0u64; (cache.config().num_sets() as usize).div_ceil(64)];
            let mut level = Vec::new();
            for &a in &addrs {
                let (set, _) = cache.locate(a);
                if seen[set / 64] & (1 << (set % 64)) == 0 {
                    seen[set / 64] |= 1 << (set % 64);
                    level.push(set);
                }
            }
            ways.push(
                level
                    .iter()
                    .flat_map(|&s| cache.ways[s * assoc..(s + 1) * assoc].iter().copied())
                    .collect(),
            );
            sets.push(level);
        }
        let detectors = detectors(h);
        if detectors
            .iter()
            .any(|(d, _)| d.slots.len() > usize::from(u8::MAX))
        {
            return None;
        }
        Some(Snapshot {
            sets,
            ways,
            cache_ticks: h.caches.iter().map(|c| c.tick).collect(),
            detector_ticks: detectors.iter().map(|(d, _)| d.tick).collect(),
            allocations: detectors.iter().map(|(d, _)| d.allocations).collect(),
            slots: detectors.iter().map(|(d, _)| d.slots.clone()).collect(),
            banks: h.dram.banks.clone(),
            counters: counters(h),
            mixed: (h.last_fill_origin, h.mixed_countdown),
        })
    }
}

/// A proven relabelling: what one period does to the state it reads.
///
/// Parts the period reads but leaves exactly as they were (a set only
/// non-allocating stores miss in, a stream slot nothing continues) stay in
/// place; they are sound only while no stream reaches the addresses they
/// hold, which [`Relation::room`] checks.
struct Relation {
    lag: u64,
    granule: u64,
    shift: Shift,
    /// Per cache level: the sets the period moves, and for each of their
    /// ways the way its relabelled line moves to.
    sets: Vec<Vec<usize>>,
    perms: Vec<Vec<u8>>,
    cache_tick_inc: Vec<u64>,
    /// Per detector: where each slot's relabelled stream moves, and which
    /// slots move at all.
    slot_perms: Vec<Vec<u8>>,
    slot_moves: Vec<Vec<bool>>,
    detector_tick_inc: Vec<u64>,
    /// The banks the period accessed.
    moved_banks: Vec<bool>,
    /// Per-period increment of every counter [`counters`] lists.
    inc: Vec<u64>,
    /// Per class of [`Shift`]: the lowest and highest address anything that
    /// moves held one period in, and the lowest start of a part left in
    /// place above them.
    spans: [(Addr, Addr); 2],
    ceilings: [Addr; 2],
}

impl Relation {
    /// Checks that `h`, one period after `snap` was taken, is `snap`
    /// relabelled by `shift`; `c` predicts the next access.
    fn check(
        h: &MemoryHierarchy,
        snap: Snapshot,
        shift: Shift,
        c: &Cursor,
        lag: u64,
        granule: u64,
    ) -> Option<Relation> {
        if (h.last_fill_origin, h.mixed_countdown) != snap.mixed {
            return None;
        }
        let mut spans = [(Addr::MAX, 0), (Addr::MAX, 0)];
        let mut note = |addr: Addr| {
            let span = &mut spans[shift.class(addr)];
            *span = (span.0.min(addr), span.1.max(addr));
        };
        note(c.next[0]);
        note(c.next[1]);
        // Byte ranges of the parts left in place.
        let mut fixed: Vec<(Addr, Addr)> = Vec::new();

        let mut sets = Vec::with_capacity(h.caches.len());
        let mut perms = Vec::with_capacity(h.caches.len());
        let mut cache_tick_inc = Vec::with_capacity(h.caches.len());
        for (i, cache) in h.caches.iter().enumerate() {
            let assoc = cache.config().associativity as usize;
            let tick_inc = cache.tick - snap.cache_ticks[i];
            let stamp_inc = tick_inc << STAMP_SHIFT;
            let (line_shift, set_shift) = (cache.line_shift, cache.set_shift);
            let mut moved = Vec::new();
            let mut perm = Vec::new();
            for (k, &set) in snap.sets[i].iter().enumerate() {
                let old = &snap.ways[i][k * assoc..(k + 1) * assoc];
                let new = &cache.ways[set * assoc..(set + 1) * assoc];
                if old == new {
                    for way in old.iter().filter(|w| is_valid(w)) {
                        let addr = line_addr(set, way[0], line_shift, set_shift);
                        fixed.push((addr, addr + (1 << line_shift)));
                    }
                    continue;
                }
                let mut used = 0u64;
                for way in old {
                    let image = if is_valid(way) {
                        let addr = line_addr(set, way[0], line_shift, set_shift);
                        let tag = way[0] + (shift.of(addr) >> (line_shift + set_shift));
                        note(line_addr(set, tag, line_shift, set_shift));
                        [tag, way[1] + stamp_inc]
                    } else {
                        INVALID
                    };
                    let to = (0..assoc).find(|&p| used & (1 << p) == 0 && new[p] == image)?;
                    used |= 1 << to;
                    perm.push(to as u8);
                }
                moved.push(set);
            }
            sets.push(moved);
            perms.push(perm);
            cache_tick_inc.push(tick_inc);
        }

        let mut slot_perms = Vec::new();
        let mut slot_moves = Vec::new();
        let mut detector_tick_inc = Vec::new();
        for (k, (d, line_shift)) in detectors(h).into_iter().enumerate() {
            let (old, new) = (&snap.slots[k], &d.slots);
            let tick_inc = d.tick - snap.detector_ticks[k];
            let mut perm = vec![u8::MAX; old.len()];
            let mut moves = vec![false; old.len()];
            // Invalid slots and streams nothing continued keep their place.
            let mut stale = false;
            for (w, (o, n)) in old.iter().zip(new).enumerate() {
                if !o.valid && n.valid {
                    return None;
                }
                if !o.valid || o == n {
                    if o.valid {
                        stale = true;
                        fixed.push((o.last_line << line_shift, (o.last_line + 2) << line_shift));
                    }
                    perm[w] = w as u8;
                }
            }
            // A slot left in place must never become the LRU victim.
            if stale && d.allocations != snap.allocations[k] {
                return None;
            }
            for w in 0..old.len() {
                if perm[w] != u8::MAX {
                    continue;
                }
                let o = old[w];
                let line = o.last_line + (shift.of(o.last_line << line_shift) >> line_shift);
                let image = Slot {
                    last_line: line,
                    lru: o.lru + tick_inc,
                    ..o
                };
                let to = (0..new.len()).find(|&p| !perm.contains(&(p as u8)) && new[p] == image)?;
                perm[w] = to as u8;
                moves[w] = true;
                note(line << line_shift);
            }
            slot_perms.push(perm);
            slot_moves.push(moves);
            detector_tick_inc.push(tick_inc);
        }

        let row_shift = h.dram.row_shift;
        let mut moved_banks = Vec::with_capacity(h.dram.banks.len());
        for (o, n) in snap.banks.iter().zip(&h.dram.banks) {
            let moved = n.accesses != o.accesses;
            if moved {
                let row = o.open_row?;
                let row = row + (shift.of(row << row_shift) >> row_shift);
                if n.open_row != Some(row) {
                    return None;
                }
                note(row << row_shift);
            }
            moved_banks.push(moved);
        }

        // Nothing left in place may lie where a stream's moving parts are
        // now; record the nearest such part above each.
        let mut ceilings = [Addr::MAX; 2];
        for (class, &(lo, hi)) in spans.iter().enumerate() {
            if lo > hi {
                continue;
            }
            let (lo, hi) = (lo.saturating_sub(granule), hi.saturating_add(granule));
            for &(start, end) in &fixed {
                if start <= hi && end > lo {
                    return None;
                }
                if start > hi {
                    ceilings[class] = ceilings[class].min(start);
                }
            }
        }

        let inc = counters(h)
            .iter()
            .zip(&snap.counters)
            .map(|(n, o)| n - o)
            .collect();
        Some(Relation {
            lag,
            granule,
            shift,
            sets,
            perms,
            cache_tick_inc,
            slot_perms,
            slot_moves,
            detector_tick_inc,
            moved_banks,
            inc,
            spans,
            ceilings,
        })
    }

    /// Whether, while the clock stays below `horizon`, every access whose
    /// stall matters was further from one than the rounding of a clock that
    /// large can move it.
    fn slack_ok(&self, horizon: f64, h: &MemoryHierarchy) -> bool {
        let margin = (4 * self.lag + 16) as f64 * horizon.max(1.0) * f64::EPSILON;
        h.dram.min_slack >= margin
    }

    /// Whether each class's moving parts, `k + 1` periods after the proof,
    /// stay a granule below the boundary (the lower class) and below
    /// anything left in place: the `k`-th period may then be replayed.
    fn room(&self, k: u64) -> bool {
        (0..2).all(|class| {
            let (lo, hi) = self.spans[class];
            if lo > hi {
                return true;
            }
            let top = (k + 1)
                .checked_mul(self.shift.delta[class])
                .and_then(|d| d.checked_add(hi))
                .and_then(|top| top.checked_add(self.granule));
            let limit = if class == 0 && !self.shift.uniform() {
                self.ceilings[0].min(self.shift.boundary)
            } else {
                self.ceilings[class]
            };
            top.is_some_and(|top| top <= limit)
        })
    }

    /// Applies the relation `times` times to `h`.
    fn apply(&self, h: &mut MemoryHierarchy, times: u64) {
        let shift = self.shift;
        for (i, cache) in h.caches.iter_mut().enumerate() {
            let assoc = cache.config().associativity as usize;
            let stamp_inc = (self.cache_tick_inc[i] * times) << STAMP_SHIFT;
            let (line_shift, set_shift) = (cache.line_shift, cache.set_shift);
            let mut scratch = vec![INVALID; assoc];
            for (k, &set) in self.sets[i].iter().enumerate() {
                let perm = &self.perms[i][k * assoc..(k + 1) * assoc];
                let ways = &mut cache.ways[set * assoc..(set + 1) * assoc];
                scratch.copy_from_slice(ways);
                for (w, way) in scratch.iter().enumerate() {
                    ways[power(perm, w, times)] = if is_valid(way) {
                        let addr = line_addr(set, way[0], line_shift, set_shift);
                        let tags = times * (shift.of(addr) >> (line_shift + set_shift));
                        [way[0] + tags, way[1] + stamp_inc]
                    } else {
                        INVALID
                    };
                }
            }
        }
        for (k, (d, line_shift)) in detectors_mut(h).into_iter().enumerate() {
            let lru_inc = self.detector_tick_inc[k] * times;
            let scratch = d.slots.clone();
            for (w, slot) in scratch.iter().enumerate() {
                if self.slot_moves[k][w] {
                    let lines = shift.of(slot.last_line << line_shift) >> line_shift;
                    d.slots[power(&self.slot_perms[k], w, times)] = Slot {
                        last_line: slot.last_line + times * lines,
                        lru: slot.lru + lru_inc,
                        ..*slot
                    };
                }
            }
        }
        let row_shift = h.dram.row_shift;
        for (b, _) in h
            .dram
            .banks
            .iter_mut()
            .zip(&self.moved_banks)
            .filter(|(_, m)| **m)
        {
            if let Some(row) = &mut b.open_row {
                *row += times * (shift.of(*row << row_shift) >> row_shift);
            }
        }
        advance_counters(h, &self.inc, times);
    }
}

/// Where `perm` applied `times` times sends `w`.
fn power(perm: &[u8], w: usize, times: u64) -> usize {
    let mut cycle = 1;
    let mut p = perm[w] as usize;
    while p != w {
        p = perm[p] as usize;
        cycle += 1;
    }
    let mut p = w;
    for _ in 0..times % cycle {
        p = perm[p] as usize;
    }
    p
}

/// Simulates `log.len()` accesses that must follow `c`, logging each one's
/// cycles.
fn run_logged(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: &mut Cursor,
    log: &mut [f64],
) -> Result<(), Outcome> {
    for slot in log {
        let Some(a) = trace.next() else {
            return Err(Outcome::Ended);
        };
        if a != c.expect() {
            return Err(Outcome::Failed(Some(a)));
        }
        *slot = e.prime_step(a);
        c.advance();
    }
    Ok(())
}

/// A stream shape: the kinds and steps of the two interleaved positions.
type Shape = ([AccessKind; 2], [u64; 2]);

/// Tries to prove a period starting now and replays it while it lasts;
/// returns how that ended and the period tried (0 if none).
fn attempt(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    granule: u64,
    stalls: &mut Option<(Shape, u32)>,
) -> (Outcome, u64) {
    let mut x = [Access::read(0); 4];
    for slot in &mut x {
        let Some(a) = trace.next() else {
            return (Outcome::Ended, 0);
        };
        e.prime_step(a);
        *slot = a;
    }
    let Some((mut c, lag)) = Cursor::after(&x).and_then(|c| Some((c, c.lag(granule)?))) else {
        return (Outcome::Failed(None), 0);
    };
    let shape = (c.kind, c.step);
    if *stalls == Some((shape, 2)) {
        return (Outcome::Failed(None), lag);
    }
    let Some(snap) = Snapshot::take(&e.hierarchy, &c, lag) else {
        return (Outcome::Failed(None), lag);
    };
    let outcome = match prove(e, trace, &mut c, snap, lag, granule) {
        Err(out) => out,
        Ok((rel, costs)) => replay(e, trace, c, &rel, &costs[lag as usize..]),
    };
    *stalls = match (&outcome, *stalls) {
        (Outcome::Stalls(_), Some((s, n))) if s == shape => Some((shape, n + 1)),
        (Outcome::Stalls(_), _) => Some((shape, 1)),
        (Outcome::Replayed(_), _) => None,
        (_, kept) => kept,
    };
    (outcome, lag)
}

/// Runs two periods literally from the state `snap` holds: the relation
/// must hold after the first, and the second must repeat it. Returns the
/// relation and both periods' costs.
fn prove(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: &mut Cursor,
    snap: Snapshot,
    lag: u64,
    granule: u64,
) -> Result<(Relation, Vec<f64>), Outcome> {
    let shift = Shift::new(c, lag, granule);
    let quiet = Quiet::of(&e.hierarchy);
    e.hierarchy.dram.min_slack = f64::INFINITY;
    e.hierarchy.dram.epoch += 1;
    let p = lag as usize;
    let mut costs = vec![0.0; 2 * p];
    // The relation commutes with the first period's steps only if no
    // stream slot's claim on a line depended on slot order.
    audit(&mut e.hierarchy, true);
    let first = run_logged(e, trace, c, &mut costs[..p]);
    let unambiguous = audit(&mut e.hierarchy, false);
    first?;
    if e.hierarchy.dram.min_slack <= 0.0 {
        return Err(Outcome::Stalls(None));
    }
    if !unambiguous || !quiet.holds(&e.hierarchy) {
        return Err(Outcome::Failed(None));
    }
    let rel =
        Relation::check(&e.hierarchy, snap, shift, c, lag, granule).ok_or(Outcome::Failed(None))?;
    let mid = counters(&e.hierarchy);
    e.hierarchy.dram.epoch += 1;
    run_logged(e, trace, c, &mut costs[p..])?;
    let (first, second) = costs.split_at(p);
    let repeats = first
        .iter()
        .zip(second)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let same_counts = counters(&e.hierarchy)
        .iter()
        .zip(&mid)
        .map(|(n, o)| n - o)
        .eq(rel.inc.iter().copied());
    if e.hierarchy.dram.min_slack <= 0.0 {
        Err(Outcome::Stalls(None))
    } else if repeats && same_counts && quiet.holds(&e.hierarchy) {
        Ok((rel, costs))
    } else {
        Err(Outcome::Failed(None))
    }
}

/// Draws the rest of the proven stretch from `trace`, charging whole
/// periods from `costs` and simulating the last one (and any partial one)
/// for real.
fn replay(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: Cursor,
    rel: &Relation,
    costs: &[f64],
) -> Outcome {
    let lag = costs.len() as u64;
    let span: f64 = costs.iter().sum();
    let mut ahead = c;
    let mut real = c;
    let mut drawn = 0u64;
    let mut periods = 0u64;
    let mut out = Outcome::Replayed(None);
    'draw: loop {
        for _ in 0..lag {
            match trace.next() {
                Some(a) if a == ahead.expect() => {
                    ahead.advance();
                    drawn += 1;
                }
                other => {
                    out = other.map_or(Outcome::Ended, |a| Outcome::Replayed(Some(a)));
                    break 'draw;
                }
            }
        }
        if drawn >= 2 * lag {
            if !rel.slack_ok(e.now + 3.0 * span, &e.hierarchy) {
                if periods == 0 {
                    out = Outcome::Stalls(None);
                }
                break;
            }
            if !rel.room(periods + 1) {
                break;
            }
            for &cost in costs {
                e.now += cost;
            }
            periods += 1;
            drawn -= lag;
            real.skip(lag);
        }
    }
    if periods > 0 {
        rel.apply(&mut e.hierarchy, periods);
        e.replayed += periods * lag;
    } else if let Outcome::Replayed(a) = out {
        out = Outcome::Failed(a);
    }
    for _ in 0..drawn {
        e.prime_step(real.expect());
        real.advance();
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::access::Access;
    use crate::config::{presets, NodeConfig};
    use crate::engine::MemoryEngine;
    use crate::trace::{StorePass, StridedPass};

    /// Primes one engine through the fast-forward and one literally (the
    /// full-statistics path), asserts they end in the same state and
    /// returns how many accesses the fast-forward replayed.
    fn replayed(node: NodeConfig, trace: &[Access]) -> u64 {
        let mut fast = MemoryEngine::new(node);
        let mut literal = fast.clone();
        fast.prime_trace(trace.iter().copied());
        literal.run_trace(trace.iter().copied());
        fast.hierarchy_mut().reset_window_stats();
        literal.hierarchy_mut().reset_window_stats();
        assert_eq!(fast.now().to_bits(), literal.now().to_bits(), "clock");
        assert!(fast.hierarchy() == literal.hierarchy(), "hierarchy state");
        fast.replayed_accesses()
    }

    #[test]
    fn a_steady_pass_is_replayed_exactly() {
        let trace: Vec<Access> = StridedPass::new(0, 1 << 20, 1).take(1 << 18).collect();
        let n = replayed(presets::tiny_test_node(), &trace);
        assert!(n > trace.len() as u64 / 2, "replayed only {n} accesses");
    }

    #[test]
    fn a_run_that_breaks_mid_period_resumes_literally() {
        // The tiny node's period is 2048 accesses; the first stretch ends
        // 777 accesses into one, and a second stretch follows elsewhere.
        let trace: Vec<Access> = StridedPass::new(0, 1 << 20, 1)
            .take(50 * 2048 + 777)
            .chain(StridedPass::new(1 << 30, 1 << 20, 3).take(60_000))
            .collect();
        let n = replayed(presets::tiny_test_node(), &trace);
        assert!(n > 0 && n < trace.len() as u64 - 777);
        // Ending mid-period without a second stretch.
        let n = replayed(presets::tiny_test_node(), &trace[..50 * 2048 + 777]);
        assert!(n > 0);
    }

    #[test]
    fn a_bank_stall_keeps_the_pass_literal() {
        // Untrained fills to banks that are still busy: every stall depends
        // on the clock, so no period is time-independent.
        let mut node = presets::tiny_test_node();
        node.hierarchy.levels[1].stream = None;
        node.hierarchy.dram_stream = None;
        node.hierarchy.dram.bank_busy_cycles = 5000.0;
        let trace: Vec<Access> = StridedPass::new(0, 1 << 20, 16).take(1 << 16).collect();
        assert_eq!(replayed(node, &trace), 0);
    }

    #[test]
    fn a_live_write_buffer_entry_keeps_the_pass_literal() {
        let trace: Vec<Access> = StorePass::new(0, 1 << 20, 1).take(1 << 17).collect();
        assert_eq!(replayed(presets::tiny_streamed_node(), &trace), 0);
    }

    #[test]
    fn a_filling_cache_keeps_the_pass_literal() {
        // A 16 MiB L2 never fills from a 4 MiB pass.
        let mut node = presets::tiny_test_node();
        node.hierarchy.levels[1].cache.capacity_bytes = 16 << 20;
        node.hierarchy.levels[1].cache.associativity = 16;
        let trace: Vec<Access> = StridedPass::new(0, 1 << 19, 1).collect();
        assert_eq!(replayed(node, &trace), 0);
    }
}

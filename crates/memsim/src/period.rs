//! Exact fast-forward of a periodic priming pass.
//!
//! The paper starts every measurement "with a primed cache for exactly that
//! working set", and a literal [`MemoryEngine::prime`] simulates it. Once a
//! strided pass has swept more than the caches hold, the hierarchy settles
//! into a steady state that moves with the addresses: after a lag of `P`
//! accesses, whose address shift `Δ` is a multiple of every (related)
//! cache level's set span and of the DRAM's bank × row span, every set,
//! bank and stream slot the pass reads holds what it held `P` accesses
//! earlier, relabelled by `Δ`. From such a state the next period repeats
//! the last one access for access, cost for cost.
//!
//! [`prime`] simulates literally and, at quiet moments, tries to prove that:
//!
//! 1. **Shape.** The accesses are one, or two interleaved, arithmetic
//!    streams (a copy's loads and stores): accesses two apart share a kind
//!    and advance by a fixed positive step. Every access of the proof and
//!    of the replay is checked against that prediction.
//! 2. **Quiet.** Over the stretch before and during the proof no related
//!    cache level fills an invalid way (it is still filling), no store
//!    enters the write buffer, no write drain is owed, and no related level
//!    only hits (its lines stay in place, which no shift relates).
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
//!
//! **Passing the last level through.** A last cache level that is still
//! filling (numa2s's 8 MiB L3, smp16's 4 MiB L2 at 4 MiB) never relates to
//! itself by a shift, and a large direct-mapped one (dec8400's 4 MiB L3)
//! makes the granule, and so the period, longer than the prime. Yet such a
//! level changes the rest of the hierarchy only through what each access
//! does there: it hits, or it misses and fills an invalid way, evicts a
//! clean line or evicts a dirty one (a write-back's cost), or, a store it
//! does not allocate, fills nothing. So a proof may leave it out of the
//! granule, the quiet gate and the relation ([`Mode::PassThrough`]) and
//! instead log, for each of the first period's accesses that reached it,
//! where in the period it came and that effect; the second period must log
//! the same. Before a period is charged, the replay repeats each logged
//! access at its address `Δ` per period on, in order, on the level itself
//! ([`Cache::replay`]): a hit must find its line, a miss must not, and a
//! fill must take a way of the logged class; then it makes exactly the
//! change the literal access makes (tick, counters, way, stamp, dirty bit,
//! touched set). Every access then has its logged effect, so the levels
//! above see the literal sequence of outcomes and the relation commutes as
//! before, while the level itself evolves access for access. An access
//! that would have another effect (the level stops filling, a revisited
//! line is still held, a victim's dirtiness differs) takes back that
//! period's repeats, leaving the state of the last replayed period, and
//! the prime goes on literally. A related proof is preferred where the
//! gate allows one: its replay costs nothing per period but the clock's
//! additions.

use crate::access::{Access, AccessKind, Addr, WORD_BYTES};
use crate::cache::{
    is_valid, AllocatePolicy, Cache, Effect, Undo, Way, WritePolicy, INVALID, STAMP_SHIFT,
};
use crate::dram::BankState;
use crate::engine::MemoryEngine;
use crate::hierarchy::{FillOrigin, MemoryHierarchy};
use crate::stream::{Slot, StreamDetector};

/// The longest period, in accesses, a fast-forward attempts: bounds the
/// cost log, the last level's fill log and the snapshot a proof holds.
const MAX_PERIOD: u64 = 1 << 16;
/// Literal accesses between a fast-forward and the next attempt.
const WARM_CHUNK: u64 = 1 << 10;
/// The back-off ceiling for repeated failed attempts, unless sixteen
/// periods are longer: failed attempts keep to a small share of the run.
const MAX_WARM_CHUNK: u64 = 1 << 14;

/// Primes `e` with every access of `trace`, fast-forwarding provably
/// periodic stretches.
pub(crate) fn prime(e: &mut MemoryEngine, mut trace: impl Iterator<Item = Access>) {
    let granules = [Mode::Related, Mode::PassThrough].map(|m| granule(&e.hierarchy, m));
    if granules == [None, None] {
        for a in trace {
            e.step(a);
        }
        return;
    }
    let mut held = None;
    let mut chunk = WARM_CHUNK;
    let mut refused = Refused::default();
    let mut scratch = Scratch::default();
    loop {
        let quiet = Quiet::of(&e.hierarchy);
        let mut window = chunk;
        if let Some(a) = held.take() {
            e.step(a);
            window += 1;
        }
        // The chunk's last four accesses foretell the stream, and so the
        // period, a proof would try.
        let mut tail = [Access::read(0); 4];
        for _ in 0..chunk - 4 {
            let Some(a) = trace.next() else { return };
            e.step(a);
        }
        for slot in &mut tail {
            let Some(a) = trace.next() else { return };
            e.step(a);
            *slot = a;
        }
        let Some((mode, granule)) = quiet.choose(&e.hierarchy, granules) else {
            continue;
        };
        let foretold = Cursor::after(&tail).and_then(|c| Some((c, c.lag(granule)?)));
        // A period is charged only once four have been drawn: two proving
        // it, two more to draw ahead.
        if let Some((_, lag)) = foretold {
            if trace
                .size_hint()
                .1
                .is_some_and(|left| (left as u64) < 4 * lag)
            {
                continue;
            }
        }
        if mode == Mode::PassThrough
            && granules[0].is_some()
            && quiet.stops_filling(&e.hierarchy, window, foretold)
        {
            continue;
        }
        let (outcome, lag) = attempt(e, &mut trace, mode, granule, &mut refused, &mut scratch);
        match outcome {
            Outcome::Ended => return,
            Outcome::Failed(a) | Outcome::Stalls(a) => {
                // A stream that broke mid-proof has just started a new lane,
                // where the next passed-through proof is best tried; other
                // failures there wait a period or more, often the time the
                // levels above need to turn over after a lane's start.
                let broke = a.is_some();
                held = a;
                if mode == Mode::Related {
                    chunk = (chunk * 2).max(4 * lag).min(MAX_WARM_CHUNK.max(16 * lag));
                } else if !broke {
                    chunk = (chunk * 2).max(lag).min(MAX_WARM_CHUNK.max(16 * lag));
                }
            }
            Outcome::Replayed(a) => {
                held = a;
                chunk = WARM_CHUNK;
            }
            Outcome::Changing(a) => held = a,
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
    /// Nothing was fast-forwarded because, right after the proof, an
    /// access to the passed-through level would have had another effect
    /// (it stopped filling, say). Not a failure: the state moved on.
    Changing(Option<Access>),
}

/// How the last cache level takes part in a proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Like every other level: related by the shift.
    Related,
    /// Passed through: left out of the granule and the relation. What it
    /// holds changes a cost only through each access's [`Effect`] there
    /// (hit or miss, and the class of the way a miss fills), so the proof
    /// logs the effects and the replay repeats each access on it exactly,
    /// checking the effect first ([`Sink`]).
    PassThrough,
}

impl Mode {
    /// How many cache levels (from L1 down) the relation covers.
    fn related_levels(self, h: &MemoryHierarchy) -> usize {
        match self {
            Mode::Related => h.caches.len(),
            Mode::PassThrough => h.caches.len() - 1,
        }
    }
}

/// The address granule every period's shift is a multiple of: the set
/// span (`capacity / associativity`) of each level `mode` relates, and the
/// DRAM's `banks × row_bytes`. All are powers of two, so their least common
/// multiple is their maximum. `None` when even a unit-stride period would
/// exceed [`MAX_PERIOD`] (a 4 MiB direct-mapped L3 related, say), or when
/// there is no last level to pass through or it has more than 64 ways.
fn granule(h: &MemoryHierarchy, mode: Mode) -> Option<u64> {
    if mode == Mode::PassThrough
        && h.caches
            .last()
            .is_none_or(|c| c.config().associativity > 64)
    {
        return None;
    }
    let dram = h.dram.config();
    let granule = h.caches[..mode.related_levels(h)]
        .iter()
        .map(|c| c.config().capacity_bytes / c.config().associativity)
        .fold(dram.banks * dram.row_bytes, u64::max);
    debug_assert!(granule.is_power_of_two());
    (granule / WORD_BYTES <= MAX_PERIOD).then_some(granule)
}

/// Counters that tell, cheaply, that no period can be proven yet: per
/// level its hits, misses and fills into invalid ways (a cache still
/// filling), and the buffered stores (write-buffer timing).
struct Quiet {
    levels: Vec<[u64; 3]>,
    buffered_stores: u64,
}

impl Quiet {
    fn of(h: &MemoryHierarchy) -> Self {
        Quiet {
            levels: h
                .caches
                .iter()
                .map(|c| [c.hits, c.misses, c.cold_fills])
                .collect(),
            buffered_stores: h.write_buffer.as_ref().map_or(0, |w| w.stores()),
        }
    }

    /// Whether, since `self` was taken, no store was buffered and no write
    /// drain is owed; and every level `mode` relates filled no invalid way
    /// and, if it hit, also missed (a level that only hits holds its lines
    /// in place, which no shift relates). A passed-through level may do
    /// anything: the replay repeats it access by access.
    fn holds(&self, h: &MemoryHierarchy, mode: Mode) -> bool {
        h.write_debt == 0.0
            && h.write_buffer.as_ref().is_none_or(|w| w.occupancy == 0)
            && h.write_buffer.as_ref().map_or(0, |w| w.stores()) == self.buffered_stores
            && h.caches[..mode.related_levels(h)]
                .iter()
                .zip(&self.levels)
                .all(|(c, o)| c.cold_fills == o[2] && (c.misses != o[1] || c.hits == o[0]))
    }

    /// Whether the last level, which filled invalid ways over the `window`
    /// accesses since `self` was taken, is about to stop filling where the
    /// stream goes: the set of the next access (as `foretold` from the
    /// window's end) is full, or at the window's rate the level fills up
    /// within four of the periods foretold. A related proof can follow
    /// then, and it replays more cheaply than a passed-through one.
    fn stops_filling(
        &self,
        h: &MemoryHierarchy,
        window: u64,
        foretold: Option<(Cursor, u64)>,
    ) -> bool {
        let (Some(last), Some(o)) = (h.caches.last(), self.levels.last()) else {
            return false;
        };
        let fills = last.cold_fills - o[2];
        if fills == 0 {
            return false;
        }
        let Some((c, lag)) = foretold else {
            return true;
        };
        let lines = last.config().capacity_bytes / last.line_bytes();
        let left = lines.saturating_sub(last.cold_fills);
        !last.filling_at(c.expect().addr) || left * window < 4 * lag * fills
    }

    /// The proof to attempt after the stretch since `self` was taken, and
    /// its granule: a related one where it may hold (its replay costs
    /// nothing per period but the clock's additions), else one passing the
    /// last level through (which repeats that level's every access).
    fn choose(&self, h: &MemoryHierarchy, granules: [Option<u64>; 2]) -> Option<(Mode, u64)> {
        [Mode::Related, Mode::PassThrough]
            .into_iter()
            .zip(granules)
            .find_map(|(mode, g)| Some((mode, g.filter(|_| self.holds(h, mode))?)))
    }
}

/// Buffers an attempt fills, kept across attempts.
#[derive(Default)]
struct Scratch {
    /// The first proof period's costs.
    costs: Vec<f64>,
    sink: Sink,
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

/// Every counter a period advances, in a fixed order: per related cache
/// level (the first `levels`) its tick and statistics, per detector its
/// tick and classifications, the DRAM's row statistics and per-bank access
/// counts.
fn counters(h: &MemoryHierarchy, levels: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for c in &h.caches[..levels] {
        out.extend([
            c.tick,
            c.hits,
            c.misses,
            c.write_backs,
            c.fills,
            c.cold_fills,
        ]);
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
fn advance_counters(h: &mut MemoryHierarchy, levels: usize, inc: &[u64], times: u64) {
    let mut inc = inc.iter().map(|i| i * times);
    let mut bump = |field: &mut u64| *field += inc.next().expect("one increment per counter");
    for c in &mut h.caches[..levels] {
        for field in [
            &mut c.tick,
            &mut c.hits,
            &mut c.misses,
            &mut c.write_backs,
            &mut c.fills,
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
    /// Per related cache level: the sets the period's addresses map to.
    sets: Vec<Vec<usize>>,
    /// Per related cache level: those sets' ways, set after set.
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
    /// Snapshots what the next `lag` accesses `c` predicts can read in the
    /// first `levels` cache levels and below them.
    fn take(h: &MemoryHierarchy, c: &Cursor, lag: u64, levels: usize) -> Option<Snapshot> {
        let caches = &h.caches[..levels];
        if caches
            .iter()
            .any(|c| c.ways.is_empty() || c.config().associativity > 64)
        {
            return None;
        }
        let detectors = detectors(h);
        if detectors
            .iter()
            .any(|(d, _)| d.slots.len() > usize::from(u8::MAX))
        {
            return None;
        }
        let mut seen: Vec<Vec<u64>> = caches
            .iter()
            .map(|c| vec![0; (c.config().num_sets() as usize).div_ceil(64)])
            .collect();
        let mut sets = vec![Vec::new(); levels];
        let mut c = *c;
        for _ in 0..lag {
            let addr = c.expect().addr;
            c.advance();
            for ((cache, seen), level) in caches.iter().zip(&mut seen).zip(&mut sets) {
                let (set, _) = cache.locate(addr);
                if seen[set / 64] & (1 << (set % 64)) == 0 {
                    seen[set / 64] |= 1 << (set % 64);
                    level.push(set);
                }
            }
        }
        let ways = caches
            .iter()
            .zip(&sets)
            .map(|(cache, level)| {
                let assoc = cache.config().associativity as usize;
                level
                    .iter()
                    .flat_map(|&s| cache.ways[s * assoc..(s + 1) * assoc].iter().copied())
                    .collect()
            })
            .collect();
        Some(Snapshot {
            sets,
            ways,
            cache_ticks: caches.iter().map(|c| c.tick).collect(),
            detector_ticks: detectors.iter().map(|(d, _)| d.tick).collect(),
            allocations: detectors.iter().map(|(d, _)| d.allocations).collect(),
            slots: detectors.iter().map(|(d, _)| d.slots.clone()).collect(),
            banks: h.dram.banks.clone(),
            counters: counters(h, levels),
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
    /// How many cache levels (from L1 down) the relation covers.
    levels: usize,
    /// Per related cache level: the sets the period moves, and for each
    /// of their ways the way its relabelled line moves to.
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

        let levels = snap.sets.len();
        let mut sets = Vec::with_capacity(levels);
        let mut perms = Vec::with_capacity(levels);
        let mut cache_tick_inc = Vec::with_capacity(levels);
        for (i, cache) in h.caches[..levels].iter().enumerate() {
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

        let inc = counters(h, levels)
            .iter()
            .zip(&snap.counters)
            .map(|(n, o)| n - o)
            .collect();
        Some(Relation {
            lag,
            granule,
            shift,
            levels,
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
        for (i, cache) in h.caches[..self.levels].iter_mut().enumerate() {
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
        advance_counters(h, self.levels, &self.inc, times);
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

/// The passed-through last level's side of a proof and its replay: for
/// each access of the first period that reached the level, where in the
/// period it came and what it did there.
#[derive(Default)]
struct Sink {
    /// Per such access: its position in the period, shifted left by
    /// [`EFFECT_BITS`], above its [`Effect`] and whether it dirtied the line
    /// (see [`encode`]).
    log: Vec<u32>,
    undo: Undo,
}

/// The bits of a [`Sink`] log entry below the access's position.
const EFFECT_BITS: u32 = 4;

fn encode(position: usize, effect: Effect, dirty: bool) -> u32 {
    ((position as u32) << EFFECT_BITS) | ((effect as u32) << 1) | u32::from(dirty)
}

fn decode(entry: u32) -> (u64, Effect, bool) {
    let effect = match (entry >> 1) & 7 {
        0 => Effect::Hit,
        1 => Effect::NoAllocate,
        2 => Effect::ColdFill,
        3 => Effect::EvictClean,
        _ => Effect::EvictDirty,
    };
    (u64::from(entry >> EFFECT_BITS), effect, entry & 1 != 0)
}

/// Whether a store reaching the last cache level dirties its line there:
/// it must be write-back, and no level above may absorb stores into lines
/// of its own (a write-back level that allocates on stores fetches its
/// lines from below with loads). Loads never dirty a line.
fn last_level_takes_stores(h: &MemoryHierarchy) -> bool {
    let Some((last, upper)) = h.caches.split_last() else {
        return false;
    };
    last.config().write_policy == WritePolicy::WriteBack
        && upper.iter().all(|c| {
            c.config().write_policy == WritePolicy::WriteThrough
                || c.config().allocate_policy == AllocatePolicy::ReadAllocate
        })
}

impl Sink {
    /// Repeats, in order, in the last level `cache`, the logged accesses of
    /// the period `t` periods after the first one (which began where
    /// `origin` predicts). If one would have another effect (a logged miss
    /// finds its line, a logged hit does not, or a fill would take a way of
    /// another class), takes back what the period repeated so far and
    /// returns `false`: `cache` is as it was.
    fn replay(&mut self, cache: &mut Cache, origin: &Cursor, lag: u64, t: u64) -> bool {
        cache.begin(&mut self.undo);
        let line_shift = cache.line_shift;
        // The line the last access left in the level, and its way: a hit
        // on it needs no search.
        let mut last = None;
        for &entry in &self.log {
            let (position, effect, dirty) = decode(entry);
            let q = origin.parity ^ (position & 1) as usize;
            let steps = position / 2 + t * (lag / 2);
            let addr = origin.next[q].wrapping_add(steps.wrapping_mul(origin.step[q]));
            let line = addr >> line_shift;
            last = match last {
                Some((held, way)) if effect == Effect::Hit && held == line => {
                    cache.replay_hit(way, dirty, &mut self.undo);
                    Some((line, way))
                }
                _ => match cache.replay(addr, effect, dirty, &mut self.undo) {
                    Ok(way) => way.map(|way| (line, way)),
                    Err(()) => {
                        cache.rollback(&mut self.undo);
                        return false;
                    }
                },
            };
        }
        true
    }
}

/// Simulates one period of `costs.len()` accesses that must follow `c`.
/// With `record`, logs each access's cycles into `costs` and, given a
/// `sink`, the effect of each that reached the last level; otherwise
/// checks both against the logs and returns whether they repeated bit for
/// bit.
fn run_period(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: &mut Cursor,
    costs: &mut [f64],
    mut sink: Option<&mut Sink>,
    record: bool,
) -> Result<bool, Outcome> {
    if record {
        if let Some(sink) = sink.as_deref_mut() {
            sink.log.clear();
        }
    }
    let mut repeats = true;
    let mut logged = 0;
    let stores_dirty = last_level_takes_stores(&e.hierarchy);
    let mut before = e
        .hierarchy
        .caches
        .last()
        .map_or([0; 4], Cache::access_counters);
    for (position, cost) in costs.iter_mut().enumerate() {
        let Some(a) = trace.next() else {
            return Err(Outcome::Ended);
        };
        if a != c.expect() {
            return Err(Outcome::Failed(Some(a)));
        }
        let cycles = e.step(a);
        c.advance();
        if record {
            *cost = cycles;
        } else {
            repeats &= cost.to_bits() == cycles.to_bits();
        }
        let Some(sink) = sink.as_deref_mut() else {
            continue;
        };
        let last = e.hierarchy.caches.last().expect("a passed-through level");
        if last.tick == before[0] {
            continue;
        }
        let dirty = stores_dirty && a.kind.is_write();
        let entry = encode(position, last.effect(a.addr, before), dirty);
        before = last.access_counters();
        if record {
            sink.log.push(entry);
        } else {
            repeats &= sink.log.get(logged) == Some(&entry);
        }
        logged += 1;
    }
    Ok(repeats && (record || sink.is_none_or(|s| s.log.len() == logged)))
}

/// A stream shape: the kinds and steps of the two interleaved positions.
type Shape = ([AccessKind; 2], [u64; 2]);

/// The shapes not tried again in this pass, each with how many attempts
/// in a row failed: a first failure may be a transient of the warm-up or
/// of where in a lane the attempt began, a second is not.
#[derive(Default)]
struct Refused {
    /// A shape whose proofs stalls defeated: refused in either mode.
    stalls: Option<(Shape, u32)>,
    /// A shape whose passed-through proofs its stream's end broke: after
    /// the first, the next attempt begins near a lane's start, so a second
    /// means the lanes are too short for a proof.
    breaks: Option<(Shape, u32)>,
}

impl Refused {
    fn refuses(&self, shape: Shape, mode: Mode) -> bool {
        self.stalls == Some((shape, 2))
            || (mode == Mode::PassThrough && self.breaks == Some((shape, 2)))
    }

    fn note(&mut self, shape: Shape, mode: Mode, outcome: &Outcome) {
        let again = |memo: Option<(Shape, u32)>| match memo {
            Some((s, n)) if s == shape => Some((shape, n + 1)),
            _ => Some((shape, 1)),
        };
        match outcome {
            Outcome::Stalls(_) => self.stalls = again(self.stalls),
            Outcome::Failed(Some(_)) if mode == Mode::PassThrough => {
                self.breaks = again(self.breaks)
            }
            Outcome::Replayed(_) => *self = Refused::default(),
            _ => {}
        }
    }
}

/// Tries to prove a period starting now and replays it while it lasts;
/// returns how that ended and the period tried (0 if none).
fn attempt(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    mode: Mode,
    granule: u64,
    refused: &mut Refused,
    scratch: &mut Scratch,
) -> (Outcome, u64) {
    let mut x = [Access::read(0); 4];
    for slot in &mut x {
        let Some(a) = trace.next() else {
            return (Outcome::Ended, 0);
        };
        e.step(a);
        *slot = a;
    }
    let Some((mut c, lag)) = Cursor::after(&x).and_then(|c| Some((c, c.lag(granule)?))) else {
        return (Outcome::Failed(None), 0);
    };
    let shape = (c.kind, c.step);
    if refused.refuses(shape, mode) {
        return (Outcome::Failed(None), lag);
    }
    let levels = mode.related_levels(&e.hierarchy);
    let Some(snap) = Snapshot::take(&e.hierarchy, &c, lag, levels) else {
        return (Outcome::Failed(None), lag);
    };
    let origin = c;
    let Scratch { costs, sink } = scratch;
    let mut sink = (mode == Mode::PassThrough).then_some(sink);
    costs.resize(lag as usize, 0.0);
    let outcome = match prove(
        e,
        trace,
        &mut c,
        snap,
        lag,
        granule,
        mode,
        costs,
        sink.as_deref_mut(),
    ) {
        Err(out) => out,
        Ok(rel) => replay(e, trace, c, &rel, costs, sink.map(|s| (s, origin))),
    };
    refused.note(shape, mode, &outcome);
    (outcome, lag)
}

/// Runs two periods literally from the state `snap` holds: the relation
/// must hold after the first, and the second must repeat it (its costs
/// and, passing the last level through, that level's misses). Returns the
/// relation, with the period's costs in `costs`.
#[allow(clippy::too_many_arguments)]
fn prove(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: &mut Cursor,
    snap: Snapshot,
    lag: u64,
    granule: u64,
    mode: Mode,
    costs: &mut [f64],
    mut sink: Option<&mut Sink>,
) -> Result<Relation, Outcome> {
    let shift = Shift::new(c, lag, granule);
    let quiet = Quiet::of(&e.hierarchy);
    e.hierarchy.dram.min_slack = f64::INFINITY;
    e.hierarchy.dram.epoch += 1;
    // The relation commutes with the first period's steps only if no
    // stream slot's claim on a line depended on slot order.
    audit(&mut e.hierarchy, true);
    let first = run_period(e, trace, c, costs, sink.as_deref_mut(), true);
    let unambiguous = audit(&mut e.hierarchy, false);
    first?;
    if e.hierarchy.dram.min_slack <= 0.0 {
        return Err(Outcome::Stalls(None));
    }
    if !unambiguous || !quiet.holds(&e.hierarchy, mode) {
        return Err(Outcome::Failed(None));
    }
    let rel =
        Relation::check(&e.hierarchy, snap, shift, c, lag, granule).ok_or(Outcome::Failed(None))?;
    let mid = counters(&e.hierarchy, rel.levels);
    e.hierarchy.dram.epoch += 1;
    let repeats = run_period(e, trace, c, costs, sink, false)?;
    let same_counts = counters(&e.hierarchy, rel.levels)
        .iter()
        .zip(&mid)
        .map(|(n, o)| n - o)
        .eq(rel.inc.iter().copied());
    if e.hierarchy.dram.min_slack <= 0.0 {
        Err(Outcome::Stalls(None))
    } else if repeats && same_counts && quiet.holds(&e.hierarchy, mode) {
        Ok(rel)
    } else {
        Err(Outcome::Failed(None))
    }
}

/// Draws the rest of the proven stretch from `trace`, charging whole
/// periods from `costs` and simulating the last one (and any partial one)
/// for real. Passing the last level through, each charged period's misses
/// there are first made for real from the `sink`'s log (the proof's first
/// period began where the cursor beside it predicts); one that would not
/// repeat ends the stretch before that period.
fn replay(
    e: &mut MemoryEngine,
    trace: &mut impl Iterator<Item = Access>,
    c: Cursor,
    rel: &Relation,
    costs: &[f64],
    mut sink: Option<(&mut Sink, Cursor)>,
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
            if let Some((sink, origin)) = &mut sink {
                let last = e
                    .hierarchy
                    .caches
                    .last_mut()
                    .expect("a passed-through level");
                // The proof ran the first two periods after `origin`.
                if !sink.replay(last, origin, lag, periods + 2) {
                    if periods == 0 {
                        out = Outcome::Changing(None);
                    }
                    break;
                }
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
        e.step(real.expect());
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
    /// `--cold` path), asserts they end in the same state and returns how
    /// many accesses the fast-forward replayed.
    fn replayed(node: NodeConfig, trace: &[Access]) -> u64 {
        let mut fast = MemoryEngine::new(node);
        let mut literal = fast.clone();
        fast.prime_trace(trace.iter().copied());
        literal.prime(trace.iter().copied(), true);
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
        // A 16 MiB L2 never fills from a 4 MiB pass; below it, a last
        // level could be passed through, but only if every level above
        // were steady.
        let mut node = presets::tiny_test_node();
        node.hierarchy.levels[1].cache.capacity_bytes = 16 << 20;
        node.hierarchy.levels[1].cache.associativity = 16;
        let mut l3 = node.hierarchy.levels[1].clone();
        l3.cache.capacity_bytes = 32 << 20;
        node.hierarchy.levels.push(l3);
        let trace: Vec<Access> = StridedPass::new(0, 1 << 19, 1).collect();
        assert_eq!(replayed(node, &trace), 0);
    }

    /// The tiny node with a 1 MiB direct-mapped L2: its set span is the
    /// whole cache, a period longer than [`MAX_PERIOD`] at any stride, so
    /// only a pass-through proves one. The write-through L1 allocates on
    /// loads only, so stores reach the L2 and dirty it.
    fn direct_mapped_last_level() -> NodeConfig {
        let mut node = presets::tiny_test_node();
        let l2 = &mut node.hierarchy.levels[1].cache;
        l2.capacity_bytes = 1 << 20;
        l2.associativity = 1;
        node
    }

    #[test]
    fn a_last_level_that_stops_filling_mid_stretch_is_replayed_exactly() {
        // The L2 fills from invalid ways for the pass's first 1 MiB
        // (128 Ki accesses), then evicts: the stretch replayed while it
        // fills ends there, and another is proven beyond.
        let trace: Vec<Access> = StridedPass::new(0, 1 << 19, 1).collect();
        let n = replayed(direct_mapped_last_level(), &trace);
        assert!(n > 1 << 17, "replayed only {n} accesses");
    }

    #[test]
    fn a_revisited_line_stops_the_replay_before_its_period() {
        // A first pass leaves the L2 full of clean lines; then a line 512
        // KiB into a second pass is loaded (two far loads then take the
        // DRAM stream slots its load claimed), and the second pass,
        // evicting clean lines like that load, reaches it while the L2
        // still holds it. The replay must stop at the period that would
        // miss there (the access hits), uncharged.
        let fill: Vec<Access> = StridedPass::new(0, 1 << 17, 1).collect();
        let loads = [(1 << 30) + (512 << 10) + 8 * 64, 2 << 30, 3 << 30].map(Access::read);
        let trace: Vec<Access> = fill
            .iter()
            .copied()
            .chain(loads)
            .chain(StridedPass::new(1 << 30, 1 << 18, 1))
            .collect();
        let node = direct_mapped_last_level();
        let n = replayed(node.clone(), &trace);
        // Replay stopped short of the revisit and resumed past it.
        let before = replayed(node, &trace[..fill.len() + loads.len() + (512 << 10) / 8]);
        assert!(before > 0, "nothing was replayed before the revisit");
        assert!(n > before, "nothing was replayed past the revisit");
    }

    #[test]
    fn a_victim_of_another_dirtiness_stops_the_replay() {
        // Stores dirty the L2's lines for its first half, loads leave the
        // second half clean; a load pass beyond then evicts dirty lines
        // for 512 KiB and clean ones after. The replay proven on dirty
        // victims must stop where the victims turn clean.
        let trace: Vec<Access> = StorePass::new(0, 1 << 16, 1)
            .chain(StridedPass::new(512 << 10, 1 << 16, 1))
            .chain(StridedPass::new(1 << 20, 1 << 17, 1))
            .collect();
        let n = replayed(direct_mapped_last_level(), &trace);
        assert!(n > 1 << 16, "replayed only {n} accesses");
    }
}

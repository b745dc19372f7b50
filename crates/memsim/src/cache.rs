//! Tag-array cache simulation.
//!
//! Each [`Cache`] simulates real set/way tag state so that working-set
//! plateaus, conflict behaviour and line-granularity overfetch emerge from
//! mechanism rather than from a formula. Data values are not stored — only
//! tags, valid and dirty bits — because the paper's characterization depends
//! only on hit/miss behaviour and transfer sizes.

use crate::access::{AccessKind, Addr};
use crate::error::ConfigError;

/// Write policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Stores update the line (if present) and are always forwarded to the
    /// next level (the Alpha 21064/21164 on-chip L1 caches).
    WriteThrough,
    /// Stores dirty the line; data moves to the next level only on eviction
    /// (the 8400's L2/L3 and the T3E's L2).
    WriteBack,
}

/// Allocation policy on a store miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatePolicy {
    /// Lines are allocated on read misses only ("read-allocate"); a store
    /// miss bypasses the cache. This is the policy of the write-through
    /// Alpha L1 caches.
    ReadAllocate,
    /// Lines are allocated on both read and store misses; a store miss first
    /// fetches the line (read-modify-write). Typical for write-back caches.
    ReadWriteAllocate,
}

/// Static description of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Human-readable name used in diagnostics ("L1", "L2", "L3").
    pub name: String,
    /// Total capacity in bytes. Must be a power of two.
    pub capacity_bytes: u64,
    /// Line size in bytes. Must be a power of two and divide the capacity.
    pub line_bytes: u64,
    /// Number of ways. `1` is direct mapped. Must divide
    /// `capacity_bytes / line_bytes`.
    pub associativity: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Allocation-on-store-miss policy.
    pub allocate_policy: AllocatePolicy,
}

impl CacheConfig {
    /// Validates the structural invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when capacity or line size are not powers of
    /// two, when the line does not divide the capacity, or when the
    /// associativity does not divide the number of lines.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let component = format!("cache {}", self.name);
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                component,
                "line size must be a non-zero power of two",
            ));
        }
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(self.line_bytes) {
            return Err(ConfigError::new(
                component,
                "capacity must be a non-zero multiple of the line size",
            ));
        }
        let lines = self.capacity_bytes / self.line_bytes;
        if self.associativity == 0
            || self.associativity > lines
            || !lines.is_multiple_of(self.associativity)
        {
            return Err(ConfigError::new(
                component,
                "associativity must be in 1..=lines and divide the line count",
            ));
        }
        // Sets index the address with a modulo, so the *set count* must be a
        // power of two (the capacity itself need not be: the 21164's 96 KB
        // 3-way L2 has 512 sets).
        let sets = lines / self.associativity;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(
                component,
                "the set count (lines / associativity) must be a power of two",
            ));
        }
        Ok(())
    }

    /// Number of sets implied by capacity, line size and associativity.
    pub fn num_sets(&self) -> u64 {
        self.capacity_bytes / self.line_bytes / self.associativity
    }
}

/// The outcome of presenting one access to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss {
        /// A dirty line had to be evicted to make room (write-back cost).
        victim_dirty: bool,
        /// Whether the line was brought in at all (store misses on
        /// read-allocate caches are not).
        allocated: bool,
    },
}

impl LookupOutcome {
    /// Returns `true` if the access hit in this level.
    pub fn is_hit(self) -> bool {
        matches!(self, LookupOutcome::Hit)
    }
}

/// One way of one set, in two words: the tag, then the state word — the
/// LRU stamp shifted above the [`VALID`] and [`DIRTY`] bits. An invalid way
/// is all zero bits, so a store of invalid ways comes zeroed from the
/// allocator instead of being written way by way.
pub(crate) type Way = [u64; 2];

/// An invalid way.
pub(crate) const INVALID: Way = [0, 0];
/// State-word bit: the way holds a line.
const VALID: u64 = 1;
/// State-word bit: the line is dirty.
const DIRTY: u64 = 2;
/// The LRU stamp's position above the state bits.
pub(crate) const STAMP_SHIFT: u32 = 2;

#[inline]
pub(crate) fn is_valid(way: &Way) -> bool {
    way[1] & VALID != 0
}

#[inline]
fn holds(way: &Way, tag: u64) -> bool {
    is_valid(way) && way[0] == tag
}

#[inline]
fn is_dirty(way: &Way) -> bool {
    way[1] & DIRTY != 0
}

/// A simulated cache level (tags only).
///
/// The tag store costs what the accesses touch: construction allocates
/// none of it, the first access builds it zeroed (all ways invalid), and
/// [`Cache::flush`] clears only the sets allocated into since the store was
/// built or last flushed. A flushed cache is therefore exactly a
/// just-constructed one.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * associativity` ways, row-major by set; empty until the
    /// first access builds it.
    pub(crate) ways: Vec<Way>,
    /// One bit per set, set by the set's first fill since the store was
    /// built or flushed: the sets [`Cache::flush`] must clear. Built with
    /// `ways`.
    touched: Vec<u64>,
    /// `log2(line_bytes)`; the line size is a validated power of two, so
    /// `addr >> line_shift` is exactly `addr / line_bytes`.
    pub(crate) line_shift: u32,
    /// `num_sets - 1`; the set count is a validated power of two, so
    /// `line & set_mask` is exactly `line % num_sets`.
    set_mask: u64,
    /// `log2(num_sets)`; `line >> set_shift` is exactly `line / num_sets`.
    pub(crate) set_shift: u32,
    pub(crate) tick: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) write_backs: u64,
    /// Misses that allocated a line.
    pub(crate) fills: u64,
    /// Fills into an invalid way: non-zero growth means the cache is still
    /// filling.
    pub(crate) cold_fills: u64,
}

impl Cache {
    /// Builds a cache from a validated configuration. No tag memory is
    /// allocated until the first access.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`] errors.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let num_sets = config.num_sets();
        Ok(Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            config,
            ways: Vec::new(),
            touched: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            write_backs: 0,
            fills: 0,
            cold_fills: 0,
        })
    }

    /// Builds the tag store, every way invalid. `vec!` of a zero primitive
    /// takes the memory zeroed from the allocator, so pages the accesses
    /// never reach are never written.
    #[cold]
    fn build_store(&mut self) {
        let sets = self.config.num_sets() as usize;
        self.ways = vec![INVALID; sets * self.config.associativity as usize];
        self.touched = vec![0; sets.div_ceil(64)];
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line size in bytes (convenience accessor).
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }

    /// Total hits observed since construction or the last [`Cache::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed since construction or the last [`Cache::reset_stats`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of dirty evictions performed.
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Clears hit/miss/write-back/fill counters (tag state is preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.write_backs = 0;
        self.fills = 0;
        self.cold_fills = 0;
    }

    /// Invalidates all lines and clears statistics. Only the sets allocated
    /// into since the last flush can hold a line, so only they are cleared.
    pub fn flush(&mut self) {
        let assoc = self.config.associativity as usize;
        for (word, bits) in self.touched.iter_mut().enumerate() {
            let mut sets = std::mem::take(bits);
            while sets != 0 {
                let set = word * 64 + sets.trailing_zeros() as usize;
                self.ways[set * assoc..(set + 1) * assoc].fill(INVALID);
                sets &= sets - 1;
            }
        }
        self.reset_stats();
    }

    /// The way holding the line containing `addr`, if present (an unbuilt
    /// store holds none).
    fn find(&self, addr: Addr) -> Option<&Way> {
        let (set, tag) = self.locate(addr);
        let assoc = self.config.associativity as usize;
        let ways = self.ways.get(set * assoc..(set + 1) * assoc)?;
        ways.iter().find(|w| holds(w, tag))
    }

    /// Invalidates the line containing `addr` if present, returning whether
    /// the invalidated line was dirty. Used by coherence (remote stores /
    /// synchronization-point invalidation on the T3D).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.locate(addr);
        let assoc = self.config.associativity as usize;
        let ways = self.ways.get_mut(set * assoc..(set + 1) * assoc)?;
        let way = ways.iter_mut().find(|w| holds(w, tag))?;
        let dirty = is_dirty(way);
        *way = INVALID;
        Some(dirty)
    }

    /// Returns `true` if the line containing `addr` is currently present.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Returns `true` if the line containing `addr` is present and dirty.
    pub fn probe_dirty(&self, addr: Addr) -> bool {
        self.find(addr).is_some_and(is_dirty)
    }

    /// Line index of `addr` in this level's geometry (`addr / line_bytes`).
    #[inline]
    pub fn line_of(&self, addr: Addr) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    pub(crate) fn locate(&self, addr: Addr) -> (usize, u64) {
        // Line size and set count are validated powers of two, so shifts and
        // masks compute exactly the same set/tag as the division form.
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        (set, tag)
    }

    /// Presents one access to the cache, updating tag state and statistics.
    ///
    /// On a miss the LRU way of the set is replaced (when the policy
    /// allocates). The caller is responsible for charging fill and
    /// write-back costs based on the returned [`LookupOutcome`].
    ///
    /// Always inlined: every level of every access's walk runs this
    /// lookup, and with only an `#[inline]` hint 8 MiB local probes ran
    /// about 8% slower.
    #[inline(always)]
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> LookupOutcome {
        self.tick += 1;
        let (set, tag) = self.locate(addr);
        if self.ways.is_empty() {
            self.build_store();
        }
        let assoc = self.config.associativity as usize;
        let ways = &mut self.ways[set * assoc..(set + 1) * assoc];
        let stamp = self.tick << STAMP_SHIFT;
        let dirty_bit = if kind.is_write() && self.config.write_policy == WritePolicy::WriteBack {
            DIRTY
        } else {
            0
        };

        // Hit path.
        for w in ways.iter_mut() {
            if holds(w, tag) {
                w[1] = stamp | VALID | (w[1] & DIRTY) | dirty_bit;
                self.hits += 1;
                return LookupOutcome::Hit;
            }
        }

        // Miss path.
        self.misses += 1;
        let allocate = match (kind, self.config.allocate_policy) {
            (AccessKind::Read, _) => true,
            (AccessKind::Write, AllocatePolicy::ReadWriteAllocate) => true,
            (AccessKind::Write, AllocatePolicy::ReadAllocate) => false,
        };
        if !allocate {
            return LookupOutcome::Miss {
                victim_dirty: false,
                allocated: false,
            };
        }

        self.fills += 1;
        // Choose victim: first invalid way, else LRU. A set's first fill
        // since the store was built or flushed always finds an invalid
        // way, so that is where the set is marked touched. Valid ways of a
        // set carry distinct stamps, so their whole state words order like
        // their stamps.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, w) in ways.iter().enumerate() {
            if !is_valid(w) {
                self.touched[set / 64] |= 1 << (set % 64);
                self.cold_fills += 1;
                victim = i;
                break;
            }
            if w[1] < oldest {
                oldest = w[1];
                victim = i;
            }
        }
        let victim_dirty = is_valid(&ways[victim]) && is_dirty(&ways[victim]);
        if victim_dirty {
            self.write_backs += 1;
        }
        ways[victim] = [tag, stamp | VALID | dirty_bit];
        LookupOutcome::Miss {
            victim_dirty,
            allocated: true,
        }
    }

    /// Whether a miss of `addr` would fill an invalid way.
    pub(crate) fn filling_at(&self, addr: Addr) -> bool {
        let (set, _) = self.locate(addr);
        let assoc = self.config.associativity as usize;
        self.ways
            .get(set * assoc..(set + 1) * assoc)
            .is_none_or(|ways| ways.iter().any(|w| !is_valid(w)))
    }

    /// The counters [`Cache::effect`] reads: tick, hits, write-backs and
    /// fills into invalid ways.
    pub(crate) fn access_counters(&self) -> [u64; 4] {
        [self.tick, self.hits, self.write_backs, self.cold_fills]
    }

    /// What the last access, of `addr`, did to this level, told from the
    /// [`Cache::access_counters`] `before` it.
    pub(crate) fn effect(&self, addr: Addr, before: [u64; 4]) -> Effect {
        let now = self.access_counters();
        if now[1] != before[1] {
            Effect::Hit
        } else if now[3] != before[3] {
            Effect::ColdFill
        } else if now[2] != before[2] {
            Effect::EvictDirty
        } else if self.find(addr).is_some() {
            Effect::EvictClean
        } else {
            Effect::NoAllocate
        }
    }

    /// Repeats an access of `addr` that had `effect`, exactly as
    /// [`Cache::access`] would make it: the same tick, counters, way,
    /// stamp, dirty bit (`dirty`: whether the access dirties the line) and
    /// touched-set bit. Returns the index of the way it left holding the
    /// line (none after a miss that allocates nothing); or changes nothing
    /// and returns `Err` when the access would have another effect: a hit
    /// finds no line, a miss finds the line, or a fill would take a way of
    /// another class. Every change is recorded in `undo`.
    pub(crate) fn replay(
        &mut self,
        addr: Addr,
        effect: Effect,
        dirty: bool,
        undo: &mut Undo,
    ) -> Result<Option<usize>, ()> {
        let (set, tag) = self.locate(addr);
        let assoc = self.config.associativity as usize;
        let ways = self.ways.get(set * assoc..(set + 1) * assoc).ok_or(())?;
        let way = match (effect, lookup(ways, tag)) {
            (Effect::Hit, Ok(way)) => {
                let index = set * assoc + way;
                self.replay_hit(index, dirty, undo);
                return Ok(Some(index));
            }
            (Effect::NoAllocate, Err(_)) => {
                self.tick += 1;
                self.misses += 1;
                return Ok(None);
            }
            (Effect::ColdFill | Effect::EvictClean | Effect::EvictDirty, Err(victim)) => victim,
            _ => return Err(()),
        };
        let class = match (is_valid(&ways[way]), is_dirty(&ways[way])) {
            (false, _) => Effect::ColdFill,
            (true, false) => Effect::EvictClean,
            (true, true) => Effect::EvictDirty,
        };
        if class != effect {
            return Err(());
        }
        let index = set * assoc + way;
        undo.ways.push((index, self.ways[index]));
        self.tick += 1;
        self.misses += 1;
        self.fills += 1;
        match effect {
            Effect::ColdFill => {
                self.cold_fills += 1;
                let bit = 1 << (set % 64);
                if self.touched[set / 64] & bit == 0 {
                    self.touched[set / 64] |= bit;
                    undo.touched.push(set);
                }
            }
            Effect::EvictDirty => self.write_backs += 1,
            _ => {}
        }
        let dirty_bit = if dirty { DIRTY } else { 0 };
        self.ways[index] = [tag, (self.tick << STAMP_SHIFT) | VALID | dirty_bit];
        Ok(Some(index))
    }

    /// Repeats a hit on the line way `index` holds, as [`Cache::replay`]
    /// does, without looking for it.
    pub(crate) fn replay_hit(&mut self, index: usize, dirty: bool, undo: &mut Undo) {
        let way = &mut self.ways[index];
        // Rolling back restores the oldest contents recorded for a way, so
        // a run of hits on the way just recorded needs no record of its own.
        if undo.ways.last().is_none_or(|&(i, _)| i != index) {
            undo.ways.push((index, *way));
        }
        self.tick += 1;
        self.hits += 1;
        let dirty_bit = if dirty { DIRTY } else { 0 };
        way[1] = (self.tick << STAMP_SHIFT) | VALID | (way[1] & DIRTY) | dirty_bit;
    }

    /// Starts recording into `undo` the changes a run of
    /// [`Cache::replay`] makes.
    pub(crate) fn begin(&self, undo: &mut Undo) {
        undo.counters = [
            self.tick,
            self.hits,
            self.misses,
            self.write_backs,
            self.fills,
            self.cold_fills,
        ];
        undo.ways.clear();
        undo.touched.clear();
    }

    /// Takes back every change recorded in `undo` since [`Cache::begin`].
    pub(crate) fn rollback(&mut self, undo: &mut Undo) {
        for (i, way) in undo.ways.drain(..).rev() {
            self.ways[i] = way;
        }
        for set in undo.touched.drain(..) {
            self.touched[set / 64] &= !(1 << (set % 64));
        }
        [
            self.tick,
            self.hits,
            self.misses,
            self.write_backs,
            self.fills,
            self.cold_fills,
        ] = undo.counters;
    }
}

/// The way of `ways` that holds `tag`, or else the way a miss fills: the
/// first invalid way, else the least recently used — the choice
/// [`Cache::access`] makes. One pass finds either.
fn lookup(ways: &[Way], tag: u64) -> Result<usize, usize> {
    let mut invalid = None;
    let mut lru = 0;
    let mut oldest = u64::MAX;
    for (i, w) in ways.iter().enumerate() {
        if !is_valid(w) {
            invalid = invalid.or(Some(i));
        } else if w[0] == tag {
            return Ok(i);
        } else if w[1] < oldest {
            oldest = w[1];
            lru = i;
        }
    }
    Err(invalid.unwrap_or(lru))
}

/// What one access did to a level, as far as its cost and the level's
/// later state depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Effect {
    /// The line was present.
    Hit = 0,
    /// A store missed a level that does not allocate on stores.
    NoAllocate = 1,
    /// A miss filled an invalid way: the level is still filling.
    ColdFill = 2,
    /// A miss evicted a clean line.
    EvictClean = 3,
    /// A miss evicted a dirty line (a write-back).
    EvictDirty = 4,
}

/// The changes a run of [`Cache::replay`] made, to take them back.
#[derive(Debug, Default)]
pub(crate) struct Undo {
    /// Tick, hits, misses, write-backs, fills and cold fills before the
    /// run.
    counters: [u64; 6],
    /// Each overwritten way's index and former contents, in order.
    ways: Vec<(usize, Way)>,
    /// The sets the run marked touched.
    touched: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(
        capacity: u64,
        line: u64,
        assoc: u64,
        wp: WritePolicy,
        ap: AllocatePolicy,
    ) -> CacheConfig {
        CacheConfig {
            name: "test".to_string(),
            capacity_bytes: capacity,
            line_bytes: line,
            associativity: assoc,
            write_policy: wp,
            allocate_policy: ap,
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(cfg(
            0,
            32,
            1,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            0,
            1,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            48,
            1,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            2048,
            1,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            32,
            0,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            32,
            64,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_err());
        assert!(cfg(
            1024,
            32,
            2,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate
        )
        .validate()
        .is_ok());
        // 96 KB 3-way with 64 B lines has 512 sets: valid (the 21164 L2).
        assert!(cfg(
            96 * 1024,
            64,
            3,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate
        )
        .validate()
        .is_ok());
        // 96 KB direct-mapped would need 1536 sets: invalid.
        assert!(cfg(
            96 * 1024,
            64,
            1,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate
        )
        .validate()
        .is_err());
    }

    #[test]
    fn direct_mapped_hit_and_miss() {
        let mut c = Cache::new(cfg(
            256,
            32,
            1,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        assert!(!c.access(0, AccessKind::Read).is_hit());
        assert!(c.access(8, AccessKind::Read).is_hit()); // same line
        assert!(c.access(16, AccessKind::Read).is_hit());
        // 256 B / 32 B = 8 sets; address 256 maps to set 0 and evicts line 0.
        assert!(!c.access(256, AccessKind::Read).is_hit());
        assert!(!c.access(0, AccessKind::Read).is_hit());
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_replacement_in_two_way_set() {
        // 2 ways, 2 sets, 32 B lines => capacity 128 B.
        let mut c = Cache::new(cfg(
            128,
            32,
            2,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0, AccessKind::Read); // miss, fill way 0
        c.access(128, AccessKind::Read); // line 4 -> set 0, miss, fill way 1
        c.access(0, AccessKind::Read); // hit, refresh LRU of line 0
        c.access(256, AccessKind::Read); // line 8 -> set 0, evicts line 4 (LRU)
        assert!(c.probe(0), "line 0 must survive (recently used)");
        assert!(!c.probe(128), "line 4 must have been evicted");
        assert!(c.probe(256));
    }

    #[test]
    fn write_back_dirty_eviction_counted() {
        let mut c = Cache::new(cfg(
            64,
            32,
            1,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        c.access(0, AccessKind::Write); // allocate dirty (write-allocate)
        assert!(c.probe_dirty(0));
        let out = c.access(64, AccessKind::Read); // same set, evicts dirty line
        match out {
            LookupOutcome::Miss {
                victim_dirty,
                allocated,
            } => {
                assert!(victim_dirty);
                assert!(allocated);
            }
            LookupOutcome::Hit => panic!("expected a miss"),
        }
        assert_eq!(c.write_backs(), 1);
    }

    #[test]
    fn write_through_store_miss_does_not_allocate() {
        let mut c = Cache::new(cfg(
            64,
            32,
            1,
            WritePolicy::WriteThrough,
            AllocatePolicy::ReadAllocate,
        ))
        .unwrap();
        let out = c.access(0, AccessKind::Write);
        assert_eq!(
            out,
            LookupOutcome::Miss {
                victim_dirty: false,
                allocated: false
            }
        );
        assert!(!c.probe(0));
        // A read allocates; a subsequent store hits and stays clean.
        c.access(0, AccessKind::Read);
        assert!(c.access(0, AccessKind::Write).is_hit());
        assert!(!c.probe_dirty(0), "write-through lines never become dirty");
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = Cache::new(cfg(
            64,
            32,
            1,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        c.access(0, AccessKind::Write);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        c.access(0, AccessKind::Read);
        assert_eq!(c.invalidate(0), Some(false));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = Cache::new(cfg(
            64,
            32,
            2,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        c.access(0, AccessKind::Read);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    /// `flush` clears only the sets allocated into, so it must leave no
    /// trace that a new cache would not have: a second seeded trace replays
    /// on the flushed cache and on `Cache::new` with the same outcome, the
    /// same victim dirtiness and the same probe answers at every step.
    #[test]
    fn flushed_cache_replays_like_a_new_one() {
        use crate::rng::Rng;

        let configs = [
            // Direct-mapped, write-through (the Alpha L1 shape).
            cfg(
                8192,
                32,
                1,
                WritePolicy::WriteThrough,
                AllocatePolicy::ReadAllocate,
            ),
            // Direct-mapped, write-back.
            cfg(
                64 * 1024,
                64,
                1,
                WritePolicy::WriteBack,
                AllocatePolicy::ReadWriteAllocate,
            ),
            // 3-way, 512 sets (the 21164's 96 KB L2).
            cfg(
                96 * 1024,
                64,
                3,
                WritePolicy::WriteBack,
                AllocatePolicy::ReadWriteAllocate,
            ),
        ];
        for config in configs {
            let (sets, line, assoc) = (config.num_sets(), config.line_bytes, config.associativity);
            // A word in one of the first `span` sets under one of a few
            // tags, so sets fill and evict.
            let word = |rng: &mut Rng, span: u64| {
                let set = rng.gen_range(0, span);
                let tag = rng.gen_range(0, 2 * assoc + 1);
                (tag * sets + set) * line + rng.gen_range(0, line / 8) * 8
            };
            let kind = |rng: &mut Rng| {
                if rng.gen_bool(0.4) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                }
            };

            // Dirty a subset of the sets.
            let mut flushed = Cache::new(config.clone()).unwrap();
            let mut rng = Rng::new(7);
            for _ in 0..4000 {
                let addr = word(&mut rng, sets / 4 + 40);
                if rng.gen_bool(0.1) {
                    flushed.invalidate(addr);
                } else {
                    flushed.access(addr, kind(&mut rng));
                }
            }
            flushed.flush();

            let mut fresh = Cache::new(config.clone()).unwrap();
            let mut rng = Rng::new(11);
            for step in 0..8000 {
                let addr = word(&mut rng, sets);
                let at = format!("{assoc}-way {sets} sets, step {step}");
                assert_eq!(flushed.probe(addr), fresh.probe(addr), "{at}");
                assert_eq!(flushed.probe_dirty(addr), fresh.probe_dirty(addr), "{at}");
                if rng.gen_bool(0.05) {
                    assert_eq!(flushed.invalidate(addr), fresh.invalidate(addr), "{at}");
                } else {
                    let kind = kind(&mut rng);
                    assert_eq!(flushed.access(addr, kind), fresh.access(addr, kind), "{at}");
                }
            }
            assert_eq!(
                (flushed.hits(), flushed.misses(), flushed.write_backs()),
                (fresh.hits(), fresh.misses(), fresh.write_backs())
            );
        }
    }

    #[test]
    fn working_set_fits_iff_capacity() {
        // 1 KB, 32 B lines, 4-way. Touch exactly 1 KB twice: second pass all hits.
        let mut c = Cache::new(cfg(
            1024,
            32,
            4,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        for pass in 0..2 {
            for w in 0..(1024 / 8) {
                c.access(w * 8, AccessKind::Read);
            }
            if pass == 0 {
                c.reset_stats();
            }
        }
        assert_eq!(
            c.misses(),
            0,
            "primed working set equal to capacity must fully hit"
        );
        // Now 2 KB: second pass must miss every line again (LRU over a looped pattern).
        let mut c2 = Cache::new(cfg(
            1024,
            32,
            4,
            WritePolicy::WriteBack,
            AllocatePolicy::ReadWriteAllocate,
        ))
        .unwrap();
        for pass in 0..2 {
            for w in 0..(2048 / 8) {
                c2.access(w * 8, AccessKind::Read);
            }
            if pass == 0 {
                c2.reset_stats();
            }
        }
        assert_eq!(c2.hits() % 4, 0);
        assert!(
            c2.misses() >= 2048 / 32,
            "2x-capacity loop must keep missing"
        );
    }
}

//! Set-associative SRAM cache model (L1 / L2).
//!
//! The model tracks tags and metadata only — simulated programs have no data
//! values. Lines record whether they cache *remotely homed* memory so the
//! NUMA-GPU software-coherence flush ([`SetAssocCache::invalidate_remote`])
//! can drop exactly those lines at kernel boundaries.

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A dirty line pushed out by a fill, which the owner must write back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim cached remotely homed memory.
    pub remote: bool,
}

/// `tags` entry of an invalid way. A real tag is `addr / line_size / sets`
/// with `line_size × sets >= 2` (checked in [`SetAssocCache::new`]), so it
/// is below `2^63` and never equals this.
const INVALID: u64 = u64::MAX;
/// `flags` bit: the line was written since it was filled.
const DIRTY: u8 = 1;
/// `flags` bit: the line caches remotely homed memory.
const REMOTE: u8 = 2;

/// A set-associative cache with true-LRU replacement.
///
/// Write policy is the *caller's* decision: [`SetAssocCache::probe`] updates
/// recency and reports hit/miss; the caller chooses whether to
/// [`fill`](SetAssocCache::fill) on a miss (allocate-on-miss) and whether to
/// [`mark_dirty`](SetAssocCache::mark_dirty) on stores (write-back) or to
/// propagate the store downstream (write-through).
///
/// Way state is kept in three parallel arrays indexed `set * ways + way`,
/// so a lookup reads only the set's contiguous tag words.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    /// Each way's tag, [`INVALID`] when the way holds no line.
    tags: Vec<u64>,
    /// Each way's last-touch stamp (the LRU order).
    lru: Vec<u64>,
    /// Each way's [`DIRTY`] / [`REMOTE`] bits; meaningless while invalid.
    flags: Vec<u8>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not
    /// divisible into at least one set, a non-power-of-two set count —
    /// required for mask indexing — or a single set of 1-byte lines, whose
    /// tags would span every `u64`).
    pub fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> SetAssocCache {
        assert!(capacity_bytes > 0 && ways > 0 && line_size > 0);
        let total_lines = (capacity_bytes / line_size) as usize;
        assert!(
            total_lines >= ways,
            "capacity {capacity_bytes} too small for {ways} ways of {line_size}B lines"
        );
        let sets = total_lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(
            line_size > 1 || sets > 1,
            "a single set of 1-byte lines leaves no tag value free for INVALID"
        );
        SetAssocCache {
            sets,
            ways,
            line_size,
            tags: vec![INVALID; sets * ways],
            lru: vec![0; sets * ways],
            flags: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.line_size;
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr / self.sets as u64;
        (set, tag)
    }

    /// The `tags` index of the way in `set` holding `tag`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// The address of the line `tag` names in `set`.
    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets as u64 + set as u64) * self.line_size
    }

    /// Looks up `addr`; on a hit updates recency (and dirty state for
    /// writes, so callers using write-back semantics get it for free).
    /// Returns `true` on hit.
    pub fn probe(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        match self.find(set, tag) {
            Some(i) => {
                self.lru[i] = self.tick;
                if kind == AccessKind::Write {
                    self.flags[i] |= DIRTY;
                }
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Looks up `addr` without disturbing recency or hit/miss statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Installs the line for `addr`, evicting LRU if the set is full.
    /// Returns the evicted line if it was valid *and dirty* (needs
    /// write-back); clean victims vanish silently.
    pub fn fill(&mut self, addr: u64, remote: bool) -> Option<Eviction> {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let remote_bit = if remote { REMOTE } else { 0 };
        // Already present (e.g. racing fills merged by an MSHR): refresh.
        if let Some(i) = self.find(set, tag) {
            self.lru[i] = self.tick;
            self.flags[i] = (self.flags[i] & !REMOTE) | remote_bit;
            return None;
        }
        // Choose an invalid way, else the LRU way.
        let base = set * self.ways;
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == INVALID {
                victim = i;
                break;
            }
            if self.lru[i] < best {
                best = self.lru[i];
                victim = i;
            }
        }
        let (old_tag, old_flags) = (self.tags[victim], self.flags[victim]);
        self.tags[victim] = tag;
        self.lru[victim] = self.tick;
        self.flags[victim] = remote_bit;
        (old_tag != INVALID && old_flags & DIRTY != 0).then(|| Eviction {
            addr: self.line_addr(set, old_tag),
            remote: old_flags & REMOTE != 0,
        })
    }

    /// Marks the line holding `addr` dirty (no-op if absent). Returns
    /// whether the line was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let Some(i) = self.find(set, tag) else {
            return false;
        };
        self.flags[i] |= DIRTY;
        true
    }

    /// Invalidates the line holding `addr` if present; returns whether the
    /// invalidated line was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.index(addr);
        let i = self.find(set, tag)?;
        self.tags[i] = INVALID;
        Some(self.flags[i] & DIRTY != 0)
    }

    /// Invalidates every line (kernel-boundary L1 flush). Returns the number
    /// of lines dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let n = self.occupancy();
        self.tags.fill(INVALID);
        n
    }

    /// Invalidates only lines caching *remote* memory (NUMA-GPU's software
    /// coherence extension to the LLC). Returns dirty remote lines that
    /// would need write-back before dropping.
    pub fn invalidate_remote(&mut self) -> Vec<Eviction> {
        let mut dirty = Vec::new();
        for i in 0..self.tags.len() {
            let tag = self.tags[i];
            if tag != INVALID && self.flags[i] & REMOTE != 0 {
                if self.flags[i] & DIRTY != 0 {
                    dirty.push(Eviction {
                        addr: self.line_addr(i / self.ways, tag),
                        remote: true,
                    });
                }
                self.tags[i] = INVALID;
            }
        }
        dirty
    }

    /// Total line-granularity accesses that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total line-granularity accesses that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all probes (0.0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Configured line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SetAssocCache {
        SetAssocCache::new(4096, 4, 128) // 8 sets x 4 ways
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = cache();
        assert!(!c.probe(0x1000, AccessKind::Read));
        c.fill(0x1000, false);
        assert!(c.probe(0x1000, AccessKind::Read));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = cache();
        c.fill(0x1000, false);
        assert!(c.probe(0x1000 + 64, AccessKind::Read));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache();
        // 5 lines mapping to the same set (stride = sets * line = 8*128).
        let stride = 8 * 128u64;
        for i in 0..4 {
            c.fill(i * stride, false);
        }
        // Touch line 0 to make line 1 LRU.
        assert!(c.probe(0, AccessKind::Read));
        c.fill(4 * stride, false);
        assert!(c.contains(0));
        assert!(!c.contains(stride), "LRU line should have been evicted");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache();
        let stride = 8 * 128u64;
        c.fill(0, false);
        assert!(c.mark_dirty(0));
        for i in 1..=4u64 {
            let ev = c.fill(i * stride, false);
            if i < 4 {
                assert!(ev.is_none());
            } else {
                let ev = ev.expect("dirty LRU line must be evicted with write-back");
                assert_eq!(ev.addr, 0);
            }
        }
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = cache();
        let stride = 8 * 128u64;
        for i in 0..=4u64 {
            assert!(c.fill(i * stride, false).is_none());
        }
    }

    #[test]
    fn write_probe_sets_dirty() {
        let mut c = cache();
        c.fill(0x80, false);
        assert!(c.probe(0x80, AccessKind::Write));
        assert_eq!(c.invalidate(0x80), Some(true));
    }

    #[test]
    fn invalidate_remote_keeps_local_lines() {
        let mut c = cache();
        c.fill(0x0000, false);
        c.fill(0x2000, true);
        c.fill(0x4000, true);
        c.mark_dirty(0x4000);
        let dirty = c.invalidate_remote();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].addr, 0x4000);
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x2000));
        assert!(!c.contains(0x4000));
    }

    #[test]
    fn invalidate_all_counts_lines() {
        let mut c = cache();
        c.fill(0x0, false);
        c.fill(0x1000, false);
        assert_eq!(c.invalidate_all(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = cache();
        c.fill(0x100, false);
        c.mark_dirty(0x100);
        assert!(c.fill(0x100, true).is_none());
        // Remote flag refreshed by the new fill.
        let dirty = c.invalidate_remote();
        assert_eq!(dirty.len(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(3 * 128 * 4, 4, 128);
    }

    /// The array-of-lines model the dense layout replaced, kept as the
    /// oracle for `dense_layout_matches_the_line_array_model`.
    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        remote: bool,
        lru: u64,
    }

    struct RefCache {
        sets: usize,
        ways: usize,
        line_size: u64,
        lines: Vec<Line>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> RefCache {
            let sets = (capacity_bytes / line_size) as usize / ways;
            RefCache {
                sets,
                ways,
                line_size,
                lines: vec![Line::default(); sets * ways],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr / self.line_size;
            let set = (line_addr as usize) & (self.sets - 1);
            (set, line_addr / self.sets as u64)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (set, tag) = self.index(addr);
            let base = set * self.ways;
            (base..base + self.ways).find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
        }

        fn probe(&mut self, addr: u64, kind: AccessKind) -> bool {
            self.tick += 1;
            match self.find(addr) {
                Some(i) => {
                    self.lines[i].lru = self.tick;
                    self.lines[i].dirty |= kind == AccessKind::Write;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn fill(&mut self, addr: u64, remote: bool) -> Option<Eviction> {
            self.tick += 1;
            if let Some(i) = self.find(addr) {
                self.lines[i].lru = self.tick;
                self.lines[i].remote = remote;
                return None;
            }
            let (set, tag) = self.index(addr);
            let base = set * self.ways;
            let mut victim = base;
            let mut best = u64::MAX;
            for i in base..base + self.ways {
                if !self.lines[i].valid {
                    victim = i;
                    break;
                }
                if self.lines[i].lru < best {
                    best = self.lines[i].lru;
                    victim = i;
                }
            }
            let old = self.lines[victim];
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: false,
                remote,
                lru: self.tick,
            };
            (old.valid && old.dirty).then(|| Eviction {
                addr: (old.tag * self.sets as u64 + set as u64) * self.line_size,
                remote: old.remote,
            })
        }

        fn mark_dirty(&mut self, addr: u64) -> bool {
            self.find(addr)
                .map(|i| self.lines[i].dirty = true)
                .is_some()
        }

        fn invalidate(&mut self, addr: u64) -> Option<bool> {
            let i = self.find(addr)?;
            self.lines[i].valid = false;
            Some(self.lines[i].dirty)
        }

        fn invalidate_all(&mut self) -> usize {
            let n = self.occupancy();
            self.lines.iter_mut().for_each(|l| l.valid = false);
            n
        }

        fn invalidate_remote(&mut self) -> Vec<Eviction> {
            let mut dirty = Vec::new();
            for (i, line) in self.lines.iter_mut().enumerate() {
                if line.valid && line.remote {
                    if line.dirty {
                        let set = (i / self.ways) as u64;
                        let addr = (line.tag * self.sets as u64 + set) * self.line_size;
                        dirty.push(Eviction { addr, remote: true });
                    }
                    line.valid = false;
                }
            }
            dirty
        }

        fn occupancy(&self) -> usize {
            self.lines.iter().filter(|l| l.valid).count()
        }
    }

    /// Drives the dense cache and the line-array oracle with the same
    /// seeded op stream and requires identical answers after every op.
    fn differential(capacity_bytes: u64, ways: usize, line_size: u64, seed: u64) {
        use sim_core::rng::Stream;
        let mut dense = SetAssocCache::new(capacity_bytes, ways, line_size);
        let mut oracle = RefCache::new(capacity_bytes, ways, line_size);
        let mut rng = Stream::from_seed(seed);
        // Three lines per way slot: sets fill, evict and re-hit often.
        let lines = (capacity_bytes / line_size) * 3;
        let (mut dirty_evictions, mut dirty_remote_flushed) = (0, 0);
        for op in 0..100_000u64 {
            let addr = if rng.gen_bool(0.001) {
                // A far tag now and then: tags span the full address range.
                rng.next_u64()
            } else {
                rng.gen_range(0, lines) * line_size + rng.gen_range(0, line_size)
            };
            let ctx = format!("op {op} at {addr:#x}");
            match rng.gen_range(0, 1000) {
                0..=399 => {
                    let kind = if rng.gen_bool(0.4) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    assert_eq!(dense.probe(addr, kind), oracle.probe(addr, kind), "{ctx}");
                }
                400..=699 => {
                    let remote = rng.gen_bool(0.5);
                    let ev = dense.fill(addr, remote);
                    assert_eq!(ev, oracle.fill(addr, remote), "{ctx}");
                    dirty_evictions += usize::from(ev.is_some());
                }
                700..=849 => assert_eq!(dense.mark_dirty(addr), oracle.mark_dirty(addr), "{ctx}"),
                850..=994 => assert_eq!(dense.invalidate(addr), oracle.invalidate(addr), "{ctx}"),
                995..=998 => {
                    let flushed = dense.invalidate_remote();
                    assert_eq!(flushed, oracle.invalidate_remote(), "{ctx}");
                    dirty_remote_flushed += flushed.len();
                }
                _ => assert_eq!(dense.invalidate_all(), oracle.invalidate_all(), "{ctx}"),
            }
            assert_eq!(dense.occupancy(), oracle.occupancy(), "op {op}");
            assert_eq!(dense.hits(), oracle.hits, "op {op}");
            assert_eq!(dense.misses(), oracle.misses, "op {op}");
        }
        // The stream reached the paths the golden journals rarely do.
        assert!(dirty_evictions > 100, "{dirty_evictions} dirty evictions");
        assert!(dirty_remote_flushed > 10, "{dirty_remote_flushed} flushed");
    }

    #[test]
    fn dense_layout_matches_the_line_array_model() {
        differential(32 * 4 * 128, 4, 128, 1); // 32 sets x 4 ways
        differential(16 * 16 * 64, 16, 64, 2); // 16 sets x 16 ways
    }

    #[test]
    fn hit_rate_tracks_probes() {
        let mut c = cache();
        c.fill(0, false);
        c.probe(0, AccessKind::Read);
        c.probe(0x10000, AccessKind::Read);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }
}

//! The per-tile L1 instruction cache: 4-way set-associative with LRU
//! replacement (2 KiB per tile in the paper's configuration).

use std::fmt;

/// Error returned when cache geometry is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildCacheError {
    msg: String,
}

impl fmt::Display for BuildCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for BuildCacheError {}

/// Running hit/miss statistics of an [`ICache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u32,
    valid: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A read-only set-associative instruction cache (tags only — instruction
/// words are fetched from the program image; the cache models *timing*).
///
/// # Examples
///
/// ```
/// use mempool_mem::ICache;
///
/// // The paper's tile I-cache: 2 KiB, 4 ways, 32-byte lines.
/// let mut icache = ICache::new(2048, 4, 32)?;
/// assert!(!icache.probe(0x100));     // cold miss
/// icache.fill(0x100);
/// assert!(icache.probe(0x104));      // same line hits
/// # Ok::<(), mempool_mem::BuildCacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    /// `ways[set * ways_per_set + way]`.
    ways: Vec<Way>,
    ways_per_set: usize,
    line_bytes: u32,
    /// `log2(line_bytes)` and `log2(set count)`: both are validated powers
    /// of two, so a fetch locates its set and tag with shifts.
    line_shift: u32,
    set_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl ICache {
    /// Creates a cache of `size_bytes` with `ways` ways and `line_bytes`
    /// lines.
    ///
    /// # Errors
    ///
    /// Returns an error unless all parameters are nonzero, `line_bytes` is a
    /// power of two ≥ 4, and `size_bytes` divides evenly into
    /// `ways × line_bytes` power-of-two sets.
    pub fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Result<ICache, BuildCacheError> {
        let err = |msg: &str| BuildCacheError { msg: msg.into() };
        if ways == 0 || size_bytes == 0 {
            return Err(err("cache size and ways must be nonzero"));
        }
        if line_bytes < 4 || !line_bytes.is_power_of_two() {
            return Err(err("line size must be a power of two of at least 4 bytes"));
        }
        if !size_bytes.is_multiple_of(ways * line_bytes) {
            return Err(err("size must divide into ways × line size"));
        }
        let set_count = size_bytes / (ways * line_bytes);
        if !set_count.is_power_of_two() {
            return Err(err("set count must be a power of two"));
        }
        Ok(ICache {
            ways: vec![Way::default(); (ways * set_count) as usize],
            ways_per_set: ways as usize,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: set_count.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        })
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// The base address of the line containing `addr`.
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of the set holding `addr`, and the tag it carries there.
    #[inline]
    fn locate(&mut self, addr: u32) -> (&mut [Way], u32) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        let ways = self.ways_per_set;
        (&mut self.ways[set * ways..][..ways], tag)
    }

    /// Looks up `addr`; returns whether it hit and updates LRU + statistics.
    #[inline]
    pub fn probe(&mut self, addr: u32) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.locate(addr);
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Installs the line containing `addr`, evicting the LRU way. Filling
    /// a line that is already resident only refreshes its recency (no
    /// duplicate ways).
    pub fn fill(&mut self, addr: u32) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.locate(addr);
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("cache has at least one way");
        victim.tag = tag;
        victim.valid = true;
        victim.lru = tick;
    }

    /// Invalidates the whole cache (e.g. on `fence.i`).
    pub fn invalidate_all(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
    }

    /// The LRU tick counter (checkpointing).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Every way as `(tag, valid, lru)`, flattened set-major then way order
    /// (checkpointing).
    pub fn ways(&self) -> impl Iterator<Item = (u32, bool, u64)> + '_ {
        self.ways.iter().map(|w| (w.tag, w.valid, w.lru))
    }

    /// Restores the full cache state from [`ways`](ICache::ways)-shaped
    /// data plus the tick counter and statistics. The geometry is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the iterator's length disagrees with the way count.
    pub fn load(
        &mut self,
        ways: impl IntoIterator<Item = (u32, bool, u64)>,
        tick: u64,
        stats: CacheStats,
    ) {
        let mut it = ways.into_iter();
        for way in &mut self.ways {
            let (tag, valid, lru) = it.next().expect("too few ways in checkpoint");
            *way = Way { tag, valid, lru };
        }
        assert!(it.next().is_none(), "too many ways in checkpoint");
        self.tick = tick;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ICache {
        // 2 sets × 2 ways × 16-byte lines = 64 B.
        ICache::new(64, 2, 16).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(0));
        c.fill(0);
        assert!(c.probe(0));
        assert!(c.probe(12)); // same line
        assert!(!c.probe(16)); // next line
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line index even). Two ways.
        c.fill(0x00);
        c.fill(0x20);
        assert!(c.probe(0x00)); // touch line 0 -> line 0x20 becomes LRU
        c.fill(0x40); // evicts 0x20
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.fill(0x00); // set 0
        c.fill(0x10); // set 1
        assert!(c.probe(0x00));
        assert!(c.probe(0x10));
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = tiny();
        c.fill(0);
        c.invalidate_all();
        assert!(!c.probe(0));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.probe(0);
        c.fill(0);
        c.probe(0);
        c.probe(4);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The nested-`Vec` cache the flat layout replaced, kept as the
    /// reference: two divisions per lookup, one `Vec<Way>` per set.
    struct NestedCache {
        sets: Vec<Vec<Way>>,
        line_bytes: u32,
        set_count: u32,
        tick: u64,
        stats: CacheStats,
    }

    impl NestedCache {
        fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
            let set_count = size_bytes / (ways * line_bytes);
            NestedCache {
                sets: vec![vec![Way::default(); ways as usize]; set_count as usize],
                line_bytes,
                set_count,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn locate(&self, addr: u32) -> (usize, u32) {
            let line = addr / self.line_bytes;
            let set = (line & (self.set_count - 1)) as usize;
            let tag = line / self.set_count;
            (set, tag)
        }

        fn probe(&mut self, addr: u32) -> bool {
            self.tick += 1;
            let (set, tag) = self.locate(addr);
            for way in &mut self.sets[set] {
                if way.valid && way.tag == tag {
                    way.lru = self.tick;
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            false
        }

        fn fill(&mut self, addr: u32) {
            self.tick += 1;
            let (set, tag) = self.locate(addr);
            let tick = self.tick;
            if let Some(way) = self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
                way.lru = tick;
                return;
            }
            let victim = self.sets[set]
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
                .expect("cache has at least one way");
            victim.tag = tag;
            victim.valid = true;
            victim.lru = tick;
        }

        fn ways(&self) -> Vec<(u32, bool, u64)> {
            let ways = self.sets.iter().flatten();
            ways.map(|w| (w.tag, w.valid, w.lru)).collect()
        }
    }

    #[test]
    fn flat_layout_matches_the_nested_reference() {
        use mempool_rng::{Rng, SeedableRng, StdRng};
        // The paper's tile cache, a direct-mapped one, a three-way one and
        // a single fully-associative set.
        for (size, ways, line) in [(2048, 4, 32), (256, 1, 16), (3072, 3, 32), (64, 4, 16)] {
            let mut rng = StdRng::seed_from_u64(0x1cac4e ^ u64::from(size * ways));
            let mut flat = ICache::new(size, ways, line).unwrap();
            let mut nested = NestedCache::new(size, ways, line);
            for step in 0..20_000 {
                // A loop body a few times the cache size, with far jumps.
                let addr = match rng.gen_range(0u32..16) {
                    0 => rng.gen::<u32>() & !3,
                    _ => 0x8000_0000 + (rng.gen_range(0..size * 3) & !3),
                };
                let at = format!("{size}B {ways}-way {line}B lines, step {step}");
                match rng.gen_range(0u32..8) {
                    0..=5 => assert_eq!(flat.probe(addr), nested.probe(addr), "{at}"),
                    6 => {
                        flat.fill(addr);
                        nested.fill(addr);
                    }
                    _ => {
                        // A checkpoint round trip keeps the set-major order.
                        let (dump, tick, stats) = (nested.ways(), flat.tick(), flat.stats());
                        flat.load(dump, tick, stats);
                    }
                }
                assert_eq!(flat.stats(), nested.stats, "{at}");
            }
            assert_eq!(flat.ways().collect::<Vec<_>>(), nested.ways());
            assert_eq!(flat.tick(), nested.tick);
            assert!(flat.stats().hits > 1_000 && flat.stats().misses > 1_000);
        }
    }

    #[test]
    fn paper_geometry_accepted() {
        assert!(ICache::new(2048, 4, 32).is_ok());
        assert!(ICache::new(2048, 3, 32).is_err());
        assert!(ICache::new(100, 4, 32).is_err());
        assert!(ICache::new(2048, 4, 3).is_err());
    }
}

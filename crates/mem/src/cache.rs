//! Set-associative cache timing model (paper §V-A).
//!
//! MosaicSim is a timing simulator: caches hold tags only, no data. The
//! hierarchy is write-back, write-allocate, and fully inclusive; each cache
//! is independently configurable for size, line size, associativity, and
//! access latency.

/// Configuration of one cache instance.
///
/// Build with [`CacheConfig::new`] and refine with the `with_*` methods:
///
/// ```
/// use mosaic_mem::CacheConfig;
/// let l1 = CacheConfig::new("L1", 32 * 1024).with_ways(8).with_latency(1);
/// assert_eq!(l1.sets(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    name: String,
    size_bytes: u64,
    line_bytes: u32,
    ways: u32,
    latency: u64,
}

impl CacheConfig {
    /// A cache of `size_bytes` with 64-byte lines, 8 ways, 1-cycle latency.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(name: &str, size_bytes: u64) -> Self {
        assert!(size_bytes > 0, "cache size must be positive");
        CacheConfig {
            name: name.to_string(),
            size_bytes,
            line_bytes: 64,
            ways: 8,
            latency: 1,
        }
    }

    /// Sets the line size in bytes (must be a power of two).
    pub fn with_line_bytes(mut self, line: u32) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        self.line_bytes = line;
        self
    }

    /// Sets the associativity.
    pub fn with_ways(mut self, ways: u32) -> Self {
        assert!(ways > 0, "associativity must be positive");
        self.ways = ways;
        self
    }

    /// Sets the access latency in cycles.
    pub fn with_latency(mut self, latency: u64) -> Self {
        self.latency = latency;
        self
    }

    /// The cache's name (for stats reports).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes as u64 / self.ways as u64).max(1)
    }
}

/// Result of installing a line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FillOutcome {
    /// Evicted line address (line-aligned), if a valid line was displaced.
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (needs write-back, paper §V-A).
    pub evicted_dirty: bool,
}

/// Most ways a block of [`Cache::lines`] covers (64 KiB once it stores
/// them all).
const BLOCK_WAYS: usize = 4096;

/// Consecutive sets, storing their first `cap` ways each: per set, the
/// ways' keys, then their ages; after the last set, a dirty bit per
/// stored way (bit `set * cap + way`). A key is the way's tag plus one and an age
/// its `last_use`, both zero while the way is invalid, so a lookup is one
/// scan of eight bytes a stored way and the victim of a fill the first
/// least age. Every way from `cap` on is invalid, and no invalid way is
/// dirty.
#[derive(Debug, Clone)]
struct Block {
    sets: usize,
    cap: usize,
    words: Box<[u64]>,
}

impl Block {
    fn new(sets: usize, cap: usize) -> Self {
        let words = vec![0; sets * 2 * cap + (sets * cap).div_ceil(64)].into_boxed_slice();
        Block { sets, cap, words }
    }

    /// The keys and ages of set `s`'s stored ways.
    fn ways(&self, s: usize) -> (&[u64], &[u64]) {
        self.words[2 * self.cap * s..2 * self.cap * (s + 1)].split_at(self.cap)
    }

    fn ways_mut(&mut self, s: usize) -> (&mut [u64], &mut [u64]) {
        self.words[2 * self.cap * s..2 * self.cap * (s + 1)].split_at_mut(self.cap)
    }

    fn is_dirty(&self, s: usize, w: usize) -> bool {
        let i = s * self.cap + w;
        self.words[2 * self.cap * self.sets + i / 64] >> (i % 64) & 1 != 0
    }

    /// Sets the dirty bit of way `w` of set `s` to `dirty`, returning
    /// what it was.
    fn swap_dirty(&mut self, s: usize, w: usize, dirty: bool) -> bool {
        let i = s * self.cap + w;
        let word = &mut self.words[2 * self.cap * self.sets + i / 64];
        let was = *word >> (i % 64) & 1 != 0;
        *word ^= u64::from(was != dirty) << (i % 64);
        was
    }

    /// Doubles the ways stored per set, to at most `ways`.
    fn widen(&mut self, ways: usize) {
        let mut wider = Block::new(self.sets, (2 * self.cap).min(ways));
        for s in 0..self.sets {
            let ((keys, ages), (to_keys, to_ages)) = (self.ways(s), wider.ways_mut(s));
            to_keys[..self.cap].copy_from_slice(keys);
            to_ages[..self.cap].copy_from_slice(ages);
            for w in 0..self.cap {
                wider.swap_dirty(s, w, self.is_dirty(s, w));
            }
        }
        *self = wider;
    }
}

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    config: CacheConfig,
    /// Geometry, resolved once: a lookup shifts and masks where the
    /// configuration would have it divide.
    ways: usize,
    sets: u64,
    line_shift: u32,
    /// `log2(sets)` when the set count is a power of two (then the set is
    /// a mask of the line number and the tag a shift); a 2 560 KiB LLC has
    /// 2 048 × 20 / 16 sets and takes the dividing path.
    sets_log2: Option<u32>,
    /// `log2` of the sets per block of `lines`.
    block_shift: u32,
    /// The tag store, in blocks of whole sets — a power of two of them,
    /// covering at most [`BLOCK_WAYS`] ways — that exist from the first
    /// fill that lands in them. A block stores 2 ways a set at first and
    /// doubles that (up to `ways`) when a fill finds all of a set's stored
    /// ways valid, as that fill's victim is the first invalid way: a cache
    /// costs memory for the ways a run fills, not for its capacity. (Flat
    /// zeroed arrays are free only while the allocator maps them fresh; a
    /// recycled heap chunk is cleared in full, from one layout to the next.)
    lines: Vec<Option<Block>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    pub(crate) fn new(config: CacheConfig) -> Self {
        let (sets, ways) = (config.sets(), config.ways() as usize);
        // The largest power of two of sets that fits a block.
        let block_shift = (BLOCK_WAYS / ways).max(1).ilog2();
        Cache {
            ways,
            sets,
            line_shift: config.line_bytes().trailing_zeros(),
            sets_log2: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            block_shift,
            lines: vec![None; (sets as usize).div_ceil(1 << block_shift)],
            tick: 0,
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// Line-aligns an address.
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The set `addr` maps to and its tag.
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        match self.sets_log2 {
            Some(log2) => ((line & (self.sets - 1)) as usize, line >> log2),
            None => ((line % self.sets) as usize, line / self.sets),
        }
    }

    /// The line address of `tag` in `set`.
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets + set as u64) << self.line_shift
    }

    /// The block `set` falls in, and the set's index in it.
    fn block_of(&self, set: usize) -> (usize, usize) {
        (set >> self.block_shift, set & ((1 << self.block_shift) - 1))
    }

    /// The block holding `set`, created on first use, and the set's index.
    fn block_mut(&mut self, set: usize) -> (&mut Block, usize) {
        let (block, s) = self.block_of(set);
        let sets = (1 << self.block_shift).min(self.sets as usize - (block << self.block_shift));
        let cap = self.ways.min(2);
        (self.lines[block].get_or_insert_with(|| Block::new(sets, cap)), s)
    }

    /// Looks up `addr`: when the line is present, counts the access as a
    /// hit, updates LRU and (for writes) the dirty bit and returns `true`;
    /// when it is absent changes nothing — the caller decides whether the
    /// miss counts ([`Cache::count_miss`]) or the access is retried.
    pub(crate) fn touch(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let (block, s) = self.block_of(set);
        let Some(block) = self.lines[block].as_mut() else {
            return false;
        };
        let (keys, ages) = block.ways_mut(s);
        let Some(way) = way_of(keys, tag + 1) else {
            return false;
        };
        self.tick += 1;
        self.hits += 1;
        ages[way] = self.tick;
        if write {
            block.swap_dirty(s, way, true);
        }
        true
    }

    /// Counts an access as a miss, for a caller that has found the line
    /// absent with [`Cache::touch`].
    pub(crate) fn count_miss(&mut self) {
        self.tick += 1;
        self.misses += 1;
    }

    /// Checks for presence without perturbing LRU or counters.
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let (block, s) = self.block_of(set);
        let block = self.lines[block].as_ref();
        block.is_some_and(|block| way_of(block.ways(s).0, tag + 1).is_some())
    }

    /// Installs the line containing `addr`, evicting the LRU way if
    /// needed. `dirty` marks the installed line (write-allocate stores).
    pub(crate) fn fill(&mut self, addr: u64, dirty: bool) -> FillOutcome {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.ways);
        let (set, tag) = self.set_and_tag(addr);
        let (block, s) = self.block_mut(set);
        let (keys, ages) = block.ways_mut(s);
        // Already present (e.g. race between two fills): just update.
        if let Some(way) = way_of(keys, tag + 1) {
            ages[way] = tick;
            if dirty {
                block.swap_dirty(s, way, true);
            }
            return FillOutcome::default();
        }
        // The first invalid way (age zero), else the least recently used;
        // while the set has ways past the stored ones, the first of them.
        let mut victim = (0..ages.len()).min_by_key(|&w| ages[w]).unwrap_or_default();
        if ages[victim] != 0 && block.cap < ways {
            victim = block.cap;
            block.widen(ways);
        }
        let (keys, ages) = block.ways_mut(s);
        let evicted = keys[victim].checked_sub(1);
        (keys[victim], ages[victim]) = (tag + 1, tick);
        let evicted_dirty = block.swap_dirty(s, victim, dirty);
        FillOutcome {
            evicted: evicted.map(|tag| self.line_addr(set, tag)),
            evicted_dirty,
        }
    }

    /// Invalidates the line containing `addr` (back-invalidation keeps the
    /// hierarchy inclusive). Returns whether the line was present & dirty.
    pub(crate) fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let (block, s) = self.block_of(set);
        let Some(block) = self.lines[block].as_mut() else {
            return false;
        };
        let (keys, ages) = block.ways_mut(s);
        let Some(way) = way_of(keys, tag + 1) else {
            return false;
        };
        (keys[way], ages[way]) = (0, 0);
        block.swap_dirty(s, way, false)
    }

    /// Hit count.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Access count (hits + misses).
    pub(crate) fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when never accessed).
    #[cfg(test)]
    pub(crate) fn miss_ratio(&self) -> f64 {
        match self.accesses() {
            0 => 0.0,
            accesses => self.misses as f64 / accesses as f64,
        }
    }

    /// The valid ways in index order (`set * ways + way`), each with its
    /// key, age and dirty bit.
    fn valid_ways(&self) -> impl Iterator<Item = (usize, u64, u64, bool)> + '_ {
        let blocks = self.lines.iter().enumerate();
        let blocks = blocks.filter_map(|(b, block)| Some((b << self.block_shift, block.as_ref()?)));
        blocks.flat_map(move |(first, block)| {
            (0..block.sets).flat_map(move |s| {
                let (keys, ages) = block.ways(s);
                let at = (first + s) * self.ways;
                let valid = (0..block.cap).filter(move |&w| keys[w] != 0);
                valid.map(move |w| (at + w, keys[w], ages[w], block.is_dirty(s, w)))
            })
        })
    }
}

/// The way whose key is `key` (at most one is). Every way is compared and
/// the match selected, not branched on: which way hits is what a branch
/// predictor cannot know.
fn way_of(keys: &[u64], key: u64) -> Option<usize> {
    let mut way = usize::MAX;
    for (w, &k) in keys.iter().enumerate() {
        way = if k == key { w } else { way };
    }
    (way != usize::MAX).then_some(way)
}

/// Reads a bitmap of `nbits` bits, eight to a byte and the first in the
/// lowest bit, refusing set bits past its end.
fn decode_bits<'a>(
    d: &mut mosaic_ckpt::Dec<'a>,
    nbits: usize,
    what: &str,
) -> Result<&'a [u8], mosaic_ckpt::CkptError> {
    let bytes = d.raw(nbits.div_ceil(8), what)?;
    match bytes.last() {
        Some(&last) if !nbits.is_multiple_of(8) && last >> (nbits % 8) != 0 => Err(
            mosaic_ckpt::CkptError::corrupt(format!("{what}: bits set past bit {nbits}")),
        ),
        _ => Ok(bytes),
    }
}

/// The indices of the set bits of `bitmap`, ascending. Bytes without a
/// set bit cost one compare, so walking the valid ways of a mostly empty
/// cache is cheap.
fn set_bits(bitmap: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let bytes = bitmap.iter().enumerate().filter(|&(_, &byte)| byte != 0);
    bytes.flat_map(|(i, &byte)| (0..8).filter(move |k| byte >> k & 1 != 0).map(move |k| i * 8 + k))
}

mosaic_ckpt::snap_fields!(Cache: tick, hits, misses);

impl Cache {
    /// Serializes the counters and the valid ways: a validity bitmap over
    /// all ways, a dirty bitmap over the valid ones (as many as the first
    /// marks), then `(tag, last_use)` per valid way in index order. An
    /// untouched cache costs a bit per way and a full one two bits and 16
    /// bytes, so the record tracks what a run touched, not what was
    /// configured. The configuration is not written: a restored cache
    /// keeps the geometry it was rebuilt with, which the checkpoint's
    /// header fingerprints.
    pub(crate) fn encode_into(&self, e: &mut mosaic_ckpt::Enc) {
        self.put_fields(e);
        let mut valid = vec![0u8; (self.sets as usize * self.ways).div_ceil(8)];
        let mut dirty = Vec::new();
        for (k, (w, .., is_dirty)) in self.valid_ways().enumerate() {
            valid[w / 8] |= 1 << (w % 8);
            dirty.resize(k / 8 + 1, 0);
            dirty[k / 8] |= u8::from(is_dirty) << (k % 8);
        }
        e.raw(&valid);
        e.raw(&dirty);
        for (_, key, age, _) in self.valid_ways() {
            e.u64(key - 1);
            e.u64(age);
        }
    }

    /// Replaces the cache's contents and counters with a record written
    /// by [`Cache::encode_into`]; ways the record does not name become
    /// invalid, whatever the cache held before.
    pub(crate) fn restore_from(
        &mut self,
        d: &mut mosaic_ckpt::Dec<'_>,
    ) -> Result<(), mosaic_ckpt::CkptError> {
        self.get_fields(d)?;
        let valid = decode_bits(d, self.sets as usize * self.ways, "cache validity bitmap")?;
        let count = valid.iter().map(|b| b.count_ones() as usize).sum();
        let dirty = decode_bits(d, count, "cache dirty bitmap")?;
        // Whatever the cache held becomes invalid: no key, no age, clean.
        self.lines.iter_mut().flatten().for_each(|block| block.words.fill(0));
        let ways = self.ways;
        for (k, w) in set_bits(valid).enumerate() {
            let tag = d.u64("cache way tag")?;
            let last_use = d.u64("cache way last_use")?;
            if tag == u64::MAX {
                return Err(mosaic_ckpt::CkptError::corrupt(format!(
                    "cache {}: way {w} holds a tag no address has",
                    self.config.name()
                )));
            }
            let ((block, s), way) = (self.block_mut(w / ways), w % ways);
            while block.cap <= way {
                block.widen(ways);
            }
            let (keys, ages) = block.ways_mut(s);
            (keys[way], ages[way]) = (tag + 1, last_use);
            block.swap_dirty(s, way, dirty[k / 8] >> (k % 8) & 1 != 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::TestRng;

    /// An access as the hierarchy makes one: a hit, or a counted miss.
    fn access(c: &mut Cache, addr: u64, write: bool) -> bool {
        let hit = c.touch(addr, write);
        if !hit {
            c.count_miss();
        }
        hit
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig::new("t", 512).with_ways(2))
    }

    /// Every way the cache has, stored or not.
    fn all_ways(c: &Cache) -> usize {
        c.sets as usize * c.ways
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!access(&mut c, 0x1000, false));
        c.fill(0x1000, false);
        assert!(access(&mut c, 0x1000, false));
        assert!(access(&mut c, 0x1038, false)); // same line
        assert!(!access(&mut c, 0x1040, false)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (4 sets, 64B lines: stride 256).
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        // Touch 0x0000 so 0x0100 is LRU.
        access(&mut c, 0x0000, false);
        let out = c.fill(0x0200, false);
        assert_eq!(out.evicted, Some(0x0100));
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(0x0000, true);
        c.fill(0x0100, false);
        access(&mut c, 0x0100, false);
        let out = c.fill(0x0200, false);
        assert_eq!(out.evicted, Some(0x0000));
        assert!(out.evicted_dirty);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0x0000, false);
        access(&mut c, 0x0000, true);
        assert!(c.invalidate(0x0000)); // returns dirtiness
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x1000, false);
        assert!(c.probe(0x1000));
        c.invalidate(0x1000);
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny();
        access(&mut c, 0x0, false);
        c.fill(0x0, false);
        access(&mut c, 0x0, false);
        access(&mut c, 0x0, false);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
        assert!((c.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn line_blocks_exist_only_where_fills_landed() {
        // 20480 sets x 16 ways = 80 blocks of 4096 ways.
        let mut llc = Cache::new(CacheConfig::new("llc", 20 << 20).with_ways(16));
        assert_eq!(llc.lines.len(), 80);
        // Looking allocates nothing.
        assert!(!access(&mut llc, 0x1000, false));
        assert!(!llc.probe(0x1000) && !llc.invalidate(0x1000));
        assert!(llc.lines.iter().all(Option::is_none));
        // 256 consecutive lines are 256 consecutive sets: one block.
        for line in 0..256 {
            llc.fill(line * 64, false);
        }
        assert_eq!(llc.lines.iter().flatten().count(), 1);
        assert!(llc.probe(255 * 64));
        // A cache smaller than a block has one block of its own size.
        let mut small = tiny();
        small.fill(0, false);
        assert_eq!(small.lines.len(), 1);
        let block = small.lines[0].as_ref().expect("filled");
        assert_eq!((block.sets, block.cap, block.words.len()), (4, 2, 4 * 2 * 2 + 1));
    }

    #[test]
    fn blocks_store_the_ways_their_fullest_set_needs() {
        // The Table I LLC: 16 384 sets x 20 ways, 128 blocks of 128 sets.
        let mut llc = Cache::new(CacheConfig::new("llc", 20 << 20).with_ways(20));
        assert_eq!(llc.lines.len(), 128);
        // A line in every set: every block exists, storing 2 ways a set —
        // 32 bytes and 2 bits, where all 20 would be 320 bytes.
        for line in 0..16_384 {
            llc.fill(line * 64, line % 2 == 0);
        }
        let caps = |c: &Cache| -> Vec<usize> {
            c.lines.iter().map(|b| b.as_ref().map_or(0, |b| b.cap)).collect()
        };
        assert_eq!(caps(&llc), vec![2; 128]);
        assert_eq!(llc.lines[0].as_ref().map(|b| b.words.len()), Some(128 * 4 + 4));
        // Filling set 0's 20 ways widens its block alone, 2 to 4, 8, 16
        // and 20; the 21st line evicts the least recently used, the first.
        for tag in 1..20 {
            assert_eq!(llc.fill(tag * 16_384 * 64, false).evicted, None);
        }
        assert_eq!(caps(&llc)[0], 20);
        assert!(caps(&llc)[1..].iter().all(|&cap| cap == 2));
        let out = llc.fill(20 * 16_384 * 64, false);
        assert_eq!((out.evicted, out.evicted_dirty), (Some(0), true));
        // The rest of the block kept what it held.
        assert!((1..128).all(|line| llc.probe(line * 64)));
        assert_eq!(llc.valid_ways().filter(|&(.., dirty)| dirty).count(), 8192 - 1);
    }

    fn encoded(c: &Cache) -> Vec<u8> {
        let mut e = mosaic_ckpt::Enc::new();
        c.encode_into(&mut e);
        e.into_bytes()
    }

    fn restore(c: &mut Cache, bytes: &[u8]) -> Result<(), mosaic_ckpt::CkptError> {
        let mut d = mosaic_ckpt::Dec::new(bytes);
        c.restore_from(&mut d)?;
        assert!(d.is_exhausted(), "record has trailing bytes");
        Ok(())
    }

    /// Bytes of the version-2 record: counters and geometry, then 18 per
    /// way whether valid or not.
    fn dense_record_bytes(c: &Cache) -> usize {
        40 + 18 * all_ways(c)
    }

    /// Fills every way of `c`, keeps evicting and dirtying, then
    /// invalidates some lines, so validity, dirty bits and ages all vary by
    /// way.
    fn churn(c: &mut Cache) {
        let lines = 3 * all_ways(c) as u64;
        for i in 0..lines {
            let addr = (i * 7 % lines) * 64;
            if !access(c, addr, i % 3 == 0) {
                c.fill(addr, i % 5 == 0);
            }
        }
        for line in (0..lines).step_by(5) {
            c.invalidate(line * 64);
        }
    }

    #[test]
    fn record_holds_valid_ways_only() {
        // 512 sets x 8 ways.
        let config = CacheConfig::new("c", 256 * 1024);
        let untouched = Cache::new(config.clone());
        assert!(encoded(&untouched).len() * 100 < dense_record_bytes(&untouched));

        // Full, the sparse record is still the smaller, down to a cache of
        // a few ways.
        for mut full in [Cache::new(config), tiny()] {
            for line in 0..all_ways(&full) as u64 {
                full.fill(line * 64, line % 2 == 0);
            }
            assert_eq!(full.valid_ways().count(), all_ways(&full));
            assert!(encoded(&full).len() <= dense_record_bytes(&full));
        }
    }

    #[test]
    fn restore_reproduces_a_churned_cache_whatever_the_target_held() {
        let mut c = Cache::new(CacheConfig::new("c", 4096).with_ways(4));
        churn(&mut c);
        assert!(c.valid_ways().any(|(.., dirty)| dirty));
        assert!(c.valid_ways().count() < all_ways(&c));
        let bytes = encoded(&c);

        let mut fresh = Cache::new(c.config.clone());
        restore(&mut fresh, &bytes).unwrap();
        // A target that has run on holds valid ways the record does not
        // name; they must not survive the restore.
        let mut used = c.clone();
        for line in 0..64 {
            used.fill(0x10_0000 + line * 64, true);
        }
        restore(&mut used, &bytes).unwrap();

        for back in [&mut fresh, &mut used] {
            assert_eq!(encoded(back), bytes);
            // From here on they behave as the original does.
            let mut orig = c.clone();
            for i in 0..200u64 {
                let addr = (i * 13 % 97) * 64;
                assert_eq!(access(back, addr, false), access(&mut orig, addr, false));
                assert_eq!(back.fill(addr, i % 2 == 0), orig.fill(addr, i % 2 == 0));
            }
            assert_eq!(encoded(back), encoded(&orig));
        }
    }

    #[test]
    fn corrupt_records_are_typed_errors() {
        use mosaic_ckpt::CkptError;
        let mut c = tiny();
        c.fill(0x0000, true);
        c.fill(0x0040, false);
        let good = encoded(&c);
        // Layout: 3 counters, validity bitmap (8 ways: one byte) at 24,
        // dirty bitmap at 25, records from 26.
        assert_eq!(good.len(), 26 + 2 * 16);
        let mut target = tiny();
        restore(&mut target, &good).unwrap();

        let with = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        // A valid bit without a record: the records run short.
        let err = restore(&mut target, &with(24, good[24] | 0x80)).unwrap_err();
        assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
        // A dirty bit for a way past the last valid one.
        let err = restore(&mut target, &with(25, 0x04)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        // Another cache's geometry (twice the sets) reads a bitmap that no
        // longer lines up: a typed error, never a panic. That it is another
        // system is the checkpoint header's verdict, not the record's.
        let mut other = Cache::new(CacheConfig::new("t", 1024).with_ways(2));
        let err = restore(&mut other, &good).unwrap_err();
        assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
        // Cut anywhere, the record is truncated, never a panic.
        for cut in 0..good.len() {
            let err = target
                .restore_from(&mut mosaic_ckpt::Dec::new(&good[..cut]))
                .unwrap_err();
            assert!(matches!(err, CkptError::Truncated { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn config_validation() {
        let cfg = CacheConfig::new("x", 2 * 1024 * 1024)
            .with_ways(8)
            .with_line_bytes(64)
            .with_latency(6);
        assert_eq!(cfg.sets(), 4096);
        assert_eq!(cfg.latency(), 6);
    }

    const VALID: u8 = 1;
    const DIRTY: u8 = 2;

    /// Packs `bits` eight to a byte, the first in the lowest bit.
    fn pack_bits(bits: impl Iterator<Item = bool>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (n, bit) in bits.enumerate() {
            if n % 8 == 0 {
                bytes.push(0);
            }
            bytes[n / 8] |= u8::from(bit) << (n % 8);
        }
        bytes
    }

    /// A dense cache, the definition the blocks are held to: every way of
    /// every set stored, `VALID | DIRTY` per way, the set and tag of a
    /// (64-byte) line by division, the victim the first invalid way or
    /// else the least recently used, and the record written from the
    /// state bytes.
    #[derive(Clone)]
    struct DenseModel {
        sets: u64,
        ways: usize,
        tags: Vec<u64>,
        ages: Vec<u64>,
        state: Vec<u8>,
        counters: [u64; 3],
    }

    impl DenseModel {
        fn new(config: &CacheConfig) -> Self {
            let all = config.sets() as usize * config.ways() as usize;
            DenseModel {
                sets: config.sets(),
                ways: config.ways() as usize,
                tags: vec![0; all],
                ages: vec![0; all],
                state: vec![0; all],
                counters: [0; 3],
            }
        }

        /// Counts an access: a tick, and a hit or a miss.
        fn count(&mut self, hit: bool) -> u64 {
            self.counters[0] += 1;
            self.counters[if hit { 1 } else { 2 }] += 1;
            self.counters[0]
        }

        /// The way indices of `addr`'s set, and its tag.
        fn set_of(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
            let line = addr / 64;
            let first = (line % self.sets) as usize * self.ways;
            (first..first + self.ways, line / self.sets)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (mut ways, tag) = self.set_of(addr);
            ways.find(|&w| self.state[w] & VALID != 0 && self.tags[w] == tag)
        }

        fn touch(&mut self, addr: u64, write: bool) -> bool {
            let Some(w) = self.find(addr) else {
                return false;
            };
            self.ages[w] = self.count(true);
            self.state[w] |= if write { DIRTY } else { 0 };
            true
        }

        fn fill(&mut self, addr: u64, dirty: bool) -> FillOutcome {
            self.counters[0] += 1;
            let tick = self.counters[0];
            let mut out = FillOutcome {
                evicted: None,
                evicted_dirty: false,
            };
            if let Some(w) = self.find(addr) {
                self.ages[w] = tick;
                self.state[w] |= if dirty { DIRTY } else { 0 };
                return out;
            }
            let (ways, tag) = self.set_of(addr);
            let invalid = ways.clone().find(|&w| self.state[w] & VALID == 0);
            let victim = invalid.unwrap_or_else(|| ways.min_by_key(|&w| self.ages[w]).unwrap());
            if self.state[victim] & VALID != 0 {
                let set = (victim / self.ways) as u64;
                out.evicted = Some((self.tags[victim] * self.sets + set) * 64);
                out.evicted_dirty = self.state[victim] & DIRTY != 0;
            }
            (self.tags[victim], self.ages[victim]) = (tag, tick);
            self.state[victim] = VALID | if dirty { DIRTY } else { 0 };
            out
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let Some(w) = self.find(addr) else {
                return false;
            };
            self.state[w] &= !VALID;
            self.state[w] & DIRTY != 0
        }

        fn encoded(&self) -> Vec<u8> {
            let mut e = mosaic_ckpt::Enc::new();
            self.counters.iter().for_each(|&counter| e.u64(counter));
            let valid = pack_bits(self.state.iter().map(|st| st & VALID != 0));
            e.raw(&valid);
            e.raw(&pack_bits(set_bits(&valid).map(|w| self.state[w] & DIRTY != 0)));
            for w in set_bits(&valid) {
                e.u64(self.tags[w]);
                e.u64(self.ages[w]);
            }
            e.into_bytes()
        }
    }

    /// One random operation on `c` and on `model`, their results compared:
    /// `hot` percent of them on a few sets' `2 × ways + 2` lines (so sets
    /// fill, evict and widen their blocks), the rest scattered over three
    /// times the lines the cache holds.
    fn random_op(r: &mut TestRng, c: &mut Cache, model: &mut DenseModel, hot: u64) {
        let (sets, ways) = (model.sets, model.ways as u64);
        let line = if r.below(100) < hot {
            r.below(2 * ways + 2) * sets + r.below(sets.min(4))
        } else {
            r.below(3 * sets * ways)
        };
        let (addr, write, dirty) = (line * 64 + r.below(64), r.below(3) == 0, r.below(2) == 0);
        match r.below(10) {
            0..=5 => {
                let hit = c.touch(addr, write);
                assert_eq!(hit, model.touch(addr, write), "touch {addr:#x}");
                // A miss the caller counts and fills, or (a fourth of the
                // time) retries later.
                if !hit && r.below(4) != 0 {
                    c.count_miss();
                    model.count(false);
                    assert_eq!(c.fill(addr, dirty), model.fill(addr, dirty), "fill {addr:#x}");
                }
            }
            6 => assert_eq!(c.fill(addr, dirty), model.fill(addr, dirty), "fill {addr:#x}"),
            7 => assert_eq!(c.invalidate(addr), model.invalidate(addr), "invalidate {addr:#x}"),
            _ => assert_eq!(c.probe(addr), model.find(addr).is_some(), "probe {addr:#x}"),
        }
    }

    /// Random geometries — 1 to 32 ways, 20 among them; power-of-two set
    /// counts and others, which take the dividing path, among them a
    /// 2 560 KiB 16-way LLC — driven by random streams of every operation
    /// over hot and scattered lines: the blocks return what the dense
    /// model returns, every `FillOutcome` included, and write its record
    /// after every batch. A record restored into a fresh cache, and into
    /// one whose blocks store other numbers of ways, carries on as the
    /// model does.
    #[test]
    fn blocks_behave_as_the_dense_model() {
        let mut r = TestRng(51);
        for case in 0..40u64 {
            let ways = if case % 3 == 0 { 20 } else { 1 + r.below(32) };
            let mut sets = match case % 4 {
                0 => 3 << r.below(8),
                1 => 5 << r.below(6),
                _ => 1 << r.below(14),
            };
            while sets * ways > 1 << 15 {
                sets = (sets / 2).max(1);
            }
            let config = match case {
                0 => CacheConfig::new("llc", 2560 << 10).with_ways(16),
                _ => CacheConfig::new("c", sets * ways * 64).with_ways(ways as u32),
            };
            let (mut c, mut model) = (Cache::new(config.clone()), DenseModel::new(&config));
            for batch in 0..8 {
                let hot = r.below(101);
                for _ in 0..300 {
                    random_op(&mut r, &mut c, &mut model, hot);
                }
                assert_eq!(encoded(&c), model.encoded(), "case {case} batch {batch}");
            }
            let bytes = encoded(&c);
            let mut other = Cache::new(config.clone());
            let mut other_model = DenseModel::new(&config);
            let hot = r.below(101);
            for _ in 0..600 {
                random_op(&mut r, &mut other, &mut other_model, hot);
            }
            for mut back in [Cache::new(config.clone()), other] {
                restore(&mut back, &bytes).unwrap();
                assert_eq!(encoded(&back), bytes, "case {case} restored");
                let (mut model, hot) = (model.clone(), r.below(101));
                for _ in 0..300 {
                    random_op(&mut r, &mut back, &mut model, hot);
                }
                assert_eq!(encoded(&back), model.encoded(), "case {case} after restore");
            }
        }
    }
}

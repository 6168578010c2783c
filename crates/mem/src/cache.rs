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
    pub fn name(&self) -> &str {
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

/// Way state bits (see [`Cache::state`]).
const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// Result of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Evicted line address (line-aligned), if a valid line was displaced.
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (needs write-back, paper §V-A).
    pub evicted_dirty: bool,
}

/// Most ways a lazily allocated block of [`Cache::lines`] holds (64 KiB).
const BLOCK_WAYS: usize = 4096;

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
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
    /// `VALID | DIRTY` per way, set-major (`set * ways + way`).
    state: Vec<u8>,
    /// Tag and age of the ways, in blocks of whole sets — a power of two
    /// of them, at most [`BLOCK_WAYS`] ways — that exist from the first
    /// fill that lands in them, so a cache holds memory for the sets a
    /// run reaches and building one costs next to nothing. (Flat zeroed
    /// arrays do the same only while the allocator maps them fresh: once
    /// it recycles a heap chunk for one it clears all of it, and a 20 MiB
    /// LLC is 5 MiB resident for a run that touches a few KiB — or not,
    /// from one heap layout to the next.)
    ///
    /// A set is its ways' keys, then their ages. A key is the way's tag
    /// plus one, zero while the way is invalid, so a lookup is one scan of
    /// eight bytes a way; an age is the way's `last_use`, zero while it is
    /// invalid, so the victim of a fill is the first least age.
    lines: Vec<Option<Box<[u64]>>>,
    tick: u64,
    hits: u64,
    misses: u64,
    accesses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let (sets, ways) = (config.sets(), config.ways() as usize);
        // The largest power of two of sets that fits a block.
        let block_shift = (BLOCK_WAYS / ways).max(1).ilog2();
        Cache {
            ways,
            sets,
            line_shift: config.line_bytes().trailing_zeros(),
            sets_log2: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            block_shift,
            state: vec![0; sets as usize * ways],
            lines: vec![None; (sets as usize).div_ceil(1 << block_shift)],
            tick: 0,
            hits: 0,
            misses: 0,
            accesses: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligns an address.
    pub fn line_of(&self, addr: u64) -> u64 {
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

    /// The block holding `set`, and the set's words in it.
    fn block_of(&self, set: usize) -> (usize, std::ops::Range<usize>) {
        let block = set >> self.block_shift;
        let at = (set - (block << self.block_shift)) * 2 * self.ways;
        (block, at..at + 2 * self.ways)
    }

    /// The keys of `set`'s ways, `None` while no fill has reached the
    /// set's block (none of its ways is valid then).
    fn keys(&self, set: usize) -> Option<&[u64]> {
        let (block, words) = self.block_of(set);
        Some(&self.lines[block].as_deref()?[words][..self.ways])
    }

    /// The keys and ages of `set`'s ways, allocating their block on
    /// first use.
    fn ways_mut(&mut self, set: usize) -> (&mut [u64], &mut [u64]) {
        let (block, words) = self.block_of(set);
        let sets = (1 << self.block_shift).min(self.sets as usize - (block << self.block_shift));
        let len = sets * 2 * self.ways;
        let lines = self.lines[block].get_or_insert_with(|| vec![0; len].into_boxed_slice());
        lines[words].split_at_mut(self.ways)
    }

    /// The way of `set` holding `tag`, if any.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        way_of(self.keys(set)?, tag + 1)
    }

    /// Looks up `addr`: when the line is present, counts the access as a
    /// hit, updates LRU and (for writes) the dirty bit and returns `true`;
    /// when it is absent changes nothing — the caller decides whether the
    /// miss counts ([`Cache::count_miss`]) or the access is retried.
    pub fn touch(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let (block, words) = self.block_of(set);
        let Some(lines) = self.lines[block].as_deref_mut() else {
            return false;
        };
        let (keys, ages) = lines[words].split_at_mut(self.ways);
        let Some(way) = way_of(keys, tag + 1) else {
            return false;
        };
        self.tick += 1;
        self.accesses += 1;
        self.hits += 1;
        ages[way] = self.tick;
        if write {
            self.state[set * self.ways + way] |= DIRTY;
        }
        true
    }

    /// Counts an access as a miss, for a caller that has found the line
    /// absent with [`Cache::touch`].
    pub fn count_miss(&mut self) {
        self.tick += 1;
        self.accesses += 1;
        self.misses += 1;
    }

    /// Checks for presence without perturbing LRU or counters.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Installs the line containing `addr`, evicting the LRU way if
    /// needed. `dirty` marks the installed line (write-allocate stores).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> FillOutcome {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let first = set * self.ways;
        let mut outcome = FillOutcome {
            evicted: None,
            evicted_dirty: false,
        };
        // Already present (e.g. race between two fills): just update.
        if let Some(way) = self.find(set, tag) {
            self.state[first + way] |= if dirty { DIRTY } else { 0 };
            self.ways_mut(set).1[way] = tick;
            return outcome;
        }
        // The first invalid way (age zero), else the least recently used.
        let (keys, ages) = self.ways_mut(set);
        let victim = (0..ages.len())
            .min_by_key(|&w| ages[w])
            .expect("cache has at least one way");
        let evicted = keys[victim].checked_sub(1);
        (keys[victim], ages[victim]) = (tag + 1, tick);
        if let Some(tag) = evicted {
            outcome = FillOutcome {
                evicted: Some(self.line_addr(set, tag)),
                evicted_dirty: self.state[first + victim] & DIRTY != 0,
            };
        }
        self.state[first + victim] = VALID | if dirty { DIRTY } else { 0 };
        outcome
    }

    /// Invalidates the line containing `addr` (back-invalidation keeps the
    /// hierarchy inclusive). Returns whether the line was present & dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.find(set, tag) {
            Some(way) => {
                let (keys, ages) = self.ways_mut(set);
                (keys[way], ages[way]) = (0, 0);
                let state = &mut self.state[set * self.ways + way];
                *state &= !VALID;
                *state & DIRTY != 0
            }
            None => false,
        }
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Access count (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Miss ratio in `[0, 1]` (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Zeroes the hit/miss/access counters, keeping cache contents.
    /// Used between sweep rows that reuse a hierarchy so one row's
    /// traffic never leaks into the next row's report.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.accesses = 0;
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

/// Packs `bits` eight to a byte, the first in the lowest bit.
fn pack_bits(bits: impl Iterator<Item = bool>) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.size_hint().0.div_ceil(8));
    let (mut byte, mut n) = (0u8, 0usize);
    for bit in bits {
        byte |= u8::from(bit) << (n % 8);
        n += 1;
        if n % 8 == 0 {
            bytes.push(std::mem::take(&mut byte));
        }
    }
    if n % 8 != 0 {
        bytes.push(byte);
    }
    bytes
}

/// Reads a bitmap of `nbits` bits packed by [`pack_bits`], refusing
/// set bits past its end.
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

fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] >> (i % 8) & 1 != 0
}

/// The indices of the set bits of `bitmap`, ascending. Bytes without a
/// set bit cost one compare, so walking the valid ways of a mostly empty
/// cache is cheap.
fn set_bits(bitmap: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let bytes = bitmap.iter().enumerate().filter(|&(_, &byte)| byte != 0);
    bytes.flat_map(|(i, &byte)| (0..8).filter(move |k| byte >> k & 1 != 0).map(move |k| i * 8 + k))
}

mosaic_ckpt::snap_fields!(Cache: tick, hits, misses, accesses);

impl Cache {
    /// Serializes the counters and the valid ways: geometry, the number
    /// of valid ways, a validity bitmap over all ways, a dirty bitmap
    /// over the valid ones, then `(tag, last_use)` per valid way in index
    /// order. An untouched cache costs a bit per way and a full one two
    /// bits and 16 bytes, so the record tracks what a run touched, not
    /// what was configured. The configuration is not written — a restored
    /// cache keeps the geometry it was rebuilt with, and
    /// [`Cache::restore_from`] verifies it matches.
    pub(crate) fn encode_into(&self, e: &mut mosaic_ckpt::Enc) {
        self.put_fields(e);
        e.u32(self.config.sets() as u32);
        e.u32(self.config.ways());
        let valid = pack_bits(self.state.iter().map(|st| st & VALID != 0));
        e.u32(valid.iter().map(|byte| byte.count_ones()).sum());
        e.raw(&valid);
        e.raw(&pack_bits(set_bits(&valid).map(|w| self.state[w] & DIRTY != 0)));
        for w in set_bits(&valid) {
            let (set, way) = (w / self.ways, w % self.ways);
            let (block, words) = self.block_of(set);
            let words = &self.lines[block]
                .as_deref()
                .expect("a valid way's block exists")[words];
            e.u64(words[way] - 1);
            e.u64(words[self.ways + way]);
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
        let sets = u64::from(d.u32("cache set count")?);
        let ways = d.u32("cache way count")?;
        if sets != self.config.sets() || ways != self.config.ways() {
            return Err(mosaic_ckpt::CkptError::mismatch(format!(
                "cache {}: checkpoint geometry {sets}x{ways} differs from configured {}x{}",
                self.config.name(),
                self.config.sets(),
                self.config.ways(),
            )));
        }
        let count = d.u32("cache valid-way count")? as usize;
        let valid = decode_bits(d, self.state.len(), "cache validity bitmap")?;
        let marked: usize = valid.iter().map(|b| b.count_ones() as usize).sum();
        if marked != count {
            return Err(mosaic_ckpt::CkptError::corrupt(format!(
                "cache {}: validity bitmap marks {marked} ways, record holds {count}",
                self.config.name()
            )));
        }
        let dirty = decode_bits(d, count, "cache dirty bitmap")?;
        // Whatever the cache held becomes invalid: no key, no age.
        self.state.fill(0);
        self.lines
            .iter_mut()
            .flatten()
            .for_each(|block| block.fill(0));
        for (k, w) in set_bits(valid).enumerate() {
            let tag = d.u64("cache way tag")?;
            let last_use = d.u64("cache way last_use")?;
            if tag == u64::MAX {
                return Err(mosaic_ckpt::CkptError::corrupt(format!(
                    "cache {}: way {w} holds a tag no address has",
                    self.config.name()
                )));
            }
            let (set, way) = (w / self.ways, w % self.ways);
            let (keys, ages) = self.ways_mut(set);
            (keys[way], ages[way]) = (tag + 1, last_use);
            self.state[w] = VALID | if bit(dirty, k) { DIRTY } else { 0 };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            small.lines[0].as_ref().map(|block| block.len()),
            Some(2 * 8)
        );
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
        40 + 18 * c.state.len()
    }

    /// Fills every way of `c`, keeps evicting and dirtying, then
    /// invalidates some lines, so validity, dirty bits and ages all vary by
    /// way.
    fn churn(c: &mut Cache) {
        let lines = 3 * c.state.len() as u64;
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
            for line in 0..full.state.len() as u64 {
                full.fill(line * 64, line % 2 == 0);
            }
            assert!(full.state.iter().all(|st| st & VALID != 0));
            assert!(encoded(&full).len() <= dense_record_bytes(&full));
        }
    }

    #[test]
    fn restore_reproduces_a_churned_cache_whatever_the_target_held() {
        let mut c = Cache::new(CacheConfig::new("c", 4096).with_ways(4));
        churn(&mut c);
        assert!(c.state.contains(&(VALID | DIRTY)));
        assert!(c.state.iter().any(|&st| st & VALID == 0));
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
        // Layout: 4 counters, sets, ways, count at 40, validity bitmap
        // (8 ways: one byte) at 44, dirty bitmap at 45, records from 46.
        assert_eq!(good.len(), 46 + 2 * 16);
        let mut target = tiny();
        restore(&mut target, &good).unwrap();

        let with = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        // A valid bit without a record.
        let err = restore(&mut target, &with(44, good[44] | 0x80)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        // A record count that is not the bitmap's population.
        let err = restore(&mut target, &with(40, 3)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        // More valid ways than the cache has.
        let err = restore(&mut target, &with(40, 9)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        // A dirty bit for a way past the last valid one.
        let err = restore(&mut target, &with(45, 0x04)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        // Another cache's geometry.
        let err = restore(&mut target, &with(36, 4)).unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
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
}

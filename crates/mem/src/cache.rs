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

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// Result of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Evicted line address (line-aligned), if a valid line was displaced.
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (needs write-back, paper §V-A).
    pub evicted_dirty: bool,
}

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// The ways, set-major (`set * ways + way`), as parallel arrays of
    /// plain integers: `vec![0; n]` asks the allocator for zeroed memory,
    /// which for arrays this size comes untouched from the OS — building
    /// a cache costs no time and no resident memory for the sets a run
    /// never reaches.
    tags: Vec<u64>,
    last_use: Vec<u64>,
    /// `VALID | DIRTY` per way.
    state: Vec<u8>,
    tick: u64,
    hits: u64,
    misses: u64,
    accesses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.sets() as usize * config.ways() as usize;
        Cache {
            config,
            tags: vec![0; ways],
            last_use: vec![0; ways],
            state: vec![0; ways],
            tick: 0,
            hits: 0,
            misses: 0,
            accesses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligns an address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    /// The set `addr` maps to, as its range of way indices, and its tag.
    fn set_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.config.sets()) as usize;
        let tag = line / self.config.sets();
        let ways = self.config.ways() as usize;
        (set * ways..(set + 1) * ways, tag)
    }

    /// The way of `set` holding `tag`, if any.
    fn find(&self, set: std::ops::Range<usize>, tag: u64) -> Option<usize> {
        set.into_iter()
            .find(|&w| self.state[w] & VALID != 0 && self.tags[w] == tag)
    }

    /// Looks up `addr`; on hit updates LRU and (for writes) the dirty bit.
    pub fn access(&mut self, addr: u64, write: bool) -> LookupResult {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        if let Some(w) = self.find(set, tag) {
            self.last_use[w] = self.tick;
            if write {
                self.state[w] |= DIRTY;
            }
            self.hits += 1;
            return LookupResult::Hit;
        }
        self.misses += 1;
        LookupResult::Miss
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
        let (set, tag) = self.set_and_tag(addr);
        let mut outcome = FillOutcome {
            evicted: None,
            evicted_dirty: false,
        };
        // Already present (e.g. race between two fills): just update.
        if let Some(w) = self.find(set.clone(), tag) {
            self.state[w] |= if dirty { DIRTY } else { 0 };
            self.last_use[w] = self.tick;
            return outcome;
        }
        let first = set.start;
        let age = |w: &usize| if self.state[*w] & VALID != 0 { self.last_use[*w] } else { 0 };
        let victim = set.min_by_key(age).expect("cache has at least one way");
        if self.state[victim] & VALID != 0 {
            let set_index = (first / self.config.ways() as usize) as u64;
            let line_index = self.tags[victim] * self.config.sets() + set_index;
            outcome = FillOutcome {
                evicted: Some(line_index * self.config.line_bytes as u64),
                evicted_dirty: self.state[victim] & DIRTY != 0,
            };
        }
        self.tags[victim] = tag;
        self.state[victim] = VALID | if dirty { DIRTY } else { 0 };
        self.last_use[victim] = self.tick;
        outcome
    }

    /// Invalidates the line containing `addr` (back-invalidation keeps the
    /// hierarchy inclusive). Returns whether the line was present & dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.find(set, tag) {
            Some(w) => {
                self.state[w] &= !VALID;
                self.state[w] & DIRTY != 0
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

impl Cache {
    /// Serializes tag-array contents and counters. The configuration is
    /// not written — a restored cache keeps the geometry it was rebuilt
    /// with, and [`Cache::restore_from`] verifies it matches.
    pub(crate) fn encode_into(&self, e: &mut mosaic_ckpt::Enc) {
        e.u64(self.tick);
        e.u64(self.hits);
        e.u64(self.misses);
        e.u64(self.accesses);
        e.u32(self.config.sets() as u32);
        e.u32(self.config.ways());
        for w in 0..self.tags.len() {
            e.u64(self.tags[w]);
            e.bool(self.state[w] & VALID != 0);
            e.bool(self.state[w] & DIRTY != 0);
            e.u64(self.last_use[w]);
        }
    }

    pub(crate) fn restore_from(
        &mut self,
        d: &mut mosaic_ckpt::Dec<'_>,
    ) -> Result<(), mosaic_ckpt::CkptError> {
        self.tick = d.u64("cache tick")?;
        self.hits = d.u64("cache hits")?;
        self.misses = d.u64("cache misses")?;
        self.accesses = d.u64("cache accesses")?;
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
        for w in 0..self.tags.len() {
            self.tags[w] = d.u64("cache way tag")?;
            let valid = d.bool("cache way valid")?;
            let dirty = d.bool("cache way dirty")?;
            self.state[w] = if valid { VALID } else { 0 } | if dirty { DIRTY } else { 0 };
            self.last_use[w] = d.u64("cache way last_use")?;
        }
        Ok(())
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig::new("t", 512).with_ways(2))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), LookupResult::Miss);
        c.fill(0x1000, false);
        assert_eq!(c.access(0x1000, false), LookupResult::Hit);
        assert_eq!(c.access(0x1038, false), LookupResult::Hit); // same line
        assert_eq!(c.access(0x1040, false), LookupResult::Miss); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (4 sets, 64B lines: stride 256).
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        // Touch 0x0000 so 0x0100 is LRU.
        c.access(0x0000, false);
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
        c.access(0x0100, false);
        let out = c.fill(0x0200, false);
        assert_eq!(out.evicted, Some(0x0000));
        assert!(out.evicted_dirty);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0x0000, false);
        c.access(0x0000, true);
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
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
        assert!((c.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
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

//! The composed memory hierarchy (paper §V).
//!
//! Per-tile private L1 (and optional private L2) caches in front of a
//! shared, inclusive LLC, backed by either [`SimpleDram`] or the banked
//! DRAM model. Each core tile "maintains a cache queue ordered with respect
//! to the cache hierarchy": requests enter at L1 and are forwarded on
//! misses; the LLC forwards to DRAM. MSHRs coalesce same-line requests at
//! every level; dirty evictions write back; LLC evictions back-invalidate
//! the private caches to preserve inclusion; a stream prefetcher watches
//! the demand stream at L1.
//!
//! Atomic read-modify-writes bypass the private caches and serialize at
//! the shared LLC — the paper notes atomics are "difficult to accurately
//! model" (§VI-A); this policy reproduces their limited scaling.
//!
//! The request path is indexed by the ids and cycles themselves
//! (DESIGN.md §4.2.2): in-flight requests in a ring by `ReqId`, scheduled
//! events in a timing wheel by cycle, MSHRs in small tables by line, and
//! scratch buffers the hierarchy refills — so a request hashes nothing,
//! sifts no heap and, once the buffers have grown, allocates nothing.

use mosaic_ckpt::{snap_enum, snap_record, CkptError, Dec, Enc, Snap};
use mosaic_obs::{Category, Log2Histogram, ObsLevel, SpanName, StatsRegistry, Timeline};

use crate::banked::{BankedDram, BankedDramConfig};
use crate::cache::{Cache, CacheConfig};
use crate::mshr::{Mshr, MshrOutcome};
use crate::prefetch::{PrefetchConfig, StreamPrefetcher};
use crate::req::{AccessKind, Completion, MemReq, ReqId};
use crate::ring::IdRing;
use crate::simple_dram::{SimpleDram, SimpleDramConfig};
use crate::wheel::Wheel;

/// Which DRAM model backs the LLC (paper §V-B offers both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DramKind {
    /// SimpleDRAM: min latency + epoch bandwidth (default).
    Simple(SimpleDramConfig),
    /// Banked model with row-buffer timing (DRAMSim2 substitute).
    Banked(BankedDramConfig),
}

impl Default for DramKind {
    fn default() -> Self {
        DramKind::Simple(SimpleDramConfig::default())
    }
}

/// Mesh NoC between tiles and the shared level (paper §V-A: "ports can
/// be added to the abstract tile model to create a message module in
/// order to model NoCs"). Tiles sit on a `mesh_width`-wide grid; the
/// shared LLC sits at the mesh center; each Manhattan hop costs
/// `hop_latency` cycles, paid in both directions of every shared-level
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Tiles per mesh row.
    pub mesh_width: u32,
    /// Cycles per hop.
    pub hop_latency: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            mesh_width: 4,
            hop_latency: 2,
        }
    }
}

impl NocConfig {
    /// Manhattan hop count from tile `tile` to the shared level (mesh
    /// center), at least 1.
    pub fn hops(&self, tile: usize) -> u64 {
        let w = self.mesh_width.max(1) as i64;
        let x = tile as i64 % w;
        let y = tile as i64 / w;
        let (cx, cy) = (w / 2, w / 2);
        ((x - cx).abs() + (y - cy).abs()).max(1) as u64
    }

    /// One-way latency from `tile` to the shared level.
    pub(crate) fn latency(&self, tile: usize) -> u64 {
        self.hops(tile) * self.hop_latency
    }
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Private L1 per tile.
    pub l1: CacheConfig,
    /// Optional private L2 per tile.
    pub l2: Option<CacheConfig>,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// MSHR entries per cache instance.
    pub mshr_entries: usize,
    /// Stream prefetcher configuration (observes L1 demand misses).
    pub prefetch: PrefetchConfig,
    /// DRAM model.
    pub dram: DramKind,
    /// Extra cycles an atomic pays for interconnect + serialization.
    pub atomic_penalty: u64,
    /// Optional mesh NoC between private caches and the shared level
    /// (`None` = ideal interconnect, the paper's default abstraction).
    pub noc: Option<NocConfig>,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new("L1", 32 * 1024).with_ways(8).with_latency(1),
            l2: Some(CacheConfig::new("L2", 2 * 1024 * 1024).with_ways(8).with_latency(6)),
            llc: CacheConfig::new("LLC", 20 * 1024 * 1024)
                .with_ways(20)
                .with_latency(20),
            mshr_entries: 16,
            prefetch: PrefetchConfig::default(),
            dram: DramKind::default(),
            atomic_penalty: 20,
            noc: None,
        }
    }
}

snap_enum! {
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Level {
        L1 = 0,
        L2 = 1,
        Llc = 2,
    }
}

impl Level {
    /// The levels top down: the order of [`MemoryHierarchy::levels`].
    const ALL: [Level; 3] = [Level::L1, Level::L2, Level::Llc];

    /// The level's segment of a `mem.*` registry path.
    fn name(self) -> &'static str {
        ["l1", "l2", "llc"][self as usize]
    }

    /// Whether one instance serves every tile (instance 0), not one each.
    fn shared(self) -> bool {
        self == Level::Llc
    }
}

/// One level of the hierarchy: a cache and an MSHR file per tile at a
/// private level (none at an L2 that is not configured), one of each at
/// the shared level.
#[derive(Debug, Default)]
struct CacheLevel {
    caches: Vec<Cache>,
    mshrs: Vec<Mshr>,
    /// MSHR occupancy at every lookup (sampled at `ObsLevel::Stats` and
    /// above).
    occupancy: Log2Histogram,
}

impl CacheLevel {
    fn new(config: &CacheConfig, instances: usize, mshr_entries: usize) -> Self {
        CacheLevel {
            caches: (0..instances).map(|_| Cache::new(config.clone())).collect(),
            mshrs: (0..instances).map(|_| Mshr::new(mshr_entries)).collect(),
            occupancy: Log2Histogram::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Lookup { id: ReqId, level: Level },
    DramEnqueue { id: ReqId },
}

impl Snap for Event {
    fn put(&self, e: &mut Enc) {
        match *self {
            Event::Lookup { id, level } => (0u8, id, level).put(e),
            Event::DramEnqueue { id } => (1u8, id).put(e),
        }
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        match d.u8(what)? {
            0 => Snap::get(d, what).map(|(id, level)| Event::Lookup { id, level }),
            1 => Snap::get(d, what).map(|id| Event::DramEnqueue { id }),
            v => Err(CkptError::corrupt(format!("{what}: event tag {v}"))),
        }
    }
}

/// The DRAM model behind the LLC. Both models have the methods below; the
/// hierarchy calls them here and the model is matched once per call, so
/// the per-cycle `step` is a direct call into the configured one.
#[derive(Debug)]
enum Dram {
    Simple(SimpleDram),
    Banked(BankedDram),
}

/// `$call` on whichever model `$dram` holds, bound to `$d`.
macro_rules! on_model {
    ($dram:expr, $d:ident => $call:expr) => {
        match $dram {
            Dram::Simple($d) => $call,
            Dram::Banked($d) => $call,
        }
    };
}

impl Dram {
    /// Hands a line request to the model; `false` when it has no room and
    /// the caller retries next cycle.
    fn try_enqueue(&mut self, id: ReqId, line: u64, now: u64) -> bool {
        on_model!(self, d => d.try_enqueue(id, line, now))
    }

    #[inline]
    fn step(&mut self, now: u64, done: &mut Vec<ReqId>) {
        on_model!(self, d => d.step(now, done))
    }

    fn next_event_cycle(&self, now: u64) -> Option<u64> {
        on_model!(self, d => d.next_event_cycle(now))
    }

    fn is_idle(&self) -> bool {
        on_model!(self, d => d.is_idle())
    }

    /// The model's `mem.dram.*` counters.
    fn register_into(&self, reg: &mut StatsRegistry) {
        on_model!(self, d => d.register_into(reg))
    }

    fn throttled_cycles(&self) -> u64 {
        on_model!(self, d => d.throttled_cycles())
    }

}

snap_record! {
    #[derive(Debug, Clone, Copy)]
    struct ReqState {
        /// The issuing tile.
        tile: u32,
        line: u64,
        kind: AccessKind,
        writeback: bool,
        /// When the request was issued and when it entered DRAM service (0
        /// until it does): the starts of its timeline spans.
        issued_at: u64,
        dram_at: u64,
    }
}

snap_record! {
    /// Aggregate hierarchy statistics for reports and the energy model.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MemStats {
        /// L1 hits (all tiles).
        pub l1_hits: u64,
        /// L1 misses (unique lines).
        pub l1_misses: u64,
        /// L2 hits.
        pub l2_hits: u64,
        /// L2 misses.
        pub l2_misses: u64,
        /// LLC hits.
        pub llc_hits: u64,
        /// LLC misses.
        pub llc_misses: u64,
        /// Lines read from DRAM.
        pub dram_reads: u64,
        /// Lines written back to DRAM.
        pub dram_writebacks: u64,
        /// Atomic operations processed.
        pub atomics: u64,
        /// Prefetch requests issued into the hierarchy.
        pub prefetches: u64,
    }
}

impl MemStats {
    /// The hit and miss counters of `level`.
    fn at_level(&mut self, level: Level) -> (&mut u64, &mut u64) {
        match level {
            Level::L1 => (&mut self.l1_hits, &mut self.l1_misses),
            Level::L2 => (&mut self.l2_hits, &mut self.l2_misses),
            Level::Llc => (&mut self.llc_hits, &mut self.llc_misses),
        }
    }
}

/// Errors produced by the memory hierarchy for malformed requests.
///
/// Internal invariants (event bookkeeping, MSHR state) still assert; this
/// type covers only conditions reachable from bad *input*, so the
/// simulation core can surface them as recoverable failures instead of
/// aborting a whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A request named a tile with no private-cache slot.
    UnknownTile {
        /// The tile index the request carried.
        tile: usize,
        /// How many tiles the hierarchy was built for.
        tiles: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::UnknownTile { tile, tiles } => write!(
                f,
                "memory request names tile {tile} but the hierarchy serves {tiles} tiles"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// The composed memory system.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    /// L1, L2 and the LLC, indexed by [`Level`].
    levels: [CacheLevel; 3],
    prefetchers: Vec<StreamPrefetcher>,
    dram: Dram,
    /// Scheduled lookups and DRAM enqueues, by cycle.
    events: Wheel<Event>,
    next_id: u64,
    /// In-flight requests, by id.
    reqs: IdRing<ReqState>,
    completions: Vec<Completion>,
    /// Scratch the request path refills instead of allocating: what the
    /// prefetcher fired, what DRAM completed this step, the waiters of a
    /// filled LLC line, and the requests a fill completes.
    fired: Vec<u64>,
    dram_done: Vec<ReqId>,
    llc_waiters: Vec<ReqId>,
    to_complete: Vec<ReqId>,
    stats: MemStats,
    atomic_free_at: u64,
    obs: ObsLevel,
    timeline: Timeline,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `tiles` tiles.
    pub fn new(config: HierarchyConfig, tiles: usize) -> Self {
        let dram = match config.dram {
            DramKind::Simple(c) => Dram::Simple(SimpleDram::new(c)),
            DramKind::Banked(c) => Dram::Banked(BankedDram::new(c, config.llc.line_bytes())),
        };
        // The longest delay `schedule` is asked for: a level's latency,
        // the trip to the shared level, an uncontended atomic.
        let noc = config
            .noc
            .map_or(0, |n| (0..tiles).map(|t| n.latency(t)).max().unwrap_or(0));
        let l2_latency = config.l2.as_ref().map_or(0, CacheConfig::latency);
        let shared = noc + config.atomic_penalty + config.llc.latency();
        let max_delay = config.l1.latency().max(l2_latency).max(shared).max(1);
        let private = |c: &CacheConfig| CacheLevel::new(c, tiles, config.mshr_entries);
        MemoryHierarchy {
            levels: [
                private(&config.l1),
                config.l2.as_ref().map(private).unwrap_or_default(),
                CacheLevel::new(&config.llc, 1, config.mshr_entries.max(tiles * 4)),
            ],
            prefetchers: (0..tiles)
                .map(|_| StreamPrefetcher::new(config.prefetch, config.l1.line_bytes()))
                .collect(),
            dram,
            events: Wheel::new(max_delay),
            next_id: 0,
            reqs: IdRing::new(),
            completions: Vec::new(),
            fired: Vec::new(),
            dram_done: Vec::new(),
            llc_waiters: Vec::new(),
            to_complete: Vec::new(),
            stats: MemStats::default(),
            atomic_free_at: 0,
            obs: ObsLevel::Off,
            timeline: Timeline::new(),
            config,
        }
    }

    /// Sets the observability level. At [`ObsLevel::Off`] (the
    /// default) no sample or span is ever recorded; at
    /// [`ObsLevel::Stats`] MSHR occupancy histograms are sampled; at
    /// [`ObsLevel::Trace`] request-lifetime and DRAM-service spans are
    /// additionally recorded into the timeline.
    pub fn set_observe(&mut self, level: ObsLevel) {
        self.obs = level;
    }

    /// Takes the recorded timeline (empty below [`ObsLevel::Trace`], also
    /// when a snapshot taken at `Trace` restored spans into it).
    pub fn take_timeline(&mut self) -> Timeline {
        if !self.obs.trace_on() {
            return Timeline::new();
        }
        let mut t = std::mem::take(&mut self.timeline);
        if !t.is_empty() {
            t.process_name(1, "memory");
            for tile in 0..self.tile_count() {
                t.thread_name(1, tile as u32, format!("mem reqs tile {tile}"));
            }
            t.thread_name(1, self.tile_count() as u32, "dram");
        }
        t
    }

    /// Registers every counter of the hierarchy into `reg` under
    /// stable `mem.*` paths: aggregate `mem.<level>.{hits,misses}`,
    /// per-instance `mem.<level>.<tile>.*`, MSHR
    /// `mem.<level>.mshr.{coalesced,full_stalls,occupancy}`, and
    /// `mem.dram.*` (including row-buffer stats for the banked model).
    pub fn register_into(&self, reg: &mut StatsRegistry) {
        let s = &self.stats;
        reg.set_counter("mem.l1.hits", s.l1_hits);
        reg.set_counter("mem.l1.misses", s.l1_misses);
        reg.set_counter("mem.l2.hits", s.l2_hits);
        reg.set_counter("mem.l2.misses", s.l2_misses);
        reg.set_counter("mem.llc.hits", s.llc_hits);
        reg.set_counter("mem.llc.misses", s.llc_misses);
        reg.set_counter("mem.dram.reads", s.dram_reads);
        reg.set_counter("mem.dram.writebacks", s.dram_writebacks);
        reg.set_counter("mem.atomics", s.atomics);
        reg.set_counter("mem.prefetches", s.prefetches);
        for (level, lv) in Level::ALL.into_iter().zip(&self.levels) {
            let at = format!("mem.{}", level.name());
            if level.shared() {
                reg.set_counter(&format!("{at}.accesses"), lv.caches[0].accesses());
            } else {
                for (i, c) in lv.caches.iter().enumerate() {
                    reg.set_counter(&format!("{at}.{i}.hits"), c.hits());
                    reg.set_counter(&format!("{at}.{i}.misses"), c.misses());
                    reg.set_counter(&format!("{at}.{i}.accesses"), c.accesses());
                }
            }
            // An L2 that is not configured has no MSHR rows.
            if !lv.mshrs.is_empty() {
                let sum = |f: fn(&Mshr) -> u64| lv.mshrs.iter().map(f).sum::<u64>();
                reg.set_counter(&format!("{at}.mshr.coalesced"), sum(Mshr::coalesced_count));
                reg.set_counter(&format!("{at}.mshr.full_stalls"), sum(Mshr::full_stall_count));
            }
            if lv.occupancy.count() > 0 {
                reg.set_histogram(&format!("{at}.mshr.occupancy"), lv.occupancy.clone());
            }
        }
        self.dram.register_into(reg);
    }

    /// Number of tiles served.
    pub(crate) fn tile_count(&self) -> usize {
        self.levels[Level::L1 as usize].caches.len()
    }

    /// One-way NoC latency between `tile` and the shared level.
    fn noc_delay(&self, tile: usize) -> u64 {
        self.config.noc.map(|n| n.latency(tile)).unwrap_or(0)
    }

    /// Adds a request under the next id.
    fn admit(&mut self, st: ReqState) -> ReqId {
        let id = self.next_id;
        self.next_id += 1;
        self.reqs.insert(id, st);
        ReqId(id)
    }

    /// Issues a request at `now`; the completion arrives via
    /// [`drain_completions_into`](Self::drain_completions_into) some cycles later.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownTile`] if `req.tile` has no
    /// private-cache slot (the hierarchy was built for fewer tiles).
    pub fn request(&mut self, req: MemReq, now: u64) -> Result<ReqId, MemError> {
        if req.tile >= self.tile_count() {
            return Err(MemError::UnknownTile {
                tile: req.tile,
                tiles: self.tile_count(),
            });
        }
        Ok(self.request_valid(req, now))
    }

    /// [`request`](Self::request) after tile validation — also the
    /// prefetcher's re-entry point (prefetches inherit a known-good tile).
    fn request_valid(&mut self, req: MemReq, now: u64) -> ReqId {
        let id = self.admit(ReqState {
            tile: req.tile as u32,
            line: self.levels[Level::L1 as usize].caches[req.tile].line_of(req.addr),
            kind: req.kind,
            writeback: false,
            issued_at: now,
            dram_at: 0,
        });
        let (at, level) = match req.kind {
            AccessKind::Atomic => {
                self.stats.atomics += 1;
                // Bypass private caches; atomics serialize at the shared
                // level (one in service at a time system-wide) and pay
                // interconnect + serialization before the lookup — the
                // mechanism behind BFS's imperfect scaling (paper §VI-A).
                let start = now + self.noc_delay(req.tile);
                let start = start.max(self.atomic_free_at);
                self.atomic_free_at = start + self.config.atomic_penalty;
                (self.atomic_free_at + self.config.llc.latency(), Level::Llc)
            }
            _ => {
                if req.kind == AccessKind::Prefetch {
                    self.stats.prefetches += 1;
                } else {
                    // The prefetcher watches the demand stream.
                    self.prefetchers[req.tile].observe(req.addr, &mut self.fired);
                    if !self.fired.is_empty() {
                        self.prefetch_fired(req.tile, now);
                    }
                }
                (now + self.config.l1.latency(), Level::L1)
            }
        };
        self.events.schedule(now, at, Event::Lookup { id, level });
        id
    }

    /// Issues the prefetches in `self.fired` for `tile`.
    fn prefetch_fired(&mut self, tile: usize, now: u64) {
        let fired = std::mem::take(&mut self.fired);
        for &addr in &fired {
            // Only issue if not already resident in L1.
            if !self.levels[Level::L1 as usize].caches[tile].probe(addr) {
                let kind = AccessKind::Prefetch;
                self.request_valid(MemReq { tile, addr, size: 0, kind }, now);
            }
        }
        self.fired = fired;
    }

    fn complete(&mut self, id: ReqId, now: u64) {
        if let Some(st) = self.reqs.remove(id.0) {
            if st.kind.wants_completion() && !st.writeback {
                if self.obs.trace_on() {
                    self.timeline.span(
                        1,
                        st.tile,
                        Category::Mem,
                        SpanName::MemLine {
                            kind: kind_label(st.kind),
                            line: st.line,
                        },
                        st.issued_at,
                        now,
                    );
                }
                self.completions.push(Completion {
                    id,
                    tile: st.tile as usize,
                    at_cycle: now,
                });
            }
        }
    }

    /// Fills `line` into tile-private caches (write-allocate).
    fn fill_private(&mut self, tile: usize, line: u64, dirty: bool) {
        let [l1, l2, llc] = &mut self.levels;
        let (l1, llc) = (&mut l1.caches[tile], &mut llc.caches[0]);
        let mut l2 = l2.caches.get_mut(tile);
        if let Some(l2) = &mut l2 {
            let out = l2.fill(line, dirty);
            if let Some(victim) = out.evicted {
                if out.evicted_dirty {
                    // Write back into the LLC (mark dirty there).
                    llc.touch(victim, true);
                }
                // Inclusion within the private pair.
                l1.invalidate(victim);
            }
        }
        let out = l1.fill(line, dirty);
        if let Some(victim) = out.evicted {
            if out.evicted_dirty && !l2.is_some_and(|l2| l2.touch(victim, true)) {
                llc.touch(victim, true);
            }
        }
    }

    /// Fills `line` into the LLC, back-invalidating private copies of any
    /// evicted victim (inclusive hierarchy) and writing dirty victims to
    /// DRAM.
    fn fill_llc(&mut self, line: u64, dirty: bool, now: u64) {
        let [l1, l2, llc] = &mut self.levels;
        let out = llc.caches[0].fill(line, dirty);
        if let Some(victim) = out.evicted {
            let mut victim_dirty = out.evicted_dirty;
            for c in l1.caches.iter_mut().chain(&mut l2.caches) {
                victim_dirty |= c.invalidate(victim);
            }
            if victim_dirty {
                self.writeback_to_dram(victim, now);
            }
        }
    }

    fn writeback_to_dram(&mut self, line: u64, now: u64) {
        self.stats.dram_writebacks += 1;
        let id = self.admit(ReqState {
            tile: 0,
            line,
            kind: AccessKind::Write,
            writeback: true,
            issued_at: now,
            dram_at: 0,
        });
        self.events.schedule(now, now, Event::DramEnqueue { id });
    }

    /// A request arrives at `level`. A hit is one lookup that also touches
    /// the line, and what it does is the level's own: L1 completes the
    /// request, L2 and the LLC fill the levels above and complete what
    /// waits there, an atomic returns from the LLC. A miss joins the line's
    /// MSHR entry or takes a new one, and only the request that takes one
    /// counts the miss and goes on to what lies [`below`](Self::below).
    fn lookup(&mut self, id: ReqId, level: Level, now: u64) {
        let Some(st) = self.reqs.get(id.0).copied() else {
            return;
        };
        let (tile, write) = (st.tile as usize, st.kind.is_write());
        let lv = &mut self.levels[level as usize];
        let at = if level.shared() { 0 } else { tile };
        if self.obs.stats_on() {
            // Lookup cycles are identical under fast-forward and naive
            // stepping, so these histograms are bit-identical too.
            lv.occupancy.record(lv.mshrs[at].occupancy() as u64);
        }
        let (hits, misses) = self.stats.at_level(level);
        if lv.caches[at].touch(st.line, write) {
            *hits += 1;
            let back = now + if level.shared() { self.noc_delay(tile) } else { 0 };
            // Nothing lies above L1, and an atomic came past the private
            // levels on its way down.
            if level == Level::L1 || st.kind == AccessKind::Atomic {
                self.complete(id, back);
            } else {
                self.fill_upward_and_complete(st.line, tile, write, level, back);
            }
            return;
        }
        let (when, event) = match lv.mshrs[at].track(st.line, id) {
            MshrOutcome::Allocated => {
                lv.caches[at].count_miss();
                *misses += 1;
                self.below(level, tile, id, now)
            }
            MshrOutcome::Coalesced => return,
            MshrOutcome::Full => (now + 1, Event::Lookup { id, level }),
        };
        self.events.schedule(now, when, event);
    }

    /// What a miss at `level` schedules, and when: the lookup a level down
    /// after that level's latency (and the trip to it, if it is the shared
    /// one), or the DRAM enqueue at once.
    fn below(&self, level: Level, tile: usize, id: ReqId, now: u64) -> (u64, Event) {
        let (delay, level) = match (level, &self.config.l2) {
            (Level::Llc, _) => return (now, Event::DramEnqueue { id }),
            (Level::L1, Some(l2)) => (l2.latency(), Level::L2),
            _ => (self.config.llc.latency() + self.noc_delay(tile), Level::Llc),
        };
        (now + delay, Event::Lookup { id, level })
    }

    /// After a hit at `from` (or a DRAM fill), installs the line in the
    /// upper private levels for the requesting tile and completes every
    /// request waiting on the line at or above that level.
    fn fill_upward_and_complete(
        &mut self,
        line: u64,
        tile: usize,
        dirty: bool,
        from: Level,
        now: u64,
    ) {
        let mut waiters = std::mem::take(&mut self.to_complete);
        if from == Level::Llc {
            if let Some(l2) = self.levels[Level::L2 as usize].mshrs.get_mut(tile) {
                l2.complete(line, &mut waiters);
            }
        }
        self.fill_private(tile, line, dirty);
        self.levels[Level::L1 as usize].mshrs[tile].complete(line, &mut waiters);
        waiters.sort_unstable();
        waiters.dedup();
        for &w in &waiters {
            self.complete(w, now);
        }
        waiters.clear();
        self.to_complete = waiters;
    }

    fn dram_enqueue(&mut self, id: ReqId, now: u64) {
        let Some(st) = self.reqs.get_mut(id.0) else {
            return;
        };
        // A refused enqueue comes back next cycle and overwrites this.
        st.dram_at = now;
        let (line, writeback) = (st.line, st.writeback);
        if !self.dram.try_enqueue(id, line, now) {
            self.events
                .schedule(now, now + 1, Event::DramEnqueue { id });
            return;
        }
        // Writebacks consume bandwidth but nobody waits on them.
        if !writeback {
            self.stats.dram_reads += 1;
        }
    }

    fn dram_complete(&mut self, id: ReqId, now: u64) {
        let Some(st) = self.reqs.get(id.0).copied() else {
            return;
        };
        if self.obs.trace_on() {
            let lane = self.tile_count() as u32;
            self.timeline
                .span(1, lane, Category::Dram, SpanName::DramLine(st.line), st.dram_at, now);
        }
        if st.writeback {
            self.reqs.remove(id.0);
            return;
        }
        let dirty = st.kind.is_write();
        self.fill_llc(st.line, dirty, now);
        let mut waiters = std::mem::take(&mut self.llc_waiters);
        self.levels[Level::Llc as usize].mshrs[0].complete(st.line, &mut waiters);
        for (k, &w) in waiters.iter().enumerate() {
            // A request waits once; skip a repeated id.
            if waiters[..k].contains(&w) {
                continue;
            }
            let Some(wst) = self.reqs.get(w.0).copied() else {
                continue;
            };
            let tile = wst.tile as usize;
            let back = now + self.noc_delay(tile);
            if wst.kind != AccessKind::Atomic {
                self.fill_upward_and_complete(st.line, tile, wst.kind.is_write(), Level::Llc, back);
            }
            // `fill_upward_and_complete` completes the waiters of the
            // private MSHRs; the LLC-level waiter itself may not be one.
            self.complete(w, back);
        }
        waiters.clear();
        self.llc_waiters = waiters;
    }

    /// Advances the hierarchy to cycle `now`. Call once per global cycle,
    /// or only at the cycles [`Self::next_event_cycle`] names: with nothing
    /// due — no event scheduled at or before `now`, no DRAM transfer ready
    /// — a step is a handful of compares (and, for SimpleDRAM, the epoch
    /// bookkeeping a snapshot records). `now` never decreases.
    #[inline]
    pub fn step(&mut self, now: u64) {
        // DRAM first so fills scheduled this cycle are visible.
        self.dram.step(now, &mut self.dram_done);
        if !self.dram_done.is_empty() || self.events.due() <= now {
            self.step_due(now);
        }
    }

    /// The rest of a step that has DRAM completions or events to handle.
    fn step_due(&mut self, now: u64) {
        let mut done = std::mem::take(&mut self.dram_done);
        for id in done.drain(..) {
            self.dram_complete(id, now);
        }
        self.dram_done = done;
        while let Some(ev) = self.events.pop_due(now) {
            match ev {
                Event::Lookup { id, level } => self.lookup(id, level, now),
                Event::DramEnqueue { id } => self.dram_enqueue(id, now),
            }
        }
        self.events.advance(now);
    }

    /// Moves all completions produced so far into `buf` (cleared first);
    /// a caller that polls every cycle reuses one buffer.
    #[inline]
    pub fn drain_completions_into(&mut self, buf: &mut Vec<Completion>) {
        buf.clear();
        if !self.completions.is_empty() {
            buf.append(&mut self.completions);
        }
    }

    /// Earliest cycle `>= now` at which the hierarchy has internal work:
    /// a scheduled cache/NoC event, a DRAM completion or bank issue
    /// opportunity, or an undelivered completion. `None` when fully idle
    /// (then only new requests can create work). Used by the Interleaver's
    /// fast-forward scheduler; stepping the hierarchy at cycles strictly
    /// before the returned cycle is guaranteed to be a no-op.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if !self.completions.is_empty() {
            return Some(now);
        }
        let dram = self.dram.next_event_cycle(now).unwrap_or(u64::MAX);
        let earliest = dram.min(self.events.due());
        (earliest != u64::MAX).then(|| earliest.max(now))
    }

    /// Whether no requests are outstanding anywhere.
    pub fn is_idle(&self) -> bool {
        self.events.len() == 0
            && self.dram.is_idle()
            && self.completions.is_empty()
            && self.reqs.is_empty()
    }

    /// Requests accepted but not yet delivered back to their tiles.
    pub fn in_flight(&self) -> usize {
        self.reqs.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cycles the SimpleDRAM bandwidth cap throttled ready requests
    /// (0 for the banked model).
    pub fn dram_throttled_cycles(&self) -> u64 {
        self.dram.throttled_cycles()
    }
}

impl MemoryHierarchy {
    /// Serializes every piece of dynamic state — cache arrays, MSHRs,
    /// prefetcher tables, DRAM queues, scheduled events, in-flight
    /// request states, undelivered completions, counters, and
    /// observability artifacts. The configuration and observability
    /// level are not written; a restored hierarchy keeps whatever it was
    /// rebuilt with (the checkpoint's header fingerprints it).
    pub fn save_state(&self, e: &mut Enc) {
        // Caches level by level, then MSHRs.
        for c in self.levels.iter().flat_map(|lv| &lv.caches) {
            c.encode_into(e);
        }
        for m in self.levels.iter().flat_map(|lv| &lv.mshrs) {
            m.encode_into(e);
        }
        for p in &self.prefetchers {
            p.encode_into(e);
        }
        on_model!(&self.dram, dram => dram.encode_into(e));

        // Events in firing order and requests in id order: the order the
        // wheel and the ring hold them in.
        let mut events = Vec::with_capacity(self.events.len());
        self.events.for_each(|cycle, seq, ev| events.push((cycle, seq, *ev)));
        e.seq::<(u64, u64, Event)>(&events);
        e.u64(self.events.seq);
        e.u64(self.next_id);
        e.seq::<(u64, ReqState)>(self.reqs.iter().map(|(id, st)| (id, *st)));
        e.seq::<Completion>(&self.completions);
        self.stats.put(e);
        e.u64(self.atomic_free_at);

        self.timeline.put(e);
        for lv in &self.levels {
            lv.occupancy.put(e);
        }
    }

    /// Restores the state written by [`MemoryHierarchy::save_state`] into
    /// a hierarchy rebuilt from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`mosaic_ckpt::CkptError`] when the data is truncated or
    /// corrupt. A hierarchy of another configuration reads the record as
    /// one of its own, and fails only where it does not fit: the header's
    /// fingerprint, checked before any section, is what refuses it.
    pub fn restore_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let tiles = self.tile_count();
        for c in self.levels.iter_mut().flat_map(|lv| &mut lv.caches) {
            c.restore_from(d)?;
        }
        for m in self.levels.iter_mut().flat_map(|lv| &mut lv.mshrs) {
            m.restore_from(d)?;
        }
        for p in &mut self.prefetchers {
            p.restore_from(d)?;
        }
        on_model!(&mut self.dram, dram => dram.restore_from(d))?;

        self.events.clear();
        d.seq::<(u64, u64, Event)>("hierarchy events", |(cycle, seq, ev)| {
            self.events.insert(cycle, seq, ev);
            Ok(())
        })?;
        self.events.seq = d.u64("hierarchy seq")?;
        self.next_id = d.u64("hierarchy next_id")?;

        self.reqs.clear();
        let mut live_ids: Option<(u64, u64)> = None;
        d.seq::<(u64, ReqState)>("in-flight requests", |(id, state)| {
            // Live ids ascend below `next_id`, and sit within a ring's
            // reach of the oldest: the slots between them are allocated.
            let first = live_ids.map_or(id, |(first, _)| first);
            let ascends = live_ids.is_none_or(|(_, last)| last < id);
            live_ids = Some((first, id));
            if !ascends || id >= self.next_id || id - first > MAX_LIVE_ID_SPAN {
                return Err(CkptError::corrupt(format!(
                    "in-flight request id {id} out of order or range (oldest {first}, next {})",
                    self.next_id
                )));
            }
            if state.tile as usize >= tiles {
                return Err(CkptError::corrupt(format!(
                    "in-flight request {id} names tile {} of {tiles}",
                    state.tile
                )));
            }
            self.reqs.insert(id, state);
            Ok(())
        })?;
        // The next request joins the ring too (an empty one re-bases).
        if let Some((first, _)) = live_ids.filter(|l| self.next_id - l.0 > MAX_LIVE_ID_SPAN) {
            return Err(CkptError::corrupt(format!(
                "next request id {} out of range of the oldest in flight, {first}",
                self.next_id
            )));
        }

        self.completions.clear();
        d.seq_into::<Completion>("undelivered completions", &mut self.completions)?;
        self.stats = Snap::get(d, "hierarchy stats")?;
        self.atomic_free_at = d.u64("hierarchy atomic_free_at")?;

        self.timeline = Snap::get(d, "hierarchy timeline")?;
        for lv in &mut self.levels {
            lv.occupancy = Snap::get(d, "level occupancy")?;
        }
        Ok(())
    }
}

/// Furthest a snapshot's youngest in-flight request id, and the id its next
/// request gets, may lie from its oldest. A run keeps them within a few
/// hundred of each other; the bound only stops a corrupt record from sizing
/// the ring.
const MAX_LIVE_ID_SPAN: u64 = 1 << 20;

/// Short stable label for timeline span names.
fn kind_label(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "ld",
        AccessKind::Write => "st",
        AccessKind::Atomic => "atomic",
        AccessKind::Prefetch => "prefetch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier(tiles: usize) -> MemoryHierarchy {
        let config = HierarchyConfig {
            l1: CacheConfig::new("L1", 1024).with_ways(2).with_latency(1),
            l2: Some(CacheConfig::new("L2", 8 * 1024).with_ways(4).with_latency(4)),
            llc: CacheConfig::new("LLC", 64 * 1024).with_ways(8).with_latency(10),
            mshr_entries: 8,
            prefetch: PrefetchConfig::disabled(),
            dram: DramKind::Simple(SimpleDramConfig {
                min_latency: 50,
                epoch_cycles: 64,
                max_per_epoch: 8,
            }),
            atomic_penalty: 15,
            noc: None,
        };
        MemoryHierarchy::new(config, tiles)
    }

    /// What the hierarchy has completed since the last call.
    pub(super) fn drain(h: &mut MemoryHierarchy) -> Vec<Completion> {
        let mut done = Vec::new();
        h.drain_completions_into(&mut done);
        done
    }

    fn run_one(h: &mut MemoryHierarchy, req: MemReq, start: u64) -> u64 {
        let id = h.request(req, start).expect("valid tile");
        let mut t = start;
        loop {
            h.step(t);
            let done = drain(h);
            if let Some(c) = done.iter().find(|c| c.id == id) {
                return c.at_cycle;
            }
            t += 1;
            assert!(t < start + 100_000, "request never completed");
        }
    }

    #[test]
    fn cold_miss_pays_full_path_then_hits_are_fast() {
        let mut h = hier(1);
        let req = MemReq {
            tile: 0,
            addr: 0x4000,
            size: 4,
            kind: AccessKind::Read,
        };
        let t1 = run_one(&mut h, req, 0);
        // Full path: l1 + l2 + llc lat + dram 50.
        assert!(t1 >= 50, "cold miss too fast: {t1}");
        let t2 = run_one(&mut h, req, t1 + 1) - (t1 + 1);
        assert_eq!(t2, 1, "L1 hit should cost the L1 latency");
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l1_misses, 1);
        assert_eq!(h.stats().dram_reads, 1);
    }

    #[test]
    fn same_line_requests_coalesce_in_mshr() {
        let mut h = hier(1);
        let mk = |a| MemReq {
            tile: 0,
            addr: a,
            size: 4,
            kind: AccessKind::Read,
        };
        let a = h.request(mk(0x8000), 0).expect("valid tile");
        let b = h.request(mk(0x8004), 0).expect("valid tile");
        let c = h.request(mk(0x8038), 0).expect("valid tile");
        let mut t = 0;
        let mut done = Vec::new();
        while done.len() < 3 {
            h.step(t);
            done.extend(drain(&mut h));
            t += 1;
            assert!(t < 10_000);
        }
        assert_eq!(h.stats().dram_reads, 1, "one line fetch serves all three");
        let ids: Vec<ReqId> = done.iter().map(|c| c.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b) && ids.contains(&c));
    }

    #[test]
    fn two_tiles_have_private_l1s() {
        let mut h = hier(2);
        let t1 = run_one(
            &mut h,
            MemReq {
                tile: 0,
                addr: 0x4000,
                size: 4,
                kind: AccessKind::Read,
            },
            0,
        );
        // Tile 1 misses L1/L2 but hits the shared LLC.
        let t2 = run_one(
            &mut h,
            MemReq {
                tile: 1,
                addr: 0x4000,
                size: 4,
                kind: AccessKind::Read,
            },
            t1 + 1,
        ) - (t1 + 1);
        assert!(t2 < 50, "LLC hit should avoid DRAM: {t2}");
        assert!(t2 > 1, "but it is slower than an L1 hit: {t2}");
        assert_eq!(h.stats().llc_hits, 1);
        assert_eq!(h.stats().dram_reads, 1);
    }

    #[test]
    fn atomics_bypass_private_caches() {
        let mut h = hier(1);
        // Warm the line via a normal read.
        let t1 = run_one(
            &mut h,
            MemReq {
                tile: 0,
                addr: 0x1000,
                size: 4,
                kind: AccessKind::Read,
            },
            0,
        );
        // An atomic to the same line still pays the LLC path.
        let ta = run_one(
            &mut h,
            MemReq {
                tile: 0,
                addr: 0x1000,
                size: 4,
                kind: AccessKind::Atomic,
            },
            t1 + 1,
        ) - (t1 + 1);
        assert!(ta >= 15 + 10, "atomic should pay penalty + LLC: {ta}");
        assert_eq!(h.stats().atomics, 1);
    }

    #[test]
    fn writes_mark_lines_dirty_and_write_back() {
        // Tiny LLC to force evictions.
        let config = HierarchyConfig {
            l1: CacheConfig::new("L1", 256).with_ways(2).with_latency(1),
            l2: None,
            llc: CacheConfig::new("LLC", 512).with_ways(2).with_latency(4),
            mshr_entries: 8,
            prefetch: PrefetchConfig::disabled(),
            dram: DramKind::Simple(SimpleDramConfig {
                min_latency: 20,
                epoch_cycles: 32,
                max_per_epoch: 8,
            }),
            atomic_penalty: 10,
            noc: None,
        };
        let mut h = MemoryHierarchy::new(config, 1);
        let mut t = 0;
        // Write many distinct lines to overflow the LLC.
        for i in 0..32u64 {
            t = run_one(
                &mut h,
                MemReq {
                    tile: 0,
                    addr: 0x10000 + i * 64,
                    size: 4,
                    kind: AccessKind::Write,
                },
                t + 1,
            );
        }
        // Let writebacks drain.
        for _ in 0..2000 {
            t += 1;
            h.step(t);
            drain(&mut h);
        }
        assert!(h.stats().dram_writebacks > 0, "dirty evictions must write back");
        assert!(h.is_idle());
    }

    #[test]
    fn prefetcher_reduces_demand_misses_on_streams() {
        let mk_cfg = |pf: PrefetchConfig| HierarchyConfig {
            l1: CacheConfig::new("L1", 4 * 1024).with_ways(4).with_latency(1),
            l2: None,
            llc: CacheConfig::new("LLC", 256 * 1024).with_ways(8).with_latency(8),
            mshr_entries: 16,
            prefetch: pf,
            dram: DramKind::Simple(SimpleDramConfig {
                min_latency: 60,
                epoch_cycles: 64,
                max_per_epoch: 16,
            }),
            atomic_penalty: 10,
            noc: None,
        };
        let run_stream = |cfg: HierarchyConfig| -> (u64, MemStats) {
            let mut h = MemoryHierarchy::new(cfg, 1);
            let mut t = 0;
            for i in 0..256u64 {
                t = run_one(
                    &mut h,
                    MemReq {
                        tile: 0,
                        addr: 0x100000 + i * 8,
                        size: 8,
                        kind: AccessKind::Read,
                    },
                    t + 1,
                );
            }
            // Drain outstanding prefetches.
            for _ in 0..5000 {
                t += 1;
                h.step(t);
                drain(&mut h);
            }
            (t, h.stats())
        };
        let (t_off, s_off) = run_stream(mk_cfg(PrefetchConfig::disabled()));
        let (t_on, s_on) = run_stream(mk_cfg(PrefetchConfig::default()));
        assert!(s_on.prefetches > 0);
        assert!(
            t_on < t_off,
            "prefetching should speed up a streaming read: {t_on} vs {t_off}"
        );
        assert!(s_on.l1_hits > s_off.l1_hits);
    }

    #[test]
    fn banked_dram_integration() {
        let config = HierarchyConfig {
            l1: CacheConfig::new("L1", 1024).with_ways(2).with_latency(1),
            l2: None,
            llc: CacheConfig::new("LLC", 16 * 1024).with_ways(4).with_latency(6),
            mshr_entries: 8,
            prefetch: PrefetchConfig::disabled(),
            dram: DramKind::Banked(BankedDramConfig::default()),
            atomic_penalty: 10,
            noc: None,
        };
        let mut h = MemoryHierarchy::new(config, 1);
        let t = run_one(
            &mut h,
            MemReq {
                tile: 0,
                addr: 0x9000,
                size: 8,
                kind: AccessKind::Read,
            },
            0,
        );
        assert!(t > 6, "banked DRAM path has nonzero latency");
        assert_eq!(h.stats().dram_reads, 1);
    }

    #[test]
    fn hierarchy_reaches_idle() {
        let mut h = hier(2);
        for i in 0..8 {
            h.request(
                MemReq {
                    tile: i % 2,
                    addr: 0x2000 + i as u64 * 64,
                    size: 4,
                    kind: AccessKind::Read,
                },
                0,
            )
            .expect("valid tile");
        }
        let mut t = 0;
        while !h.is_idle() {
            h.step(t);
            drain(&mut h);
            t += 1;
            assert!(t < 100_000);
        }
    }

    /// Spans restored from a snapshot taken at `Trace` reach only a
    /// `Trace` timeline, as spans never recorded do.
    #[test]
    fn restored_spans_are_taken_only_at_trace() {
        let mut h = hier(1);
        h.set_observe(ObsLevel::Trace);
        let req = MemReq {
            tile: 0,
            addr: 0x4000,
            size: 4,
            kind: AccessKind::Read,
        };
        run_one(&mut h, req, 0);
        let mut e = mosaic_ckpt::Enc::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        for level in [ObsLevel::Off, ObsLevel::Stats, ObsLevel::Trace] {
            let mut resumed = hier(1);
            resumed.set_observe(level);
            let mut d = mosaic_ckpt::Dec::new(&bytes);
            resumed.restore_state(&mut d).expect("restore");
            let spans = resumed.take_timeline().len();
            assert_eq!(spans > 0, level == ObsLevel::Trace, "{level:?}: {spans} spans");
        }
    }

    #[test]
    fn trace_level_records_request_and_dram_spans() {
        let mut h = hier(1);
        h.set_observe(ObsLevel::Trace);
        let req = MemReq {
            tile: 0,
            addr: 0x4000,
            size: 4,
            kind: AccessKind::Read,
        };
        let done = run_one(&mut h, req, 0);
        let tl = h.take_timeline();
        assert!(
            tl.spans().any(|s| s.cat == Category::Mem && s.end == done),
            "expected a request-lifetime span ending at completion"
        );
        assert!(
            tl.spans().any(|s| s.cat == Category::Dram),
            "expected a DRAM service span for the cold miss"
        );
        // Off records nothing.
        let mut h2 = hier(1);
        let _ = run_one(&mut h2, req, 0);
        assert!(h2.take_timeline().is_empty());
        let mut reg = StatsRegistry::new();
        h2.register_into(&mut reg);
        assert!(
            reg.get("mem.l1.mshr.occupancy").is_none(),
            "occupancy histograms only recorded at Stats and above"
        );
    }
}

#[cfg(test)]
mod noc_tests {
    use super::tests::drain;
    use super::*;

    fn noc_hier(noc: Option<NocConfig>, tiles: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(
            HierarchyConfig {
                l1: CacheConfig::new("L1", 1024).with_ways(2).with_latency(1),
                l2: None,
                llc: CacheConfig::new("LLC", 64 * 1024).with_ways(8).with_latency(10),
                mshr_entries: 8,
                prefetch: PrefetchConfig::disabled(),
                dram: DramKind::Simple(SimpleDramConfig {
                    min_latency: 50,
                    epoch_cycles: 64,
                    max_per_epoch: 8,
                }),
                atomic_penalty: 10,
                noc,
            },
            tiles,
        )
    }

    fn latency_of(h: &mut MemoryHierarchy, tile: usize, addr: u64, start: u64) -> u64 {
        let id = h.request(
            MemReq {
                tile,
                addr,
                size: 4,
                kind: AccessKind::Read,
            },
            start,
        )
        .expect("valid tile");
        let mut t = start;
        loop {
            h.step(t);
            if let Some(c) = drain(h).into_iter().find(|c| c.id == id) {
                return c.at_cycle - start;
            }
            t += 1;
            assert!(t < start + 100_000);
        }
    }

    #[test]
    fn manhattan_hops_from_mesh_center() {
        let noc = NocConfig {
            mesh_width: 4,
            hop_latency: 3,
        };
        // Center is (2, 2); tile 10 sits at (2, 2): minimum 1 hop.
        assert_eq!(noc.hops(10), 1);
        // Tile 0 at (0, 0): 4 hops.
        assert_eq!(noc.hops(0), 4);
        assert_eq!(noc.latency(0), 12);
        assert!(noc.hops(0) > noc.hops(10));
    }

    #[test]
    fn farther_tiles_pay_more_noc_latency() {
        let noc = Some(NocConfig {
            mesh_width: 4,
            hop_latency: 5,
        });
        let mut h = noc_hier(noc, 16);
        // Warm the line into the LLC via tile 10 (center), then compare
        // LLC-hit latencies of a near and a far tile.
        let warm = latency_of(&mut h, 10, 0x9000, 0);
        let near = latency_of(&mut h, 10, 0x9000 + 4, warm + 10);
        // Evict nothing; tile 0's L1 is cold, so it hits the LLC.
        let far = latency_of(&mut h, 0, 0x9000, warm + near + 20);
        assert!(
            far > near,
            "far tile ({far}) should pay more hops than center tile ({near})"
        );
        // The difference reflects the round trip: (4-1) hops x 5 cycles x 2.
        assert!(far - near >= 20, "expected >= 20 extra cycles, got {}", far - near);
    }

    #[test]
    fn no_noc_means_uniform_latency() {
        let mut h = noc_hier(None, 4);
        let a = latency_of(&mut h, 0, 0x5000, 0);
        let mut h2 = noc_hier(None, 4);
        let b = latency_of(&mut h2, 3, 0x5000, 0);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::tests::drain;
    use super::*;

    fn cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::new("L1", 1024).with_ways(2).with_latency(1),
            l2: Some(CacheConfig::new("L2", 8 * 1024).with_ways(4).with_latency(4)),
            llc: CacheConfig::new("LLC", 64 * 1024).with_ways(8).with_latency(10),
            mshr_entries: 8,
            prefetch: PrefetchConfig::default(),
            dram: DramKind::Simple(SimpleDramConfig {
                min_latency: 50,
                epoch_cycles: 64,
                max_per_epoch: 4,
            }),
            atomic_penalty: 15,
            noc: None,
        }
    }

    fn drive(h: &mut MemoryHierarchy, from: u64, to: u64, log: &mut Vec<Completion>) {
        for t in from..to {
            if t % 7 == 0 {
                let _ = h.request(
                    MemReq {
                        tile: (t % 2) as usize,
                        addr: 0x4000 + (t % 37) * 64,
                        size: 8,
                        kind: if t % 5 == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    },
                    t,
                );
            }
            h.step(t);
            log.extend(drain(h));
        }
    }

    #[test]
    fn mid_flight_snapshot_resumes_bit_identically() {
        // Straight run.
        let mut gold = MemoryHierarchy::new(cfg(), 2);
        let mut gold_log = Vec::new();
        drive(&mut gold, 0, 400, &mut gold_log);

        // Run to a cut point with requests still in flight, snapshot,
        // restore into a fresh hierarchy, finish there.
        let mut first = MemoryHierarchy::new(cfg(), 2);
        let mut log = Vec::new();
        drive(&mut first, 0, 130, &mut log);
        assert!(first.in_flight() > 0, "cut point should be mid-flight");
        let mut e = mosaic_ckpt::Enc::new();
        first.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut resumed = MemoryHierarchy::new(cfg(), 2);
        let mut d = mosaic_ckpt::Dec::new(&bytes);
        resumed.restore_state(&mut d).expect("restore");
        assert!(d.is_exhausted(), "payload fully consumed");
        drive(&mut resumed, 130, 400, &mut log);

        assert_eq!(log, gold_log);
        assert_eq!(resumed.stats(), gold.stats());
        // Re-encoding the final state must match the straight run too.
        let mut ea = mosaic_ckpt::Enc::new();
        gold.save_state(&mut ea);
        let mut eb = mosaic_ckpt::Enc::new();
        resumed.save_state(&mut eb);
        assert_eq!(ea.into_bytes(), eb.into_bytes());
    }

    /// With a request in flight, the ring spans from it to the next id
    /// handed out: a `next_id` far ahead would size it at the first request
    /// after the resume.
    #[test]
    fn restore_rejects_a_next_id_out_of_the_rings_reach() {
        let mut h = MemoryHierarchy::new(cfg(), 2);
        drive(&mut h, 0, 130, &mut Vec::new());
        let oldest = (0..h.next_id).find(|&id| h.reqs.get(id).is_some());
        h.next_id = oldest.expect("cut point should be mid-flight") + (1 << 40);
        let mut e = mosaic_ckpt::Enc::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        let err = MemoryHierarchy::new(cfg(), 2)
            .restore_state(&mut mosaic_ckpt::Dec::new(&bytes))
            .expect_err("next_id is 2^40 past a live request");
        assert!(matches!(err, mosaic_ckpt::CkptError::Corrupt { .. }), "{err}");

        // Nothing in flight: the ring re-bases on the next insert, wherever.
        let mut idle = MemoryHierarchy::new(cfg(), 2);
        idle.next_id = 1 << 40;
        let mut e = mosaic_ckpt::Enc::new();
        idle.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut resumed = MemoryHierarchy::new(cfg(), 2);
        resumed
            .restore_state(&mut mosaic_ckpt::Dec::new(&bytes))
            .expect("an empty ring takes any next_id");
        let mut log = Vec::new();
        drive(&mut resumed, 0, 400, &mut log);
        assert!(!log.is_empty() && log.iter().all(|c| c.id.0 >= 1 << 40));
    }

    #[test]
    fn restore_rejects_mismatched_tile_count() {
        let mut h = MemoryHierarchy::new(cfg(), 2);
        let mut log = Vec::new();
        drive(&mut h, 0, 50, &mut log);
        let mut e = mosaic_ckpt::Enc::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        // The record no longer says how many private caches it holds, so a
        // hierarchy of four tiles reads it as its own and runs out of
        // data: a typed error, never a panic. That it is another system is
        // the checkpoint header's verdict (`checkpoint_differential`).
        let mut other = MemoryHierarchy::new(cfg(), 4);
        let err = other
            .restore_state(&mut mosaic_ckpt::Dec::new(&bytes))
            .expect_err("tile count differs");
        assert!(
            matches!(
                err,
                mosaic_ckpt::CkptError::Truncated { .. } | mosaic_ckpt::CkptError::Corrupt { .. }
            ),
            "{err}"
        );
    }
}

//! The Interleaver (paper §II, Fig. 2).
//!
//! "Tiles operate alongside each other, each being called upon by the
//! Interleaver to take a single-cycle step. ... Distinct tiles may use
//! different notions of execution timing and are modeled to operate
//! concurrently. The Interleaver queries tiles to advance them through the
//! next time unit of execution. Tiles may run at different clock speeds,
//! so the Interleaver queries and coordinates their events accordingly."
//!
//! Each global cycle the Interleaver: steps the memory hierarchy, routes
//! memory completions back to the issuing tiles, and steps every tile
//! whose clock divides the current cycle. Inter-tile messages flow through
//! the [`ChannelSet`]; accelerator invocations dispatch to the configured
//! [`AccelSim`] (paper §IV-A).

use mosaic_ckpt::{Checkpoint, CkptError, Dec, Enc};
use mosaic_mem::{Completion, MemoryHierarchy};
use mosaic_obs::ObsLevel;
use mosaic_tile::{AccelSim, ChannelSet, Horizon, Tile, TileCtx, TileError, TileStallInfo};

/// One channel's state at the moment a stall was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// Hardware queue id.
    pub queue: u32,
    /// Entries currently buffered.
    pub occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Total successful sends so far.
    pub sends: u64,
    /// Total successful receives so far.
    pub recvs: u64,
}

impl std::fmt::Display for ChannelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "channel {}: {}/{} occupied, {} sends, {} recvs",
            self.queue, self.occupancy, self.capacity, self.sends, self.recvs
        )
    }
}

/// What every unfinished tile was waiting on when the simulation stopped
/// making progress — the wait-for evidence behind a
/// [`SimError::Deadlock`] verdict.
///
/// The snapshot holds only architectural state (blocked reasons, path
/// positions, channel occupancies, in-flight memory requests), never
/// mode-dependent diagnostics, so the fast-forwarding and naive schedulers
/// produce bit-identical snapshots for the same deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSnapshot {
    /// First cycle at which no tile or memory event could occur any more
    /// (one past the last cycle that made observable progress).
    pub cycle: u64,
    /// Per-tile blocked reasons, in tile order (unfinished tiles only).
    pub tiles: Vec<TileStallInfo>,
    /// Every channel that has been touched, sorted by queue id.
    pub channels: Vec<ChannelSnapshot>,
    /// Memory requests still tracked by the hierarchy.
    pub mem_in_flight: usize,
}

impl std::fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "no progress possible after cycle {}:", self.cycle)?;
        for t in &self.tiles {
            writeln!(f, "  {t}")?;
        }
        for c in &self.channels {
            writeln!(f, "  {c}")?;
        }
        write!(f, "  memory: {} requests in flight", self.mem_in_flight)
    }
}

/// Errors produced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle cap was reached while tiles were still making progress —
    /// the run is live but slower than the configured budget.
    CycleLimit {
        /// The cap that was hit.
        limit: u64,
        /// Names of the tiles that had not finished.
        unfinished: Vec<String>,
    },
    /// Every unfinished tile is blocked on a condition no other party can
    /// ever satisfy (circular channel waits, mismatched produce/consume
    /// counts, a send into a queue nobody drains). Detected by the
    /// event-horizon survey under fast-forwarding and by the no-progress
    /// watchdog under naive stepping; both report the same snapshot.
    Deadlock {
        /// The wait-for evidence, rendered by `Display`.
        snapshot: StallSnapshot,
    },
    /// A tile detected malformed input (trace/kernel mismatch, missing
    /// accelerator, out-of-range memory target) and aborted the run.
    Tile {
        /// Name of the tile that failed.
        tile: String,
        /// What it tripped over.
        source: TileError,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { limit, unfinished } => write!(
                f,
                "simulation exceeded {limit} cycles with unfinished tiles {unfinished:?}"
            ),
            SimError::Deadlock { snapshot } => {
                write!(f, "deadlock: {snapshot}")
            }
            SimError::Tile { source, .. } => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tile { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The cycle-driven scheduler composing tiles, memory, channels, and
/// accelerators into whole-system estimates.
pub struct Interleaver {
    /// The system's parts and their configuration fingerprints, as a
    /// checkpoint's header names them.
    parts: Vec<(String, u64)>,
    tiles: Vec<Box<dyn Tile>>,
    mem: MemoryHierarchy,
    channels: ChannelSet,
    accel: Box<dyn AccelSim>,
    cycle_limit: u64,
    now: u64,
    fast_forward: bool,
    /// Tiles that have finished (kept as a running count so the per-cycle
    /// done check is O(1) instead of a scan over all tiles).
    finished: usize,
    /// Reused completion-delivery buffer (avoids a per-cycle allocation).
    completion_buf: Vec<Completion>,
    /// Whether the last `step` did no observable work (no completions
    /// delivered, no tile's step reported work). Purely a heuristic gate for
    /// when to attempt a skip: skipping is identity-preserving whenever
    /// invoked, so a wrong value costs performance, never correctness.
    quiet: bool,
    /// Cycles jumped over by the fast-forward scheduler (diagnostics).
    cycles_skipped: u64,
    /// Fast-forward jumps taken (diagnostics).
    skips_taken: u64,
    /// Last cycle whose step made observable progress. Drives the
    /// `blocked at cycle` verdict: the deadlock cycle is one past this,
    /// identical under fast-forward and naive stepping because both
    /// execute every progress cycle.
    last_progress_at: Option<u64>,
    /// Quiet steps seen since the last progress or watchdog survey.
    quiet_streak: u64,
    /// Whether the previous loop iteration took a fast-forward jump.
    /// Loop-carried (not local to `run`) so a paused run resumes with
    /// exactly the survey cadence a straight-through run would have had.
    just_skipped: bool,
}

/// Consecutive quiet steps before the naive stepper surveys the system for
/// a deadlock. Only the detection *latency*: the verdict and its snapshot
/// come from the last progress cycle, not from when the watchdog fired.
/// Under fast-forwarding the survey happens at every skip attempt instead.
const WATCHDOG_WINDOW: u64 = 10_000;

/// Smallest multiple of `d` that is `>= x`. A tile on the global clock
/// (`d == 1`, nearly every tile) pays no division for it.
fn align_up(x: u64, d: u64) -> u64 {
    if d == 1 {
        x
    } else {
        x.div_ceil(d) * d
    }
}

impl std::fmt::Debug for Interleaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaver")
            .field("tiles", &self.tiles.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Interleaver {
    /// Assembles an interleaver. Tile order must match the memory
    /// hierarchy's private-cache slots (tile `i` uses slot `i`). Its
    /// checkpoints name the tiles alone, with fingerprint 0: only
    /// [`crate::SystemBuilder::build`] knows the configurations.
    ///
    /// # Panics
    ///
    /// Panics if a tile's [`Tile::clock_divisor`] is 0.
    pub fn new(
        tiles: Vec<Box<dyn Tile>>,
        mem: MemoryHierarchy,
        channels: ChannelSet,
        accel: Box<dyn AccelSim>,
    ) -> Self {
        for t in &tiles {
            assert!(t.clock_divisor() >= 1, "tile {}: clock divisor must be at least 1", t.name());
        }
        let finished = tiles.iter().filter(|t| t.is_done()).count();
        Interleaver {
            parts: tiles.iter().map(|t| (t.name().to_string(), 0)).collect(),
            tiles,
            mem,
            channels,
            accel,
            cycle_limit: 2_000_000_000,
            now: 0,
            fast_forward: true,
            finished,
            completion_buf: Vec::new(),
            quiet: false,
            cycles_skipped: 0,
            skips_taken: 0,
            last_progress_at: None,
            quiet_streak: 0,
            just_skipped: false,
        }
    }

    /// Cycles actually stepped so far (fast-forward diagnostics): every
    /// cycle not jumped over.
    pub fn steps_executed(&self) -> u64 {
        self.now - self.cycles_skipped
    }

    /// Cycles jumped over by fast-forwarding so far.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Fast-forward jumps taken so far.
    pub fn skips_taken(&self) -> u64 {
        self.skips_taken
    }

    /// Sets the parts and fingerprints checkpoints are taken and checked
    /// under.
    pub(crate) fn set_parts(&mut self, parts: Vec<(String, u64)>) {
        self.parts = parts;
    }

    /// Sets the runaway-protection cycle cap.
    pub(crate) fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// Sets the observability level on every tile and the memory
    /// hierarchy. At [`ObsLevel::Off`] (the default) the hot path pays
    /// nothing; see `DESIGN.md` §4.5 for the overhead contract.
    pub(crate) fn set_observe(&mut self, level: ObsLevel) {
        for tile in &mut self.tiles {
            tile.set_observe(level);
        }
        self.mem.set_observe(level);
    }

    /// Enables or disables event-horizon fast-forwarding in [`Self::run`]
    /// (on by default). Fast-forwarding skips cycles in which provably no
    /// tile or memory event can occur; results are bit-identical to the
    /// naive cycle-by-cycle stepper, so disabling it is only useful for
    /// differential testing and for debugging with per-cycle stepping.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// The current global cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The tiles (for stats inspection).
    pub fn tiles(&self) -> &[Box<dyn Tile>] {
        &self.tiles
    }

    /// The channel set (for stats inspection).
    pub fn channels(&self) -> &ChannelSet {
        &self.channels
    }

    /// Advances one global cycle. Returns whether all tiles are done.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Tile`] when a tile rejects its input (trace
    /// underrun, missing accelerator, out-of-range memory target).
    pub fn step(&mut self) -> Result<bool, SimError> {
        let now = self.now;
        self.mem.step(now);
        self.mem.drain_completions_into(&mut self.completion_buf);
        let mut progress = !self.completion_buf.is_empty();
        for c in self.completion_buf.drain(..) {
            if let Some(tile) = self.tiles.get_mut(c.tile) {
                tile.on_mem_completion(c.id, now);
            }
        }
        for tile in &mut self.tiles {
            if tile.is_done() {
                continue;
            }
            let div = tile.clock_divisor();
            if div != 1 && !now.is_multiple_of(div) {
                continue;
            }
            let mut ctx = TileCtx {
                now,
                mem: &mut self.mem,
                channels: &mut self.channels,
                accel: self.accel.as_mut(),
            };
            progress |= tile.step(&mut ctx).map_err(|source| SimError::Tile {
                tile: tile.name().to_string(),
                source,
            })?;
            if tile.is_done() {
                self.finished += 1;
            }
        }
        self.quiet = !progress;
        if progress {
            self.last_progress_at = Some(now);
        }
        self.now += 1;
        Ok(self.finished == self.tiles.len())
    }

    /// First cycle at which nothing could happen any more: one past the
    /// last cycle whose step made observable progress.
    fn blocked_at(&self) -> u64 {
        self.last_progress_at.map_or(0, |c| c + 1)
    }

    /// Collects the wait-for evidence for a deadlock verdict. Queried at
    /// the blocked cycle (not the detection cycle, which differs between
    /// the fast-forwarding and naive schedulers) so both modes report
    /// bit-identical snapshots: once every party is blocked the state the
    /// snapshot reads is frozen.
    fn stall_snapshot(&self) -> StallSnapshot {
        let blocked_at = self.blocked_at();
        let tiles = self
            .tiles
            .iter()
            .filter(|t| !t.is_done())
            .map(|t| t.stall_info(blocked_at, &self.channels))
            .collect();
        // In queue order, the channel set's own.
        let channels = self
            .channels
            .iter()
            .map(|(queue, ch)| ChannelSnapshot {
                queue,
                occupancy: ch.occupancy(),
                capacity: ch.config().capacity,
                sends: ch.sends(),
                recvs: ch.recvs(),
            })
            .collect();
        StallSnapshot {
            cycle: blocked_at,
            tiles,
            channels,
            mem_in_flight: self.mem.in_flight(),
        }
    }

    /// Surveys the system for its *event horizon*: the minimum over (a)
    /// each unfinished tile's next event, aligned up to its clock divisor —
    /// exactly the next cycle the naive stepper would have stepped it with
    /// that event visible; (b) the memory hierarchy's next internal event;
    /// and (c) the cycle cap. Stops at the first tile that can act at
    /// `now`, before asking the rest or the memory.
    ///
    /// `None` when there is *no* event anywhere — every unfinished tile
    /// reports [`Horizon::Blocked`] (waiting on another party, not on
    /// time) and the memory hierarchy is drained: the system can never
    /// move again, and the caller returns [`Self::deadlock`].
    ///
    /// Forced into the run loop: a stall-bound run surveys after almost
    /// every step, and left as a call (a plain `#[inline]` is) it costs
    /// the ledger's `memstall_ino` 2 % of `sim_mips`.
    #[inline(always)]
    fn survey(&self) -> Option<u64> {
        let now = self.now;
        let mut target = self.cycle_limit;
        let mut any_event = false;
        for tile in &self.tiles {
            if tile.is_done() {
                continue;
            }
            let div = tile.clock_divisor();
            let wake = match tile.next_event(now, &self.channels) {
                Horizon::Ready => align_up(now, div),
                Horizon::At(c) => align_up(c.max(now), div),
                Horizon::Blocked => continue,
            };
            any_event = true;
            target = target.min(wake);
            if target <= now {
                return Some(target);
            }
        }
        if let Some(e) = self.mem.next_event_cycle(now) {
            any_event = true;
            target = target.min(e.max(now));
        }
        (any_event || self.finished == self.tiles.len()).then_some(target)
    }

    /// The verdict of a survey that found no event, with its evidence.
    fn deadlock(&self) -> SimError {
        SimError::Deadlock {
            snapshot: self.stall_snapshot(),
        }
    }

    /// Jumps `now` forward to the [surveyed](Self::survey) horizon,
    /// crediting each skipped tile with the stall counters it would have
    /// accumulated. A no-op when some tile is ready on the very next cycle.
    ///
    /// Because no event of any kind lies in `[now, target)`, the naive
    /// stepper would have executed those cycles as pure no-ops except for
    /// per-cycle stall counters, which [`Tile::on_cycles_skipped`]
    /// restores — keeping cycle counts, per-tile stats, and energy
    /// bit-identical between both modes.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the survey finds no event, instead of
    /// spinning to the cycle cap.
    fn skip_to_horizon(&mut self) -> Result<(), SimError> {
        let now = self.now;
        let target = self.survey().ok_or_else(|| self.deadlock())?;
        if target <= now {
            return Ok(());
        }
        for tile in &mut self.tiles {
            if tile.is_done() {
                continue;
            }
            let div = tile.clock_divisor();
            let skipped = if div == 1 {
                target - now
            } else {
                target.div_ceil(div).saturating_sub(now.div_ceil(div))
            };
            if skipped > 0 {
                tile.on_cycles_skipped(now, skipped, &self.channels);
            }
        }
        self.cycles_skipped += target - now;
        self.skips_taken += 1;
        self.now = target;
        Ok(())
    }

    fn cycle_limit_error(&self) -> SimError {
        SimError::CycleLimit {
            limit: self.cycle_limit,
            unfinished: self
                .tiles
                .iter()
                .filter(|t| !t.is_done())
                .map(|t| t.name().to_string())
                .collect(),
        }
    }

    /// Runs until every tile drains, returning the completion cycle.
    ///
    /// With fast-forwarding enabled (the default) the run skips over
    /// provably event-free cycle spans; see [`Self::set_fast_forward`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when no tile or memory event can
    /// ever occur again (fast-forwarding detects this at the first failed
    /// skip attempt; the naive stepper via the no-progress watchdog — both
    /// report the same blocked cycle and snapshot),
    /// [`SimError::CycleLimit`] when the cap is hit while still live, and
    /// [`SimError::Tile`] when a tile rejects its input.
    pub fn run(&mut self) -> Result<u64, SimError> {
        match self.run_inner(None)? {
            Some(cycles) => Ok(cycles),
            None => unreachable!("run_inner pauses only when given a target cycle"),
        }
    }

    /// Runs until every tile drains *or* the global clock reaches
    /// `cycle`, whichever comes first. Returns `Some(completion cycle)`
    /// when the system finished, `None` when it paused at (or, under
    /// fast-forwarding, at the first stepped cycle past) the target.
    ///
    /// A paused interleaver is in exactly the state a straight-through
    /// run has at that point of its loop: calling [`Self::run`] (or
    /// `run_until` again) continues bit-identically, and
    /// [`Self::save_checkpoint`] captures the pause point so a fresh
    /// system can continue from it instead.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_until(&mut self, cycle: u64) -> Result<Option<u64>, SimError> {
        self.run_inner(Some(cycle))
    }

    fn run_inner(&mut self, until: Option<u64>) -> Result<Option<u64>, SimError> {
        loop {
            // Pause points sit at the top of the loop, before the step at
            // `now` executes: the captured state is the state a
            // straight-through run has at this exact point, which is what
            // makes resume-from-cycle-N bit-identical.
            if let Some(target) = until {
                if self.now >= target && self.finished < self.tiles.len() {
                    return Ok(None);
                }
            }
            if self.step()? {
                break;
            }
            if self.now >= self.cycle_limit {
                return Err(self.cycle_limit_error());
            }
            // Only pay for a horizon survey when a multi-cycle stall span
            // is plausible: after a cycle that did no observable work, or
            // right after a wake step while in a stall-dominated phase
            // (saving the one quiet step per span the first rule costs).
            // In busy phases the next step is productive anyway, so
            // surveying every cycle would be pure overhead.
            if self.fast_forward && (self.quiet || self.just_skipped) {
                let before = self.now;
                self.skip_to_horizon()?;
                self.just_skipped = self.now != before;
                if self.now >= self.cycle_limit {
                    return Err(self.cycle_limit_error());
                }
            } else {
                self.just_skipped = false;
                // Naive-path watchdog: after a window of steps with no
                // observable work, survey for a deadlock.
                if self.quiet {
                    self.quiet_streak += 1;
                    if self.quiet_streak >= WATCHDOG_WINDOW {
                        self.quiet_streak = 0;
                        if self.survey().is_none() {
                            return Err(self.deadlock());
                        }
                    }
                } else {
                    self.quiet_streak = 0;
                }
            }
        }
        // The completion cycle is the latest tile finish time.
        Ok(Some(
            self.tiles
                .iter()
                .filter_map(|t| t.stats().done_at)
                .max()
                .unwrap_or(self.now),
        ))
    }

    /// Snapshots the complete simulator state — every tile's
    /// architectural and microarchitectural state, channel queues with
    /// in-flight messages, the full memory hierarchy, and the scheduler's
    /// own loop-carried state — into a versioned [`Checkpoint`] container.
    /// The configuration is *not* captured: a resume rebuilds the system
    /// from the same configuration and overwrites only dynamic state; the
    /// header's per-part fingerprints guard against resuming into another
    /// system.
    pub fn save_checkpoint(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::new(self.now, self.parts.clone());
        let mut add = |name: &str, put: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            put(&mut e);
            ckpt.add_section(name, e);
        };
        add("interleaver", &|e| self.put_fields(e));
        add("channels", &|e| self.channels.encode_into(e));
        add("mem", &|e| self.mem.save_state(e));
        for (i, tile) in self.tiles.iter().enumerate() {
            add(&format!("tile.{i}"), &|e| tile.save_state(e));
        }
        ckpt
    }

    /// Restores the state captured by [`Self::save_checkpoint`] into this
    /// interleaver, which must have been built from the same
    /// configuration (same tiles in the same order, same memory
    /// hierarchy, same kernel trace). Set the observability level
    /// *before* restoring so recorded profiles and timelines carry over.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Mismatch`] naming the first part whose name or
    /// fingerprint differs from the checkpoint's, before any section is
    /// read (or when a section is missing), and `Truncated`/`Corrupt` for
    /// damaged payloads.
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), CkptError> {
        let (theirs, ours) = (ckpt.parts(), self.parts.as_slice());
        let differs = |&i: &usize| theirs.get(i) != ours.get(i);
        if let Some(at) = (0..theirs.len().max(ours.len())).find(differs) {
            let show = |part: Option<&(String, u64)>| {
                part.map_or("nothing".to_string(), |(name, hash)| format!("'{name}' ({hash:016x})"))
            };
            return Err(CkptError::mismatch(format!(
                "part {at} is {} in the checkpoint, {} in this system",
                show(theirs.get(at)),
                show(ours.get(at))
            )));
        }
        decode_section(ckpt, "interleaver", |d| {
            self.get_fields(d)?;
            let (now, skipped, header) = (self.now, self.cycles_skipped, ckpt.cycle());
            if now != header || skipped > now {
                return Err(CkptError::corrupt(format!(
                    "interleaver section at cycle {now} ({skipped} skipped), header at {header}"
                )));
            }
            Ok(())
        })?;
        decode_section(ckpt, "channels", |d| self.channels.restore_from(d))?;
        decode_section(ckpt, "mem", |d| self.mem.restore_state(d))?;
        for (i, tile) in self.tiles.iter_mut().enumerate() {
            decode_section(ckpt, &format!("tile.{i}"), |d| tile.restore_state(d))?;
        }
        self.finished = self.tiles.iter().filter(|t| t.is_done()).count();
        Ok(())
    }

    /// Consumes the interleaver, returning its parts for post-run
    /// inspection.
    pub fn into_parts(self) -> (Vec<Box<dyn Tile>>, MemoryHierarchy, ChannelSet) {
        (self.tiles, self.mem, self.channels)
    }
}

/// Decodes section `name` of `ckpt` with `decode`, which must read all of it.
fn decode_section(
    ckpt: &Checkpoint,
    name: &str,
    decode: impl FnOnce(&mut Dec<'_>) -> Result<(), CkptError>,
) -> Result<(), CkptError> {
    let mut d = Dec::new(ckpt.require_section(name)?);
    decode(&mut d)?;
    let left = d.remaining();
    let trailing = || CkptError::corrupt(format!("section {name}: {left} bytes of trailing data"));
    (left == 0).then_some(()).ok_or_else(trailing)
}

// The `interleaver` section: the scheduler's own loop-carried state (the
// cycles stepped are the cycles not skipped).
mosaic_ckpt::snap_fields!(Interleaver: now, quiet, just_skipped, cycles_skipped, skips_taken,
    last_progress_at, quiet_streak);

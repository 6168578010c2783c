//! # mosaic-tile
//!
//! Fast abstract tile models (paper §III): the dependence-graph execution
//! engine that turns a static DDG plus a dynamic trace into cycle counts,
//! under configurable microarchitectural resource limits.
//!
//! * [`CoreTile`] — the graph-based core model: DBB launching, issue
//!   width, sliding instruction window (ROB), MAO/LSQ, functional-unit
//!   limits, live-DBB limits, branch and memory-alias speculation.
//! * [`CoreConfig`] — resource presets including Table II's in-order and
//!   out-of-order cores, the pre-RTL accelerator provisioning of §IV, and
//!   the ISA-tuned reference model used as the Fig. 5 accuracy baseline.
//! * [`Mao`] — the Memory Address Orderer (paper §II-A).
//! * [`Channel`]/[`ChannelSet`] — the inter-tile message buffers backing
//!   `send`/`recv` (paper §II-C), used by the DAE case study (§VII-A).
//! * [`Tile`] — the interface the Interleaver drives each cycle.
//!
//! The end-to-end pipeline (build IR → trace → simulate) lives in
//! `mosaic-core`; see that crate for runnable examples.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod channel;
mod config;
mod core_tile;
mod mao;

pub use channel::{Channel, ChannelConfig, ChannelSet};
pub use config::{BranchMode, CoreConfig, CostTable, FuLimits, FusionConfig};
pub use core_tile::CoreTile;
pub use mao::Mao;

use mosaic_ir::AccelOp;
use mosaic_mem::{MemError, MemoryHierarchy, ReqId};
use mosaic_obs::{IrProfile, ObsLevel, StallKind, StatsRegistry, Timeline, STALL_KINDS};

/// Errors a tile step can surface for malformed inputs: trace/kernel
/// mismatches, missing accelerator models, or rejected memory requests.
///
/// These conditions used to panic deep inside the engine; as typed errors
/// they propagate through `Interleaver::run` so a sweep can report one bad
/// configuration and keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileError {
    /// The dynamic trace ran out of entries for a memory or accelerator
    /// instruction — the trace does not match the kernel being replayed.
    TraceUnderrun {
        /// Tile display name.
        tile: String,
        /// The static instruction whose trace stream ran dry.
        inst: String,
    },
    /// A phi launched in the first DBB of the path, so it has no taken
    /// predecessor to select an incoming value from — the recorded path
    /// does not start at a real function entry.
    PhiWithoutPredecessor {
        /// Tile display name.
        tile: String,
        /// The block containing the phi.
        block: String,
    },
    /// The kernel invoked an accelerator but the system has no
    /// accelerator model configured.
    NoAccelerator {
        /// The accelerator op the kernel invoked.
        accel: String,
    },
    /// The memory hierarchy rejected a request from this tile.
    Mem {
        /// Tile display name.
        tile: String,
        /// The underlying memory error.
        source: MemError,
    },
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileError::TraceUnderrun { tile, inst } => write!(
                f,
                "tile {tile}: trace underrun at instruction {inst} (trace does not match kernel)"
            ),
            TileError::PhiWithoutPredecessor { tile, block } => write!(
                f,
                "tile {tile}: phi in block {block} launched with no predecessor DBB"
            ),
            TileError::NoAccelerator { accel } => write!(
                f,
                "kernel invoked {accel} but the system has no accelerator model"
            ),
            TileError::Mem { tile, source } => write!(f, "tile {tile}: {source}"),
        }
    }
}

impl std::error::Error for TileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TileError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why a blocked tile cannot advance, as reported in a deadlock snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting to receive from channel `queue`, which has no mature entry.
    RecvEmpty {
        /// The channel being received from.
        queue: u32,
    },
    /// Waiting to send into channel `queue`, which is at capacity.
    SendFull {
        /// The channel being sent into.
        queue: u32,
    },
    /// A hardware channel push (DeSC terminal load) waits for space in
    /// channel `queue`.
    ChannelPush {
        /// The channel being pushed into.
        queue: u32,
    },
    /// Waiting on the memory system (MAO ordering, outstanding atomics,
    /// DeSC buffers, or in-flight requests).
    Memory,
    /// The sliding instruction window (ROB) blocks issue.
    Window,
    /// Functional-unit limits (or a busy accelerator) block issue.
    FuncUnit,
    /// Waiting for a terminator or mispredict penalty before launching
    /// the next DBB.
    LaunchGate,
    /// No blocked work identified (tile is done or has nothing pending).
    Idle,
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallReason::RecvEmpty { queue } => write!(f, "recv on empty channel {queue}"),
            StallReason::SendFull { queue } => write!(f, "send into full channel {queue}"),
            StallReason::ChannelPush { queue } => {
                write!(f, "hardware push into full channel {queue}")
            }
            StallReason::Memory => write!(f, "waiting on memory"),
            StallReason::Window => write!(f, "instruction window full"),
            StallReason::FuncUnit => write!(f, "functional units busy"),
            StallReason::LaunchGate => write!(f, "launch gate closed"),
            StallReason::Idle => write!(f, "idle"),
        }
    }
}

/// One tile's entry in a deadlock snapshot: the frozen, architectural
/// facts about why it cannot advance. Deliberately excludes cumulative
/// stall counters, which differ between the fast-forward and naive
/// schedulers at the moment a deadlock is diagnosed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileStallInfo {
    /// Tile display name.
    pub tile: String,
    /// Primary blocked reason (channel waits outrank memory waits
    /// outrank structural stalls, so wait-for edges surface first).
    pub reason: StallReason,
    /// Static id of the instruction the reason refers to, if any.
    pub inst: Option<u32>,
    /// Position in the dynamic DBB path — the tile's control-flow "PC".
    pub pc: usize,
    /// Dynamic instructions retired so far.
    pub retired: u64,
    /// Memory requests in flight from this tile.
    pub mem_in_flight: usize,
}

impl std::fmt::Display for TileStallInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (path pos {}, retired {}, {} mem requests in flight",
            self.tile, self.reason, self.pc, self.retired, self.mem_in_flight
        )?;
        match self.inst {
            Some(i) => write!(f, ", at inst %{i})"),
            None => write!(f, ")"),
        }
    }
}

/// Performance estimate returned by an accelerator model when invoked
/// (paper §IV-A: "the accelerator tile model returns to the Interleaver a
/// set of performance estimates, e.g. clock cycles, bytes of memory
/// accessed, and average power consumption").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccelResult {
    /// Busy cycles of the invocation.
    pub cycles: u64,
    /// Energy consumed, in picojoules.
    pub energy_pj: f64,
}

/// An accelerator performance model callable by tiles (implemented by
/// `mosaic-accel`; see paper §IV).
pub trait AccelSim {
    /// Returns the performance estimate for invoking `accel` with the
    /// dynamic `args` recorded in the trace.
    ///
    /// # Errors
    ///
    /// Implementations return [`TileError::NoAccelerator`] (or another
    /// [`TileError`]) when the invocation cannot be modeled; the error
    /// aborts the invoking tile's run recoverably.
    fn invoke(&mut self, accel: AccelOp, args: &[i64]) -> Result<AccelResult, TileError>;
}

/// An [`AccelSim`] for systems without accelerators: any actual
/// invocation returns [`TileError::NoAccelerator`] — composing a kernel
/// that calls accelerators with a system that has none is a configuration
/// bug, surfaced as a recoverable error.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAccel;

impl AccelSim for NoAccel {
    fn invoke(&mut self, accel: AccelOp, _args: &[i64]) -> Result<AccelResult, TileError> {
        Err(TileError::NoAccelerator {
            accel: accel.name().to_string(),
        })
    }
}

/// Everything a tile may touch during one cycle step.
pub struct TileCtx<'a> {
    /// Current global cycle.
    pub now: u64,
    /// The shared memory hierarchy.
    pub mem: &'a mut MemoryHierarchy,
    /// Inter-tile channels.
    pub channels: &'a mut ChannelSet,
    /// Accelerator models.
    pub accel: &'a mut dyn AccelSim,
}

impl std::fmt::Debug for TileCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileCtx").field("now", &self.now).finish()
    }
}

/// Per-tile statistics accumulated during simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileStats {
    /// Tile display name.
    pub name: String,
    /// Retired dynamic instructions.
    pub retired: u64,
    /// Issued dynamic instructions (= retired at completion of run).
    pub issued: u64,
    /// Last cycle this tile was stepped while active.
    pub cycles: u64,
    /// Cycle at which the tile finished, if it has.
    pub done_at: Option<u64>,
    /// Core-side energy in picojoules (instruction + accelerator energy;
    /// memory-hierarchy energy is accounted separately).
    pub energy_pj: f64,
    /// Dynamic basic blocks launched.
    pub dbbs_launched: u64,
    /// Static-prediction misses (paper §III-C).
    pub mispredicts: u64,
    /// Issue attempts blocked, by [`StallKind`] index: by the window, FU
    /// limits, the MAO/LSQ, a full outgoing or an empty incoming channel.
    pub stalls: [u64; STALL_KINDS],
    /// Accelerator invocations made.
    pub accel_invocations: u64,
    /// Cycles spent inside accelerator invocations.
    pub accel_cycles: u64,
}

impl TileStats {
    /// Fresh statistics for a tile called `name`.
    pub(crate) fn new(name: &str) -> Self {
        TileStats {
            name: name.to_string(),
            ..TileStats::default()
        }
    }

    /// Instructions per cycle, using the tile's completion time.
    pub fn ipc(&self) -> f64 {
        match self.done_at {
            Some(c) if c > 0 => self.retired as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Moves whenever a step does observable work (issue, retire, launch,
    /// accelerator call); a pure-stall step moves none of its terms.
    pub(crate) fn progress_mark(&self) -> u64 {
        self.retired + self.issued + self.dbbs_launched + self.accel_invocations
    }

    /// Registers every field into `reg` under `tile.<slot>.*` paths
    /// (`tile.3.stall.mem`, `tile.0.retired`, …). `TileStats` remains
    /// the hot-path accumulator; the registry is a read-time view of
    /// it, so registration costs nothing during simulation.
    pub fn register_into(&self, reg: &mut StatsRegistry, slot: usize) {
        let p = |field: &str| format!("tile.{slot}.{field}");
        reg.set_counter(&p("retired"), self.retired);
        reg.set_counter(&p("issued"), self.issued);
        reg.set_counter(&p("cycles"), self.cycles);
        if let Some(done) = self.done_at {
            reg.set_counter(&p("done_at"), done);
        }
        reg.set_counter(&p("dbbs_launched"), self.dbbs_launched);
        reg.set_counter(&p("mispredicts"), self.mispredicts);
        for kind in StallKind::all() {
            reg.set_counter(&p(&format!("stall.{}", kind.label())), self.stalls[kind as usize]);
        }
        reg.set_counter(&p("accel.invocations"), self.accel_invocations);
        reg.set_counter(&p("accel.cycles"), self.accel_cycles);
        reg.set_gauge(&p("energy_pj"), self.energy_pj);
        reg.set_gauge(&p("ipc"), self.ipc());
    }
}

// Every counter, checkpointed; the `name` comes from the configuration.
mosaic_ckpt::snap_fields!(TileStats: retired, issued, cycles, done_at, energy_pj, dbbs_launched,
    mispredicts, stalls, accel_invocations, accel_cycles);

/// A tile's report of when it can next make architectural progress,
/// used by the Interleaver's event-horizon fast-forward scheduler.
///
/// The contract: if a tile reports anything other than [`Horizon::Ready`],
/// then stepping it at any cycle before the reported horizon must be a
/// no-op except for stall counters — no launches, issues, retires, or
/// channel/memory traffic. Stall counters accumulated over skipped cycles
/// are restored through [`Tile::on_cycles_skipped`], keeping fast-forward
/// runs bit-identical to the naive single-cycle stepper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The tile has work at its very next aligned cycle; do not skip.
    Ready,
    /// Nothing can happen before this absolute cycle (e.g. an in-flight
    /// completion retires, a launch gate opens, a channel head matures).
    At(u64),
    /// Progress requires an external event — a memory completion or an
    /// action by another tile. The memory hierarchy's and the other
    /// tiles' horizons bound the skip instead.
    Blocked,
}

/// A hardware tile the Interleaver advances cycle by cycle (paper §II:
/// "tiles operate alongside each other, each being called upon by the
/// Interleaver to take a single-cycle step").
///
/// Four methods are required: [`Tile::clock_divisor`],
/// [`Tile::on_mem_completion`], [`Tile::step`] and [`Tile::stats`]. The
/// rest have defaults that are correct but slow (DESIGN.md §4.2): such a
/// tile is never skipped, so a deadlock among such tiles shows only at
/// the cycle limit; it records no profile or timeline; and a checkpoint
/// of it is refused, naming it.
pub trait Tile {
    /// Display name.
    fn name(&self) -> &str {
        &self.stats().name
    }

    /// Clock divisor relative to the global clock, at least 1: the
    /// Interleaver steps this tile only on cycles divisible by the divisor
    /// (paper §II: "tiles may run at different clock speeds").
    fn clock_divisor(&self) -> u64;

    /// A memory request issued by this tile completed.
    fn on_mem_completion(&mut self, id: ReqId, now: u64);

    /// Advances one cycle. Returns whether the step did observable work
    /// (moved [`Tile::progress_mark`]): the Interleaver decides from it when
    /// to attempt a skip, and dates a deadlock by the last step that did.
    ///
    /// # Errors
    ///
    /// Returns a [`TileError`] when the step hits a malformed-input
    /// condition (trace/kernel mismatch, missing accelerator model,
    /// rejected memory request). The tile's state is unspecified after an
    /// error; the Interleaver aborts the run with it.
    fn step(&mut self, ctx: &mut TileCtx<'_>) -> Result<bool, TileError>;

    /// Whether the tile has drained all work.
    fn is_done(&self) -> bool {
        self.stats().done_at.is_some()
    }

    /// Statistics so far.
    fn stats(&self) -> &TileStats;

    /// Earliest cycle `>= now` at which stepping this tile could change
    /// architectural state (see [`Horizon`] for the contract). `now` is
    /// the next cycle the Interleaver would execute. By default
    /// [`Horizon::Ready`]: the tile is stepped every cycle of its clock.
    fn next_event(&self, _now: u64, _channels: &ChannelSet) -> Horizon {
        Horizon::Ready
    }

    /// Credits the stall counters this tile would have accumulated over
    /// `aligned_cycles` skipped tile-clock cycles in which it was blocked.
    /// `now` is the first skipped cycle; the blocked condition (and hence
    /// the per-cycle stall profile) is constant over the whole skipped
    /// span, so the tile may evaluate it once at `now` and multiply.
    /// Called by the fast-forward scheduler with the channel state frozen
    /// as it was when [`Tile::next_event`] reported the block — never for
    /// a tile whose `next_event` is the default.
    fn on_cycles_skipped(&mut self, _now: u64, _aligned_cycles: u64, _channels: &ChannelSet) {}

    /// `TileStats::progress_mark`, whose move [`Tile::step`] reports.
    fn progress_mark(&self) -> u64 {
        self.stats().progress_mark()
    }

    /// A frozen description of why this tile cannot advance, taken when
    /// the Interleaver diagnoses a deadlock or watchdog timeout.
    ///
    /// Implementations must derive it from architectural state only —
    /// never from cumulative stall counters — so the snapshot is
    /// bit-identical whether the deadlock was found by the fast-forward
    /// scheduler or by the naive watchdog. By default the tile names
    /// itself, [`StallReason::Idle`], and what it has retired.
    fn stall_info(&self, _now: u64, _channels: &ChannelSet) -> TileStallInfo {
        TileStallInfo {
            tile: self.name().to_string(),
            reason: StallReason::Idle,
            inst: None,
            pc: 0,
            retired: self.stats().retired,
            mem_in_flight: 0,
        }
    }

    /// Sets the observability level before the run starts (by default,
    /// ignored).
    fn set_observe(&mut self, _level: ObsLevel) {}

    /// Takes the tile's recorded timeline spans, keyed to its memory slot
    /// (pid 0 tracks), which is its place among the Interleaver's tiles.
    /// Empty by default.
    fn take_timeline(&mut self) -> Timeline {
        Timeline::new()
    }

    /// Takes the tile's IR-level profile (per-static-instruction
    /// retire/stall/latency attribution). Empty by default.
    fn take_profile(&mut self) -> IrProfile {
        IrProfile::new()
    }

    /// Serializes this tile's dynamic state into a checkpoint section
    /// (see `mosaic-ckpt`). Static state — the module, trace, DDG, and
    /// configuration — is *not* written; a restore rebuilds it from the
    /// same configuration and only overwrites dynamic state. By default
    /// nothing is written, and [`Tile::restore_state`] refuses it.
    fn save_state(&self, _enc: &mut mosaic_ckpt::Enc) {}

    /// Restores the dynamic state written by [`Tile::save_state`] into a
    /// freshly built tile of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`mosaic_ckpt::CkptError`] when the section is
    /// truncated, corrupt, or was written by a differently shaped tile.
    /// By default always [`mosaic_ckpt::CkptError::Mismatch`], naming the
    /// tile: it saved no state to resume from.
    fn restore_state(
        &mut self,
        _dec: &mut mosaic_ckpt::Dec<'_>,
    ) -> Result<(), mosaic_ckpt::CkptError> {
        Err(mosaic_ckpt::CkptError::mismatch(format!(
            "tile '{}' does not checkpoint its state",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{
        run_single, run_tiles, BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal,
        TileProgram, Type,
    };
    use mosaic_mem::{CacheConfig, DramKind, HierarchyConfig, PrefetchConfig, SimpleDramConfig};
    use mosaic_trace::TraceRecorder;
    use std::sync::Arc;

    /// Builds a vector-increment kernel and its trace.
    fn traced_kernel(n: i64) -> (Arc<Module>, mosaic_ir::FuncId, Arc<mosaic_trace::TileTrace>) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, nn) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), nn, |b, i| {
            let a = b.gep(p, i, 4);
            let v = b.load(Type::I32, a);
            let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
            b.store(a, v2);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mut mem = MemImage::new();
        let buf = mem.alloc_i32(n as u64);
        let mut rec = TraceRecorder::new(1);
        run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(buf as i64), RtVal::Int(n)],
            &mut rec,
        )
        .unwrap();
        let trace = rec.finish();
        (Arc::new(m), f, Arc::new(trace.tile(0).clone()))
    }

    pub(crate) fn small_mem(tiles: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(
            HierarchyConfig {
                l1: CacheConfig::new("L1", 4 * 1024).with_ways(4).with_latency(1),
                l2: None,
                llc: CacheConfig::new("LLC", 64 * 1024).with_ways(8).with_latency(8),
                mshr_entries: 16,
                prefetch: PrefetchConfig::disabled(),
                dram: DramKind::Simple(SimpleDramConfig {
                    min_latency: 60,
                    epoch_cycles: 64,
                    max_per_epoch: 16,
                }),
                atomic_penalty: 16,
                noc: None,
            },
            tiles,
        )
    }

    /// What `mem` has completed since the last call.
    pub(crate) fn drain(mem: &mut MemoryHierarchy) -> Vec<mosaic_mem::Completion> {
        let mut done = Vec::new();
        mem.drain_completions_into(&mut done);
        done
    }

    /// Steps cycle `now` of `tiles`, each at its memory slot: the memory,
    /// then each completion handed to the tile that asked for it, then
    /// every tile in slot order.
    fn step_tiles(
        now: u64,
        tiles: &mut [&mut CoreTile],
        mem: &mut MemoryHierarchy,
        channels: &mut ChannelSet,
        accel: &mut dyn AccelSim,
    ) {
        mem.step(now);
        for c in drain(mem) {
            tiles[c.tile].on_mem_completion(c.id, now);
        }
        for tile in tiles {
            let mut ctx = TileCtx {
                now,
                mem: &mut *mem,
                channels: &mut *channels,
                accel: &mut *accel,
            };
            tile.step(&mut ctx).expect("step");
        }
    }

    /// Runs one tile to completion, returning its completion cycle.
    pub(crate) fn run_tile(tile: &mut CoreTile, mem: &mut MemoryHierarchy) -> u64 {
        let mut channels = ChannelSet::new(ChannelConfig::default());
        let mut now = 0u64;
        while !tile.is_done() {
            step_tiles(now, &mut [&mut *tile], mem, &mut channels, &mut NoAccel);
            now += 1;
            assert!(now < 10_000_000, "tile did not finish");
        }
        tile.stats().done_at.expect("done")
    }

    #[test]
    fn ooo_core_completes_and_counts_match_trace() {
        let (m, f, trace) = traced_kernel(64);
        let expected = trace.retired();
        let mut mem = small_mem(1);
        let mut tile = CoreTile::new(CoreConfig::out_of_order(), m, f, trace, 0);
        let cycles = run_tile(&mut tile, &mut mem);
        assert!(cycles > 0);
        assert_eq!(
            tile.stats().retired,
            expected,
            "every traced instruction retires"
        );
        assert_eq!(tile.stats().issued, expected);
    }

    #[test]
    fn out_of_order_is_faster_than_in_order() {
        let (m, f, trace) = traced_kernel(128);
        let mut mem1 = small_mem(1);
        let mut ooo = CoreTile::new(CoreConfig::out_of_order(), m.clone(), f, trace.clone(), 0);
        let t_ooo = run_tile(&mut ooo, &mut mem1);
        let mut mem2 = small_mem(1);
        let mut ino = CoreTile::new(CoreConfig::in_order(), m, f, trace, 0);
        let t_ino = run_tile(&mut ino, &mut mem2);
        assert!(
            t_ooo * 2 < t_ino,
            "OoO ({t_ooo}) should be much faster than InO ({t_ino})"
        );
    }

    #[test]
    fn wider_issue_helps() {
        let (m, f, trace) = traced_kernel(128);
        let mut narrow = CoreConfig::out_of_order();
        narrow.issue_width = 1;
        let mut mem1 = small_mem(1);
        let mut t1 = CoreTile::new(narrow, m.clone(), f, trace.clone(), 0);
        let c1 = run_tile(&mut t1, &mut mem1);
        let mut mem2 = small_mem(1);
        let mut t4 = CoreTile::new(CoreConfig::out_of_order(), m, f, trace, 0);
        let c4 = run_tile(&mut t4, &mut mem2);
        assert!(c4 < c1, "width 4 ({c4}) beats width 1 ({c1})");
    }

    #[test]
    fn perfect_branch_mode_beats_no_speculation() {
        let (m, f, trace) = traced_kernel(128);
        let mut none = CoreConfig::out_of_order();
        none.branch = BranchMode::None;
        let mut mem1 = small_mem(1);
        let mut t_none = CoreTile::new(none, m.clone(), f, trace.clone(), 0);
        let c_none = run_tile(&mut t_none, &mut mem1);
        let mut perfect = CoreConfig::out_of_order();
        perfect.branch = BranchMode::Perfect;
        let mut mem2 = small_mem(1);
        let mut t_perf = CoreTile::new(perfect, m, f, trace, 0);
        let c_perf = run_tile(&mut t_perf, &mut mem2);
        assert!(
            c_perf < c_none,
            "speculative DBB launch ({c_perf}) beats waiting for terminators ({c_none})"
        );
    }

    #[test]
    fn static_prediction_counts_mispredicts_on_loop_exit() {
        let (m, f, trace) = traced_kernel(32);
        let mut mem = small_mem(1);
        let mut tile = CoreTile::new(CoreConfig::out_of_order(), m, f, trace, 0);
        run_tile(&mut tile, &mut mem);
        // The backward branch is predicted taken every iteration; the final
        // exit mispredicts (plus possibly the entry/cont edges).
        assert!(tile.stats().mispredicts >= 1);
        assert!(tile.stats().mispredicts <= 4);
    }

    #[test]
    fn live_dbb_limit_throttles() {
        let (m, f, trace) = traced_kernel(64);
        let mut unrolled = CoreConfig::accelerator(8);
        let mut mem1 = small_mem(1);
        let mut t8 = CoreTile::new(unrolled.clone(), m.clone(), f, trace.clone(), 0);
        let c8 = run_tile(&mut t8, &mut mem1);
        unrolled.live_dbb_limit = Some(1);
        let mut mem2 = small_mem(1);
        let mut t1 = CoreTile::new(unrolled, m, f, trace, 0);
        let c1 = run_tile(&mut t1, &mut mem2);
        assert!(c8 < c1, "8 live DBBs ({c8}) beat 1 ({c1})");
    }

    #[test]
    fn fusion_reduces_cycles() {
        let (m, f, trace) = traced_kernel(128);
        let mut mem1 = small_mem(1);
        let mut plain = CoreTile::new(CoreConfig::out_of_order(), m.clone(), f, trace.clone(), 0);
        let c_plain = run_tile(&mut plain, &mut mem1);
        let mut fused_cfg = CoreConfig::out_of_order();
        fused_cfg.fusion = FusionConfig::x86_like();
        let mut mem2 = small_mem(1);
        let mut fused = CoreTile::new(fused_cfg, m, f, trace, 0);
        let c_fused = run_tile(&mut fused, &mut mem2);
        assert!(c_fused <= c_plain);
        // Fused geps/cmps still retire.
        assert_eq!(fused.stats().retired, plain.stats().retired);
    }

    #[test]
    fn send_recv_pair_of_tiles_drains() {
        // Producer sends n values; consumer receives them.
        let mut m = Module::new("t");
        let prod = m.add_function("prod", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(prod));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, i| {
            b.send(0, i);
        });
        b.ret(None);
        let cons = m.add_function("cons", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(cons));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, _| {
            b.recv(0, Type::I64);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();

        let progs = vec![
            TileProgram::single(prod, vec![RtVal::Int(50)]),
            TileProgram::single(cons, vec![RtVal::Int(50)]),
        ];
        let mut rec = TraceRecorder::new(2);
        run_tiles(&m, MemImage::new(), &progs, &mut rec).unwrap();
        let trace = rec.finish();
        let m = Arc::new(m);

        let mut mem = small_mem(2);
        let mut channels = ChannelSet::new(ChannelConfig {
            capacity: 8,
            latency: 1,
        });
        let mut accel = NoAccel;
        let mut t0 = CoreTile::new(
            CoreConfig::in_order().with_name("producer"),
            m.clone(),
            prod,
            Arc::new(trace.tile(0).clone()),
            0,
        );
        let mut t1 = CoreTile::new(
            CoreConfig::in_order().with_name("consumer"),
            m,
            cons,
            Arc::new(trace.tile(1).clone()),
            1,
        );
        let mut now = 0u64;
        while !(t0.is_done() && t1.is_done()) {
            step_tiles(now, &mut [&mut t0, &mut t1], &mut mem, &mut channels, &mut accel);
            now += 1;
            assert!(now < 1_000_000, "send/recv tiles deadlocked");
        }
        assert!(channels.all_empty());
        let ch = channels.channel(0).expect("used channel");
        assert_eq!(ch.sends(), 50);
        assert_eq!(ch.recvs(), 50);
    }

    #[test]
    fn accel_invocation_blocks_core() {
        // A kernel that invokes SGEMM twice.
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![
                ("a".into(), Type::Ptr),
                ("b".into(), Type::Ptr),
                ("c".into(), Type::Ptr),
            ],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let (pa, pb, pc) = (b.param(0), b.param(1), b.param(2));
        for _ in 0..2 {
            b.accel_call(
                mosaic_ir::AccelOp::Sgemm,
                vec![
                    pa,
                    pb,
                    pc,
                    Constant::i64(4).into(),
                    Constant::i64(4).into(),
                    Constant::i64(4).into(),
                ],
            );
        }
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mut img = MemImage::new();
        let a = img.alloc_f32(16);
        let bb = img.alloc_f32(16);
        let c = img.alloc_f32(16);
        let mut rec = TraceRecorder::new(1);
        run_single(
            &m,
            img,
            f,
            vec![
                RtVal::Int(a as i64),
                RtVal::Int(bb as i64),
                RtVal::Int(c as i64),
            ],
            &mut rec,
        )
        .unwrap();
        let trace = rec.finish();

        struct FixedAccel;
        impl AccelSim for FixedAccel {
            fn invoke(&mut self, _a: AccelOp, _args: &[i64]) -> Result<AccelResult, TileError> {
                Ok(AccelResult {
                    cycles: 500,
                    energy_pj: 1000.0,
                })
            }
        }
        let mut mem = small_mem(1);
        let mut channels = ChannelSet::new(ChannelConfig::default());
        let mut accel = FixedAccel;
        let mut tile = CoreTile::new(
            CoreConfig::out_of_order(),
            Arc::new(m),
            f,
            Arc::new(trace.tile(0).clone()),
            0,
        );
        let mut now = 0;
        while !tile.is_done() {
            step_tiles(now, &mut [&mut tile], &mut mem, &mut channels, &mut accel);
            now += 1;
            assert!(now < 100_000);
        }
        let st = tile.stats();
        assert_eq!(st.accel_invocations, 2);
        assert_eq!(st.accel_cycles, 1000);
        // Two serialized 500-cycle invocations dominate the runtime.
        assert!(st.done_at.unwrap() >= 1000);
        assert!(st.energy_pj >= 2000.0);
    }

    /// A DeSC store-value `recv` (window-exempt) that waits long for its
    /// message pins the oldest slot of the in-flight ring while thousands
    /// of younger instructions launch and retire behind it: the ring's
    /// span outgrows `max_inflight` though the live count never does. The
    /// tile must keep launching, checkpoint and restore mid-wait, and
    /// finish identically on both sides of the checkpoint.
    #[test]
    fn long_lived_window_exempt_slot_outlives_the_ring_span() {
        let mut m = Module::new("t");
        let prod = m.add_function("prod", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(prod));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.send(0, Constant::i32(7).into());
        b.ret(None);
        let cons = m.add_function("cons", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(cons));
        let p = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.recv(0, Type::I32);
        b.store(p, v);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(400).into(), |b, i| {
            let x = b.bin(BinOp::Mul, i, Constant::i64(3).into());
            b.bin(BinOp::Add, x, i);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mut img = MemImage::new();
        let buf = img.alloc_i32(1);
        let progs = vec![
            TileProgram::single(prod, vec![]),
            TileProgram::single(cons, vec![RtVal::Int(buf as i64)]),
        ];
        let mut rec = TraceRecorder::new(2);
        run_tiles(&m, img, &progs, &mut rec).unwrap();
        let trace = Arc::new(rec.finish().tile(1).clone());
        let m = Arc::new(m);

        let mut cfg = CoreConfig::out_of_order().with_desc_extensions(true);
        cfg.max_inflight = 32;
        let tile = || CoreTile::new(cfg.clone(), m.clone(), cons, trace.clone(), 0);
        // One tile with its own memory and channels, stepped one cycle.
        struct Rig(CoreTile, MemoryHierarchy, ChannelSet);
        let step = |rig: &mut Rig, now: u64| {
            let Rig(tile, mem, channels) = rig;
            step_tiles(now, &mut [tile], mem, channels, &mut NoAccel);
        };
        let channels = || ChannelSet::new(ChannelConfig::default());
        let mut a = Rig(tile(), small_mem(1), channels());
        let mut now = 0;
        // The message is withheld: the `recv` (sequence id 0) stays in
        // flight, so the ring spans at least every retired instruction.
        while a.0.stats().retired < 8 * cfg.max_inflight {
            step(&mut a, now);
            now += 1;
            assert!(now < 100_000 && !a.0.is_done(), "stalled behind the recv");
        }
        let info = a.0.stall_info(now, &a.2);
        assert_eq!(info.reason, StallReason::RecvEmpty { queue: 0 });

        // Fork: restore the snapshot into a fresh tile (memory and
        // channels are still untouched, so fresh ones match).
        let mut enc = mosaic_ckpt::Enc::new();
        a.0.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = Rig(tile(), small_mem(1), channels());
        b.0.restore_state(&mut mosaic_ckpt::Dec::new(&bytes)).expect("restore");
        let mut again = mosaic_ckpt::Enc::new();
        b.0.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes, "restore then save is the identity");

        for rig in [&mut a, &mut b] {
            assert!(rig.2.channel_mut(0).try_send(now));
        }
        while !(a.0.is_done() && b.0.is_done()) {
            step(&mut a, now);
            step(&mut b, now);
            now += 1;
            assert!(now < 100_000, "did not drain after the message arrived");
        }
        assert_eq!(a.0.stats(), b.0.stats());
        assert_eq!(a.0.stats().retired, trace.retired());
    }

    #[test]
    fn stats_ipc_is_positive_for_finished_tiles() {
        let (m, f, trace) = traced_kernel(32);
        let mut mem = small_mem(1);
        let mut tile = CoreTile::new(CoreConfig::out_of_order(), m, f, trace, 0);
        run_tile(&mut tile, &mut mem);
        assert!(tile.stats().ipc() > 0.0);
    }
}

#[cfg(test)]
mod bimodal_tests {
    use super::*;
    use std::sync::Arc;

    /// A kernel with a data-dependent branch taken once every `stride`
    /// iterations — heavily biased, so a 2-bit counter learns it while
    /// the CFG-based static predictor cannot know the bias.
    fn biased_kernel(
        n: i64,
        stride: i64,
    ) -> (Arc<mosaic_ir::Module>, mosaic_ir::FuncId, Arc<mosaic_trace::TileTrace>) {
        use mosaic_ir::{BinOp, Constant, FunctionBuilder, IntPredicate, MemImage, Module, RtVal, Type};
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, nn) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), nn, |b, i| {
            let rem = b.bin(BinOp::SRem, i, Constant::i64(stride).into());
            let c = b.icmp(IntPredicate::Eq, rem, Constant::i64(0).into());
            let rare = b.create_block("rare");
            let cont = b.create_block("cont");
            b.cond_br(c, rare, cont);
            b.switch_to(rare);
            let a = b.gep(p, i, 4);
            b.store(a, Constant::i32(1).into());
            b.br(cont);
            b.switch_to(cont);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mut mem = MemImage::new();
        let buf = mem.alloc_i32(n as u64);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        mosaic_ir::run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(buf as i64), RtVal::Int(n)],
            &mut rec,
        )
        .unwrap();
        let tr = rec.finish();
        (Arc::new(m), f, Arc::new(tr.tile(0).clone()))
    }

    fn run(mode: BranchMode, m: &Arc<mosaic_ir::Module>, f: mosaic_ir::FuncId, tr: &Arc<mosaic_trace::TileTrace>) -> TileStats {
        let mut cfg = CoreConfig::out_of_order();
        cfg.branch = mode;
        let mut mem = mosaic_mem::MemoryHierarchy::new(
            mosaic_mem::HierarchyConfig::default(),
            1,
        );
        let mut tile = CoreTile::new(cfg, m.clone(), f, tr.clone(), 0);
        crate::tests::run_tile(&mut tile, &mut mem);
        tile.stats().clone()
    }

    #[test]
    fn bimodal_completes_and_counts_mispredicts() {
        let (m, f, tr) = biased_kernel(64, 8);
        let stats = run(BranchMode::Bimodal, &m, f, &tr);
        assert_eq!(stats.retired, tr.retired());
        // The rare direction mispredicts; the common one is learned.
        assert!(stats.mispredicts > 0);
        assert!(stats.mispredicts < tr.path().len() as u64 / 3);
    }

    #[test]
    fn bimodal_beats_static_on_biased_branches_and_loses_to_perfect() {
        let (m, f, tr) = biased_kernel(256, 8);
        let none = run(BranchMode::None, &m, f, &tr);
        let bimodal = run(BranchMode::Bimodal, &m, f, &tr);
        let perfect = run(BranchMode::Perfect, &m, f, &tr);
        assert!(
            bimodal.done_at.unwrap() < none.done_at.unwrap(),
            "bimodal ({:?}) should beat no speculation ({:?})",
            bimodal.done_at,
            none.done_at
        );
        assert!(
            perfect.done_at.unwrap() <= bimodal.done_at.unwrap(),
            "perfect cannot lose to bimodal"
        );
        assert_eq!(perfect.mispredicts, 0);
        // The biased branch is learned: far fewer mispredicts than its
        // dynamic executions.
        assert!(bimodal.mispredicts < 256 / 2);
    }

    #[test]
    fn bimodal_learns_biased_loops_better_than_alternation() {
        // On a plain counted loop (always-taken back edge) the bimodal
        // table converges to near-zero mispredicts.
        use mosaic_ir::{BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal, Type};
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let p = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(200).into(), |b, i| {
            let a = b.gep(p, i, 4);
            let v = b.load(Type::I32, a);
            let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
            b.store(a, v2);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mut mem = MemImage::new();
        let buf = mem.alloc_i32(200);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        mosaic_ir::run_single(&m, mem, f, vec![RtVal::Int(buf as i64)], &mut rec).unwrap();
        let tr = Arc::new(rec.finish().tile(0).clone());
        let m = Arc::new(m);
        let stats = run(BranchMode::Bimodal, &m, f, &tr);
        assert!(
            stats.mispredicts <= 3,
            "a counted loop should converge: {} mispredicts",
            stats.mispredicts
        );
    }
}

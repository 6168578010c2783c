//! The graph-based core tile model (paper §II-A, §III).
//!
//! A [`CoreTile`] replays one tile's kernel: it launches *Dynamic Basic
//! Blocks* (DBBs) serially along the recorded control-flow path, resolves
//! each dynamic instruction's parents (intra-DBB, cross-DBB, and
//! phi-via-taken-predecessor), and issues instructions cycle by cycle
//! subject to the microarchitectural resource limits of §III-A:
//!
//! * **issue width** — at most W instructions issue per cycle;
//! * **instruction window (ROB)** — only instructions whose sequence id
//!   lies within a sliding window (anchored at the oldest incomplete
//!   instruction) may issue;
//! * **LSQ via the MAO** — memory ordering rules and capacity (see
//!   [`crate::Mao`]);
//! * **functional units** — per-class limits;
//! * **live-DBB limits** — at most N in-flight DBBs per static block;
//! * **branch speculation** — next-DBB launch gated by the previous
//!   terminator under [`BranchMode`](crate::BranchMode);
//! * **inter-tile queues** — `send`/`recv` stall on full/empty channels;
//! * **accelerator invocations** — synchronous calls into an
//!   [`AccelSim`](crate::AccelSim) model (paper §IV-A).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use mosaic_ckpt::{CkptError, Dec, Enc};
use mosaic_ddg::{InstClass, LaunchPlan, MemKind, PlanEdge, StaticDdg};
use mosaic_ir::{BlockId, FuncId, InstId, Module, Opcode};
use mosaic_mem::{AccessKind, MemError, MemReq, ReqId};
use mosaic_obs::{IrProfile, ObsLevel, ProfileTable, SpanName, StallKind, Timeline, STALL_KINDS};
use mosaic_trace::{CursorPos, TileTrace};

use crate::config::{fused_insts, BranchMode, CoreConfig};
use crate::mao::{Mao, MaoStall};
use crate::{
    Channel, ChannelSet, Horizon, StallReason, Tile, TileCtx, TileError, TileStallInfo, TileStats,
};

/// Role of an instruction under the DeSC extensions (paper §VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DescRole {
    /// A load whose value feeds straight into a `send`: fire-and-forget;
    /// hardware pushes the returning data into the channel.
    TerminalLoad { queue: u32 },
    /// The `send` paired with a terminal load (absorbed by hardware).
    SkipSend,
    /// A `recv` whose value feeds straight into a store (store value
    /// buffer): exempt from the instruction window.
    StoreRecv,
    /// A store whose value comes from a `recv`: fire-and-forget via the
    /// store address/value buffers.
    DetachedStore,
}

impl DescRole {
    /// Whether the op lives in a DeSC buffer instead of the instruction
    /// window.
    fn window_exempt(self) -> bool {
        matches!(
            self,
            DescRole::TerminalLoad { .. } | DescRole::StoreRecv | DescRole::DetachedStore
        )
    }

    /// Whether the op is a fire-and-forget memory access: it lives in the
    /// terminal-load / store buffers, outside the MAO (the DeSC hardware
    /// structures handle its ordering).
    fn detached(self) -> bool {
        matches!(
            self,
            DescRole::TerminalLoad { .. } | DescRole::DetachedStore
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DynState {
    Waiting,
    Ready,
    Issued,
    /// Completed: the slot is dead and waits to leave the ring.
    Done,
}

/// "No node": the end of a child list, or an empty free list.
const NIL: u32 = u32::MAX;

/// One in-flight dynamic instruction. What is static about it is read
/// through `plan`, never copied.
#[derive(Debug, Clone, Copy)]
struct DynInst {
    /// Index into the tile's [`LaunchPlan`].
    plan: u32,
    state: DynState,
    /// Whether the DeSC role exempts it from the instruction window.
    window_exempt: bool,
    remaining_parents: u32,
    dbb: u64,
    /// Its children, in launch order: a list in [`InFlight::nodes`].
    first_child: u32,
    last_child: u32,
    mem: Option<(u64, u8, AccessKind)>,
    /// For an accelerator call: its index in the trace's stream.
    accel_at: u32,
}

/// The launched-but-incomplete instructions, as a ring indexed by
/// `seq - base_seq`. Sequence ids are allocated densely and
/// monotonically, a slot is live iff its instruction is in flight, and
/// the window head only moves forward (DESIGN.md §4.2).
#[derive(Debug)]
struct InFlight {
    /// Sequence id of `slots[0]`; the next id to allocate is
    /// `base_seq + slots.len()`.
    base_seq: u64,
    slots: VecDeque<DynInst>,
    /// Slots not yet `Done`.
    live: usize,
    /// The window head: the oldest instruction that is neither complete
    /// nor window-exempt (`next_seq()` when there is none).
    head: u64,
    /// Child-list nodes `(child seq, next node)`, shared by all slots and
    /// recycled through the free list `free`.
    nodes: Vec<(u64, u32)>,
    free: u32,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            base_seq: 0,
            slots: VecDeque::new(),
            live: 0,
            head: 0,
            nodes: Vec::new(),
            free: NIL,
        }
    }

    fn next_seq(&self) -> u64 {
        self.base_seq + self.slots.len() as u64
    }

    /// The in-flight instruction `seq`, if it has not completed.
    fn get(&self, seq: u64) -> Option<&DynInst> {
        let at = seq.checked_sub(self.base_seq)?;
        self.slots
            .get(at as usize)
            .filter(|d| d.state != DynState::Done)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        let at = seq.checked_sub(self.base_seq)?;
        self.slots
            .get_mut(at as usize)
            .filter(|d| d.state != DynState::Done)
    }

    /// Moves the window head past completed and window-exempt slots.
    fn advance_head(&mut self) {
        self.head = self.head.max(self.base_seq);
        while let Some(d) = self.slots.get((self.head - self.base_seq) as usize) {
            if d.state != DynState::Done && !d.window_exempt {
                break;
            }
            self.head += 1;
        }
    }

    /// Appends `di` as the youngest instruction.
    fn push(&mut self, di: DynInst) {
        self.slots.push_back(di);
        self.live += 1;
        self.advance_head();
    }

    /// Records `child` as waiting on `parent`; `false` (and nothing
    /// recorded) when `parent` already completed.
    fn add_child(&mut self, parent: u64, child: u64) -> bool {
        if self.get(parent).is_none() {
            return false;
        }
        let node = match self.free {
            NIL => {
                self.nodes.push((child, NIL));
                (self.nodes.len() - 1) as u32
            }
            node => {
                self.free = self.nodes[node as usize].1;
                self.nodes[node as usize] = (child, NIL);
                node
            }
        };
        let p = self.get_mut(parent).expect("checked above");
        let tail = std::mem::replace(&mut p.last_child, node);
        if tail == NIL {
            p.first_child = node;
        } else {
            self.nodes[tail as usize].1 = node;
        }
        true
    }

    /// Frees child-list node `node`, returning its child and successor.
    fn take_child(&mut self, node: u32) -> (u64, u32) {
        let (child, next) = self.nodes[node as usize];
        self.nodes[node as usize].1 = self.free;
        self.free = node;
        (child, next)
    }

    /// The children of `di`, in launch order.
    fn children<'a>(&'a self, di: &DynInst) -> impl Iterator<Item = u64> + 'a {
        let mut node = di.first_child;
        std::iter::from_fn(move || {
            let (child, next) = *self.nodes.get(node as usize)?;
            node = next;
            Some(child)
        })
    }

    /// Takes `seq` out of flight, returning it as it was (its child list
    /// is the caller's to free); `None` if it is not in flight.
    fn retire(&mut self, seq: u64) -> Option<DynInst> {
        let slot = self.get_mut(seq)?;
        let di = *slot;
        slot.state = DynState::Done;
        self.live -= 1;
        while self
            .slots
            .front()
            .is_some_and(|d| d.state == DynState::Done)
        {
            self.slots.pop_front();
            self.base_seq += 1;
        }
        self.advance_head();
        Some(di)
    }

    /// The `Ready` slots with sequence ids in `[from, to)` that are subject
    /// to the window check, ascending.
    fn parked_in(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, &DynInst)> {
        // The ranges asked about are short: the ids a window edge passed.
        let hi = to.clamp(self.base_seq, self.next_seq());
        let lo = from.clamp(self.base_seq, hi);
        (lo..hi)
            .map(|seq| (seq, &self.slots[(seq - self.base_seq) as usize]))
            .filter(|(_, d)| d.state == DynState::Ready && !d.window_exempt)
    }
}

/// The `Ready` instructions as the issue stage meets them: the candidates
/// the window check can pass, in issue order, and the backlog parked behind
/// the window — a count to the issue stage, which charges it a window stall
/// each without a visit. A parked instruction stays `DynState::Ready` in
/// its slot and becomes a candidate when a walk finds that the window has
/// come to cover it (DESIGN.md §4.2.2).
#[derive(Debug, Default)]
struct ReadySet {
    /// `Ready` instructions below `unparked_to`, and window-exempt ones
    /// wherever they are, ascending.
    cands: Vec<u64>,
    /// `Ready` instructions at or beyond `unparked_to` that are not
    /// window-exempt, in the order they woke — and, until the next sweep,
    /// `stale` entries the window has passed. Only per-instruction
    /// attribution reads it.
    parked: Vec<u64>,
    stale: usize,
    /// The window limit of the last walk: parking starts here. While a
    /// walk runs it is `u64::MAX` and what the walk wakes waits in `woken`
    /// (ascending) to be filed when it ends: the walk offers, and the
    /// backlog it charges is, what was ready at the start of the cycle.
    unparked_to: u64,
    woken: Vec<u64>,
    /// The running walk: the next candidate to offer (those before it that
    /// did not issue are compacted into `cands[..kept]`), the issue width
    /// left, and the candidate that took the last issue slot.
    at: usize,
    kept: usize,
    width_left: u32,
    last_issued: u64,
}

impl ReadySet {
    /// Files `seq`, which just became `Ready`.
    fn wake(&mut self, seq: u64, window_exempt: bool) {
        if self.unparked_to == u64::MAX {
            insert_sorted(&mut self.woken, seq);
        } else if window_exempt || seq < self.unparked_to {
            insert_sorted(&mut self.cands, seq);
        } else {
            self.parked.push(seq);
        }
    }

    /// The set the slot states determine, for a window ending at
    /// `window_limit`.
    fn rebuild(inflight: &InFlight, window_limit: u64) -> Self {
        let mut set = ReadySet {
            unparked_to: window_limit,
            ..ReadySet::default()
        };
        for (seq, di) in (inflight.base_seq..).zip(&inflight.slots) {
            if di.state == DynState::Ready {
                set.wake(seq, di.window_exempt);
            }
        }
        set
    }

    /// The instructions parked behind a window ending at `window_limit`,
    /// which is not below `unparked_to`.
    fn parked_beyond(&self, window_limit: u64) -> impl Iterator<Item = u64> + '_ {
        let parked = self.parked.iter().copied();
        parked.filter(move |&seq| seq >= window_limit)
    }

    /// Starts the walk of a cycle whose window ends at `window_limit`: the
    /// parked instructions the window has come to cover become candidates.
    fn begin_walk(&mut self, inflight: &InFlight, window_limit: u64, width: u32) {
        if self.unparked_to < window_limit {
            for (seq, _) in inflight.parked_in(self.unparked_to, window_limit) {
                insert_sorted(&mut self.cands, seq);
                self.stale += 1;
            }
            // Sweeping when half the entries are stale costs each a constant.
            if self.stale > self.parked.len() / 2 {
                self.parked.retain(|&seq| seq >= window_limit);
                self.stale = 0;
            }
        }
        self.unparked_to = u64::MAX;
        (self.at, self.kept, self.width_left, self.last_issued) = (0, 0, width, 0);
    }

    /// The next candidate of the running walk, while issue width is left.
    fn peek(&self) -> Option<u64> {
        let seq = self.cands.get(self.at)?;
        (self.width_left > 0).then_some(*seq)
    }

    /// Records whether the candidate `peek` offered issued.
    fn settle(&mut self, issued: bool) {
        let seq = self.cands[self.at];
        self.at += 1;
        if issued {
            self.width_left -= 1;
            self.last_issued = seq;
        } else {
            self.cands[self.kept] = seq;
            self.kept += 1;
        }
    }

    /// The parked instructions the walk begun at `window_limit` charges a
    /// window stall, as if it had visited them: all of them if issue width
    /// is left, else those older than the issue that took the last slot (a
    /// window-exempt op beyond the window).
    fn charged(&self, window_limit: u64) -> impl Iterator<Item = u64> + '_ {
        let cutoff = match self.width_left {
            0 => self.last_issued,
            _ => u64::MAX,
        };
        // An issue inside the window stopped the walk short of the backlog.
        let reached = if cutoff > window_limit {
            self.parked.len()
        } else {
            0
        };
        let parked = self.parked[..reached].iter().copied();
        parked.filter(move |seq| (window_limit..cutoff).contains(seq))
    }

    /// Ends the walk begun at `window_limit` — fixed for the whole walk,
    /// whatever completed inside it — filing what it woke, and returns how
    /// many instructions it `charged`, without a visit when that is all.
    fn end_walk(&mut self, inflight: &InFlight, window_limit: u64) -> u64 {
        let charged = match self.width_left {
            0 => self.charged(window_limit).count(),
            _ => self.parked.len() - self.stale,
        };
        if self.kept < self.at {
            self.cands.copy_within(self.at.., self.kept);
            self.cands.truncate(self.kept + self.cands.len() - self.at);
        }
        self.unparked_to = window_limit;
        while let Some(seq) = self.woken.pop() {
            let di = inflight.get(seq).expect("woken this cycle");
            self.wake(seq, di.window_exempt);
        }
        charged as u64
    }

    /// What a walk with the window ending at `window_limit` would be
    /// offered, read-only and in no particular order: the candidates, and
    /// the parked instructions the window has come to cover since the
    /// last walk.
    fn candidates<'a>(
        &'a self,
        inflight: &'a InFlight,
        window_limit: u64,
    ) -> impl Iterator<Item = u64> + 'a {
        let entered = inflight.parked_in(self.unparked_to, window_limit);
        let cands = self.cands.iter().copied();
        cands.chain(entered.map(|(seq, _)| seq))
    }

    /// How many instructions would stay parked in such a walk.
    fn backlog(&self, inflight: &InFlight, window_limit: u64) -> u64 {
        let entered = inflight.parked_in(self.unparked_to, window_limit).count();
        (self.parked.len() - self.stale - entered) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaunchGate {
    /// Next DBB may launch immediately.
    Free,
    /// Waiting for the given terminator sequence id to complete; on
    /// completion the gate opens after `penalty` extra cycles.
    WaitTerminator { seq: u64, penalty: u64 },
    /// Open at the given cycle.
    WaitUntil(u64),
}

/// What the completion of an outstanding memory request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqDone {
    /// Completes the instruction `seq`.
    Retire(u64),
    /// A DeSC fire-and-forget access: frees its buffer slot and, for a
    /// terminal load, has hardware push the data into this channel.
    Detached(Option<u32>),
}

/// One outstanding memory request of this tile.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    id: ReqId,
    on_done: ReqDone,
    /// The static instruction that issued it, and when (round-trip
    /// latency attribution when observability is on).
    inst: u32,
    issued_at: u64,
}

/// The stall memo (DESIGN.md §4.2.1): the per-cycle stall profile of a fully
/// blocked tile, as `issue()` would count it — one increment per blocked ready
/// candidate, classified by the first check that rejected it — and how long it
/// stays that. The tile owns one, which every survey refills in place.
#[derive(Debug, Default)]
struct StallMemo {
    /// From the cycle of the blocked survey that filled it to the earliest
    /// time-triggered wake-up that survey found (`u64::MAX`: only an external
    /// event can unblock the tile). Empty while the contents are stale.
    span: std::ops::Range<u64>,
    /// The channels the blocked `send`/`recv` candidates and the front
    /// pending push wait on, with their [`ChannelSet::version`] then.
    watch: Vec<(u32, u64)>,
    /// Blocked candidates by [`StallKind`].
    by_kind: [u64; STALL_KINDS],
    /// MAO-internal classification of the MAO-rejected candidates (these
    /// also count once under `StallKind::Mem`), by `MaoStall as usize`.
    mao: [u64; 3],
    /// Per-static-instruction attribution of the same stalls, populated
    /// only when observability is on: `issue()`'s per-site attribution
    /// exactly, so that crediting it × cycles is what stepping records.
    per_inst: Vec<(u32, StallKind)>,
}

impl StallMemo {
    /// Whether a step at `now` would count these stalls and nothing else,
    /// given a tile unchanged since the survey (what changes it drops this).
    fn holds(&self, now: u64, channels: &ChannelSet) -> bool {
        let unmoved = |&(queue, version)| channels.version(queue) == version;
        self.span.contains(&now) && self.watch.iter().all(unmoved)
    }

    fn watch_channel(&mut self, queue: u32, channels: &ChannelSet) {
        if self.watch.iter().all(|&(q, _)| q != queue) {
            self.watch.push((queue, channels.version(queue)));
        }
    }
}

/// Hot-path observability state, allocated only when
/// [`Tile::set_observe`] raises the level above [`ObsLevel::Off`] — at
/// `Off` the only cost anywhere in the tile is a `None` check.
#[derive(Debug, Default)]
struct TileObs {
    level: ObsLevel,
    profile: ProfileTable,
    timeline: Timeline,
    /// Open compute/stall interval: (is_stall, start cycle).
    interval: Option<(bool, u64)>,
    /// First cycle the tile was stepped.
    first_step: Option<u64>,
    /// Last cycle the tile was stepped while active.
    last_seen: u64,
}

impl TileObs {
    fn push_interval(&mut self, tid: u32, stalled: bool, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let (cat, name) = if stalled {
            ("stall", "stall")
        } else {
            ("tile", "compute")
        };
        self.timeline.span(0, tid, cat, name, start, end);
    }

    /// Extends or transitions the open compute/stall interval at `now`.
    fn note_cycle(&mut self, tid: u32, now: u64, stalled: bool) {
        match self.interval {
            Some((was, _)) if was == stalled => {}
            Some((was, start)) => {
                self.push_interval(tid, was, start, now);
                self.interval = Some((stalled, now));
            }
            None => self.interval = Some((stalled, now)),
        }
    }
}

/// Why `issue()` would pass over a ready candidate this cycle.
struct Stall {
    /// The first check that rejects it.
    kind: StallKind,
    /// The MAO's own classification, when the MAO rejected it.
    mao: Option<MaoStall>,
    /// The channel a `send`/`recv` waits on, and whether it is yet to be
    /// created.
    queue: u32,
    untouched: bool,
    /// When the head of that channel matures, if it has one.
    wake: Option<u64>,
}

impl Stall {
    fn of(kind: StallKind) -> Self {
        Stall {
            kind,
            mao: None,
            queue: 0,
            untouched: false,
            wake: None,
        }
    }
}

/// What `issue()` would do with one ready candidate this cycle.
enum Verdict {
    /// It would issue.
    Issue,
    /// An accelerator call while the accelerator is busy: passed over
    /// without a stall count.
    AccelBusy,
    /// Rejected, and counted as a stall.
    Stall(Stall),
}

/// A core tile replaying a traced kernel over the shared memory hierarchy.
pub struct CoreTile {
    config: CoreConfig,
    module: Arc<Module>,
    func: FuncId,
    /// The static DDG compiled for replay, with this configuration's
    /// zero-cost (fused, hardware-absorbed) instructions marked.
    plan: LaunchPlan,
    /// DeSC role by plan index (all `None` without the DeSC extensions).
    desc: Vec<Option<DescRole>>,
    /// Static prediction by block.
    predictions: Vec<Option<BlockId>>,
    trace: Arc<TileTrace>,
    mem_slot: usize,

    // Dynamic state.
    cursor: CursorPos,
    inflight: InFlight,
    /// Most recent dynamic instance by `InstId`.
    latest: Vec<Option<u64>>,
    /// The instructions in state `Ready`.
    ready: ReadySet,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Outstanding memory requests, ascending by id (the hierarchy
    /// allocates ids monotonically).
    reqs: VecDeque<PendingReq>,
    mao: Mao,
    /// Busy functional units by [`InstClass::code`].
    fu_busy: [u32; InstClass::COUNT],
    /// Live DBBs by block.
    live_dbbs: Vec<u32>,
    /// Live DBBs from id `base_dbb` on: (instructions still in flight,
    /// block). Completed DBBs leave from the front.
    dbbs: VecDeque<(u32, BlockId)>,
    base_dbb: u64,
    prev_launched_block: Option<BlockId>,
    /// 2-bit saturating counters by block (see `bimodal_predict`).
    bimodal: Vec<u8>,
    pending_pushes: VecDeque<u32>,
    detached_outstanding: u32,
    atomic_outstanding: u32,
    gate: LaunchGate,
    accel_busy_until: Option<u64>,
    done: bool,
    stats: TileStats,
    /// The last blocked survey's stalls: while it holds, `step`, `next_event`
    /// and `on_cycles_skipped` answer from it; what changes the tile drops it.
    memo: std::cell::RefCell<StallMemo>,
    /// Whether the last full step changed nothing: the next one surveys
    /// before it walks (a heuristic — the survey decides).
    idle: bool,
    /// `verdict` calls made so far.
    #[cfg(test)]
    verdicts: std::cell::Cell<u64>,
    /// Observability state; `None` at `ObsLevel::Off` so the hot path
    /// pays only a pointer-null check.
    obs: Option<Box<TileObs>>,
}

impl std::fmt::Debug for CoreTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreTile")
            .field("name", &self.config.name)
            .field("func", &self.module.function(self.func).name())
            .field("done", &self.done)
            .field("retired", &self.stats.retired)
            .finish()
    }
}

/// Inserts `seq` into the ascending `ready` list.
fn insert_sorted(ready: &mut Vec<u64>, seq: u64) {
    match ready.last() {
        Some(&last) if last > seq => ready.insert(ready.partition_point(|&s| s < seq), seq),
        _ => ready.push(seq),
    }
}

/// The `TileStats` counter for stalls of `kind`.
fn stall_counter(stats: &mut TileStats, kind: StallKind) -> &mut u64 {
    match kind {
        StallKind::Window => &mut stats.window_stalls,
        StallKind::Fu => &mut stats.fu_stalls,
        StallKind::Mem => &mut stats.mem_stalls,
        StallKind::Send => &mut stats.send_stalls,
        StallKind::Recv => &mut stats.recv_stalls,
    }
}

impl CoreTile {
    /// Creates a core tile that replays `trace` of `func` under `config`,
    /// using private-cache slot `mem_slot` in the memory hierarchy.
    pub fn new(
        config: CoreConfig,
        module: Arc<Module>,
        func: FuncId,
        trace: Arc<TileTrace>,
        mem_slot: usize,
    ) -> Self {
        let f = module.function(func);
        let ddg = StaticDdg::build(f);
        let fused = fused_insts(f, &ddg, config.fusion);
        let roles = if config.desc_extensions {
            compute_desc_roles(f)
        } else {
            Vec::new()
        };
        let mut plan = LaunchPlan::compile(&ddg);
        let mut desc = Vec::new();
        for pi in plan.insts_mut() {
            let role = roles.get(pi.inst.index()).copied().flatten();
            pi.zero_cost |= fused.contains(&pi.inst) || role == Some(DescRole::SkipSend);
            desc.push(role);
        }
        CoreTile {
            plan,
            desc,
            predictions: compute_static_predictions(f),
            cursor: CursorPos::new(&trace),
            inflight: InFlight::new(),
            latest: vec![None; f.inst_count()],
            ready: ReadySet::default(),
            completions: BinaryHeap::new(),
            reqs: VecDeque::new(),
            mao: Mao::new(config.lsq_size, config.alias_speculation),
            fu_busy: [0; InstClass::COUNT],
            live_dbbs: vec![0; f.block_count()],
            dbbs: VecDeque::new(),
            base_dbb: 0,
            prev_launched_block: None,
            bimodal: vec![2; f.block_count()],
            pending_pushes: VecDeque::new(),
            detached_outstanding: 0,
            atomic_outstanding: 0,
            gate: LaunchGate::Free,
            accel_busy_until: None,
            done: false,
            stats: TileStats::new(&config.name),
            memo: Default::default(),
            idle: false,
            #[cfg(test)]
            verdicts: Default::default(),
            obs: None,
            config,
            module,
            func,
            trace,
            mem_slot,
        }
    }

    /// The tile's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    fn peek_path(&self, k: usize) -> Option<BlockId> {
        self.cursor.peek_block_at(&self.trace, k)
    }

    /// The channel a `send`/`recv` at plan index `plan` uses.
    fn queue_of(&self, plan: u32) -> u32 {
        let queue = self.plan.inst(plan as usize).queue;
        queue.expect("send/recv has a queue") + self.config.queue_offset
    }

    /// Whether nothing is left to replay, in flight or outstanding.
    fn drained(&self) -> bool {
        self.cursor.path_pos >= self.trace.path().len()
            && self.inflight.live == 0
            && self.accel_busy_until.is_none()
            && self.detached_outstanding == 0
            && self.pending_pushes.is_empty()
    }

    /// The dynamic bimodal prediction for `block`'s terminator: a 2-bit
    /// saturating counter per static conditional branch (counter >= 2
    /// predicts the `on_true` edge), trained on actual outcomes as DBBs
    /// launch. Returns the predicted successor and updates the counter
    /// toward `actual`.
    fn bimodal_predict(&mut self, block: BlockId, actual: Option<BlockId>) -> Option<BlockId> {
        let func = self.module.function(self.func);
        let term = func.block(block).terminator().expect("verified");
        match func.inst(term).op() {
            Opcode::Br { target } => Some(*target),
            Opcode::CondBr {
                on_true, on_false, ..
            } => {
                let counter = &mut self.bimodal[block.index()];
                let predicted = if *counter >= 2 { *on_true } else { *on_false };
                if let Some(a) = actual {
                    if a == *on_true {
                        *counter = (*counter + 1).min(3);
                    } else if a == *on_false {
                        *counter = counter.saturating_sub(1);
                    }
                }
                Some(predicted)
            }
            _ => None,
        }
    }

    fn gate_open(&self, now: u64) -> bool {
        match self.gate {
            LaunchGate::Free => true,
            LaunchGate::WaitUntil(c) => c <= now,
            LaunchGate::WaitTerminator { .. } => false,
        }
    }

    /// Whether the structural limits (live-DBB limit, in-flight bound)
    /// admit a launch of `block`.
    fn has_room_for(&self, block: BlockId) -> bool {
        let live_ok = self
            .config
            .live_dbb_limit
            .is_none_or(|limit| self.live_dbbs[block.index()] < limit);
        let block_len = self.plan.block(block).len() as u64;
        live_ok && self.inflight.live as u64 + block_len <= self.config.max_inflight
    }

    /// [`TileError::TraceUnderrun`] for `inst`, naming this tile.
    fn trace_underrun(&self, inst: InstId) -> TileError {
        TileError::TraceUnderrun {
            tile: self.config.name.clone(),
            inst: format!("{inst}"),
        }
    }

    fn launch_dbbs(&mut self, now: u64) -> Result<(), TileError> {
        while self.accel_busy_until.is_none() {
            let Some(block) = self.peek_path(0) else {
                break;
            };
            if !self.gate_open(now) || !self.has_room_for(block) {
                break;
            }
            self.launch_one(block, now)?;
        }
        Ok(())
    }

    fn launch_one(&mut self, block: BlockId, now: u64) -> Result<(), TileError> {
        self.cursor.path_pos += 1;
        let dbb = self.base_dbb + self.dbbs.len() as u64;
        let prev_block = self.prev_launched_block.replace(block);
        self.live_dbbs[block.index()] += 1;
        let insts = self.plan.block(block);
        self.dbbs.push_back((insts.len() as u32, block));
        self.stats.dbbs_launched += 1;
        // Instruction `k` of this DBB gets sequence id `dbb_base_seq + k`.
        let dbb_base_seq = self.inflight.next_seq();

        for idx in insts {
            let pi = *self.plan.inst(idx);
            let seq = self.inflight.next_seq();
            if pi.class == InstClass::Phi && prev_block.is_none() {
                return Err(TileError::PhiWithoutPredecessor {
                    tile: self.config.name.clone(),
                    block: format!("bb{}", block.index()),
                });
            }
            // Parents that already completed (e.g. zero-cost phis retired
            // during this very launch) impose no dependency.
            let mut remaining_parents = 0;
            for &edge in self.plan.edges(&pi) {
                let parent = match edge {
                    PlanEdge::Local(offset) => Some(dbb_base_seq + u64::from(offset)),
                    PlanEdge::Latest(def) => self.latest[def.index()],
                    PlanEdge::Phi { pred, def } if Some(pred) == prev_block => {
                        self.latest[def.index()]
                    }
                    PlanEdge::Phi { .. } => None,
                };
                if parent.is_some_and(|p| self.inflight.add_child(p, seq)) {
                    remaining_parents += 1;
                }
            }

            let desc = self.desc[idx];
            let mem = match pi.mem_kind {
                Some(k) => {
                    let access = self
                        .cursor
                        .next_mem(&self.trace, pi.inst)
                        .ok_or_else(|| self.trace_underrun(pi.inst))?;
                    let kind = match k {
                        MemKind::Load => AccessKind::Read,
                        MemKind::Store => AccessKind::Write,
                        MemKind::Atomic(_) => AccessKind::Atomic,
                    };
                    if !desc.is_some_and(DescRole::detached) {
                        self.mao.insert(seq, access.addr, kind != AccessKind::Read);
                    }
                    Some((access.addr, access.size, kind))
                }
                None => None,
            };
            let accel_at = if pi.class == InstClass::Accel {
                self.cursor
                    .next_accel(&self.trace, pi.inst)
                    .ok_or_else(|| self.trace_underrun(pi.inst))? as u32
            } else {
                0
            };

            self.inflight.push(DynInst {
                plan: idx as u32,
                state: DynState::Waiting,
                window_exempt: desc.is_some_and(DescRole::window_exempt),
                remaining_parents,
                dbb,
                first_child: NIL,
                last_child: NIL,
                mem,
                accel_at,
            });
            self.latest[pi.inst.index()] = Some(seq);
            if remaining_parents == 0 {
                self.make_ready(seq, now);
            }
        }

        // Configure the launch gate for the *next* DBB.
        let term_seq = dbb_base_seq + u64::from(self.plan.terminator_offset(block));
        self.gate = match self.config.branch {
            BranchMode::Perfect => LaunchGate::Free,
            BranchMode::None => LaunchGate::WaitTerminator {
                seq: term_seq,
                penalty: 0,
            },
            BranchMode::Static | BranchMode::Bimodal => {
                let actual = self.peek_path(0);
                // The static prediction (paper §III-C): loop-continuation
                // edges are predicted taken (the classic backward-taken
                // heuristic, computed via CFG reachability so it also
                // covers non-rotated loops), unconditional branches are
                // always correct. A `ret` terminator ends the kernel:
                // nothing to predict.
                let predicted = if self.config.branch == BranchMode::Bimodal {
                    self.bimodal_predict(block, actual)
                } else {
                    self.predictions[block.index()]
                };
                if predicted == actual {
                    LaunchGate::Free
                } else {
                    self.stats.mispredicts += 1;
                    LaunchGate::WaitTerminator {
                        seq: term_seq,
                        penalty: self.config.mispredict_penalty,
                    }
                }
            }
        };
        Ok(())
    }

    fn make_ready(&mut self, seq: u64, now: u64) {
        let di = self.inflight.get_mut(seq).expect("in flight");
        di.state = DynState::Ready;
        let (plan, is_mem, window_exempt) = (di.plan, di.mem.is_some(), di.window_exempt);
        if is_mem {
            self.mao.resolve(seq);
        }
        if self.plan.inst(plan as usize).zero_cost {
            // Zero-cost bookkeeping nodes complete instantly.
            self.stats.issued += 1;
            self.complete_inst(seq, now);
        } else {
            self.ready.wake(seq, window_exempt);
        }
    }

    fn complete_inst(&mut self, seq: u64, now: u64) {
        let Some(di) = self.inflight.retire(seq) else {
            return;
        };
        let pi = *self.plan.inst(di.plan as usize);
        self.stats.retired += 1;
        if let Some(o) = self.obs.as_mut() {
            o.profile.retire(pi.inst.0);
        }
        let issued = di.state == DynState::Issued;
        if di.mem.is_some() {
            self.mao.complete(seq);
            if pi.class == InstClass::Atomic && issued {
                self.atomic_outstanding = self.atomic_outstanding.saturating_sub(1);
            }
        }
        if issued {
            let busy = &mut self.fu_busy[pi.class.code()];
            *busy = busy.saturating_sub(1);
        }
        // Terminator completion may open the launch gate (paper §II-A
        // rule 3).
        if pi.is_terminator {
            if let LaunchGate::WaitTerminator { seq: s, penalty } = self.gate {
                if s == seq {
                    self.gate = if penalty == 0 {
                        LaunchGate::Free
                    } else {
                        LaunchGate::WaitUntil(now + penalty)
                    };
                }
            }
        }
        // Retire DBB bookkeeping.
        let (left, block) = &mut self.dbbs[(di.dbb - self.base_dbb) as usize];
        *left -= 1;
        if *left == 0 {
            self.live_dbbs[block.index()] -= 1;
            while self.dbbs.front().is_some_and(|d| d.0 == 0) {
                self.dbbs.pop_front();
                self.base_dbb += 1;
            }
        }
        // Wake children.
        let mut node = di.first_child;
        while node != NIL {
            let (child, next) = self.inflight.take_child(node);
            node = next;
            if let Some(ci) = self.inflight.get_mut(child) {
                ci.remaining_parents -= 1;
                if ci.remaining_parents == 0 && ci.state == DynState::Waiting {
                    self.make_ready(child, now);
                }
            }
        }
    }

    /// Wraps a hierarchy rejection with this tile's name.
    fn mem_err(&self, source: MemError) -> TileError {
        TileError::Mem {
            tile: self.config.name.clone(),
            source,
        }
    }

    /// One past the youngest sequence id the instruction window covers.
    fn window_limit(&self) -> u64 {
        self.inflight.head.saturating_add(self.config.window_size)
    }

    fn issue(&mut self, ctx: &mut TileCtx<'_>) -> Result<(), TileError> {
        // Walk the candidates of the start of the cycle: what a
        // fire-and-forget DeSC op wakes while it issues waits for the next
        // cycle, and the window does not move under the walk.
        let (limit, width) = (self.window_limit(), self.config.issue_width);
        self.ready.begin_walk(&self.inflight, limit, width);
        while let Some(seq) = self.ready.peek() {
            let issued = self.issue_one(seq, ctx)?;
            self.ready.settle(issued);
        }
        if let Some(o) = self.obs.as_mut() {
            for seq in self.ready.charged(limit) {
                let di = self.inflight.get(seq).expect("parked implies in flight");
                let sid = self.plan.inst(di.plan as usize).inst.0;
                o.profile.stall(sid, StallKind::Window, 1);
            }
        }
        self.stats.window_stalls += self.ready.end_walk(&self.inflight, limit);
        Ok(())
    }

    /// Issues candidate `seq` if `verdict` lets it; otherwise counts its
    /// stall and returns `false`.
    fn issue_one(&mut self, seq: u64, ctx: &mut TileCtx<'_>) -> Result<bool, TileError> {
        let now = ctx.now;
        let di = self.inflight.get(seq).expect("ready implies in flight");
        match self.verdict(seq, di, now, ctx.channels) {
            Verdict::Issue => {}
            Verdict::AccelBusy => return Ok(false),
            Verdict::Stall(Stall {
                kind,
                mao,
                queue,
                untouched,
                ..
            }) => {
                *stall_counter(&mut self.stats, kind) += 1;
                if let Some(mao) = mao {
                    self.mao.credit_stalls(mao, 1);
                }
                // A deadlock snapshot lists every channel a tile touched,
                // the ones it only ever waited on included.
                if untouched {
                    ctx.channels.channel_mut(queue);
                }
                if let Some(o) = self.obs.as_mut() {
                    let sid = self.plan.inst(di.plan as usize).inst.0;
                    o.profile.stall(sid, kind, 1);
                }
                return Ok(false);
            }
        }
        let di = *di;
        let pi = *self.plan.inst(di.plan as usize);
        let (class, sid) = (pi.class, pi.inst.0);
        let desc = self.desc[di.plan as usize];
        let fu_limit = self.config.fu.limit(class);

        self.inflight.get_mut(seq).expect("in flight").state = DynState::Issued;
        self.stats.issued += 1;
        self.stats.energy_pj += self.config.costs.energy_pj(class);
        if fu_limit != u32::MAX {
            self.fu_busy[class.code()] += 1;
        }

        match class {
            InstClass::Load | InstClass::Store | InstClass::Atomic => {
                let (addr, size, kind) = di.mem.expect("mem op has access");
                let on_done = match desc {
                    // Fire and forget: the pipeline retires the access
                    // now; for a terminal load, hardware pushes the data
                    // into the channel when memory responds.
                    Some(DescRole::TerminalLoad { queue }) => {
                        ReqDone::Detached(Some(queue + self.config.queue_offset))
                    }
                    Some(DescRole::DetachedStore) => ReqDone::Detached(None),
                    _ => {
                        self.mao.mark_issued(seq);
                        if class == InstClass::Atomic {
                            self.atomic_outstanding += 1;
                        }
                        ReqDone::Retire(seq)
                    }
                };
                let req = MemReq {
                    tile: self.mem_slot,
                    addr,
                    size,
                    kind,
                };
                let id = ctx.mem.request(req, now).map_err(|e| self.mem_err(e))?;
                let pending = PendingReq {
                    id,
                    on_done,
                    inst: sid,
                    issued_at: now,
                };
                // Request ids ascend: the new one is the youngest.
                match self.reqs.back() {
                    Some(last) if last.id > id => {
                        let at = self.reqs.partition_point(|r| r.id < id);
                        self.reqs.insert(at, pending);
                    }
                    _ => self.reqs.push_back(pending),
                }
                if let ReqDone::Detached(_) = on_done {
                    self.detached_outstanding += 1;
                    self.complete_inst(seq, now);
                }
            }
            InstClass::Send => {
                let ok = ctx
                    .channels
                    .channel_mut(self.queue_of(di.plan))
                    .try_send(now);
                debug_assert!(ok, "checked above");
                self.completions.push(Reverse((now + 1, seq)));
            }
            InstClass::Recv => {
                let ok = ctx
                    .channels
                    .channel_mut(self.queue_of(di.plan))
                    .try_recv(now);
                debug_assert!(ok, "checked above");
                self.completions.push(Reverse((now + 1, seq)));
            }
            InstClass::Accel => {
                let call = self.trace.accel_stream(pi.inst).get(di.accel_at as usize);
                let call = call.ok_or_else(|| self.trace_underrun(pi.inst))?;
                let result = ctx.accel.invoke(call.accel, &call.args)?;
                self.stats.accel_invocations += 1;
                self.stats.accel_cycles += result.cycles;
                self.stats.energy_pj += result.energy_pj;
                self.accel_busy_until = Some(now + result.cycles);
                self.completions.push(Reverse((now + result.cycles, seq)));
                if let Some(o) = self.obs.as_mut().filter(|o| o.level.trace_on()) {
                    let tid = self.mem_slot as u32;
                    o.timeline
                        .span(0, tid, "accel", "accel invoke", now, now + result.cycles);
                }
            }
            _ => {
                let lat = self.config.costs.latency(class).max(1);
                self.completions.push(Reverse((now + lat, seq)));
            }
        }
        Ok(true)
    }

    /// What the issue stage does with candidate `seq` — in the window, or
    /// exempt from it — at cycle `now`: the first check that rejects it
    /// names its stall. Read-only: channels are probed, not created, and
    /// the MAO's stall counters stay untouched.
    fn verdict(&self, seq: u64, di: &DynInst, now: u64, channels: &ChannelSet) -> Verdict {
        #[cfg(test)]
        self.verdicts.set(self.verdicts.get() + 1);
        let class = self.plan.inst(di.plan as usize).class;
        let stall = |kind| Verdict::Stall(Stall::of(kind));
        let fu_limit = self.config.fu.limit(class);
        if fu_limit != u32::MAX && self.fu_busy[class.code()] >= fu_limit {
            return stall(StallKind::Fu);
        }
        match class {
            // Atomic read-modify-writes serialize per tile, like x86
            // locked operations draining the store buffer — the paper's
            // BFS mis-scaling stems from exactly this cost (§VI-A).
            InstClass::Atomic if self.atomic_outstanding > 0 => stall(StallKind::Mem),
            InstClass::Load | InstClass::Store | InstClass::Atomic => {
                if self.desc[di.plan as usize].is_some_and(DescRole::detached) {
                    if self.detached_outstanding >= self.config.desc_buffer {
                        return stall(StallKind::Mem);
                    }
                } else if let Some(mao) = self.mao.probe(seq) {
                    return Verdict::Stall(Stall {
                        mao: Some(mao),
                        ..Stall::of(StallKind::Mem)
                    });
                }
                Verdict::Issue
            }
            InstClass::Send => {
                let queue = self.queue_of(di.plan);
                if channels.would_have_space(queue) {
                    return Verdict::Issue;
                }
                Verdict::Stall(Stall {
                    queue,
                    untouched: channels.channel(queue).is_none(),
                    ..Stall::of(StallKind::Send)
                })
            }
            InstClass::Recv => {
                let queue = self.queue_of(di.plan);
                let channel = channels.channel(queue);
                match channel.and_then(Channel::next_recv_ready) {
                    Some(ready) if ready <= now => Verdict::Issue,
                    wake => Verdict::Stall(Stall {
                        queue,
                        untouched: channel.is_none(),
                        wake,
                        ..Stall::of(StallKind::Recv)
                    }),
                }
            }
            InstClass::Accel if self.accel_busy_until.is_some() => Verdict::AccelBusy,
            _ => Verdict::Issue,
        }
    }

    /// Read-only dry run of what `step()` would do at cycle `now`,
    /// mirroring its phases in order (accelerator clear, pending pushes,
    /// completion retire, DBB launch, issue walk). Returns `false` the
    /// moment any phase would change state; otherwise `true`, the memo
    /// filled with the exact stall counts `issue()` would record, the
    /// earliest time-triggered wake-up and the channels looked at.
    ///
    /// The fast-forward correctness argument hinges on one property: if
    /// the memo is filled over `now..wake`, then stepping the tile at any
    /// cycle `x` in that span mutates nothing except adding `stalls` once
    /// — every predicate below is cycle-independent, of the form
    /// `event_time <= x` with `event_time` reported through `wake`, or
    /// reads a watched channel.
    fn survey(&self, now: u64, channels: &ChannelSet) -> bool {
        let mut stalls = self.memo.borrow_mut();
        stalls.span = 0..0;
        stalls.watch.clear();
        let mut wake: Option<u64> = None;
        let note = |wake: &mut Option<u64>, t: u64| {
            *wake = Some(wake.map_or(t, |w: u64| w.min(t)));
        };

        // The done conditions hold but `done` is not set yet (the last
        // blocker cleared via `on_mem_completion` between steps): the next
        // aligned step marks the tile finished, which is progress.
        if self.drained() {
            return false;
        }
        // Retire phase: the earliest queued completion.
        if let Some(&Reverse((cycle, _))) = self.completions.peek() {
            if cycle <= now {
                return false;
            }
            note(&mut wake, cycle);
        }
        // Accelerator-clear phase (its completion entry is also in
        // `completions`, but note the clear time explicitly so the launch
        // blocker below always has a wake).
        if let Some(t) = self.accel_busy_until {
            if t <= now {
                return false;
            }
            note(&mut wake, t);
        }
        // Pending hardware pushes: drained as soon as the channel has
        // space; space is freed only by another tile receiving.
        if let Some(&queue) = self.pending_pushes.front() {
            if channels.would_have_space(queue) {
                return false;
            }
            stalls.watch_channel(queue, channels);
        }
        // Launch phase, mirroring `launch_dbbs`'s first iteration.
        if self.accel_busy_until.is_none() {
            if let Some(block) = self.peek_path(0) {
                let gate_ok = match self.gate {
                    LaunchGate::Free => true,
                    LaunchGate::WaitUntil(c) => {
                        if c > now {
                            note(&mut wake, c);
                        }
                        c <= now
                    }
                    // Opened by a completion, which is already noted.
                    LaunchGate::WaitTerminator { .. } => false,
                };
                if gate_ok && self.has_room_for(block) {
                    return false;
                }
            }
        }
        // Issue walk, mirroring `issue()`. Any issuable candidate means
        // work; otherwise each candidate counts exactly one stall,
        // classified by the first rejecting check, and each instruction
        // parked behind the window one window stall.
        stalls.by_kind = [0; STALL_KINDS];
        stalls.mao = [0; 3];
        stalls.per_inst.clear();
        let window_limit = self.window_limit();
        let sid = |di: &DynInst| self.plan.inst(di.plan as usize).inst.0;
        for seq in self.ready.candidates(&self.inflight, window_limit) {
            let di = self.inflight.get(seq).expect("ready implies in flight");
            match self.verdict(seq, di, now, channels) {
                Verdict::Issue => return false,
                // Skipped without a stall count; the accelerator-busy wake
                // is already noted above.
                Verdict::AccelBusy => {}
                Verdict::Stall(Stall {
                    kind,
                    mao,
                    queue,
                    wake: ready,
                    ..
                }) => {
                    stalls.by_kind[kind as usize] += 1;
                    if matches!(kind, StallKind::Send | StallKind::Recv) {
                        stalls.watch_channel(queue, channels);
                    }
                    if let Some(mao) = mao {
                        stalls.mao[mao as usize] += 1;
                    }
                    if let Some(ready) = ready {
                        note(&mut wake, ready);
                    }
                    // Mirror `issue()`'s per-site attribution only when
                    // observability is on, so fast-forward crediting
                    // reproduces it bit-identically.
                    if self.obs.is_some() {
                        stalls.per_inst.push((sid(di), kind));
                    }
                }
            }
        }
        let backlog = self.ready.backlog(&self.inflight, window_limit);
        stalls.by_kind[StallKind::Window as usize] += backlog;
        if self.obs.is_some() {
            let slot = |seq| self.inflight.get(seq).expect("parked implies in flight");
            let parked = self.ready.parked_beyond(window_limit);
            stalls
                .per_inst
                .extend(parked.map(|seq| (sid(slot(seq)), StallKind::Window)));
        }
        stalls.span = now..wake.unwrap_or(u64::MAX);
        true
    }

    /// Counts `cycles` blocked cycles from `now` on: the memo's stalls,
    /// that many times — exactly what stepping through them would record.
    fn credit(&mut self, now: u64, cycles: u64) {
        let memo = self.memo.get_mut();
        for (kind, n) in StallKind::all().into_iter().zip(memo.by_kind) {
            *stall_counter(&mut self.stats, kind) += n * cycles;
        }
        let mao_kinds = [MaoStall::Capacity, MaoStall::Load, MaoStall::Store];
        for (kind, n) in mao_kinds.into_iter().zip(memo.mao) {
            self.mao.credit_stalls(kind, n * cycles);
        }
        if let Some(o) = self.obs.as_mut() {
            for &(inst, kind) in &memo.per_inst {
                o.profile.stall(inst, kind, cycles);
            }
            if o.level.trace_on() {
                // All stall: close any open compute interval at `now`.
                o.note_cycle(self.mem_slot as u32, now, true);
                o.last_seen = o.last_seen.max(now + cycles - 1);
            }
        }
    }

    /// The step of a blocked tile, without the walk: done, and `true`, if the
    /// memo holds — as it is, or refilled because the last step was idle.
    fn step_blocked(&mut self, ctx: &mut TileCtx<'_>) -> bool {
        let now = ctx.now;
        let holds = self.memo.get_mut().holds(now, ctx.channels);
        if !(holds || self.idle && self.survey(now, ctx.channels)) {
            // The walk may change what the memo was taken from.
            self.memo.get_mut().span = 0..0;
            return false;
        }
        // A deadlock snapshot lists every channel a tile touched, the ones
        // it only ever waited on included.
        for w in self.memo.get_mut().watch.iter_mut().filter(|w| w.1 == 0) {
            ctx.channels.channel_mut(w.0);
            w.1 = 1;
        }
        self.credit(now, 1);
        if let Some(o) = self.obs.as_mut() {
            o.first_step.get_or_insert(now);
            o.last_seen = o.last_seen.max(now);
        }
        true
    }
}

impl Tile for CoreTile {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn clock_divisor(&self) -> u64 {
        self.config.clock_divisor
    }

    fn on_mem_completion(&mut self, id: ReqId, now: u64) {
        // The oldest request is the likeliest to complete.
        let at = match self.reqs.front() {
            Some(oldest) if oldest.id == id => 0,
            _ => match self.reqs.binary_search_by_key(&id, |r| r.id) {
                Ok(at) => at,
                Err(_) => return,
            },
        };
        let req = self.reqs.remove(at).expect("found above");
        self.memo.get_mut().span = 0..0;
        if let Some(o) = self.obs.as_mut() {
            let latency = now.saturating_sub(req.issued_at);
            o.profile.mem_latency(req.inst, latency);
        }
        match req.on_done {
            ReqDone::Detached(push) => {
                self.detached_outstanding -= 1;
                self.pending_pushes.extend(push);
            }
            ReqDone::Retire(seq) => self.completions.push(Reverse((now, seq))),
        }
    }

    fn step(&mut self, ctx: &mut TileCtx<'_>) -> Result<(), TileError> {
        if self.done {
            return Ok(());
        }
        let now = ctx.now;
        self.stats.cycles = self.stats.cycles.max(now);
        if (self.idle || !self.memo.get_mut().span.is_empty()) && self.step_blocked(ctx) {
            return Ok(());
        }
        let progress_before = self.progress_mark();

        // Clear a finished accelerator invocation.
        if let Some(t) = self.accel_busy_until {
            if t <= now {
                self.accel_busy_until = None;
            }
        }

        // Hardware channel pushes from returned terminal loads. The space
        // check is side-effect free (a blocked push is a hardware retry,
        // not a rejected send) so a blocked cycle mutates nothing — the
        // fast-forward scheduler relies on this when skipping it.
        while let Some(&queue) = self.pending_pushes.front() {
            if !ctx.channels.would_have_space(queue) {
                break;
            }
            let ok = ctx.channels.channel_mut(queue).try_send(now);
            debug_assert!(ok, "checked above");
            self.pending_pushes.pop_front();
        }

        // Retire instructions whose completion time has arrived.
        while let Some(&Reverse((cycle, seq))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            self.complete_inst(seq, now);
        }

        self.launch_dbbs(now)?;
        self.issue(ctx)?;

        if self.drained() {
            self.done = true;
            self.stats.done_at = Some(now);
        }
        self.idle = self.progress_mark() == progress_before;
        let (tid, finished, stalled) = (self.mem_slot as u32, self.done, self.idle);
        if let Some(o) = self.obs.as_mut() {
            o.first_step.get_or_insert(now);
            o.last_seen = o.last_seen.max(now);
            if o.level.trace_on() && !finished {
                o.note_cycle(tid, now, stalled);
            }
        }
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn stats(&self) -> &TileStats {
        &self.stats
    }

    fn save_state(&self, enc: &mut Enc) {
        self.encode_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.decode_state(dec)
    }

    fn set_observe(&mut self, level: ObsLevel) {
        // The memo attributes stalls per instruction only when observed.
        self.memo.get_mut().span = 0..0;
        self.obs = if level == ObsLevel::Off {
            None
        } else {
            let insts = self.module.function(self.func).inst_count();
            Some(Box::new(TileObs {
                level,
                profile: ProfileTable::new(self.func.0, insts),
                ..TileObs::default()
            }))
        };
    }

    fn take_profile(&mut self) -> IrProfile {
        let Some(o) = self.obs.as_mut() else {
            return IrProfile::new();
        };
        let profile = o.profile.to_profile();
        o.profile.clear();
        profile
    }

    fn take_timeline(&mut self, slot: usize) -> Timeline {
        let tid = self.mem_slot as u32;
        let done_at = self.stats.done_at;
        let Some(o) = self.obs.as_mut() else {
            return Timeline::new();
        };
        if !o.level.trace_on() {
            return Timeline::new();
        }
        let end = done_at.unwrap_or(o.last_seen).max(o.last_seen) + 1;
        if let Some((stalled, start)) = o.interval.take() {
            o.push_interval(tid, stalled, start, end);
        }
        let start = o.first_step.unwrap_or(0);
        o.timeline.span(
            0,
            tid,
            "tile",
            SpanName::Owned(format!("{} active", self.config.name)),
            start,
            end,
        );
        o.timeline.process_name(0, "tiles");
        o.timeline
            .thread_name(0, tid, format!("tile.{slot} {}", self.config.name));
        std::mem::take(&mut o.timeline)
    }

    fn next_event(&self, now: u64, channels: &ChannelSet) -> Horizon {
        if self.done {
            return Horizon::Blocked;
        }
        let holds = self.memo.borrow().holds(now, channels);
        if !holds && !self.survey(now, channels) {
            return Horizon::Ready;
        }
        match self.memo.borrow().span.end {
            u64::MAX => Horizon::Blocked,
            wake => Horizon::At(wake),
        }
    }

    fn on_cycles_skipped(&mut self, now: u64, aligned_cycles: u64, channels: &ChannelSet) {
        if self.done || aligned_cycles == 0 {
            return;
        }
        // The memo `next_event` just answered from, or filled, holds still.
        if !self.memo.get_mut().holds(now, channels) && !self.survey(now, channels) {
            debug_assert!(false, "fast-forward skipped a tile with pending work");
            return;
        }
        // (`stats.cycles` is the last cycle stepped: the wake step sets it.)
        self.credit(now, aligned_cycles);
    }

    fn progress_mark(&self) -> u64 {
        // Any observable work moves one of these monotone counters;
        // pure-stall cycles move none of them.
        self.stats.retired
            + self.stats.issued
            + self.stats.dbbs_launched
            + self.stats.accel_invocations
    }

    fn stall_info(&self, now: u64, channels: &ChannelSet) -> TileStallInfo {
        // Pick the highest-priority blocked candidate across the whole
        // ready set: channel waits (the wait-for edges of a deadlock)
        // outrank memory waits outrank structural stalls, so the snapshot
        // names the blocking channel even when an older window-stalled
        // instruction sits earlier in issue order. Everything read here is
        // architectural state — identical at a given cycle under the
        // fast-forward and naive schedulers — never a cumulative counter.
        let rank = |r: &StallReason| match r {
            StallReason::SendFull { .. }
            | StallReason::RecvEmpty { .. }
            | StallReason::ChannelPush { .. } => 0u8,
            StallReason::Memory => 1,
            StallReason::Window => 2,
            StallReason::FuncUnit => 3,
            StallReason::LaunchGate => 4,
            StallReason::Idle => 5,
        };
        let mut best: Option<(StallReason, Option<u32>)> = None;
        let mut consider = |reason: StallReason, inst: Option<u32>| {
            if best.as_ref().is_none_or(|(b, _)| rank(&reason) < rank(b)) {
                best = Some((reason, inst));
            }
        };
        // The `Ready` slots, in issue order: a diagnosis can afford the
        // scan the issue stage no longer makes.
        let window_limit = self.window_limit();
        for (seq, di) in (self.inflight.base_seq..).zip(&self.inflight.slots) {
            if di.state != DynState::Ready {
                continue;
            }
            let reason = if seq >= window_limit && !di.window_exempt {
                StallReason::Window
            } else {
                match self.verdict(seq, di, now, channels) {
                    Verdict::Issue => continue,
                    Verdict::AccelBusy => StallReason::FuncUnit,
                    Verdict::Stall(Stall { kind, queue, .. }) => match kind {
                        StallKind::Window => StallReason::Window,
                        StallKind::Fu => StallReason::FuncUnit,
                        StallKind::Mem => StallReason::Memory,
                        StallKind::Send => StallReason::SendFull { queue },
                        StallKind::Recv => StallReason::RecvEmpty { queue },
                    },
                }
            };
            consider(reason, Some(self.plan.inst(di.plan as usize).inst.0));
        }
        if let Some(&queue) = self.pending_pushes.front() {
            if !channels.would_have_space(queue) {
                consider(StallReason::ChannelPush { queue }, None);
            }
        }
        if !self.done && (!self.reqs.is_empty() || self.atomic_outstanding > 0) {
            consider(StallReason::Memory, None);
        }
        if !self.done
            && self.peek_path(0).is_some()
            && matches!(
                self.gate,
                LaunchGate::WaitTerminator { .. } | LaunchGate::WaitUntil(_)
            )
        {
            consider(StallReason::LaunchGate, None);
        }
        let (reason, inst) = best.unwrap_or((StallReason::Idle, None));
        TileStallInfo {
            tile: self.config.name.clone(),
            reason,
            inst,
            pc: self.cursor.path_pos,
            retired: self.stats.retired,
            mem_in_flight: self.reqs.len(),
        }
    }
}

/// Computes the DeSC roles of a function's instructions, by `InstId`:
/// terminal loads (load → send), their absorbed sends, store-value recvs
/// (recv → store), and the detached stores they feed (paper §VII-A's DeSC
/// structures).
#[allow(clippy::collapsible_match)] // per-opcode arms stay scannable
fn compute_desc_roles(func: &mosaic_ir::Function) -> Vec<Option<DescRole>> {
    use mosaic_ir::Operand;
    // Walk scheduled instructions only: dead-code elimination leaves
    // removed instructions orphaned in the arena, and orphans must not
    // count as uses.
    let scheduled: Vec<InstId> = func
        .blocks()
        .flat_map(|b| b.insts().iter().copied())
        .collect();
    let mut use_count = vec![0u32; func.inst_count()];
    for &iid in &scheduled {
        func.inst(iid).op().for_each_operand(|o| {
            if let Operand::Inst(d) = o {
                use_count[d.index()] += 1;
            }
        });
    }
    let mut roles = vec![None; func.inst_count()];
    for &iid in &scheduled {
        match func.inst(iid).op() {
            Opcode::Send { queue, value } => {
                if let Operand::Inst(def) = value {
                    let is_load = matches!(func.inst(*def).op(), Opcode::Load { .. });
                    if is_load && use_count[def.index()] == 1 {
                        roles[def.index()] = Some(DescRole::TerminalLoad { queue: *queue });
                        roles[iid.index()] = Some(DescRole::SkipSend);
                    }
                }
            }
            Opcode::Store { value, .. } => {
                if let Operand::Inst(def) = value {
                    let is_recv = matches!(func.inst(*def).op(), Opcode::Recv { .. });
                    if is_recv && use_count[def.index()] == 1 {
                        roles[def.index()] = Some(DescRole::StoreRecv);
                        roles[iid.index()] = Some(DescRole::DetachedStore);
                    }
                }
            }
            _ => {}
        }
    }
    roles
}

/// Computes static branch predictions, by block: for a conditional
/// terminator, predict the successor through which control can return to
/// the block (the loop-continuation edge); if neither or both loop,
/// fall back to backward-taken / forward-not-taken.
fn compute_static_predictions(func: &mosaic_ir::Function) -> Vec<Option<BlockId>> {
    // reaches[s] = set of blocks reachable from s.
    let nblocks = func.block_count();
    let succs: Vec<Vec<BlockId>> = (0..nblocks)
        .map(|i| {
            let b = func.block(BlockId(i as u32));
            b.terminator()
                .map(|t| func.inst(t).op().successors())
                .unwrap_or_default()
        })
        .collect();
    // BFS distance from `start` back to `target` (None if unreachable).
    let cycle_distance = |start: BlockId, target: BlockId| -> Option<u32> {
        let mut dist = vec![None; nblocks];
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = Some(1u32);
        queue.push_back(start);
        if start == target {
            return Some(1);
        }
        while let Some(b) = queue.pop_front() {
            let d = dist[b.index()].expect("visited");
            for &s in &succs[b.index()] {
                if dist[s.index()].is_none() {
                    dist[s.index()] = Some(d + 1);
                    if s == target {
                        return Some(d + 1);
                    }
                    queue.push_back(s);
                }
            }
        }
        dist[target.index()]
    };
    let mut out = vec![None; nblocks];
    for block in func.blocks() {
        let pred = match block.terminator().map(|t| func.inst(t).op().clone()) {
            Some(Opcode::Br { target }) => Some(target),
            Some(Opcode::CondBr {
                on_true, on_false, ..
            }) => {
                // In nested loops both successors can eventually return to
                // the block (the exit path re-enters through the outer
                // loop); predict the one with the *shortest* cycle — the
                // innermost back edge, i.e. the loop-continue direction.
                let t_cycle = cycle_distance(on_true, block.id());
                let f_cycle = cycle_distance(on_false, block.id());
                match (t_cycle, f_cycle) {
                    (Some(_), None) => Some(on_true),
                    (None, Some(_)) => Some(on_false),
                    (Some(t), Some(f)) if t < f => Some(on_true),
                    (Some(t), Some(f)) if f < t => Some(on_false),
                    _ => {
                        if on_true.index() <= block.id().index() {
                            Some(on_true)
                        } else {
                            Some(on_false)
                        }
                    }
                }
            }
            _ => None,
        };
        out[block.id().index()] = pred;
    }
    out
}

/// A pre-RTL accelerator tile (paper §IV): the same dependence-graph
/// engine with accelerator-style resource provisioning — a live-DBB limit
/// standing in for replicated loop circuits, a large window, and
/// unconstrained functional units.
pub fn accelerator_tile(
    unroll: u32,
    module: Arc<Module>,
    func: FuncId,
    trace: Arc<TileTrace>,
    mem_slot: usize,
) -> CoreTile {
    CoreTile::new(
        crate::CoreConfig::accelerator(unroll),
        module,
        func,
        trace,
        mem_slot,
    )
}

// ---------------------------------------------------------------------------
// Checkpoint encode/restore (see mosaic-ckpt and DESIGN.md §4.6).
//
// Only dynamic state is written. Everything derived from the configuration,
// module, and trace — the launch plan with its zero-cost marks, static
// predictions, DeSC roles — is rebuilt by `CoreTile::new` on the resume path
// and must therefore be byte-identical by construction, not by
// serialization. What the dynamic state determines is not written either:
// the ready set (the `Ready` slots, candidates or parked by the window), the
// window head and the live count. Every structure is indexed by a dense id,
// so writing it in index order gives the same bytes for the same state.
// ---------------------------------------------------------------------------

fn kind_code(k: AccessKind) -> u8 {
    match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::Atomic => 2,
        AccessKind::Prefetch => 3,
    }
}

fn kind_from_code(v: u8) -> Result<AccessKind, CkptError> {
    Ok(match v {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        2 => AccessKind::Atomic,
        3 => AccessKind::Prefetch,
        _ => return Err(CkptError::corrupt(format!("access kind code {v}"))),
    })
}

fn enc_opt_u32(e: &mut Enc, v: Option<u32>) {
    e.opt_u64(v.map(u64::from));
}

fn dec_opt_u32(d: &mut Dec<'_>, what: &str) -> Result<Option<u32>, CkptError> {
    let v = d.opt_u64(what)?;
    v.map(|v| u32::try_from(v).map_err(|_| CkptError::corrupt(format!("{what}: {v}"))))
        .transpose()
}

/// Reads a table length and checks it against the table this tile has.
fn dec_len(d: &mut Dec<'_>, what: &str, want: usize) -> Result<(), CkptError> {
    let found = d.usize(what)?;
    if found != want {
        return Err(CkptError::mismatch(format!(
            "{what}: this tile has {want}, the checkpoint {found}"
        )));
    }
    Ok(())
}

impl CoreTile {
    fn encode_state(&self, e: &mut Enc) {
        e.usize(self.cursor.path_pos);
        e.usize(self.cursor.stream_pos.len());
        for &pos in &self.cursor.stream_pos {
            e.u32(pos);
        }

        e.u64(self.inflight.base_seq);
        e.usize(self.inflight.slots.len());
        for di in &self.inflight.slots {
            e.u8(match di.state {
                DynState::Waiting => 0,
                DynState::Ready => 1,
                DynState::Issued => 2,
                DynState::Done => 3,
            });
            if di.state == DynState::Done {
                continue;
            }
            e.u32(di.plan);
            e.u32(di.remaining_parents);
            e.u64(di.dbb);
            e.usize(self.inflight.children(di).count());
            for child in self.inflight.children(di) {
                e.u64(child);
            }
            match di.mem {
                Some((addr, size, kind)) => {
                    e.u8(1);
                    e.u64(addr);
                    e.u8(size);
                    e.u8(kind_code(kind));
                }
                None => e.u8(0),
            }
            e.u32(di.accel_at);
        }

        e.usize(self.latest.len());
        for &slot in &self.latest {
            e.opt_u64(slot);
        }

        let mut completions: Vec<(u64, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        e.usize(completions.len());
        for (cycle, seq) in completions {
            e.u64(cycle);
            e.u64(seq);
        }

        e.usize(self.reqs.len());
        for r in &self.reqs {
            e.u64(r.id.0);
            match r.on_done {
                ReqDone::Retire(seq) => {
                    e.u8(0);
                    e.u64(seq);
                }
                ReqDone::Detached(push) => {
                    e.u8(1);
                    enc_opt_u32(e, push);
                }
            }
            e.u32(r.inst);
            e.u64(r.issued_at);
        }

        self.mao.encode_into(e);
        for &n in &self.fu_busy {
            e.u32(n);
        }
        e.usize(self.live_dbbs.len());
        for &n in &self.live_dbbs {
            e.u32(n);
        }
        e.u64(self.base_dbb);
        e.usize(self.dbbs.len());
        for &(left, block) in &self.dbbs {
            e.u32(left);
            e.u32(block.0);
        }
        enc_opt_u32(e, self.prev_launched_block.map(|b| b.0));
        e.usize(self.bimodal.len());
        for &c in &self.bimodal {
            e.u8(c);
        }

        e.usize(self.pending_pushes.len());
        for &q in &self.pending_pushes {
            e.u32(q);
        }
        e.u32(self.detached_outstanding);
        e.u32(self.atomic_outstanding);
        match self.gate {
            LaunchGate::Free => e.u8(0),
            LaunchGate::WaitTerminator { seq, penalty } => {
                e.u8(1);
                e.u64(seq);
                e.u64(penalty);
            }
            LaunchGate::WaitUntil(c) => {
                e.u8(2);
                e.u64(c);
            }
        }
        e.opt_u64(self.accel_busy_until);
        e.bool(self.done);
        self.stats.encode_into(e);

        match &self.obs {
            Some(o) => {
                e.u8(1);
                o.profile.to_profile().encode_into(e);
                o.timeline.encode_into(e);
                match o.interval {
                    Some((stalled, start)) => {
                        e.u8(1);
                        e.bool(stalled);
                        e.u64(start);
                    }
                    None => e.u8(0),
                }
                e.opt_u64(o.first_step);
                e.u64(o.last_seen);
            }
            None => e.u8(0),
        }
    }

    fn decode_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let name = self.config.name.clone();
        let corrupt = |what: String| CkptError::corrupt(format!("tile {name}: {what}"));

        let path_pos = d.usize("tile path position")?;
        if path_pos > self.trace.path().len() {
            return Err(CkptError::mismatch(format!(
                "tile {name}: path position {path_pos} exceeds trace length {}",
                self.trace.path().len()
            )));
        }
        self.cursor.path_pos = path_pos;
        dec_len(d, "tile trace streams", self.cursor.stream_pos.len())?;
        for pos in &mut self.cursor.stream_pos {
            *pos = d.u32("tile stream position")?;
        }

        let mut inflight = InFlight::new();
        inflight.base_seq = d.u64("tile base_seq")?;
        inflight.head = inflight.base_seq;
        let nslots = d.u64("tile in-flight span")?;
        let next_seq = inflight.base_seq.saturating_add(nslots);
        let mut children = Vec::new();
        for seq in inflight.base_seq..next_seq {
            let state = match d.u8("inst state")? {
                0 => DynState::Waiting,
                1 => DynState::Ready,
                2 => DynState::Issued,
                3 => DynState::Done,
                v => return Err(corrupt(format!("inst state tag {v}"))),
            };
            let mut di = DynInst {
                plan: 0,
                state,
                window_exempt: false,
                remaining_parents: 0,
                dbb: 0,
                first_child: NIL,
                last_child: NIL,
                mem: None,
                accel_at: 0,
            };
            if state != DynState::Done {
                di.plan = d.u32("inst plan index")?;
                if di.plan as usize >= self.plan.len() {
                    return Err(corrupt(format!("plan index {} out of range", di.plan)));
                }
                di.window_exempt = self.desc[di.plan as usize].is_some_and(DescRole::window_exempt);
                di.remaining_parents = d.u32("inst remaining_parents")?;
                di.dbb = d.u64("inst dbb")?;
                for _ in 0..d.u64("inst child count")? {
                    let child = d.u64("inst child")?;
                    if child <= seq || child >= next_seq {
                        return Err(corrupt(format!("inst {seq} has child {child}")));
                    }
                    children.push((seq, child));
                }
                di.mem = match d.u8("inst mem flag")? {
                    0 => None,
                    1 => {
                        let addr = d.u64("inst mem addr")?;
                        let size = d.u8("inst mem size")?;
                        Some((addr, size, kind_from_code(d.u8("inst mem kind")?)?))
                    }
                    v => return Err(corrupt(format!("inst mem flag {v}"))),
                };
                if di.mem.is_some() != self.plan.inst(di.plan as usize).mem_kind.is_some() {
                    return Err(corrupt(format!("inst {seq}: memory access mismatch")));
                }
                di.accel_at = d.u32("inst accel index")?;
                inflight.live += 1;
            }
            inflight.slots.push_back(di);
        }
        inflight.advance_head();
        for (parent, child) in children {
            if !inflight.add_child(parent, child) || inflight.get(child).is_none() {
                return Err(corrupt(format!("dependence {parent} -> {child} is dead")));
            }
        }
        self.inflight = inflight;
        self.ready = ReadySet::rebuild(&self.inflight, self.window_limit());

        dec_len(d, "tile latest-def table", self.latest.len())?;
        for slot in &mut self.latest {
            *slot = d.opt_u64("tile latest slot")?;
        }

        self.completions.clear();
        for _ in 0..d.u64("tile completion count")? {
            let cycle = d.u64("tile completion cycle")?;
            let seq = d.u64("tile completion seq")?;
            self.completions.push(Reverse((cycle, seq)));
        }

        self.reqs.clear();
        for _ in 0..d.u64("tile request count")? {
            let id = ReqId(d.u64("tile request id")?);
            if self.reqs.back().is_some_and(|last| last.id >= id) {
                return Err(corrupt(format!("request {} out of order", id.0)));
            }
            let on_done = match d.u8("tile request tag")? {
                0 => ReqDone::Retire(d.u64("tile request seq")?),
                1 => ReqDone::Detached(dec_opt_u32(d, "tile request queue")?),
                v => return Err(corrupt(format!("request tag {v}"))),
            };
            self.reqs.push_back(PendingReq {
                id,
                on_done,
                inst: d.u32("tile request inst")?,
                issued_at: d.u64("tile request cycle")?,
            });
        }

        self.mao.restore_from(d)?;
        for n in &mut self.fu_busy {
            *n = d.u32("tile fu-busy")?;
        }
        dec_len(d, "tile live-dbb table", self.live_dbbs.len())?;
        for n in &mut self.live_dbbs {
            *n = d.u32("tile live-dbb count")?;
        }
        self.base_dbb = d.u64("tile base_dbb")?;
        self.dbbs.clear();
        for _ in 0..d.u64("tile dbb count")? {
            let left = d.u32("tile dbb remaining")?;
            let block = BlockId(d.u32("tile dbb block")?);
            if block.index() >= self.live_dbbs.len() {
                return Err(corrupt(format!("dbb of block {}", block.0)));
            }
            self.dbbs.push_back((left, block));
        }
        let dbbs = self.base_dbb..self.base_dbb.saturating_add(self.dbbs.len() as u64);
        if let Some(di) = self.inflight.slots.iter().find(|di| {
            di.state != DynState::Done
                && !(dbbs.contains(&di.dbb) && self.dbbs[(di.dbb - dbbs.start) as usize].0 > 0)
        }) {
            return Err(corrupt(format!("in-flight inst of dead dbb {}", di.dbb)));
        }
        self.prev_launched_block = dec_opt_u32(d, "tile prev block")?.map(BlockId);
        dec_len(d, "tile bimodal table", self.bimodal.len())?;
        for c in &mut self.bimodal {
            *c = d.u8("tile bimodal counter")?;
        }

        self.pending_pushes.clear();
        for _ in 0..d.u64("tile pending-push count")? {
            self.pending_pushes
                .push_back(d.u32("tile pending-push queue")?);
        }
        self.detached_outstanding = d.u32("tile detached_outstanding")?;
        self.atomic_outstanding = d.u32("tile atomic_outstanding")?;
        self.gate = match d.u8("tile gate tag")? {
            0 => LaunchGate::Free,
            1 => LaunchGate::WaitTerminator {
                seq: d.u64("tile gate seq")?,
                penalty: d.u64("tile gate penalty")?,
            },
            2 => LaunchGate::WaitUntil(d.u64("tile gate cycle")?),
            v => return Err(corrupt(format!("launch gate tag {v}"))),
        };
        self.accel_busy_until = d.opt_u64("tile accel_busy_until")?;
        self.done = d.bool("tile done")?;
        self.stats.restore_from(d)?;

        // The obs payload is always present in the byte stream when the
        // writer had observability on; decode it unconditionally and
        // apply it only if this run has observability on too (resuming
        // at a different level is allowed — it just changes what is
        // recorded from here on, like sampled simulation).
        if d.u8("tile obs flag")? == 1 {
            let profile = IrProfile::decode_from(d)?;
            let timeline = Timeline::decode_from(d)?;
            let interval = match d.u8("tile obs interval flag")? {
                0 => None,
                1 => {
                    let stalled = d.bool("tile obs interval stalled")?;
                    Some((stalled, d.u64("tile obs interval start")?))
                }
                v => return Err(corrupt(format!("obs interval flag {v}"))),
            };
            let first_step = d.opt_u64("tile obs first_step")?;
            let last_seen = d.u64("tile obs last_seen")?;
            if let Some(o) = self.obs.as_mut() {
                o.profile.load(&profile)?;
                o.timeline = timeline;
                o.interval = interval;
                o.first_step = first_step;
                o.last_seen = last_seen;
            }
        }

        // The stall memo is derived state, refilled on demand.
        self.memo.get_mut().span = 0..0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A stateless SplitMix64 roll: both sides of the comparison ask the
    /// same questions in a different order, so answers are keyed, not
    /// drawn from a stream.
    fn roll(seed: u64, cycle: u64, seq: u64, salt: u64) -> u64 {
        let key = seed ^ cycle.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ seq.rotate_left(32) ^ salt;
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// What the checks behind the window check say about a candidate.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Answer {
        /// It issues; `detached`: and completes on the spot, waking
        /// children and maybe moving the window head, inside the walk.
        Issue {
            detached: bool,
        },
        /// Passed over without a count (a busy accelerator).
        Skip,
        Stall(StallKind),
    }

    /// The schedule of one case: answers keyed by `(cycle, seq)`.
    #[derive(Clone, Copy)]
    struct Oracle {
        seed: u64,
        /// Whether `cycle` is one where nothing issues (a blocked tile).
        blocked: fn(u64, u64) -> bool,
    }

    impl Oracle {
        fn answer(&self, cycle: u64, seq: u64) -> Answer {
            let r = roll(self.seed, cycle, seq, 1);
            let kinds = [
                StallKind::Fu,
                StallKind::Mem,
                StallKind::Send,
                StallKind::Recv,
            ];
            match r % 16 {
                0..=7 if !(self.blocked)(self.seed, cycle) => Answer::Issue {
                    detached: r >> 8 & 3 == 0,
                },
                8 => Answer::Skip,
                _ => Answer::Stall(kinds[(r >> 16) as usize % 4]),
            }
        }
    }

    /// What one cycle's walk did.
    #[derive(Default, PartialEq, Debug)]
    struct Outcome {
        issued: Vec<u64>,
        by_kind: [u64; STALL_KINDS],
        /// Stalls by `(static id, kind)`; `None` when the walk was asked
        /// for totals only.
        per_inst: Option<BTreeMap<(u32, usize), u64>>,
    }

    impl Outcome {
        fn stall(&mut self, sid: u32, kind: StallKind) {
            self.by_kind[kind as usize] += 1;
            if let Some(m) = self.per_inst.as_mut() {
                *m.entry((sid, kind as usize)).or_default() += 1;
            }
        }
    }

    /// One side of the comparison: the in-flight ring, and the ready
    /// instructions either as the windowed set or — the model — as the one
    /// sorted list of every `Ready` id that `issue()` used to walk in full.
    struct Side {
        inflight: InFlight,
        set: Option<ReadySet>,
        list: Vec<u64>,
        window: u64,
        /// Candidates the last walk asked the oracle about.
        visits: u64,
    }

    impl Side {
        fn new(windowed: bool, window: u64) -> Self {
            Side {
                inflight: InFlight::new(),
                set: windowed.then(ReadySet::default),
                list: Vec::new(),
                window,
                visits: 0,
            }
        }

        fn limit(&self) -> u64 {
            self.inflight.head + self.window
        }

        fn launch(&mut self, sid: u32, window_exempt: bool) {
            self.inflight.push(DynInst {
                plan: sid,
                state: DynState::Waiting,
                window_exempt,
                remaining_parents: 1,
                dbb: 0,
                first_child: NIL,
                last_child: NIL,
                mem: None,
                accel_at: 0,
            });
        }

        fn wake(&mut self, seq: u64) {
            let di = self.inflight.get_mut(seq).expect("in flight");
            assert_eq!(di.state, DynState::Waiting);
            di.state = DynState::Ready;
            let exempt = di.window_exempt;
            match self.set.as_mut() {
                Some(set) => set.wake(seq, exempt),
                None => insert_sorted(&mut self.list, seq),
            }
        }

        fn seqs_in(&self, state: DynState) -> Vec<u64> {
            let slots = (self.inflight.base_seq..).zip(&self.inflight.slots);
            slots
                .filter(|(_, d)| d.state == state)
                .map(|(s, _)| s)
                .collect()
        }

        /// Issues `seq`; a detached issue retires it at once and wakes up
        /// to three of the waiting instructions behind it.
        fn issue(&mut self, oracle: &Oracle, cycle: u64, seq: u64, detached: bool) {
            self.inflight.get_mut(seq).expect("in flight").state = DynState::Issued;
            if detached {
                self.inflight.retire(seq);
                let waiting = self.seqs_in(DynState::Waiting);
                let younger: Vec<u64> = waiting.into_iter().filter(|&w| w > seq).collect();
                for k in 0..roll(oracle.seed, cycle, seq, 2) % 4 {
                    let pick = roll(oracle.seed, cycle, seq, 3 + k) as usize;
                    if let Some(&child) = younger.get(pick % younger.len().max(1)) {
                        if self
                            .inflight
                            .get(child)
                            .is_some_and(|d| d.state == DynState::Waiting)
                        {
                            self.wake(child);
                        }
                    }
                }
            }
        }

        fn walk(&mut self, oracle: &Oracle, cycle: u64, width: u32, per_slot: bool) -> Outcome {
            let mut out = Outcome {
                per_inst: per_slot.then(BTreeMap::new),
                ..Outcome::default()
            };
            self.visits = 0;
            let limit = self.limit();
            let sid = |inflight: &InFlight, seq| inflight.get(seq).expect("in flight").plan;
            if let Some(set) = self.set.as_mut() {
                set.begin_walk(&self.inflight, limit, width);
                while let Some(seq) = self.set.as_ref().and_then(ReadySet::peek) {
                    self.visits += 1;
                    let di = *self.inflight.get(seq).expect("in flight");
                    assert!(
                        seq < limit || di.window_exempt,
                        "{seq} is behind the window"
                    );
                    let answer = oracle.answer(cycle, seq);
                    match answer {
                        Answer::Issue { detached } => {
                            self.issue(oracle, cycle, seq, detached);
                            out.issued.push(seq);
                        }
                        Answer::Skip => {}
                        Answer::Stall(kind) => out.stall(di.plan, kind),
                    }
                    let set = self.set.as_mut().expect("checked above");
                    set.settle(matches!(answer, Answer::Issue { .. }));
                }
                let set = self.set.as_mut().expect("checked above");
                let charged: Vec<u64> = set.charged(limit).collect();
                let n = set.end_walk(&self.inflight, limit);
                assert_eq!(n, charged.len() as u64);
                if per_slot {
                    for seq in charged {
                        out.stall(sid(&self.inflight, seq), StallKind::Window);
                    }
                } else {
                    out.by_kind[StallKind::Window as usize] += n;
                }
            } else {
                // The old rule: every `Ready` id in one sorted list, visited
                // until the width runs out; what the walk wakes waits in
                // the swapped-in list for the next cycle.
                let cands = std::mem::take(&mut self.list);
                let mut width_left = width;
                let mut kept = Vec::new();
                for (at, &seq) in cands.iter().enumerate() {
                    if width_left == 0 {
                        kept.extend_from_slice(&cands[at..]);
                        break;
                    }
                    let di = *self.inflight.get(seq).expect("in flight");
                    let answer = if seq >= limit && !di.window_exempt {
                        Answer::Stall(StallKind::Window)
                    } else {
                        self.visits += 1;
                        oracle.answer(cycle, seq)
                    };
                    match answer {
                        Answer::Issue { detached } => {
                            self.issue(oracle, cycle, seq, detached);
                            out.issued.push(seq);
                            width_left -= 1;
                            continue;
                        }
                        Answer::Skip => {}
                        Answer::Stall(kind) => out.stall(sid(&self.inflight, seq), kind),
                    }
                    kept.push(seq);
                }
                for seq in std::mem::replace(&mut self.list, kept) {
                    insert_sorted(&mut self.list, seq);
                }
            }
            out
        }

        /// The survey's issue walk between steps: `None` if a candidate
        /// would issue, else the stalls one blocked cycle counts.
        fn survey(&self, oracle: &Oracle, cycle: u64) -> Option<Outcome> {
            let mut out = Outcome {
                per_inst: Some(BTreeMap::new()),
                ..Outcome::default()
            };
            let limit = self.limit();
            let slot = |seq| self.inflight.get(seq).expect("in flight");
            let visit = |out: &mut Outcome, seq: u64| match oracle.answer(cycle, seq) {
                Answer::Issue { .. } => false,
                Answer::Skip => true,
                Answer::Stall(kind) => {
                    out.stall(slot(seq).plan, kind);
                    true
                }
            };
            match &self.set {
                Some(set) => {
                    for seq in set.candidates(&self.inflight, limit) {
                        if !visit(&mut out, seq) {
                            return None;
                        }
                    }
                    let parked: Vec<u64> = set.parked_beyond(limit).collect();
                    assert_eq!(parked.len() as u64, set.backlog(&self.inflight, limit));
                    for seq in parked {
                        out.stall(slot(seq).plan, StallKind::Window);
                    }
                }
                None => {
                    for &seq in &self.list {
                        if seq >= limit && !slot(seq).window_exempt {
                            out.stall(slot(seq).plan, StallKind::Window);
                        } else if !visit(&mut out, seq) {
                            return None;
                        }
                    }
                }
            }
            Some(out)
        }
    }

    /// The windowed ready set against the full walk it replaced, over
    /// random schedules: launches, out-of-order readiness, completions that
    /// move the head by nothing or by dozens, detached issues that wake
    /// instructions and move the head inside a walk, window-exempt
    /// instructions on both sides of the limit, and a restore now and then.
    /// Same issue order, same stall totals and attribution, same survey —
    /// and the set's walk never asks about an instruction the window check
    /// would have turned away.
    #[test]
    fn windowed_set_matches_the_full_walk() {
        let (mut walks, mut cutoffs_beyond, mut mid_walk_parks, mut blocked_surveys) = (0, 0, 0, 0);
        for case in 0..300u64 {
            let seed = roll(0x5eed, case, 0, 0);
            let window = [1, 2, 3, 8, 32, 128][(seed % 6) as usize];
            let width = 1 + (seed >> 8) as u32 % 8;
            let per_slot = case % 2 == 0;
            let oracle = Oracle {
                seed,
                blocked: |seed, cycle| roll(seed, cycle, 0, 9).is_multiple_of(3),
            };
            let mut sides = [Side::new(true, window), Side::new(false, window)];
            for cycle in 0..120u64 {
                let r = |salt| roll(seed, cycle, u64::MAX, salt);
                for side in &mut sides {
                    // Launch, keeping at most 200 in flight.
                    for k in 0..r(10) % 12 {
                        if side.inflight.live < 200 {
                            let pick = roll(seed, cycle, k, 11);
                            side.launch((pick % 16) as u32, pick >> 8 & 7 == 0);
                        }
                    }
                    // Complete issued instructions: none, a few, or all.
                    let odds = [0, 8, 2, 1][r(12) as usize % 4];
                    for seq in side.seqs_in(DynState::Issued) {
                        if odds != 0 && roll(seed, cycle, seq, 13).is_multiple_of(odds) {
                            side.inflight.retire(seq);
                        }
                    }
                    // Wake waiting instructions, in no particular order.
                    let odds = [2, 3, 6][r(14) as usize % 3];
                    for seq in side.seqs_in(DynState::Waiting) {
                        if roll(seed, cycle, seq, 15).is_multiple_of(odds) {
                            side.wake(seq);
                        }
                    }
                    // A restore rebuilds the set from the slots.
                    if r(16) % 16 == 0 {
                        let limit = side.limit();
                        if side.set.is_some() {
                            side.set = Some(ReadySet::rebuild(&side.inflight, limit));
                        }
                    }
                }
                let label = format!("case {case} (window {window}, width {width}), cycle {cycle}");
                let ready = sides[0].seqs_in(DynState::Ready);
                let exempt = |s: &u64| sides[0].inflight.get(*s).is_some_and(|d| d.window_exempt);
                let budget = window + ready.iter().filter(|s| exempt(s)).count() as u64;
                let limit = sides[0].limit();
                let parked_before = sides[0].set.as_ref().map_or(0, |s| s.parked.len());

                let [set, model] = &mut sides;
                let got = set.walk(&oracle, cycle, width, per_slot);
                let want = model.walk(&oracle, cycle, width, per_slot);
                assert_eq!(got, want, "{label}: walk");
                assert!(set.visits <= budget, "{label}: {} visits", set.visits);
                assert_eq!(set.visits, model.visits, "{label}: visits");
                walks += 1;
                cutoffs_beyond += u64::from(
                    got.issued.len() == width as usize && got.issued.last() >= Some(&limit),
                );
                let parked_after = set.set.as_ref().map_or(0, |s| s.parked.len());
                mid_walk_parks += u64::from(parked_after > parked_before);

                // Between steps: the head may have moved inside the walk.
                let got = set.survey(&oracle, cycle + 1_000);
                assert_eq!(got, model.survey(&oracle, cycle + 1_000), "{label}: survey");
                blocked_surveys += u64::from(got.is_some());
                for state in [DynState::Waiting, DynState::Ready, DynState::Issued] {
                    assert_eq!(
                        set.seqs_in(state),
                        model.seqs_in(state),
                        "{label}: {state:?}"
                    );
                }
            }
        }
        // The schedules reach the corners the contract names.
        assert!(
            walks == 36_000 && cutoffs_beyond > 50,
            "{cutoffs_beyond} cutoffs beyond"
        );
        assert!(
            mid_walk_parks > 50,
            "{mid_walk_parks} walks parked what they woke"
        );
        assert!(blocked_surveys > 1_000, "{blocked_surveys} blocked surveys");
    }

    // -----------------------------------------------------------------
    // The stall memo against the walk.
    // -----------------------------------------------------------------

    use crate::tests::small_mem;
    use crate::{ChannelConfig, NoAccel};
    use mosaic_ir::{BinOp, Constant, FunctionBuilder, MemImage, RtVal, TileProgram, Type};
    use mosaic_mem::MemoryHierarchy;

    /// Iterations of every loop below, and so messages per queue.
    const N: i64 = 40;
    /// The queues the schedule plays the far end of: it feeds `FEED` and
    /// drains `DRAIN`, whose other ends are in the third tile.
    const FEED: u32 = 7;
    const DRAIN: u32 = 8;

    /// A DeSC pair and a lone tile, with their traces: `access` loads and
    /// supplies (terminal loads, queue 0) and stores what comes back
    /// (store-value recvs and detached stores, queue 1), `execute` computes
    /// in between, and `lone` loads, receives from `FEED`, stores and sends
    /// to `DRAIN`.
    fn memo_kernels() -> (Arc<Module>, [FuncId; 3], Vec<Arc<TileTrace>>) {
        let mut m = Module::new("memo");
        let ptrs = |n: usize| -> Vec<(String, Type)> {
            let names = ["p", "q"];
            names[..n]
                .iter()
                .map(|s| (s.to_string(), Type::Ptr))
                .collect()
        };
        let looped =
            |m: &mut Module,
             name: &str,
             nptrs: usize,
             body: &dyn Fn(&mut FunctionBuilder<'_>, mosaic_ir::Operand)| {
                let f = m.add_function(name, ptrs(nptrs), Type::Void);
                let mut b = FunctionBuilder::new(m.function_mut(f));
                let entry = b.create_block("entry");
                b.switch_to(entry);
                b.emit_counted_loop(
                    "l",
                    Constant::i64(0).into(),
                    Constant::i64(N).into(),
                    |b, i| body(b, i),
                );
                b.ret(None);
                f
            };
        let access = looped(&mut m, "access", 2, &|b, i| {
            let (p, q) = (b.param(0), b.param(1));
            let a = b.gep(p, i, 64);
            let v = b.load(Type::I32, a);
            b.send(0, v);
            let w = b.recv(1, Type::I32);
            let d = b.gep(q, i, 4);
            b.store(d, w);
        });
        let execute = looped(&mut m, "execute", 0, &|b, _| {
            let x = b.recv(0, Type::I32);
            let y = b.bin(BinOp::Mul, x, Constant::i32(3).into());
            let z = b.bin(BinOp::Add, y, x);
            b.send(1, z);
        });
        let lone = looped(&mut m, "lone", 1, &|b, i| {
            let p = b.param(0);
            let a = b.gep(p, i, 64);
            let v = b.load(Type::I32, a);
            b.send(DRAIN, v);
            let w = b.recv(FEED, Type::I32);
            let s = b.bin(BinOp::Add, w, Constant::i32(1).into());
            let d = b.gep(p, i, 4);
            b.store(d, s);
        });
        // The schedule's two roles, for the interpreter only.
        let feeder = looped(&mut m, "feeder", 0, &|b, _| {
            b.send(FEED, Constant::i32(1).into())
        });
        let drain = looped(&mut m, "drain", 0, &|b, _| {
            b.recv(DRAIN, Type::I32);
        });
        mosaic_ir::verify_module(&m).expect("well-formed");

        let mut img = MemImage::new();
        let bufs: Vec<i64> = (0..3)
            .map(|_| img.alloc_i32(16 * N as u64) as i64)
            .collect();
        let args = |bufs: &[i64]| bufs.iter().map(|&b| RtVal::Int(b)).collect();
        let progs = vec![
            TileProgram::single(access, args(&bufs[..2])),
            TileProgram::single(execute, vec![]),
            TileProgram::single(lone, args(&bufs[2..])),
            TileProgram::single(feeder, vec![]),
            TileProgram::single(drain, vec![]),
        ];
        let mut rec = mosaic_trace::TraceRecorder::new(progs.len());
        mosaic_ir::run_tiles(&m, img, &progs, &mut rec).expect("runs");
        let trace = rec.finish();
        let traces = (0..3).map(|t| Arc::new(trace.tile(t).clone())).collect();
        (Arc::new(m), [access, execute, lone], traces)
    }

    /// Three tiles over one memory and one channel set, and what the
    /// schedule holds back or has done so far.
    struct Rig {
        tiles: Vec<CoreTile>,
        mem: MemoryHierarchy,
        channels: ChannelSet,
        /// Completions the memory produced and the schedule has yet to
        /// deliver.
        late: Vec<mosaic_mem::Completion>,
        fed: i64,
        /// The model the memo is held to: every step is the walk.
        walk_only: bool,
    }

    impl Rig {
        fn state(&self, tile: usize) -> Vec<u8> {
            let mut enc = Enc::new();
            self.tiles[tile].save_state(&mut enc);
            enc.into_bytes()
        }

        /// The memory, the completions the schedule lets through, and its
        /// sends and receives at `now`; the tiles' steps are the caller's.
        /// Returns which tiles got a completion.
        fn before_steps(&mut self, seed: u64, now: u64) -> [bool; 3] {
            self.mem.step(now);
            self.late.extend(self.mem.drain_completions());
            let mut delivered = [false; 3];
            let tiles = &mut self.tiles;
            self.late.retain(|c| {
                let hold = roll(seed, now, c.id.0, 20).is_multiple_of(4);
                if !hold {
                    tiles[c.tile].on_mem_completion(c.id, now);
                    delivered[c.tile] = true;
                }
                hold
            });
            // Bursts: the far ends go quiet for spans of cycles.
            let live = |salt| {
                !roll(seed, now / 32, 0, salt).is_multiple_of(3)
                    && roll(seed, now, 0, salt).is_multiple_of(2)
            };
            let started = now > 40 + roll(seed, 0, 0, 23) % 400;
            if started && self.fed < N && live(21) && self.channels.would_have_space(FEED) {
                assert!(self.channels.channel_mut(FEED).try_send(now));
                self.fed += 1;
            }
            if live(22)
                && self
                    .channels
                    .channel(DRAIN)
                    .is_some_and(|c| c.can_recv(now))
            {
                assert!(self.channels.channel_mut(DRAIN).try_recv(now));
            }
            delivered
        }

        fn step_tile(&mut self, tile: usize, now: u64) {
            if self.walk_only {
                // Neither a memo to answer from nor a reason to take one.
                self.tiles[tile].idle = false;
                self.tiles[tile].memo.get_mut().span = 0..0;
            }
            let mut ctx = TileCtx {
                now,
                mem: &mut self.mem,
                channels: &mut self.channels,
                accel: &mut NoAccel,
            };
            self.tiles[tile].step(&mut ctx).expect("step");
        }

        fn epoch(&self) -> u64 {
            self.channels
                .iter()
                .map(|(q, _)| self.channels.version(q))
                .sum()
        }
    }

    /// The memo against the model it replaces — the same tile stepping by
    /// the walk alone, every cycle — over keyed schedules: the far ends of
    /// two queues sending and receiving in bursts, memory completions held
    /// back, tiles left unstepped for spans, the clock jumping to (or short
    /// of) the horizon the tiles report, a state round trip and an observe
    /// reset now and then; DeSC and plain cores, small channels, at every
    /// level. Same `TileStats` every cycle, same `save_state` bytes (MAO
    /// stall kinds, profile and timeline included) — and within a span in
    /// which nothing a tile is sensitive to happens, however long, `verdict`
    /// runs in at most two of its steps.
    #[test]
    fn memo_matches_the_walk() {
        let (module, funcs, traces) = memo_kernels();
        let (mut long_streaks, mut served, mut jumps) = (0u64, 0u64, 0u64);
        for case in 0..36u64 {
            let seed = roll(0x3e30, case, 0, 0);
            let level = [ObsLevel::Off, ObsLevel::Stats, ObsLevel::Trace][(case % 3) as usize];
            let mut wide = CoreConfig::out_of_order().with_desc_extensions(true);
            (wide.window_size, wide.issue_width, wide.desc_buffer) = (8, 2, 2);
            let configs = match seed >> 8 & 1 {
                0 => [
                    CoreConfig::dae_access(),
                    CoreConfig::in_order(),
                    CoreConfig::out_of_order(),
                ],
                _ => [wide.clone(), CoreConfig::out_of_order(), wide],
            };
            let channel = ChannelConfig {
                capacity: [1, 2, 4][(seed >> 16) as usize % 3],
                latency: [1, 3][(seed >> 24) as usize % 2],
            };
            let rig = |walk_only: bool| {
                let tiles = (0..3).map(|t| {
                    let config = configs[t].clone().with_name(&format!("t{t}"));
                    let (module, trace) = (module.clone(), traces[t].clone());
                    let mut tile = CoreTile::new(config, module, funcs[t], trace, t);
                    tile.set_observe(level);
                    tile
                });
                Rig {
                    tiles: tiles.collect(),
                    mem: small_mem(3),
                    channels: ChannelSet::new(channel),
                    late: Vec::new(),
                    fed: 0,
                    walk_only,
                }
            };
            let (mut memo, mut model) = (rig(false), rig(true));
            // Per tile: steps and steps with a `verdict` call of the
            // running span, and the channel epoch its last step left.
            let mut spans = [(0u64, 0u64, 0u64); 3];
            let mut now = 0u64;
            while memo.tiles.iter().any(|t| !t.is_done()) {
                let label = format!("case {case} ({level:?}, {channel:?}), cycle {now}");
                assert!(now < 200_000, "{label}: did not finish");

                // A jump: the memo side skips to the horizon its tiles
                // report, or short of it; the model steps through.
                let cap = now + 1 + roll(seed, now, 0, 30) % 48;
                if roll(seed, now, 0, 31).is_multiple_of(4) && memo.late.is_empty() {
                    let mut target = memo.mem.next_event_cycle(now).map_or(cap, |e| e.min(cap));
                    for tile in memo.tiles.iter().filter(|t| !t.is_done()) {
                        target = match tile.next_event(now, &memo.channels) {
                            Horizon::Ready => now,
                            Horizon::At(wake) => target.min(wake),
                            Horizon::Blocked => target,
                        };
                        if target <= now {
                            break;
                        }
                    }
                    if target > now {
                        jumps += 1;
                        for tile in memo.tiles.iter_mut().filter(|t| !t.is_done()) {
                            tile.on_cycles_skipped(now, target - now, &memo.channels);
                        }
                        for x in now..target {
                            model.mem.step(x);
                            assert!(
                                model.mem.drain_completions().is_empty(),
                                "{label}: jumped an event"
                            );
                            for t in 0..3 {
                                if !model.tiles[t].is_done() {
                                    model.step_tile(t, x);
                                }
                            }
                        }
                        now = target;
                    }
                }

                let delivered = memo.before_steps(seed, now);
                assert_eq!(
                    model.before_steps(seed, now),
                    delivered,
                    "{label}: completions"
                );
                for t in 0..3 {
                    // A tile goes unstepped for a span now and then.
                    if memo.tiles[t].is_done()
                        || roll(seed, now / 16, t as u64, 32).is_multiple_of(5)
                    {
                        continue;
                    }
                    // Dropping the memo — a state round trip, an observe
                    // reset before anything is recorded — changes nothing.
                    let drop_memo = roll(seed, now, t as u64, 33).is_multiple_of(64);
                    if drop_memo {
                        let bytes = memo.state(t);
                        memo.tiles[t]
                            .restore_state(&mut Dec::new(&bytes))
                            .expect("round trip");
                    }
                    let tile = &memo.tiles[t];
                    let span_end = tile.memo.borrow().span.end;
                    let held = tile.memo.borrow().holds(now, &memo.channels);
                    let (mark, verdicts) = (tile.progress_mark(), tile.verdicts.get());
                    if delivered[t]
                        || drop_memo
                        || now >= span_end && span_end > 0
                        || memo.epoch() != spans[t].2
                    {
                        spans[t] = (0, 0, memo.epoch());
                    }
                    memo.step_tile(t, now);
                    model.step_tile(t, now);
                    let tile = &memo.tiles[t];
                    let ran_verdict = tile.verdicts.get() != verdicts;
                    assert!(
                        !(held && ran_verdict),
                        "{label}: tile {t} walked though its memo held"
                    );
                    // (A hardware push moves a channel, not the mark.)
                    if tile.progress_mark() != mark || memo.epoch() != spans[t].2 {
                        spans[t] = (0, 0, 0);
                    } else {
                        spans[t].0 += 1;
                        spans[t].1 += u64::from(ran_verdict);
                        assert!(
                            spans[t].1 <= 2,
                            "{label}: tile {t} walked {} times in one span",
                            spans[t].1
                        );
                        long_streaks += u64::from(spans[t].0 == 16);
                        served += u64::from(!ran_verdict);
                    }
                    spans[t].2 = memo.epoch();
                    // (Only a step brings a skipped tile's `stats.cycles` up
                    // to date, so the sides are compared after one.)
                    assert_eq!(tile.stats(), model.tiles[t].stats(), "{label}: tile {t}");
                    if now.is_multiple_of(16) || tile.is_done() {
                        assert!(memo.state(t) == model.state(t), "{label}: tile {t} state");
                    }
                }
                now += 1;
            }
            for (t, trace) in traces.iter().enumerate() {
                assert!(model.tiles[t].is_done(), "case {case}: model tile {t}");
                assert_eq!(memo.tiles[t].stats().retired, trace.retired());
                let profiles = [&mut memo, &mut model].map(|rig| {
                    let mut enc = Enc::new();
                    rig.tiles[t].take_profile().encode_into(&mut enc);
                    enc.into_bytes()
                });
                assert!(profiles[0] == profiles[1], "case {case}: tile {t} profile");
            }
            let channels = [&memo, &model].map(|rig| {
                let mut enc = Enc::new();
                rig.channels.encode_into(&mut enc);
                enc.into_bytes()
            });
            assert!(
                channels[0] == channels[1] && memo.fed == N,
                "case {case}: channels"
            );
        }
        // The schedules reach what the contract names.
        assert!(long_streaks > 200, "{long_streaks} spans of 16 idle steps");
        assert!(served > 20_000, "{served} steps served by the memo");
        assert!(jumps > 500, "{jumps} jumps");
    }
}

//! A naive reference core tile: DESIGN.md §4.1's execution model through the
//! four methods `Tile` requires. The launched, incomplete instructions sit in
//! one map by sequence number, and every question (ready? the window's head?
//! how many of a class issued? an older store that may alias?) is a scan of
//! it: no ring, ready set, stall memo or launch plan. Parents come from the
//! IR's operands; `StaticDdg` gives only class, memory kind and queue; DeSC
//! roles, fusion and static predictions follow from their definitions. It
//! makes no accelerator calls, and panics where `CoreTile` returns an error.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use mosaicsim::ddg::{InstClass, MemKind, StaticDdg};
use mosaicsim::ir::analysis::Cfg;
use mosaicsim::ir::{BlockId, FuncId, Function, InstId, Module, Opcode, Operand};
use mosaicsim::mem::{AccessKind, MemReq, ReqId};
use mosaicsim::obs::StallKind;
use mosaicsim::prelude::{BranchMode, CoreConfig};
use mosaicsim::tile::{Tile, TileCtx, TileError, TileStats};
use mosaicsim::trace::TileTrace;

/// What never changes about one static instruction: a `send`/`recv`'s
/// channel (queue offset added); whether it completes the moment its parents
/// have (a phi, an instruction fused into its one user, a send a DeSC
/// terminal load stands in for); and under DeSC (paper §VII-A), whether it
/// is exempt from the window, and whether it is a fire-and-forget access
/// outside the MAO (for a terminal load, with the channel the data goes to).
#[derive(Clone, Copy, Default)]
struct Static {
    class: Option<InstClass>,
    mem: Option<AccessKind>,
    queue: Option<u32>,
    zero_cost: bool,
    exempt: bool,
    detached: Option<Option<u32>>,
}

#[derive(Clone, Copy, PartialEq)]
enum State { Waiting, Ready, Issued }

/// A launched instruction that has not completed.
struct Dyn {
    s: Static,
    block: BlockId,
    dbb: u64,
    parents: Vec<u64>,
    state: State,
    done: Option<u64>, // when an issued instruction completes, once known
    addr: u64,
    size: u8,
}

/// What the next DBB's launch waits for: a cycle, or terminator `.0` to
/// complete and then `.1` cycles more.
#[derive(Clone, Copy)]
enum Gate { Until(u64), Terminator(u64, u64) }

/// A naive core tile; see the module documentation.
pub struct RefTile {
    cfg: CoreConfig,
    module: Arc<Module>,
    func: FuncId,
    trace: Arc<TileTrace>,
    slot: usize,
    fu: Vec<u32>, // by `InstClass::code`
    info: HashMap<InstId, Static>,
    counters: HashMap<BlockId, u8>, // the bimodal predictor's
    stats: TileStats,
    path: Vec<BlockId>,
    next_block: usize,
    streams: HashMap<InstId, usize>, // how far each address stream is read
    insts: BTreeMap<u64, Dyn>,
    next_seq: u64,
    latest: HashMap<InstId, u64>,
    gate: Gate,
    /// Outstanding requests: the instruction each completes, or `Err` for a
    /// detached access, with the channel a terminal load's data goes to.
    reqs: HashMap<ReqId, Result<u64, Option<u32>>>,
    pushes: VecDeque<u32>,
}

impl RefTile {
    pub fn new(
        cfg: CoreConfig, module: Arc<Module>, func: FuncId, trace: Arc<TileTrace>, slot: usize,
    ) -> Self {
        let f = module.function(func);
        let uses = f.use_counts();
        // The definition `o` names, if this is its one use and `want` holds.
        let sole = |o: &Operand, want: fn(&Opcode) -> bool| {
            o.as_inst().filter(|d| uses[d.index()] == 1 && want(f.inst(*d).op()))
        };
        let (free, plain) = (Static { zero_cost: true, ..Static::default() }, Static::default());
        let mut info: HashMap<InstId, Static> = HashMap::new();
        for &i in f.blocks().flat_map(|b| b.insts()) {
            // Fusion: a `gep` whose one use is an address, a compare whose
            // one use is a branch condition.
            let fused = match f.inst(i).op() {
                Opcode::Load { addr } | Opcode::Store { addr, .. } if cfg.fusion.gep_into_mem => {
                    sole(addr, |op| matches!(op, Opcode::Gep { .. }))
                }
                Opcode::CondBr { cond, .. } if cfg.fusion.cmp_into_branch => {
                    sole(cond, |op| matches!(op, Opcode::ICmp { .. } | Opcode::FCmp { .. }))
                }
                _ => None,
            };
            info.extend(fused.map(|d| (d, free)));
            // DeSC: a load whose one use is a `send` is a terminal load, and
            // its hardware push stands in for the send; a `recv` whose one
            // use is a store's value is exempt, and the store detached.
            let (def, roles) = match f.inst(i).op() {
                Opcode::Send { queue, value } if cfg.desc_extensions => {
                    let push = Some(Some(queue + cfg.queue_offset));
                    let def = sole(value, |op| matches!(op, Opcode::Load { .. }));
                    (def, [Static { exempt: true, detached: push, ..plain }, free])
                }
                Opcode::Store { value, .. } if cfg.desc_extensions => {
                    let def = sole(value, |op| matches!(op, Opcode::Recv { .. }));
                    let store = Static { exempt: true, detached: Some(None), ..plain };
                    (def, [Static { exempt: true, ..plain }, store])
                }
                _ => continue,
            };
            info.extend(def.into_iter().flat_map(|d| [(d, roles[0]), (i, roles[1])]));
        }
        let ddg = StaticDdg::build(f);
        for p in (0..ddg.len()).map(|i| ddg.inst(i)) {
            let s = info.entry(p.inst).or_default();
            s.zero_cost |= p.class == InstClass::Phi;
            (s.class, s.queue) = (Some(p.class), p.queue.map(|q| q + cfg.queue_offset));
            s.mem = p.mem_kind.map(|k| match k {
                MemKind::Load => AccessKind::Read,
                MemKind::Store => AccessKind::Write,
                MemKind::Atomic(_) => AccessKind::Atomic,
            });
        }
        // `FuLimits` shows its limits, by `InstClass::code`, only through `Debug`.
        let shown = format!("{:?}", cfg.fu);
        let list = &shown[shown.find('[').expect("[") + 1..shown.find(']').expect("]")];
        RefTile {
            fu: list.split(", ").map(|n| n.parse().expect("a limit")).collect(),
            stats: TileStats { name: cfg.name.clone(), ..TileStats::default() },
            path: trace.path().collect(),
            info, next_block: 0, next_seq: 0, gate: Gate::Until(0),
            counters: HashMap::new(), streams: HashMap::new(), latest: HashMap::new(),
            insts: BTreeMap::new(), reqs: HashMap::new(), pushes: VecDeque::new(),
            cfg, module, func, trace, slot,
        }
    }

    /// Launches DBBs in path order while the gate is open and the live-DBB
    /// limit and the in-flight bound leave room.
    fn launch(&mut self, now: u64) {
        let module = self.module.clone();
        let f = module.function(self.func);
        while let Some(&block) = self.path.get(self.next_block) {
            let open = matches!(self.gate, Gate::Until(c) if c <= now);
            let same = self.insts.values().filter(|d| d.block == block);
            let live = same.map(|d| d.dbb).collect::<BTreeSet<_>>().len() as u32;
            let live_ok = self.cfg.live_dbb_limit.is_none_or(|limit| live < limit);
            let len = f.block(block).insts().len() as u64;
            if !open || !live_ok || self.insts.len() as u64 + len > self.cfg.max_inflight {
                return;
            }
            let prev = self.next_block.checked_sub(1).map(|k| self.path[k]);
            let dbb = self.stats.dbbs_launched;
            (self.next_block, self.stats.dbbs_launched) = (self.next_block + 1, dbb + 1);
            for &inst in f.block(block).insts() {
                let (seq, s) = (self.next_seq, self.info[&inst]);
                self.next_seq += 1;
                // Parents: the latest instance of each operand's definition;
                // for a phi, of the value flowing in from the previous DBB.
                let mut parents = Vec::new();
                let mut parent = |o: Operand| {
                    parents.extend(o.as_inst().and_then(|d| self.latest.get(&d)));
                };
                match f.inst(inst).op() {
                    Opcode::Phi { incoming } => {
                        let prev = prev.expect("a phi's DBB follows another");
                        let flowing = incoming.iter().find(|(b, _)| *b == prev);
                        flowing.into_iter().for_each(|&(_, o)| parent(o));
                    }
                    op => op.for_each_operand(parent),
                }
                parents.retain(|p| self.insts.contains_key(p));
                assert!(s.class != Some(InstClass::Accel), "an accelerator call");
                let (nth, mut addr, mut size) = (self.streams.entry(inst).or_insert(0), 0, 0);
                if s.mem.is_some() {
                    let a = self.trace.mem_access(inst, *nth).expect("the trace's access");
                    (*nth, addr, size) = (*nth + 1, a.addr, a.size);
                }
                let (ready, state, done) = (parents.is_empty(), State::Waiting, None);
                self.insts.insert(seq, Dyn { s, block, dbb, parents, state, done, addr, size });
                self.latest.insert(inst, seq);
                if ready {
                    self.make_ready(seq, now);
                }
            }
            let (term, branch) = (self.next_seq - 1, self.cfg.branch);
            let actual = self.path.get(self.next_block).copied();
            self.gate = match branch {
                BranchMode::Perfect => Gate::Until(0),
                BranchMode::None => Gate::Terminator(term, 0),
                _ if self.predict(block, actual) == actual => Gate::Until(0),
                _ => {
                    self.stats.mispredicts += 1;
                    Gate::Terminator(term, self.cfg.mispredict_penalty)
                }
            };
        }
    }

    /// The prediction for `block`'s terminator: the static one, or a 2-bit saturating
    /// counter per conditional branch (2 or more predicts `on_true`), trained on it.
    fn predict(&mut self, block: BlockId, actual: Option<BlockId>) -> Option<BlockId> {
        let f = self.module.function(self.func);
        match f.inst(f.block(block).terminator()?).op() {
            Opcode::Br { target } => Some(*target),
            Opcode::CondBr { on_true, on_false, .. } if self.cfg.branch == BranchMode::Bimodal => {
                let c = self.counters.entry(block).or_insert(2);
                let predicted = if *c >= 2 { *on_true } else { *on_false };
                if actual == Some(*on_true) {
                    *c = (*c + 1).min(3);
                } else if actual == Some(*on_false) {
                    *c = c.saturating_sub(1);
                }
                Some(predicted)
            }
            Opcode::CondBr { on_true: t, on_false: e, .. } => Some(loop_edge(f, block, *t, *e)),
            _ => None,
        }
    }

    fn make_ready(&mut self, seq: u64, now: u64) {
        let d = self.insts.get_mut(&seq).expect("in flight");
        d.state = State::Ready;
        if d.s.zero_cost {
            self.stats.issued += 1;
            self.complete(seq, now);
        }
    }

    /// Completes `seq`, and readies each instruction waiting on it whose
    /// parents have all completed.
    fn complete(&mut self, seq: u64, now: u64) {
        self.insts.remove(&seq);
        self.stats.retired += 1;
        if let Gate::Terminator(t, penalty) = self.gate {
            self.gate = if t == seq { Gate::Until(now + penalty) } else { self.gate };
        }
        let children = self.insts.iter().filter(|(_, d)| d.parents.contains(&seq));
        for child in children.map(|(&c, _)| c).collect::<Vec<_>>() {
            let gone = |d: &Dyn| d.parents.iter().all(|p| !self.insts.contains_key(p));
            if self.insts.get(&child).is_some_and(|d| d.state == State::Waiting && gone(d)) {
                self.make_ready(child, now);
            }
        }
    }

    /// Whether the MAO admits memory op `seq`: the LSQ has room, and no
    /// older incomplete access it must follow (any, for a store; a store,
    /// for a load) is to the same 8-byte word or — without alias
    /// speculation — to an address not yet resolved.
    fn mao_admits(&self, seq: u64) -> bool {
        let tracked = |d: &&Dyn| d.s.mem.is_some() && d.s.detached.is_none();
        let issued = self.insts.values().filter(tracked).filter(|d| d.state == State::Issued);
        let (me, lsq_full) = (&self.insts[&seq], issued.count() >= self.cfg.lsq_size as usize);
        let store = |d: &Dyn| d.s.mem != Some(AccessKind::Read);
        let mut older = self.insts.range(..seq).map(|(_, d)| d).filter(tracked);
        !lsq_full && !older.any(|e| {
            let resolved = self.cfg.alias_speculation || e.state != State::Waiting;
            (store(me) || store(e)) && (e.addr >> 3 == me.addr >> 3 || !resolved)
        })
    }

    /// Offers ready instruction `seq` to the issue stage: the stall it
    /// counts, or `None` if it issued.
    fn issue(&mut self, seq: u64, ctx: &mut TileCtx<'_>) -> Option<StallKind> {
        let (d, now) = (&self.insts[&seq], ctx.now);
        let (s, class) = (d.s, d.s.class.expect("a launched instruction"));
        let of_class = |d: &&Dyn| d.state == State::Issued && d.s.class == s.class;
        let issued = self.insts.values().filter(of_class).count() as u32;
        let buffered = self.reqs.values().filter(|r| r.is_err()).count();
        let full = buffered >= self.cfg.desc_buffer as usize;
        let (ch, queue) = (&mut *ctx.channels, s.queue.unwrap_or_default());
        let stall = match class {
            _ if issued >= self.fu[class.code()] => Some(StallKind::Fu),
            // Atomics serialize per tile.
            InstClass::Atomic if issued > 0 => Some(StallKind::Mem),
            _ if s.detached.is_some() => full.then_some(StallKind::Mem),
            _ if s.mem.is_some() => (!self.mao_admits(seq)).then_some(StallKind::Mem),
            InstClass::Send => (!ch.channel_mut(queue).try_send(now)).then_some(StallKind::Send),
            InstClass::Recv => (!ch.channel_mut(queue).try_recv(now)).then_some(StallKind::Recv),
            _ => None,
        };
        if stall.is_some() {
            return stall;
        }
        self.stats.issued += 1;
        let d = self.insts.get_mut(&seq).expect("in flight");
        d.state = State::Issued;
        let Some(kind) = s.mem else {
            let channel_op = matches!(class, InstClass::Send | InstClass::Recv);
            let latency = if channel_op { 1 } else { self.cfg.costs.latency(class).max(1) };
            d.done = Some(now + latency);
            return None;
        };
        let req = MemReq { tile: self.slot, addr: d.addr, size: d.size, kind };
        let id = ctx.mem.request(req, now).expect("memory takes the request");
        self.reqs.insert(id, s.detached.map_or(Ok(seq), Err));
        if s.detached.is_some() {
            self.complete(seq, now);
        }
        None
    }
}

/// The static prediction of `block`'s conditional branch (paper §III-C): the
/// successor from which control returns to `block` soonest, the loop edge; if
/// neither returns, or both as soon, backward taken, forward not taken.
fn loop_edge(f: &Function, block: BlockId, on_true: BlockId, on_false: BlockId) -> BlockId {
    let cfg = Cfg::new(f);
    // Edges from `from` back to `block`, breadth first.
    let back = |from: BlockId| {
        let (mut seen, mut frontier) = (BTreeSet::from([from]), vec![from]);
        for dist in 0.. {
            if frontier.is_empty() || frontier.contains(&block) {
                return (!frontier.is_empty()).then_some(dist);
            }
            let next = frontier.iter().flat_map(|&b| cfg.succs(b));
            frontier = next.copied().filter(|&b| seen.insert(b)).collect();
        }
        None
    };
    match (back(on_true), back(on_false)) {
        (Some(t), e) if e.is_none_or(|e| t < e) => on_true,
        (t, Some(e)) if t.is_none_or(|t| e < t) => on_false,
        _ if on_true.index() <= block.index() => on_true,
        _ => on_false,
    }
}

impl Tile for RefTile {
    fn clock_divisor(&self) -> u64 {
        self.cfg.clock_divisor
    }

    fn on_mem_completion(&mut self, id: ReqId, now: u64) {
        match self.reqs.remove(&id) {
            Some(Ok(seq)) => self.insts.get_mut(&seq).expect("issued").done = Some(now),
            Some(Err(push)) => self.pushes.extend(push),
            None => {}
        }
    }

    fn step(&mut self, ctx: &mut TileCtx<'_>) -> Result<bool, TileError> {
        if self.stats.done_at.is_some() {
            return Ok(false);
        }
        let now = ctx.now;
        let work = |s: &TileStats| s.retired + s.issued + s.dbbs_launched;
        let before = work(&self.stats);
        // Data returned to terminal loads, pushed by hardware in order.
        while self.pushes.front().is_some_and(|&q| ctx.channels.channel_mut(q).try_send(now)) {
            self.pushes.pop_front();
        }
        let due = self.insts.iter().filter(|(_, d)| d.done.is_some_and(|c| c <= now));
        for seq in due.map(|(&s, _)| s).collect::<Vec<_>>() {
            self.complete(seq, now);
        }
        self.launch(now);
        // The issue stage is offered what was ready when it began, oldest first. The
        // window covers `window_size` instructions from the oldest incomplete one not
        // DeSC-exempt; a ready one beyond it is a window stall. Issue width ends it.
        let head = self.insts.iter().find(|(_, d)| !d.s.exempt).map(|(&s, _)| s);
        let limit = head.unwrap_or(self.next_seq).saturating_add(self.cfg.window_size);
        let ready = self.insts.iter().filter(|(_, d)| d.state == State::Ready);
        let ready: Vec<(u64, bool)> = ready.map(|(&s, d)| (s, d.s.exempt)).collect();
        let mut width = self.cfg.issue_width;
        for (seq, exempt) in ready {
            let stall = match exempt || seq < limit {
                true => self.issue(seq, ctx),
                false => Some(StallKind::Window),
            };
            match stall {
                Some(kind) => self.stats.stalls[kind as usize] += 1,
                None if width == 1 => break,
                None => width -= 1,
            }
        }
        let idle = self.insts.is_empty() && self.reqs.is_empty() && self.pushes.is_empty();
        if idle && self.next_block == self.path.len() {
            self.stats.done_at = Some(now);
        }
        Ok(work(&self.stats) != before)
    }

    fn stats(&self) -> &TileStats {
        &self.stats
    }
}

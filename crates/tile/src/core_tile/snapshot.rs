//! Checkpoint encode/restore of a core tile's dynamic state (see
//! mosaic-ckpt and DESIGN.md §4.6).
//!
//! Only dynamic state is written. Everything derived from the configuration,
//! module, and trace — the static DDG with its zero-cost marks, static
//! predictions, DeSC roles — is rebuilt by `CoreTile::new` on the resume path
//! and must therefore be byte-identical by construction, not by
//! serialization. What the dynamic state determines is not written either:
//! the ready set (the `Ready` slots, candidates or parked by the window), the
//! window head, the live count, the path position and the first live DBB's
//! id (from `stats.dbbs_launched`), whether the tile is done (`done_at`), the
//! MAO's occupancy, and the running [`Counts`] ([`CoreTile::recount`]). Every
//! structure is indexed by a dense id, so writing it in index order gives
//! the same bytes for the same state.

use std::cmp::Reverse;

use mosaic_ckpt::{snap_fields, CkptError, Dec, Enc, Snap};
use mosaic_ddg::InstClass;
use mosaic_ir::BlockId;
use mosaic_mem::AccessKind;
use mosaic_obs::{IrProfile, Timeline};

use super::inflight::{DynInst, DynState, InFlight, NIL};
use super::ready_set::ReadySet;
use super::roles::DescRole;
use super::{CoreTile, Counts, LaunchGate, PendingReq, ReqDone};

impl Snap for LaunchGate {
    fn put(&self, e: &mut Enc) {
        match *self {
            LaunchGate::Free => e.u8(0),
            LaunchGate::WaitTerminator { seq, penalty } => (1u8, seq, penalty).put(e),
            LaunchGate::WaitUntil(cycle) => (2u8, cycle).put(e),
        }
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        match d.u8(what)? {
            0 => Ok(LaunchGate::Free),
            1 => {
                Snap::get(d, what).map(|(seq, penalty)| LaunchGate::WaitTerminator { seq, penalty })
            }
            2 => Snap::get(d, what).map(LaunchGate::WaitUntil),
            v => Err(CkptError::corrupt(format!("{what}: launch gate tag {v}"))),
        }
    }
}

impl Snap for ReqDone {
    fn put(&self, e: &mut Enc) {
        match *self {
            ReqDone::Retire(seq) => (0u8, seq).put(e),
            ReqDone::Detached(push) => (1u8, push).put(e),
        }
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        match d.u8(what)? {
            0 => Snap::get(d, what).map(ReqDone::Retire),
            1 => Snap::get(d, what).map(ReqDone::Detached),
            v => Err(CkptError::corrupt(format!("{what}: request tag {v}"))),
        }
    }
}

/// An in-flight slot as a checkpoint holds it: its state and, unless it is
/// done, the rest of it.
struct Slot {
    state: DynState,
    live: Option<LiveSlot>,
}

/// A live slot's plan index, parent count and DBB, its children, and its
/// access and accelerator index.
type LiveSlot = (
    (u32, u32, u64),
    Vec<u64>,
    (Option<(u64, u8, AccessKind)>, u32),
);

impl Snap for Slot {
    fn put(&self, e: &mut Enc) {
        self.state.put(e);
        if let Some(live) = &self.live {
            live.put(e);
        }
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        let state = DynState::get(d, what)?;
        let live = (state != DynState::Done)
            .then(|| Snap::get(d, what))
            .transpose()?;
        Ok(Slot { state, live })
    }
}

snap_fields!(CoreTile: gate, accel_busy_until);

impl CoreTile {
    /// The running counts as the slots, DBBs and requests determine them:
    /// what a restore installs, and what stepping keeps.
    pub(super) fn recount(&self) -> Counts {
        let mut counts = Counts {
            live_dbbs: vec![0; self.counts.live_dbbs.len()],
            ..Counts::default()
        };
        let slots = self.inflight.slots.iter();
        for di in slots.filter(|di| di.state == DynState::Issued) {
            let class = self.plan.inst(di.plan as usize).class;
            if self.config.fu.limit(class) != u32::MAX {
                counts.fu_busy[class.code()] += 1;
            }
            counts.atomic_outstanding += u32::from(class == InstClass::Atomic);
        }
        for &(_, block) in self.dbbs.iter().filter(|dbb| dbb.0 > 0) {
            counts.live_dbbs[block.index()] += 1;
        }
        let detached = |r: &&PendingReq| matches!(r.on_done, ReqDone::Detached(_));
        counts.detached_outstanding = self.reqs.iter().filter(detached).count() as u32;
        counts
    }

    pub(super) fn encode_state(&self, e: &mut Enc) {
        self.cursor.stream_pos.iter().for_each(|pos| pos.put(e));

        e.u64(self.inflight.base_seq);
        e.seq::<Slot>(self.inflight.slots.iter().map(|di| Slot {
            state: di.state,
            live: (di.state != DynState::Done).then(|| {
                let children = self.inflight.children(di).collect();
                (
                    (di.plan, di.remaining_parents, di.dbb),
                    children,
                    (di.mem, di.accel_at),
                )
            }),
        }));
        self.latest.iter().for_each(|def| def.put(e));

        let mut completions: Vec<(u64, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        e.seq::<(u64, u64)>(&completions);
        e.seq::<PendingReq>(&self.reqs);

        self.mao.encode_into(e);
        e.seq::<(u32, u32)>(self.dbbs.iter().map(|&(left, block)| (left, block.0)));
        self.prev_launched_block.map(|b| b.0).put(e);
        self.bimodal.iter().for_each(|counter| counter.put(e));

        e.seq::<u32>(&self.pending_pushes);
        self.put_fields(e);
        self.stats.put_fields(e);

        e.bool(self.obs.is_some());
        if let Some(o) = &self.obs {
            o.profile.to_profile().put(e);
            o.timeline.put(e);
            (o.interval, o.first_step, o.last_seen).put(e);
        }
    }

    pub(super) fn decode_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let name = self.config.name.clone();
        let corrupt = |what: String| CkptError::corrupt(format!("tile {name}: {what}"));

        for pos in &mut self.cursor.stream_pos {
            *pos = d.u32("tile trace stream")?;
        }

        let mut inflight = InFlight::new();
        inflight.base_seq = d.u64("tile base_seq")?;
        inflight.head = inflight.base_seq;
        let mut children = Vec::new();
        d.seq::<Slot>("tile in-flight slot", |Slot { state, live }| {
            let seq = inflight
                .base_seq
                .saturating_add(inflight.slots.len() as u64);
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
            if let Some(((plan, parents, dbb), kids, (mem, accel_at))) = live {
                if plan as usize >= self.plan.len() {
                    return Err(corrupt(format!("plan index {plan} out of range")));
                }
                if let Some(&child) = kids.iter().find(|&&child| child <= seq) {
                    return Err(corrupt(format!("inst {seq} has child {child}")));
                }
                children.extend(kids.into_iter().map(|child| (seq, child)));
                if mem.is_some() != self.plan.inst(plan as usize).mem_kind.is_some() {
                    return Err(corrupt(format!("inst {seq}: memory access mismatch")));
                }
                (di.plan, di.remaining_parents, di.dbb, di.mem, di.accel_at) =
                    (plan, parents, dbb, mem, accel_at);
                di.window_exempt = self.desc[plan as usize].is_some_and(DescRole::window_exempt);
                inflight.live += 1;
            }
            inflight.slots.push_back(di);
            Ok(())
        })?;
        inflight.advance_head();
        // `add_child` refuses a dead parent, and `get` a dead child or one
        // past the last slot.
        for (parent, child) in children {
            if !inflight.add_child(parent, child) || inflight.get(child).is_none() {
                return Err(corrupt(format!("dependence {parent} -> {child} is dead")));
            }
        }
        self.inflight = inflight;
        self.ready = ReadySet::rebuild(&self.inflight, self.window_limit());
        for def in &mut self.latest {
            *def = Snap::get(d, "tile latest def")?;
        }

        self.completions.clear();
        d.seq::<(u64, u64)>("tile completions", |completion| {
            self.completions.push(Reverse(completion));
            Ok(())
        })?;
        self.reqs.clear();
        d.seq::<PendingReq>("tile requests", |req| {
            if self.reqs.back().is_some_and(|last| last.id >= req.id) {
                return Err(corrupt(format!("request {} out of order", req.id.0)));
            }
            self.reqs.push_back(req);
            Ok(())
        })?;

        self.mao.restore_from(d)?;
        self.dbbs.clear();
        d.seq::<(u32, u32)>("tile dbbs", |(left, block)| {
            if block as usize >= self.counts.live_dbbs.len() {
                return Err(corrupt(format!("dbb of block {block}")));
            }
            self.dbbs.push_back((left, BlockId(block)));
            Ok(())
        })?;
        let prev_block: Option<u32> = Snap::get(d, "tile prev block")?;
        self.prev_launched_block = prev_block.map(BlockId);
        for counter in &mut self.bimodal {
            *counter = d.u8("tile bimodal counter")?;
        }

        self.pending_pushes.clear();
        d.seq_into::<u32>("tile pending pushes", &mut self.pending_pushes)?;
        self.get_fields(d)?;
        self.stats.get_fields(d)?;

        let launched = self.stats.dbbs_launched;
        if launched > self.trace.path().len() as u64 {
            return Err(CkptError::mismatch(format!(
                "tile {name}: path position {launched} exceeds trace length {}",
                self.trace.path().len()
            )));
        }
        self.cursor.path_pos = launched as usize;
        let live = self.dbbs.len() as u64;
        let Some(oldest) = launched.checked_sub(live) else {
            return Err(corrupt(format!("{live} live dbbs of {launched} launched")));
        };
        let dead = |di: &&DynInst| {
            let at = di.dbb.checked_sub(oldest);
            let dbb = at.and_then(|at| self.dbbs.get(at as usize));
            di.state != DynState::Done && dbb.is_none_or(|dbb| dbb.0 == 0)
        };
        if let Some(di) = self.inflight.slots.iter().find(dead) {
            return Err(corrupt(format!("in-flight inst of dead dbb {}", di.dbb)));
        }
        self.counts = self.recount();

        // The obs payload is always present in the byte stream when the
        // writer had observability on; decode it unconditionally and
        // apply it only if this run has observability on too (resuming
        // at a different level is allowed — it just changes what is
        // recorded from here on, like sampled simulation).
        if d.bool("tile obs flag")? {
            let (profile, timeline, (interval, first_step, last_seen)): (IrProfile, Timeline, _) =
                Snap::get(d, "tile obs payload")?;
            if let Some(o) = self.obs.as_mut() {
                o.profile.load(&profile)?;
                o.timeline = timeline;
                o.interval = interval;
                o.first_step = first_step;
                o.last_seen = last_seen;
            }
        }

        // The stall memo is derived state, refilled on demand; so is the
        // profile's census of the instructions the rebuilt set parked.
        self.memo.get_mut().span = 0..0;
        self.repark();
        Ok(())
    }
}

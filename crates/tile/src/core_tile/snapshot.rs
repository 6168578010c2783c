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
        e.seq::<u64, u32>(&self.cursor.stream_pos);

        e.u64(self.inflight.base_seq);
        e.usize(self.inflight.slots.len());
        for di in &self.inflight.slots {
            di.state.put(e);
            if di.state == DynState::Done {
                continue;
            }
            (di.plan, di.remaining_parents, di.dbb).put(e);
            e.seq::<u64, u64>(self.inflight.children(di));
            (di.mem, di.accel_at).put(e);
        }
        e.seq::<u64, Option<u64>>(&self.latest);

        let mut completions: Vec<(u64, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        e.seq::<u64, (u64, u64)>(&completions);
        e.seq::<u64, PendingReq>(&self.reqs);

        self.mao.encode_into(e);
        e.seq::<u64, (u32, u32)>(self.dbbs.iter().map(|&(left, block)| (left, block.0)));
        self.prev_launched_block.map(|b| b.0).put(e);
        e.seq::<u64, u8>(&self.bimodal);

        e.seq::<u64, u32>(&self.pending_pushes);
        self.put_fields(e);
        self.stats.put_fields(e);

        e.bool(self.obs.is_some());
        if let Some(o) = &self.obs {
            o.profile.to_profile().encode_into(e);
            o.timeline.encode_into(e);
            (o.interval, o.first_step, o.last_seen).put(e);
        }
    }

    pub(super) fn decode_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let name = self.config.name.clone();
        let corrupt = |what: String| CkptError::corrupt(format!("tile {name}: {what}"));

        d.table::<u64, u32>("tile trace streams", &mut self.cursor.stream_pos)?;

        let mut inflight = InFlight::new();
        inflight.base_seq = d.u64("tile base_seq")?;
        inflight.head = inflight.base_seq;
        let nslots = d.u64("tile in-flight span")?;
        let next_seq = inflight.base_seq.saturating_add(nslots);
        let mut children = Vec::new();
        for seq in inflight.base_seq..next_seq {
            let state = Snap::get(d, "inst state")?;
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
                (di.plan, di.remaining_parents, di.dbb) = Snap::get(d, "inst plan, parents, dbb")?;
                if di.plan as usize >= self.plan.len() {
                    return Err(corrupt(format!("plan index {} out of range", di.plan)));
                }
                di.window_exempt = self.desc[di.plan as usize].is_some_and(DescRole::window_exempt);
                d.seq::<u64, u64>("inst children", |child| {
                    if child <= seq || child >= next_seq {
                        return Err(corrupt(format!("inst {seq} has child {child}")));
                    }
                    children.push((seq, child));
                    Ok(())
                })?;
                (di.mem, di.accel_at) = Snap::get(d, "inst access, accel index")?;
                if di.mem.is_some() != self.plan.inst(di.plan as usize).mem_kind.is_some() {
                    return Err(corrupt(format!("inst {seq}: memory access mismatch")));
                }
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
        d.table::<u64, Option<u64>>("tile latest-def table", &mut self.latest)?;

        self.completions.clear();
        d.seq::<u64, (u64, u64)>("tile completions", |completion| {
            self.completions.push(Reverse(completion));
            Ok(())
        })?;
        self.reqs.clear();
        d.seq::<u64, PendingReq>("tile requests", |req| {
            if self.reqs.back().is_some_and(|last| last.id >= req.id) {
                return Err(corrupt(format!("request {} out of order", req.id.0)));
            }
            self.reqs.push_back(req);
            Ok(())
        })?;

        self.mao.restore_from(d)?;
        self.dbbs.clear();
        d.seq::<u64, (u32, u32)>("tile dbbs", |(left, block)| {
            if block as usize >= self.counts.live_dbbs.len() {
                return Err(corrupt(format!("dbb of block {block}")));
            }
            self.dbbs.push_back((left, BlockId(block)));
            Ok(())
        })?;
        let prev_block: Option<u32> = Snap::get(d, "tile prev block")?;
        self.prev_launched_block = prev_block.map(BlockId);
        d.table::<u64, u8>("tile bimodal table", &mut self.bimodal)?;

        self.pending_pushes.clear();
        d.seq_into::<u64, u32>("tile pending pushes", &mut self.pending_pushes)?;
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
            let profile = IrProfile::decode_from(d)?;
            let timeline = Timeline::decode_from(d)?;
            let (interval, first_step, last_seen) = Snap::get(d, "tile obs interval, steps")?;
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

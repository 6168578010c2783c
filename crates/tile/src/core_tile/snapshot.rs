//! Checkpoint encode/restore of a core tile's dynamic state.

use std::cmp::Reverse;

use mosaic_ckpt::{CkptError, Dec, Enc};
use mosaic_ir::BlockId;
use mosaic_mem::{AccessKind, ReqId};
use mosaic_obs::{IrProfile, Timeline};

use super::inflight::{DynInst, DynState, InFlight, NIL};
use super::ready_set::ReadySet;
use super::roles::DescRole;
use super::{CoreTile, LaunchGate, PendingReq, ReqDone};

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
    pub(super) fn encode_state(&self, e: &mut Enc) {
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

    pub(super) fn decode_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
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

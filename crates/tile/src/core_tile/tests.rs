#![cfg(test)]

use super::ready_set::insert_sorted;
use super::*;
use mosaic_ckpt::Snap;
use mosaic_obs::STALL_KINDS;
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

/// What one cycle's walk, or the survey of one blocked cycle, counted.
#[derive(Default, PartialEq, Debug)]
struct Outcome {
    issued: Vec<u64>,
    by_kind: [u64; STALL_KINDS],
}

/// Stall cycles so far by `(static id, kind)`, without the zeroes.
type Charged = BTreeMap<(u32, usize), u64>;

/// One side of the comparison: the in-flight ring, and the ready
/// instructions either as the windowed set — with, when the case attributes
/// per instruction, the `TileObs` whose profile it keeps the census of — or,
/// the model, as the one sorted list of every `Ready` id that `issue()` used
/// to walk in full, charging each parked instruction as it passed it.
struct Side {
    inflight: InFlight,
    set: Option<ReadySet>,
    obs: Option<TileObs>,
    list: Vec<u64>,
    charged: Charged,
    window: u64,
    /// Candidates the last walk asked the oracle about.
    visits: u64,
}

/// The profile of the 16 static instructions `launch` picks from.
fn observed() -> Option<TileObs> {
    Some(TileObs {
        profile: ProfileTable::new(0, 16),
        ..TileObs::default()
    })
}

impl Side {
    fn new(windowed: bool, per_slot: bool, window: u64) -> Self {
        Side {
            inflight: InFlight::new(),
            set: windowed.then(ReadySet::default),
            obs: (windowed && per_slot).then(observed).flatten(),
            list: Vec::new(),
            charged: Charged::new(),
            window,
            visits: 0,
        }
    }

    fn limit(&self) -> u64 {
        self.inflight.head + self.window
    }

    /// The observer as the set's walks take it: a slot's `plan` is its
    /// static id here.
    fn census(obs: &mut Option<TileObs>) -> Option<(&mut TileObs, impl Fn(&DynInst) -> u32)> {
        obs.as_mut().map(|o| (o, |di: &DynInst| di.plan))
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
        let (sid, exempt) = (di.plan, di.window_exempt);
        match self.set.as_mut() {
            Some(set) => {
                if set.wake(seq, exempt) {
                    if let Some(o) = self.obs.as_mut() {
                        o.row().park(sid);
                    }
                }
            }
            None => insert_sorted(&mut self.list, seq),
        }
    }

    /// Counts `cycles` stalls of `kind` against `sid`: in the set's profile,
    /// or in the model's map.
    fn stall(&mut self, sid: u32, kind: StallKind, cycles: u64) {
        match self.obs.as_mut() {
            Some(o) => o.row().stall(sid, kind, cycles),
            None => *self.charged.entry((sid, kind as usize)).or_default() += cycles,
        }
    }

    /// What the set's profile reports, in the model's terms.
    fn settled(&self) -> Charged {
        let profile = self.obs.as_ref().expect("observed").profile.to_profile();
        let rows = profile.iter().flat_map(|((_, sid), row)| {
            let stalls = row.stalls.into_iter().enumerate();
            stalls.map(move |(kind, n)| ((sid, kind), n))
        });
        rows.filter(|&(_, n)| n != 0).collect()
    }

    /// Rebuilds what a restore or `set_observe` rebuilds, `how` choosing
    /// between them; the model forgets what a fresh profile does not hold.
    fn reset(&mut self, how: u64) {
        let limit = self.limit();
        let Some(set) = self.set.as_mut() else {
            if how >= 2 {
                self.charged.clear();
            }
            return;
        };
        if how < 2 {
            *set = ReadySet::rebuild(&self.inflight, limit);
        }
        let Some(o) = self.obs.as_mut() else {
            return;
        };
        match how {
            // A restore from a file without a profile: the table runs on.
            0 => {}
            // A restore from a file with one.
            1 => {
                let saved = o.profile.to_profile();
                o.profile.load(&saved).expect("its own rows");
            }
            // `set_observe`, between walks.
            2 => self.obs = observed(),
            // `take_profile`: nothing is rebuilt, the census stays.
            _ => return o.profile.clear(),
        }
        let o = self.obs.as_mut().expect("observed");
        let parked = self.inflight.parked_in(set.unparked_to, u64::MAX);
        o.profile.repark(parked.map(|(_, di)| di.plan));
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

    fn walk(&mut self, oracle: &Oracle, cycle: u64, width: u32) -> Outcome {
        let mut out = Outcome::default();
        self.visits = 0;
        let limit = self.limit();
        let sid = |inflight: &InFlight, seq| inflight.get(seq).expect("in flight").plan;
        if let Some(set) = self.set.as_mut() {
            set.begin_walk(&self.inflight, limit, width, Self::census(&mut self.obs));
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
                    Answer::Stall(kind) => {
                        out.by_kind[kind as usize] += 1;
                        self.stall(di.plan, kind, 1);
                    }
                }
                let set = self.set.as_mut().expect("checked above");
                set.settle(matches!(answer, Answer::Issue { .. }));
            }
            let set = self.set.as_mut().expect("checked above");
            out.by_kind[StallKind::Window as usize] +=
                set.end_walk(&self.inflight, limit, Self::census(&mut self.obs));
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
                    Answer::Stall(kind) => {
                        out.by_kind[kind as usize] += 1;
                        self.stall(sid(&self.inflight, seq), kind, 1);
                    }
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
    /// would issue, else the stalls one blocked cycle counts — and then
    /// `cycles` such cycles are credited the way the stall memo does it:
    /// the candidates' stalls by instruction and kind, the backlog's by the
    /// clock, less the candidates the census still counts parked.
    fn survey(&mut self, oracle: &Oracle, cycle: u64, cycles: u64) -> Option<Outcome> {
        let mut out = Outcome::default();
        let limit = self.limit();
        let slot = |seq| self.inflight.get(seq).expect("in flight");
        let mut per_inst = Vec::new();
        let mut visit = |out: &mut Outcome, seq: u64, window: bool| {
            let kind = match oracle.answer(cycle, seq) {
                _ if window => StallKind::Window,
                Answer::Issue { .. } => return false,
                Answer::Skip => return true,
                Answer::Stall(kind) => kind,
            };
            out.by_kind[kind as usize] += 1;
            per_inst.push((slot(seq).plan, kind));
            true
        };
        let mut entered = Vec::new();
        match &self.set {
            Some(set) => {
                for (seq, parked) in set.candidates(&self.inflight, limit) {
                    if !visit(&mut out, seq, false) {
                        return None;
                    }
                    entered.extend(parked.then(|| slot(seq).plan));
                }
                out.by_kind[StallKind::Window as usize] += set.parked - entered.len() as u64;
            }
            None => {
                for &seq in &self.list {
                    let window = seq >= limit && !slot(seq).window_exempt;
                    if !visit(&mut out, seq, window) {
                        return None;
                    }
                }
            }
        }
        for (sid, kind) in per_inst {
            self.stall(sid, kind, cycles);
        }
        if let Some(o) = self.obs.as_mut() {
            o.profile.charge_parked(cycles, &entered);
        }
        Some(out)
    }
}

/// The windowed ready set against the full walk it replaced, over
/// random schedules: launches, out-of-order readiness, completions that
/// move the head by nothing or by dozens, detached issues that wake
/// instructions and move the head inside a walk, window-exempt
/// instructions on both sides of the limit, and now and then a restore, a
/// new observer, a taken profile, or a blocked span credited at once, before
/// the walk or after it. Same issue order, same stall totals, same survey,
/// after every walk the same stalls by instruction — the set's, charged by
/// the profile's clock and census, settled — and the set's walk never asks
/// about an instruction the window check would have turned away.
#[test]
fn windowed_set_matches_the_full_walk() {
    let (mut walks, mut cutoffs_beyond, mut mid_walk_parks, mut blocked_surveys) = (0, 0, 0, 0);
    let mut entered_credits = 0;
    for case in 0..300u64 {
        let seed = roll(0x5eed, case, 0, 0);
        let window = [1, 2, 3, 8, 32, 128][(seed % 6) as usize];
        let width = 1 + (seed >> 8) as u32 % 8;
        let per_slot = case % 2 == 0;
        let oracle = Oracle {
            seed,
            blocked: |seed, cycle| roll(seed, cycle, 0, 9).is_multiple_of(3),
        };
        let mut sides = [true, false].map(|windowed| Side::new(windowed, per_slot, window));
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
                if r(16) % 8 == 0 {
                    side.reset(r(17) % 4);
                }
            }
            let label = format!("case {case} (window {window}, width {width}), cycle {cycle}");
            let [set, model] = &mut sides;
            // Completions moved the head: a blocked span before the walk
            // has candidates that are still parked.
            if r(18) % 4 == 0 {
                let cycles = 1 + r(19) % 40;
                let got = set.survey(&oracle, cycle + 2_000, cycles);
                let want = model.survey(&oracle, cycle + 2_000, cycles);
                assert_eq!(got, want, "{label}: survey before the walk");
            }
            let ready = set.seqs_in(DynState::Ready);
            let exempt = |s: &u64| set.inflight.get(*s).is_some_and(|d| d.window_exempt);
            let budget = window + ready.iter().filter(|s| exempt(s)).count() as u64;
            let limit = set.limit();
            let parked_before = set.set.as_ref().map_or(0, |s| s.parked);

            let got = set.walk(&oracle, cycle, width);
            let want = model.walk(&oracle, cycle, width);
            assert_eq!(got, want, "{label}: walk");
            assert!(set.visits <= budget, "{label}: {} visits", set.visits);
            assert_eq!(set.visits, model.visits, "{label}: visits");
            walks += 1;
            cutoffs_beyond +=
                u64::from(got.issued.len() == width as usize && got.issued.last() >= Some(&limit));
            let parked_after = set.set.as_ref().map_or(0, |s| s.parked);
            mid_walk_parks += u64::from(parked_after > parked_before);

            // Between steps: the head may have moved inside the walk.
            let entered = set.set.as_ref().expect("windowed");
            let entered = entered.candidates(&set.inflight, set.limit());
            let entered = entered.filter(|c| c.1).count();
            let got = set.survey(&oracle, cycle + 1_000, 1 + r(20) % 40);
            let want = model.survey(&oracle, cycle + 1_000, 1 + r(20) % 40);
            assert_eq!(got, want, "{label}: survey");
            blocked_surveys += u64::from(got.is_some());
            entered_credits += u64::from(got.is_some() && entered > 0);
            if per_slot {
                assert_eq!(
                    set.settled(),
                    model.charged,
                    "{label}: stalls by instruction"
                );
            }
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
    assert!(
        entered_credits > 100,
        "{entered_credits} credits over candidates still parked"
    );
}

// -----------------------------------------------------------------
// The stall memo against the walk.
// -----------------------------------------------------------------

use crate::tests::{drain, small_mem};
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
    let looped = |m: &mut Module,
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
        self.late.extend(drain(&mut self.mem));
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

    /// Steps `tile` at `now`; its flag must say whether `progress_mark`
    /// moved, and its running counts must be what a restore would rebuild
    /// from its state (`save_state` leaves them out).
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
        let (t, at) = (&mut self.tiles[tile], format!("tile {tile}, cycle {now}"));
        let mark = t.progress_mark();
        let worked = t.step(&mut ctx).expect("step");
        assert_eq!(worked, t.progress_mark() != mark, "{at}: step's flag");
        assert_eq!(t.counts, t.recount(), "{at}: running counts");
        let (mut mao, mut enc) = (t.mao.clone(), Enc::new());
        t.mao.encode_into(&mut enc);
        mao.restore_from(&mut Dec::new(&enc.into_bytes())).expect("MAO round trip");
        assert_eq!(mao.occupancy(), t.mao.occupancy(), "{at}: LSQ occupancy");
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
        // (A narrow window lets a terminal load's absorbed send move the
        // head inside a walk, onto a parked `recv` that then blocks.)
        let window = [8, 1, 2][(seed >> 32) as usize % 3];
        (wide.window_size, wide.issue_width, wide.desc_buffer) = (window, 2, 2);
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
                            drain(&mut model.mem).is_empty(),
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
                if memo.tiles[t].is_done() || roll(seed, now / 16, t as u64, 32).is_multiple_of(5) {
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
                // The scheduler may ask for the horizon before any step: a
                // survey right after a walk that moved the head.
                if roll(seed, now, t as u64, 34).is_multiple_of(3) {
                    memo.tiles[t].next_event(now, &memo.channels);
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
                rig.tiles[t].take_profile().put(&mut enc);
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

/// Profile rows written over 1000 blocked cycles by a tile at `Stats` whose
/// window of one holds a `recv` on an empty queue, `backlog` ready
/// instructions parked behind it — stepped by the walk alone, or served by
/// the memo.
fn blocked_row_writes(backlog: usize, walk_only: bool) -> u64 {
    let mut m = Module::new("backlog");
    let kernel = m.add_function("kernel", vec![("x".to_string(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(kernel));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    b.recv(FEED, Type::I32);
    for k in 0..backlog {
        let x = b.param(0);
        b.bin(BinOp::Add, x, Constant::i64(k as i64).into());
    }
    b.ret(None);
    let feeder = m.add_function("feeder", vec![], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(feeder));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    b.send(FEED, Constant::i32(1).into());
    b.ret(None);
    mosaic_ir::verify_module(&m).expect("well-formed");
    let progs = [
        TileProgram::single(kernel, vec![RtVal::Int(5)]),
        TileProgram::single(feeder, vec![]),
    ];
    let mut rec = mosaic_trace::TraceRecorder::new(progs.len());
    mosaic_ir::run_tiles(&m, MemImage::new(), &progs, &mut rec).expect("runs");
    let trace = Arc::new(rec.finish().tile(0).clone());

    let mut config = CoreConfig::in_order();
    (config.window_size, config.max_inflight) = (1, 4096);
    let mut tile = CoreTile::new(config, Arc::new(m), kernel, trace, 0);
    tile.set_observe(ObsLevel::Stats);
    let mut rig = Rig {
        tiles: vec![tile],
        mem: small_mem(1),
        channels: ChannelSet::new(ChannelConfig::default()),
        late: Vec::new(),
        fed: 0,
        walk_only,
    };
    rig.step_tile(0, 0);
    let rows = |rig: &Rig| {
        rig.tiles[0]
            .obs
            .as_ref()
            .expect("observed")
            .row_writes
            .get()
    };
    let (before, verdicts) = (rows(&rig), rig.tiles[0].verdicts.get());
    for now in 1..=1000 {
        rig.step_tile(0, now);
    }
    let tile = &rig.tiles[0];
    assert!(tile.ready.parked >= backlog as u64 && tile.stats.issued == 0);
    assert_eq!(tile.stats.stalls[StallKind::Window as usize], 1001 * tile.ready.parked);
    assert_eq!(tile.stats.stalls[StallKind::Recv as usize], 1001);
    // The walk visits its one candidate every cycle; the memo takes a walk
    // that changes nothing and one survey, which stands for the rest.
    let visits = tile.verdicts.get() - verdicts;
    assert_eq!(visits, if walk_only { 1000 } else { 2 });
    rows(&rig) - before
}

/// A blocked cycle costs the profile a row per candidate, whatever is
/// parked: the backlog's window stalls are a tick of its clock.
#[test]
fn a_blocked_cycle_writes_no_row_for_the_backlog() {
    for walk_only in [true, false] {
        let rows = blocked_row_writes(300, walk_only);
        assert_eq!(rows, 1000, "walk only: {walk_only}");
        assert_eq!(blocked_row_writes(900, walk_only), rows);
    }
}

//! The stall memo, and the survey, credit and blocked step built on it.

use std::cmp::Reverse;

use mosaic_obs::{StallKind, STALL_KINDS};

use super::{sid_of, CoreTile, LaunchGate, Stall, Verdict};
use crate::{ChannelSet, TileCtx};

/// The stall memo (DESIGN.md §4.2.1): the per-cycle stall profile of a fully
/// blocked tile, as `issue()` would count it — one increment per blocked ready
/// candidate, classified by the first check that rejected it — and how long it
/// stays that. The tile owns one, which every survey refills in place.
#[derive(Debug, Default)]
pub(super) struct StallMemo {
    /// From the cycle of the blocked survey that filled it to the earliest
    /// time-triggered wake-up that survey found (`u64::MAX`: only an external
    /// event can unblock the tile). Empty while the contents are stale.
    pub(super) span: std::ops::Range<u64>,
    /// The channels the blocked `send`/`recv` candidates and the front
    /// pending push wait on, with their [`ChannelSet::version`] then.
    watch: Vec<(u32, u64)>,
    /// Blocked candidates by [`StallKind`].
    by_kind: [u64; STALL_KINDS],
    /// Per-static-instruction attribution of the candidates' stalls, populated
    /// only when observability is on: `issue()`'s per-site attribution
    /// exactly, so that crediting it × cycles is what stepping records. (The
    /// backlog's is the profile's clock, less the candidates still `entered`
    /// in its census as parked.)
    per_inst: Vec<(u32, StallKind)>,
    entered: Vec<u32>,
}

impl StallMemo {
    /// Whether a step at `now` would count these stalls and nothing else,
    /// given a tile unchanged since the survey (what changes it drops this).
    pub(super) fn holds(&self, now: u64, channels: &ChannelSet) -> bool {
        let unmoved = |&(queue, version)| channels.version(queue) == version;
        self.span.contains(&now) && self.watch.iter().all(unmoved)
    }

    fn watch_channel(&mut self, queue: u32, channels: &ChannelSet) {
        if self.watch.iter().all(|&(q, _)| q != queue) {
            self.watch.push((queue, channels.version(queue)));
        }
    }
}

impl CoreTile {
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
    pub(super) fn survey(&self, now: u64, channels: &ChannelSet) -> bool {
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
        stalls.per_inst.clear();
        stalls.entered.clear();
        let window_limit = self.window_limit();
        let sid = sid_of(&self.plan);
        let mut backlog = self.ready.parked;
        for (seq, entered) in self.ready.candidates(&self.inflight, window_limit) {
            let di = self.inflight.get(seq).expect("ready implies in flight");
            if entered {
                backlog -= 1;
                if self.obs.is_some() {
                    stalls.entered.push(sid(di));
                }
            }
            match self.verdict(seq, di, now, channels) {
                Verdict::Issue => return false,
                // Skipped without a stall count; the accelerator-busy wake
                // is already noted above.
                Verdict::AccelBusy => {}
                Verdict::Stall(Stall {
                    kind,
                    queue,
                    wake: ready,
                    ..
                }) => {
                    stalls.by_kind[kind as usize] += 1;
                    if matches!(kind, StallKind::Send | StallKind::Recv) {
                        stalls.watch_channel(queue, channels);
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
        stalls.by_kind[StallKind::Window as usize] += backlog;
        stalls.span = now..wake.unwrap_or(u64::MAX);
        true
    }

    /// Counts `cycles` blocked cycles from `now` on: the memo's stalls,
    /// that many times — exactly what stepping through them would record.
    pub(super) fn credit(&mut self, now: u64, cycles: u64) {
        let memo = self.memo.get_mut();
        for (stalls, n) in self.stats.stalls.iter_mut().zip(memo.by_kind) {
            *stalls += n * cycles;
        }
        if let Some(o) = self.obs.as_mut() {
            for &(inst, kind) in &memo.per_inst {
                o.row().stall(inst, kind, cycles);
            }
            o.profile.charge_parked(cycles, &memo.entered);
            if o.level.trace_on() {
                // All stall: close any open compute interval at `now`.
                o.note_cycle(self.mem_slot as u32, now, true);
                o.last_seen = o.last_seen.max(now + cycles - 1);
            }
        }
    }

    /// The step of a blocked tile, without the walk: done, and `true`, if the
    /// memo holds — as it is, or refilled because the last step was idle.
    pub(super) fn step_blocked(&mut self, ctx: &mut TileCtx<'_>) -> bool {
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

//! The windowed ready set the issue stage walks.
//!
//! `#[inline]` as in `inflight.rs`: the walk is in another codegen unit.

use mosaic_obs::StallKind;

use super::inflight::{DynInst, DynState, InFlight};
use super::obs_glue::TileObs;

/// The `Ready` instructions as the issue stage meets them: the candidates
/// the window check can pass, in issue order, and the backlog parked behind
/// the window — a count, which a walk charges a window stall each without a
/// visit. A parked instruction stays `DynState::Ready` in its slot and
/// becomes a candidate when a walk finds that the window has come to cover
/// it (DESIGN.md §4.2.2). An observed tile's walk takes its `TileObs` and
/// how a slot names its static instruction, so that the profile's census of
/// parked instances follows every instruction that changes sides.
#[derive(Debug, Default)]
pub(super) struct ReadySet {
    /// `Ready` instructions below `unparked_to`, and window-exempt ones
    /// wherever they are, ascending.
    cands: Vec<u64>,
    /// How many `Ready` instructions at or beyond `unparked_to` are not
    /// window-exempt (those `candidates` marks included).
    pub(super) parked: u64,
    /// The window limit of the last walk: parking starts here. While a
    /// walk runs it is `u64::MAX` and what the walk wakes waits in `woken`
    /// (ascending) to be filed when it ends: the walk offers, and the
    /// backlog it charges is, what was ready at the start of the cycle.
    pub(super) unparked_to: u64,
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
    /// Files `seq`, which just became `Ready`; `true` if that parked it.
    #[inline]
    pub(super) fn wake(&mut self, seq: u64, window_exempt: bool) -> bool {
        if self.unparked_to == u64::MAX {
            insert_sorted(&mut self.woken, seq);
        } else if window_exempt || seq < self.unparked_to {
            insert_sorted(&mut self.cands, seq);
        } else {
            self.parked += 1;
            return true;
        }
        false
    }

    /// The set the slot states determine, for a window ending at
    /// `window_limit`.
    pub(super) fn rebuild(inflight: &InFlight, window_limit: u64) -> Self {
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

    /// Starts the walk of a cycle whose window ends at `window_limit`: the
    /// parked instructions the window has come to cover become candidates.
    #[inline]
    pub(super) fn begin_walk(
        &mut self,
        inflight: &InFlight,
        window_limit: u64,
        width: u32,
        mut obs: Option<(&mut TileObs, impl Fn(&DynInst) -> u32)>,
    ) {
        for (seq, di) in inflight.parked_in(self.unparked_to, window_limit) {
            insert_sorted(&mut self.cands, seq);
            self.parked -= 1;
            if let Some((o, sid)) = obs.as_mut() {
                o.row().unpark(sid(di));
            }
        }
        self.unparked_to = u64::MAX;
        (self.at, self.kept, self.width_left, self.last_issued) = (0, 0, width, 0);
    }

    /// The next candidate of the running walk, while issue width is left.
    pub(super) fn peek(&self) -> Option<u64> {
        let seq = self.cands.get(self.at)?;
        (self.width_left > 0).then_some(*seq)
    }

    /// Records whether the candidate `peek` offered issued.
    pub(super) fn settle(&mut self, issued: bool) {
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

    /// Ends the walk begun at `window_limit` — fixed for the whole walk,
    /// whatever completed inside it — and returns how many parked
    /// instructions it charges a window stall, as if it had visited them:
    /// all of them, by a tick of the profile's clock, if issue width is
    /// left, else those older than the issue that took the last slot (a
    /// window-exempt op beyond the window). What the walk woke is filed after
    /// that: it owes nothing for this cycle.
    #[inline]
    pub(super) fn end_walk(
        &mut self,
        inflight: &InFlight,
        window_limit: u64,
        mut obs: Option<(&mut TileObs, impl Fn(&DynInst) -> u32)>,
    ) -> u64 {
        let mut charged = 0;
        if self.width_left > 0 {
            charged = self.parked;
            if let Some((o, _)) = obs.as_mut() {
                o.profile.charge_parked(1, &[]);
            }
        } else {
            for (seq, di) in inflight.parked_in(window_limit, self.last_issued) {
                if self.woken.binary_search(&seq).is_err() {
                    charged += 1;
                    if let Some((o, sid)) = obs.as_mut() {
                        o.row().stall(sid(di), StallKind::Window, 1);
                    }
                }
            }
        }
        if self.kept < self.at {
            self.cands.copy_within(self.at.., self.kept);
            self.cands.truncate(self.kept + self.cands.len() - self.at);
        }
        self.unparked_to = window_limit;
        while let Some(seq) = self.woken.pop() {
            let di = inflight.get(seq).expect("woken this cycle");
            if self.wake(seq, di.window_exempt) {
                if let Some((o, sid)) = obs.as_mut() {
                    o.row().park(sid(di));
                }
            }
        }
        charged
    }

    /// What a walk with the window ending at `window_limit` would be
    /// offered, read-only and in no particular order: the candidates, and
    /// — marked `true` — the parked instructions the window has come to
    /// cover since the last walk.
    pub(super) fn candidates<'a>(
        &'a self,
        inflight: &'a InFlight,
        window_limit: u64,
    ) -> impl Iterator<Item = (u64, bool)> + 'a {
        let entered = inflight.parked_in(self.unparked_to, window_limit);
        let cands = self.cands.iter().map(|&seq| (seq, false));
        cands.chain(entered.map(|(seq, _)| (seq, true)))
    }
}

/// Inserts `seq` into the ascending `ready` list.
pub(super) fn insert_sorted(ready: &mut Vec<u64>, seq: u64) {
    match ready.last() {
        Some(&last) if last > seq => ready.insert(ready.partition_point(|&s| s < seq), seq),
        _ => ready.push(seq),
    }
}

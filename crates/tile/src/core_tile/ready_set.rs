//! The windowed ready set the issue stage walks.
//!
//! `#[inline]` as in `inflight.rs`: the walk is in another codegen unit.

use super::inflight::{DynState, InFlight};

/// The `Ready` instructions as the issue stage meets them: the candidates
/// the window check can pass, in issue order, and the backlog parked behind
/// the window — a count to the issue stage, which charges it a window stall
/// each without a visit. A parked instruction stays `DynState::Ready` in
/// its slot and becomes a candidate when a walk finds that the window has
/// come to cover it (DESIGN.md §4.2.2).
#[derive(Debug, Default)]
pub(super) struct ReadySet {
    /// `Ready` instructions below `unparked_to`, and window-exempt ones
    /// wherever they are, ascending.
    cands: Vec<u64>,
    /// `Ready` instructions at or beyond `unparked_to` that are not
    /// window-exempt, in the order they woke — and, until the next sweep,
    /// `stale` entries the window has passed. Only per-instruction
    /// attribution reads it.
    pub(super) parked: Vec<u64>,
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
    #[inline]
    pub(super) fn wake(&mut self, seq: u64, window_exempt: bool) {
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

    /// The instructions parked behind a window ending at `window_limit`,
    /// which is not below `unparked_to`.
    pub(super) fn parked_beyond(&self, window_limit: u64) -> impl Iterator<Item = u64> + '_ {
        let parked = self.parked.iter().copied();
        parked.filter(move |&seq| seq >= window_limit)
    }

    /// Starts the walk of a cycle whose window ends at `window_limit`: the
    /// parked instructions the window has come to cover become candidates.
    #[inline]
    pub(super) fn begin_walk(&mut self, inflight: &InFlight, window_limit: u64, width: u32) {
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

    /// The parked instructions the walk begun at `window_limit` charges a
    /// window stall, as if it had visited them: all of them if issue width
    /// is left, else those older than the issue that took the last slot (a
    /// window-exempt op beyond the window).
    pub(super) fn charged(&self, window_limit: u64) -> impl Iterator<Item = u64> + '_ {
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
    #[inline]
    pub(super) fn end_walk(&mut self, inflight: &InFlight, window_limit: u64) -> u64 {
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
    pub(super) fn candidates<'a>(
        &'a self,
        inflight: &'a InFlight,
        window_limit: u64,
    ) -> impl Iterator<Item = u64> + 'a {
        let entered = inflight.parked_in(self.unparked_to, window_limit);
        let cands = self.cands.iter().copied();
        cands.chain(entered.map(|(seq, _)| seq))
    }

    /// How many instructions would stay parked in such a walk.
    #[inline]
    pub(super) fn backlog(&self, inflight: &InFlight, window_limit: u64) -> u64 {
        let entered = inflight.parked_in(self.unparked_to, window_limit).count();
        (self.parked.len() - self.stale - entered) as u64
    }
}

/// Inserts `seq` into the ascending `ready` list.
pub(super) fn insert_sorted(ready: &mut Vec<u64>, seq: u64) {
    match ready.last() {
        Some(&last) if last > seq => ready.insert(ready.partition_point(|&s| s < seq), seq),
        _ => ready.push(seq),
    }
}

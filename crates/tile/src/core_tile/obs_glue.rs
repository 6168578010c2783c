//! What the tile tells its observers: timeline intervals while it runs,
//! and the diagnosis of a tile that does not.

use mosaic_obs::{Category, ObsLevel, ProfileTable, StallKind, Timeline};

use super::inflight::DynState;
use super::{CoreTile, LaunchGate, Stall, Verdict};
use crate::{ChannelSet, StallReason, Tile, TileStallInfo};

/// Hot-path observability state, allocated only when
/// [`Tile::set_observe`] raises the level above [`ObsLevel::Off`] — at
/// `Off` the only cost anywhere in the tile is a `None` check.
#[derive(Debug, Default)]
pub(super) struct TileObs {
    pub(super) level: ObsLevel,
    pub(super) profile: ProfileTable,
    pub(super) timeline: Timeline,
    /// Open compute/stall interval: (is_stall, start cycle).
    pub(super) interval: Option<(bool, u64)>,
    /// First cycle the tile was stepped.
    pub(super) first_step: Option<u64>,
    /// Last cycle the tile was stepped while active.
    pub(super) last_seen: u64,
    /// `row` calls made so far.
    #[cfg(test)]
    pub(super) row_writes: std::cell::Cell<u64>,
}

impl TileObs {
    /// The profile, to write one row of.
    #[inline]
    pub(super) fn row(&mut self) -> &mut ProfileTable {
        #[cfg(test)]
        self.row_writes.set(self.row_writes.get() + 1);
        &mut self.profile
    }

    pub(super) fn push_interval(&mut self, tid: u32, stalled: bool, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let (cat, name) = if stalled {
            (Category::Stall, "stall")
        } else {
            (Category::Tile, "compute")
        };
        self.timeline.span(0, tid, cat, name, start, end);
    }

    /// Extends or transitions the open compute/stall interval at `now`.
    pub(super) fn note_cycle(&mut self, tid: u32, now: u64, stalled: bool) {
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

impl CoreTile {
    pub(super) fn diagnose(&self, now: u64, channels: &ChannelSet) -> TileStallInfo {
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
        if !self.is_done() && (!self.reqs.is_empty() || self.counts.atomic_outstanding > 0) {
            consider(StallReason::Memory, None);
        }
        if !self.is_done()
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

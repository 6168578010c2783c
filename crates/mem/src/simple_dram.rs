//! SimpleDRAM: minimum latency + epoch-based bandwidth cap (paper §V-B).
//!
//! "SimpleDRAM ensures that all DRAM requests abide by a minimum latency
//! and maximum bandwidth. Every DRAM request is inserted into a priority
//! queue ordered by minimum request completion time (current cycles plus
//! minimum latency). SimpleDRAM enforces the maximum bandwidth limit in
//! epochs. Every cycle, it attempts to return as many requests as possible
//! that have served the minimum latency. Once the number of requests
//! returned in that epoch has exhausted the maximum bandwidth, SimpleDRAM
//! cannot return requests until the next epoch, but it can continue
//! receiving new requests."

use std::collections::VecDeque;

use mosaic_ckpt::{snap_fields, CkptError, Dec, Enc};
use mosaic_obs::StatsRegistry;

use crate::req::ReqId;

/// Configuration of the SimpleDRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimpleDramConfig {
    /// Minimum access latency in memory-clock cycles.
    pub min_latency: u64,
    /// Epoch length in cycles over which bandwidth is accounted.
    pub epoch_cycles: u64,
    /// Maximum line transfers returned per epoch.
    pub max_per_epoch: u32,
}

impl Default for SimpleDramConfig {
    fn default() -> Self {
        // 200-cycle latency (Table II), 64B lines; defaults sized so that
        // ~24 GB/s at 2 GHz: 24e9 / 64B = 375e6 lines/s = 0.1875 lines per
        // cycle ≈ 24 lines per 128-cycle epoch.
        SimpleDramConfig {
            min_latency: 200,
            epoch_cycles: 128,
            max_per_epoch: 24,
        }
    }
}

impl SimpleDramConfig {
    /// Derives a config from a bandwidth target.
    ///
    /// `bytes_per_cycle` is the sustained bandwidth divided by the clock
    /// (e.g. 68 GB/s at 3.2 GHz ≈ 21.25 B/cycle); `line_bytes` is the
    /// transfer granule.
    pub fn from_bandwidth(min_latency: u64, bytes_per_cycle: f64, line_bytes: u32) -> Self {
        let epoch_cycles = 128u64;
        let lines = (bytes_per_cycle * epoch_cycles as f64 / line_bytes as f64).round() as u32;
        SimpleDramConfig {
            min_latency,
            epoch_cycles,
            max_per_epoch: lines.max(1),
        }
    }
}

/// The SimpleDRAM timing model.
#[derive(Debug, Clone)]
pub struct SimpleDram {
    config: SimpleDramConfig,
    /// `(ready, id)` in arrival order, which is completion order:
    /// `ready = now + min_latency` and `now` never decreases, so the
    /// paper's priority queue is a FIFO.
    queue: VecDeque<(u64, ReqId)>,
    epoch_start: u64,
    returned_this_epoch: u32,
    total_requests: u64,
    throttled_cycles: u64,
    /// Last cycle `step` was called with (for analytic throttle credit).
    last_step: u64,
}

impl SimpleDram {
    /// Creates the model.
    pub fn new(config: SimpleDramConfig) -> Self {
        SimpleDram {
            config,
            queue: VecDeque::new(),
            epoch_start: 0,
            returned_this_epoch: 0,
            total_requests: 0,
            throttled_cycles: 0,
            last_step: 0,
        }
    }

    /// Enqueues a line request at `now` (no earlier than any `now` before
    /// it); it can complete no earlier than `now + min_latency`. The queue
    /// is unbounded and no line is slower than another, so this always
    /// returns `true`.
    pub fn try_enqueue(&mut self, id: ReqId, _line: u64, now: u64) -> bool {
        self.total_requests += 1;
        let ready = now + self.config.min_latency;
        debug_assert!(self.queue.back().is_none_or(|&(last, _)| last <= ready));
        self.queue.push_back((ready, id));
        true
    }

    /// Advances to cycle `now`, appending the requests that complete to
    /// `done`.
    #[inline]
    pub fn step(&mut self, now: u64, done: &mut Vec<ReqId>) {
        // Credit the cycles in `(last_step, now)` during which the cap
        // provably kept blocking a ready head: the queue cannot change
        // between steps (enqueues happen at stepped cycles), so the head
        // was blocked from the later of its ready time and the previous
        // step until the epoch boundary. When the caller steps every cycle
        // the credited span is empty and only the `+= 1` below counts,
        // exactly as a per-cycle accounting would — which is what keeps
        // `throttled_cycles` identical whether the caller steps densely or
        // fast-forwards between events.
        if self.returned_this_epoch >= self.config.max_per_epoch {
            if let Some(&(ready, _)) = self.queue.front() {
                let boundary = self.epoch_start + self.config.epoch_cycles;
                let start = (self.last_step + 1).max(ready);
                self.throttled_cycles += now.min(boundary).saturating_sub(start);
            }
        }
        self.last_step = now;
        // Roll the epoch window forward.
        if now >= self.epoch_start + self.config.epoch_cycles {
            let epochs = (now - self.epoch_start) / self.config.epoch_cycles;
            self.epoch_start += epochs * self.config.epoch_cycles;
            self.returned_this_epoch = 0;
        }
        while let Some(&(ready, id)) = self.queue.front() {
            if ready > now {
                break;
            }
            if self.returned_this_epoch >= self.config.max_per_epoch {
                self.throttled_cycles += 1;
                break;
            }
            self.queue.pop_front();
            self.returned_this_epoch += 1;
            done.push(id);
        }
    }

    /// Earliest cycle `>= now` at which a step could return a request:
    /// the head's ready time, pushed past the epoch boundary while the
    /// bandwidth cap is exhausted. `None` when the queue is empty.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        let &(ready, _) = self.queue.front()?;
        // Epoch state as a step at a cycle `> now` would see it.
        let (epoch_start, returned) = if now >= self.epoch_start + self.config.epoch_cycles {
            (u64::MAX, 0) // a roll happens first; the exact start is moot
        } else {
            (self.epoch_start, self.returned_this_epoch)
        };
        let earliest = if returned >= self.config.max_per_epoch {
            ready.max(epoch_start.saturating_add(self.config.epoch_cycles))
        } else {
            ready
        };
        Some(earliest.max(now))
    }

    /// Whether any requests are outstanding.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Cycles in which the bandwidth cap throttled ready requests — the
    /// signature of bandwidth-bound kernels like SPMV (paper §VI-A).
    pub fn throttled_cycles(&self) -> u64 {
        self.throttled_cycles
    }

    /// The model's `mem.dram.*` counters.
    pub(crate) fn register_into(&self, reg: &mut StatsRegistry) {
        reg.set_counter("mem.dram.requests", self.total_requests);
        reg.set_counter("mem.dram.throttled_cycles", self.throttled_cycles);
    }
}

snap_fields!(SimpleDram: epoch_start, returned_this_epoch, total_requests, throttled_cycles,
    last_step);

impl SimpleDram {
    /// Serializes the pending queue (in queue order: ready cycles ascend,
    /// equal ones in arrival order) and epoch/counter state.
    pub(crate) fn encode_into(&self, e: &mut Enc) {
        e.seq::<(u64, ReqId)>(&self.queue);
        self.put_fields(e);
    }

    /// Restores the state written by [`SimpleDram::encode_into`]; the
    /// queue keeps the record's order.
    pub(crate) fn restore_from(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.queue.clear();
        d.seq::<(u64, ReqId)>("dram queue", |(ready, id)| {
            let last = self.queue.back().map_or(0, |&(last, _)| last);
            if last > ready {
                return Err(CkptError::corrupt(format!(
                    "dram queue entry ready at {ready} behind one ready at {last}"
                )));
            }
            self.queue.push_back((ready, id));
            Ok(())
        })?;
        self.get_fields(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a step at `now` completes.
    fn step(d: &mut SimpleDram, now: u64) -> Vec<ReqId> {
        let mut done = Vec::new();
        d.step(now, &mut done);
        done
    }

    fn dram(lat: u64, epoch: u64, per_epoch: u32) -> SimpleDram {
        SimpleDram::new(SimpleDramConfig {
            min_latency: lat,
            epoch_cycles: epoch,
            max_per_epoch: per_epoch,
        })
    }

    #[test]
    fn respects_min_latency() {
        let mut d = dram(100, 64, 8);
        d.try_enqueue(ReqId(1), 0, 0);
        assert!(step(&mut d, 99).is_empty());
        assert_eq!(step(&mut d, 100), vec![ReqId(1)]);
        assert!(d.is_idle());
    }

    #[test]
    fn fifo_among_equal_ready_times() {
        let mut d = dram(10, 64, 8);
        d.try_enqueue(ReqId(1), 0, 0);
        d.try_enqueue(ReqId(2), 0, 0);
        d.try_enqueue(ReqId(3), 0, 0);
        assert_eq!(step(&mut d, 10), vec![ReqId(1), ReqId(2), ReqId(3)]);
    }

    #[test]
    fn bandwidth_cap_throttles_within_epoch() {
        let mut d = dram(10, 100, 2);
        for i in 0..6 {
            d.try_enqueue(ReqId(i), 0, 0);
        }
        // All ready at cycle 10, but only 2 may return in epoch [0, 100).
        let first = step(&mut d, 10);
        assert_eq!(first.len(), 2);
        assert!(step(&mut d, 50).is_empty());
        // Next epoch allows two more.
        let second = step(&mut d, 100);
        assert_eq!(second.len(), 2);
        let third = step(&mut d, 200);
        assert_eq!(third.len(), 2);
        assert!(d.is_idle());
        assert!(d.throttled_cycles() > 0);
    }

    #[test]
    fn keeps_accepting_while_throttled() {
        let mut d = dram(10, 100, 1);
        d.try_enqueue(ReqId(1), 0, 0);
        assert_eq!(step(&mut d, 10).len(), 1);
        d.try_enqueue(ReqId(2), 0, 11);
        // Throttled until cycle 100 even though ready at 21.
        assert!(step(&mut d, 50).is_empty());
        assert_eq!(step(&mut d, 100), vec![ReqId(2)]);
    }

    /// A record with `(ready, id)` entries and a fresh model's fields.
    fn record(queue: &[(u64, ReqId)]) -> Vec<u8> {
        let mut e = Enc::new();
        e.seq::<(u64, ReqId)>(queue);
        dram(10, 64, 8).put_fields(&mut e);
        e.into_bytes()
    }

    /// Equal ready cycles restore in the record's order and step out in
    /// it; ready cycles that descend are corrupt.
    #[test]
    fn restore_keeps_record_order_and_rejects_descending_ready() {
        let mut d = dram(10, 64, 8);
        let equal = record(&[
            (10, ReqId(3)),
            (10, ReqId(1)),
            (12, ReqId(0)),
            (12, ReqId(2)),
        ]);
        d.restore_from(&mut Dec::new(&equal)).unwrap();
        assert_eq!(step(&mut d, 10), vec![ReqId(3), ReqId(1)]);
        assert_eq!(step(&mut d, 12), vec![ReqId(0), ReqId(2)]);

        let descending = record(&[(10, ReqId(1)), (12, ReqId(2)), (11, ReqId(3))]);
        let err = d.restore_from(&mut Dec::new(&descending)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn bandwidth_derivation() {
        let c = SimpleDramConfig::from_bandwidth(200, 21.25, 64);
        // 21.25 B/cycle * 128 cycles / 64 B = 42.5 -> 43 lines per epoch.
        assert_eq!(c.max_per_epoch, 43);
        assert_eq!(c.min_latency, 200);
    }
}

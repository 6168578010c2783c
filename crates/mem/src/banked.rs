//! Banked DRAM timing model — the DRAMSim2 substitute (paper §V-B).
//!
//! The paper offers DRAMSim2 as a cycle-accurate alternative to SimpleDRAM
//! ("albeit this model executes slower [and] has a larger memory
//! footprint"). This model reproduces DRAMSim2's *role*: channel/rank/bank
//! structure, open-row policy with row-buffer hit/miss/conflict timing, a
//! bounded per-bank queue, and FR-FCFS-style scheduling (row hits first,
//! then oldest).

use std::collections::VecDeque;

use mosaic_ckpt::{snap_fields, snap_record, CkptError, Dec, Enc, Snap};
use mosaic_obs::StatsRegistry;

use crate::req::ReqId;

/// Timing and geometry of the banked DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedDramConfig {
    /// Independent channels (each with its own data bus).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row size in bytes (determines row-buffer locality).
    pub row_bytes: u64,
    /// Column access latency (row-buffer hit).
    pub t_cas: u64,
    /// Row activation latency.
    pub t_rcd: u64,
    /// Precharge latency (row conflict adds `t_rp + t_rcd`).
    pub t_rp: u64,
    /// Cycles the channel data bus is busy per line transfer.
    pub burst_cycles: u64,
    /// Per-bank request queue depth.
    pub queue_depth: usize,
}

impl Default for BankedDramConfig {
    fn default() -> Self {
        BankedDramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 2048,
            t_cas: 24,
            t_rcd: 24,
            t_rp: 24,
            burst_cycles: 4,
            queue_depth: 32,
        }
    }
}

snap_record! {
    #[derive(Debug, Clone, Copy)]
    struct BankReq {
        id: ReqId,
        row: u64,
    }
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
    queue: VecDeque<BankReq>,
}

/// The banked DRAM model.
#[derive(Debug, Clone)]
pub(crate) struct BankedDram {
    config: BankedDramConfig,
    /// log2 of the line size requests are interleaved at.
    line_shift: u32,
    banks: Vec<Bank>,
    channel_bus_free: Vec<u64>,
    in_flight: Vec<(u64, ReqId)>,
    /// Earliest cycle a step can do anything — retire a transfer, or
    /// schedule from a bank that holds requests — and `u64::MAX` when
    /// idle. Steps before it return at once.
    next_due: u64,
    /// Requests served from an open row, after opening one in an idle
    /// bank, and after closing another row first.
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    total_requests: u64,
}

impl BankedDram {
    /// Creates the model for `line_bytes`-byte lines (a power of two):
    /// consecutive lines go to consecutive channels, then banks.
    pub(crate) fn new(config: BankedDramConfig, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let nbanks = (config.channels * config.banks_per_channel) as usize;
        BankedDram {
            config,
            line_shift: line_bytes.trailing_zeros(),
            next_due: u64::MAX,
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                    queue: VecDeque::new(),
                };
                nbanks
            ],
            channel_bus_free: vec![0; config.channels as usize],
            in_flight: Vec::new(),
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            total_requests: 0,
        }
    }

    fn map(&self, addr: u64) -> (usize, usize, u64) {
        // Line-interleave across channels, then banks; row = higher bits.
        let line = addr >> self.line_shift;
        let channel = (line % self.config.channels as u64) as usize;
        let bank_local =
            ((line / self.config.channels as u64) % self.config.banks_per_channel as u64) as usize;
        let row = addr / self.config.row_bytes
            / (self.config.channels * self.config.banks_per_channel) as u64;
        (channel, channel * self.config.banks_per_channel as usize + bank_local, row)
    }

    /// Attempts to enqueue a line request; returns `false` when the target
    /// bank queue is full (caller retries next cycle). The arrival cycle
    /// plays no part: a bank schedules by open row and queue order.
    pub(crate) fn try_enqueue(&mut self, id: ReqId, addr: u64, _now: u64) -> bool {
        let (_, bank, row) = self.map(addr);
        let b = &mut self.banks[bank];
        if b.queue.len() >= self.config.queue_depth {
            return false;
        }
        b.queue.push_back(BankReq { id, row });
        self.next_due = self.next_due.min(b.busy_until);
        self.total_requests += 1;
        true
    }

    /// Advances to cycle `now`, appending completed requests to `done`.
    #[inline]
    pub(crate) fn step(&mut self, now: u64, done: &mut Vec<ReqId>) {
        if now >= self.next_due {
            self.step_due(now, done);
        }
    }

    /// A step at a cycle the model has work at.
    fn step_due(&mut self, now: u64, done: &mut Vec<ReqId>) {
        // Retire finished transfers.
        self.in_flight.retain(|&(ready, id)| {
            if ready <= now {
                done.push(id);
                false
            } else {
                true
            }
        });

        // Schedule one request per free bank (FR-FCFS: prefer open-row hits).
        for bank_idx in 0..self.banks.len() {
            let channel = bank_idx / self.config.banks_per_channel as usize;
            let bank = &mut self.banks[bank_idx];
            if bank.busy_until > now || bank.queue.is_empty() {
                continue;
            }
            let pick = bank
                .queue
                .iter()
                .position(|r| Some(r.row) == bank.open_row)
                .unwrap_or(0);
            let req = bank.queue.remove(pick).expect("non-empty queue");
            let access_lat = match bank.open_row {
                Some(r) if r == req.row => {
                    self.row_hits += 1;
                    self.config.t_cas
                }
                Some(_) => {
                    self.row_conflicts += 1;
                    self.config.t_rp + self.config.t_rcd + self.config.t_cas
                }
                None => {
                    self.row_misses += 1;
                    self.config.t_rcd + self.config.t_cas
                }
            };
            bank.open_row = Some(req.row);
            let data_start = (now + access_lat).max(self.channel_bus_free[channel]);
            let ready = data_start + self.config.burst_cycles;
            self.channel_bus_free[channel] = ready;
            bank.busy_until = now + access_lat;
            self.in_flight.push((ready, req.id));
        }
        self.next_due = self.earliest_work();
    }

    /// When the state as it stands next lets a step do something: an
    /// in-flight transfer retires, or a bank with queued requests becomes
    /// free to schedule one.
    fn earliest_work(&self) -> u64 {
        let transfers = self.in_flight.iter().map(|&(ready, _)| ready);
        let banks = self.banks.iter().filter(|b| !b.queue.is_empty());
        transfers
            .chain(banks.map(|b| b.busy_until))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Whether the model has no outstanding work.
    pub(crate) fn is_idle(&self) -> bool {
        self.next_due == u64::MAX
    }

    /// Earliest cycle `>= now` at which a step could make progress (a
    /// bank that is already free schedules on the very next step); steps
    /// before it do nothing. `None` when fully idle.
    pub(crate) fn next_event_cycle(&self, now: u64) -> Option<u64> {
        (!self.is_idle()).then(|| self.next_due.max(now))
    }

    /// The model's `mem.dram.*` counters.
    pub(crate) fn register_into(&self, reg: &mut StatsRegistry) {
        reg.set_counter("mem.dram.requests", self.total_requests);
        reg.set_counter("mem.dram.row_hits", self.row_hits);
        reg.set_counter("mem.dram.row_misses", self.row_misses);
        reg.set_counter("mem.dram.row_conflicts", self.row_conflicts);
    }

    /// The banked model has no bandwidth cap to throttle on.
    pub(crate) fn throttled_cycles(&self) -> u64 {
        0
    }
}

snap_fields!(BankedDram: row_hits, row_misses, row_conflicts, total_requests);

impl BankedDram {
    /// Serializes bank queues in bank order and in-flight transfers in
    /// insertion order (retire order depends on it), plus counters.
    pub(crate) fn encode_into(&self, e: &mut Enc) {
        for bank in &self.banks {
            bank.open_row.put(e);
            e.u64(bank.busy_until);
            e.seq::<BankReq>(&bank.queue);
        }
        self.channel_bus_free.iter().for_each(|free| free.put(e));
        e.seq::<(u64, ReqId)>(&self.in_flight);
        self.put_fields(e);
    }

    pub(crate) fn restore_from(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        for bank in &mut self.banks {
            bank.open_row = Snap::get(d, "bank open row")?;
            bank.busy_until = d.u64("bank busy_until")?;
            bank.queue.clear();
            d.seq_into::<BankReq>("bank queue", &mut bank.queue)?;
        }
        for free in &mut self.channel_bus_free {
            *free = d.u64("banked DRAM channel")?;
        }
        self.in_flight.clear();
        d.seq_into::<(u64, ReqId)>("banked DRAM transfers", &mut self.in_flight)?;
        self.get_fields(d)?;
        self.next_due = self.earliest_work();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_done(d: &mut BankedDram, start: u64) -> Vec<(u64, ReqId)> {
        let mut out = Vec::new();
        let mut t = start;
        let mut done = Vec::new();
        while !d.is_idle() {
            d.step(t, &mut done);
            out.extend(done.drain(..).map(|id| (t, id)));
            t += 1;
            assert!(t < start + 1_000_000, "banked dram did not drain");
        }
        out
    }

    #[test]
    fn sequential_addresses_exploit_row_buffer() {
        let mut d = BankedDram::new(
            BankedDramConfig {
                channels: 1,
                banks_per_channel: 1,
                ..BankedDramConfig::default()
            },
            64,
        );
        for i in 0..8u64 {
            assert!(d.try_enqueue(ReqId(i), i * 64, 0));
        }
        run_until_done(&mut d, 0);
        assert_eq!(d.row_misses, 1); // first access opens the row
        assert_eq!(d.row_hits, 7);
        assert_eq!(d.row_conflicts, 0);
    }

    #[test]
    fn alternating_rows_conflict() {
        let cfg = BankedDramConfig {
            channels: 1,
            banks_per_channel: 1,
            row_bytes: 1024,
            ..BankedDramConfig::default()
        };
        let mut d = BankedDram::new(cfg, 64);
        // Two different rows in the same bank, alternating. FR-FCFS will
        // reorder hits first but with strict alternation conflicts remain.
        assert!(d.try_enqueue(ReqId(0), 0, 0));
        let done0 = run_until_done(&mut d, 0);
        assert!(d.try_enqueue(ReqId(1), 4096, done0[0].0));
        let done1 = run_until_done(&mut d, done0[0].0);
        assert!(done1[0].0 > done0[0].0);
        assert_eq!(d.row_conflicts, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let cfg = BankedDramConfig {
            channels: 1,
            banks_per_channel: 1,
            ..BankedDramConfig::default()
        };
        // Hit timing.
        let mut d1 = BankedDram::new(cfg, 64);
        d1.try_enqueue(ReqId(0), 0, 0);
        let t0 = run_until_done(&mut d1, 0)[0].0;
        d1.try_enqueue(ReqId(1), 64, t0);
        let hit_done = run_until_done(&mut d1, t0)[0].0 - t0;
        // Conflict timing.
        let mut d2 = BankedDram::new(cfg, 64);
        d2.try_enqueue(ReqId(0), 0, 0);
        let t0 = run_until_done(&mut d2, 0)[0].0;
        d2.try_enqueue(ReqId(1), 1 << 20, t0);
        let conflict_done = run_until_done(&mut d2, t0)[0].0 - t0;
        assert!(hit_done < conflict_done);
    }

    #[test]
    fn bank_queue_backpressure() {
        let cfg = BankedDramConfig {
            channels: 1,
            banks_per_channel: 1,
            queue_depth: 2,
            ..BankedDramConfig::default()
        };
        let mut d = BankedDram::new(cfg, 64);
        assert!(d.try_enqueue(ReqId(0), 0, 0));
        assert!(d.try_enqueue(ReqId(1), 64, 0));
        assert!(!d.try_enqueue(ReqId(2), 128, 0));
    }

    #[test]
    fn channels_interleave_lines() {
        let mut d = BankedDram::new(BankedDramConfig::default(), 64);
        for i in 0..16u64 {
            assert!(d.try_enqueue(ReqId(i), i * 64, 0));
        }
        let done = run_until_done(&mut d, 0);
        assert_eq!(done.len(), 16);
        assert_eq!(d.total_requests, 16);
    }
    /// Consecutive lines go to consecutive channels whatever the line
    /// size (interleaving 128-byte lines at 64 bytes would leave the odd
    /// channel idle).
    #[test]
    fn lines_interleave_at_the_configured_size() {
        for line_bytes in [32u32, 64, 128] {
            let d = BankedDram::new(BankedDramConfig::default(), line_bytes);
            let channels: Vec<usize> = (0..4).map(|i| d.map(i * u64::from(line_bytes)).0).collect();
            assert_eq!(channels, [0, 1, 0, 1], "{line_bytes}-byte lines");
        }
    }

    /// A step before the cycle `next_event_cycle` names changes nothing,
    /// and the cycle it names is one where a step does something.
    #[test]
    fn steps_before_the_next_event_are_no_ops() {
        let mut d = BankedDram::new(BankedDramConfig::default(), 64);
        let mut done = Vec::new();
        assert!(d.is_idle() && d.next_event_cycle(0).is_none());
        for i in 0..6u64 {
            assert!(d.try_enqueue(ReqId(i), i * 4096, 5));
        }
        let mut t = 5;
        let mut finished = 0;
        while let Some(next) = d.next_event_cycle(t) {
            let before = format!("{d:?}");
            for idle in t..next {
                d.step(idle, &mut done);
            }
            assert!(done.is_empty());
            assert_eq!(
                format!("{d:?}"),
                before,
                "a step before {next} changed the model"
            );
            d.step(next, &mut done);
            assert_ne!(format!("{d:?}"), before, "the step at {next} did nothing");
            finished += done.drain(..).count();
            t = next + 1;
        }
        assert_eq!(finished, 6);
        assert!(d.is_idle());
    }
}

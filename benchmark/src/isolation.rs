//! Isolation drivers: replay a workload's own trace through one layer's
//! public API with nothing else running.
//!
//! The traced loop cannot see inside `Tile::step`, which is where the
//! trace cursor, the MAO, the channels and `MemoryHierarchy::request` are
//! called. Each driver here feeds one of those layers the address or
//! message stream the real run feeds it and times the layer alone. The
//! numbers are costs per operation of the layer under a realistic
//! stream, not shares of a run: occupancy and interleaving differ from
//! what a tile produces.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use mosaicsim::ddg::StaticDdg;
use mosaicsim::ir::Function;
use mosaicsim::mem::{AccessKind, Completion, HierarchyConfig, MemReq, MemoryHierarchy};
use mosaicsim::tile::{ChannelConfig, ChannelSet, Mao};
use mosaicsim::trace::{KernelTrace, MemAccess, TileTrace, TileTraceCursor};

/// A count of operations and the host time they took together.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Operations performed.
    pub ops: u64,
    /// Host seconds.
    pub secs: f64,
}

impl OpCost {
    /// Host nanoseconds per operation (0 when nothing ran).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }

    /// Adds `other` to this cost.
    pub fn add(&mut self, other: OpCost) {
        self.ops += other.ops;
        self.secs += other.secs;
    }
}

/// Walks one tile's whole trace the way a tile consumes it —
/// `next_block` along the path, `next_mem` for each memory instruction of
/// the block in program order — and returns the accesses in that order
/// with the cost of the walk per traced instruction.
pub fn cursor_walk(func: &Function, trace: &TileTrace) -> (Vec<MemAccess>, OpCost) {
    let ddg = StaticDdg::build(func);
    let mut accesses = Vec::with_capacity(trace.mem_access_count() as usize);
    let t0 = Instant::now();
    let mut cursor = TileTraceCursor::new(trace);
    while let Some(block) = cursor.next_block() {
        for &inst in ddg.block(block).mem_order() {
            // Sends and receives sit in the memory order too but have no
            // recorded address; the cursor answers `None` for them.
            if let Some(access) = cursor.next_mem(inst) {
                accesses.push(access);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        accesses,
        OpCost {
            ops: trace.retired(),
            secs,
        },
    )
}

/// Pushes `accesses` through a MAO in program order with an
/// `lsq_size`-deep window: every operation is inserted, resolved and
/// probed once as the *youngest* entry (the probe that has to scan the
/// whole window), issued when allowed, and retired oldest-first once the
/// window is full.
pub fn mao_replay(accesses: &[MemAccess], lsq_size: u32, alias_speculation: bool) -> OpCost {
    let mut mao = Mao::new(lsq_size, alias_speculation);
    let mut window: VecDeque<(u64, bool)> = VecDeque::with_capacity(lsq_size as usize + 1);
    let retire = |mao: &mut Mao, (seq, issued): (u64, bool)| {
        // The oldest entry has nothing older to conflict with.
        if !issued && mao.can_issue(seq) {
            mao.mark_issued(seq);
        }
        mao.complete(seq);
    };
    let t0 = Instant::now();
    for (seq, a) in accesses.iter().enumerate() {
        let seq = seq as u64;
        mao.insert(seq, a.addr, a.write);
        mao.resolve(seq);
        let issued = mao.can_issue(seq);
        if issued {
            mao.mark_issued(seq);
        }
        window.push_back((seq, issued));
        if window.len() >= lsq_size as usize {
            let oldest = window.pop_front().expect("window is non-empty");
            retire(&mut mao, oldest);
        }
    }
    for entry in window.drain(..) {
        retire(&mut mao, entry);
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(mao.tracked());
    OpCost {
        ops: accesses.len() as u64,
        secs,
    }
}

/// Sends `msgs` messages through `queues` channels of `config`, a
/// producer one step ahead of a consumer, the way a DAE pair's two queues
/// carry loaded values and store values. One message is one `try_send`
/// plus one `try_recv`.
pub fn channel_replay(msgs: u64, queues: &[u32], config: ChannelConfig) -> OpCost {
    if queues.is_empty() {
        return OpCost::default();
    }
    let mut set = ChannelSet::new(config);
    let (mut sent, mut received, mut now) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while received < msgs {
        for &q in queues {
            if sent < msgs && set.channel_mut(q).try_send(now) {
                sent += 1;
            }
        }
        for &q in queues {
            if set.channel_mut(q).try_recv(now) {
                received += 1;
            }
        }
        now += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(set.all_empty());
    OpCost { ops: msgs, secs }
}

/// Issues every tile's accesses into a fresh hierarchy of `config`, tiles
/// taking turns, with at most `mshr_entries` requests outstanding, and
/// steps the hierarchy until the last completion drains. Idle spans are
/// jumped with `next_event_cycle`, as the Interleaver does. One request is
/// one `request` plus its share of `step` / `drain_completions_into`.
pub fn mem_replay(streams: &[Vec<MemAccess>], config: HierarchyConfig) -> OpCost {
    let cap = config.mshr_entries.max(1);
    let mut mem = MemoryHierarchy::new(config, streams.len().max(1));
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let mut next = vec![0usize; streams.len()];
    let (mut issued, mut done, mut outstanding) = (0u64, 0u64, 0usize);
    let mut turn = 0usize;
    let mut now = 0u64;
    let mut buf: Vec<Completion> = Vec::new();
    let t0 = Instant::now();
    while done < total {
        mem.step(now);
        mem.drain_completions_into(&mut buf);
        done += buf.len() as u64;
        outstanding -= buf.len();
        while outstanding < cap && issued < total {
            // Next tile, round robin, that still has accesses left.
            while next[turn] >= streams[turn].len() {
                turn = (turn + 1) % streams.len();
            }
            let a = streams[turn][next[turn]];
            next[turn] += 1;
            let kind = if a.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let req = MemReq {
                tile: turn,
                addr: a.addr,
                size: a.size,
                kind,
            };
            mem.request(req, now)
                .expect("tile index is within the hierarchy");
            turn = (turn + 1) % streams.len();
            issued += 1;
            outstanding += 1;
        }
        now = match mem.next_event_cycle(now + 1) {
            Some(event) if outstanding == cap || issued == total => event.max(now + 1),
            _ => now + 1,
        };
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(mem.stats());
    OpCost { ops: total, secs }
}

/// The program-order access stream of every tile of `trace`, with the
/// summed cost of the cursor walks that produced them.
pub fn access_streams(
    module: &mosaicsim::ir::Module,
    funcs: &[mosaicsim::ir::FuncId],
    trace: &KernelTrace,
) -> (Vec<Vec<MemAccess>>, OpCost) {
    let mut cost = OpCost::default();
    let streams = funcs
        .iter()
        .enumerate()
        .map(|(slot, &func)| {
            let (accesses, walk) = cursor_walk(module.function(func), trace.tile(slot));
            cost.add(walk);
            accesses
        })
        .collect();
    (streams, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaicsim::core::{dae_channel, xeon_memory};
    use mosaicsim::kernels::build_parboil;

    #[test]
    fn cursor_walk_consumes_every_recorded_access() {
        let p = build_parboil("spmv", 1);
        let (trace, _) = p.trace(2).expect("trace");
        let (streams, cost) = access_streams(&p.module, &[p.func, p.func], &trace);
        for (slot, stream) in streams.iter().enumerate() {
            assert_eq!(stream.len() as u64, trace.tile(slot).mem_access_count());
        }
        assert_eq!(cost.ops, trace.total_retired());
        assert!(cost.ns_per_op() > 0.0);
    }

    #[test]
    fn drivers_process_every_operation() {
        let p = build_parboil("histo", 1);
        let (trace, _) = p.trace(1).expect("trace");
        let (streams, _) = access_streams(&p.module, &[p.func], &trace);
        let n = streams[0].len() as u64;
        assert_eq!(mao_replay(&streams[0], 128, true).ops, n);
        assert_eq!(mao_replay(&streams[0], 1, false).ops, n);
        assert_eq!(mem_replay(&streams, xeon_memory()).ops, n);
        assert_eq!(
            channel_replay(10_000, &[0, 1, 1000, 1001], dae_channel()).ops,
            10_000
        );
        assert_eq!(channel_replay(5, &[], dae_channel()), OpCost::default());
        assert_eq!(OpCost::default().ns_per_op(), 0.0);
    }
}

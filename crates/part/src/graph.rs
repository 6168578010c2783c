//! The system interference graph.
//!
//! Nodes are tiles and memory banks; edges are the only two ways one
//! tile's execution can affect another in this machine model:
//!
//! * a **channel edge** — tile `a` sends on a system queue some tile
//!   `b` receives from; the effect lands no earlier than the send's
//!   static issue bound plus the channel delivery latency;
//! * a **bank edge** — both tiles' memory footprints touch the same
//!   bank, so requests can contend from the moment the first access
//!   issues.
//!
//! Folding the edges gives a per-ordered-pair **horizon**: a lower
//! bound on the first cycle at which anything tile `a` does can be
//! observed by (or contend with) tile `b`. The partitioner
//! ([`crate::plan`]) cuts the graph where horizons are large and
//! weights are small.

use mosaic_ir::analysis::footprint::{eval_trip_product, Footprint};
use mosaic_ir::analysis::{Cfg, ExecCounts};
use mosaic_ir::{Module, Opcode};
use mosaic_lint::TileBinding;

use crate::horizon::{FuncDepths, LatencyModel};
use crate::MemGeometry;

/// A directed tile→tile communication edge over one system queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelEdge {
    /// Sending tile index.
    pub from: usize,
    /// Receiving tile index.
    pub to: usize,
    /// System-level queue id (IR queue plus the sender's offset).
    pub queue: u32,
    /// Static lower bound on the cycle the first value becomes
    /// receivable (send issue bound + channel latency).
    pub min_delivery: u64,
    /// Statically proven send count over the edge (unknown counts
    /// contribute 1 per send site — a lower bound, used as weight).
    pub weight: u64,
}

/// An undirected tile↔bank contention edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankEdge {
    /// Tile index.
    pub tile: usize,
    /// Bank index in the [`MemGeometry`].
    pub bank: usize,
    /// Estimated access traffic (provable counts spread over the banks
    /// the range covers; at least 1).
    pub weight: u64,
    /// Static lower bound on the first cycle an access from this tile
    /// can reach the bank.
    pub first_touch: u64,
}

/// The complete interference graph for one configured system.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    /// Number of tiles (indices into the binding list used to build).
    pub tiles: usize,
    /// The memory geometry the bank edges were computed against.
    pub geometry: MemGeometry,
    /// All tile→tile channel edges.
    pub channel_edges: Vec<ChannelEdge>,
    /// All tile↔bank edges.
    pub bank_edges: Vec<BankEdge>,
    /// Tiles whose footprint could not be bounded (they conservatively
    /// touch every bank; partitioning them is never profitable).
    pub unbounded_tiles: Vec<usize>,
    horizons: Vec<u64>,
}

impl InterferenceGraph {
    /// Builds the graph for `tiles` running in `module` over `geometry`,
    /// with static bounds computed under `model`.
    pub fn build(
        module: &Module,
        tiles: &[TileBinding],
        geometry: MemGeometry,
        model: &LatencyModel,
    ) -> InterferenceGraph {
        let n = tiles.len();
        let mut channel_edges = Vec::new();
        let mut bank_edges = Vec::new();
        let mut unbounded_tiles = Vec::new();

        // Per tile: (system queue -> (min send bound, total weight)),
        // receive queues, and per-bank (weight, first touch).
        let mut sends: Vec<Vec<(u32, u64, u64)>> = Vec::with_capacity(n);
        let mut recvs: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut banks: Vec<Vec<(usize, u64, u64)>> = Vec::with_capacity(n);

        for (t, b) in tiles.iter().enumerate() {
            let func = module.function(b.func);
            let cfg = Cfg::new(func);
            let dom = cfg.dominators();
            let exec = ExecCounts::compute(func, &cfg, &dom);
            let depths = FuncDepths::compute(func, &b.args, model);
            let fp = Footprint::compute(func, &b.args);

            let mut tile_sends: Vec<(u32, u64, u64)> = Vec::new();
            let mut tile_recvs: Vec<u32> = Vec::new();
            for block in func.blocks() {
                if !cfg.is_reachable(block.id()) {
                    continue;
                }
                let count = eval_trip_product(exec.count(block.id()), &b.args)
                    .map(|c| c.max(0) as u64)
                    .unwrap_or(1)
                    .max(1);
                for &iid in block.insts() {
                    match func.inst(iid).op() {
                        Opcode::Send { queue, .. } => {
                            let q = queue + b.queue_offset;
                            let bound = depths.inst_issue[iid.index()];
                            match tile_sends.iter_mut().find(|(sq, ..)| *sq == q) {
                                Some(e) => {
                                    e.1 = e.1.min(bound);
                                    e.2 = e.2.saturating_add(count);
                                }
                                None => tile_sends.push((q, bound, count)),
                            }
                        }
                        Opcode::Recv { queue } => {
                            let q = queue + b.queue_offset;
                            if !tile_recvs.contains(&q) {
                                tile_recvs.push(q);
                            }
                        }
                        _ => {}
                    }
                }
            }

            let mut tile_banks: Vec<(usize, u64, u64)> = Vec::new();
            let mut touch = |bank: usize, w: u64, first: u64| {
                match tile_banks.iter_mut().find(|(bk, ..)| *bk == bank) {
                    Some(e) => {
                        e.1 = e.1.saturating_add(w);
                        e.2 = e.2.min(first);
                    }
                    None => tile_banks.push((bank, w, first)),
                }
            };
            for a in &fp.bounded {
                let covered = geometry.banks_of_range(a.lo, a.hi);
                if covered.is_empty() {
                    continue;
                }
                let total = a.count.map(|c| c.max(0) as u64).unwrap_or(1).max(1);
                let per = (total / covered.len() as u64).max(1);
                let first = depths.inst_issue[a.inst.index()];
                for bank in covered {
                    touch(bank, per, first);
                }
            }
            if !fp.unbounded.is_empty() {
                unbounded_tiles.push(t);
                let first = fp
                    .unbounded
                    .iter()
                    .map(|i| depths.inst_issue[i.index()])
                    .min()
                    .unwrap_or(0);
                for bank in 0..geometry.num_banks {
                    touch(bank, 1, first);
                }
            }
            tile_banks.sort_unstable_by_key(|&(bk, ..)| bk);

            sends.push(tile_sends);
            recvs.push(tile_recvs);
            banks.push(tile_banks);
        }

        for (a, tile_sends) in sends.iter().enumerate() {
            for &(q, bound, weight) in tile_sends {
                for (b, tile_recvs) in recvs.iter().enumerate() {
                    if b != a && tile_recvs.contains(&q) {
                        channel_edges.push(ChannelEdge {
                            from: a,
                            to: b,
                            queue: q,
                            min_delivery: bound.saturating_add(model.channel),
                            weight,
                        });
                    }
                }
            }
        }
        for (t, tb) in banks.iter().enumerate() {
            for &(bank, weight, first_touch) in tb {
                bank_edges.push(BankEdge {
                    tile: t,
                    bank,
                    weight,
                    first_touch,
                });
            }
        }

        // Fold edges into the ordered-pair horizon matrix.
        let mut horizons = vec![u64::MAX; n * n];
        for e in &channel_edges {
            let h = &mut horizons[e.from * n + e.to];
            *h = (*h).min(e.min_delivery);
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                for &(bank, _, first) in &banks[a] {
                    if banks[b].iter().any(|&(bk, ..)| bk == bank) {
                        let h = &mut horizons[a * n + b];
                        *h = (*h).min(first);
                    }
                }
            }
        }

        InterferenceGraph {
            tiles: n,
            geometry,
            channel_edges,
            bank_edges,
            unbounded_tiles,
            horizons,
        }
    }

    /// Lower bound on the first cycle at which anything tile `from`
    /// does can affect tile `to`; [`u64::MAX`] when provably never.
    pub fn horizon(&self, from: usize, to: usize) -> u64 {
        if from == to {
            return 0;
        }
        self.horizons[from * self.tiles + to]
    }

    /// Symmetric horizon of an unordered pair: the first cycle either
    /// tile can affect the other.
    pub fn pair_horizon(&self, a: usize, b: usize) -> u64 {
        self.horizon(a, b).min(self.horizon(b, a))
    }

    /// Coupling weight between two tiles: channel traffic in both
    /// directions plus overlapping bank traffic. The partitioner keeps
    /// high-affinity tiles in one shard.
    pub fn affinity(&self, a: usize, b: usize) -> u64 {
        let mut w: u64 = 0;
        for e in &self.channel_edges {
            if (e.from == a && e.to == b) || (e.from == b && e.to == a) {
                w = w.saturating_add(e.weight);
            }
        }
        for ea in self.bank_edges.iter().filter(|e| e.tile == a) {
            for eb in self.bank_edges.iter().filter(|e| e.tile == b) {
                if ea.bank == eb.bank {
                    w = w.saturating_add(ea.weight.min(eb.weight));
                }
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{Constant, FunctionBuilder, Module, Type};

    /// Producer→consumer over q0, plus disjoint footprints that share
    /// no bank under a wide-stride geometry.
    fn pair_system() -> (Module, Vec<TileBinding>) {
        let mut m = Module::new("pair");
        let p = m.add_function("prod", vec![("buf".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(p));
        let e = b.create_block("entry");
        b.switch_to(e);
        let buf = b.param(0);
        b.emit_counted_loop("w", Constant::i64(0).into(), Constant::i64(8).into(), |b, iv| {
            let a = b.gep(buf, iv, 8);
            b.store(a, iv);
        });
        b.send(0, Constant::i64(1).into());
        b.ret(None);

        let c = m.add_function("cons", vec![("buf".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(c));
        let e = b.create_block("entry");
        b.switch_to(e);
        let buf = b.param(0);
        b.recv(0, Type::I64);
        b.load(Type::I64, buf);
        b.ret(None);

        let tiles = vec![
            TileBinding::new(p, 0, vec![Some(0)]),
            TileBinding::new(c, 0, vec![Some(4096)]),
        ];
        (m, tiles)
    }

    #[test]
    fn channel_edge_carries_loop_gated_delivery_bound() {
        let (m, tiles) = pair_system();
        let g = InterferenceGraph::build(
            &m,
            &tiles,
            MemGeometry::new(4, 1024),
            &LatencyModel::default(),
        );
        assert_eq!(g.channel_edges.len(), 1);
        let e = &g.channel_edges[0];
        assert_eq!((e.from, e.to, e.queue), (0, 1, 0));
        assert!(
            e.min_delivery >= 8,
            "send sits behind an 8-trip loop, got {}",
            e.min_delivery
        );
        // The folded horizon can only be tightened (never loosened) by
        // bank sharing.
        assert!(g.horizon(0, 1) <= e.min_delivery);
    }

    #[test]
    fn disjoint_footprints_share_no_bank() {
        let (m, tiles) = pair_system();
        // 8 banks × 64B: prod touches [0,64) → bank 0; cons loads 4096
        // → line 64 → bank 0 again. Use stride 512 so prod hits bank 0
        // and cons (4096/512 = line 8) also bank 0... pick 8×4096:
        // prod line 0 → bank 0, cons line 1 → bank 1. Disjoint.
        let g = InterferenceGraph::build(
            &m,
            &tiles,
            MemGeometry::new(8, 4096),
            &LatencyModel::default(),
        );
        assert!(g.unbounded_tiles.is_empty());
        let prod_banks: Vec<usize> = g
            .bank_edges
            .iter()
            .filter(|e| e.tile == 0)
            .map(|e| e.bank)
            .collect();
        let cons_banks: Vec<usize> = g
            .bank_edges
            .iter()
            .filter(|e| e.tile == 1)
            .map(|e| e.bank)
            .collect();
        assert!(prod_banks.iter().all(|b| !cons_banks.contains(b)));
        // Consumer→producer has no channel and no shared bank: never.
        assert_eq!(g.horizon(1, 0), u64::MAX);
        // Producer→consumer still has the channel edge.
        assert!(g.horizon(0, 1) < u64::MAX);
        assert_eq!(g.pair_horizon(0, 1), g.horizon(0, 1));
    }

    #[test]
    fn unbounded_footprint_touches_every_bank() {
        let mut m = Module::new("u");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.load(Type::I64, b.param(0));
        b.store(v, Constant::i64(0).into());
        b.ret(None);
        let tiles = vec![
            TileBinding::new(f, 0, vec![None]),
            TileBinding::new(f, 0, vec![None]),
        ];
        let g = InterferenceGraph::build(
            &m,
            &tiles,
            MemGeometry::new(4, 64),
            &LatencyModel::default(),
        );
        assert_eq!(g.unbounded_tiles, vec![0, 1]);
        assert_eq!(g.bank_edges.iter().filter(|e| e.tile == 0).count(), 4);
        // Both touch everything from cycle 0: zero horizon both ways.
        assert_eq!(g.pair_horizon(0, 1), 0);
    }
}

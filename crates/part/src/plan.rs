//! Greedy min-cut partitioning of the interference graph.
//!
//! The partitioner assigns every tile and every bank to exactly one
//! shard so that a BSP interleaver can simulate shards independently
//! between synchronizations. The objective is the classic min-cut /
//! max-horizon trade: keep heavily coupled tiles together (affinity is
//! the cut weight avoided) and report the surviving cross-shard
//! horizon as the safe epoch length.
//!
//! The algorithm is greedy agglomerative merging — start from
//! singleton groups, repeatedly merge the highest-affinity pair that
//! stays under the per-shard tile cap, and fall back to merging the
//! smallest groups when affinities run out. It is deterministic (ties
//! break on lowest index).

use crate::graph::InterferenceGraph;

/// One shard of a partition plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shard {
    /// Tile indices assigned to this shard, ascending.
    pub tiles: Vec<usize>,
    /// Bank indices owned by this shard, ascending.
    pub banks: Vec<usize>,
}

/// A complete assignment of tiles and banks to shards, plus the static
/// quality measures the assignment was chosen for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Total number of tiles partitioned.
    pub tiles: usize,
    /// Total number of banks partitioned.
    pub banks: usize,
    /// The shards; every tile and bank appears in exactly one.
    pub shards: Vec<Shard>,
    /// Static safe-epoch horizon: a lower bound on the cycle at which
    /// *any* cross-shard effect can first land. A BSP interleaver may
    /// run shards independently this many cycles per epoch.
    /// [`u64::MAX`] means the shards provably never interact.
    pub epoch_horizon: u64,
    /// Total affinity severed by the cut (smaller is better).
    pub cut_weight: u64,
    /// Total affinity kept inside shards.
    pub internal_weight: u64,
}

/// Partitions `graph` into (at most) `shards` shards.
///
/// With one shard (or one tile) the plan is trivial — everything in
/// shard 0, infinite horizon. Requesting more shards than tiles clamps
/// to one shard per tile.
pub fn partition(graph: &InterferenceGraph, shards: usize) -> PartitionPlan {
    let n = graph.tiles;
    let target = shards.max(1).min(n.max(1));
    // group[t] = current group id of tile t; groups merge downward.
    let mut group: Vec<usize> = (0..n).collect();
    let cap = n.div_ceil(target);

    let group_sizes = |group: &[usize]| {
        let mut sizes = vec![0usize; n];
        for &g in group {
            sizes[g] += 1;
        }
        sizes
    };
    let live_groups = |group: &[usize]| {
        let mut ids: Vec<usize> = group.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids
    };

    // Pairwise tile affinities, computed once.
    let mut aff = vec![0u64; n * n];
    for a in 0..n {
        for b in (a + 1)..n {
            let w = graph.affinity(a, b);
            aff[a * n + b] = w;
            aff[b * n + a] = w;
        }
    }
    let group_affinity = |group: &[usize], ga: usize, gb: usize| -> u64 {
        let mut w = 0u64;
        for a in 0..n {
            if group[a] != ga {
                continue;
            }
            for b in 0..n {
                if group[b] == gb {
                    w = w.saturating_add(aff[a * n + b]);
                }
            }
        }
        w
    };

    while live_groups(&group).len() > target {
        let groups = live_groups(&group);
        let sizes = group_sizes(&group);
        // Best (highest-affinity) mergeable pair under the cap; ties
        // break on lowest (ga, gb).
        let mut best: Option<(u64, usize, usize)> = None;
        for (i, &ga) in groups.iter().enumerate() {
            for &gb in &groups[i + 1..] {
                if sizes[ga] + sizes[gb] > cap {
                    continue;
                }
                let w = group_affinity(&group, ga, gb);
                if best.map(|(bw, ..)| w > bw).unwrap_or(true) {
                    best = Some((w, ga, gb));
                }
            }
        }
        let (ga, gb) = match best {
            Some((_, a, b)) => (a, b),
            None => {
                // Cap blocks every merge (can happen when sizes are
                // uneven); merge the two smallest groups regardless.
                let mut by_size = groups.clone();
                by_size.sort_by_key(|&g| (sizes[g], g));
                (by_size[0].min(by_size[1]), by_size[0].max(by_size[1]))
            }
        };
        for g in group.iter_mut() {
            if *g == gb {
                *g = ga;
            }
        }
    }

    // Renumber groups into dense shard ids by first-tile order.
    let groups = live_groups(&group);
    let shard_of = |t: usize| groups.iter().position(|&g| g == group[t]).unwrap();
    let mut out: Vec<Shard> = vec![Shard::default(); groups.len()];
    for t in 0..n {
        out[shard_of(t)].tiles.push(t);
    }

    // Banks go to the shard with the highest traffic on them; ties and
    // untouched banks go to the emptiest (then lowest) shard.
    let nbanks = graph.geometry.num_banks;
    for bank in 0..(if out.is_empty() { 0 } else { nbanks }) {
        let mut per_shard = vec![0u64; out.len()];
        for e in graph.bank_edges.iter().filter(|e| e.bank == bank) {
            per_shard[shard_of(e.tile)] = per_shard[shard_of(e.tile)].saturating_add(e.weight);
        }
        let max = per_shard.iter().copied().max().unwrap_or(0);
        let pick = if max == 0 {
            (0..out.len())
                .min_by_key(|&s| (out[s].banks.len(), s))
                .unwrap_or(0)
        } else {
            per_shard.iter().position(|&w| w == max).unwrap_or(0)
        };
        out[pick].banks.push(bank);
    }

    // Quality measures of the final assignment.
    let mut cut = 0u64;
    let mut internal = 0u64;
    let mut horizon = u64::MAX;
    for a in 0..n {
        for b in (a + 1)..n {
            if shard_of(a) == shard_of(b) {
                internal = internal.saturating_add(aff[a * n + b]);
            } else {
                cut = cut.saturating_add(aff[a * n + b]);
                horizon = horizon.min(graph.pair_horizon(a, b));
            }
        }
    }

    PartitionPlan {
        tiles: n,
        banks: nbanks,
        shards: out,
        epoch_horizon: horizon,
        cut_weight: cut,
        internal_weight: internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::LatencyModel;
    use crate::MemGeometry;
    use mosaic_ir::{Constant, FunctionBuilder, Module, Type};
    use mosaic_lint::TileBinding;

    impl PartitionPlan {
        /// Validates the plan against a system of `tiles` tiles and `banks`
        /// banks: every tile and bank assigned exactly once, no shard empty
        /// of tiles, and the totals match. Returns a description of the
        /// first violation.
        fn validate(&self, tiles: usize, banks: usize) -> Result<(), String> {
            if self.tiles != tiles {
                return Err(format!("plan covers {} tiles, system has {tiles}", self.tiles));
            }
            if self.banks != banks {
                return Err(format!("plan covers {} banks, system has {banks}", self.banks));
            }
            let mut tile_seen = vec![false; tiles];
            let mut bank_seen = vec![false; banks];
            for (i, s) in self.shards.iter().enumerate() {
                if s.tiles.is_empty() && tiles > 0 {
                    return Err(format!("shard {i} has no tiles"));
                }
                for &t in &s.tiles {
                    if t >= tiles || std::mem::replace(&mut tile_seen[t], true) {
                        return Err(format!("tile {t} missing or assigned twice"));
                    }
                }
                for &b in &s.banks {
                    if b >= banks || std::mem::replace(&mut bank_seen[b], true) {
                        return Err(format!("bank {b} missing or assigned twice"));
                    }
                }
            }
            if let Some(t) = tile_seen.iter().position(|&s| !s) {
                return Err(format!("tile {t} unassigned"));
            }
            if let Some(b) = bank_seen.iter().position(|&s| !s) {
                return Err(format!("bank {b} unassigned"));
            }
            Ok(())
        }
    }

    /// Four tiles: (0,1) chat over q0 and (2,3) over q1 — the obvious
    /// 2-way cut separates the pairs.
    fn two_pair_graph() -> InterferenceGraph {
        let mut m = Module::new("pairs");
        let mk = |m: &mut Module, name: &str, sendq: Option<u32>, recvq: Option<u32>| {
            let f = m.add_function(name, vec![], Type::Void);
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let e = b.create_block("entry");
            b.switch_to(e);
            if let Some(q) = sendq {
                b.send(q, Constant::i64(1).into());
            }
            if let Some(q) = recvq {
                b.recv(q, Type::I64);
            }
            b.ret(None);
            f
        };
        let p0 = mk(&mut m, "p0", Some(0), None);
        let c0 = mk(&mut m, "c0", None, Some(0));
        let p1 = mk(&mut m, "p1", Some(1), None);
        let c1 = mk(&mut m, "c1", None, Some(1));
        let tiles = vec![
            TileBinding::new(p0, 0, vec![]),
            TileBinding::new(c0, 0, vec![]),
            TileBinding::new(p1, 0, vec![]),
            TileBinding::new(c1, 0, vec![]),
        ];
        InterferenceGraph::build(&m, &tiles, MemGeometry::new(4, 64), &LatencyModel::default())
    }

    #[test]
    fn partition_cuts_between_independent_pairs() {
        let g = two_pair_graph();
        let plan = partition(&g, 2);
        assert_eq!(plan.shards.len(), 2);
        plan.validate(4, 4).expect("valid plan");
        // The chatting pairs stay together: zero affinity is severed.
        assert_eq!(plan.cut_weight, 0);
        assert!(plan.internal_weight > 0);
        let find = |t: usize| plan.shards.iter().position(|s| s.tiles.contains(&t));
        assert_eq!(find(0), find(1));
        assert_eq!(find(2), find(3));
        assert_ne!(find(0), find(2));
    }

    #[test]
    fn single_shard_plan_is_trivial_and_infinite() {
        let g = two_pair_graph();
        let plan = partition(&g, 1);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.epoch_horizon, u64::MAX);
        plan.validate(4, 4).expect("valid plan");
    }

    #[test]
    fn oversubscribed_shards_clamp_to_tiles() {
        let g = two_pair_graph();
        let plan = partition(&g, 16);
        assert_eq!(plan.shards.len(), 4);
        plan.validate(4, 4).expect("valid plan");
    }

    /// Five tiles, so no shard count above one divides them evenly and
    /// the cap blocks merges the affinities ask for; each tile streams
    /// over its own 256-byte slice, so banks have owners to be assigned
    /// by traffic as well as untouched banks to be spread.
    #[test]
    fn uneven_cuts_with_bank_traffic_are_valid_plans() {
        let mut m = Module::new("spmd");
        let f = m.add_function("k", vec![("buf".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let buf = b.param(0);
        b.emit_counted_loop("i", Constant::i64(0).into(), Constant::i64(32).into(), |b, iv| {
            let a = b.gep(buf, iv, 8);
            b.load(Type::I64, a);
        });
        b.ret(None);
        let tiles: Vec<TileBinding> = (0..5)
            .map(|t| TileBinding::new(f, 0, vec![Some(t * 256)]))
            .collect();
        let g =
            InterferenceGraph::build(&m, &tiles, MemGeometry::new(32, 64), &LatencyModel::default());
        for shards in 1..=6 {
            let plan = partition(&g, shards);
            assert_eq!(plan.shards.len(), shards.min(5));
            plan.validate(5, 32)
                .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let g = two_pair_graph();
        let mut plan = partition(&g, 2);
        assert!(plan.validate(5, 4).is_err(), "tile count mismatch");
        assert!(plan.validate(4, 5).is_err(), "bank count mismatch");
        let t = plan.shards[0].tiles.remove(0);
        assert!(plan.validate(4, 4).is_err(), "missing tile");
        plan.shards[0].tiles.push(t);
        plan.shards[0].tiles.push(t);
        assert!(plan.validate(4, 4).is_err(), "duplicate tile");
    }
}

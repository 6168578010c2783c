//! # mosaic-part
//!
//! Static tile-interference and epoch-horizon analysis, built as the
//! planning half of BSP tile sharding (after Manticore's static
//! latency-bound partitioning and MGSim's distributed multi-core work).
//! The measurement it made possible ruled the executor out — no bundled
//! multi-tile system has an epoch worth running (DESIGN.md §4.7) — so
//! what is kept is the analysis: the graph, the horizons and the cut
//! that reports them.
//!
//! From a kernel's IR, its [`TileBinding`]s, and the memory geometry,
//! the crate builds a **system interference graph**
//! ([`InterferenceGraph`]):
//!
//! * **tile↔tile channel edges**, weighted with statically proven
//!   send counts and a *minimum send→recv delivery bound* derived from
//!   SSA dependence chains, counted-loop trip counts, and minimum FU
//!   latencies ([`horizon`]);
//! * **tile↔bank edges** from loop-summarized address footprints
//!   ([`mosaic_ir::analysis::footprint`]) mapped onto a
//!   [`MemGeometry`].
//!
//! On top of the graph it computes per-tile-pair **static safe-epoch
//! horizons** — a lower bound on the cycle at which one tile's effect
//! can first land on another — and a greedy min-cut [`PartitionPlan`]
//! assigning tiles and banks to shards. A bulk-synchronous parallel
//! interleaver could simulate the shards of a plan independently for
//! `epoch_horizon` cycles between synchronizations without reordering
//! any cross-shard event.
//!
//! Every bound is *conservative by construction* (see [`horizon`] for
//! the argument) and the repository's `partition_differential` test
//! replays kernels cycle-by-cycle asserting no delivery ever beats the
//! static bound.
//!
//! # Examples
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Constant, Type};
//! use mosaic_lint::TileBinding;
//! use mosaic_part::{InterferenceGraph, LatencyModel, MemGeometry, partition};
//!
//! // Producer sends one value to the consumer over q0.
//! let mut m = Module::new("pair");
//! let p = m.add_function("prod", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(p));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! b.send(0, Constant::i64(1).into());
//! b.ret(None);
//! let c = m.add_function("cons", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(c));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! b.recv(0, Type::I64);
//! b.ret(None);
//!
//! let tiles = vec![TileBinding::new(p, 0, vec![]), TileBinding::new(c, 0, vec![])];
//! let graph = InterferenceGraph::build(
//!     &m, &tiles, MemGeometry::default(), &LatencyModel::default());
//! assert_eq!(graph.channel_edges.len(), 1);
//! let plan = partition(&graph, 2);
//! assert_eq!(plan.shards.len(), 2);
//! assert!(plan.epoch_horizon >= 1, "the only cross-shard path is the channel");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod horizon;
pub mod plan;

pub use graph::{BankEdge, ChannelEdge, InterferenceGraph};
pub use horizon::{FuncDepths, LatencyModel};
pub use plan::{partition, PartitionPlan, Shard};

// Re-exported so downstream users need not name mosaic-lint directly.
pub use mosaic_lint::TileBinding;

/// How the shared memory is carved into banks for interference
/// purposes: bank `i` owns every `stride`-byte line whose line index is
/// congruent to `i` modulo the bank count (line-interleaved, matching
/// the banked DRAM model's address map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGeometry {
    /// Number of independently schedulable banks.
    pub num_banks: usize,
    /// Bytes per interleave line.
    pub stride: u64,
}

impl Default for MemGeometry {
    /// Eight banks over 64-byte lines: the default `BankedDramConfig`
    /// geometry collapsed to one channel, and a serviceable proxy for
    /// the simple DRAM model.
    fn default() -> Self {
        MemGeometry { num_banks: 8, stride: 64 }
    }
}

impl MemGeometry {
    /// A geometry with `num_banks` banks interleaved at `stride` bytes.
    /// Both are clamped to at least 1.
    pub fn new(num_banks: usize, stride: u64) -> Self {
        MemGeometry {
            num_banks: num_banks.max(1),
            stride: stride.max(1),
        }
    }

    /// All banks touched by the byte range `[lo, hi)`, ascending.
    pub fn banks_of_range(&self, lo: i64, hi: i64) -> Vec<usize> {
        if hi <= lo {
            return Vec::new();
        }
        let lo = lo.max(0) as u64;
        let hi = (hi.max(0) as u64).max(lo);
        let first = lo / self.stride;
        let last = (hi - 1) / self.stride;
        let n = self.num_banks as u64;
        if last - first + 1 >= n {
            return (0..self.num_banks).collect();
        }
        let mut banks: Vec<usize> = (first..=last).map(|l| (l % n) as usize).collect();
        banks.sort_unstable();
        banks.dedup();
        banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_banks_cover_and_saturate() {
        let g = MemGeometry::new(4, 64);
        assert_eq!(g.banks_of_range(0, 64), vec![0]);
        assert_eq!(g.banks_of_range(0, 65), vec![0, 1]);
        assert_eq!(g.banks_of_range(128, 256), vec![2, 3]);
        assert_eq!(g.banks_of_range(0, 4096), vec![0, 1, 2, 3]);
        assert!(g.banks_of_range(10, 10).is_empty());
    }
}

//! # mosaic-mem
//!
//! The memory hierarchy of MosaicSim-RS (paper §V): configurable private
//! and shared set-associative caches (write-back, write-allocate, fully
//! inclusive), per-cache MSHRs for request coalescing, a configurable
//! stream prefetcher, and two DRAM timing models — [`SimpleDram`]
//! (minimum latency + epoch bandwidth cap, the default) and `BankedDram`
//! (a row-buffer/bank-conflict model standing in for DRAMSim2, set up by
//! [`BankedDramConfig`]).
//!
//! [`MemoryHierarchy`] composes them behind a cycle-driven request →
//! completion interface that the tile models use for every load, store,
//! and atomic. The simulator is timing-only: caches track tags, never
//! data (paper §V-A).
//!
//! # Examples
//!
//! ```
//! use mosaic_mem::{MemoryHierarchy, HierarchyConfig, MemReq, AccessKind};
//!
//! let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
//! let id = hier.request(
//!     MemReq { tile: 0, addr: 0x8000, size: 8, kind: AccessKind::Read },
//!     0,
//! ).expect("tile 0 exists");
//! let (mut cycle, mut completed) = (0, Vec::new());
//! let done = loop {
//!     hier.step(cycle);
//!     hier.drain_completions_into(&mut completed);
//!     if let Some(c) = completed.iter().find(|c| c.id == id) {
//!         break *c;
//!     }
//!     cycle += 1;
//! };
//! assert!(done.at_cycle >= 200); // cold miss pays the DRAM latency
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod banked;
mod cache;
mod hierarchy;
mod mshr;
mod prefetch;
mod req;
mod ring;
mod simple_dram;
mod wheel;

pub use banked::BankedDramConfig;
pub use cache::CacheConfig;
pub use hierarchy::{DramKind, HierarchyConfig, MemError, MemStats, MemoryHierarchy, NocConfig};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
pub use req::{AccessKind, Completion, MemReq, ReqId};
pub use simple_dram::{SimpleDram, SimpleDramConfig};

#[cfg(test)]
mod test_rng {
    /// SplitMix64 — a tiny seeded generator for the invariant sweeps.
    pub(crate) struct TestRng(pub u64);

    impl TestRng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
        }
    }
}

#[cfg(test)]
mod invariant_tests {
    //! Deterministic pseudo-random invariant checks (formerly proptest;
    //! rewritten against a fixed-seed generator so the crate has no
    //! external dev-dependencies).
    use super::test_rng::TestRng;
    use crate::cache::Cache;
    use super::*;

    fn addr_vec(r: &mut TestRng, max_len: usize, bound: u64) -> Vec<u64> {
        let len = 1 + r.below(max_len as u64 - 1) as usize;
        (0..len).map(|_| r.below(bound)).collect()
    }

    /// The cache never reports more hits+misses than accesses and the
    /// miss ratio is always within [0, 1].
    #[test]
    fn cache_counter_invariants() {
        let mut r = TestRng(1);
        for _case in 0..32 {
            let addrs = addr_vec(&mut r, 200, 1_000_000);
            let mut c = Cache::new(CacheConfig::new("p", 4096).with_ways(4));
            for a in &addrs {
                if !c.touch(*a, a % 3 == 0) {
                    c.count_miss();
                    c.fill(*a, a % 3 == 0);
                }
            }
            assert_eq!(c.hits() + c.misses(), c.accesses());
            assert!((0.0..=1.0).contains(&c.miss_ratio()));
        }
    }

    /// After filling a line it is always resident until evicted or
    /// invalidated — probing immediately after a fill must hit.
    #[test]
    fn fill_makes_resident() {
        let mut r = TestRng(2);
        for _case in 0..32 {
            let addrs = addr_vec(&mut r, 200, 1_000_000);
            let mut c = Cache::new(CacheConfig::new("p", 2048).with_ways(2));
            for a in &addrs {
                c.fill(*a, false);
                assert!(c.probe(*a));
            }
        }
    }

    /// A cache of N ways per set holds at most N distinct lines of the
    /// same set at once: filling N+1 conflicting lines evicts exactly one.
    #[test]
    fn associativity_bound() {
        let mut r = TestRng(3);
        for _case in 0..64 {
            let base = r.below(1000);
            let mut c = Cache::new(CacheConfig::new("p", 512).with_ways(2)); // 4 sets
            let stride = 4 * 64; // same set
            let lines: Vec<u64> = (0..3).map(|i| (base * 64 + i * stride) & !63).collect();
            let mut evicted = 0;
            for l in &lines {
                if c.fill(*l, false).evicted.is_some() {
                    evicted += 1;
                }
            }
            assert_eq!(evicted, 1);
        }
    }

    /// SimpleDRAM: every enqueued request eventually completes, never
    /// before its minimum latency, and per-epoch returns never exceed
    /// the configured cap.
    #[test]
    fn simple_dram_bandwidth_and_latency() {
        let mut r = TestRng(4);
        for _case in 0..48 {
            let n = 1 + r.below(63) as usize;
            let lat = 1 + r.below(99);
            let per_epoch = 1 + r.below(15) as u32;
            let epoch = 32u64;
            let mut d = SimpleDram::new(SimpleDramConfig {
                min_latency: lat,
                epoch_cycles: epoch,
                max_per_epoch: per_epoch,
            });
            for i in 0..n {
                d.try_enqueue(ReqId(i as u64), 0, 0);
            }
            let mut t = 0u64;
            let mut completed = 0usize;
            let mut per_epoch_count = std::collections::HashMap::new();
            let mut done = Vec::new();
            while completed < n {
                done.clear();
                d.step(t, &mut done);
                for _ in &done {
                    assert!(t >= lat);
                    *per_epoch_count.entry(t / epoch).or_insert(0u32) += 1;
                }
                completed += done.len();
                t += 1;
                assert!(t < 1_000_000);
            }
            for (_, cnt) in per_epoch_count {
                assert!(cnt <= per_epoch);
            }
            assert!(d.is_idle());
        }
    }

    /// The hierarchy completes every demand request exactly once.
    #[test]
    fn hierarchy_completes_all() {
        let mut r = TestRng(5);
        for _case in 0..24 {
            let addrs = addr_vec(&mut r, 100, 65536);
            let tiles = 1 + r.below(3) as usize;
            let mut h = MemoryHierarchy::new(
                HierarchyConfig {
                    prefetch: PrefetchConfig::disabled(),
                    ..HierarchyConfig::default()
                },
                tiles,
            );
            let mut pending = std::collections::HashSet::new();
            for (i, a) in addrs.iter().enumerate() {
                let kind = match i % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Atomic,
                };
                let id = h.request(
                    MemReq {
                        tile: i % tiles,
                        addr: *a,
                        size: 4,
                        kind,
                    },
                    i as u64,
                )
                .expect("tile in range");
                assert!(pending.insert(id));
            }
            let mut t = addrs.len() as u64;
            let mut done = Vec::new();
            while !pending.is_empty() {
                h.step(t);
                h.drain_completions_into(&mut done);
                for c in &done {
                    assert!(pending.remove(&c.id), "double completion of {:?}", c.id);
                }
                t += 1;
                assert!(t < 1_000_000, "requests stuck");
            }
        }
    }
}

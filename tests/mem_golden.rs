//! Golden rows at the memory hierarchy's own API.
//!
//! The system-level differential suites see `MemoryHierarchy` through five
//! kernels. This test drives it directly with seeded request mixes over a
//! grid of configurations and compares, row by row, against a table
//! recorded before the hierarchy's containers were rewritten
//! (`tests/mem_golden.txt`): a one-cycle drift in any completion shows up
//! in the row — mix, tiles, DRAM model, topology, MSHR size, stepping —
//! that caused it.
//!
//! A row holds an FNV-1a hash of the completion stream `(id, tile,
//! at_cycle)` in delivery order, the cycle the hierarchy went idle,
//! `MemStats`, `dram_throttled_cycles`, the MSHR and DRAM counters of the
//! registry dump, the length and hash of the `save_state` bytes taken
//! mid-run, and a hash of the whole registry dump — every `mem.*` path
//! `register_into` writes and its value, the occupancy histograms (sampled
//! from the snapshot on) included. Every configuration runs twice: stepped on every cycle, and
//! stepped only at request cycles and the cycles `next_event_cycle`
//! names, as the fast-forwarding Interleaver does; the two must agree on
//! everything but the snapshot (which records the last stepped cycle).
//!
//! `MEM_GOLDEN_WRITE=1 cargo test --test mem_golden` rewrites the table —
//! only ever from a commit whose hierarchy is the reference.

use std::fmt::Write as _;

use mosaicsim::ckpt::Enc;
use mosaicsim::mem::{
    AccessKind, BankedDramConfig, CacheConfig, Completion, DramKind, HierarchyConfig, MemReq,
    MemoryHierarchy, NocConfig, PrefetchConfig, SimpleDramConfig,
};
use mosaicsim::obs::{ObsLevel, StatsRegistry};

const TABLE: &str = include_str!("mem_golden.txt");

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const MIXES: [&str; 4] = ["mixed", "stream", "hot", "evict"];
const TOPOLOGIES: [&str; 4] = ["l2", "noc", "l2noc", "l1zero"];
const REQUESTS: usize = 240;
/// With one MSHR entry every other miss retries each cycle; a shorter
/// schedule keeps those rows from dominating the suite's time.
const REQUESTS_ONE_MSHR: usize = 60;

struct TimedReq {
    cycle: u64,
    req: MemReq,
}

/// The request schedule of `mix` over `tiles` tiles: what is asked and
/// when, fixed by the seed alone — never by what the hierarchy does.
fn schedule(mix: &str, tiles: usize, seed: u64) -> Vec<TimedReq> {
    let mut r = SplitMix64(seed);
    let mut cycle = 0u64;
    let mut stream_at = vec![0u64; tiles];
    let strides: Vec<i64> = (0..tiles).map(|t| [8, 64, -64, 24][t % 4]).collect();
    let hot: Vec<u64> = (0..4).map(|k| 0x40_0000 + k * 0x1040).collect();
    (0..REQUESTS)
        .map(|_| {
            let tile = r.below(tiles as u64) as usize;
            let roll = r.below(100);
            let (addr, kind, gap) = match mix {
                // Reads, writes and atomics over a 64 KiB footprint.
                "mixed" => {
                    let kind = match roll {
                        0..=59 => AccessKind::Read,
                        60..=89 => AccessKind::Write,
                        _ => AccessKind::Atomic,
                    };
                    (0x10_0000 + (r.below(64 << 10) & !3), kind, r.below(4))
                }
                // One strided stream per tile: the prefetcher confirms
                // and runs ahead of it.
                "stream" => {
                    let k = stream_at[tile];
                    stream_at[tile] += 1;
                    let base = 0x80_0000 + tile as u64 * 0x10_0000;
                    let addr = (base as i64 + k as i64 * strides[tile]) as u64;
                    let kind = if roll < 85 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    (addr, kind, r.below(3))
                }
                // Bursts on four lines from every tile: coalescing at
                // every level, atomics queueing behind one another.
                "hot" => {
                    let kind = match roll {
                        0..=49 => AccessKind::Read,
                        50..=74 => AccessKind::Write,
                        _ => AccessKind::Atomic,
                    };
                    let gap = if r.below(8) == 0 {
                        40 + r.below(200)
                    } else {
                        r.below(2)
                    };
                    (hot[r.below(4) as usize] + (r.below(64) & !3), kind, gap)
                }
                // Mostly writes over 256 KiB: every level evicts dirty
                // lines, the LLC writes back and back-invalidates.
                _ => {
                    let kind = if roll < 60 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (0x20_0000 + (r.below(256 << 10) & !7), kind, r.below(3))
                }
            };
            cycle += gap;
            TimedReq {
                cycle,
                req: MemReq {
                    tile,
                    addr,
                    size: 4,
                    kind,
                },
            }
        })
        .collect()
}

fn config(topology: &str, banked: bool, mshr_entries: usize) -> HierarchyConfig {
    let l1 = CacheConfig::new("L1", 1024).with_ways(2);
    let l2 = Some(
        CacheConfig::new("L2", 4 * 1024)
            .with_ways(4)
            .with_latency(4),
    );
    // 64 sets; 80 sets (not a power of two).
    let llc_pow2 = CacheConfig::new("LLC", 16 * 1024)
        .with_ways(4)
        .with_latency(10);
    let llc_odd = CacheConfig::new("LLC", 20 * 1024)
        .with_ways(4)
        .with_latency(10);
    let noc = Some(NocConfig {
        mesh_width: 3,
        hop_latency: 2,
    });
    let (l1, l2, llc, noc) = match topology {
        "l2" => (l1.with_latency(1), l2, llc_pow2, None),
        "noc" => (l1.with_latency(1), None, llc_odd, noc),
        "l2noc" => (l1.with_latency(2), l2, llc_odd, noc),
        _ => (l1.with_latency(0), None, llc_pow2, None),
    };
    let dram = if banked {
        DramKind::Banked(BankedDramConfig {
            channels: 2,
            banks_per_channel: 4,
            queue_depth: 3,
            ..BankedDramConfig::default()
        })
    } else {
        DramKind::Simple(SimpleDramConfig {
            min_latency: 40,
            epoch_cycles: 32,
            max_per_epoch: 6,
        })
    };
    HierarchyConfig {
        l1,
        l2,
        llc,
        mshr_entries,
        prefetch: PrefetchConfig::default(),
        dram,
        atomic_penalty: 15,
        noc,
    }
}

/// Everything a row records about one run.
#[derive(PartialEq, Eq)]
struct Outcome {
    completions: u64,
    delivered: u64,
    idle_at: u64,
    stats: String,
    throttled: u64,
    counters: String,
    snapshot: String,
    registry: u64,
}

fn run(config: HierarchyConfig, tiles: usize, reqs: &[TimedReq], dense: bool) -> Outcome {
    let mut h = MemoryHierarchy::new(config, tiles);
    let mut stream = Fnv::new();
    let mut delivered = 0u64;
    let mut snapshot = String::new();
    let mut buf: Vec<Completion> = Vec::new();
    let (mut now, mut next) = (0u64, 0usize);
    loop {
        h.step(now);
        h.drain_completions_into(&mut buf);
        for c in &buf {
            stream.u64(c.id.0);
            stream.u64(c.tile as u64);
            stream.u64(c.at_cycle);
            delivered += 1;
        }
        while next < reqs.len() && reqs[next].cycle == now {
            h.request(reqs[next].req, now).expect("tile in range");
            next += 1;
            if next == reqs.len() / 2 {
                let mut e = Enc::new();
                h.save_state(&mut e);
                let bytes = e.into_bytes();
                let mut f = Fnv::new();
                f.bytes(&bytes);
                snapshot = format!("{}:{:016x}", bytes.len(), f.0);
                // Observed from here on, so the snapshot column is what it
                // was at `Off` and the dump still holds the histograms.
                h.set_observe(ObsLevel::Stats);
            }
        }
        if next == reqs.len() && h.is_idle() {
            break;
        }
        let due = reqs.get(next).map(|r| r.cycle);
        now = if dense {
            now + 1
        } else {
            let event = h.next_event_cycle(now + 1);
            event
                .into_iter()
                .chain(due)
                .min()
                .expect("requests outstanding but nothing scheduled")
        };
        assert!(now < 10_000_000, "hierarchy never drained");
    }
    let s = h.stats();
    let mut reg = StatsRegistry::new();
    h.register_into(&mut reg);
    let mut counters = String::new();
    for path in [
        "mem.l1.mshr.coalesced",
        "mem.l1.mshr.full_stalls",
        "mem.l2.mshr.coalesced",
        "mem.l2.mshr.full_stalls",
        "mem.llc.mshr.coalesced",
        "mem.llc.mshr.full_stalls",
        "mem.llc.accesses",
        "mem.dram.requests",
        "mem.dram.row_hits",
        "mem.dram.row_misses",
        "mem.dram.row_conflicts",
    ] {
        write!(counters, "{},", reg.counter(path)).expect("write to a String");
    }
    let mut registry = Fnv::new();
    registry.bytes(reg.to_json().as_bytes());
    Outcome {
        completions: stream.0,
        delivered,
        idle_at: now,
        stats: format!(
            "{},{},{},{},{},{},{},{},{},{}",
            s.l1_hits,
            s.l1_misses,
            s.l2_hits,
            s.l2_misses,
            s.llc_hits,
            s.llc_misses,
            s.dram_reads,
            s.dram_writebacks,
            s.atomics,
            s.prefetches
        ),
        throttled: h.dram_throttled_cycles(),
        counters,
        snapshot,
        registry: registry.0,
    }
}

fn row(key: &str, o: &Outcome) -> String {
    format!(
        "{key} completions={:016x}/{} idle_at={} stats={} throttled={} counters={} snapshot={} registry={:016x}",
        o.completions,
        o.delivered,
        o.idle_at,
        o.stats,
        o.throttled,
        o.counters,
        o.snapshot,
        o.registry
    )
}

/// Every row of the grid, in table order.
fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (m, mix) in MIXES.iter().enumerate() {
        for tiles in [1usize, 4, 8] {
            let reqs = schedule(mix, tiles, 0x5eed_0000 + (m * 16 + tiles) as u64);
            for banked in [false, true] {
                for topology in TOPOLOGIES {
                    for mshr in [1usize, 16] {
                        let cfg = || config(topology, banked, mshr);
                        let dram = if banked { "banked" } else { "simple" };
                        let key = format!("{mix}/t{tiles}/{dram}/{topology}/mshr{mshr}");
                        let reqs = if mshr == 1 {
                            &reqs[..REQUESTS_ONE_MSHR]
                        } else {
                            &reqs[..]
                        };
                        let dense = run(cfg(), tiles, reqs, true);
                        let event = run(cfg(), tiles, reqs, false);
                        // What fast-forward relies on: stepping only where
                        // the hierarchy says it has work changes nothing
                        // a run reports.
                        let reported = |o: &Outcome| Outcome {
                            snapshot: String::new(),
                            stats: o.stats.clone(),
                            counters: o.counters.clone(),
                            ..*o
                        };
                        assert!(
                            reported(&dense) == reported(&event),
                            "{key}: dense and event-stepped runs differ:\n{}\n{}",
                            row("dense", &dense),
                            row("event", &event)
                        );
                        rows.push(row(&format!("{key}/dense"), &dense));
                        rows.push(row(&format!("{key}/event"), &event));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn hierarchy_reproduces_every_recorded_row() {
    let rows = rows();
    if std::env::var_os("MEM_GOLDEN_WRITE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/mem_golden.txt");
        std::fs::write(path, rows.join("\n") + "\n").expect("write the table");
        return;
    }
    let recorded: Vec<&str> = TABLE.lines().collect();
    assert_eq!(
        recorded.len(),
        rows.len(),
        "the grid and the table differ in size"
    );
    let drifted: Vec<String> = recorded
        .iter()
        .zip(&rows)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("recorded {want}\n     got {got}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} rows drifted:\n{}",
        drifted.len(),
        rows.len(),
        drifted.join("\n")
    );
}

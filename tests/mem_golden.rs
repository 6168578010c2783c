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

mod support;

use mosaicsim::ckpt::Enc;
use mosaicsim::kernels::data::Rng;
use mosaicsim::mem::{
    AccessKind, BankedDramConfig, CacheConfig, Completion, DramKind, HierarchyConfig, MemReq,
    MemoryHierarchy, NocConfig, PrefetchConfig, SimpleDramConfig,
};
use mosaicsim::obs::{ObsLevel, StatsRegistry};
use support::{fnv, Golden, Hashed};

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
    let mut r = Rng::seed_from_u64(seed);
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

/// The columns of one run's row.
fn run(config: HierarchyConfig, tiles: usize, reqs: &[TimedReq], dense: bool) -> String {
    let mut h = MemoryHierarchy::new(config, tiles);
    let mut stream = Hashed::EMPTY;
    let mut delivered = 0u64;
    let mut snapshot = String::new();
    let mut buf: Vec<Completion> = Vec::new();
    let (mut now, mut next) = (0u64, 0usize);
    loop {
        h.step(now);
        h.drain_completions_into(&mut buf);
        for c in &buf {
            for v in [c.id.0, c.tile as u64, c.at_cycle] {
                stream.put(&v.to_le_bytes());
            }
            delivered += 1;
        }
        while next < reqs.len() && reqs[next].cycle == now {
            h.request(reqs[next].req, now).expect("tile in range");
            next += 1;
            if next == reqs.len() / 2 {
                let mut e = Enc::new();
                h.save_state(&mut e);
                snapshot = Hashed::of(&e.into_bytes()).to_string();
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
    let counters: String = [
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
    ]
    .map(|path| format!("{},", reg.counter(path)))
    .concat();
    let stats = [
        s.l1_hits,
        s.l1_misses,
        s.l2_hits,
        s.l2_misses,
        s.llc_hits,
        s.llc_misses,
        s.dram_reads,
        s.dram_writebacks,
        s.atomics,
        s.prefetches,
    ]
    .map(|v| v.to_string())
    .join(",");
    format!(
        "completions={:016x}/{delivered} idle_at={now} stats={stats} throttled={} \
         counters={counters} snapshot={snapshot} registry={:016x}",
        stream.hash,
        h.dram_throttled_cycles(),
        fnv(reg.to_json().as_bytes())
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
                        let reported = |row: &str| -> Vec<String> {
                            let cols = row.split(' ').filter(|c| !c.starts_with("snapshot="));
                            cols.map(str::to_owned).collect()
                        };
                        assert!(
                            reported(&dense) == reported(&event),
                            "{key}: dense and event-stepped runs differ:\n{dense}\n{event}"
                        );
                        rows.push(format!("{key}/dense {dense}"));
                        rows.push(format!("{key}/event {event}"));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn hierarchy_reproduces_every_recorded_row() {
    Golden::new("mem").assert(&rows());
}

//! Golden rows at the checkpoint's own bytes.
//!
//! `mem_golden` and `tile_golden` pin what the hierarchy and the tile
//! count; the differential suites check that a resumed run ends where a
//! straight one does. Neither sees the `MCKP` bytes themselves, and a
//! codec whose two directions agree with each other round-trips whatever
//! it writes. This test pins the bytes: per row, the name, length and
//! FNV-1a hash of every section of `Interleaver::save_checkpoint()`,
//! against a table recorded before the per-component encode/decode pairs
//! were rewritten onto one declaration each (`tests/ckpt_golden.txt`). A
//! field written in another order, width or place moves the hash of the
//! one section that holds it, in the rows whose systems use it.
//!
//! Every system pauses at two cycles drawn from a seeded SplitMix64 —
//! mid-flight in the pipeline, the MAO, the MSHRs and the DRAM queues —
//! once fast-forwarded and once stepped cycle by cycle to the cycle the
//! fast-forwarded run paused at. The two hold the same machine but not
//! the same bytes — `interleaver` has the scheduler's own step and skip
//! counters, `mem` and a tile's `stats.cycles` the last cycle each was
//! stepped at — so a section the two wrote differently is in the row
//! twice, `ff|naive`, and which sections those are is pinned with it.
//!
//! The grid: bfs, sgemm, lbm and spmv x in-order/out-of-order x 1 and 4
//! tiles x `Off`/`Trace` x SimpleDram/banked DRAM, then four systems for
//! what the grid does not reach. Which rows hold which enum tag or
//! optional field (found by logging what a recording run wrote):
//!
//! * `AccessKind::Read` in an in-flight instruction: every row; `Write`:
//!   the lbm rows; `Atomic`: the bfs rows. In a request state, `Read`: 41
//!   grid rows; `Write`: 8 (lbm at `Trace` among them); `Atomic`: the bfs
//!   rows; `Prefetch`: 28; a writeback (`Write`, `writeback = true`):
//!   `lbm/cramped`.
//! * `DynState::Waiting`/`Ready`/`Issued`: every grid row; `Done` (a dead
//!   slot inside the ring): every out-of-order row.
//! * `Event::Lookup` at `Level::L1`: 25 grid rows, `L2`: 10 (four-tile
//!   ones), `Llc`: 30; `Event::DramEnqueue` (a bank refused the enqueue):
//!   `lbm/cramped`. The DRAM model tag: the `simple`/`banked` halves; a
//!   bank's open row `None`: four `banked` rows, `Some`: all of them;
//!   transfers in flight: nine.
//! * `LaunchGate::WaitTerminator`: 48 grid rows (the presets predict
//!   statically, and mispredict); `Free`: 24; `WaitUntil` (inside a
//!   mispredict's penalty): 16 and `bfs/bimodal`, which also holds
//!   trained — non-default — `bimodal` counters.
//! * `ReqDone::Retire`: 53 grid rows; `Detached(Some)` (a terminal load),
//!   `Detached(None)` (a detached store), pending hardware pushes and
//!   messages in flight in `channels`: `projection/desc` only.
//! * `accel_busy_until = Some`: `graphsage/accel`, both pauses inside an
//!   invocation; `done_at = Some` (a finished tile beside running ones):
//!   eight four-tile rows.
//! * The tile's obs payload with an open stall interval: the `trace`
//!   rows; with a compute interval: `projection/desc` (at `Stats`);
//!   absent: the `off` rows.
//!
//! `CKPT_GOLDEN_WRITE=1 cargo test --test ckpt_golden` rewrites the table
//! — only ever from a commit whose codec is the reference.

use std::fmt::Write as _;
use std::sync::Arc;

use mosaicsim::ckpt::Checkpoint;
use mosaicsim::kernels::{keras, parboil, projection, Prepared};
use mosaicsim::mem::BankedDramConfig;
use mosaicsim::prelude::*;

const TABLE: &str = include_str!("ckpt_golden.txt");

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

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name=length:hash` of every section of the fast-forwarded pause `ff`,
/// in file order; where the naive pause `stepped` wrote other bytes, its
/// `|length:hash` follows.
fn sections(ff: &Checkpoint, stepped: &Checkpoint) -> String {
    let mut out = String::new();
    for (name, _) in ff.section_table() {
        let bytes = ff.section(name).expect("listed");
        let _ = write!(out, " {name}={}:{:016x}", bytes.len(), fnv(bytes));
        let other = stepped.require_section(name).expect("same sections");
        if other != bytes {
            let _ = write!(out, "|{}:{:016x}", other.len(), fnv(other));
        }
    }
    out
}

/// Pauses the system `make` builds at two seeded cycles under both
/// schedulers and appends one row per pause.
fn pauses(
    rows: &mut Vec<String>,
    rng: &mut SplitMix64,
    label: &str,
    make: impl Fn() -> SystemBuilder,
) {
    let build = |fast_forward: bool| {
        make()
            .fast_forward(fast_forward)
            .build()
            .unwrap_or_else(|e| panic!("{label}: build: {e}"))
    };
    let total = build(true)
        .run()
        .unwrap_or_else(|e| panic!("{label}: run: {e}"));
    // One pause in each half of the run, away from the cycle-0 edge.
    let half = total / 2;
    let targets = [1 + rng.below(half - 1), half + rng.below(total - half)];
    let (mut fast, mut naive) = (build(true), build(false));
    for target in targets {
        let paused = fast.run_until(target).expect("fast-forwarded prefix");
        assert_eq!(paused, None, "{label}: finished before cycle {target}");
        let ff = fast.save_checkpoint();
        // Fast-forwarding pauses at the first stepped cycle at or past
        // the target; the naive run pauses there exactly.
        assert_eq!(naive.run_until(ff.cycle()).expect("naive prefix"), None);
        let stepped = naive.save_checkpoint();
        assert_eq!(stepped.cycle(), ff.cycle(), "{label}: pause cycles differ");
        let row = sections(&ff, &stepped);
        rows.push(format!("{label}@{}{row}", ff.cycle()));
    }
}

/// `tiles` cores of `config` on `p`, traced once for every system built.
fn spmd(
    p: &Prepared,
    config: &CoreConfig,
    tiles: usize,
    memory: HierarchyConfig,
) -> impl Fn() -> SystemBuilder {
    let (module, func, config) = (Arc::new(p.module.clone()), p.func, config.clone());
    let trace = Arc::new(p.trace(tiles).expect("trace").0);
    move || {
        let mut b = SystemBuilder::new(module.clone(), trace.clone()).memory(memory.clone());
        for t in 0..tiles {
            b = b.core(config.clone().with_name(&format!("c{t}")), func, t);
        }
        b
    }
}

fn banked(mut memory: HierarchyConfig) -> HierarchyConfig {
    memory.dram = DramKind::Banked(Default::default());
    memory
}

/// One DAE pair of the projection kernel on DeSC cores, the execute side
/// at a third of the clock behind a one-message channel: terminal loads
/// and detached stores outstanding, messages in flight, and returned loads
/// whose hardware push waits for space.
fn desc_pair() -> impl Fn() -> SystemBuilder {
    let mut p = projection::build_with(40, 64);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let programs: Vec<TileProgram> = [slices.access, slices.execute]
        .into_iter()
        .map(|func| TileProgram::single(func, p.args.clone()))
        .collect();
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let (module, trace) = (Arc::new(p.module), Arc::new(trace));
    move || {
        let mut execute = CoreConfig::in_order().with_name("execute");
        execute.clock_divisor = 3;
        let channel = ChannelConfig {
            capacity: 1,
            latency: 2,
        };
        SystemBuilder::new(module.clone(), trace.clone())
            .memory(dae_memory())
            .channels(channel)
            .observe(ObsLevel::Stats)
            .core(
                CoreConfig::dae_access().with_name("access"),
                slices.access,
                0,
            )
            .core(execute, slices.execute, 1)
    }
}

/// Caches that evict and write back from the first few hundred accesses,
/// in front of two shallow DRAM banks that refuse most enqueues.
fn cramped_memory() -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig::new("L1-D", 512).with_ways(2).with_latency(1),
        l2: Some(CacheConfig::new("L2", 1024).with_ways(2).with_latency(6)),
        llc: CacheConfig::new("LLC", 2048).with_ways(4).with_latency(26),
        dram: DramKind::Banked(BankedDramConfig {
            channels: 1,
            banks_per_channel: 2,
            queue_depth: 2,
            ..Default::default()
        }),
        ..xeon_memory()
    }
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    let mut rng = SplitMix64(0x6d63_6b70_2076_3300); // "mckp v3"
    let kernels = [
        ("bfs", parboil::bfs::build_with_nodes(128)),
        ("sgemm", parboil::sgemm::build_with_dims(10, 10, 10)),
        ("lbm", parboil::lbm::build_with_cells(112)),
        ("spmv", parboil::spmv::build_with_rows(112)),
    ];
    let cores = [
        ("ino", CoreConfig::in_order()),
        ("ooo", CoreConfig::out_of_order()),
    ];
    for (kernel, p) in &kernels {
        for (core, config) in &cores {
            for tiles in [1usize, 4] {
                for (obs, level) in [("off", ObsLevel::Off), ("trace", ObsLevel::Trace)] {
                    for dram in ["simple", "banked"] {
                        let label = format!("{kernel}/{core}/{tiles}t/{obs}/{dram}");
                        let memory = match dram {
                            "simple" => xeon_memory(),
                            _ => banked(xeon_memory()),
                        };
                        let make = spmd(p, config, tiles, memory);
                        pauses(&mut rows, &mut rng, &label, || make().observe(level));
                    }
                }
            }
        }
    }
    pauses(&mut rows, &mut rng, "projection/desc", desc_pair());
    let accel = keras::graphsage().lower_accelerated();
    let make = spmd(&accel, &CoreConfig::out_of_order(), 1, dae_memory());
    pauses(&mut rows, &mut rng, "graphsage/accel", || {
        make().accelerators(Box::new(AccelBank::with_defaults()))
    });
    let mut bimodal = CoreConfig::in_order();
    bimodal.branch = BranchMode::Bimodal;
    let make = spmd(&kernels[0].1, &bimodal, 1, xeon_memory());
    pauses(&mut rows, &mut rng, "bfs/bimodal", make);
    let make = spmd(&kernels[2].1, &cores[1].1, 1, cramped_memory());
    pauses(&mut rows, &mut rng, "lbm/cramped", make);
    rows
}

#[test]
fn checkpoint_reproduces_every_recorded_row() {
    let rows = rows();
    if std::env::var_os("CKPT_GOLDEN_WRITE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/ckpt_golden.txt");
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

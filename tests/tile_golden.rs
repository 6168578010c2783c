//! Golden rows at the core tile's own counters.
//!
//! The system-level differential suites see `CoreTile` through five
//! kernels at the two default configurations, and compare a run with
//! itself (fast-forward against naive, observed against not). This test
//! pins what the tile counts, per tile, against a table recorded before
//! its ready list became a windowed set (`tests/tile_golden.txt`):
//! kernels whose ready backlog is large, over a grid of window sizes and
//! issue widths, one functional-unit-limited core, one and four tiles,
//! and two DAE systems whose DeSC ops are exempt from the window. A
//! miscounted backlog shows up in the row — kernel, core, window, width,
//! tiles — that caused it, and in the column it moved.
//!
//! A row holds, for one tile, `cycles`, `issued`, `retired`, the five
//! `stall.*` counters, the MAO's three stall kinds (read back from the
//! tile's final `save_state`, the only place they surface) and an FNV-1a
//! hash of its `Stats` profile. Every system runs twice, fast-forwarded
//! and stepped cycle by cycle; the two must agree on every row. Systems of
//! more than one tile — where a tile sits blocked while others work — run
//! both ways again at `ObsLevel::Off` and must count what `Stats` counted.
//!
//! `TILE_GOLDEN_WRITE=1 cargo test --test tile_golden` rewrites the table —
//! only ever from a commit whose tile is the reference.

use std::sync::Arc;

use mosaicsim::ckpt::{Dec, Enc};
use mosaicsim::ddg::InstClass;
use mosaicsim::kernels::{parboil, projection, Prepared};
use mosaicsim::prelude::*;
use mosaicsim::tile::{FuLimits, Tile};
use mosaicsim::trace::KernelTrace;

const TABLE: &str = include_str!("tile_golden.txt");

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The MAO's `(capacity, load, store)` stall counters of a finished tile,
/// read from its `save_state` bytes: a drained tile's rings and queues
/// are empty, so the sections before the MAO's are a few lengths.
fn mao_stalls(tile: &dyn Tile) -> [u64; 3] {
    let mut enc = Enc::new();
    tile.save_state(&mut enc);
    let bytes = enc.into_bytes();
    let mut d = Dec::new(&bytes);
    let mut walk = || -> Result<[u64; 3], mosaicsim::ckpt::CkptError> {
        d.usize("path position")?;
        for _ in 0..d.usize("streams")? {
            d.u32("stream position")?;
        }
        d.u64("base_seq")?;
        assert_eq!(d.usize("in-flight span")?, 0, "a finished tile is drained");
        for _ in 0..d.usize("latest-def table")? {
            d.opt_u64("latest slot")?;
        }
        assert_eq!(d.usize("completions")?, 0, "a finished tile is drained");
        assert_eq!(d.usize("requests")?, 0, "a finished tile is drained");
        assert_eq!(d.u64("mao entries")?, 0, "a finished tile is drained");
        d.u32("mao occupancy")?;
        let load = d.u64("mao load stalls")?;
        let store = d.u64("mao store stalls")?;
        Ok([d.u64("mao capacity stalls")?, load, store])
    };
    walk().expect("the tile state up to the MAO's counters")
}

/// Runs `builder` to completion at `level` and returns one row per tile.
fn run_rows(
    label: &str,
    builder: SystemBuilder,
    fast_forward: bool,
    level: ObsLevel,
) -> Vec<String> {
    let mut sim = builder
        .observe(level)
        .fast_forward(fast_forward)
        .build()
        .unwrap_or_else(|e| panic!("{label}: build: {e}"));
    sim.run().unwrap_or_else(|e| panic!("{label}: run: {e}"));
    let mao: Vec<[u64; 3]> = sim.tiles().iter().map(|t| mao_stalls(t.as_ref())).collect();
    let (mut tiles, _, _) = sim.into_parts();
    tiles
        .iter_mut()
        .zip(mao)
        .enumerate()
        .map(|(slot, (tile, [cap, load, store]))| {
            let mut enc = Enc::new();
            tile.take_profile().encode_into(&mut enc);
            let profile = fnv(&enc.into_bytes());
            let s = tile.stats();
            format!(
                "{label} tile{slot} cycles={} issued={} retired={} window={} fu={} mem={} \
                 send={} recv={} mao={cap}/{load}/{store} profile={profile:016x}",
                s.cycles,
                s.issued,
                s.retired,
                s.window_stalls,
                s.fu_stalls,
                s.mem_stalls,
                s.send_stalls,
                s.recv_stalls,
            )
        })
        .collect()
}

/// Runs the system `make` builds under both schedulers, asserts they
/// agree — and, for more than one tile, that `Off` counts the same — and
/// appends its rows.
fn both(rows: &mut Vec<String>, label: &str, make: impl Fn() -> SystemBuilder) {
    let fast = run_rows(label, make(), true, ObsLevel::Stats);
    let naive = run_rows(label, make(), false, ObsLevel::Stats);
    assert_eq!(fast, naive, "{label}: fast-forward against naive");
    if fast.len() > 1 {
        // Everything but the profile, which `Off` does not record.
        let counters = |rows: &[String]| -> Vec<String> {
            let cut = |r: &String| r.split(" profile=").next().expect("a row").to_string();
            rows.iter().map(cut).collect()
        };
        for fast_forward in [true, false] {
            let off = run_rows(label, make(), fast_forward, ObsLevel::Off);
            assert_eq!(
                counters(&off),
                counters(&fast),
                "{label}: Off against Stats (fast-forward {fast_forward})"
            );
        }
    }
    rows.extend(fast);
}

fn core(base: &str, window: u64, width: u32) -> CoreConfig {
    let mut c = match base {
        "ino" => CoreConfig::in_order(),
        _ => CoreConfig::out_of_order(),
    };
    c.window_size = window;
    c.issue_width = width;
    c
}

/// An out-of-order core with one unit of every arithmetic class and two
/// load ports: functional-unit stalls on most cycles, and on memory ops.
fn fu_limited() -> CoreConfig {
    let mut c = CoreConfig::out_of_order();
    c.fu = FuLimits::unlimited();
    for class in [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::FpAdd,
        InstClass::FpMul,
        InstClass::Store,
        InstClass::Branch,
    ] {
        c.fu.set(class, 1);
    }
    c.fu.set(InstClass::Load, 2);
    c
}

fn spmd(
    module: &Arc<mosaicsim::ir::Module>,
    trace: &Arc<KernelTrace>,
    func: mosaicsim::ir::FuncId,
    config: &CoreConfig,
    tiles: usize,
) -> SystemBuilder {
    let mut b = SystemBuilder::new(module.clone(), trace.clone()).memory(xeon_memory());
    for t in 0..tiles {
        b = b.core(config.clone().with_name(&format!("c{t}")), func, t);
    }
    b
}

/// `pairs` DAE pairs of the projection kernel `p`: `access` replays the
/// access slice, `execute` the execute slice, each pair on its own queues.
fn dae_pairs(
    rows: &mut Vec<String>,
    label: &str,
    mut p: Prepared,
    pairs: usize,
    access: CoreConfig,
    execute: CoreConfig,
) {
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let mut programs = Vec::new();
    for pair in 0..pairs {
        for func in [slices.access, slices.execute] {
            let mut prog =
                TileProgram::single(func, p.args.clone()).with_queue_offset(1000 * pair as u32);
            prog.tile_id = pair as i64;
            prog.num_tiles = pairs as i64;
            programs.push(prog);
        }
    }
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let (module, trace) = (Arc::new(p.module), Arc::new(trace));
    both(rows, label, || {
        let mut b = SystemBuilder::new(module.clone(), trace.clone())
            .memory(dae_memory())
            .channels(dae_channel());
        for pair in 0..pairs {
            let offset = 1000 * pair as u32;
            let named = |c: &CoreConfig, role: &str| {
                c.clone()
                    .with_name(&format!("{role}#{pair}"))
                    .with_queue_offset(offset)
            };
            b = b
                .core(named(&access, "access"), slices.access, 2 * pair)
                .core(named(&execute, "execute"), slices.execute, 2 * pair + 1);
        }
        b
    });
}

/// Kernels whose ready backlog runs into the hundreds, at a fraction of
/// their scale-1 size (about 14 k instructions each): the table is a few
/// hundred runs, half of them stepped cycle by cycle.
fn kernels() -> [(&'static str, Prepared); 5] {
    [
        ("lbm", parboil::lbm::build_with_cells(112)),
        ("cutcp", parboil::cutcp::build_with(48, 10)),
        ("bfs", parboil::bfs::build_with_nodes(128)),
        (
            "mri-gridding",
            parboil::mri_gridding::build_with_samples(112),
        ),
        ("spmv", parboil::spmv::build_with_rows(112)),
    ]
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (kernel, p) in kernels() {
        let module = Arc::new(p.module.clone());
        for tiles in [1usize, 4] {
            let (trace, _) = p.trace(tiles).expect("trace");
            let trace = Arc::new(trace);
            for base in ["ino", "ooo"] {
                for window in [1u64, 2, 8, 128] {
                    for width in [1u32, 2, 8] {
                        // Four tiles: the grid's corners and one interior
                        // point (the full grid runs on one tile).
                        let corner = matches!(window, 1 | 128) && matches!(width, 1 | 8);
                        if tiles == 4 && !(corner || (window, width) == (8, 2)) {
                            continue;
                        }
                        let label = format!("{kernel}/{base}/w{window}/i{width}/{tiles}t");
                        let config = core(base, window, width);
                        both(&mut rows, &label, || {
                            spmd(&module, &trace, p.func, &config, tiles)
                        });
                    }
                }
            }
            let label = format!("{kernel}/fu-limited/{tiles}t");
            both(&mut rows, &label, || {
                spmd(&module, &trace, p.func, &fu_limited(), tiles)
            });
        }
    }
    // DeSC: terminal loads, store-value recvs and detached stores are
    // exempt from the window, so they issue from beyond it. The paper's
    // pair (window 1 on both sides), and a pair of wider DeSC cores whose
    // narrow windows leave exempt ops on both sides of the limit.
    let small = || projection::build_with(40, 64);
    let (access, execute) = (CoreConfig::dae_access(), CoreConfig::in_order());
    dae_pairs(
        &mut rows,
        "projection/dae/ino",
        small(),
        2,
        access.clone(),
        execute.clone(),
    );
    let mut wide = core("ooo", 8, 2).with_desc_extensions(true);
    wide.desc_buffer = 2;
    dae_pairs(
        &mut rows,
        "projection/dae/ooo-w8-i2",
        small(),
        2,
        wide.clone(),
        wide,
    );
    // The shapes of the ledger's `manytile_chan` workload at scale 1: eight
    // tiles, most of them blocked on a channel or on DRAM at any cycle.
    dae_pairs(
        &mut rows,
        "projection/dae/ino/x8",
        projection::build(1),
        4,
        access,
        execute,
    );
    let p = parboil::spmv::build(1);
    let (module, trace) = (
        Arc::new(p.module.clone()),
        Arc::new(p.trace(8).expect("trace").0),
    );
    both(&mut rows, "spmv/ooo/8t", || {
        spmd(&module, &trace, p.func, &CoreConfig::out_of_order(), 8)
    });
    rows
}

#[test]
fn tile_reproduces_every_recorded_row() {
    let rows = rows();
    if std::env::var_os("TILE_GOLDEN_WRITE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tile_golden.txt");
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

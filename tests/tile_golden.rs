//! Golden rows at the core tile's own counters.
//!
//! The mode relations (`tests/support/relations.rs`) see `CoreTile` through five
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
//! `stall.*` counters and an FNV-1a hash of its `Stats` profile. Every system runs twice, fast-forwarded
//! and stepped cycle by cycle; the two must agree on every row. Systems of
//! more than one tile — where a tile sits blocked while others work — run
//! both ways again at `ObsLevel::Off` and must count what `Stats` counted.
//! The systems are `support::zoo()`'s `TILE` entries, the ledger's two
//! eight-tile `manytile_chan` shapes among them.

use mosaicsim::ckpt::{Enc, Snap};
use mosaicsim::prelude::*;
use support::{fnv, Golden, TILE};

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
    let (mut tiles, _, _) = sim.into_parts();
    tiles
        .iter_mut()
        .enumerate()
        .map(|(slot, tile)| {
            let mut enc = Enc::new();
            tile.take_profile().put(&mut enc);
            let profile = fnv(&enc.into_bytes());
            let s = tile.stats();
            let [window, fu, mem, send, recv] = s.stalls;
            format!(
                "{label} tile{slot} cycles={} issued={} retired={} window={window} fu={fu} \
                 mem={mem} send={send} recv={recv} profile={profile:016x}",
                s.cycles, s.issued, s.retired,
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

#[test]
fn tile_reproduces_every_recorded_row() {
    let mut rows = Vec::new();
    for s in support::systems(TILE) {
        both(&mut rows, &s.name, || s.builder());
    }
    Golden::new("tile").assert(&rows);
}

//! Differential tests for the observability subsystem (DESIGN.md §4.5).
//!
//! Two contracts:
//!
//! 1. Every registry counter, histogram, and the per-instruction profile
//!    must be bit-identical between `.fast_forward(true)` and
//!    `.fast_forward(false)` — stall attribution multiplied over skipped
//!    cycles must reproduce naive per-cycle attribution exactly. The one
//!    exception is the `sim.ff.*` namespace, which *describes* the
//!    scheduler and is mode-dependent by design.
//!
//! 2. `ObsLevel::Off` must be free: an empty timeline, an empty profile,
//!    and cycle counts unchanged relative to a fully traced run.

mod support;

use mosaicsim::kernels::build_parboil;
use mosaicsim::obs::{StatValue, StatsRegistry};
use mosaicsim::prelude::*;

/// Simulates `name` on `tiles` copies of `config` at `level`.
fn simulate(
    name: &str,
    tiles: usize,
    config: &CoreConfig,
    fast_forward: bool,
    level: ObsLevel,
) -> SimReport {
    let builder = support::spmd(&build_parboil(name, 1), config, tiles, xeon_memory());
    let builder = builder.fast_forward(fast_forward).observe(level);
    builder.run().expect("simulate")
}

/// The registry minus the intentionally mode-dependent `sim.ff.*`
/// scheduler diagnostics (naive stepping executes every cycle; the
/// fast-forward scheduler skips provably-idle ones).
fn without_scheduler_diagnostics(reg: &StatsRegistry) -> StatsRegistry {
    let mut out = reg.clone();
    out.retain(|path| !path.starts_with("sim.ff."));
    out
}

/// ISSUE contract: every registry counter (and the whole IR profile)
/// bit-identical under fast-forward vs naive stepping, across 5 bundled
/// kernels × in-order/out-of-order, at the sampling level.
#[test]
fn registry_and_profile_identical_across_scheduler_modes() {
    let kernels = ["bfs", "sgemm", "spmv", "histo", "stencil"];
    let cores = [
        ("in_order", CoreConfig::in_order()),
        ("out_of_order", CoreConfig::out_of_order()),
    ];
    for name in kernels {
        for (core_label, config) in &cores {
            let label = format!("{name}/{core_label}");
            let naive = simulate(name, 2, config, false, ObsLevel::Stats);
            let fast = simulate(name, 2, config, true, ObsLevel::Stats);
            assert_eq!(
                without_scheduler_diagnostics(&naive.registry),
                without_scheduler_diagnostics(&fast.registry),
                "{label}: registry diverged between naive and fast-forward"
            );
            assert_eq!(
                naive.profile, fast.profile,
                "{label}: IR profile diverged between naive and fast-forward"
            );
            assert!(
                !fast.profile.is_empty(),
                "{label}: profile empty at ObsLevel::Stats"
            );
        }
    }
}

/// Stall attribution must sum back to the per-tile aggregate stall
/// counters — the profile is a *breakdown* of TileStats, not a separate
/// estimate.
#[test]
fn profile_stalls_sum_to_tile_totals() {
    let report = simulate("spmv", 2, &CoreConfig::out_of_order(), true, ObsLevel::Stats);
    let profile_retired: u64 = report.profile.iter().map(|(_, p)| p.retired).sum();
    let tile_retired: u64 = report.tiles.iter().map(|t| t.retired).sum();
    assert_eq!(profile_retired, tile_retired, "retired attribution leaks");
    let profile_stalls: u64 = report.profile.iter().map(|(_, p)| p.total_stalls()).sum();
    let tile_stalls: u64 = report
        .tiles
        .iter()
        .map(|t| t.window_stalls + t.fu_stalls + t.mem_stalls + t.send_stalls + t.recv_stalls)
        .sum();
    assert_eq!(profile_stalls, tile_stalls, "stall attribution leaks");
}

/// ISSUE contract: `ObsLevel::Off` yields an empty timeline and profile
/// with cycle counts (and all registry counters) unchanged relative to a
/// fully traced run.
#[test]
fn off_level_is_free_and_unchanged() {
    let config = CoreConfig::out_of_order();
    let off = simulate("sgemm", 2, &config, true, ObsLevel::Off);
    let traced = simulate("sgemm", 2, &config, true, ObsLevel::Trace);
    assert!(off.timeline.is_empty(), "Off must record no spans");
    assert!(off.profile.is_empty(), "Off must attribute nothing");
    assert!(!traced.timeline.is_empty(), "Trace must record spans");
    assert_eq!(off.cycles, traced.cycles, "observability changed timing");
    // Every *counter* must be level-independent (histograms are sampled,
    // so they only exist at Stats and above — that is the point of the
    // gate, not a divergence).
    for (path, v) in traced.registry.iter() {
        if let StatValue::Counter(c) = v {
            if !path.starts_with("sim.ff.") {
                assert_eq!(
                    off.registry.counter(path),
                    *c,
                    "counter {path} depends on the observability level"
                );
            }
        }
    }
    // The registry is populated even at Off — reading is free.
    assert_eq!(off.registry.counter("sim.cycles"), off.cycles);
    assert!(off.registry.counter("tile.0.retired") > 0);
}

/// Timeline spans survive the fast-forward scheduler: every tile track
/// ends with a complete "active" span covering the run, and memory
/// request spans close at their completion cycles.
#[test]
fn trace_level_emits_complete_spans_per_tile() {
    let report = simulate("bfs", 2, &CoreConfig::in_order(), true, ObsLevel::Trace);
    for tile in 0..2u32 {
        assert!(
            report
                .timeline
                .spans()
                .any(|s| s.pid == 0 && s.tid == tile),
            "tile {tile} has no span"
        );
    }
    let chrome = report.timeline.to_chrome_json();
    // The dump must parse with the crate's own strict parser.
    let v = mosaicsim::obs::json::parse(&chrome).expect("chrome trace json parses");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents");
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("dur").and_then(|d| d.as_u64()).unwrap_or(0) > 0
    }));
}

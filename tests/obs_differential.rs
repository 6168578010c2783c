//! The observability level changes what a run keeps, never what it
//! computes (DESIGN.md §4.5). Each test holds its lines of the mode
//! relations (`support::relations`) on the zoo's `MODES` systems.

use mosaicsim::obs::json::JsonValue;
use mosaicsim::prelude::SimReport;
use support::relations::{hold, FF, FF_STATS, FF_TRACE, NAIVE_STATS};
use support::{counters, everything, field, Fields};

/// sgemm on two OoO tiles, and bfs on two in-order ones.
fn traced(system: &str) -> bool {
    ["sgemm@1/ooo/2t", "bfs@1/ino/2t"].contains(&system)
}

/// The registry outside `sim.ff.*` and every profile row are the same
/// under fast-forwarding and naive stepping, on two tiles at `Stats`.
#[test]
fn registry_and_profile_identical_across_scheduler_modes() {
    let covers = |s: &str| s.ends_with("/2t");
    let pairs = vec![(FF_STATS, NAIVE_STATS)];
    hold(&[("fast-forward ≡ naive at Stats", covers, [everything; 2], pairs)]);
}

/// The profile's stalls and retires sum to the tiles' totals.
#[test]
fn profile_stalls_sum_to_tile_totals() {
    let covers = |s: &str| s.ends_with("/2t");
    let pairs = vec![(FF_STATS, FF_STATS)];
    hold(&[("stall sums ≡ tile totals", covers, [by_profile, by_tile], pairs)]);
}

/// Retires and stalls as the profile attributes them, and as the tiles
/// count them.
fn by_profile(r: &SimReport) -> Fields {
    let rows = || r.profile.iter().map(|(_, row)| row);
    let stalls = rows().map(|row| row.total_stalls()).sum();
    sums(rows().map(|row| row.retired).sum(), stalls)
}

fn by_tile(r: &SimReport) -> Fields {
    let stalls = r.tiles.iter().flat_map(|t| t.stalls).sum();
    sums(r.tiles.iter().map(|t| t.retired).sum(), stalls)
}

fn sums(retired: u64, stalls: u64) -> Fields {
    Fields::from([field("retired", retired), field("stalls", stalls)])
}

/// `Off`, `Stats` and `Trace` agree on every counter, and `Off` keeps no
/// profile row and no span but still fills the registry.
#[test]
fn off_level_is_free_and_unchanged() {
    hold(&[
        ("Off ≡ Stats ≡ Trace", traced, [counters; 2], vec![(FF, FF_STATS), (FF, FF_TRACE)]),
        ("Off keeps counters alone", traced, [kept, kept_at_off], vec![(FF, FF)]),
    ]);
}

/// The profile rows and spans a run kept and two counts its registry
/// holds; and what `Off` promises: no row, no span, the report's counts.
fn kept(r: &SimReport) -> Fields {
    let count = |path| r.registry.counter(path);
    let counted = (count("sim.cycles"), count("tile.0.retired"));
    let kept = (r.profile.len(), r.timeline.len());
    Fields::from([field(KEPT, kept), field(COUNTED, counted)])
}

fn kept_at_off(r: &SimReport) -> Fields {
    let counted = (r.cycles, r.tiles[0].retired);
    Fields::from([field(KEPT, (0usize, 0usize)), field(COUNTED, counted)])
}

const KEPT: &str = "profile rows, spans";
const COUNTED: &str = "sim.cycles, tile.0.retired";

/// `Trace` gives every tile a span on pid 0, and a Chrome JSON the strict
/// parser reads with a complete event that lasts.
#[test]
fn trace_level_emits_complete_spans_per_tile() {
    let pairs = vec![(FF_TRACE, FF_TRACE)];
    hold(&[("Trace spans every tile", traced, [spanned, spanned_at_trace], pairs)]);
}

/// Whether each tile has a span on the tiles' track (pid 0), and whether
/// the strict parser reads the Chrome JSON and finds in it a complete
/// event that lasts; and what `Trace` promises.
fn spanned(r: &SimReport) -> Fields {
    let spanned = |t| r.timeline.spans().any(|s| s.pid == 0 && s.tid == t);
    let tiles = (0..r.tiles.len() as u32).map(|t| field(format!("tile {t} spanned"), spanned(t)));
    let lasts = |e: &JsonValue| {
        e.get("ph").and_then(JsonValue::as_str) == Some("X")
            && e.get("dur").and_then(JsonValue::as_u64) > Some(0)
    };
    let events = |v: JsonValue| {
        v.get("traceEvents")
            .and_then(JsonValue::as_array)
            .map(|e| e.iter().any(lasts))
    };
    let json = mosaicsim::obs::json::parse(&r.timeline.to_chrome_json()).map(events);
    tiles.chain([field(LASTS, json)]).collect()
}

fn spanned_at_trace(r: &SimReport) -> Fields {
    let tiles = (0..r.tiles.len()).map(|t| field(format!("tile {t} spanned"), true));
    tiles
        .chain([field(LASTS, Ok::<_, String>(Some(true)))])
        .collect()
}

const LASTS: &str = "chrome json read, an event that lasts";

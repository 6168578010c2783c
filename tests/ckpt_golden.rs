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
//! The systems, `support::zoo()`'s `CKPT` entries, each row keyed by its
//! name and pause cycle: bfs, sgemm, lbm and spmv x in-order/out-of-order
//! x 1 and 4 tiles x `Off`/`Trace` x SimpleDram/banked DRAM, then four for
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

use std::fmt::Write as _;

use mosaicsim::ckpt::Checkpoint;
use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::*;
use support::{Golden, Hashed, CKPT};

/// `name=length:hash` of every section of the fast-forwarded pause `ff`,
/// in file order; where the naive pause `stepped` wrote other bytes, its
/// `|length:hash` follows.
fn sections(ff: &Checkpoint, stepped: &Checkpoint) -> String {
    let mut out = String::new();
    for (name, _) in ff.section_table() {
        let bytes = ff.section(name).expect("listed");
        let _ = write!(out, " {name}={}", Hashed::of(bytes));
        let other = stepped.require_section(name).expect("same sections");
        if other != bytes {
            let _ = write!(out, "|{}", Hashed::of(other));
        }
    }
    out
}

/// Pauses the system `make` builds at two seeded cycles under both
/// schedulers and appends one row per pause.
fn pauses(rows: &mut Vec<String>, rng: &mut Rng, label: &str, make: impl Fn() -> SystemBuilder) {
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

#[test]
fn checkpoint_reproduces_every_recorded_row() {
    let mut rows = Vec::new();
    let mut rng = Rng::seed_from_u64(0x6d63_6b70_2076_3300); // "mckp v3"
    for s in support::systems(CKPT) {
        pauses(&mut rows, &mut rng, &s.name, || s.builder());
    }
    Golden::new("ckpt").assert(&rows);
}

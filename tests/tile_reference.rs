//! The core tile against a naive reference tile.
//!
//! `support::reference::RefTile` is DESIGN.md §4.1's execution model
//! written through the four methods `Tile` requires, with maps and full
//! scans where `CoreTile` has a ring, a windowed ready set, a stall memo
//! and a launch plan. Each `TILE` zoo entry runs as `SystemBuilder` builds
//! it and again through `Interleaver::new` over reference tiles; per tile
//! the two must agree on `done_at`, `retired`, `issued`, `dbbs_launched`,
//! `mispredicts` and the five stall kinds. So `tile_golden.txt`'s rows say
//! what the model says, not only what `CoreTile` once counted.
//!
//! A reference tile never reports a horizon, so it is stepped every cycle
//! and costs a scan of its in-flight instructions each time: the tier-1
//! suite runs a fixed subset, and CI runs every entry in release
//! (`cargo test --release --test tile_reference -- --ignored`). The same
//! tile tests the defaults of the methods it leaves out: it is never
//! skipped, and its checkpoint is refused by name.

use std::sync::Arc;

use mosaicsim::ckpt::CkptError;
use mosaicsim::core::Interleaver;
use mosaicsim::mem::MemoryHierarchy;
use mosaicsim::prelude::*;
use mosaicsim::tile::{ChannelSet, NoAccel, Tile};
use support::reference::RefTile;
use support::{Cores, System, TILE};

/// `s`'s tiles as reference tiles, laid out as `System::builder` lays
/// out its cores: tile `t` replays trace tile `t`, and DAE pair `k` runs
/// in its own queue namespace.
fn reference(s: &System) -> Interleaver {
    let t = s.traced();
    let module = Arc::new(t.prepared.module.clone());
    let cores: Vec<CoreConfig> = match &s.cores {
        Cores::Tiles(cores) => cores.clone(),
        Cores::Pairs(pair) => (0..t.programs.len() / 2)
            .flat_map(|k| {
                let offset = TileProgram::DAE_QUEUE_STRIDE * k as u32;
                let [access, execute] = pair.as_ref().clone();
                [
                    access
                        .with_queue_offset(offset)
                        .with_name(&format!("access#{k}")),
                    execute
                        .with_queue_offset(offset)
                        .with_name(&format!("execute#{k}")),
                ]
            })
            .collect(),
    };
    let tiles = cores
        .into_iter()
        .zip(&t.programs)
        .enumerate()
        .map(|(slot, (core, p))| {
            let tile = RefTile::new(
                core,
                module.clone(),
                p.func,
                t.trace.tile_shared(slot),
                slot,
            );
            Box::new(tile) as Box<dyn Tile>
        });
    let tiles: Vec<_> = tiles.collect();
    let mem = MemoryHierarchy::new(s.memory.clone(), tiles.len().max(1));
    Interleaver::new(tiles, mem, ChannelSet::new(s.channel), Box::new(NoAccel))
}

/// What the two tiles must agree on, a line per tile.
fn counts(tiles: &[Box<dyn Tile>]) -> Vec<String> {
    let row = |t: &dyn Tile| {
        let s = t.stats();
        format!(
            "{} done_at={:?} retired={} issued={} dbbs={} mispredicts={} stalls={:?}",
            s.name, s.done_at, s.retired, s.issued, s.dbbs_launched, s.mispredicts, s.stalls
        )
    };
    tiles.iter().map(|t| row(t.as_ref())).collect()
}

/// Runs `s` with both tiles and requires equal counts.
fn agree(s: &System) -> Result<(), String> {
    let mut core = s
        .builder()
        .build()
        .map_err(|e| format!("{}: build: {e}", s.name))?;
    let cycles = core.run().map_err(|e| format!("{}: run: {e}", s.name))?;
    // A reference that falls behind by this much has gone wrong.
    let bound = 2 * cycles + 10_000;
    let mut naive = reference(s);
    match naive.run_until(bound) {
        Ok(Some(_)) => {}
        Ok(None) => {
            return Err(format!(
                "{}: the reference is unfinished at {bound}",
                s.name
            ))
        }
        Err(e) => return Err(format!("{}: reference run: {e}", s.name)),
    }
    let (want, got) = (counts(core.tiles()), counts(naive.tiles()));
    let moved = want.iter().zip(&got).filter(|(w, g)| w != g);
    let moved: Vec<String> = moved
        .map(|(w, g)| format!("  core {w}\n  ref  {g}"))
        .collect();
    match moved.is_empty() {
        true => Ok(()),
        false => Err(format!("{}:\n{}", s.name, moved.join("\n"))),
    }
}

/// Every system of `systems` agrees, or the failure names each that does not.
fn all_agree(systems: impl Iterator<Item = System>) {
    let mut checked = 0;
    let failed: Vec<String> = systems
        .inspect(|_| checked += 1)
        .filter_map(|s| agree(&s).err())
        .collect();
    assert!(checked > 0, "no systems");
    assert!(
        failed.is_empty(),
        "{} of {checked} disagree:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// Each kernel on the in-order and the widest out-of-order core of the
/// grid, on one and four tiles, and every DeSC pair.
fn tier_one(s: &System) -> bool {
    let core = ["/ino/w1/i1/", "/ooo/w128/i8/"]
        .iter()
        .any(|c| s.name.contains(c));
    core || s.name.contains("/dae/")
}

#[test]
fn reference_tile_agrees_on_a_subset_of_the_tile_table() {
    all_agree(support::systems(TILE).filter(tier_one));
}

#[test]
#[ignore = "every TILE entry: about a minute in release; CI runs it with --ignored"]
fn reference_tile_agrees_on_every_tile_entry() {
    all_agree(support::systems(TILE));
}

/// A tile of four methods is stepped every cycle: fast-forwarding takes
/// no skip and changes nothing.
#[test]
fn four_method_tile_is_never_skipped() {
    let s = support::system("bfs/ino/w1/i1/1t");
    let run = |fast_forward| {
        let mut il = reference(&s);
        il.set_fast_forward(fast_forward);
        let cycles = il.run().expect("runs");
        (cycles, counts(il.tiles()), il.skips_taken())
    };
    let (fast, naive) = (run(true), run(false));
    assert_eq!(fast.2, 0, "skips taken");
    assert_eq!(fast, naive);
}

/// A checkpoint of a tile that saves no state is refused, naming it.
#[test]
fn four_method_tile_refuses_to_resume() {
    let s = support::system("bfs/ino/w1/i1/1t");
    let mut il = reference(&s);
    assert_eq!(il.run_until(500).expect("runs"), None, "paused");
    let ckpt = il.save_checkpoint();
    match reference(&s).restore_checkpoint(&ckpt) {
        Err(CkptError::Mismatch { context }) => assert!(context.contains("'c0'"), "{context}"),
        other => panic!("resumed a tile that saved nothing: {other:?}"),
    }
}

/// A divisor of 0 would step the tile at cycle 0 alone while a survey read
/// it as 1: `Interleaver::new` refuses it.
#[test]
#[should_panic(expected = "clock divisor must be at least 1")]
fn zero_clock_divisor_is_refused_when_assembled() {
    let s = support::system("bfs/ino/w1/i1/1t");
    let mut core = CoreConfig::in_order().with_name("c0");
    core.clock_divisor = 0;
    let t = s.traced();
    let module = Arc::new(t.prepared.module.clone());
    let tile = RefTile::new(core, module, t.programs[0].func, t.trace.tile_shared(0), 0);
    let mem = MemoryHierarchy::new(s.memory.clone(), 1);
    let tiles: Vec<Box<dyn Tile>> = vec![Box::new(tile)];
    Interleaver::new(tiles, mem, ChannelSet::new(s.channel), Box::new(NoAccel));
}

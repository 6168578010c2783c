//! Heap allocations per retired instruction inside `Interleaver::run`.
//!
//! The core tile's hot path (`launch_one`, `make_ready`, `issue`,
//! `complete_inst`) works on rings and tables indexed by the ids
//! themselves and recycles their storage (DESIGN.md §4.2, "Hot-path data
//! layout"), and so does the memory hierarchy's request path (a request
//! ring, a timing wheel, MSHR tables and scratch buffers it refills), so
//! in steady state neither allocates: what a run allocates is the warm-up
//! growth of those buffers. The count is deterministic — same
//! kernel, same configuration, same allocations — so the ceilings below
//! cannot flake; they fail when a `clone()`, `collect()` or map insert
//! creeps back onto the per-instruction path.
//!
//! The front end is held to the same standard: the DTG runs a compiled
//! plan over a slot file and scratch buffers it refills (DESIGN.md §4.1),
//! so an interpreted instruction allocates nothing, and a memory image
//! shares its pages with its clones, so cloning one costs its page table
//! and reading one costs nothing. A trace is its `MSTR` file's bytes:
//! reading one back allocates one buffer, of the file's length, and
//! indexes its columns where they lie.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide, and it has a single `#[test]` so no other test thread
//! allocates while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use mosaicsim::core::Interleaver;
use mosaicsim::ir::interp::NullSink;
use mosaicsim::ir::run_tiles;
use mosaicsim::kernels::build_parboil;
use mosaicsim::mem::{MemoryHierarchy, PrefetchConfig};
use mosaicsim::obs::Span;
use mosaicsim::prelude::*;

thread_local! {
    /// Whether this thread is inside a counted region.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (fresh and growing) this thread made while counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The bytes they asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` and `realloc` calls.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialized thread-local `Cell`s, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds `kernel` (scale 1) on one `core` tile at `level`, and returns
/// the allocations made inside `Interleaver::run`, the instructions it
/// retired, and the interleaver for a look at what it recorded.
fn count_allocs(
    kernel: &str,
    core: CoreConfig,
    memory: HierarchyConfig,
    level: ObsLevel,
) -> (u64, u64, Interleaver) {
    let builder = support::spmd(&build_parboil(kernel, 1), &core, 1, memory);
    count_run(&format!("{kernel} at {level:?}"), builder.observe(level))
}

/// Runs `f` and returns what it returned, the allocations this thread
/// made meanwhile, and the bytes they asked for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Builds `builder`'s system, and returns the allocations of its run and
/// the instructions it retired.
fn count_run(label: &str, builder: SystemBuilder) -> (u64, u64, Interleaver) {
    let mut sim = builder.build().expect("build");
    let (result, allocs, _) = counted(|| sim.run());
    result.expect("simulate");
    let retired = sim.tiles().iter().map(|t| t.stats().retired).sum();
    println!("{label}: {allocs} allocations / {retired} retired instructions");
    (allocs, retired, sim)
}

/// Allocations per interpreted instruction inside `run_tiles`, nothing
/// recorded: the plans, the slot files and the image's copied pages.
fn dtg_allocs_per_instr(kernel: &str, tiles: usize) -> f64 {
    let p = build_parboil(kernel, 1);
    let (programs, mem) = (p.programs(tiles), p.mem.clone());
    let (out, allocs, _) = counted(|| run_tiles(&p.module, mem, &programs, &mut NullSink));
    let steps = out.expect("interpret").steps;
    println!("dtg {kernel} x{tiles}: {allocs} allocations / {steps} instructions");
    allocs as f64 / steps as f64
}

/// Allocations per retired instruction of a run at `level`.
fn allocs_per_instr(
    kernel: &str,
    core: CoreConfig,
    memory: HierarchyConfig,
    level: ObsLevel,
) -> f64 {
    let (allocs, retired, _) = count_allocs(kernel, core, memory, level);
    allocs as f64 / retired as f64
}

#[test]
fn run_loop_allocations_per_instruction_stay_under_their_ceilings() {
    let no_prefetch = || HierarchyConfig {
        prefetch: PrefetchConfig::disabled(),
        ..xeon_memory()
    };
    let ooo = CoreConfig::out_of_order;

    // Compute-bound, stream prefetcher off: what is left is the warm-up
    // growth of the tile's and the hierarchy's buffers. Measured 0.0002
    // (184 allocations / 984 367 instructions); 0.0023 (2 246) while the
    // hierarchy kept its requests and MSHRs in maps, 3.91 with the
    // map-based tile before that.
    let tile_only = allocs_per_instr("sgemm", ooo(), no_prefetch(), ObsLevel::Off);
    assert!(tile_only < 0.01, "sgemm/ooo, no prefetcher: {tile_only:.4}");

    // The same run on the default hierarchy: the prefetcher writes what
    // it fires into the hierarchy's buffer. Measured 0.0004 (353); 0.128
    // (126 k) while `StreamPrefetcher::observe` returned a fresh `Vec`
    // per confirmed access and an MSHR entry was a `vec![id]`.
    let sgemm = allocs_per_instr("sgemm", ooo(), xeon_memory(), ObsLevel::Off);
    assert!(sgemm < 0.01, "sgemm/ooo: {sgemm:.4}");

    // DRAM-stall-bound in-order tile: nearly every miss goes to DRAM, so
    // the MSHRs, the event queue and the DRAM model carry the run — and
    // allocate while their tables and queues grow to size, not after.
    // Measured 0.0005 (99 / 193 607); 0.056 (10 852) on maps and a heap.
    let lbm = allocs_per_instr("lbm", CoreConfig::in_order(), no_prefetch(), ObsLevel::Off);
    assert!(lbm < 0.01, "lbm/ino, no prefetcher: {lbm:.4}");

    // The same run observed: some 25 ready instructions wait behind the
    // one-entry window on every stepped cycle, and each is charged a
    // window stall in the profile — by a tick of the profile's clock
    // against its census of parked instances, both sized at `set_observe`.
    // Measured 117 allocations against 99 at `Off` (a latency histogram
    // per memory instruction).
    let lbm_stats = allocs_per_instr(
        "lbm",
        CoreConfig::in_order(),
        no_prefetch(),
        ObsLevel::Stats,
    );
    assert!(
        lbm_stats - lbm < 0.001,
        "lbm/ino, no prefetcher: Stats {lbm_stats:.4} against Off {lbm:.4}"
    );

    // Eight tiles, most of them blocked on a channel or on DRAM at any
    // cycle: the stall memo a blocked tile answers from refills its stall
    // buffer and its watch list in place, and the channel set is a sorted
    // `Vec` that grows to the system's channels once. Measured 0.0022
    // (435 / 198 556; 426 before the memo, on a `BTreeMap` of channels).
    // (The ledger's `projection.dae_x8` at scale 1: four DeSC pairs.)
    let dae_x8 = support::system("projection/dae/ino/x8").builder();
    let (allocs, retired, _) = count_run("projection dae x8 at Off", dae_x8);
    let dae = allocs as f64 / retired as f64;
    assert!(dae < 0.01, "projection/dae x8: {dae:.4}");

    // The observed path. `Stats` records into tables sized at
    // `set_observe` (a retire, a stall or a latency sample is an indexed
    // add) and surveys refill one buffer, so it allocates what `Off` does
    // plus a histogram per memory instruction on its first sample.
    // Measured 0.0015 at `Off` (233 / 160 355) and 0.0015 at `Stats`
    // (241); with the hierarchy on maps both were 0.139 (22 346 and
    // 22 357), and a tile that kept a `BTreeMap` of 600-byte rows and
    // built a `Vec` per blocked survey measured 0.3609 at `Stats`.
    let off = allocs_per_instr("bfs", ooo(), xeon_memory(), ObsLevel::Off);
    assert!(off < 0.02, "bfs/ooo at Off: {off:.4}");
    let stats = allocs_per_instr("bfs", ooo(), xeon_memory(), ObsLevel::Stats);
    assert!(stats < 0.5, "bfs/ooo at Stats: {stats:.4}");
    // (The deep-backlog shape: some 20 parked instructions a walk, which
    // the set keeps as a count and the profile as a census.)
    assert!(
        stats - off < 0.001,
        "bfs/ooo: Stats {stats:.4} against Off {off:.4}"
    );

    // A second run of the same system allocates exactly what the first
    // did: nothing on the path is keyed per process. (While the
    // hierarchy's maps were keyed by `RandomState`, where a removed key
    // left a tombstone — and so when a table regrew — followed the keys:
    // this pair differed by an allocation about one time in three, and
    // the heap layout every time.)
    let again = allocs_per_instr("bfs", ooo(), xeon_memory(), ObsLevel::Off);
    assert_eq!(off, again, "bfs/ooo at Off, run twice");

    // `Trace` adds spans: 32-byte records whose names are kept as they
    // are (a static label by address, or a kind and a line address) and
    // formatted only on export, in 64 KiB chunks that are never
    // reallocated — so a span costs a chunk's share of one allocation,
    // never a `String`. Measured 32 allocations over `Stats` for 47 324
    // spans (0.0007 each, most of them chunks); 28 while spans were
    // 72 bytes in a `Vec` grown by doubling, 80 949 (1.71 each) while
    // every name was formatted on record.
    assert!(size_of::<Span>() <= 32, "a span is {} bytes", size_of::<Span>());
    let (traced, retired, sim) = count_allocs("bfs", ooo(), xeon_memory(), ObsLevel::Trace);
    let (mut tiles, mut mem, _) = sim.into_parts();
    let (tile, mem) = (tiles[0].take_timeline(), mem.take_timeline());
    let spans = tile.len() + mem.len();
    let per_span = (traced as f64 - stats * retired as f64) / spans as f64;
    println!("bfs at Trace: {spans} spans, {per_span:.4} allocations each over Stats");
    assert!(spans > 1000, "bfs/ooo at Trace recorded {spans} spans");
    assert!(per_span <= 0.001, "bfs/ooo at Trace: {per_span:.4} per span");
    // Merging them into the report moves their chunks: what it allocates
    // is the merged chunk list and the track and name tables, no span
    // storage. Measured 6 allocations, 1 256 bytes.
    let (merged, allocs, bytes) = counted(|| {
        let mut report = Timeline::new();
        report.merge(tile);
        report.merge(mem);
        report
    });
    println!("merge of {spans} spans: {allocs} allocations, {bytes} bytes");
    assert_eq!(merged.len(), spans);
    assert!(bytes <= 4096, "merging {spans} spans allocated {bytes} bytes");

    // The DTG: a phi group's sources and an accelerator call's arguments
    // go through buffers the interpreter refills, so what a run allocates
    // is its plans, its slot files and the image pages it writes first.
    // Measured 0.00003 (sgemm), 0.0002 (bfs, one tile and four); the
    // tree-walking interpreter's `Vec` per phi group and per call measured
    // 0.137 and 0.205.
    for (kernel, tiles) in [("sgemm", 1), ("bfs", 1), ("bfs", 4)] {
        let dtg = dtg_allocs_per_instr(kernel, tiles);
        assert!(dtg < 0.001, "dtg {kernel} x{tiles}: {dtg:.5}");
    }

    // The trace itself: a finished `KernelTrace` holds its `MSTR` file, so
    // reading one allocates the file's buffer, read once, and the tables
    // that index it — the stream table, the tiles; measured 396 402 bytes
    // in 7 allocations for sgemm's 393 874 (397 107 in 8 while each column
    // was a buffer of its own) — and recording one (full-width addresses
    // per stream, in chunks of up to 8192, encoded once by `finish`) stays
    // under the DTG's ceiling.
    for kernel in ["sgemm", "bfs"] {
        let p = build_parboil(kernel, 1);
        let ((trace, out), allocs, _) = counted(|| p.trace(1).expect("trace"));
        let recorded = allocs as f64 / out.steps as f64;
        let mut file = Vec::new();
        trace.write_to(&mut file).expect("write to memory");
        let (back, allocs, bytes) = counted(|| KernelTrace::read_from(&mut file.as_slice()));
        let streams = back.expect("read back").tile(0).mem_insts().count() as u64;
        let len = file.len() as u64;
        println!(
            "trace {kernel}: {recorded:.5} allocations per instruction recorded; {len} bytes \
             read in {allocs} allocations of {bytes} bytes, {streams} streams"
        );
        assert!(recorded < 0.001, "recording {kernel}: {recorded:.5}");
        assert!(
            bytes <= len + len / 10 + 4096,
            "{kernel}: {bytes} for {len}"
        );
        assert!(
            allocs <= 2 * streams + 16,
            "{kernel}: {allocs} for {streams} streams"
        );
    }
    // A count with nothing behind it sizes nothing — the file is read
    // before any count in it is: here a path of 2^64 - 1 blocks.
    let head = [&b"MSTR"[..], &[2, 0, 0, 0, 1, 0, 0, 0], &[1, 0, 0, 0, 0]].concat();
    let absurd = [&head[..], &[0xff; 8], &[1]].concat();
    let (short, _, bytes) = counted(|| KernelTrace::read_from(&mut absurd.as_slice()));
    let kind = short.expect_err("a short file").kind();
    assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
    assert!(bytes <= (16 << 20) + 4096, "reserved {bytes} bytes");

    // The memory image: a clone shares every page, so it costs the page
    // table — 8 bytes per 4 KiB page up to the last one written, a 512th
    // of the extent — and a read, of a written line or of one nobody
    // wrote, costs nothing.
    const EXTENT: u64 = 64 << 20;
    let mut image = MemImage::new();
    let base = image.alloc(EXTENT, 64);
    let last = base + EXTENT - 8;
    image.write_i64(last, -1);
    let (copy, allocs, bytes) = counted(|| image.clone());
    println!("clone of a 64 MiB image, its last word written: {allocs} allocations, {bytes} bytes");
    assert!(bytes <= EXTENT / 512, "clone allocated {bytes} bytes");
    let (sum, allocs, _) = counted(|| {
        let words = (0..EXTENT / 8).step_by(509);
        words.fold(0, |sum, w| sum + copy.read_i64(base + 8 * w)) + copy.read_i64(last)
    });
    assert_eq!((sum, allocs), (-1, 0), "reads of the clone");

    // A page holds only the lines written in it. The ledger's `gather64m`
    // shape: 16 384 distinct `f32`s written into `x` of two 32 MiB arrays,
    // the clone a trace run makes, then a read-modify-write of `y` at the
    // same indices. Measured 5 358 360 bytes asked for; 17 049 568 while
    // the image was a table of 512-byte chunks, each written one whole.
    const ELEMS: u64 = 8 << 20;
    let (_, _, bytes) = counted(|| {
        let mut image = MemImage::new();
        let (x, y) = (image.alloc_f32(ELEMS), image.alloc_f32(ELEMS));
        // An odd multiplier permutes the indices below a power of two.
        let at = |i: u64| 4 * (i.wrapping_mul(0x9e37_79b1) % ELEMS);
        for i in 0..16_384 {
            image.write_f32(x + at(i), i as f32);
        }
        let mut copy = image.clone();
        for i in 0..16_384 {
            let sum = copy.read_f32(y + at(i)) + 0.5 * copy.read_f32(x + at(i));
            copy.write_f32(y + at(i), sum);
        }
        assert_eq!(copy.read_f32(y + at(9)), 4.5);
    });
    println!("gather64m's image and its rewritten clone: {bytes} bytes asked for");
    assert!(bytes <= 17_049_568 / 2, "the gather image asked for {bytes} bytes");

    // The caches' tag stores: the 8-tile Table I hierarchy (a 20 MiB
    // 20-way LLC, a 2 MiB 8-way L2 per tile) built, then 64 Ki distinct
    // lines read through it, 8 Ki consecutive ones per tile, so every L2
    // set ends up holding 2 lines and every LLC set 4. A block of sets
    // stores the ways its fullest set has needed, 2 at first, doubling:
    // measured 2 829 364 bytes; 10 165 708 while every block stored all
    // the configured ways and a state byte per way was allocated up front.
    let (_, _, bytes) = counted(|| tag_store_footprint(8, 64 << 10));
    println!("8-tile xeon_memory(), 64 Ki lines over every set: {bytes} bytes asked for");
    assert!(bytes <= 10_165_708 / 2, "the caches asked for {bytes} bytes");
}

/// Builds the Table I hierarchy (no prefetcher, so exactly the lines named
/// are filled) for `tiles` tiles and reads `lines` consecutive lines
/// through it, split into one consecutive run per tile, a few requests per
/// tile in flight at a time.
fn tag_store_footprint(tiles: usize, lines: u64) -> MemoryHierarchy {
    use mosaicsim::mem::{AccessKind, MemReq};
    let memory = HierarchyConfig {
        prefetch: PrefetchConfig::disabled(),
        ..xeon_memory()
    };
    let mut hier = MemoryHierarchy::new(memory, tiles);
    let (per_tile, mut now, mut done) = (lines / tiles as u64, 0, Vec::new());
    for batch in (0..per_tile).step_by(4) {
        for tile in 0..tiles {
            for line in batch..(batch + 4).min(per_tile) {
                let addr = (tile as u64 * per_tile + line) * 64;
                let req = MemReq { tile, addr, size: 8, kind: AccessKind::Read };
                hier.request(req, now).expect("tile in range");
            }
        }
        while !hier.is_idle() {
            hier.step(now);
            hier.drain_completions_into(&mut done);
            now = hier.next_event_cycle(now + 1).unwrap_or(now + 1);
        }
    }
    hier
}

//! Golden rows at the Dynamic Trace Generator's own output.
//!
//! The timing goldens (`mem_golden`, `tile_golden`, `ckpt_golden`) replay
//! traces; none of them pins the trace itself. The trace is a function of
//! the interpreter's *schedule*, not only of the program — 4096 steps per
//! tile turn, round-robin, a phi group one step — because cross-tile
//! atomics (bfs) and queues (DAE pairs) see whatever the interleaving
//! gives them. This test pins, per system, what `run_tiles` produced
//! against a table recorded from the tree-walking interpreter
//! (`tests/dtg_golden.txt`) before it was replaced by the compiled plan:
//!
//! * `mstr`: length and FNV-1a of the trace as `MSTR` version 1 spelt it —
//!   every tile's block path, every memory instruction's address stream
//!   (an address, a size and a direction per access), every accelerator
//!   invocation's evaluated arguments, `retired` — produced here, over the
//!   public accessors, by the serialiser below: the *decoded* trace,
//!   whatever form the crate holds it in;
//! * `image`: length and FNV-1a of the final memory image's allocated
//!   bytes;
//! * `steps`, per-tile `retired` and per-tile `returns`;
//! * `v2`: length and FNV-1a of `KernelTrace::write_to`'s bytes, `MSTR`
//!   version 2 (DESIGN.md §4.1) — the column a change of the packing or of
//!   the file layout moves, alone. All 53 systems together are held under
//!   1/3.5 of their version-1 bytes.
//!
//! Systems: `support::zoo()`'s `DTG` entries — every Parboil kernel on
//! 1, 4 and 8 tiles at scale 1; the ledger's scaled points (lbm 2, bfs 8,
//! spmv 2, spmv 4 on 8 tiles); the projection kernel sliced by `slice_dae`
//! on one pair and on the ledger's four pairs; the Sinkhorn case studies
//! with and without the SGEMM accelerator (whose functional semantics
//! write the image); and the three Keras applications lowered to
//! accelerator calls. A change of the packing or the file layout is
//! recorded only if every column before `v2` stays as it was.

use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::*;
use support::{Golden, Hashed, Traced, DTG};

/// Length and hash of the image's allocated bytes, read through the
/// typed accessors (an address of the first allocation is the base).
fn image_hash(mem: &MemImage) -> Hashed {
    let len = mem.allocated_bytes();
    let base = MemImage::new().alloc(0, 1);
    let mut h = Hashed::EMPTY;
    (0..len / 8).for_each(|w| h.put(&mem.read_i64(base + 8 * w).to_le_bytes()));
    (len & !7..len).for_each(|o| h.put(&[mem.read_i8(base + o) as u8]));
    h
}

/// The trace as `MSTR` version 1 wrote it, hashed as it is spelt.
fn mstr_v1(trace: &KernelTrace) -> Hashed {
    let mut h = Hashed::EMPTY;
    h.put(b"MSTR");
    h.put(&1u32.to_le_bytes());
    h.put(&(trace.tile_count() as u32).to_le_bytes());
    for tile in trace.tiles() {
        h.put(&[tile.func().is_some() as u8]);
        h.put(&tile.func().map_or(0, |f| f.0).to_le_bytes());
        h.put(&(tile.path().len() as u64).to_le_bytes());
        tile.path().for_each(|b| h.put(&b.0.to_le_bytes()));
        h.put(&(tile.mem_insts().count() as u32).to_le_bytes());
        for inst in tile.mem_insts() {
            h.put(&inst.0.to_le_bytes());
            h.put(&(tile.mem_stream(inst).len() as u64).to_le_bytes());
            for a in tile.mem_stream(inst) {
                h.put(&a.addr.to_le_bytes());
                h.put(&[a.size, a.write as u8]);
            }
        }
        h.put(&(tile.accel_invocations().len() as u32).to_le_bytes());
        for call in tile.accel_invocations() {
            h.put(&call.inst.0.to_le_bytes());
            h.put(&(call.accel.name().len() as u32).to_le_bytes());
            h.put(call.accel.name().as_bytes());
            h.put(&(call.args.len() as u32).to_le_bytes());
            call.args.iter().for_each(|a| h.put(&a.to_le_bytes()));
        }
        h.put(&tile.retired().to_le_bytes());
    }
    h
}

/// The system's row, and its trace's bytes as `MSTR` version 1 and 2.
fn row(label: &str, traced: &Traced) -> (String, (usize, usize)) {
    let (trace, out) = (&traced.trace, &traced.outcome);
    let v1 = mstr_v1(trace);
    let mut v2 = Vec::new();
    trace.write_to(&mut v2).expect("write to memory");
    let v2 = Hashed::of(&v2);
    let retired: Vec<String> = out.retired.iter().map(u64::to_string).collect();
    let returns: Vec<String> = out
        .returns
        .iter()
        .map(|r| match r {
            None => "-".to_string(),
            Some(RtVal::Int(v)) => format!("i{v}"),
            Some(RtVal::Float(v)) => format!("f{:016x}", v.to_bits()),
        })
        .collect();
    let row = format!(
        "{label} mstr={v1} image={} steps={} retired={} returns={} v2={v2}",
        image_hash(&out.mem),
        out.steps,
        retired.join(","),
        returns.join(","),
    );
    (row, (v1.len, v2.len))
}

#[test]
fn interpreter_reproduces_every_recorded_row() {
    let (rows, sizes): (Vec<String>, Vec<(usize, usize)>) = support::systems(DTG)
        .map(|s| row(&s.name, &s.traced()))
        .unzip();
    Golden::new("dtg").assert(&rows);
    // Fixed-width columns at the width of each stream's own address range:
    // measured 4.66x under version 1 over the table; the floor is 3.5x.
    let (v1, v2) = sizes
        .iter()
        .fold((0, 0), |(v1, v2), (a, b)| (v1 + a, v2 + b));
    println!("MSTR over the table: {v1} bytes as version 1, {v2} as version 2");
    assert!(7 * v2 <= 2 * v1, "version 2 is {v2} bytes against {v1}");
}

/// What the accessors of every tile answer — the whole path, the first 64
/// and the last access of every stream, every call — folded into one
/// word: a damaged file that still reads must answer all of it without a
/// panic. (A flipped count of accesses to one address may claim billions.)
fn walk(trace: &KernelTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut put = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for t in trace.tiles() {
        t.path().for_each(|b| put(b.0.into()));
        for inst in t.mem_insts() {
            let stream = t.mem_stream(inst);
            let last = stream
                .len()
                .checked_sub(1)
                .and_then(|i| t.mem_access(inst, i));
            for a in stream.take(64).chain(last) {
                put(a.addr ^ (u64::from(a.size) << 56) ^ (u64::from(a.write) << 63));
            }
        }
        for call in t.accel_invocations() {
            put(t.accel_stream(call.inst).len() as u64);
            call.args.iter().for_each(|&a| put(a as u64));
        }
        put(t.func().map_or(u64::MAX, |f| f.0.into()) ^ t.retired() ^ t.mem_access_count());
    }
    h
}

/// Real traces, cut short and bit-flipped at seeded offsets: four SPMD
/// tiles over shared buffers, a DeSC pair's two slices, and accelerator
/// calls — what the hand-built sample in `crates/trace` does not have.
/// Every cut is `UnexpectedEof` and a byte past the end `InvalidData`;
/// every flip is a typed error or a trace whose every accessor answers.
#[test]
fn damaged_real_traces_are_typed_errors_or_traces() {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    let mut rng = Rng::seed_from_u64(0x4d53_5452_2076_3200); // "MSTR v2"
    let read = |bytes: &[u8]| KernelTrace::read_from(&mut &bytes[..]);
    let rows = [
        ("mri-q@1/x4", 4, false),
        ("projection@1/dae/x1", 2, false),
        ("keras.ConvNet/x1", 1, true),
    ];
    for (name, tiles, calls) in rows {
        let trace = support::system(name).traced().trace.clone();
        let called = trace.tiles().any(|t| !t.accel_invocations().is_empty());
        assert_eq!((trace.tile_count(), called), (tiles, calls), "{name}");
        let mut file = Vec::new();
        trace.write_to(&mut file).expect("write to memory");
        assert_eq!(walk(&read(&file).expect(name)), walk(&trace), "{name}");
        let longer = [&file[..], &[0]].concat();
        let kind = read(&longer).map(|_| ()).expect_err(name).kind();
        assert_eq!(kind, InvalidData, "{name} with a byte past its end");
        for _ in 0..256 {
            let cut = rng.below(file.len() as u64) as usize;
            let kind = read(&file[..cut]).map(|_| ()).expect_err(name).kind();
            assert_eq!(kind, UnexpectedEof, "{name} cut at {cut} of {}", file.len());
        }
        let mut walked = Vec::new();
        for _ in 0..1024 {
            let (mut bad, at) = (file.clone(), rng.below(file.len() as u64) as usize);
            bad[at] ^= 1 << rng.below(8);
            match read(&bad) {
                Ok(trace) => walked.push(walk(&trace)),
                Err(e) => assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "{e}"),
            }
        }
        assert!(!walked.is_empty(), "{name}: no flipped file read back");
    }
}

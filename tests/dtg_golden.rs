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
//! Systems: every Parboil kernel on 1, 4 and 8 tiles at scale 1; the
//! ledger's scaled points (lbm 2, bfs 8, spmv 2, spmv 4 on 8 tiles); the
//! projection kernel sliced by `slice_dae` on one pair and on the ledger's
//! four pairs (queue offsets 1000·k); the Sinkhorn case studies with and
//! without the SGEMM accelerator (whose functional semantics write the
//! image); and the three Keras applications lowered to accelerator calls.
//!
//! `DTG_GOLDEN_WRITE=1 cargo test --test dtg_golden` rewrites the table —
//! only ever from a commit whose interpreter is the reference (a re-record
//! for a new file layout must leave every column before `v2` as it was).

use mosaicsim::ir::ExecOutcome;
use mosaicsim::kernels::sinkhorn::{self, Mix};
use mosaicsim::kernels::{build_parboil, keras, projection, Prepared, PARBOIL_NAMES};
use mosaicsim::prelude::*;

const TABLE: &str = include_str!("dtg_golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Length and hash of the image's allocated bytes, read through the
/// typed accessors (an address of the first allocation is the base).
fn image_hash(mem: &MemImage) -> (u64, u64) {
    let len = mem.allocated_bytes();
    let base = MemImage::new().alloc(0, 1);
    let words = (0..len / 8).flat_map(|w| mem.read_i64(base + 8 * w).to_le_bytes());
    let tail = (len & !7..len).map(|o| mem.read_i8(base + o) as u8);
    (len, words.chain(tail).fold(FNV_OFFSET, fnv_step))
}

/// The length and FNV-1a of the bytes it is given.
struct Hashed(usize, u64);

impl Hashed {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
        self.1 = bytes.iter().copied().fold(self.1, fnv_step);
    }
}

/// The trace as `MSTR` version 1 wrote it, hashed as it is spelt.
fn mstr_v1(trace: &KernelTrace) -> Hashed {
    let mut h = Hashed(0, FNV_OFFSET);
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

fn row(label: &str, trace: &KernelTrace, out: &ExecOutcome) -> String {
    let Hashed(mstr_len, mstr) = mstr_v1(trace);
    let mut v2 = Vec::new();
    trace.write_to(&mut v2).expect("write to memory");
    let (image_len, image) = image_hash(&out.mem);
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
    format!(
        "{label} mstr={mstr_len}:{mstr:016x} image={image_len}:{image:016x} steps={} retired={} \
         returns={} v2={}:{:016x}",
        out.steps,
        retired.join(","),
        returns.join(","),
        v2.len(),
        v2.iter().copied().fold(FNV_OFFSET, fnv_step),
    )
}

fn spmd(rows: &mut Vec<String>, label: &str, p: &Prepared, tiles: usize) {
    let (trace, out) = p.trace(tiles).unwrap_or_else(|e| panic!("{label}: {e}"));
    rows.push(row(&format!("{label}/x{tiles}"), &trace, &out));
}

/// The projection kernel at `scale`, sliced, on `pairs` access/execute
/// pairs laid out as the ledger and `run_dae_pairs` lay them out.
fn dae(rows: &mut Vec<String>, scale: u32, pairs: usize) {
    let mut p = projection::build(scale);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let mut programs = Vec::new();
    for pair in 0..pairs {
        for func in [slices.access, slices.execute] {
            let mut prog =
                TileProgram::single(func, p.args.clone()).with_queue_offset(1000 * pair as u32);
            (prog.tile_id, prog.num_tiles) = (pair as i64, pairs as i64);
            programs.push(prog);
        }
    }
    let (trace, out) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let label = format!("projection@{scale}/dae/x{pairs}");
    rows.push(row(&label, &trace, &out));
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for name in PARBOIL_NAMES {
        let p = build_parboil(name, 1);
        for tiles in [1, 4, 8] {
            spmd(&mut rows, &format!("{name}@1"), &p, tiles);
        }
    }
    for (name, scale, tiles) in [("lbm", 2, 1), ("bfs", 8, 1), ("spmv", 2, 1), ("spmv", 4, 8)] {
        let p = build_parboil(name, scale);
        spmd(&mut rows, &format!("{name}@{scale}"), &p, tiles);
    }
    dae(&mut rows, 1, 1);
    dae(&mut rows, 4, 4);
    for tiles in [1, 4] {
        spmd(&mut rows, "ewsd@1", &sinkhorn::ewsd(1), tiles);
    }
    let mixes = [
        ("dense-heavy", Mix::DenseHeavy),
        ("equal", Mix::Equal),
        ("sparse-heavy", Mix::SparseHeavy),
    ];
    for (mix_name, mix) in mixes {
        for (side, accel) in [("cpu", false), ("accel", true)] {
            let p = sinkhorn::combined(mix, 1, accel);
            spmd(&mut rows, &format!("sinkhorn.{mix_name}.{side}"), &p, 1);
        }
    }
    // Only tile 0 invokes the accelerator; the others run the sparse half.
    let p = sinkhorn::combined(Mix::Equal, 1, true);
    spmd(&mut rows, "sinkhorn.equal.accel", &p, 4);
    spmd(&mut rows, "sgemm-micro.cpu", &sinkhorn::sgemm_micro(1), 1);
    spmd(
        &mut rows,
        "sgemm-micro.accel",
        &sinkhorn::accel_sgemm_micro(1),
        1,
    );
    for app in keras::all_apps() {
        let p = app.lower_accelerated();
        spmd(&mut rows, &format!("keras.{}", app.name), &p, 1);
    }
    rows
}

#[test]
fn interpreter_reproduces_every_recorded_row() {
    let rows = rows();
    if std::env::var_os("DTG_GOLDEN_WRITE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/dtg_golden.txt");
        std::fs::write(path, rows.join("\n") + "\n").expect("write the table");
        return;
    }
    let recorded: Vec<&str> = TABLE.lines().collect();
    assert_eq!(
        recorded.len(),
        rows.len(),
        "the systems and the table differ in number"
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
    // Fixed-width columns at the width of each stream's own address range:
    // measured 4.66x under version 1 over the table; the floor is 3.5x.
    let total = |column: &str| -> usize {
        let len = |row: &String| {
            let field = row.split(column).nth(1).expect("the column");
            let len = field.split(':').next().expect("len:hash");
            len.parse::<usize>().expect("a length")
        };
        rows.iter().map(len).sum()
    };
    let (v1, v2) = (total(" mstr="), total(" v2="));
    println!("MSTR over the table: {v1} bytes as version 1, {v2} as version 2");
    assert!(7 * v2 <= 2 * v1, "version 2 is {v2} bytes against {v1}");
}

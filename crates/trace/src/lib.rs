//! # mosaic-trace
//!
//! Dynamic trace containers — the output of MosaicSim's Dynamic Trace
//! Generator (paper §II-A). A [`KernelTrace`] holds, per tile:
//!
//! * the **control-flow path**: the sequence of basic-block ids actually
//!   taken (paper Fig. 3, "Taken Control Flow Path");
//! * the **memory trace**: for each static load/store/atomic instruction,
//!   the FIFO of addresses its dynamic instances touched (paper Fig. 3,
//!   "Address Trace per Load/Store Instruction");
//! * the **accelerator trace**: evaluated invocation parameters per
//!   accelerator call site (paper §II-B);
//! * retired-instruction counts.
//!
//! [`TraceRecorder`] implements [`mosaic_ir::TraceSink`], so recording a
//! trace is just running the interpreter with it:
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, MemImage, RtVal, run_single};
//! use mosaic_trace::TraceRecorder;
//!
//! let mut m = Module::new("demo");
//! let f = m.add_function("touch", vec![("p".into(), Type::Ptr)], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(f));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! let p = b.param(0);
//! let v = b.load(Type::I32, p);
//! b.store(p, v);
//! b.ret(None);
//!
//! let mut mem = MemImage::new();
//! let buf = mem.alloc_i32(1);
//! let mut rec = TraceRecorder::new(1);
//! run_single(&m, mem, f, vec![RtVal::Int(buf as i64)], &mut rec)?;
//! let trace = rec.finish();
//! assert_eq!(trace.tile(0).path().len(), 1);
//! assert_eq!(trace.tile(0).mem_access_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A finished trace is held packed — the path and every address stream a
//! column of fixed-width integers, the very bytes of its `MSTR` file — so
//! trace storage, paper §VI-B's cost, is what [`TraceSizeReport`] counts.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod file;

use std::sync::Arc;

use mosaic_ir::{AccelOp, BlockId, FuncId, InstId, TraceSink};

/// One dynamic memory access: the resolved address and access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub size: u8,
    /// Whether the access writes memory.
    pub write: bool,
}

/// One dynamic accelerator invocation with its evaluated parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelInvocation {
    /// The static call site.
    pub inst: InstId,
    /// Which accelerated function.
    pub accel: AccelOp,
    /// Evaluated arguments (pointers and sizes).
    pub args: Vec<i64>,
}

/// A column of `len` unsigned integers, each `width` little-endian bytes,
/// from byte `start` of its trace's `MSTR` file: the form a finished trace
/// holds its path and its address offsets in.
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    width: u8,
    len: usize,
    start: usize,
}

/// The fewest bytes that hold `max`.
fn width_for(max: u64) -> u8 {
    (64 - max.leading_zeros()).div_ceil(8) as u8
}

/// The largest value `width` (at most 8) bytes hold.
fn max_of_width(width: u8) -> u64 {
    u64::MAX.checked_shr(64 - 8 * u32::from(width)).unwrap_or(0)
}

impl Column {
    /// Value `i`, `bytes` being the file the column lies in.
    #[inline]
    fn get(&self, bytes: &[u8], i: usize) -> Option<u64> {
        let w = usize::from(self.width);
        let cell = (i < self.len).then(|| &bytes[self.start + i * w..][..w])?;
        Some(cell.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b)))
    }
}

/// The dynamic accesses of one static memory instruction, in execution
/// order. The size and direction are the instruction's own, so the stream
/// holds them once; access `i` touches `base + offsets[i]`, `base` being
/// the lowest address of the stream (or below it, where the encoder puts it).
#[derive(Debug, Clone, Copy, Default)]
struct MemStream {
    size: u8,
    write: bool,
    base: u64,
    offsets: Column,
}

/// The dynamic trace of one tile's kernel execution.
#[derive(Debug, Clone, Default)]
pub struct TileTrace {
    /// The trace's `MSTR` file, which the columns index.
    bytes: Arc<Vec<u8>>,
    func: Option<FuncId>,
    /// Block ids, 1–4 bytes each.
    path: Column,
    /// Per-instruction streams, indexed by `InstId` (empty: never ran).
    mem: Vec<MemStream>,
    accel: Vec<Vec<AccelInvocation>>,
    accel_order: Vec<AccelInvocation>,
    retired: u64,
}

/// Entry `i` of `table`, growing the table to reach it: off every hot path.
#[cold]
#[inline(never)]
fn slot_mut<T: Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

impl TileTrace {
    /// The kernel function this tile executed (if anything ran).
    pub fn func(&self) -> Option<FuncId> {
        self.func
    }

    /// The taken control-flow path: basic-block ids in execution order.
    #[inline]
    pub fn path(&self) -> impl ExactSizeIterator<Item = BlockId> + '_ {
        let block = |i| self.path.get(&self.bytes, i).expect("below len") as u32;
        (0..self.path.len).map(move |i| BlockId(block(i)))
    }

    /// The `i`-th dynamic access of one static memory instruction.
    #[inline]
    pub fn mem_access(&self, inst: InstId, i: usize) -> Option<MemAccess> {
        let stream = self.mem.get(inst.index())?;
        stream.offsets.get(&self.bytes, i).map(|offset| MemAccess {
            addr: stream.base + offset,
            size: stream.size,
            write: stream.write,
        })
    }

    /// The accesses of one static memory instruction, in dynamic execution
    /// order.
    pub fn mem_stream(&self, inst: InstId) -> impl ExactSizeIterator<Item = MemAccess> + '_ {
        let len = self.mem.get(inst.index()).map_or(0, |s| s.offsets.len);
        (0..len).map(move |i| self.mem_access(inst, i).expect("below len"))
    }

    /// All static memory instructions that executed at least once, in id
    /// order.
    pub fn mem_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        let ran = |(i, s): (usize, &MemStream)| (s.offsets.len > 0).then_some(InstId(i as u32));
        self.mem.iter().enumerate().filter_map(ran)
    }

    /// Total dynamic memory accesses.
    pub fn mem_access_count(&self) -> u64 {
        self.mem.iter().map(|s| s.offsets.len as u64).sum()
    }

    /// The invocation stream of one static accelerator call site.
    pub fn accel_stream(&self, inst: InstId) -> &[AccelInvocation] {
        self.accel.get(inst.index()).map_or(&[], Vec::as_slice)
    }

    /// All accelerator invocations in dynamic order.
    pub fn accel_invocations(&self) -> &[AccelInvocation] {
        &self.accel_order
    }

    /// Retired dynamic instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

/// A complete kernel trace: one [`TileTrace`] per tile.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// Its `MSTR` file, which every tile's columns index.
    bytes: Arc<Vec<u8>>,
    /// Shared, so every system built over the trace replays the same
    /// copy ([`tile_shared`](Self::tile_shared)).
    tiles: Vec<Arc<TileTrace>>,
    /// What each component takes of the file.
    size: TraceSizeReport,
}

impl KernelTrace {
    /// Number of tiles in the trace.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// The trace of one tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn tile(&self, tile: usize) -> &TileTrace {
        &self.tiles[tile]
    }

    /// A shared handle to the trace of one tile, for a tile model to
    /// keep.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn tile_shared(&self, tile: usize) -> Arc<TileTrace> {
        Arc::clone(&self.tiles[tile])
    }

    /// Iterates over all tile traces.
    pub fn tiles(&self) -> impl Iterator<Item = &TileTrace> {
        self.tiles.iter().map(|t| &**t)
    }

    /// Total retired instructions across tiles.
    pub fn total_retired(&self) -> u64 {
        self.tiles.iter().map(|t| t.retired).sum()
    }
}

/// Encoded sizes of the three trace components — headers and columns as
/// `MSTR` holds them (paper §VI-B: control-flow and DDG traces are
/// typically small; memory traces dominate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSizeReport {
    /// Bytes for the control-flow path.
    pub control_flow_bytes: u64,
    /// Bytes for the per-instruction address streams.
    pub memory_bytes: u64,
    /// Bytes for accelerator invocation parameters.
    pub accel_bytes: u64,
}

impl TraceSizeReport {
    /// Total trace footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.control_flow_bytes + self.memory_bytes + self.accel_bytes
    }
}

/// Values as recorded, in chunks of 16, 32, … up to 8192 values: a column
/// grows without moving what it holds, into whatever room the heap has.
type Chunks<T> = Vec<Vec<T>>;

/// Appends `v` to `chunks`, starting a chunk if the last is full.
fn push<T>(chunks: &mut Chunks<T>, v: T) {
    if chunks.last().is_none_or(|c| c.len() == c.capacity()) {
        let cap = chunks.last().map_or(16, |c| (2 * c.len()).min(8192));
        chunks.push(Vec::with_capacity(cap));
    }
    chunks.last_mut().expect("a chunk with room").push(v);
}

/// The last chunk of `chunks`, if it has room for a value.
#[inline(always)]
fn room<T>(chunks: &mut Chunks<T>) -> Option<&mut Vec<T>> {
    chunks.last_mut().filter(|c| c.len() < c.capacity())
}

/// One tile as it is recorded: block ids and addresses at full width.
#[derive(Debug, Clone, Default)]
struct Recording {
    func: Option<FuncId>,
    path: Chunks<u32>,
    /// Per instruction: its addresses, and the size and direction they share.
    mem: Vec<(Chunks<u64>, u8, bool)>,
    calls: Vec<AccelInvocation>,
    retired: u64,
}

/// Records a [`KernelTrace`] during functional execution.
///
/// Implements [`mosaic_ir::TraceSink`]; pass it to the interpreter and call
/// [`finish`](Self::finish) afterwards, which packs what was recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    tiles: Vec<Recording>,
}

impl TraceRecorder {
    /// A recorder for `tiles` tiles.
    pub fn new(tiles: usize) -> Self {
        TraceRecorder {
            tiles: vec![Recording::default(); tiles],
        }
    }

    /// Consumes the recorder, yielding the trace: what it recorded, encoded
    /// as an `MSTR` file and read back as any file is.
    pub fn finish(self) -> KernelTrace {
        KernelTrace::index(file::encode(self.tiles)).expect("a recorded trace reads back")
    }

    /// `on_block` past its fast path: a tile's first block, a full chunk,
    /// or a tile past the table.
    #[cold]
    #[inline(never)]
    fn on_block_slow(&mut self, tile: usize, func: FuncId, block: BlockId) {
        let t = slot_mut(&mut self.tiles, tile);
        t.func.get_or_insert(func);
        push(&mut t.path, block.0);
    }

    /// `on_mem` past its fast path: a stream's first access, a full chunk,
    /// a tile or an instruction past its table, or an access of another
    /// size or direction, which panics.
    #[cold]
    #[inline(never)]
    fn on_mem_slow(&mut self, tile: usize, inst: InstId, addr: u64, size: u8, write: bool) {
        let mem = &mut slot_mut(&mut self.tiles, tile).mem;
        let (addrs, of_size, of_write) = slot_mut(mem, inst.index());
        assert!(
            addrs.is_empty() || (*of_size, *of_write) == (size, write),
            "{inst:?} changed its access size or direction"
        );
        (*of_size, *of_write) = (size, write);
        push(addrs, addr);
    }
}

/// Each event's fast path, inlined into the interpreter: a value into the
/// room its stream's last chunk has. Anything else takes the cold path.
impl TraceSink for TraceRecorder {
    #[inline]
    fn on_block(&mut self, tile: usize, func: FuncId, block: BlockId) {
        let t = self.tiles.get_mut(tile).filter(|t| t.func.is_some());
        match t.and_then(|t| room(&mut t.path)) {
            Some(chunk) => chunk.push(block.0),
            None => self.on_block_slow(tile, func, block),
        }
    }

    #[inline(always)]
    fn on_mem(&mut self, tile: usize, inst: InstId, addr: u64, size: u8, write: bool) {
        let stream = self.tiles.get_mut(tile).map(|t| &mut t.mem);
        let stream = stream.and_then(|mem| mem.get_mut(inst.index()));
        let same = stream.filter(|s| (s.1, s.2) == (size, write));
        match same.and_then(|s| room(&mut s.0)) {
            Some(chunk) => chunk.push(addr),
            None => self.on_mem_slow(tile, inst, addr, size, write),
        }
    }

    fn on_accel(&mut self, tile: usize, inst: InstId, accel: AccelOp, args: &[i64]) {
        let (calls, args) = (&mut slot_mut(&mut self.tiles, tile).calls, args.to_vec());
        calls.push(AccelInvocation { inst, accel, args });
    }

    fn on_turn(&mut self, tile: usize, retired: u64) {
        slot_mut(&mut self.tiles, tile).retired += retired;
    }
}

/// Replay position in one tile's trace, without a borrow of the trace:
/// how far along the control-flow path the replay is, and how many
/// entries of each static instruction's memory or accelerator stream it
/// has consumed. [`TileTraceCursor`] pairs it with its trace; a tile model
/// that owns its trace embeds it directly and checkpoints it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CursorPos {
    /// Blocks consumed from the control-flow path.
    pub path_pos: usize,
    /// Entries consumed per stream, indexed by `InstId` (an instruction
    /// has a memory stream or an accelerator stream, never both).
    pub stream_pos: Vec<u32>,
}

impl CursorPos {
    /// The position at the start of `trace`.
    pub fn new(trace: &TileTrace) -> Self {
        CursorPos {
            path_pos: 0,
            stream_pos: vec![0; trace.mem.len().max(trace.accel.len())],
        }
    }

    /// The block `k` entries ahead on the path, without consuming it.
    #[inline]
    pub fn peek_block_at(&self, trace: &TileTrace, k: usize) -> Option<BlockId> {
        let block = trace.path.get(&trace.bytes, self.path_pos + k);
        block.map(|b| BlockId(b as u32))
    }

    /// Consumes and returns the next block on the path.
    #[inline]
    pub(crate) fn next_block(&mut self, trace: &TileTrace) -> Option<BlockId> {
        let b = self.peek_block_at(trace, 0);
        self.path_pos += usize::from(b.is_some());
        b
    }

    /// Consumes the next dynamic access of memory instruction `inst`.
    #[inline]
    pub fn next_mem(&mut self, trace: &TileTrace, inst: InstId) -> Option<MemAccess> {
        let pos = self.stream_pos.get_mut(inst.index())?;
        let access = trace.mem_access(inst, *pos as usize)?;
        *pos += 1;
        Some(access)
    }

    /// Consumes the next dynamic invocation of accelerator call site
    /// `inst`, returning its index in [`TileTrace::accel_stream`].
    pub fn next_accel(&mut self, trace: &TileTrace, inst: InstId) -> Option<usize> {
        let pos = self.stream_pos.get_mut(inst.index())?;
        let at = *pos as usize;
        trace.accel_stream(inst).get(at)?;
        *pos += 1;
        Some(at)
    }
}

/// Cursor over one tile's trace during timing replay: hands out block ids
/// and per-instruction addresses in the order the timing model consumes
/// them (paper §II-A: DBBs are launched serially in trace order).
#[derive(Debug)]
pub struct TileTraceCursor<'t> {
    trace: &'t TileTrace,
    pos: CursorPos,
}

impl<'t> TileTraceCursor<'t> {
    /// A cursor at the start of `trace`.
    pub fn new(trace: &'t TileTrace) -> Self {
        TileTraceCursor {
            trace,
            pos: CursorPos::new(trace),
        }
    }

    /// Consumes and returns the next block on the path.
    #[inline]
    pub fn next_block(&mut self) -> Option<BlockId> {
        self.pos.next_block(self.trace)
    }

    /// Consumes the next dynamic access of static memory instruction
    /// `inst`.
    ///
    /// Returns `None` if the instruction has no further recorded accesses
    /// (which indicates a replay/trace mismatch).
    #[inline]
    pub fn next_mem(&mut self, inst: InstId) -> Option<MemAccess> {
        self.pos.next_mem(self.trace, inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{run_single, BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal, Type};

    fn traced_loop(n: i64) -> (KernelTrace, InstId) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, nn) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        let mut load_id = None;
        b.emit_counted_loop("l", Constant::i64(0).into(), nn, |b, i| {
            let a = b.gep(p, i, 4);
            let v = b.load(Type::I32, a);
            load_id = v.as_inst();
            let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
            b.store(a, v2);
        });
        b.ret(None);
        let mut mem = MemImage::new();
        let p = mem.alloc_i32(n as u64);
        let mut rec = TraceRecorder::new(1);
        run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(p as i64), RtVal::Int(n)],
            &mut rec,
        )
        .unwrap();
        (rec.finish(), load_id.unwrap())
    }

    #[test]
    fn path_records_loop_iterations() {
        let (trace, _) = traced_loop(4);
        // entry, (header, body) x 4, final header, cont
        let t = trace.tile(0);
        assert_eq!(t.path().len(), 1 + 2 * 4 + 1 + 1);
        assert_eq!(t.path().next(), Some(BlockId(0)));
    }

    #[test]
    fn mem_stream_is_sequential() {
        let (trace, load_id) = traced_loop(4);
        let stream: Vec<MemAccess> = trace.tile(0).mem_stream(load_id).collect();
        assert_eq!(stream.len(), 4);
        for w in stream.windows(2) {
            assert_eq!(w[1].addr - w[0].addr, 4);
        }
        assert!(stream.iter().all(|a| !a.write && a.size == 4));
    }

    #[test]
    fn cursor_consumes_in_order() {
        let (trace, load_id) = traced_loop(3);
        let mut cur = TileTraceCursor::new(trace.tile(0));
        let mut blocks = Vec::new();
        while let Some(block) = cur.next_block() {
            blocks.push(block);
        }
        assert!(trace.tile(0).path().eq(blocks));
        let a0 = cur.next_mem(load_id).unwrap();
        let a1 = cur.next_mem(load_id).unwrap();
        let a2 = cur.next_mem(load_id).unwrap();
        assert!(cur.next_mem(load_id).is_none());
        assert!(a0.addr < a1.addr && a1.addr < a2.addr);
    }

    /// A stream is packed at the width of its own address range, wherever
    /// in the address space it lies, and block ids at the width of the
    /// largest.
    #[test]
    fn packing_keeps_every_address_and_block() {
        let spans: [&[u64]; 5] = [
            &[7, 7, 7],
            &[0x1000, 0x10ff, 0x1001],
            &[0x2_0000_0300, 0x2_0000_0000, 0x2_0001_0000],
            &[u64::MAX, u64::MAX - 300, 0],
            &[u64::MAX, u64::MAX - 1],
        ];
        let mut rec = TraceRecorder::new(1);
        for (inst, addrs) in spans.iter().enumerate() {
            for &addr in *addrs {
                rec.on_mem(0, InstId(inst as u32 * 3), addr, 4, inst % 2 == 1);
            }
        }
        let blocks = [0, 255, 256, 70_000, 1 << 24, u32::MAX];
        for b in blocks {
            rec.on_block(0, FuncId(0), BlockId(b));
        }
        let trace = rec.finish();
        let t = trace.tile(0);
        assert!(t.path().map(|b| b.0).eq(blocks));
        assert_eq!(t.path.width, 4);
        for (inst, addrs) in spans.iter().enumerate() {
            let id = InstId(inst as u32 * 3);
            assert!(t.mem_stream(id).map(|a| a.addr).eq(addrs.iter().copied()));
            assert!(t
                .mem_stream(id)
                .all(|a| a.size == 4 && a.write == (inst % 2 == 1)));
            assert_eq!(t.mem[id.index()].offsets.width, [0, 1, 3, 8, 1][inst]);
            assert_eq!(t.mem_access(id, addrs.len()), None);
        }
        assert_eq!(
            t.mem_stream(InstId(1)).len() + t.mem_stream(InstId(99)).len(),
            0
        );
        assert_eq!(CursorPos::new(t).stream_pos.len(), 13);
        // The reader takes all of it back, the streams at the top of the
        // address space included.
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        let back = KernelTrace::read_from(&mut file.as_slice()).unwrap();
        assert!(back.tile(0).path().eq(t.path()));
        for id in t.mem_insts() {
            assert!(back.tile(0).mem_stream(id).eq(t.mem_stream(id)), "{id:?}");
        }
    }

    #[test]
    #[should_panic(expected = "changed its access size or direction")]
    fn an_instruction_has_one_width_and_direction() {
        let mut rec = TraceRecorder::new(1);
        rec.on_mem(0, InstId(0), 64, 4, false);
        rec.on_mem(0, InstId(0), 68, 8, false);
    }

    /// The recorder's cold paths: a stream's first access, every chunk
    /// boundary (16, 32, … up to 8192 values, then 8192 again), and a tile
    /// past the count it was made for. What was recorded reads back whole.
    #[test]
    fn the_recorder_s_cold_paths_keep_every_event() {
        let (n, mut rec) = (3 * 8192 + 100, TraceRecorder::new(1));
        let addr = |i: usize| 0x40 + 8 * i as u64;
        for i in 0..n {
            rec.on_block(0, FuncId(1), BlockId(i as u32 % 300));
            rec.on_mem(0, InstId(2), addr(i), 8, i == usize::MAX);
            rec.on_turn(0, 1);
        }
        // Tile 3 of a recorder made for one: its events, not a panic.
        rec.on_turn(3, 1);
        rec.on_mem(3, InstId(0), 0x80, 4, true);
        rec.on_block(3, FuncId(2), BlockId(7));
        let sizes = |chunks: &Chunks<u64>| chunks.iter().map(Vec::len).collect::<Vec<_>>();
        let doubling = (4..=13).map(|k| 1 << k);
        let want: Vec<usize> = doubling.chain([8192, n - (2 * 8192 + 8176)]).collect();
        assert_eq!(sizes(&rec.tiles[0].mem[2].0), want);
        let trace = rec.finish();
        let t = trace.tile(0);
        assert!(t.path().eq((0..n).map(|i| BlockId(i as u32 % 300))));
        let access = |i| MemAccess {
            addr: addr(i),
            size: 8,
            write: false,
        };
        assert!(t.mem_stream(InstId(2)).eq((0..n).map(access)));
        assert_eq!((t.func(), t.retired()), (Some(FuncId(1)), n as u64));
        let late = trace.tile(3);
        assert_eq!(
            (trace.tile_count(), late.func(), late.retired()),
            (4, Some(FuncId(2)), 1)
        );
        assert_eq!(late.mem_access(InstId(0), 0).map(|a| a.addr), Some(0x80));
    }

    /// An access of another size or direction panics, in the middle of a
    /// chunk and where a chunk is full alike.
    #[test]
    fn a_changed_size_or_direction_panics_wherever_it_falls() {
        for (before, size, write) in [(5, 8, false), (5, 4, true), (16, 2, false), (48, 4, true)] {
            let mut rec = TraceRecorder::new(1);
            for i in 0..before {
                rec.on_mem(0, InstId(4), 64 + 4 * i, 4, false);
            }
            let change = std::panic::catch_unwind(move || rec.on_mem(0, InstId(4), 0, size, write));
            let err = change.expect_err("a changed access panics");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(
                msg, "InstId(4) changed its access size or direction",
                "after {before}"
            );
        }
    }

    #[test]
    fn retired_counts_match_interp() {
        let (trace, _) = traced_loop(2);
        assert!(trace.total_retired() > 0);
        assert_eq!(trace.tile_count(), 1);
    }
}

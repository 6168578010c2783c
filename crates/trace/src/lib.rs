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
//! The paper notes (§VI-B) that memory traces dominate trace storage;
//! [`TraceSizeReport`] reproduces that accounting.

#![warn(missing_docs)]

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

/// The dynamic trace of one tile's kernel execution.
#[derive(Debug, Clone, Default)]
pub struct TileTrace {
    func: Option<FuncId>,
    path: Vec<BlockId>,
    /// Per-instruction streams, indexed by `InstId` (empty: never ran).
    mem: Vec<Vec<MemAccess>>,
    accel: Vec<Vec<AccelInvocation>>,
    accel_order: Vec<AccelInvocation>,
    retired: u64,
}

/// The stream of `inst` in a table indexed by `InstId`, growing the table
/// to reach it.
#[inline]
fn stream_mut<T>(streams: &mut Vec<Vec<T>>, inst: InstId) -> &mut Vec<T> {
    if inst.index() >= streams.len() {
        streams.resize_with(inst.index() + 1, Vec::new);
    }
    &mut streams[inst.index()]
}

impl TileTrace {
    /// The kernel function this tile executed (if anything ran).
    pub fn func(&self) -> Option<FuncId> {
        self.func
    }

    /// The taken control-flow path: basic-block ids in execution order.
    pub fn path(&self) -> &[BlockId] {
        &self.path
    }

    /// The address stream of one static memory instruction, in dynamic
    /// execution order.
    pub fn mem_stream(&self, inst: InstId) -> &[MemAccess] {
        self.mem.get(inst.index()).map_or(&[], Vec::as_slice)
    }

    /// All static memory instructions that executed at least once, in id
    /// order.
    pub fn mem_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        let ran = self.mem.iter().enumerate().filter(|(_, s)| !s.is_empty());
        ran.map(|(i, _)| InstId(i as u32))
    }

    /// Total dynamic memory accesses.
    pub fn mem_access_count(&self) -> u64 {
        self.mem.iter().map(|v| v.len() as u64).sum()
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
#[derive(Debug, Clone, Default)]
pub struct KernelTrace {
    /// Shared, so every system built over the trace replays the same
    /// copy ([`tile_shared`](Self::tile_shared)).
    tiles: Vec<Arc<TileTrace>>,
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

    /// Storage accounting, mirroring the paper's §VI-B discussion.
    pub fn size_report(&self) -> TraceSizeReport {
        let mut r = TraceSizeReport::default();
        for t in &self.tiles {
            r.control_flow_bytes += 4 * t.path.len() as u64;
            r.memory_bytes += 9 * t.mem_access_count(); // 8-byte address + 1-byte size/kind
            r.accel_bytes += t
                .accel_order
                .iter()
                .map(|a| 8 * a.args.len() as u64 + 4)
                .sum::<u64>();
        }
        r
    }
}

/// Byte sizes of the three trace components (paper §VI-B: control-flow and
/// DDG traces are typically small; memory traces dominate).
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

/// Records a [`KernelTrace`] during functional execution.
///
/// Implements [`mosaic_ir::TraceSink`]; pass it to the interpreter and call
/// [`finish`](Self::finish) afterwards.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    tiles: Vec<TileTrace>,
}

impl TraceRecorder {
    /// A recorder for `tiles` tiles.
    pub fn new(tiles: usize) -> Self {
        TraceRecorder {
            tiles: vec![TileTrace::default(); tiles],
        }
    }

    /// Consumes the recorder, yielding the trace.
    pub fn finish(self) -> KernelTrace {
        KernelTrace {
            tiles: self.tiles.into_iter().map(Arc::new).collect(),
        }
    }

    #[inline]
    fn tile_mut(&mut self, tile: usize) -> &mut TileTrace {
        if tile >= self.tiles.len() {
            self.tiles.resize(tile + 1, TileTrace::default());
        }
        &mut self.tiles[tile]
    }
}

impl TraceSink for TraceRecorder {
    #[inline]
    fn on_block(&mut self, tile: usize, func: FuncId, block: BlockId) {
        let t = self.tile_mut(tile);
        t.func.get_or_insert(func);
        t.path.push(block);
    }

    #[inline]
    fn on_mem(&mut self, tile: usize, inst: InstId, addr: u64, size: u8, write: bool) {
        stream_mut(&mut self.tile_mut(tile).mem, inst).push(MemAccess { addr, size, write });
    }

    fn on_accel(&mut self, tile: usize, inst: InstId, accel: AccelOp, args: &[i64]) {
        let inv = AccelInvocation {
            inst,
            accel,
            args: args.to_vec(),
        };
        let t = self.tile_mut(tile);
        stream_mut(&mut t.accel, inst).push(inv.clone());
        t.accel_order.push(inv);
    }

    #[inline]
    fn on_retire(&mut self, tile: usize) {
        self.tile_mut(tile).retired += 1;
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
    pub fn peek_block_at(&self, trace: &TileTrace, k: usize) -> Option<BlockId> {
        trace.path.get(self.path_pos + k).copied()
    }

    /// Consumes and returns the next block on the path.
    pub fn next_block(&mut self, trace: &TileTrace) -> Option<BlockId> {
        let b = self.peek_block_at(trace, 0);
        self.path_pos += usize::from(b.is_some());
        b
    }

    /// Index of the next unconsumed entry of `inst`'s `len`-entry stream,
    /// consuming it; `None` when the stream is exhausted.
    fn advance(&mut self, inst: InstId, len: usize) -> Option<usize> {
        let pos = self.stream_pos.get_mut(inst.index())?;
        let at = *pos as usize;
        (at < len).then(|| {
            *pos += 1;
            at
        })
    }

    /// Consumes the next dynamic access of memory instruction `inst`.
    pub fn next_mem(&mut self, trace: &TileTrace, inst: InstId) -> Option<MemAccess> {
        let stream = trace.mem_stream(inst);
        self.advance(inst, stream.len()).map(|at| stream[at])
    }

    /// Consumes the next dynamic invocation of accelerator call site
    /// `inst`, returning its index in [`TileTrace::accel_stream`].
    pub fn next_accel(&mut self, trace: &TileTrace, inst: InstId) -> Option<usize> {
        self.advance(inst, trace.accel_stream(inst).len())
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

    /// Looks `k` blocks ahead on the control-flow path without consuming
    /// anything (0 = the block [`next_block`](Self::next_block) returns).
    pub fn peek_block_at(&self, k: usize) -> Option<BlockId> {
        self.pos.peek_block_at(self.trace, k)
    }

    /// Consumes and returns the next block on the path.
    pub fn next_block(&mut self) -> Option<BlockId> {
        self.pos.next_block(self.trace)
    }

    /// Whether the whole path has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos.path_pos >= self.trace.path.len()
    }

    /// Consumes the next dynamic access of static memory instruction
    /// `inst`.
    ///
    /// Returns `None` if the instruction has no further recorded accesses
    /// (which indicates a replay/trace mismatch).
    pub fn next_mem(&mut self, inst: InstId) -> Option<MemAccess> {
        self.pos.next_mem(self.trace, inst)
    }

    /// Consumes the next dynamic invocation of accelerator call site
    /// `inst`.
    pub fn next_accel(&mut self, inst: InstId) -> Option<&'t AccelInvocation> {
        let at = self.pos.next_accel(self.trace, inst)?;
        Some(&self.trace.accel_stream(inst)[at])
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
        assert_eq!(t.path()[0], BlockId(0));
    }

    #[test]
    fn mem_stream_is_sequential() {
        let (trace, load_id) = traced_loop(4);
        let stream = trace.tile(0).mem_stream(load_id);
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
        assert_eq!(cur.peek_block_at(0), Some(BlockId(0)));
        let mut blocks = 0;
        while cur.next_block().is_some() {
            blocks += 1;
        }
        assert_eq!(blocks, trace.tile(0).path().len());
        assert!(cur.is_done());
        let a0 = cur.next_mem(load_id).unwrap();
        let a1 = cur.next_mem(load_id).unwrap();
        let a2 = cur.next_mem(load_id).unwrap();
        assert!(cur.next_mem(load_id).is_none());
        assert!(a0.addr < a1.addr && a1.addr < a2.addr);
    }

    #[test]
    fn size_report_counts_components() {
        let (trace, _) = traced_loop(8);
        let r = trace.size_report();
        assert_eq!(r.control_flow_bytes, 4 * trace.tile(0).path().len() as u64);
        assert_eq!(r.memory_bytes, 9 * trace.tile(0).mem_access_count());
        assert_eq!(r.total_bytes(), r.control_flow_bytes + r.memory_bytes);
    }

    #[test]
    fn retired_counts_match_interp() {
        let (trace, _) = traced_loop(2);
        assert!(trace.total_retired() > 0);
        assert_eq!(trace.tile_count(), 1);
    }
}

//! End-to-end convenience pipeline: build IR → functional run (trace) →
//! timing simulation — the full MosaicSim flow of paper Fig. 3.

use std::sync::Arc;

use mosaic_ir::{ExecError, ExecOutcome, FuncId, MemImage, Module, RtVal, TileProgram};
use mosaic_mem::HierarchyConfig;
use mosaic_tile::CoreConfig;
use mosaic_trace::{KernelTrace, TraceRecorder};

use crate::error::MosaicError;
use crate::system::{SimReport, SystemBuilder};

/// Runs the Dynamic Trace Generator: functionally executes `programs`
/// over `mem`, recording the control-flow and memory traces
/// (paper §II-A).
///
/// # Errors
///
/// Propagates interpreter deadlocks, traps, and step-limit overruns.
pub fn record_trace(
    module: &Module,
    mem: MemImage,
    programs: &[TileProgram],
) -> Result<(KernelTrace, ExecOutcome), ExecError> {
    let mut rec = TraceRecorder::new(programs.len());
    let out = mosaic_ir::run_tiles(module, mem, programs, &mut rec)?;
    Ok((rec.finish(), out))
}

/// Traces and simulates an SPMD kernel on `n` identical cores sharing the
/// memory hierarchy (paper §II-B's SPMD model).
///
/// # Errors
///
/// Returns [`MosaicError`] if tracing or simulation fails.
///
/// # Examples
///
/// ```
/// use mosaic_core::{simulate_spmd, small_memory};
/// use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp, MemImage, RtVal};
/// use mosaic_tile::CoreConfig;
///
/// let mut m = Module::new("demo");
/// let f = m.add_function("k", vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)], Type::Void);
/// let mut b = FunctionBuilder::new(m.function_mut(f));
/// let (p, n) = (b.param(0), b.param(1));
/// let e = b.create_block("entry");
/// b.switch_to(e);
/// // Each tile handles an interleaved slice of 0..n.
/// let tid = b.tile_id();
/// let nt = b.num_tiles();
/// let header = b.create_block("header");
/// let body = b.create_block("body");
/// let exit = b.create_block("exit");
/// b.br(header);
/// b.switch_to(header);
/// let (i, i_phi) = b.phi_incomplete(Type::I64);
/// let c = b.icmp(mosaic_ir::IntPredicate::Slt, i, n);
/// b.cond_br(c, body, exit);
/// b.switch_to(body);
/// let a = b.gep(p, i, 4);
/// let v = b.load(Type::I32, a);
/// let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
/// b.store(a, v2);
/// let i2 = b.bin(BinOp::Add, i, nt);
/// b.br(header);
/// b.phi_add_incoming(i_phi, e, tid);
/// b.phi_add_incoming(i_phi, body, i2);
/// b.switch_to(exit);
/// b.ret(None);
/// mosaic_ir::verify_module(&m)?;
///
/// let mut img = MemImage::new();
/// let buf = img.alloc_i32(64);
/// let report = simulate_spmd(
///     m, f,
///     vec![RtVal::Int(buf as i64), RtVal::Int(64)],
///     img, 2,
///     CoreConfig::out_of_order(),
///     small_memory(),
/// )?;
/// assert!(report.cycles > 0);
/// assert_eq!(report.tiles.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_spmd(
    module: Module,
    func: FuncId,
    args: Vec<RtVal>,
    mem_image: MemImage,
    n: usize,
    core: CoreConfig,
    memory: HierarchyConfig,
) -> Result<SimReport, MosaicError> {
    let programs = TileProgram::spmd(func, args, n);
    let (trace, _out) = record_trace(&module, mem_image, &programs)?;
    let module = Arc::new(module);
    let trace = Arc::new(trace);
    SystemBuilder::new(module, trace)
        .memory(memory)
        .spmd(core, func, n)
        .run()
}

/// Traces and simulates a kernel on a single core.
///
/// # Errors
///
/// Returns [`MosaicError`] if tracing or simulation fails.
pub fn simulate_single(
    module: Module,
    func: FuncId,
    args: Vec<RtVal>,
    mem_image: MemImage,
    core: CoreConfig,
    memory: HierarchyConfig,
) -> Result<SimReport, MosaicError> {
    simulate_spmd(module, func, args, mem_image, 1, core, memory)
}

//! Functional multi-tile interpreter — the Dynamic Trace Generator.
//!
//! The paper's DTG instruments an x86 binary and runs it natively to record
//! (1) the taken control-flow path and (2) the address of every memory
//! access (paper §II-A). Here the same information is produced by executing
//! the IR directly: each tile's kernel runs as a coroutine-style state
//! machine over a shared [`MemImage`], with `send`/`recv` implemented as
//! blocking FIFO queues so Decoupled Access/Execute slices (paper §VII-A)
//! execute functionally before being timed.
//!
//! Trace consumers implement [`TraceSink`]; `mosaic-trace` provides the
//! standard recording sink.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::function::{Function, Module};
use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, IntPredicate, Intrinsic, Opcode, Operand};
use crate::mem_image::{MemImage, RtVal};
use crate::types::{Constant, Type};

/// Receives dynamic events during functional execution.
///
/// All methods have empty defaults so sinks only record what they need.
pub trait TraceSink {
    /// A tile entered a basic block.
    fn on_block(&mut self, _tile: usize, _func: FuncId, _block: BlockId) {}
    /// A tile performed a memory access of `size` bytes at `addr`.
    fn on_mem(&mut self, _tile: usize, _inst: InstId, _addr: u64, _size: u8, _write: bool) {}
    /// A tile invoked an accelerator with the given evaluated arguments.
    fn on_accel(&mut self, _tile: usize, _inst: InstId, _accel: AccelOp, _args: &[i64]) {}
    /// A tile retired one instruction.
    fn on_retire(&mut self, _tile: usize) {}
}

/// A sink that discards all events.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// What one tile executes: a kernel function, its arguments, and the SPMD
/// environment (`tile_id` / `num_tiles`) it observes.
#[derive(Debug, Clone)]
pub struct TileProgram {
    /// The kernel function to run.
    pub func: FuncId,
    /// Argument values (one per function parameter).
    pub args: Vec<RtVal>,
    /// Value returned by the `tile_id` intrinsic.
    pub tile_id: i64,
    /// Value returned by the `num_tiles` intrinsic.
    pub num_tiles: i64,
    /// Offset added to every queue id this tile touches, so several
    /// instances of the same kernel pair (e.g. SPMD DAE pairs) get
    /// private queues.
    pub queue_offset: u32,
}

impl TileProgram {
    /// A single-tile program (`tile_id = 0`, `num_tiles = 1`).
    pub fn single(func: FuncId, args: Vec<RtVal>) -> Self {
        TileProgram {
            func,
            args,
            tile_id: 0,
            num_tiles: 1,
            queue_offset: 0,
        }
    }

    /// Sets the queue-id offset (builder-style).
    pub fn with_queue_offset(mut self, offset: u32) -> Self {
        self.queue_offset = offset;
        self
    }

    /// An SPMD program set: `n` tiles all running `func` with the same
    /// arguments, each observing its own `tile_id` (paper §II-B).
    pub fn spmd(func: FuncId, args: Vec<RtVal>, n: usize) -> Vec<Self> {
        (0..n)
            .map(|t| TileProgram {
                func,
                args: args.clone(),
                tile_id: t as i64,
                num_tiles: n as i64,
                queue_offset: 0,
            })
            .collect()
    }
}

/// Errors produced by functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Every unfinished tile is blocked on an empty queue.
    Deadlock {
        /// Indices of the blocked tiles.
        blocked: Vec<usize>,
    },
    /// The global step limit was exceeded.
    StepLimit(u64),
    /// A runtime fault (division by zero, unknown accelerator semantics
    /// where results are required, ...).
    Trap(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadlock { blocked } => {
                write!(f, "deadlock: tiles {blocked:?} blocked on empty queues")
            }
            ExecError::StepLimit(n) => write!(f, "step limit of {n} instructions exceeded"),
            ExecError::Trap(m) => write!(f, "trap: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a completed functional execution.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The memory image after execution (kernels mutate it in place).
    pub mem: MemImage,
    /// Per-tile return values.
    pub returns: Vec<Option<RtVal>>,
    /// Per-tile retired dynamic instruction counts.
    pub retired: Vec<u64>,
    /// Total dynamic instructions across tiles.
    pub steps: u64,
}

enum StepOutcome {
    Progress,
    Blocked,
    Finished,
}

struct TileState {
    func: FuncId,
    args: Vec<RtVal>,
    tile_id: i64,
    num_tiles: i64,
    queue_offset: u32,
    regs: Vec<Option<RtVal>>,
    block: BlockId,
    prev_block: Option<BlockId>,
    inst_idx: usize,
    finished: bool,
    ret: Option<RtVal>,
    retired: u64,
    entered_block: bool,
}

/// The functional executor.
///
/// Use [`run_tiles`] / [`run_single`] unless you need stepwise control.
pub struct Interpreter<'m, S: TraceSink> {
    module: &'m Module,
    mem: MemImage,
    tiles: Vec<TileState>,
    queues: BTreeMap<u32, VecDeque<RtVal>>,
    sink: &'m mut S,
    step_limit: u64,
    steps: u64,
}

impl<'m, S: TraceSink> fmt::Debug for Interpreter<'m, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("tiles", &self.tiles.len())
            .field("steps", &self.steps)
            .finish()
    }
}

impl<'m, S: TraceSink> Interpreter<'m, S> {
    /// Creates an executor over `programs` sharing `mem`.
    ///
    /// # Panics
    ///
    /// Panics if a program's argument count does not match its function.
    pub fn new(
        module: &'m Module,
        mem: MemImage,
        programs: &[TileProgram],
        sink: &'m mut S,
    ) -> Self {
        let tiles = programs
            .iter()
            .map(|p| {
                let func = module.function(p.func);
                assert_eq!(
                    p.args.len(),
                    func.params().len(),
                    "argument count mismatch for {}",
                    func.name()
                );
                TileState {
                    func: p.func,
                    args: p.args.clone(),
                    tile_id: p.tile_id,
                    num_tiles: p.num_tiles,
                    queue_offset: p.queue_offset,
                    regs: vec![None; func.inst_count()],
                    block: func.entry(),
                    prev_block: None,
                    inst_idx: 0,
                    finished: false,
                    ret: None,
                    retired: 0,
                    entered_block: false,
                }
            })
            .collect();
        Interpreter {
            module,
            mem,
            tiles,
            queues: BTreeMap::new(),
            sink,
            step_limit: 2_000_000_000,
            steps: 0,
        }
    }

    /// Overrides the global dynamic-instruction limit.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    fn eval(&self, tile: usize, op: Operand) -> RtVal {
        let st = &self.tiles[tile];
        match op {
            Operand::Const(Constant::Int(v, _)) => RtVal::Int(v),
            Operand::Const(Constant::Float(v, _)) => RtVal::Float(v),
            Operand::Param(n) => st.args[n as usize],
            Operand::Inst(id) => st.regs[id.index()]
                .unwrap_or_else(|| panic!("use of undefined value {id} (tile {tile})")),
        }
    }

    fn operand_ty(&self, func: &Function, op: Operand) -> Type {
        match op {
            Operand::Const(c) => c.ty(),
            Operand::Param(n) => func.params()[n as usize].1,
            Operand::Inst(id) => func.inst(id).ty(),
        }
    }

    fn binop(op: BinOp, a: RtVal, b: RtVal) -> Result<RtVal, ExecError> {
        Ok(match op {
            BinOp::Add => RtVal::Int(a.as_int().wrapping_add(b.as_int())),
            BinOp::Sub => RtVal::Int(a.as_int().wrapping_sub(b.as_int())),
            BinOp::Mul => RtVal::Int(a.as_int().wrapping_mul(b.as_int())),
            BinOp::SDiv => {
                let d = b.as_int();
                if d == 0 {
                    return Err(ExecError::Trap("integer division by zero".into()));
                }
                RtVal::Int(a.as_int().wrapping_div(d))
            }
            BinOp::SRem => {
                let d = b.as_int();
                if d == 0 {
                    return Err(ExecError::Trap("integer remainder by zero".into()));
                }
                RtVal::Int(a.as_int().wrapping_rem(d))
            }
            BinOp::UDiv => {
                let d = b.as_int() as u64;
                if d == 0 {
                    return Err(ExecError::Trap("integer division by zero".into()));
                }
                RtVal::Int(((a.as_int() as u64) / d) as i64)
            }
            BinOp::URem => {
                let d = b.as_int() as u64;
                if d == 0 {
                    return Err(ExecError::Trap("integer remainder by zero".into()));
                }
                RtVal::Int(((a.as_int() as u64) % d) as i64)
            }
            BinOp::And => RtVal::Int(a.as_int() & b.as_int()),
            BinOp::Or => RtVal::Int(a.as_int() | b.as_int()),
            BinOp::Xor => RtVal::Int(a.as_int() ^ b.as_int()),
            BinOp::Shl => RtVal::Int(a.as_int().wrapping_shl(b.as_int() as u32)),
            BinOp::AShr => RtVal::Int(a.as_int().wrapping_shr(b.as_int() as u32)),
            BinOp::LShr => RtVal::Int(((a.as_int() as u64).wrapping_shr(b.as_int() as u32)) as i64),
            BinOp::FAdd => RtVal::Float(a.as_float() + b.as_float()),
            BinOp::FSub => RtVal::Float(a.as_float() - b.as_float()),
            BinOp::FMul => RtVal::Float(a.as_float() * b.as_float()),
            BinOp::FDiv => RtVal::Float(a.as_float() / b.as_float()),
        })
    }

    fn icmp(pred: IntPredicate, a: i64, b: i64) -> bool {
        match pred {
            IntPredicate::Eq => a == b,
            IntPredicate::Ne => a != b,
            IntPredicate::Slt => a < b,
            IntPredicate::Sle => a <= b,
            IntPredicate::Sgt => a > b,
            IntPredicate::Sge => a >= b,
            IntPredicate::Ult => (a as u64) < (b as u64),
            IntPredicate::Uge => (a as u64) >= (b as u64),
        }
    }

    fn fcmp(pred: FloatPredicate, a: f64, b: f64) -> bool {
        match pred {
            FloatPredicate::Oeq => a == b,
            FloatPredicate::One => a != b,
            FloatPredicate::Olt => a < b,
            FloatPredicate::Ole => a <= b,
            FloatPredicate::Ogt => a > b,
            FloatPredicate::Oge => a >= b,
        }
    }

    fn intrinsic(&self, tile: usize, intr: Intrinsic, args: &[RtVal]) -> RtVal {
        let st = &self.tiles[tile];
        match intr {
            Intrinsic::TileId => RtVal::Int(st.tile_id),
            Intrinsic::NumTiles => RtVal::Int(st.num_tiles),
            Intrinsic::Sqrt => RtVal::Float(args[0].as_float().sqrt()),
            Intrinsic::Rsqrt => RtVal::Float(1.0 / args[0].as_float().sqrt()),
            Intrinsic::Exp => RtVal::Float(args[0].as_float().exp()),
            Intrinsic::Log => RtVal::Float(args[0].as_float().ln()),
            Intrinsic::Sin => RtVal::Float(args[0].as_float().sin()),
            Intrinsic::Cos => RtVal::Float(args[0].as_float().cos()),
            Intrinsic::FAbs => RtVal::Float(args[0].as_float().abs()),
            Intrinsic::Floor => RtVal::Float(args[0].as_float().floor()),
            Intrinsic::FMin => RtVal::Float(args[0].as_float().min(args[1].as_float())),
            Intrinsic::FMax => RtVal::Float(args[0].as_float().max(args[1].as_float())),
            Intrinsic::SMin => RtVal::Int(args[0].as_int().min(args[1].as_int())),
            Intrinsic::SMax => RtVal::Int(args[0].as_int().max(args[1].as_int())),
        }
    }

    /// Functional semantics of the accelerator library calls that produce
    /// data later read by the program. Accelerators used purely for
    /// performance modeling (the Keras layer set) do not mutate memory.
    fn accel_functional(&mut self, accel: AccelOp, args: &[i64]) {
        match accel {
            AccelOp::Sgemm => {
                let (a, b, c, m, n, k) = (
                    args[0] as u64,
                    args[1] as u64,
                    args[2] as u64,
                    args[3] as usize,
                    args[4] as usize,
                    args[5] as usize,
                );
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            let av = self.mem.read_f32(a + 4 * (i * k + p) as u64);
                            let bv = self.mem.read_f32(b + 4 * (p * n + j) as u64);
                            acc += av * bv;
                        }
                        self.mem.write_f32(c + 4 * (i * n + j) as u64, acc);
                    }
                }
            }
            AccelOp::Histogram => {
                let (inp, out, n, bins) =
                    (args[0] as u64, args[1] as u64, args[2] as usize, args[3] as i32);
                for i in 0..n {
                    let v = self.mem.read_i32(inp + 4 * i as u64).clamp(0, bins - 1);
                    let addr = out + 4 * v as u64;
                    let old = self.mem.read_i32(addr);
                    // Saturating histogram (paper §VI-A): counts cap at u8 max
                    // scaled to i32 range of 255 like Parboil's sat histogram.
                    let new = (old + 1).min(255);
                    self.mem.write_i32(addr, new);
                }
            }
            AccelOp::ElementWise => {
                let (a, b, c, n) = (args[0] as u64, args[1] as u64, args[2] as u64, args[3] as usize);
                for i in 0..n {
                    let av = self.mem.read_f32(a + 4 * i as u64);
                    let bv = self.mem.read_f32(b + 4 * i as u64);
                    self.mem.write_f32(c + 4 * i as u64, av * bv);
                }
            }
            // Performance-model-only accelerators (Keras layer set).
            AccelOp::Conv2d
            | AccelOp::Dense
            | AccelOp::Relu
            | AccelOp::Pool2d
            | AccelOp::BatchNorm
            | AccelOp::Embedding => {}
        }
    }

    fn step(&mut self, tile: usize) -> Result<StepOutcome, ExecError> {
        if self.tiles[tile].finished {
            return Ok(StepOutcome::Finished);
        }
        let func_id = self.tiles[tile].func;
        let func = self.module.function(func_id);

        if !self.tiles[tile].entered_block {
            self.tiles[tile].entered_block = true;
            let block = self.tiles[tile].block;
            self.sink.on_block(tile, func_id, block);
        }

        let block = self.tiles[tile].block;
        let idx = self.tiles[tile].inst_idx;
        let iid = func.block(block).insts()[idx];
        let inst = func.inst(iid);

        // Phis at block top are evaluated as a parallel assignment on entry.
        if idx == 0 {
            if let Opcode::Phi { .. } = inst.op() {
                let insts = func.block(block).insts().to_vec();
                let mut updates = Vec::new();
                let mut count = 0usize;
                for &pid in &insts {
                    let pinst = func.inst(pid);
                    if let Opcode::Phi { incoming } = pinst.op() {
                        let prev = self.tiles[tile]
                            .prev_block
                            .expect("phi executed without predecessor");
                        let (_, val) = incoming
                            .iter()
                            .find(|(b, _)| *b == prev)
                            .unwrap_or_else(|| panic!("phi {pid} missing edge from {prev}"));
                        updates.push((pid, self.eval(tile, *val)));
                        count += 1;
                    } else {
                        break;
                    }
                }
                for (pid, v) in updates {
                    self.tiles[tile].regs[pid.index()] = Some(v);
                    self.tiles[tile].retired += 1;
                    self.sink.on_retire(tile);
                    self.steps += 1;
                }
                self.tiles[tile].inst_idx += count;
                return Ok(StepOutcome::Progress);
            }
        }

        let mut advance = true;
        let mut result: Option<RtVal> = None;

        match inst.op() {
            Opcode::Phi { .. } => {
                unreachable!("phi not at block top was rejected by the verifier")
            }
            Opcode::Bin { op, lhs, rhs } => {
                result = Some(Self::binop(*op, self.eval(tile, *lhs), self.eval(tile, *rhs))?);
            }
            Opcode::ICmp { pred, lhs, rhs } => {
                let v = Self::icmp(
                    *pred,
                    self.eval(tile, *lhs).as_int(),
                    self.eval(tile, *rhs).as_int(),
                );
                result = Some(RtVal::Int(v as i64));
            }
            Opcode::FCmp { pred, lhs, rhs } => {
                let v = Self::fcmp(
                    *pred,
                    self.eval(tile, *lhs).as_float(),
                    self.eval(tile, *rhs).as_float(),
                );
                result = Some(RtVal::Int(v as i64));
            }
            Opcode::Select {
                cond,
                on_true,
                on_false,
            } => {
                let c = self.eval(tile, *cond).as_bool();
                result = Some(if c {
                    self.eval(tile, *on_true)
                } else {
                    self.eval(tile, *on_false)
                });
            }
            Opcode::Cast { kind, value } => {
                let v = self.eval(tile, *value);
                result = Some(match kind {
                    CastKind::IntResize | CastKind::IntToPtr | CastKind::PtrToInt => {
                        let raw = v.as_int();
                        RtVal::Int(match inst.ty() {
                            Type::I1 => (raw != 0) as i64,
                            Type::I8 => raw as i8 as i64,
                            Type::I16 => raw as i16 as i64,
                            Type::I32 => raw as i32 as i64,
                            _ => raw,
                        })
                    }
                    CastKind::IntToFloat => RtVal::Float(v.as_int() as f64),
                    CastKind::FloatToInt => RtVal::Int(v.as_float() as i64),
                    CastKind::FloatResize => RtVal::Float(match inst.ty() {
                        Type::F32 => v.as_float() as f32 as f64,
                        _ => v.as_float(),
                    }),
                });
            }
            Opcode::Gep {
                base,
                index,
                elem_size,
            } => {
                let b = self.eval(tile, *base).as_int();
                let i = self.eval(tile, *index).as_int();
                result = Some(RtVal::Int(b.wrapping_add(i.wrapping_mul(*elem_size as i64))));
            }
            Opcode::Load { addr } => {
                let a = self.eval(tile, *addr).as_int() as u64;
                let ty = inst.ty();
                self.sink.on_mem(tile, iid, a, ty.size_bytes() as u8, false);
                result = Some(self.mem.read_typed(a, ty));
            }
            Opcode::Store { addr, value } => {
                let a = self.eval(tile, *addr).as_int() as u64;
                let v = self.eval(tile, *value);
                let ty = self.operand_ty(func, *value);
                self.sink.on_mem(tile, iid, a, ty.size_bytes() as u8, true);
                self.mem.write_typed(a, ty, v);
            }
            Opcode::AtomicRmw {
                op,
                addr,
                value,
                expected,
            } => {
                let a = self.eval(tile, *addr).as_int() as u64;
                let ty = inst.ty();
                self.sink.on_mem(tile, iid, a, ty.size_bytes() as u8, true);
                let old = self.mem.read_typed(a, ty);
                let v = self.eval(tile, *value);
                let new = match op {
                    AtomicOp::Add => RtVal::Int(old.as_int().wrapping_add(v.as_int())),
                    AtomicOp::Min => RtVal::Int(old.as_int().min(v.as_int())),
                    AtomicOp::Max => RtVal::Int(old.as_int().max(v.as_int())),
                    AtomicOp::Xchg => v,
                    AtomicOp::Cas => {
                        let e = self.eval(tile, expected.expect("cas has expected operand"));
                        if old.as_int() == e.as_int() {
                            v
                        } else {
                            old
                        }
                    }
                };
                self.mem.write_typed(a, ty, new);
                result = Some(old);
            }
            Opcode::Call { intr, args } => {
                let vals: Vec<RtVal> = args.iter().map(|a| self.eval(tile, *a)).collect();
                result = Some(self.intrinsic(tile, *intr, &vals));
            }
            Opcode::Send { queue, value } => {
                let v = self.eval(tile, *value);
                let q = queue + self.tiles[tile].queue_offset;
                self.queues.entry(q).or_default().push_back(v);
            }
            Opcode::Recv { queue } => {
                let q = queue + self.tiles[tile].queue_offset;
                match self.queues.entry(q).or_default().pop_front() {
                    Some(v) => result = Some(v),
                    None => return Ok(StepOutcome::Blocked),
                }
            }
            Opcode::AccelCall { accel, args } => {
                let vals: Vec<i64> = args.iter().map(|a| self.eval(tile, *a).as_int()).collect();
                self.sink.on_accel(tile, iid, *accel, &vals);
                self.accel_functional(*accel, &vals);
            }
            Opcode::Br { target } => {
                let st = &mut self.tiles[tile];
                st.prev_block = Some(st.block);
                st.block = *target;
                st.inst_idx = 0;
                st.entered_block = false;
                advance = false;
            }
            Opcode::CondBr {
                cond,
                on_true,
                on_false,
            } => {
                let c = self.eval(tile, *cond).as_bool();
                let st = &mut self.tiles[tile];
                st.prev_block = Some(st.block);
                st.block = if c { *on_true } else { *on_false };
                st.inst_idx = 0;
                st.entered_block = false;
                advance = false;
            }
            Opcode::Ret { value } => {
                let v = value.map(|v| self.eval(tile, v));
                let st = &mut self.tiles[tile];
                st.finished = true;
                st.ret = v;
                advance = false;
            }
        }

        let st = &mut self.tiles[tile];
        if let Some(v) = result {
            st.regs[iid.index()] = Some(v);
        }
        if advance {
            st.inst_idx += 1;
        }
        st.retired += 1;
        self.sink.on_retire(tile);
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ExecError::StepLimit(self.step_limit));
        }
        Ok(StepOutcome::Progress)
    }

    /// Runs all tiles to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Deadlock`] if all unfinished tiles block on
    /// empty queues, [`ExecError::StepLimit`] past the instruction budget,
    /// or [`ExecError::Trap`] on a runtime fault.
    pub fn run(mut self) -> Result<ExecOutcome, ExecError> {
        const SLICE: usize = 4096;
        loop {
            let mut any_progress = false;
            let mut all_done = true;
            for t in 0..self.tiles.len() {
                if self.tiles[t].finished {
                    continue;
                }
                all_done = false;
                for _ in 0..SLICE {
                    match self.step(t)? {
                        StepOutcome::Progress => any_progress = true,
                        StepOutcome::Blocked => break,
                        StepOutcome::Finished => break,
                    }
                }
            }
            if all_done {
                break;
            }
            if !any_progress {
                let blocked = self
                    .tiles
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.finished)
                    .map(|(i, _)| i)
                    .collect();
                return Err(ExecError::Deadlock { blocked });
            }
        }
        Ok(ExecOutcome {
            mem: self.mem,
            returns: self.tiles.iter().map(|t| t.ret).collect(),
            retired: self.tiles.iter().map(|t| t.retired).collect(),
            steps: self.steps,
        })
    }
}

/// Runs a set of tile programs to completion over `mem`.
///
/// # Errors
///
/// See [`Interpreter::run`].
///
/// # Examples
///
/// ```
/// use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp};
/// use mosaic_ir::interp::{run_single, NullSink};
/// use mosaic_ir::{MemImage, RtVal};
///
/// let mut m = Module::new("demo");
/// let f = m.add_function("double", vec![("x".into(), Type::I64)], Type::I64);
/// let mut b = FunctionBuilder::new(m.function_mut(f));
/// let e = b.create_block("entry");
/// b.switch_to(e);
/// let x = b.param(0);
/// let d = b.bin(BinOp::Add, x, x);
/// b.ret(Some(d));
///
/// let out = run_single(&m, MemImage::new(), f, vec![RtVal::Int(21)], &mut NullSink).unwrap();
/// assert_eq!(out.returns[0], Some(RtVal::Int(42)));
/// ```
pub fn run_tiles<S: TraceSink>(
    module: &Module,
    mem: MemImage,
    programs: &[TileProgram],
    sink: &mut S,
) -> Result<ExecOutcome, ExecError> {
    Interpreter::new(module, mem, programs, sink).run()
}

/// Runs one function on a single tile.
///
/// # Errors
///
/// See [`Interpreter::run`].
pub fn run_single<S: TraceSink>(
    module: &Module,
    mem: MemImage,
    func: FuncId,
    args: Vec<RtVal>,
    sink: &mut S,
) -> Result<ExecOutcome, ExecError> {
    run_tiles(module, mem, &[TileProgram::single(func, args)], sink)
}

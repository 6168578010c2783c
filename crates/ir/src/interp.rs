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
//! Each distinct kernel function is compiled once into a flat plan (the
//! `plan` module) and a tile's whole turn runs in one loop over it. The
//! trace is a function of the *schedule*, not only of the program —
//! cross-tile atomics and queues see whatever the interleaving gives them
//! — so the schedule is part of the contract: tiles take turns in index
//! order, 4096 steps a turn, a step being one instruction or the
//! whole phi group of a block entry (DESIGN.md §4.1).
//!
//! Trace consumers implement [`TraceSink`]; `mosaic-trace` provides the
//! standard recording sink.

mod plan;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::function::Module;
use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, IntPredicate, Intrinsic};
use crate::mem_image::{MemImage, RtVal};
use crate::types::Type;
use plan::{Code, Plan, NO_SLOT};

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
    /// A tile's turn ended, `retired` retires after it began: `on_retire`'s
    /// count, once a turn. A fault ends the run inside its turn, uncounted.
    fn on_turn(&mut self, _tile: usize, _retired: u64) {}
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
    /// The queue-id distance between consecutive DAE pairs: pair `k` owns
    /// the queues `k * DAE_QUEUE_STRIDE` onward.
    pub const DAE_QUEUE_STRIDE: u32 = 1000;

    /// `pairs` Decoupled Access/Execute pairs of a sliced kernel (paper
    /// §VII-A): pair `k` runs `access` on tile `2k` and `execute` on tile
    /// `2k + 1`, both observing `tile_id = k` of `pairs`, in the queue
    /// namespace at `k * DAE_QUEUE_STRIDE`.
    pub fn dae_pairs(access: FuncId, execute: FuncId, args: Vec<RtVal>, pairs: usize) -> Vec<Self> {
        let pair = |k: usize, func| TileProgram {
            func,
            args: args.clone(),
            tile_id: k as i64,
            num_tiles: pairs as i64,
            queue_offset: Self::DAE_QUEUE_STRIDE * k as u32,
        };
        let tiles = (0..pairs).map(|k| [pair(k, access), pair(k, execute)]);
        tiles.flatten().collect()
    }

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
    /// Dispatches made: `steps` less the pairs run fused.
    #[cfg(test)]
    pub(crate) dispatches: u64,
}

/// Steps a tile runs before the next tile's turn.
const SLICE: u32 = 4096;

struct TileState {
    /// Index of the kernel's plan in `Interpreter::plans`.
    plan: usize,
    tile_id: i64,
    num_tiles: i64,
    queue_offset: u32,
    /// `[results | params | constants]`, see the `plan` module.
    slots: Vec<Option<RtVal>>,
    pc: usize,
    /// The edge taken but not yet arrived over: `on_block` and the phi
    /// moves happen in the step *after* the branch's.
    entering: Option<u32>,
    finished: bool,
    ret: Option<RtVal>,
    retired: u64,
}

/// The functional executor.
///
/// Use [`run_tiles`] / [`run_single`] unless you need stepwise control.
pub(crate) struct Interpreter<'m, S: TraceSink> {
    /// One plan per distinct kernel function among the programs.
    plans: Vec<Plan>,
    mem: MemImage,
    tiles: Vec<TileState>,
    queues: BTreeMap<u32, VecDeque<RtVal>>,
    sink: &'m mut S,
    step_limit: u64,
    steps: u64,
    /// A phi group's sources, read before any phi is written; refilled in
    /// place.
    phi_vals: Vec<RtVal>,
    /// An accelerator call's evaluated arguments; refilled in place.
    accel_args: Vec<i64>,
    /// Ops dispatched so far, a phi move counting as one.
    #[cfg(test)]
    dispatches: std::cell::Cell<u64>,
}

impl<'m, S: TraceSink> fmt::Debug for Interpreter<'m, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("tiles", &self.tiles.len())
            .field("steps", &self.steps)
            .finish()
    }
}

/// The value in `slot`; an instruction that has not retired yet, or an
/// operand that names nothing ([`NO_SLOT`]), has none.
#[inline(always)]
fn val(slots: &[Option<RtVal>], slot: u32, tile: usize) -> RtVal {
    match slots.get(slot as usize) {
        Some(Some(v)) => *v,
        _ => undefined(slot, tile),
    }
}

#[cold]
#[inline(never)]
fn undefined(slot: u32, tile: usize) -> ! {
    assert!(
        slot != NO_SLOT,
        "use of an operand that names no value (tile {tile})"
    );
    panic!("use of undefined value {} (tile {tile})", InstId(slot))
}

#[cold]
#[inline(never)]
fn missing_edge(phi: u32, from: Option<BlockId>) -> ! {
    let prev = from.expect("phi executed without predecessor");
    panic!("phi {} missing edge from {prev}", InstId(phi))
}

#[inline(always)]
fn binop(op: BinOp, a: RtVal, b: RtVal) -> Result<RtVal, ExecError> {
    let (int, float) = (RtVal::Int, RtVal::Float);
    // The divisor is looked at before the dividend, and traps on zero.
    let divide = |what: &str, by: fn(i64, i64) -> i64| match b.as_int() {
        0 => Err(ExecError::Trap(format!("integer {what} by zero"))),
        d => Ok(int(by(a.as_int(), d))),
    };
    Ok(match op {
        BinOp::Add => int(a.as_int().wrapping_add(b.as_int())),
        BinOp::Sub => int(a.as_int().wrapping_sub(b.as_int())),
        BinOp::Mul => int(a.as_int().wrapping_mul(b.as_int())),
        BinOp::SDiv => divide("division", i64::wrapping_div)?,
        BinOp::SRem => divide("remainder", i64::wrapping_rem)?,
        BinOp::UDiv => divide("division", |n, d| (n as u64 / d as u64) as i64)?,
        BinOp::URem => divide("remainder", |n, d| (n as u64 % d as u64) as i64)?,
        BinOp::And => int(a.as_int() & b.as_int()),
        BinOp::Or => int(a.as_int() | b.as_int()),
        BinOp::Xor => int(a.as_int() ^ b.as_int()),
        BinOp::Shl => int(a.as_int().wrapping_shl(b.as_int() as u32)),
        BinOp::AShr => int(a.as_int().wrapping_shr(b.as_int() as u32)),
        BinOp::LShr => int(((a.as_int() as u64).wrapping_shr(b.as_int() as u32)) as i64),
        BinOp::FAdd => float(a.as_float() + b.as_float()),
        BinOp::FSub => float(a.as_float() - b.as_float()),
        BinOp::FMul => float(a.as_float() * b.as_float()),
        BinOp::FDiv => float(a.as_float() / b.as_float()),
    })
}

#[inline(always)]
fn icmp(pred: IntPredicate, a: RtVal, b: RtVal) -> RtVal {
    let (a, b) = (a.as_int(), b.as_int());
    RtVal::Int(match pred {
        IntPredicate::Eq => a == b,
        IntPredicate::Ne => a != b,
        IntPredicate::Slt => a < b,
        IntPredicate::Sle => a <= b,
        IntPredicate::Sgt => a > b,
        IntPredicate::Sge => a >= b,
        IntPredicate::Ult => (a as u64) < (b as u64),
        IntPredicate::Uge => (a as u64) >= (b as u64),
    } as i64)
}

#[inline(always)]
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

#[inline(always)]
fn cast(kind: CastKind, to: Type, v: RtVal) -> RtVal {
    match kind {
        CastKind::IntResize | CastKind::IntToPtr | CastKind::PtrToInt => {
            let raw = v.as_int();
            RtVal::Int(match to {
                Type::I1 => (raw != 0) as i64,
                Type::I8 => raw as i8 as i64,
                Type::I16 => raw as i16 as i64,
                Type::I32 => raw as i32 as i64,
                _ => raw,
            })
        }
        CastKind::IntToFloat => RtVal::Float(v.as_int() as f64),
        CastKind::FloatToInt => RtVal::Int(v.as_float() as i64),
        CastKind::FloatResize if to == Type::F32 => RtVal::Float(v.as_float() as f32 as f64),
        CastKind::FloatResize => RtVal::Float(v.as_float()),
    }
}

/// Functional semantics of the accelerator library calls that produce
/// data later read by the program. Accelerators used purely for
/// performance modeling (the Keras layer set) do not mutate memory.
fn accel_functional(mem: &mut MemImage, accel: AccelOp, args: &[i64]) {
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
                        let av = mem.read_f32(a + 4 * (i * k + p) as u64);
                        let bv = mem.read_f32(b + 4 * (p * n + j) as u64);
                        acc += av * bv;
                    }
                    mem.write_f32(c + 4 * (i * n + j) as u64, acc);
                }
            }
        }
        AccelOp::Histogram => {
            let (inp, out, n, bins) =
                (args[0] as u64, args[1] as u64, args[2] as usize, args[3] as i32);
            for i in 0..n {
                let v = mem.read_i32(inp + 4 * i as u64).clamp(0, bins - 1);
                let addr = out + 4 * v as u64;
                let old = mem.read_i32(addr);
                // Saturating histogram (paper §VI-A): counts cap at u8 max
                // scaled to i32 range of 255 like Parboil's sat histogram.
                let new = (old + 1).min(255);
                mem.write_i32(addr, new);
            }
        }
        AccelOp::ElementWise => {
            let (a, b, c, n) = (args[0] as u64, args[1] as u64, args[2] as u64, args[3] as usize);
            for i in 0..n {
                let av = mem.read_f32(a + 4 * i as u64);
                let bv = mem.read_f32(b + 4 * i as u64);
                mem.write_f32(c + 4 * i as u64, av * bv);
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

impl<'m, S: TraceSink> Interpreter<'m, S> {
    /// Creates an executor over `programs` sharing `mem`.
    ///
    /// # Panics
    ///
    /// Panics if a program's argument count does not match its function.
    pub(crate) fn new(
        module: &'m Module,
        mem: MemImage,
        programs: &[TileProgram],
        sink: &'m mut S,
    ) -> Self {
        let mut plans: Vec<Plan> = Vec::new();
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
                let known = plans.iter().position(|plan| plan.func == p.func);
                let plan = known.unwrap_or_else(|| {
                    plans.push(Plan::compile(func));
                    plans.len() - 1
                });
                let mut slots = vec![None; plans[plan].insts];
                slots.extend(p.args.iter().chain(&plans[plan].consts).map(|v| Some(*v)));
                TileState {
                    plan,
                    tile_id: p.tile_id,
                    num_tiles: p.num_tiles,
                    queue_offset: p.queue_offset,
                    slots,
                    pc: 0,
                    entering: Some(0),
                    finished: false,
                    ret: None,
                    retired: 0,
                }
            })
            .collect();
        Interpreter {
            plans,
            mem,
            tiles,
            queues: BTreeMap::new(),
            sink,
            step_limit: 2_000_000_000,
            steps: 0,
            phi_vals: Vec::new(),
            accel_args: Vec::new(),
            #[cfg(test)]
            dispatches: Default::default(),
        }
    }

    /// Overrides the global dynamic-instruction limit.
    #[cfg(test)]
    pub(crate) fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// One turn of `tile`: up to [`SLICE`] steps, fewer if it blocks on an
    /// empty queue or returns. Whether it made any.
    fn turn(&mut self, tile: usize) -> Result<bool, ExecError> {
        let st = &mut self.tiles[tile];
        let plan = &self.plans[st.plan];
        let (sink, mem, slots) = (&mut *self.sink, &mut self.mem, &mut st.slots[..]);
        // `steps` counts retires; the tile's own count moves with it.
        let (mut pc, mut steps, before, limit) = (st.pc, self.steps, self.steps, self.step_limit);
        let (mut left, mut entering) = (SLICE, st.entering.take());
        while left > 0 && !st.finished {
            if let Some(edge) = entering.take() {
                let edge = plan.edges[edge as usize];
                sink.on_block(tile, plan.func, edge.block);
                pc = edge.pc as usize;
                let moves = &plan.moves[edge.moves.0 as usize..edge.moves.1 as usize];
                if !moves.is_empty() {
                    // A parallel assignment, and one step whatever its size.
                    self.phi_vals.clear();
                    for &(phi, source) in moves {
                        let source = source.unwrap_or_else(|| missing_edge(phi, edge.from));
                        self.phi_vals.push(val(slots, source, tile));
                    }
                    #[cfg(test)]
                    self.dispatches.set(self.dispatches.get() + moves.len() as u64);
                    for (&(phi, _), &v) in moves.iter().zip(&self.phi_vals) {
                        slots[phi as usize] = Some(v);
                        sink.on_retire(tile);
                        steps += 1;
                    }
                    if steps > limit {
                        return Err(ExecError::StepLimit(limit));
                    }
                    left -= 1;
                    continue;
                }
            }
            let op = plan.ops[pc];
            let ([a, b, c], dst) = (op.args, op.inst as usize);
            #[cfg(test)]
            self.dispatches.set(self.dispatches.get() + 1);
            let get = |slot| val(slots, slot, tile);
            // Whether a fused op's second half runs now: if the turn and limit have room.
            macro_rules! pair {
                ($fused:expr) => {
                    $fused && left > 1 && steps + 2 <= limit && {
                        (pc, steps, left) = (pc + 1, steps + 1, left - 1);
                        sink.on_retire(tile);
                        true
                    }
                };
            }
            macro_rules! load {
                ($inst:expr, $at:expr, $ty:expr) => {{
                    let (inst, at) = ($inst, $at);
                    sink.on_mem(tile, InstId(inst), at, $ty.size_bytes() as u8, false);
                    slots[inst as usize] = Some(mem.read_typed(at, $ty));
                }};
            }
            // A store of `$ty`: `$write`, the address in `$at`, the value in `$v`.
            macro_rules! store {
                ($ty:expr, |$at:ident, $v:ident| $write:expr) => {{
                    let ($at, $v) = (get(a).as_int() as u64, get(b));
                    sink.on_mem(tile, InstId(op.inst), $at, $ty.size_bytes() as u8, true);
                    $write;
                }};
            }
            macro_rules! cmp {
                ($pred:expr, $fused:expr) => {{
                    let holds = icmp($pred, get(a), get(b));
                    slots[dst] = Some(holds);
                    if pair!($fused) {
                        let [_, on_true, on_false] = plan.ops[pc].args;
                        entering = Some(if holds.as_bool() { on_true } else { on_false });
                    }
                }};
            }
            match op.code {
                Code::Bin(bin) => slots[dst] = Some(binop(bin, get(a), get(b))?),
                Code::Add => slots[dst] = Some(binop(BinOp::Add, get(a), get(b))?),
                Code::Sub => slots[dst] = Some(binop(BinOp::Sub, get(a), get(b))?),
                Code::Mul => slots[dst] = Some(binop(BinOp::Mul, get(a), get(b))?),
                Code::And => slots[dst] = Some(binop(BinOp::And, get(a), get(b))?),
                Code::Or => slots[dst] = Some(binop(BinOp::Or, get(a), get(b))?),
                Code::Xor => slots[dst] = Some(binop(BinOp::Xor, get(a), get(b))?),
                Code::Shl => slots[dst] = Some(binop(BinOp::Shl, get(a), get(b))?),
                Code::AShr => slots[dst] = Some(binop(BinOp::AShr, get(a), get(b))?),
                Code::LShr => slots[dst] = Some(binop(BinOp::LShr, get(a), get(b))?),
                Code::FAdd => slots[dst] = Some(binop(BinOp::FAdd, get(a), get(b))?),
                Code::FSub => slots[dst] = Some(binop(BinOp::FSub, get(a), get(b))?),
                Code::FMul => slots[dst] = Some(binop(BinOp::FMul, get(a), get(b))?),
                Code::FDiv => slots[dst] = Some(binop(BinOp::FDiv, get(a), get(b))?),
                Code::Eq(fused) => cmp!(IntPredicate::Eq, fused),
                Code::Ne(fused) => cmp!(IntPredicate::Ne, fused),
                Code::Slt(fused) => cmp!(IntPredicate::Slt, fused),
                Code::Sle(fused) => cmp!(IntPredicate::Sle, fused),
                Code::Sgt(fused) => cmp!(IntPredicate::Sgt, fused),
                Code::Sge(fused) => cmp!(IntPredicate::Sge, fused),
                Code::Ult(fused) => cmp!(IntPredicate::Ult, fused),
                Code::Uge(fused) => cmp!(IntPredicate::Uge, fused),
                Code::FCmp(pred) => {
                    let holds = fcmp(pred, get(a).as_float(), get(b).as_float());
                    slots[dst] = Some(RtVal::Int(holds as i64));
                }
                Code::Select => slots[dst] = Some(get(if get(a).as_bool() { b } else { c })),
                Code::Cast(kind, to) => slots[dst] = Some(cast(kind, to, get(a))),
                Code::Gep(fused) => {
                    let (base, index) = (get(a).as_int(), get(b).as_int());
                    let at = base.wrapping_add(index.wrapping_mul(c as i64));
                    slots[dst] = Some(RtVal::Int(at));
                    if pair!(fused) {
                        let (load, at) = (plan.ops[pc], at as u64);
                        match load.code {
                            Code::LoadI32 => load!(load.inst, at, Type::I32),
                            Code::LoadI64 => load!(load.inst, at, Type::I64),
                            Code::LoadF32 => load!(load.inst, at, Type::F32),
                            _ => load!(load.inst, at, Type::F64), // as `Plan::push` fuses
                        }
                    }
                }
                Code::LoadI32 => load!(op.inst, get(a).as_int() as u64, Type::I32),
                Code::LoadI64 => load!(op.inst, get(a).as_int() as u64, Type::I64),
                Code::LoadF32 => load!(op.inst, get(a).as_int() as u64, Type::F32),
                Code::LoadF64 => load!(op.inst, get(a).as_int() as u64, Type::F64),
                Code::Load(ty) => load!(op.inst, get(a).as_int() as u64, ty),
                Code::StoreI32 => store!(Type::I32, |at, v| mem.write_i32(at, v.as_int() as _)),
                Code::StoreI64 => store!(Type::I64, |at, v| mem.write_i64(at, v.as_int())),
                Code::StoreF32 => store!(Type::F32, |at, v| mem.write_f32(at, v.as_float() as _)),
                Code::StoreF64 => store!(Type::F64, |at, v| mem.write_f64(at, v.as_float())),
                Code::Store(ty) => store!(ty, |at, v| mem.write_typed(at, ty, v)),
                Code::Atomic(rmw, ty) => {
                    let addr = get(a).as_int() as u64;
                    sink.on_mem(tile, InstId(op.inst), addr, ty.size_bytes() as u8, true);
                    let old = mem.read_typed(addr, ty);
                    let v = get(b);
                    let new = match rmw {
                        AtomicOp::Add => RtVal::Int(old.as_int().wrapping_add(v.as_int())),
                        AtomicOp::Min => RtVal::Int(old.as_int().min(v.as_int())),
                        AtomicOp::Max => RtVal::Int(old.as_int().max(v.as_int())),
                        AtomicOp::Xchg => v,
                        AtomicOp::Cas if old.as_int() == get(c).as_int() => v,
                        AtomicOp::Cas => old,
                    };
                    mem.write_typed(addr, ty, new);
                    slots[dst] = Some(old);
                }
                Code::Call(intr) => {
                    let (x, y) = (|| get(a).as_float(), || get(b).as_float());
                    let (i, j) = (|| get(a).as_int(), || get(b).as_int());
                    let v = match intr {
                        Intrinsic::TileId => RtVal::Int(st.tile_id),
                        Intrinsic::NumTiles => RtVal::Int(st.num_tiles),
                        Intrinsic::Sqrt => RtVal::Float(x().sqrt()),
                        Intrinsic::Rsqrt => RtVal::Float(1.0 / x().sqrt()),
                        Intrinsic::Exp => RtVal::Float(x().exp()),
                        Intrinsic::Log => RtVal::Float(x().ln()),
                        Intrinsic::Sin => RtVal::Float(x().sin()),
                        Intrinsic::Cos => RtVal::Float(x().cos()),
                        Intrinsic::FAbs => RtVal::Float(x().abs()),
                        Intrinsic::Floor => RtVal::Float(x().floor()),
                        Intrinsic::FMin => RtVal::Float(x().min(y())),
                        Intrinsic::FMax => RtVal::Float(x().max(y())),
                        Intrinsic::SMin => RtVal::Int(i().min(j())),
                        Intrinsic::SMax => RtVal::Int(i().max(j())),
                    };
                    slots[dst] = Some(v);
                }
                Code::Send => {
                    let queue = self.queues.entry(a + st.queue_offset).or_default();
                    queue.push_back(get(b));
                }
                Code::Recv => {
                    let queue = self.queues.entry(a + st.queue_offset).or_default();
                    // Blocked is not a step: the turn ends with the tile
                    // still at the `recv`, inside its block.
                    let Some(v) = queue.pop_front() else { break };
                    slots[dst] = Some(v);
                }
                Code::Accel(accel) => {
                    let args = plan.accel_args[a as usize..b as usize].iter();
                    self.accel_args.clear();
                    self.accel_args.extend(args.map(|&arg| get(arg).as_int()));
                    sink.on_accel(tile, InstId(op.inst), accel, &self.accel_args);
                    accel_functional(mem, accel, &self.accel_args);
                }
                Code::Br => entering = Some(a),
                Code::CondBr => entering = Some(if get(a).as_bool() { b } else { c }),
                Code::Ret => {
                    st.ret = Some(get(a));
                    st.finished = true;
                }
                Code::RetVoid => st.finished = true,
                Code::Invalid(why) => panic!("{why}"),
            }
            pc += 1;
            sink.on_retire(tile);
            steps += 1;
            if steps > limit {
                return Err(ExecError::StepLimit(limit));
            }
            left -= 1;
        }
        (st.pc, st.entering) = (pc, entering);
        st.retired += steps - before;
        self.steps = steps;
        sink.on_turn(tile, steps - before);
        Ok(left < SLICE)
    }

    /// Runs all tiles to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Deadlock`] if all unfinished tiles block on
    /// empty queues, [`ExecError::StepLimit`] past the instruction budget,
    /// or [`ExecError::Trap`] on a runtime fault.
    pub(crate) fn run(mut self) -> Result<ExecOutcome, ExecError> {
        loop {
            let mut any_progress = false;
            let mut all_done = true;
            for t in 0..self.tiles.len() {
                if self.tiles[t].finished {
                    continue;
                }
                all_done = false;
                any_progress |= self.turn(t)?;
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
            #[cfg(test)]
            dispatches: self.dispatches.get(),
        })
    }
}

/// Runs a set of tile programs to completion over `mem`.
///
/// # Errors
///
/// See `Interpreter::run`.
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
/// See `Interpreter::run`.
pub fn run_single<S: TraceSink>(
    module: &Module,
    mem: MemImage,
    func: FuncId,
    args: Vec<RtVal>,
    sink: &mut S,
) -> Result<ExecOutcome, ExecError> {
    run_tiles(module, mem, &[TileProgram::single(func, args)], sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Opcode, Operand};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// An operand of the op under test: a parameter holding the value, or
    /// (`None`) an instruction below it that has not run yet.
    type Arg = Option<RtVal>;

    /// What `f` returns, or the message it panics with.
    fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
            let text = e.downcast_ref::<String>().cloned();
            text.or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("a panic message")
        })
    }

    /// Runs `%0 = emit(lhs, rhs); %1 = 0 + 0; %2 = 0 + 0; ret %0`, an
    /// undefined `lhs` reading `%1` and an undefined `rhs` `%2`.
    fn run_op(
        emit: impl FnOnce(&mut FunctionBuilder<'_>, Operand, Operand) -> Operand,
        lhs: Arg,
        rhs: Arg,
    ) -> Result<RtVal, ExecError> {
        let ty = |v: &RtVal| match v {
            RtVal::Int(_) => Type::I64,
            RtVal::Float(_) => Type::F64,
        };
        let args: Vec<RtVal> = [lhs, rhs].into_iter().flatten().collect();
        let params = args.iter().enumerate();
        let params = params.map(|(i, v)| (format!("p{i}"), ty(v))).collect();
        let mut m = Module::new("t");
        let f = m.add_function("k", params, Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let zero = crate::types::Constant::i64(0).into();
        let mut next = 0;
        let mut operand = |arg: Arg, undefined: u32| match arg {
            Some(_) => (b.param(next), next += 1).0,
            None => Operand::Inst(InstId(undefined)),
        };
        let (l, r) = (operand(lhs, 1), operand(rhs, 2));
        // The builder reads an operand's type, which `%1` has not yet:
        // emitted over zeros, the op gets its operands below.
        let v = emit(&mut b, zero, zero);
        b.bin(BinOp::Add, zero, zero);
        b.bin(BinOp::Add, zero, zero);
        b.ret(Some(v));
        match m.function_mut(f).inst_mut(InstId(0)).op_mut() {
            Opcode::Bin { lhs, rhs, .. } | Opcode::ICmp { lhs, rhs, .. } => (*lhs, *rhs) = (l, r),
            op => unreachable!("{op:?}"),
        }
        let out = run_single(&m, MemImage::new(), f, args, &mut NullSink)?;
        Ok(out.returns[0].expect("a value"))
    }

    /// A value by its bits, so that NaN equals itself and -0.0 differs
    /// from 0.0.
    fn bits(v: Result<RtVal, ExecError>) -> Result<(bool, u64), ExecError> {
        v.map(|v| match v {
            RtVal::Int(i) => (false, i as u64),
            RtVal::Float(f) => (true, f.to_bits()),
        })
    }

    /// Every `BinOp` and `IntPredicate`, each compiled to a code of its own
    /// or to `Bin`, does in the interpreter what `binop` and `icmp` do with
    /// the same operands — edge values, shift counts past 63, NaN and -0.0,
    /// division by zero (the same `Trap`) — and faults in their order: an
    /// undefined operand before a type mismatch, `lhs` before `rhs`, both
    /// with `binop`'s own message.
    #[test]
    fn every_flat_code_is_binop_and_icmp() {
        let ints = [0, -1, 1, 7, 63, 64, 65, 200, i64::MIN, i64::MAX].map(RtVal::Int);
        let floats = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY].map(RtVal::Float);
        let pairs = |vals: &[RtVal]| {
            let vals = vals.to_vec();
            let all = vals.iter().flat_map(|&a| vals.iter().map(move |&b| (a, b)));
            all.collect::<Vec<_>>()
        };
        for &op in BinOp::ALL {
            let (vals, wrong) = match op.is_float() {
                true => (&floats[..], ints[1]),
                false => (&ints[..], floats[2]),
            };
            let emit = |b: &mut FunctionBuilder<'_>, l, r| b.bin(op, l, r);
            let direct = |a, b| outcome(|| binop(op, a, b));
            for (a, b) in pairs(vals) {
                let run = outcome(|| bits(run_op(emit, Some(a), Some(b))));
                let want = direct(a, b).map(bits);
                assert_eq!(run, want, "{op:?} {a:?} {b:?}");
            }
            faults(emit, direct, vals[1], wrong, &format!("{op:?}"));
        }
        for &pred in IntPredicate::ALL {
            let emit = |b: &mut FunctionBuilder<'_>, l, r| b.icmp(pred, l, r);
            let direct = |a, b| outcome(|| Ok(icmp(pred, a, b)));
            for (a, b) in pairs(&ints) {
                let run = outcome(|| bits(run_op(emit, Some(a), Some(b))));
                assert_eq!(run, direct(a, b).map(bits), "{pred:?} {a:?} {b:?}");
            }
            faults(emit, direct, ints[1], floats[2], &format!("{pred:?}"));
        }
    }

    /// The fault order of one op, `ok` a value of the type it takes and
    /// `wrong` one of the other type.
    fn faults(
        emit: impl Fn(&mut FunctionBuilder<'_>, Operand, Operand) -> Operand,
        direct: impl Fn(RtVal, RtVal) -> Result<Result<RtVal, ExecError>, String>,
        ok: RtVal,
        wrong: RtVal,
        what: &str,
    ) {
        let run = |lhs, rhs| outcome(|| run_op(&emit, lhs, rhs)).map(bits);
        let undefined = |n| Err(format!("use of undefined value %{n} (tile 0)"));
        assert_eq!(run(None, None), undefined(1), "{what}: lhs first");
        for (lhs, rhs, n) in [(Some(wrong), None, 2), (None, Some(wrong), 1)] {
            assert_eq!(run(lhs, rhs), undefined(n), "{what}: undefined first");
        }
        for (a, b) in [(wrong, ok), (ok, wrong), (wrong, wrong)] {
            let want = direct(a, b).map(bits);
            assert!(want.is_err(), "{what}: {a:?} {b:?} is a type mismatch");
            assert_eq!(run(Some(a), Some(b)), want, "{what}: {a:?} {b:?}");
        }
        if !matches!(wrong, RtVal::Float(_)) {
            return;
        }
        // An int op reads `lhs` first, but a divisor before its dividend.
        let divides = ["SDiv", "SRem", "UDiv", "URem"].contains(&what);
        let (l, r) = (RtVal::Float(1.5), RtVal::Float(2.5));
        let first = [l, r][usize::from(divides)].as_float();
        let found = format!("expected int, found float {first}");
        assert_eq!(run(Some(l), Some(r)), Err(found), "{what}");
    }
}

//! The DTG's execution plan: a function compiled once, then run.
//!
//! [`Plan::compile`] is the only place that matches [`Opcode`] and
//! [`Operand`]. It lowers a function to one flat `Vec` of `Copy` ops in
//! block order, every operand resolved to an index of the tile's slot
//! file:
//!
//! ```text
//! [ instruction results, by InstId | parameters | distinct constants ]
//! ```
//!
//! Parameters and constants are written once when a tile is set up; a
//! result slot is `None` until its instruction retires, which is what
//! "use of undefined value" tests. An operand that names no instruction
//! or parameter of the function resolves to [`NO_SLOT`], past the end of
//! every slot file, and reads as undefined when — and only when — it is
//! used.
//!
//! Phis leave the instruction stream. A branch carries an [`Edge`]: the
//! target's first non-phi op, its `BlockId`, and the `(phi, source)` moves
//! its leading phis make when entered *from this branch's block*. A phi
//! with no value for the edge keeps a move with no source, so the fault
//! is reported when the edge is taken, as the tree-walker reported it.
//! [`Plan::push`] marks a `gep` before a typed load through it, and an int
//! compare before the `condbr` on it, as a pair that runs as one.

use crate::function::Function;
use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{
    AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, IntPredicate, Intrinsic, Opcode, Operand,
};
use crate::mem_image::RtVal;
use crate::types::{Constant, Type};

/// The slot of an operand that names nothing in the function.
pub(super) const NO_SLOT: u32 = u32::MAX;

/// What an op does; `a`, `b`, `c` are the [`Op`]'s three operand words,
/// slots unless said otherwise.
#[derive(Debug, Clone, Copy)]
pub(super) enum Code {
    /// `a op b` for the ops that trap: division and remainder.
    Bin(BinOp),
    /// `a op b`, the rest of [`BinOp`] and every [`IntPredicate`], one code
    /// each (one jump an op); a `true` compare is fused with its `CondBr`.
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    AShr,
    LShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    Eq(bool),
    Ne(bool),
    Slt(bool),
    Sle(bool),
    Sgt(bool),
    Sge(bool),
    Ult(bool),
    Uge(bool),
    /// `a pred b`.
    FCmp(FloatPredicate),
    /// `a ? b : c`.
    Select,
    /// Cast of `a` to this type.
    Cast(CastKind, Type),
    /// `a + b * c`, `c` the element size itself; `true`: fused with the
    /// typed load through it after it.
    Gep(bool),
    /// Load from address `a`: a code per common type, `Load` for i1, i8, i16.
    LoadI32,
    LoadI64,
    LoadF32,
    LoadF64,
    Load(Type),
    /// Store of `b` to address `a`, by `b`'s type, the same way.
    StoreI32,
    StoreI64,
    StoreF32,
    StoreF64,
    Store(Type),
    /// Read-modify-write of address `a` with `b`; `c` is what a CAS expects.
    Atomic(AtomicOp, Type),
    /// Intrinsic of `a` and `b` (none takes more).
    Call(Intrinsic),
    /// Send `b` on queue number `a`.
    Send,
    /// Receive from queue number `a`.
    Recv,
    /// Accelerator call with the argument slots `Plan::accel_args[a..b]`.
    Accel(AccelOp),
    /// Leave along edge `a`.
    Br,
    /// Leave along edge `b` if `a`, along edge `c` otherwise.
    CondBr,
    /// Return `a`.
    Ret,
    /// Return nothing.
    RetVoid,
    /// What only an unverified function reaches: executing it panics with
    /// the message.
    Invalid(&'static str),
}

/// The code named as the variant of `$ty` that `$of` is, for the names
/// listed; `$code` for the rest.
macro_rules! flat {
    ($of:expr, $ty:ident: $($name:ident)+ $(; $rest:pat => $code:expr)?) => {
        match $of {
            $($ty::$name => Code::$name,)+
            $($rest => $code,)?
        }
    };
}

/// One instruction of the flat stream.
#[derive(Debug, Clone, Copy)]
pub(super) struct Op {
    pub code: Code,
    /// The instruction's id: its result slot, and its name to the sink.
    pub inst: u32,
    pub args: [u32; 3],
}

// DESIGN.md §4.1: a smaller `Op` moved the set-up's peak resident memory.
const _: () = assert!(size_of::<Op>() == 40);

/// A control-flow edge, resolved when the plan is built.
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    /// The target's first op after its leading phis.
    pub pc: u32,
    /// The target, for `on_block`.
    pub block: BlockId,
    /// The branching block (`None`: the kernel's entry).
    pub from: Option<BlockId>,
    /// The target's phi moves for this edge, a range of [`Plan::moves`].
    pub moves: (u32, u32),
}

/// A compiled function. Edge 0 enters the kernel.
#[derive(Debug)]
pub(super) struct Plan {
    pub func: FuncId,
    pub ops: Vec<Op>,
    pub edges: Vec<Edge>,
    /// `(phi, source slot)`; no source: the phi has no value for the edge.
    pub moves: Vec<(u32, Option<u32>)>,
    pub accel_args: Vec<u32>,
    pub consts: Vec<RtVal>,
    /// Result slots; parameters follow, then `consts`.
    pub insts: usize,
    pub params: usize,
}

impl Plan {
    pub(super) fn compile(func: &Function) -> Plan {
        let mut plan = Plan {
            func: func.id(),
            ops: Vec::new(),
            edges: Vec::new(),
            moves: Vec::new(),
            accel_args: Vec::new(),
            consts: Vec::new(),
            insts: func.inst_count(),
            params: func.params().len(),
        };
        let is_phi = |id: &&InstId| matches!(func.inst(**id).op(), Opcode::Phi { .. });
        let ends = |id: &InstId| func.inst(*id).op().is_terminator();
        let open = |insts: &[InstId]| !insts.last().is_some_and(ends);
        // Where each block's ops start; one more entry, past the last op
        // of the last block, for a branch to a block that does not exist.
        let mut starts = Vec::with_capacity(func.block_count() + 1);
        let mut pc = 0;
        for block in func.blocks() {
            starts.push(pc as u32);
            let phis = block.insts().iter().take_while(is_phi).count();
            pc += block.insts().len() - phis + usize::from(open(block.insts()));
        }
        starts.push(pc as u32);

        plan.edge(func, &starts, None, func.entry());
        for block in func.blocks() {
            let from = Some(block.id());
            for &id in block.insts().iter().skip_while(is_phi) {
                let inst = func.inst(id);
                let mut s = |operand| plan.slot(operand);
                let (code, args) = match *inst.op() {
                    Opcode::Phi { .. } => {
                        let why = "phi not at block top was rejected by the verifier";
                        (Code::Invalid(why), [0, 0, 0])
                    }
                    Opcode::Bin { op, lhs, rhs } => {
                        use BinOp::{SDiv, SRem, UDiv, URem};
                        let code = flat!(op, BinOp: Add Sub Mul And Or Xor Shl AShr LShr FAdd
                            FSub FMul FDiv; SDiv | SRem | UDiv | URem => Code::Bin(op));
                        (code, [s(lhs), s(rhs), 0])
                    }
                    Opcode::ICmp { pred, lhs, rhs } => {
                        let code = flat!(pred, IntPredicate: Eq Ne Slt Sle Sgt Sge Ult Uge);
                        (code(false), [s(lhs), s(rhs), 0])
                    }
                    Opcode::FCmp { pred, lhs, rhs } => (Code::FCmp(pred), [s(lhs), s(rhs), 0]),
                    Opcode::Select {
                        cond,
                        on_true,
                        on_false,
                    } => (Code::Select, [s(cond), s(on_true), s(on_false)]),
                    Opcode::Cast { kind, value } => (Code::Cast(kind, inst.ty()), [s(value), 0, 0]),
                    Opcode::Gep {
                        base,
                        index,
                        elem_size,
                    } => (Code::Gep(false), [s(base), s(index), elem_size]),
                    Opcode::Load { addr } => {
                        let code = match inst.ty() {
                            Type::I32 => Code::LoadI32,
                            Type::I64 | Type::Ptr => Code::LoadI64,
                            Type::F32 => Code::LoadF32,
                            Type::F64 => Code::LoadF64,
                            ty => Code::Load(ty),
                        };
                        (code, [s(addr), 0, 0])
                    }
                    Opcode::Store { addr, value } => {
                        // An operand that names nothing faults when it is
                        // read, before the type matters.
                        let ty = match value {
                            Operand::Const(c) => Some(c.ty()),
                            Operand::Param(n) => func.params().get(n as usize).map(|p| p.1),
                            Operand::Inst(v) => func.insts.get(v.index()).map(|i| i.ty()),
                        };
                        let code = match ty.unwrap_or(Type::Void) {
                            Type::I32 => Code::StoreI32,
                            Type::I64 | Type::Ptr => Code::StoreI64,
                            Type::F32 => Code::StoreF32,
                            Type::F64 => Code::StoreF64,
                            ty => Code::Store(ty),
                        };
                        (code, [s(addr), s(value), 0])
                    }
                    Opcode::AtomicRmw {
                        op,
                        addr,
                        value,
                        expected,
                    } => {
                        let expected = expected.map_or(NO_SLOT, &mut s);
                        (Code::Atomic(op, inst.ty()), [s(addr), s(value), expected])
                    }
                    Opcode::Call { intr, ref args } => {
                        let mut arg = |i| args.get(i).map_or(NO_SLOT, |&a| s(a));
                        (Code::Call(intr), [arg(0), arg(1), 0])
                    }
                    Opcode::Send { queue, value } => (Code::Send, [queue, s(value), 0]),
                    Opcode::Recv { queue } => (Code::Recv, [queue, 0, 0]),
                    Opcode::AccelCall { accel, ref args } => {
                        let slots: Vec<u32> = args.iter().map(|&a| s(a)).collect();
                        let start = plan.accel_args.len() as u32;
                        plan.accel_args.extend(slots);
                        (Code::Accel(accel), [start, plan.accel_args.len() as u32, 0])
                    }
                    Opcode::Br { target } => {
                        (Code::Br, [plan.edge(func, &starts, from, target), 0, 0])
                    }
                    Opcode::CondBr {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let cond = s(cond);
                        let on_true = plan.edge(func, &starts, from, on_true);
                        let on_false = plan.edge(func, &starts, from, on_false);
                        (Code::CondBr, [cond, on_true, on_false])
                    }
                    Opcode::Ret { value: Some(v) } => (Code::Ret, [s(v), 0, 0]),
                    Opcode::Ret { value: None } => (Code::RetVoid, [0, 0, 0]),
                };
                plan.push(code, id.0, args);
            }
            if open(block.insts()) {
                plan.invalid("block does not end in a terminator");
            }
        }
        plan.invalid("branch to a block that does not exist");
        assert!(
            plan.insts + plan.params + plan.consts.len() < NO_SLOT as usize,
            "function too large for 32-bit slot indices"
        );
        plan
    }

    fn invalid(&mut self, why: &'static str) {
        self.push(Code::Invalid(why), 0, [0; 3]);
    }

    /// Appends an op, and sets `fused` on the op before it if they are a pair:
    /// a `Gep` and a typed load through it, an int compare and its `CondBr`.
    fn push(&mut self, code: Code, inst: u32, args: [u32; 3]) {
        use Code::*;
        if let Some(last) = self.ops.last_mut().filter(|last| args[0] == last.inst) {
            match (&mut last.code, code) {
                (Gep(fused), LoadI32 | LoadI64 | LoadF32 | LoadF64) => *fused = true,
                (Eq(fused) | Ne(fused) | Slt(fused) | Sle(fused), CondBr) => *fused = true,
                (Sgt(fused) | Sge(fused) | Ult(fused) | Uge(fused), CondBr) => *fused = true,
                _ => {}
            }
        }
        self.ops.push(Op { code, inst, args });
    }

    /// The slot `operand` reads.
    fn slot(&mut self, operand: Operand) -> u32 {
        match operand {
            Operand::Inst(id) if id.index() < self.insts => id.0,
            Operand::Param(n) if (n as usize) < self.params => self.insts as u32 + n,
            Operand::Const(c) => {
                let v = match c {
                    Constant::Int(v, _) => RtVal::Int(v),
                    Constant::Float(v, _) => RtVal::Float(v),
                };
                // By bits: 0.0 and -0.0, or two NaNs, are distinct constants.
                let bits = |v: &RtVal| match *v {
                    RtVal::Int(i) => (0, i as u64),
                    RtVal::Float(f) => (1, f.to_bits()),
                };
                let known = self.consts.iter().position(|k| bits(k) == bits(&v));
                let at = known.unwrap_or_else(|| {
                    self.consts.push(v);
                    self.consts.len() - 1
                });
                (self.insts + self.params + at) as u32
            }
            _ => NO_SLOT,
        }
    }

    /// Adds the edge `from -> to` and returns its index.
    fn edge(&mut self, func: &Function, starts: &[u32], from: Option<BlockId>, to: BlockId) -> u32 {
        let start = self.moves.len() as u32;
        if let Some(block) = func.blocks.get(to.index()) {
            for &id in block.insts() {
                let Opcode::Phi { incoming } = func.inst(id).op() else {
                    break;
                };
                let source = incoming.iter().find(|(pred, _)| Some(*pred) == from);
                let source = source.map(|&(_, v)| self.slot(v));
                self.moves.push((id.0, source));
            }
        }
        self.edges.push(Edge {
            pc: starts[to.index().min(starts.len() - 1)],
            block: to,
            from,
            moves: (start, self.moves.len() as u32),
        });
        self.edges.len() as u32 - 1
    }
}

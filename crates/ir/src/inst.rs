//! Instructions, operands, opcodes, and intrinsics.
//!
//! The instruction set mirrors the LLVM IR subset that MosaicSim's kernels
//! use: integer/float arithmetic, comparisons, `select`, casts, address
//! arithmetic (`gep`), memory operations (plus atomic read-modify-write),
//! `phi`, intrinsic calls, the inter-tile message-passing primitives
//! `send`/`recv` (paper §II-C), accelerator invocations (paper §IV-A), and
//! the control-flow terminators `br`/`condbr`/`ret`.

use crate::ids::{BlockId, InstId};
use crate::types::{named_enum, Constant, Type};

/// An SSA operand: either the result of an instruction, a compile-time
/// constant, or a function parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Result of the instruction with the given id.
    Inst(InstId),
    /// Compile-time constant.
    Const(Constant),
    /// The `n`-th parameter of the enclosing function.
    Param(u32),
}

impl Operand {
    /// The defining instruction, if this operand is an instruction result.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Operand::Inst(id) => Some(id),
            _ => None,
        }
    }

    /// The constant value, if this operand is a constant.
    pub(crate) fn as_const(self) -> Option<Constant> {
        match self {
            Operand::Const(c) => Some(c),
            _ => None,
        }
    }
}

impl From<InstId> for Operand {
    fn from(id: InstId) -> Self {
        Operand::Inst(id)
    }
}

impl From<Constant> for Operand {
    fn from(c: Constant) -> Self {
        Operand::Const(c)
    }
}

named_enum! {
    /// Two-operand arithmetic and bitwise operations.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum BinOp {
        /// Integer addition.
        Add = "add",
        /// Integer subtraction.
        Sub = "sub",
        /// Integer multiplication.
        Mul = "mul",
        /// Signed integer division.
        SDiv = "sdiv",
        /// Signed integer remainder.
        SRem = "srem",
        /// Unsigned integer division.
        UDiv = "udiv",
        /// Unsigned integer remainder.
        URem = "urem",
        /// Bitwise and.
        And = "and",
        /// Bitwise or.
        Or = "or",
        /// Bitwise xor.
        Xor = "xor",
        /// Shift left.
        Shl = "shl",
        /// Arithmetic (sign-preserving) shift right.
        AShr = "ashr",
        /// Logical shift right.
        LShr = "lshr",
        /// Floating-point addition.
        FAdd = "fadd",
        /// Floating-point subtraction.
        FSub = "fsub",
        /// Floating-point multiplication.
        FMul = "fmul",
        /// Floating-point division.
        FDiv = "fdiv",
    }
    /// Textual mnemonic used by the printer/parser.
    fn mnemonic;
    /// Parses a mnemonic produced by [`BinOp::mnemonic`].
    fn from_mnemonic;
}

impl BinOp {
    /// Whether this is one of the floating-point operations.
    pub(crate) fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }
}

named_enum! {
    /// Integer comparison predicates (signed unless noted).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum IntPredicate {
        /// Equal.
        Eq = "eq",
        /// Not equal.
        Ne = "ne",
        /// Signed less than.
        Slt = "slt",
        /// Signed less than or equal.
        Sle = "sle",
        /// Signed greater than.
        Sgt = "sgt",
        /// Signed greater than or equal.
        Sge = "sge",
        /// Unsigned less than.
        Ult = "ult",
        /// Unsigned greater than or equal.
        Uge = "uge",
    }
    /// Textual mnemonic.
    fn mnemonic;
    /// Parses a mnemonic produced by [`IntPredicate::mnemonic`].
    fn from_mnemonic;
}

named_enum! {
    /// Floating-point comparison predicates (ordered semantics).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FloatPredicate {
        /// Equal.
        Oeq = "oeq",
        /// Not equal.
        One = "one",
        /// Less than.
        Olt = "olt",
        /// Less than or equal.
        Ole = "ole",
        /// Greater than.
        Ogt = "ogt",
        /// Greater than or equal.
        Oge = "oge",
    }
    /// Textual mnemonic.
    fn mnemonic;
    /// Parses a mnemonic produced by [`FloatPredicate::mnemonic`].
    fn from_mnemonic;
}

named_enum! {
    /// Value cast kinds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CastKind {
        /// Integer truncation or extension (sign-extending) to the result type.
        IntResize = "iresize",
        /// Integer to floating point.
        IntToFloat = "sitofp",
        /// Floating point to integer (truncating toward zero).
        FloatToInt = "fptosi",
        /// Float precision change (f32 <-> f64).
        FloatResize = "fresize",
        /// Integer to pointer (bit pattern preserved).
        IntToPtr = "inttoptr",
        /// Pointer to integer (bit pattern preserved).
        PtrToInt = "ptrtoint",
    }
    /// Textual mnemonic.
    fn mnemonic;
    /// Parses a mnemonic produced by [`CastKind::mnemonic`].
    fn from_mnemonic;
}

named_enum! {
    /// Atomic read-modify-write operations (used e.g. by the BFS kernel).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AtomicOp {
        /// Atomic add; returns the old value.
        Add = "atomic_add",
        /// Atomic minimum (signed); returns the old value.
        Min = "atomic_min",
        /// Atomic maximum (signed); returns the old value.
        Max = "atomic_max",
        /// Atomic exchange; returns the old value.
        Xchg = "atomic_xchg",
        /// Compare-and-swap: the second value operand is the expected value;
        /// returns the old value.
        Cas = "atomic_cas",
    }
    /// Textual mnemonic.
    fn mnemonic;
    /// Parses a mnemonic produced by [`AtomicOp::mnemonic`].
    fn from_mnemonic;
}

named_enum! {
    /// Built-in functions callable from kernels.
    ///
    /// These correspond to the intrinsic calls MosaicSim recognizes through its
    /// LLVM passes: SPMD environment queries (`tile_id`, `num_tiles`, paper
    /// §II-B) and the math routines the Parboil kernels need.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Intrinsic {
        /// The executing tile's id (SPMD model, paper §II-B).
        TileId = "tile_id",
        /// Total number of tiles running the kernel.
        NumTiles = "num_tiles",
        /// Square root.
        Sqrt = "sqrt",
        /// Reciprocal square root.
        Rsqrt = "rsqrt",
        /// e^x.
        Exp = "exp",
        /// Natural logarithm.
        Log = "log",
        /// Sine.
        Sin = "sin",
        /// Cosine.
        Cos = "cos",
        /// Floating absolute value.
        FAbs = "fabs",
        /// Floating minimum of two values.
        FMin = "fmin",
        /// Floating maximum of two values.
        FMax = "fmax",
        /// Signed integer minimum of two values.
        SMin = "smin",
        /// Signed integer maximum of two values.
        SMax = "smax",
        /// Largest integer value not greater than the argument.
        Floor = "floor",
    }
    /// Textual name.
    fn name;
    /// Parses a name produced by [`Intrinsic::name`].
    fn from_name;
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub(crate) fn arity(self) -> usize {
        match self {
            Intrinsic::TileId | Intrinsic::NumTiles => 0,
            Intrinsic::Sqrt
            | Intrinsic::Rsqrt
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::FAbs
            | Intrinsic::Floor => 1,
            Intrinsic::FMin | Intrinsic::FMax | Intrinsic::SMin | Intrinsic::SMax => 2,
        }
    }
}

named_enum! {
    /// The accelerator API of common accelerated functions (paper §II-B, §IV-A).
    ///
    /// Kernels invoke accelerators through these calls; the compiler preserves
    /// them as special instructions, the dynamic trace records the evaluated
    /// parameters, and the simulator dispatches to an accelerator tile model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AccelOp {
        /// Dense matrix multiply `C[m×n] = A[m×k] × B[k×n]`:
        /// args `(a_ptr, b_ptr, c_ptr, m, n, k)`.
        Sgemm = "accel.sgemm",
        /// Saturating histogram: args `(in_ptr, out_ptr, n, bins)`.
        Histogram = "accel.histogram",
        /// Element-wise arithmetic over two arrays: args `(a_ptr, b_ptr, c_ptr, n)`.
        ElementWise = "accel.elementwise",
        /// 2-D convolution forward pass: args `(in_c, out_c, h, w, k)`.
        Conv2d = "accel.conv2d",
        /// Fully connected (dense) layer: args `(batch, in_dim, out_dim)`.
        Dense = "accel.dense",
        /// ReLU activation: args `(n)`.
        Relu = "accel.relu",
        /// 2-D max pooling: args `(c, h, w, k)`.
        Pool2d = "accel.pool2d",
        /// Batch normalization: args `(n)`.
        BatchNorm = "accel.batchnorm",
        /// Embedding lookup/update: args `(rows, dim)`.
        Embedding = "accel.embedding",
    }
    /// Textual name.
    fn name;
    /// Parses a name produced by [`AccelOp::name`].
    fn from_name;
}

impl AccelOp {
    /// Number of `i64` parameters the invocation carries.
    pub fn arity(self) -> usize {
        match self {
            AccelOp::Sgemm => 6,
            AccelOp::Histogram => 4,
            AccelOp::ElementWise => 4,
            AccelOp::Conv2d => 5,
            AccelOp::Dense => 3,
            AccelOp::Relu => 1,
            AccelOp::Pool2d => 4,
            AccelOp::BatchNorm => 1,
            AccelOp::Embedding => 2,
        }
    }
}

/// The operation an instruction performs, with its operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Opcode {
    /// Two-operand arithmetic/bitwise operation.
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Integer comparison producing `i1`.
    ICmp {
        /// Predicate.
        pred: IntPredicate,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Floating comparison producing `i1`.
    FCmp {
        /// Predicate.
        pred: FloatPredicate,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Conditional value select.
    Select {
        /// `i1` condition.
        cond: Operand,
        /// Value when true.
        on_true: Operand,
        /// Value when false.
        on_false: Operand,
    },
    /// Value cast.
    Cast {
        /// Cast kind.
        kind: CastKind,
        /// Source value.
        value: Operand,
    },
    /// Address computation: `base + index * elem_size` (a simplified
    /// `getelementptr`, paper Fig. 3).
    Gep {
        /// Base pointer.
        base: Operand,
        /// Element index.
        index: Operand,
        /// Element size in bytes.
        elem_size: u32,
    },
    /// Memory load; the instruction's type is the loaded type.
    Load {
        /// Address operand (must be `ptr`).
        addr: Operand,
    },
    /// Memory store.
    Store {
        /// Address operand (must be `ptr`).
        addr: Operand,
        /// Stored value.
        value: Operand,
    },
    /// Atomic read-modify-write; returns the old value.
    AtomicRmw {
        /// The atomic operation.
        op: AtomicOp,
        /// Address operand.
        addr: Operand,
        /// Operand value (for CAS, the *new* value).
        value: Operand,
        /// Expected value (CAS only).
        expected: Option<Operand>,
    },
    /// SSA phi node.
    Phi {
        /// `(predecessor block, value)` pairs.
        incoming: Vec<(BlockId, Operand)>,
    },
    /// Intrinsic call.
    Call {
        /// The intrinsic.
        intr: Intrinsic,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Enqueue a value on an inter-tile queue (paper §II-C).
    Send {
        /// Queue id (system-level config maps this to endpoints).
        queue: u32,
        /// Value to send.
        value: Operand,
    },
    /// Dequeue a value from an inter-tile queue; blocks while empty.
    Recv {
        /// Queue id.
        queue: u32,
    },
    /// Accelerator invocation (paper §IV-A). All arguments are evaluated
    /// and recorded in the dynamic trace.
    AccelCall {
        /// Which accelerated function.
        accel: AccelOp,
        /// Arguments (pointers and sizes as `i64`).
        args: Vec<Operand>,
    },
    /// Unconditional branch (terminator).
    Br {
        /// Destination block.
        target: BlockId,
    },
    /// Conditional branch (terminator).
    CondBr {
        /// `i1` condition.
        cond: Operand,
        /// Destination when true.
        on_true: BlockId,
        /// Destination when false.
        on_false: BlockId,
    },
    /// Function return (terminator).
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl Opcode {
    /// Whether this opcode ends a basic block.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(self, Opcode::Br { .. } | Opcode::CondBr { .. } | Opcode::Ret { .. })
    }

    /// Whether this opcode accesses memory (load/store/atomic).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Opcode::Load { .. } | Opcode::Store { .. } | Opcode::AtomicRmw { .. }
        )
    }

    /// Whether this opcode has a side effect beyond producing a value
    /// (used by dead-code elimination).
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Opcode::Store { .. }
                | Opcode::AtomicRmw { .. }
                | Opcode::Send { .. }
                | Opcode::Recv { .. }
                | Opcode::AccelCall { .. }
                | Opcode::Br { .. }
                | Opcode::CondBr { .. }
                | Opcode::Ret { .. }
        )
    }

    /// Visits every operand of this opcode.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            Opcode::Bin { lhs, rhs, .. }
            | Opcode::ICmp { lhs, rhs, .. }
            | Opcode::FCmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Opcode::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            Opcode::Cast { value, .. } => f(*value),
            Opcode::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            Opcode::Load { addr } => f(*addr),
            Opcode::Store { addr, value } => {
                f(*addr);
                f(*value);
            }
            Opcode::AtomicRmw {
                addr,
                value,
                expected,
                ..
            } => {
                f(*addr);
                f(*value);
                if let Some(e) = expected {
                    f(*e);
                }
            }
            Opcode::Phi { incoming } => {
                for (_, v) in incoming {
                    f(*v);
                }
            }
            Opcode::Call { args, .. } | Opcode::AccelCall { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Opcode::Send { value, .. } => f(*value),
            Opcode::Recv { .. } => {}
            Opcode::Br { .. } => {}
            Opcode::CondBr { cond, .. } => f(*cond),
            Opcode::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
        }
    }

    /// Successor blocks if this is a terminator.
    pub(crate) fn successors(&self) -> Vec<BlockId> {
        match self {
            Opcode::Br { target } => vec![*target],
            Opcode::CondBr {
                on_true, on_false, ..
            } => vec![*on_true, *on_false],
            _ => Vec::new(),
        }
    }
}

/// A single IR instruction: an opcode plus its SSA result type and the
/// block it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub(crate) id: InstId,
    pub(crate) block: BlockId,
    pub(crate) op: Opcode,
    pub(crate) ty: Type,
}

impl Inst {
    /// The instruction's id (and SSA value name).
    pub fn id(&self) -> InstId {
        self.id
    }

    /// The basic block this instruction belongs to.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The opcode and operands.
    pub fn op(&self) -> &Opcode {
        &self.op
    }

    /// Mutable access to the opcode (used by passes).
    pub(crate) fn op_mut(&mut self) -> &mut Opcode {
        &mut self.op
    }

    /// The SSA result type (`Void` if none).
    pub fn ty(&self) -> Type {
        self.ty
    }

    /// Whether this instruction produces an SSA value.
    pub fn produces_value(&self) -> bool {
        self.ty.is_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_and_mem_classification() {
        assert!(Opcode::Br { target: BlockId(0) }.is_terminator());
        assert!(Opcode::Ret { value: None }.is_terminator());
        let load = Opcode::Load {
            addr: Operand::Param(0),
        };
        assert!(load.is_mem());
        let store = Opcode::Store {
            addr: Operand::Param(0),
            value: Operand::Const(Constant::i32(1)),
        };
        assert!(store.is_mem());
        assert!(store.has_side_effect());
        assert!(!load.has_side_effect());
    }

    #[test]
    fn operand_visitation_covers_all() {
        let op = Opcode::Select {
            cond: Operand::Param(0),
            on_true: Operand::Param(1),
            on_false: Operand::Const(Constant::i32(0)),
        };
        let mut n = 0;
        op.for_each_operand(|_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn successors_of_terminators() {
        let br = Opcode::Br { target: BlockId(3) };
        assert_eq!(br.successors(), vec![BlockId(3)]);
        let cbr = Opcode::CondBr {
            cond: Operand::Param(0),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        assert_eq!(cbr.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Opcode::Ret { value: None }.successors().is_empty());
    }

    #[test]
    fn mnemonic_round_trips() {
        for op in [
            BinOp::Add,
            BinOp::FMul,
            BinOp::SDiv,
            BinOp::Xor,
            BinOp::AShr,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for p in [IntPredicate::Eq, IntPredicate::Slt, IntPredicate::Uge] {
            assert_eq!(IntPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
        for a in [AccelOp::Sgemm, AccelOp::Conv2d, AccelOp::Embedding] {
            assert_eq!(AccelOp::from_name(a.name()), Some(a));
        }
        for i in [Intrinsic::TileId, Intrinsic::Rsqrt, Intrinsic::SMax] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = InstId(4).into();
        assert_eq!(o.as_inst(), Some(InstId(4)));
        let c: Operand = Constant::i64(9).into();
        assert_eq!(c.as_const(), Some(Constant::i64(9)));
        assert_eq!(c.as_inst(), None);
    }
}

//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] plays the role of Clang + LLVM's `IRBuilder` in the
//! MosaicSim toolchain: kernels in `mosaic-kernels` are written directly
//! against it. It tracks a current insertion block and offers one method
//! per opcode, returning the produced SSA value as an [`Operand`].
//!
//! # Examples
//!
//! Building the paper's Fig. 3 example, `for (i = 0; i < 4; i++) C[i] = A[i]+B[i];`
//! (here with `A` as destination as in the figure's IR):
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, IntPredicate, BinOp};
//!
//! let mut module = Module::new("fig3");
//! let f = module.add_function(
//!     "kernel",
//!     vec![("a".into(), Type::Ptr), ("b".into(), Type::Ptr), ("c".into(), Type::Ptr)],
//!     Type::Void,
//! );
//! let mut b = FunctionBuilder::new(module.function_mut(f));
//! let (a, bp, c) = (b.param(0), b.param(1), b.param(2));
//! let entry = b.create_block("start");
//! let body = b.create_block("for.body");
//! let cleanup = b.create_block("cleanup");
//!
//! b.switch_to(entry);
//! b.br(body);
//!
//! b.switch_to(body);
//! let (iv, iv_phi) = b.phi_incomplete(Type::I64);
//! let bi_addr = b.gep(bp, iv, 4);
//! let bi = b.load(Type::I32, bi_addr);
//! let ci_addr = b.gep(c, iv, 4);
//! let ci = b.load(Type::I32, ci_addr);
//! let sum = b.bin(BinOp::Add, bi, ci);
//! let ai_addr = b.gep(a, iv, 4);
//! b.store(ai_addr, sum);
//! let next = b.bin(BinOp::Add, iv, Constant::i64(1).into());
//! let done = b.icmp(IntPredicate::Eq, next, Constant::i64(4).into());
//! b.cond_br(done, cleanup, body);
//! b.phi_add_incoming(iv_phi, entry, Constant::i64(0).into());
//! b.phi_add_incoming(iv_phi, body, next);
//!
//! b.switch_to(cleanup);
//! b.ret(None);
//!
//! mosaic_ir::verify_function(module.function(f)).unwrap();
//! assert_eq!(module.function(f).block_count(), 3);
//! # let _ = iv;
//! ```

use crate::function::Function;
use crate::ids::{BlockId, InstId};
use crate::inst::{
    AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, IntPredicate, Intrinsic, Opcode, Operand,
};
use crate::types::{Constant, Type};

/// Builder over a function under construction.
///
/// Create blocks with [`create_block`](Self::create_block), select the
/// insertion point with [`switch_to`](Self::switch_to), then append
/// instructions. Loop-carried `phi`s are built in two steps with
/// [`phi_incomplete`](Self::phi_incomplete) +
/// [`phi_add_incoming`](Self::phi_add_incoming).
#[derive(Debug)]
pub struct FunctionBuilder<'f> {
    func: &'f mut Function,
    current: Option<BlockId>,
}

impl<'f> FunctionBuilder<'f> {
    /// Starts building into `func`.
    pub fn new(func: &'f mut Function) -> Self {
        FunctionBuilder {
            func,
            current: None,
        }
    }

    /// The `n`-th function parameter as an operand.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn param(&self, n: u32) -> Operand {
        assert!(
            (n as usize) < self.func.params().len(),
            "parameter index {n} out of range"
        );
        Operand::Param(n)
    }

    /// Creates a new (empty) basic block.
    pub fn create_block(&mut self, name: &str) -> BlockId {
        self.func.push_block(name)
    }

    /// Makes `block` the insertion point for subsequent instructions.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected yet.
    fn current_block(&self) -> BlockId {
        self.current.expect("no insertion block selected")
    }

    fn emit(&mut self, op: Opcode, ty: Type) -> InstId {
        let block = self.current_block();
        self.func.push_inst(block, op, ty)
    }

    fn operand_ty(&self, op: Operand) -> Type {
        match op {
            Operand::Inst(id) => self.func.inst(id).ty(),
            Operand::Const(c) => c.ty(),
            Operand::Param(n) => self.func.params()[n as usize].1,
        }
    }

    /// Emits a two-operand arithmetic/bitwise operation. The result type is
    /// the type of `lhs`.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Operand {
        let ty = self.operand_ty(lhs);
        Operand::Inst(self.emit(Opcode::Bin { op, lhs, rhs }, ty))
    }

    /// Emits an integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: IntPredicate, lhs: Operand, rhs: Operand) -> Operand {
        Operand::Inst(self.emit(Opcode::ICmp { pred, lhs, rhs }, Type::I1))
    }

    /// Emits a floating comparison producing `i1`.
    pub fn fcmp(&mut self, pred: FloatPredicate, lhs: Operand, rhs: Operand) -> Operand {
        Operand::Inst(self.emit(Opcode::FCmp { pred, lhs, rhs }, Type::I1))
    }

    /// Emits a conditional select; result type follows `on_true`.
    pub fn select(&mut self, cond: Operand, on_true: Operand, on_false: Operand) -> Operand {
        let ty = self.operand_ty(on_true);
        Operand::Inst(self.emit(
            Opcode::Select {
                cond,
                on_true,
                on_false,
            },
            ty,
        ))
    }

    /// Emits a cast to `to`.
    pub fn cast(&mut self, kind: CastKind, value: Operand, to: Type) -> Operand {
        Operand::Inst(self.emit(Opcode::Cast { kind, value }, to))
    }

    /// Emits an address computation `base + index * elem_size`.
    pub fn gep(&mut self, base: Operand, index: Operand, elem_size: u32) -> Operand {
        Operand::Inst(self.emit(
            Opcode::Gep {
                base,
                index,
                elem_size,
            },
            Type::Ptr,
        ))
    }

    /// Emits a load of type `ty` from `addr`.
    pub fn load(&mut self, ty: Type, addr: Operand) -> Operand {
        Operand::Inst(self.emit(Opcode::Load { addr }, ty))
    }

    /// Emits a store of `value` to `addr`.
    pub fn store(&mut self, addr: Operand, value: Operand) {
        self.emit(Opcode::Store { addr, value }, Type::Void);
    }

    /// Emits an atomic read-modify-write returning the old value.
    pub fn atomic_rmw(&mut self, op: AtomicOp, addr: Operand, value: Operand) -> Operand {
        let ty = self.operand_ty(value);
        Operand::Inst(self.emit(
            Opcode::AtomicRmw {
                op,
                addr,
                value,
                expected: None,
            },
            ty,
        ))
    }

    /// Emits an atomic compare-and-swap returning the old value.
    #[cfg(test)]
    pub(crate) fn atomic_cas(&mut self, addr: Operand, expected: Operand, new: Operand) -> Operand {
        let ty = self.operand_ty(new);
        Operand::Inst(self.emit(
            Opcode::AtomicRmw {
                op: AtomicOp::Cas,
                addr,
                value: new,
                expected: Some(expected),
            },
            ty,
        ))
    }

    /// Emits a complete phi with all incoming edges known up front.
    #[cfg(test)]
    pub(crate) fn phi(&mut self, ty: Type, incoming: Vec<(BlockId, Operand)>) -> Operand {
        Operand::Inst(self.emit(Opcode::Phi { incoming }, ty))
    }

    /// Emits a phi with no incoming edges yet; complete it later with
    /// [`phi_add_incoming`](Self::phi_add_incoming). Returns the phi both
    /// as an operand (for immediate use) and as an instruction id (for
    /// completion).
    pub fn phi_incomplete(&mut self, ty: Type) -> (Operand, InstId) {
        let id = self.emit(Opcode::Phi { incoming: vec![] }, ty);
        (Operand::Inst(id), id)
    }

    /// Adds an incoming edge to a phi created by
    /// [`phi_incomplete`](Self::phi_incomplete).
    ///
    /// # Panics
    ///
    /// Panics if `phi` does not refer to a phi instruction.
    pub fn phi_add_incoming(&mut self, phi: InstId, pred: BlockId, value: Operand) {
        match self.func.inst_mut(phi).op_mut() {
            Opcode::Phi { incoming } => incoming.push((pred, value)),
            _ => panic!("{phi} is not a phi"),
        }
    }

    /// Emits an intrinsic call; `ty` is the result type.
    pub fn call(&mut self, intr: Intrinsic, args: Vec<Operand>, ty: Type) -> Operand {
        Operand::Inst(self.emit(Opcode::Call { intr, args }, ty))
    }

    /// Shorthand for the zero-argument `tile_id` intrinsic (returns `i64`).
    pub fn tile_id(&mut self) -> Operand {
        self.call(Intrinsic::TileId, vec![], Type::I64)
    }

    /// Shorthand for the zero-argument `num_tiles` intrinsic (returns `i64`).
    pub fn num_tiles(&mut self) -> Operand {
        self.call(Intrinsic::NumTiles, vec![], Type::I64)
    }

    /// Emits a `send` of `value` on `queue`.
    pub fn send(&mut self, queue: u32, value: Operand) {
        self.emit(Opcode::Send { queue, value }, Type::Void);
    }

    /// Emits a blocking `recv` from `queue`, producing a value of type `ty`.
    pub fn recv(&mut self, queue: u32, ty: Type) -> Operand {
        Operand::Inst(self.emit(Opcode::Recv { queue }, ty))
    }

    /// Emits an accelerator invocation.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match [`AccelOp::arity`].
    pub fn accel_call(&mut self, accel: AccelOp, args: Vec<Operand>) {
        assert_eq!(
            args.len(),
            accel.arity(),
            "{} expects {} args",
            accel.name(),
            accel.arity()
        );
        self.emit(Opcode::AccelCall { accel, args }, Type::Void);
    }

    /// Emits an unconditional branch terminator.
    pub fn br(&mut self, target: BlockId) {
        self.emit(Opcode::Br { target }, Type::Void);
    }

    /// Emits a conditional branch terminator.
    pub fn cond_br(&mut self, cond: Operand, on_true: BlockId, on_false: BlockId) {
        self.emit(
            Opcode::CondBr {
                cond,
                on_true,
                on_false,
            },
            Type::Void,
        );
    }

    /// Emits a return terminator.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.emit(Opcode::Ret { value }, Type::Void);
    }

    /// Convenience: emits a canonical counted loop
    /// `for i in start..end { body(i) }` and returns to a freshly created
    /// continuation block: [`emit_loop`](Self::emit_loop) with step 1 and
    /// no carried values.
    ///
    /// `body` receives the builder positioned inside the loop body and the
    /// induction variable (an `i64` operand). After `emit_counted_loop`
    /// returns, the insertion point is the continuation block.
    pub fn emit_counted_loop(
        &mut self,
        name: &str,
        start: Operand,
        end: Operand,
        body: impl FnOnce(&mut Self, Operand),
    ) {
        let [] = self.emit_loop(
            name,
            start,
            end,
            Constant::i64(1).into(),
            [],
            |b, iv, []| {
                body(b, iv);
                []
            },
        );
    }

    /// Emits `for (i = start; i < end; i += step)` carrying `N` values
    /// around the back edge, and returns their final values.
    ///
    /// The blocks are `{name}.header`, `{name}.body` and `{name}.cont`. The
    /// header holds the `i64` induction phi, then one phi per entry of
    /// `carried` (its type and its value on entry) in order, then
    /// `icmp slt` and `condbr`. `body(builder, i, current)` runs in the
    /// body block and returns the values for the next iteration; the latch
    /// is whichever block it ends in. Every phi takes its incomings as
    /// (pre-header, latch). Afterwards the insertion point is the
    /// continuation block, where the returned operands (the header's phis)
    /// hold the values carried out of the last iteration.
    pub fn emit_loop<const N: usize>(
        &mut self,
        name: &str,
        start: Operand,
        end: Operand,
        step: Operand,
        carried: [(Type, Operand); N],
        body: impl FnOnce(&mut Self, Operand, [Operand; N]) -> [Operand; N],
    ) -> [Operand; N] {
        let pre = self.current_block();
        let header = self.create_block(&format!("{name}.header"));
        let body_bb = self.create_block(&format!("{name}.body"));
        let cont = self.create_block(&format!("{name}.cont"));

        self.br(header);
        self.switch_to(header);
        let (iv, iv_phi) = self.phi_incomplete(Type::I64);
        let phis = carried.map(|(ty, _)| self.phi_incomplete(ty));
        let cond = self.icmp(IntPredicate::Slt, iv, end);
        self.cond_br(cond, body_bb, cont);

        self.switch_to(body_bb);
        let next_values = body(self, iv, phis.map(|(value, _)| value));
        // `body` may have created nested blocks; the latch is whatever block
        // we are in when it finishes.
        let next = self.bin(BinOp::Add, iv, step);
        let latch = self.current_block();
        self.br(header);

        self.phi_add_incoming(iv_phi, pre, start);
        self.phi_add_incoming(iv_phi, latch, next);
        for (((_, init), (_, phi)), next) in carried.into_iter().zip(phis).zip(next_values) {
            self.phi_add_incoming(phi, pre, init);
            self.phi_add_incoming(phi, latch, next);
        }
        self.switch_to(cont);
        phis.map(|(value, _)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Module;
    use crate::verify::verify_function;

    #[test]
    fn counted_loop_builds_valid_ir() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let p = b.param(0);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        b.emit_counted_loop(
            "l",
            Constant::i64(0).into(),
            Constant::i64(8).into(),
            |b, i| {
                let a = b.gep(p, i, 8);
                let v = b.load(Type::I64, a);
                let v2 = b.bin(BinOp::Add, v, Constant::i64(1).into());
                b.store(a, v2);
            },
        );
        b.ret(None);
        verify_function(m.function(f)).unwrap();
        assert_eq!(m.function(f).block_count(), 4);
    }

    /// `emit_loop` carrying 0, 1 and 2 values, with a nested loop in the
    /// body so the latch is not the body block: the header holds the
    /// induction phi, then one phi per carried value in order, each
    /// taking (pre-header, latch); the returned operands are those phis.
    #[test]
    fn emit_loop_orders_phis_iv_first_with_pre_then_latch_incomings() {
        fn check<const N: usize>(carried: [(Type, Operand); N]) {
            let mut m = Module::new("t");
            let f = m.add_function("k", vec![], Type::Void);
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to(entry);
            let (start, step) = (Constant::i64(2).into(), Constant::i64(3).into());
            let mut seen = None;
            let out = b.emit_loop(
                "l",
                start,
                Constant::i64(9).into(),
                step,
                carried,
                |b, iv, acc| {
                    b.emit_counted_loop("inner", Constant::i64(0).into(), iv, |_, _| {});
                    let next = std::array::from_fn(|k| match carried[k].0 {
                        Type::F32 => b.bin(BinOp::FAdd, acc[k], Constant::f32(1.0).into()),
                        _ => b.bin(BinOp::Add, acc[k], iv),
                    });
                    seen = Some((iv, acc, next, b.current_block()));
                    next
                },
            );
            b.ret(None);
            let (iv, acc, next, latch) = seen.expect("body ran");
            assert_eq!(out, acc);

            let func = m.function(f);
            verify_function(func).unwrap();
            let header = func.blocks().find(|bb| bb.name() == "l.header").unwrap();
            assert_eq!(func.block(latch).name(), "inner.cont");
            let insts = header.insts();
            assert_eq!(insts.len(), N + 3);
            let phis = insts[..=N]
                .iter()
                .map(|&id| (Operand::Inst(id), func.inst(id)));
            // The induction variable's latch value is `add iv, step`.
            let step_add = match func.inst(insts[0]).op() {
                Opcode::Phi { incoming } => incoming[1].1,
                other => panic!("header starts with {other:?}"),
            };
            let Operand::Inst(add) = step_add else {
                panic!("latch value {step_add:?}")
            };
            match func.inst(add).op() {
                Opcode::Bin { op, lhs, rhs } => {
                    assert_eq!((*op, *lhs, *rhs), (BinOp::Add, iv, step))
                }
                other => panic!("latch value {other:?}"),
            }
            let want = std::iter::once((Type::I64, start, step_add, iv))
                .chain((0..N).map(|k| (carried[k].0, carried[k].1, next[k], acc[k])));
            for ((value, inst), (ty, init, next, phi)) in phis.zip(want) {
                assert_eq!((value, inst.ty()), (phi, ty));
                match inst.op() {
                    Opcode::Phi { incoming } => {
                        assert_eq!(incoming, &vec![(entry, init), (latch, next)]);
                    }
                    other => panic!("expected a phi, found {other:?}"),
                }
            }
            assert!(matches!(func.inst(insts[N + 1]).op(), Opcode::ICmp { .. }));
            assert!(matches!(
                func.inst(insts[N + 2]).op(),
                Opcode::CondBr { .. }
            ));
        }
        check([]);
        check([(Type::F32, Constant::f32(0.5).into())]);
        check([
            (Type::I64, Constant::i64(7).into()),
            (Type::F32, Constant::f32(0.0).into()),
        ]);
    }

    #[test]
    #[should_panic(expected = "parameter index")]
    fn param_out_of_range_panics() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::Void);
        let b = FunctionBuilder::new(m.function_mut(f));
        let _ = b.param(0);
    }

    #[test]
    fn nested_loops_verify() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let p = b.param(0);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        b.emit_counted_loop(
            "outer",
            Constant::i64(0).into(),
            Constant::i64(4).into(),
            |b, i| {
                b.emit_counted_loop(
                    "inner",
                    Constant::i64(0).into(),
                    Constant::i64(4).into(),
                    |b, j| {
                        let idx = b.bin(BinOp::Mul, i, Constant::i64(4).into());
                        let idx = b.bin(BinOp::Add, idx, j);
                        let a = b.gep(p, idx, 4);
                        b.store(a, Constant::i32(0).into());
                    },
                );
            },
        );
        b.ret(None);
        verify_function(m.function(f)).unwrap();
    }
}

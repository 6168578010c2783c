//! # mosaic-ir
//!
//! The compiler substrate of MosaicSim-RS: a compact SSA intermediate
//! representation closely modeled on LLVM IR, plus the tooling MosaicSim's
//! front end provides on top of LLVM (paper §II):
//!
//! * **IR + builder** — [`Module`], [`Function`], [`FunctionBuilder`]:
//!   kernels are written against the builder exactly as the paper's kernels
//!   are written in C and compiled by Clang.
//! * **Verifier** — [`verify_module`] checks the structural invariants the
//!   rest of the toolchain relies on.
//! * **Printer / parser** — a stable, round-trippable textual format
//!   ([`print_module`] / [`parse_module`]).
//! * **Functional interpreter (DTG)** — [`interp`] executes kernels over a
//!   byte-addressed [`MemImage`], with multi-tile SPMD and blocking
//!   `send`/`recv` queues, emitting the dynamic control-flow and memory
//!   traces that drive the timing simulator (paper §II-A).
//!
//! # Examples
//!
//! Build and run a vector-add kernel:
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp, MemImage, RtVal};
//! use mosaic_ir::interp::{run_single, NullSink};
//!
//! let mut m = Module::new("demo");
//! let f = m.add_function(
//!     "vadd",
//!     vec![("a".into(), Type::Ptr), ("b".into(), Type::Ptr), ("n".into(), Type::I64)],
//!     Type::Void,
//! );
//! let mut b = FunctionBuilder::new(m.function_mut(f));
//! let (pa, pb, n) = (b.param(0), b.param(1), b.param(2));
//! let entry = b.create_block("entry");
//! b.switch_to(entry);
//! b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
//!     let aa = b.gep(pa, i, 4);
//!     let av = b.load(Type::F32, aa);
//!     let ba = b.gep(pb, i, 4);
//!     let bv = b.load(Type::F32, ba);
//!     let s = b.bin(BinOp::FAdd, av, bv);
//!     b.store(aa, s);
//! });
//! b.ret(None);
//! mosaic_ir::verify_module(&m)?;
//!
//! let mut mem = MemImage::new();
//! let a = mem.alloc_f32(4);
//! let bbuf = mem.alloc_f32(4);
//! mem.fill_f32(a, &[1.0, 2.0, 3.0, 4.0]);
//! mem.fill_f32(bbuf, &[10.0, 20.0, 30.0, 40.0]);
//! let out = run_single(&m, mem, f, vec![RtVal::Int(a as i64), RtVal::Int(bbuf as i64), RtVal::Int(4)], &mut NullSink)?;
//! assert_eq!(out.mem.read_f32_slice(a, 4), vec![11.0, 22.0, 33.0, 44.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod builder;
mod function;
mod ids;
mod inst;
mod mem_image;
mod types;

pub mod analysis;
pub mod interp;
pub mod parser;
pub mod printer;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, Function, IrError, Module};
pub use ids::{BlockId, FuncId, InstId};
pub use inst::{
    AccelOp, AtomicOp, BinOp, CastKind, FloatPredicate, Inst, IntPredicate, Intrinsic, Opcode,
    Operand,
};
pub use interp::{run_single, run_tiles, ExecError, ExecOutcome, TileProgram, TraceSink};
pub use mem_image::{MemImage, RtVal};
pub use parser::{parse_module, parse_module_with_spans, SpanTable};
pub use printer::{print_inst, print_module};
pub use types::{Constant, Type};
pub use verify::{verify_function, verify_module};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NullSink;

    fn sum_kernel() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "sum",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::I64,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let (acc, acc_phi) = b.phi_incomplete(Type::I64);
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let addr = b.gep(p, i, 8);
        let v = b.load(Type::I64, addr);
        let acc2 = b.bin(BinOp::Add, acc, v);
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        b.br(header);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, body, i2);
        b.phi_add_incoming(acc_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(acc_phi, body, acc2);
        b.switch_to(exit);
        b.ret(Some(acc));
        verify_module(&m).unwrap();
        (m, f)
    }

    #[test]
    fn loop_with_two_phis_sums_correctly() {
        let (m, f) = sum_kernel();
        let mut mem = MemImage::new();
        let p = mem.alloc_i64(5);
        mem.fill_i64(p, &[1, 2, 3, 4, 5]);
        let out = run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(p as i64), RtVal::Int(5)],
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(15)));
        assert!(out.steps > 0);
    }

    #[test]
    fn spmd_tiles_observe_distinct_ids() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("out".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let out = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        let tid = b.tile_id();
        let a = b.gep(out, tid, 8);
        b.store(a, tid);
        b.ret(None);
        verify_module(&m).unwrap();

        let mut mem = MemImage::new();
        let p = mem.alloc_i64(4);
        let progs = TileProgram::spmd(f, vec![RtVal::Int(p as i64)], 4);
        let outcome = run_tiles(&m, mem, &progs, &mut NullSink).unwrap();
        assert_eq!(outcome.mem.read_i64_slice(p, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn send_recv_pipeline_between_tiles() {
        let mut m = Module::new("t");
        // Producer: sends 0..n on queue 0.
        let prod = m.add_function("prod", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(prod));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, i| {
            b.send(0, i);
        });
        b.ret(None);
        // Consumer: receives n values, returns their sum.
        let cons = m.add_function("cons", vec![("n".into(), Type::I64)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(cons));
        let n = b.param(0);
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let (acc, acc_phi) = b.phi_incomplete(Type::I64);
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let v = b.recv(0, Type::I64);
        let acc2 = b.bin(BinOp::Add, acc, v);
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        b.br(header);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, body, i2);
        b.phi_add_incoming(acc_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(acc_phi, body, acc2);
        b.switch_to(exit);
        b.ret(Some(acc));
        verify_module(&m).unwrap();

        let progs = vec![
            TileProgram::single(prod, vec![RtVal::Int(10)]),
            TileProgram::single(cons, vec![RtVal::Int(10)]),
        ];
        let out = run_tiles(&m, MemImage::new(), &progs, &mut NullSink).unwrap();
        assert_eq!(out.returns[1], Some(RtVal::Int(45)));
    }

    #[test]
    fn recv_on_empty_queue_deadlocks() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.recv(7, Type::I64);
        b.ret(Some(v));
        let err = run_single(&m, MemImage::new(), f, vec![], &mut NullSink).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { .. }));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let x = b.param(0);
        let d = b.bin(BinOp::SDiv, x, Constant::i64(0).into());
        b.ret(Some(d));
        let err =
            run_single(&m, MemImage::new(), f, vec![RtVal::Int(1)], &mut NullSink).unwrap_err();
        assert!(matches!(err, ExecError::Trap(_)));
    }

    #[test]
    fn atomic_rmw_returns_old_value() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::I32);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        let old = b.atomic_rmw(AtomicOp::Add, p, Constant::i32(5).into());
        b.ret(Some(old));
        let mut mem = MemImage::new();
        let p = mem.alloc_i32(1);
        mem.write_i32(p, 37);
        let out = run_single(&m, mem, f, vec![RtVal::Int(p as i64)], &mut NullSink).unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(37)));
        assert_eq!(out.mem.read_i32(p), 42);
    }

    #[test]
    fn accel_sgemm_functional_semantics() {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![
                ("a".into(), Type::Ptr),
                ("b".into(), Type::Ptr),
                ("c".into(), Type::Ptr),
            ],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let (pa, pb, pc) = (b.param(0), b.param(1), b.param(2));
        b.accel_call(
            AccelOp::Sgemm,
            vec![
                pa,
                pb,
                pc,
                Constant::i64(2).into(),
                Constant::i64(2).into(),
                Constant::i64(2).into(),
            ],
        );
        b.ret(None);
        let mut mem = MemImage::new();
        let a = mem.alloc_f32(4);
        let bb = mem.alloc_f32(4);
        let c = mem.alloc_f32(4);
        mem.fill_f32(a, &[1.0, 2.0, 3.0, 4.0]);
        mem.fill_f32(bb, &[5.0, 6.0, 7.0, 8.0]);
        let out = run_single(
            &m,
            mem,
            f,
            vec![
                RtVal::Int(a as i64),
                RtVal::Int(bb as i64),
                RtVal::Int(c as i64),
            ],
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(out.mem.read_f32_slice(c, 4), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn step_limit_enforced() {
        let mut m = Module::new("t");
        let f = m.add_function("spin", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let l = b.create_block("loop");
        b.switch_to(e);
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let mut sink = NullSink;
        let mut interp = interp::Interpreter::new(
            &m,
            MemImage::new(),
            &[TileProgram::single(f, vec![])],
            &mut sink,
        );
        interp.set_step_limit(1000);
        assert!(matches!(interp.run(), Err(ExecError::StepLimit(_))));
    }

    /// Runs the one-block function `body` builds over `params`, returning
    /// what it returns.
    fn eval(
        params: &[(Type, RtVal)],
        ret: Type,
        body: impl FnOnce(&mut FunctionBuilder<'_>) -> Operand,
    ) -> Result<RtVal, ExecError> {
        let mut m = Module::new("t");
        let tys = params.iter().enumerate();
        let tys = tys.map(|(i, (ty, _))| (format!("p{i}"), *ty)).collect();
        let f = m.add_function("k", tys, ret);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = body(&mut b);
        b.ret(Some(v));
        let args = params.iter().map(|(_, v)| *v).collect();
        let out = run_single(&m, MemImage::new(), f, args, &mut NullSink)?;
        Ok(out.returns[0].expect("returns a value"))
    }

    /// `a, b = b, a` per iteration: every phi of a group reads its source
    /// before any is written. A sequential move list loses a copy and
    /// returns 22 or 11.
    #[test]
    fn two_phi_swap_loop_is_a_parallel_assignment() {
        let mut m = Module::new("t");
        let f = m.add_function("swap", vec![("n".into(), Type::I64)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let n = b.param(0);
        let entry = b.create_block("entry");
        let head = b.create_block("head");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(head);
        b.switch_to(head);
        let (a, a_phi) = b.phi_incomplete(Type::I64);
        let (bb, b_phi) = b.phi_incomplete(Type::I64);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        let c = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(c, head, exit);
        b.phi_add_incoming(a_phi, entry, Constant::i64(1).into());
        b.phi_add_incoming(a_phi, head, bb);
        b.phi_add_incoming(b_phi, entry, Constant::i64(2).into());
        b.phi_add_incoming(b_phi, head, a);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, head, i2);
        b.switch_to(exit);
        let a10 = b.bin(BinOp::Mul, a, Constant::i64(10).into());
        let r = b.bin(BinOp::Add, a10, bb);
        b.ret(Some(r));
        verify_module(&m).unwrap();
        for (n, want) in [(1, 12), (2, 21), (3, 12), (4, 21)] {
            let out = run_single(&m, MemImage::new(), f, vec![RtVal::Int(n)], &mut NullSink);
            assert_eq!(out.unwrap().returns[0], Some(RtVal::Int(want)), "n = {n}");
        }
    }

    #[test]
    fn phi_fed_by_a_constant_and_by_a_param() {
        let mut m = Module::new("t");
        let params = vec![("x".into(), Type::F64), ("n".into(), Type::I64)];
        let f = m.add_function("k", params, Type::F64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (x, n) = (b.param(0), b.param(1));
        let entry = b.create_block("entry");
        let head = b.create_block("head");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(head);
        b.switch_to(head);
        let v = b.phi(
            Type::F64,
            vec![(entry, Constant::f64(0.25).into()), (head, x)],
        );
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        let c = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(c, head, exit);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, head, i2);
        b.switch_to(exit);
        b.ret(Some(v));
        verify_module(&m).unwrap();
        for (n, want) in [(1, 0.25), (2, -3.5), (5, -3.5)] {
            let args = vec![RtVal::Float(-3.5), RtVal::Int(n)];
            let out = run_single(&m, MemImage::new(), f, args, &mut NullSink).unwrap();
            assert_eq!(out.returns[0], Some(RtVal::Float(want)), "n = {n}");
            // entry's br; per trip two phis, add, icmp, condbr; ret.
            assert_eq!(out.steps, 1 + 5 * n as u64 + 1);
        }
    }

    #[test]
    fn every_binop_once() {
        use BinOp::*;
        let int = |op, a: i64, b: i64| {
            let params = [(Type::I64, RtVal::Int(a)), (Type::I64, RtVal::Int(b))];
            eval(&params, Type::I64, |bld| {
                let (x, y) = (bld.param(0), bld.param(1));
                bld.bin(op, x, y)
            })
        };
        let cases = [
            (Add, i64::MAX, 1, i64::MIN),
            (Sub, i64::MIN, 1, i64::MAX),
            (Mul, 1 << 62, 4, 0),
            (SDiv, -7, 2, -3),
            (SDiv, i64::MIN, -1, i64::MIN),
            (SRem, -7, 2, -1),
            (SRem, i64::MIN, -1, 0),
            (UDiv, -1, 2, i64::MAX),
            (URem, -1, 10, 5),
            (And, 0b1100, 0b1010, 0b1000),
            (Or, 0b1100, 0b1010, 0b1110),
            (Xor, 0b1100, 0b1010, 0b0110),
            (Shl, 1, 65, 2),
            (AShr, -16, 2, -4),
            (LShr, -16, 60, 15),
        ];
        for (op, a, b, want) in cases {
            assert_eq!(int(op, a, b), Ok(RtVal::Int(want)), "{op:?} {a} {b}");
        }
        for op in [SDiv, UDiv] {
            let trap = ExecError::Trap("integer division by zero".into());
            assert_eq!(int(op, 5, 0), Err(trap), "{op:?}");
        }
        for op in [SRem, URem] {
            let trap = ExecError::Trap("integer remainder by zero".into());
            assert_eq!(int(op, 5, 0), Err(trap), "{op:?}");
        }
        let float = |op, a: f64, b: f64| {
            let params = [(Type::F64, RtVal::Float(a)), (Type::F64, RtVal::Float(b))];
            eval(&params, Type::F64, |bld| {
                let (x, y) = (bld.param(0), bld.param(1));
                bld.bin(op, x, y)
            })
        };
        assert_eq!(float(FAdd, 0.1, 0.2), Ok(RtVal::Float(0.1 + 0.2)));
        assert_eq!(float(FSub, 1.0, 0.75), Ok(RtVal::Float(0.25)));
        assert_eq!(float(FMul, 1.5, -4.0), Ok(RtVal::Float(-6.0)));
        assert_eq!(float(FDiv, 1.0, 0.0), Ok(RtVal::Float(f64::INFINITY)));
    }

    #[test]
    #[should_panic(expected = "expected int, found float")]
    fn integer_op_on_a_float_panics() {
        let params = [(Type::F64, RtVal::Float(1.0))];
        let _ = eval(&params, Type::I64, |b| {
            let x = b.param(0);
            b.bin(BinOp::Add, x, x)
        });
    }

    #[test]
    #[should_panic(expected = "use of undefined value %1 (tile 0)")]
    fn use_of_a_value_before_its_definition_panics() {
        // Unverified: `%0 = add 1, %1` reads the instruction below it.
        let _ = eval(&[], Type::I64, |b| {
            let one: Operand = Constant::i64(1).into();
            let early = b.bin(BinOp::Add, one, Operand::Inst(InstId(1)));
            b.bin(BinOp::Add, early, early)
        });
    }

    /// A phi with no entry for the edge taken fails when that edge is
    /// taken, not when the kernel is set up.
    #[test]
    fn phi_missing_an_edge_panics_only_when_the_edge_is_taken() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("c".into(), Type::I1)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let c = b.param(0);
        let entry = b.create_block("entry");
        let side = b.create_block("side");
        let join = b.create_block("join");
        b.switch_to(entry);
        b.cond_br(c, side, join);
        b.switch_to(side);
        b.br(join);
        b.switch_to(join);
        let v = b.phi(Type::I64, vec![(side, Constant::i64(9).into())]);
        b.ret(Some(v));
        let run = |c| run_single(&m, MemImage::new(), f, vec![RtVal::Int(c)], &mut NullSink);
        assert_eq!(run(1).unwrap().returns[0], Some(RtVal::Int(9)));
        let err = std::panic::catch_unwind(|| run(0)).expect_err("the entry edge has no value");
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(msg, "phi %2 missing edge from bb0");
    }

    #[test]
    fn every_cast_once() {
        let cast = |kind, from: Type, v: RtVal, to: Type| {
            eval(&[(from, v)], to, |b| {
                let x = b.param(0);
                b.cast(kind, x, to)
            })
            .unwrap()
        };
        use CastKind::*;
        let int = RtVal::Int;
        assert_eq!(cast(IntResize, Type::I64, int(130), Type::I8), int(-126));
        assert_eq!(cast(IntResize, Type::I64, int(2), Type::I1), int(1));
        assert_eq!(
            cast(IntResize, Type::I64, int(0x1_8000), Type::I16),
            int(-0x8000)
        );
        assert_eq!(
            cast(IntResize, Type::I64, int(1 << 32 | 5), Type::I32),
            int(5)
        );
        assert_eq!(cast(IntResize, Type::I32, int(-5), Type::I64), int(-5));
        assert_eq!(
            cast(IntToFloat, Type::I64, int(-3), Type::F64),
            RtVal::Float(-3.0)
        );
        assert_eq!(
            cast(FloatToInt, Type::F64, RtVal::Float(-2.7), Type::I64),
            int(-2)
        );
        assert_eq!(
            cast(FloatToInt, Type::F64, RtVal::Float(f64::NAN), Type::I64),
            int(0)
        );
        let third = RtVal::Float(1.0 / 3.0);
        let rounded = RtVal::Float(f64::from(1.0f32 / 3.0));
        assert_eq!(cast(FloatResize, Type::F64, third, Type::F32), rounded);
        assert_eq!(cast(FloatResize, Type::F32, third, Type::F64), third);
        assert_eq!(cast(IntToPtr, Type::I64, int(-1), Type::Ptr), int(-1));
        assert_eq!(
            cast(PtrToInt, Type::Ptr, int(0x1040), Type::I64),
            int(0x1040)
        );
    }

    #[test]
    fn every_atomic_once() {
        // (op, memory before, operand, memory after); all return the old value.
        let cases = [
            (AtomicOp::Add, i32::MAX, 1, i32::MIN),
            (AtomicOp::Min, 4, -9, -9),
            (AtomicOp::Max, 4, -9, 4),
            (AtomicOp::Xchg, 4, 11, 11),
        ];
        let run = |m: &Module, f, before: i32| {
            let mut mem = MemImage::new();
            let p = mem.alloc_i32(1);
            mem.write_i32(p, before);
            let out = run_single(m, mem, f, vec![RtVal::Int(p as i64)], &mut NullSink).unwrap();
            (out.returns[0], out.mem.read_i32(p))
        };
        for (op, before, operand, after) in cases {
            let mut m = Module::new("t");
            let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::I32);
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let e = b.create_block("entry");
            b.switch_to(e);
            let p = b.param(0);
            let old = b.atomic_rmw(op, p, Constant::i32(operand).into());
            b.ret(Some(old));
            let want = (Some(RtVal::Int(before.into())), after);
            assert_eq!(run(&m, f, before), want, "{op:?}");
        }
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::I32);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        let old = b.atomic_cas(p, Constant::i32(4).into(), Constant::i32(77).into());
        b.ret(Some(old));
        assert_eq!(run(&m, f, 4), (Some(RtVal::Int(4)), 77), "cas hit");
        assert_eq!(run(&m, f, 5), (Some(RtVal::Int(5)), 5), "cas miss");
    }

    #[test]
    fn every_intrinsic_once() {
        use Intrinsic::*;
        let unary = |intr, x: f64| {
            let got = eval(&[(Type::F64, RtVal::Float(x))], Type::F64, |b| {
                let x = b.param(0);
                b.call(intr, vec![x], Type::F64)
            });
            got.unwrap().as_float()
        };
        assert_eq!(unary(Sqrt, 2.0), 2f64.sqrt());
        assert_eq!(unary(Rsqrt, 16.0), 0.25);
        assert_eq!(unary(Exp, 1.5), 1.5f64.exp());
        assert_eq!(unary(Log, 10.0), 10f64.ln());
        assert_eq!(unary(Sin, 1.0), 1f64.sin());
        assert_eq!(unary(Cos, 1.0), 1f64.cos());
        assert_eq!(unary(FAbs, -0.5), 0.5);
        assert_eq!(unary(Floor, -0.5), -1.0);
        let binary = |intr, ty, x, y| {
            eval(&[(ty, x), (ty, y)], ty, |b| {
                let (x, y) = (b.param(0), b.param(1));
                b.call(intr, vec![x, y], ty)
            })
            .unwrap()
        };
        let (f, i) = (RtVal::Float, RtVal::Int);
        assert_eq!(binary(FMin, Type::F64, f(1.0), f(-2.0)), f(-2.0));
        assert_eq!(binary(FMax, Type::F64, f(1.0), f(-2.0)), f(1.0));
        assert_eq!(binary(SMin, Type::I64, i(1), i(-2)), i(-2));
        assert_eq!(binary(SMax, Type::I64, i(1), i(-2)), i(1));

        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let (tid, nt) = (b.tile_id(), b.num_tiles());
        let hundred = b.bin(BinOp::Mul, nt, Constant::i64(100).into());
        let r = b.bin(BinOp::Add, hundred, tid);
        b.ret(Some(r));
        let progs = TileProgram::spmd(f, vec![], 3);
        let out = run_tiles(&m, MemImage::new(), &progs, &mut NullSink).unwrap();
        let want = [300, 301, 302].map(|v| Some(RtVal::Int(v)));
        assert_eq!(out.returns, want);
    }

    /// Writes down every event as one token: `t0:B1` a block entry,
    /// `t0:M%4@1008/8r` a memory access, `t0:A%2` an accelerator call,
    /// `t0:R` a retire.
    #[derive(Default)]
    struct Events(Vec<String>);

    impl TraceSink for Events {
        fn on_block(&mut self, tile: usize, _func: FuncId, block: BlockId) {
            self.0.push(format!("t{tile}:B{}", block.0));
        }
        fn on_mem(&mut self, tile: usize, inst: InstId, addr: u64, size: u8, write: bool) {
            let rw = if write { 'w' } else { 'r' };
            self.0.push(format!("t{tile}:M{inst}@{addr:x}/{size}{rw}"));
        }
        fn on_accel(&mut self, tile: usize, inst: InstId, _accel: AccelOp, args: &[i64]) {
            self.0.push(format!("t{tile}:A{inst}{args:?}"));
        }
        fn on_retire(&mut self, tile: usize) {
            self.0.push(format!("t{tile}:R"));
        }
    }

    /// The event order of `sum_kernel` (entry, a header with two phis, a
    /// body with a load, an exit) over two elements, as the tree-walking
    /// interpreter emitted it: `on_block` before the block's phis retire,
    /// `on_mem` before the load retires, one `on_retire` per instruction.
    #[test]
    fn event_sequence_of_a_loop_is_pinned() {
        let (m, f) = sum_kernel();
        let mut mem = MemImage::new();
        let p = mem.alloc_i64(2);
        mem.fill_i64(p, &[5, 6]);
        let mut events = Events::default();
        let args = vec![RtVal::Int(p as i64), RtVal::Int(2)];
        let out = run_single(&m, mem, f, args, &mut events).unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(11)));
        let trip = |addr: &str| format!("B1 R R R R B2 R M%6@{addr}/8r R R R R");
        let want = format!("B0 R {} {} B1 R R R R B3 R", trip("1000"), trip("1008"));
        let got: Vec<&str> = events.0.iter().map(|e| &e[3..]).collect();
        assert_eq!(got.join(" "), want);
        assert_eq!(
            out.steps,
            events.0.iter().filter(|e| e.ends_with('R')).count() as u64
        );
    }

    /// `for i in 0..n { p[i] += 1; q[i] = i }` on every tile, over the same
    /// arrays: a header of one phi and an `icmp` -> `condbr` pair, a body
    /// with a `gep` -> `load` pair and a `gep` -> `store`, 11 steps an
    /// iteration. Blocks: entry 0, header 1, body 2, exit 3.
    fn pairs_loop(n: i64, tiles: usize) -> (Module, Vec<TileProgram>, MemImage) {
        let mut m = Module::new("t");
        let params = vec![("p".into(), Type::Ptr), ("q".into(), Type::Ptr)];
        let f = m.add_function("k", params, Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, q) = (b.param(0), b.param(1));
        let entry = b.create_block("entry");
        b.switch_to(entry);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(n).into(), |b, i| {
            let at = b.gep(p, i, 4);
            let v = b.load(Type::I32, at);
            let v = b.bin(BinOp::Add, v, Constant::i32(1).into());
            b.store(at, v);
            let at = b.gep(q, i, 8);
            b.store(at, i);
        });
        b.ret(None);
        verify_module(&m).unwrap();
        let mut mem = MemImage::new();
        let args = [mem.alloc_i32(n as u64), mem.alloc_i64(n as u64)];
        let args = args.map(|a| RtVal::Int(a as i64)).to_vec();
        (m, TileProgram::spmd(f, args, tiles), mem)
    }

    /// The tokens of `n` iterations of [`pairs_loop`] on `tiles` tiles,
    /// stopped by a step limit if one is given.
    fn pairs_events(
        n: i64,
        tiles: usize,
        limit: Option<u64>,
    ) -> (Events, Result<ExecOutcome, ExecError>) {
        let (m, progs, mem) = pairs_loop(n, tiles);
        let mut events = Events::default();
        let mut interp = interp::Interpreter::new(&m, mem, &progs, &mut events);
        if let Some(limit) = limit {
            interp.set_step_limit(limit);
        }
        let out = interp.run();
        (events, out)
    }

    /// A run stopped by `set_step_limit(n)` ends with the step that retires
    /// instruction n + 1, half of a fused pair or not — here the (n+1)-th
    /// `R`, as these loops' phi groups hold one phi each: its events are the
    /// unlimited run's up to there.
    #[test]
    fn the_step_limit_is_exact_at_fused_pairs() {
        for tiles in [1, 2] {
            let (all, out) = pairs_events(24, tiles, None);
            let total = out.unwrap().steps;
            assert!(total > 250, "{total} steps");
            let retires = all.0.iter().enumerate().filter(|(_, e)| e.ends_with('R'));
            let ends: Vec<usize> = retires.map(|(i, _)| i + 1).collect();
            for limit in 0..total {
                let (got, out) = pairs_events(24, tiles, Some(limit));
                assert_eq!(out.unwrap_err(), ExecError::StepLimit(limit));
                assert_eq!(got.0, all.0[..ends[limit as usize]], "limit {limit}, {tiles} tiles");
            }
        }
    }

    /// Every turn but a tile's last is 4096 steps, here 4096 `R`s, where
    /// a fused pair straddles its end as well; the pairs fused are every
    /// pair run but those split at a turn's end.
    #[test]
    fn turns_are_4096_steps_across_fused_pairs() {
        let n = 5000;
        let (events, out) = pairs_events(n, 3, None);
        let out = out.unwrap();
        // Each turn: its tile, its tokens.
        let mut turns: Vec<(&str, Vec<&str>)> = Vec::new();
        for e in &events.0 {
            let (tile, token) = e.split_at(3);
            match turns.last_mut() {
                Some((t, tokens)) if *t == tile => tokens.push(token),
                _ => turns.push((tile, vec![token])),
            }
        }
        let mut split = [0, 0];
        for (k, (tile, tokens)) in turns.iter().enumerate() {
            let retires = tokens.iter().filter(|t| **t == "R").count();
            let last = !turns[k + 1..].iter().any(|(t, _)| t == tile);
            assert!(last || retires == 4096, "turn {k} of {tile}: {retires} steps");
            // The second half of a pair split at the last turn's end.
            match tokens[..] {
                [load, ..] if load.starts_with('M') && load.ends_with('r') => split[0] += 1,
                ["R", "B2" | "B3", ..] => split[1] += 1,
                _ => {}
            }
        }
        assert!(split[0] > 0 && split[1] > 0, "both kinds of pair split: {split:?}");
        let pairs = 3 * (2 * n as u64 + 1) - split[0] - split[1];
        assert_eq!(out.steps - out.dispatches, pairs);
        assert_eq!(out.retired, [11 * n as u64 + 5; 3]);
    }

    /// One dispatch per op, a phi move counting as one, less one per fused
    /// pair: `sum_kernel` over two elements fuses its header's compare and
    /// branch three times and its body's `gep` and load twice.
    #[test]
    fn dispatches_are_steps_less_fused_pairs() {
        let (m, f) = sum_kernel();
        let mut mem = MemImage::new();
        let p = mem.alloc_i64(2);
        let args = vec![RtVal::Int(p as i64), RtVal::Int(2)];
        let out = run_single(&m, mem, f, args, &mut NullSink).unwrap();
        assert_eq!((out.steps, out.dispatches), (24, 19));
        for (n, tiles) in [(0, 1), (7, 1), (7, 2)] {
            let (m, progs, mem) = pairs_loop(n, tiles);
            let out = run_tiles(&m, mem, &progs, &mut NullSink).unwrap();
            let steps = tiles as u64 * (11 * n as u64 + 5);
            let pairs = tiles as u64 * (2 * n as u64 + 1);
            assert_eq!((out.steps, out.dispatches), (steps, steps - pairs), "{n} x{tiles}");
        }
        // A `gep` before a load through another address, and a compare
        // before the `condbr` on another: no pair.
        let mut m = Module::new("t");
        let params = vec![("p".into(), Type::Ptr), ("q".into(), Type::Ptr)];
        let f = m.add_function("k", params, Type::I32);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, q) = (b.param(0), b.param(1));
        let [entry, yes, no] = ["entry", "yes", "no"].map(|name| b.create_block(name));
        b.switch_to(entry);
        let at = b.gep(p, Constant::i64(1).into(), 4);
        let v = b.load(Type::I32, q);
        let lt = b.icmp(IntPredicate::Slt, v, Constant::i32(5).into());
        b.icmp(IntPredicate::Eq, v, Constant::i32(5).into());
        b.cond_br(lt, yes, no);
        b.switch_to(yes);
        let w = b.load(Type::I32, at);
        b.ret(Some(w));
        b.switch_to(no);
        b.ret(Some(v));
        let mut mem = MemImage::new();
        let (p, q) = (mem.alloc_i32(2), mem.alloc_i32(1));
        mem.fill_i32(p, &[0, 9]);
        mem.write_i32(q, 3);
        let args = vec![RtVal::Int(p as i64), RtVal::Int(q as i64)];
        let out = run_single(&m, mem, f, args, &mut NullSink).unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(9)));
        assert_eq!((out.steps, out.dispatches), (7, 7));
    }

    /// A consumer whose block opens with a `recv` (no phis) blocks in the
    /// step that entered the block: `on_block` is emitted once, however
    /// many turns the tile waits.
    #[test]
    fn recv_blocking_at_block_entry_emits_on_block_once() {
        let mut m = Module::new("t");
        let cons = m.add_function("cons", vec![], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(cons));
        let entry = b.create_block("entry");
        let wait = b.create_block("wait");
        b.switch_to(entry);
        b.br(wait);
        b.switch_to(wait);
        let v = b.recv(3, Type::I64);
        b.ret(Some(v));
        // The producer spins through more than one 4096-step turn first.
        let prod = m.add_function("prod", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(prod));
        let e = b.create_block("entry");
        b.switch_to(e);
        let n = Constant::i64(3000).into();
        b.emit_counted_loop("spin", Constant::i64(0).into(), n, |_, _| {});
        b.send(3, Constant::i64(42).into());
        b.ret(None);
        verify_module(&m).unwrap();
        let progs = [
            TileProgram::single(cons, vec![]),
            TileProgram::single(prod, vec![]),
        ];
        let mut events = Events::default();
        let out = run_tiles(&m, MemImage::new(), &progs, &mut events).unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(42)));
        assert_eq!(out.retired[0], 3);
        assert!(out.retired[1] > 2 * 4096, "the producer took several turns");
        let consumer: Vec<&str> = events
            .0
            .iter()
            .filter(|e| e.starts_with("t0"))
            .map(|e| &e[3..])
            .collect();
        assert_eq!(consumer.join(" "), "B0 R B1 R R");
    }

    #[test]
    fn deadlock_names_every_unfinished_tile() {
        let mut m = Module::new("t");
        let waits = m.add_function("waits", vec![], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(waits));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.recv(7, Type::I64);
        b.ret(Some(v));
        let done = m.add_function("done", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(done));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.ret(None);
        // Tiles 0 and 2 wait on queue 7 in different namespaces; 1 finishes.
        let progs = [
            TileProgram::single(waits, vec![]),
            TileProgram::single(done, vec![]),
            TileProgram::single(waits, vec![]).with_queue_offset(100),
        ];
        let err = run_tiles(&m, MemImage::new(), &progs, &mut NullSink).unwrap_err();
        assert_eq!(
            err,
            ExecError::Deadlock {
                blocked: vec![0, 2]
            }
        );
    }
}

//! # mosaic-passes
//!
//! Compiler passes over the MosaicSim IR — the transformations the paper
//! implements as LLVM passes:
//!
//! * [`slice_dae`] — Decoupled Access/Execute slicing (the DeSC pass of
//!   paper §VII-A): splits a kernel into an access slice and an execute
//!   slice communicating through load-value and store-value queues.
//! * `eliminate_dead_code` — classic DCE, used to strip each slice down
//!   to its own work.
//!
//! Both passes preserve IR verification; slicing preserves functional
//! semantics (property-tested against the interpreter).
//!
//! New instructions, programming paradigms, and pragmas "can be
//! straightforwardly added as function calls identified through LLVM
//! passes" (paper §II) — accelerator invocations follow that route and are
//! recognized directly as [`mosaic_ir::Opcode::AccelCall`] instructions,
//! mirroring the paper's accelerator API lowering.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod dae;
mod dce;

pub use dae::{slice_dae, DaeError, DaeQueues, DaeSlices};

#[cfg(test)]
mod semantics_tests {
    //! Deterministic pass-semantics sweeps (formerly proptest).
    use super::*;
    use crate::dce::eliminate_dead_code;
    use mosaic_ir::{
        run_single, run_tiles, BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal,
        TileProgram, Type,
    };

    /// SplitMix64 — a tiny seeded generator for input data.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (((u128::from(self.next()) * (hi - lo + 1) as u128) >> 64) as i64)
        }
        fn data(&mut self, max_len: u64, lo: i64, hi: i64) -> Vec<i64> {
            let len = self.int_in(1, max_len as i64) as usize;
            (0..len).map(|_| self.int_in(lo, hi)).collect()
        }
    }

    /// Builds y[i] = x[i] + sum(1..=extra) with a chain of extra value
    /// computation.
    fn build_kernel(extra_ops: usize) -> (Module, mosaic_ir::FuncId) {
        let mut m = Module::new("p");
        let f = m.add_function(
            "k",
            vec![
                ("x".into(), Type::Ptr),
                ("y".into(), Type::Ptr),
                ("n".into(), Type::I64),
            ],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (x, y, n) = (b.param(0), b.param(1), b.param(2));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
            let xa = b.gep(x, i, 8);
            let mut v = b.load(Type::I64, xa);
            for k in 0..extra_ops {
                v = b.bin(BinOp::Add, v, Constant::i64(k as i64 + 1).into());
            }
            let ya = b.gep(y, i, 8);
            b.store(ya, v);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        (m, f)
    }

    #[test]
    fn dae_slices_match_original_semantics() {
        let mut r = TestRng(21);
        for case in 0..24 {
            let data = r.data(39, -1000, 999);
            let extra = (case % 5) as usize;
            let (mut m, f) = build_kernel(extra);
            let n = data.len() as i64;

            // Original run.
            let mut mem = MemImage::new();
            let x = mem.alloc_i64(n as u64);
            let y = mem.alloc_i64(n as u64);
            mem.fill_i64(x, &data);
            let args = vec![RtVal::Int(x as i64), RtVal::Int(y as i64), RtVal::Int(n)];
            let out =
                run_single(&m, mem, f, args.clone(), &mut mosaic_ir::interp::NullSink).unwrap();
            let expected = out.mem.read_i64_slice(y, n as usize);

            // Sliced run.
            let slices = slice_dae(&mut m, f, DaeQueues::default()).unwrap();
            let mut mem = MemImage::new();
            let x2 = mem.alloc_i64(n as u64);
            let y2 = mem.alloc_i64(n as u64);
            assert_eq!(x2, x); // deterministic allocator keeps args valid
            mem.fill_i64(x2, &data);
            let progs = vec![
                TileProgram::single(slices.access, args.clone()),
                TileProgram::single(slices.execute, args),
            ];
            let out = run_tiles(&m, mem, &progs, &mut mosaic_ir::interp::NullSink).unwrap();
            assert_eq!(out.mem.read_i64_slice(y2, n as usize), expected);
        }
    }

    #[test]
    fn dce_never_changes_observable_memory() {
        let mut r = TestRng(22);
        for _case in 0..24 {
            let data = r.data(19, -100, 99);
            let (mut m, f) = build_kernel(3);
            let n = data.len() as i64;
            let run = |m: &Module| {
                let mut mem = MemImage::new();
                let x = mem.alloc_i64(n as u64);
                let y = mem.alloc_i64(n as u64);
                mem.fill_i64(x, &data);
                let args = vec![RtVal::Int(x as i64), RtVal::Int(y as i64), RtVal::Int(n)];
                let out = run_single(m, mem, f, args, &mut mosaic_ir::interp::NullSink).unwrap();
                out.mem.read_i64_slice(y, n as usize)
            };
            let before = run(&m);
            eliminate_dead_code(&mut m, f);
            mosaic_ir::verify_module(&m).unwrap();
            let after = run(&m);
            assert_eq!(before, after);
        }
    }
}

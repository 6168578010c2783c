//! The Parboil-style benchmark suite (paper §VI-A).
//!
//! Each kernel preserves the corresponding Parboil benchmark's loop
//! structure, memory access pattern, and arithmetic mix at a reduced
//! problem scale, and distributes work across SPMD tiles via
//! `tile_id`/`num_tiles` interleaving where the original is parallel.
//!
//! Characterization expectations (paper Fig. 6): `bfs` is the most
//! memory-latency-bound (atomics + irregular loads, lowest IPC); `spmv`
//! is bandwidth-bound; `sgemm`, `sad`, and `cutcp` are compute-bound
//! (highest IPC); the rest fall between.

pub mod bfs;
pub mod cutcp;
pub(crate) mod histo;
pub mod lbm;
pub mod mri_gridding;
pub(crate) mod mri_q;
pub(crate) mod sad;
pub mod sgemm;
pub mod spmv;
pub(crate) mod stencil;
pub(crate) mod tpacf;

use mosaic_ir::{FunctionBuilder, Operand};

/// Emits an if-then region: `then(builder)` runs when `cond` holds;
/// control rejoins afterwards.
pub(crate) fn emit_if(
    b: &mut FunctionBuilder<'_>,
    name: &str,
    cond: Operand,
    then: impl FnOnce(&mut FunctionBuilder<'_>),
) {
    let then_bb = b.create_block(&format!("{name}.then"));
    let cont = b.create_block(&format!("{name}.cont"));
    b.cond_br(cond, then_bb, cont);
    b.switch_to(then_bb);
    then(b);
    b.br(cont);
    b.switch_to(cont);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use mosaic_ir::{interp::NullSink, run_single, BinOp, IntPredicate, MemImage, Module, RtVal, Type};

    #[test]
    fn reduce_loop_accumulates() {
        let mut m = Module::new("t");
        let f = m.add_function("sum_to", vec![("n".into(), Type::I64)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        let [total] = b.emit_loop("l", c64(0), n, c64(1), [(Type::I64, c64(0))], |b, i, [acc]| {
            [b.bin(BinOp::Add, acc, i)]
        });
        b.ret(Some(total));
        mosaic_ir::verify_module(&m).unwrap();
        let out = run_single(&m, MemImage::new(), f, vec![RtVal::Int(10)], &mut NullSink).unwrap();
        assert_eq!(out.returns[0], Some(RtVal::Int(45)));
    }

    #[test]
    fn if_then_executes_conditionally() {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("x".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, x) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        let cond = b.icmp(IntPredicate::Sgt, x, c64(5));
        emit_if(&mut b, "big", cond, |b| {
            b.store(p, c64(1));
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let mk = || {
            let mut mem = MemImage::new();
            let p = mem.alloc_i64(1);
            (mem, p)
        };
        let (mem, p) = mk();
        let out = run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(p as i64), RtVal::Int(10)],
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(out.mem.read_i64(p), 1);
        let (mem, p) = mk();
        let out = run_single(
            &m,
            mem,
            f,
            vec![RtVal::Int(p as i64), RtVal::Int(3)],
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(out.mem.read_i64(p), 0);
    }
}

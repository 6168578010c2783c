//! Alternating sparse–dense workloads (paper §VII-B, Figs. 12–13).
//!
//! Sinkhorn-distance-style applications alternate a dense matrix multiply
//! (`SGEMM`, compute-bound) with an element-wise sparse×dense operation
//! (`EWSD`, memory-bound). This module provides:
//!
//! * [`ewsd`] — the EWSD microbenchmark (Fig. 12's left axis);
//! * [`combined`] — the serial SGEMM+EWSD kernel at a configurable
//!   dense/sparse cycle mix (Fig. 13's three workloads);
//! * accelerator variants where the SGEMM phase is offloaded through the
//!   accelerator API (paper §II-B).

use mosaic_ir::{AccelOp, BinOp, CastKind, MemImage, Module, Operand, RtVal, Type};

use crate::parboil::emit_reduce_loop;
use crate::{c64, cf32, data, emit_spmd_ids, emit_strided_loop, Prepared};

/// Dense matrix dimension at scale 1.
pub const BASE_DIM: usize = 32;
/// Sparse non-zeros at scale 1.
pub const BASE_NNZ: usize = 12_000;

/// The cycle mix of a combined kernel (paper Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 75% SGEMM / 25% EWSD.
    DenseHeavy,
    /// 50% / 50%.
    Equal,
    /// 25% SGEMM / 75% EWSD.
    SparseHeavy,
}

impl Mix {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Mix::DenseHeavy => "Dense-Heavy",
            Mix::Equal => "Equal Sparse Dense",
            Mix::SparseHeavy => "Sparse-Heavy",
        }
    }

    /// `(dense_dim, nnz)` sized so the InO-core cycle split approximates
    /// the mix (dense cycles scale with dim³, sparse with nnz).
    pub fn sizes(self, scale: u32) -> (usize, usize) {
        let s = scale as usize;
        match self {
            Mix::DenseHeavy => (40 * s, 6_000 * s),
            Mix::Equal => (32 * s, 12_000 * s),
            Mix::SparseHeavy => (22 * s, 20_000 * s),
        }
    }
}

/// Emits the EWSD loops: `out[k] = vals[k] * dense[rows[k] * n + cols[k]]`
/// for `k` in an SPMD-interleaved range.
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature
fn emit_ewsd(
    b: &mut mosaic_ir::FunctionBuilder<'_>,
    rows: Operand,
    cols: Operand,
    vals: Operand,
    dense: Operand,
    out: Operand,
    nnz: Operand,
    n: Operand,
    tid: Operand,
    nt: Operand,
) {
    emit_strided_loop(b, "nz", tid, nnz, nt, |b, k| {
        let ra = b.gep(rows, k, 4);
        let r32 = b.load(Type::I32, ra);
        let r = b.cast(CastKind::IntResize, r32, Type::I64);
        let ca = b.gep(cols, k, 4);
        let c32 = b.load(Type::I32, ca);
        let c = b.cast(CastKind::IntResize, c32, Type::I64);
        let va = b.gep(vals, k, 4);
        let v = b.load(Type::F32, va);
        let row = b.bin(BinOp::Mul, r, n);
        let idx = b.bin(BinOp::Add, row, c);
        let da = b.gep(dense, idx, 4);
        let d = b.load(Type::F32, da);
        let prod = b.bin(BinOp::FMul, v, d);
        let oa = b.gep(out, k, 4);
        b.store(oa, prod);
    });
}

/// Emits the SGEMM loops (`c = a × b`, all `dim²` row-major `f32`).
fn emit_sgemm(
    b: &mut mosaic_ir::FunctionBuilder<'_>,
    a: Operand,
    bb: Operand,
    cc: Operand,
    dim: Operand,
    tid: Operand,
    nt: Operand,
) {
    emit_strided_loop(b, "gi", tid, dim, nt, |b, i| {
        emit_strided_loop(b, "gj", c64(0), dim, c64(1), |b, j| {
            let row_base = b.bin(BinOp::Mul, i, dim);
            let acc = emit_reduce_loop(b, "gp", c64(0), dim, c64(1), cf32(0.0), Type::F32, |b, p, acc| {
                let ai = b.bin(BinOp::Add, row_base, p);
                let aa = b.gep(a, ai, 4);
                let av = b.load(Type::F32, aa);
                let brow = b.bin(BinOp::Mul, p, dim);
                let bi = b.bin(BinOp::Add, brow, j);
                let ba = b.gep(bb, bi, 4);
                let bv = b.load(Type::F32, ba);
                let prod = b.bin(BinOp::FMul, av, bv);
                b.bin(BinOp::FAdd, acc, prod)
            });
            let ci = b.bin(BinOp::Add, row_base, j);
            let ca = b.gep(cc, ci, 4);
            b.store(ca, acc);
        });
    });
}

struct SparseBuffers {
    rows: u64,
    cols: u64,
    vals: u64,
    out: u64,
}

fn alloc_sparse(mem: &mut MemImage, nnz: usize, n: usize) -> SparseBuffers {
    let rows = mem.alloc_i32(nnz as u64);
    let cols = mem.alloc_i32(nnz as u64);
    let vals = mem.alloc_f32(nnz as u64);
    let out = mem.alloc_f32(nnz as u64);
    mem.fill_i32(rows, &data::i32_vec(nnz, n as i32, 120));
    mem.fill_i32(cols, &data::i32_vec(nnz, n as i32, 121));
    mem.fill_f32(vals, &data::f32_vec(nnz, 122));
    SparseBuffers {
        rows,
        cols,
        vals,
        out,
    }
}

/// Builds the EWSD microbenchmark over `nnz` nonzeros ([`BASE_NNZ`] is
/// Fig. 12's size; Fig. 13 runs each [`Mix::sizes`]).
pub fn ewsd(nnz: usize) -> Prepared {
    let n = 256usize;
    let mut module = Module::new("ewsd");
    let f = module.add_function(
        "ewsd",
        vec![
            ("rows".into(), Type::Ptr),
            ("cols".into(), Type::Ptr),
            ("vals".into(), Type::Ptr),
            ("dense".into(), Type::Ptr),
            ("out".into(), Type::Ptr),
            ("nnz".into(), Type::I64),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (rows, cols, vals, dense, out) = (
        b.param(0),
        b.param(1),
        b.param(2),
        b.param(3),
        b.param(4),
    );
    let (nnz_op, n_op) = (b.param(5), b.param(6));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    emit_ewsd(&mut b, rows, cols, vals, dense, out, nnz_op, n_op, tid, nt);
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("ewsd verifies");

    let mut mem = MemImage::new();
    let dense_buf = mem.alloc_f32((n * n) as u64);
    mem.fill_f32(dense_buf, &data::f32_vec(n * n, 123));
    let sp = alloc_sparse(&mut mem, nnz, n);

    Prepared {
        name: "ewsd".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(sp.rows as i64),
            RtVal::Int(sp.cols as i64),
            RtVal::Int(sp.vals as i64),
            RtVal::Int(dense_buf as i64),
            RtVal::Int(sp.out as i64),
            RtVal::Int(nnz as i64),
            RtVal::Int(n as i64),
        ],
        mem,
    }
}

/// Builds the combined serial SGEMM+EWSD kernel for `mix` at `scale`.
/// With `use_accel`, the SGEMM phase is offloaded via the accelerator API
/// (only tile 0 invokes the accelerator).
pub fn combined(mix: Mix, scale: u32, use_accel: bool) -> Prepared {
    let (dim, nnz) = mix.sizes(scale);
    let n = 256usize;

    let mut module = Module::new("sinkhorn");
    let f = module.add_function(
        "combined",
        vec![
            ("a".into(), Type::Ptr),
            ("b".into(), Type::Ptr),
            ("c".into(), Type::Ptr),
            ("dim".into(), Type::I64),
            ("rows".into(), Type::Ptr),
            ("cols".into(), Type::Ptr),
            ("vals".into(), Type::Ptr),
            ("dense".into(), Type::Ptr),
            ("out".into(), Type::Ptr),
            ("nnz".into(), Type::I64),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (a, bbm, cc, dim_op) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let (rows, cols, vals, dense, out) = (
        b.param(4),
        b.param(5),
        b.param(6),
        b.param(7),
        b.param(8),
    );
    let (nnz_op, n_op) = (b.param(9), b.param(10));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    if use_accel {
        // Only tile 0 invokes the accelerator; the phases stay serial.
        let is0 = b.icmp(mosaic_ir::IntPredicate::Eq, tid, c64(0));
        crate::parboil::emit_if(&mut b, "accel", is0, |b| {
            b.accel_call(AccelOp::Sgemm, vec![a, bbm, cc, dim_op, dim_op, dim_op]);
        });
    } else {
        emit_sgemm(&mut b, a, bbm, cc, dim_op, tid, nt);
    }
    emit_ewsd(&mut b, rows, cols, vals, dense, out, nnz_op, n_op, tid, nt);
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("combined verifies");

    let mut mem = MemImage::new();
    let a_buf = mem.alloc_f32((dim * dim) as u64);
    let b_buf = mem.alloc_f32((dim * dim) as u64);
    let c_buf = mem.alloc_f32((dim * dim) as u64);
    mem.fill_f32(a_buf, &data::f32_vec(dim * dim, 130));
    mem.fill_f32(b_buf, &data::f32_vec(dim * dim, 131));
    let dense_buf = mem.alloc_f32((n * n) as u64);
    mem.fill_f32(dense_buf, &data::f32_vec(n * n, 132));
    let sp = alloc_sparse(&mut mem, nnz, n);

    Prepared {
        name: format!(
            "sinkhorn-{}{}",
            mix.label().to_lowercase().replace(' ', "-"),
            if use_accel { "+accel" } else { "" }
        ),
        module,
        func: f,
        args: vec![
            RtVal::Int(a_buf as i64),
            RtVal::Int(b_buf as i64),
            RtVal::Int(c_buf as i64),
            RtVal::Int(dim as i64),
            RtVal::Int(sp.rows as i64),
            RtVal::Int(sp.cols as i64),
            RtVal::Int(sp.vals as i64),
            RtVal::Int(dense_buf as i64),
            RtVal::Int(sp.out as i64),
            RtVal::Int(nnz as i64),
            RtVal::Int(n as i64),
        ],
        mem,
    }
}

/// The accelerator-offloaded SGEMM microbenchmark: one invocation of the
/// SGEMM accelerator on `dim`×`dim` matrices ([`BASE_DIM`] is Fig. 12's
/// [`sgemm_micro`] size; Fig. 13 runs each [`Mix::sizes`]).
pub fn accel_sgemm_micro(dim: usize) -> Prepared {
    let dim = dim as i64;
    let mut module = Module::new("sgemm_accel");
    let f = module.add_function(
        "sgemm_accel",
        vec![
            ("a".into(), Type::Ptr),
            ("b".into(), Type::Ptr),
            ("c".into(), Type::Ptr),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (a, bb, cc) = (b.param(0), b.param(1), b.param(2));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    b.accel_call(AccelOp::Sgemm, vec![a, bb, cc, c64(dim), c64(dim), c64(dim)]);
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("accel sgemm verifies");

    let n = (dim * dim) as u64;
    let mut mem = MemImage::new();
    let a_buf = mem.alloc_f32(n);
    let b_buf = mem.alloc_f32(n);
    let c_buf = mem.alloc_f32(n);
    mem.fill_f32(a_buf, &data::f32_vec(n as usize, 140));
    mem.fill_f32(b_buf, &data::f32_vec(n as usize, 141));

    Prepared {
        name: "sgemm+accel".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(a_buf as i64),
            RtVal::Int(b_buf as i64),
            RtVal::Int(c_buf as i64),
        ],
        mem,
    }
}

/// The standalone SGEMM microbenchmark of Fig. 12 (alias for the Parboil
/// kernel at the case-study size).
pub fn sgemm_micro(scale: u32) -> Prepared {
    crate::parboil::sgemm::build_with_dims(
        BASE_DIM * scale as usize,
        BASE_DIM * scale as usize,
        BASE_DIM * scale as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn ewsd_matches_reference() {
        let nnz = BASE_NNZ;
        let p = ewsd(nnz);
        let n = 256;
        let rows = data::i32_vec(nnz, n as i32, 120);
        let cols = data::i32_vec(nnz, n as i32, 121);
        let vals = data::f32_vec(nnz, 122);
        let dense = data::f32_vec(n * n, 123);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let got = out.mem.read_f32_slice(p.args[4].as_int() as u64, nnz);
        for k in (0..nnz).step_by(997) {
            let expected = vals[k] * dense[rows[k] as usize * n + cols[k] as usize];
            assert!((expected - got[k]).abs() < 1e-4, "k={k}");
        }
    }

    #[test]
    fn combined_runs_both_phases() {
        let p = combined(Mix::Equal, 1, false);
        let (trace, _) = p.trace(1).unwrap();
        // C must be written (dense phase) and out must be written (sparse).
        assert!(trace.tile(0).retired() > 10_000);
    }

    #[test]
    fn accel_variant_records_invocation() {
        let p = combined(Mix::DenseHeavy, 1, true);
        let (trace, _) = p.trace(1).unwrap();
        assert_eq!(trace.tile(0).accel_invocations().len(), 1);
        let inv = &trace.tile(0).accel_invocations()[0];
        assert_eq!(inv.accel, AccelOp::Sgemm);
        let (dim, _) = Mix::DenseHeavy.sizes(1);
        assert_eq!(inv.args[3], dim as i64);
    }

    #[test]
    fn mixes_vary_the_balance() {
        // Dense-heavy has more dense work than sparse-heavy.
        let (d1, s1) = Mix::DenseHeavy.sizes(1);
        let (d2, s2) = Mix::SparseHeavy.sizes(1);
        assert!(d1 > d2);
        assert!(s1 < s2);
    }
}

//! SGEMM: dense single-precision matrix multiply — the compute-bound
//! pole of the suite (paper Fig. 8 shows near-linear scaling).
//!
//! `C[m×n] = A[m×k] × B[k×n]`, SPMD-interleaved over rows of C.

use mosaic_ir::{BinOp, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Default matrix dimension at scale 1.
pub(crate) const BASE_DIM: usize = 40;

/// Builds the SGEMM kernel at `scale` (matrices are `BASE_DIM * scale`
/// square).
pub(crate) fn build(scale: u32) -> Prepared {
    let dim = BASE_DIM * scale as usize;
    build_with_dims(dim, dim, dim)
}

/// Builds SGEMM with explicit `m × k × n` dimensions.
pub fn build_with_dims(m_dim: usize, k_dim: usize, n_dim: usize) -> Prepared {
    let mut module = Module::new("sgemm");
    let f = module.add_function(
        "sgemm",
        vec![
            ("a".into(), Type::Ptr),
            ("b".into(), Type::Ptr),
            ("c".into(), Type::Ptr),
            ("m".into(), Type::I64),
            ("k".into(), Type::I64),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (pa, pb, pc) = (b.param(0), b.param(1), b.param(2));
    let (m, k, n) = (b.param(3), b.param(4), b.param(5));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("i", tid, m, nt, [], |b, i, []| {
        b.emit_loop("j", c64(0), n, c64(1), [], |b, j, []| {
            let row_base = b.bin(BinOp::Mul, i, k);
            let [acc] = b.emit_loop("p", c64(0), k, c64(1), [(Type::F32, cf32(0.0))], |b, p, [acc]| {
                let a_idx = b.bin(BinOp::Add, row_base, p);
                let a_addr = b.gep(pa, a_idx, 4);
                let av = b.load(Type::F32, a_addr);
                let b_row = b.bin(BinOp::Mul, p, n);
                let b_idx = b.bin(BinOp::Add, b_row, j);
                let b_addr = b.gep(pb, b_idx, 4);
                let bv = b.load(Type::F32, b_addr);
                let prod = b.bin(BinOp::FMul, av, bv);
                [b.bin(BinOp::FAdd, acc, prod)]
            });
            let c_row = b.bin(BinOp::Mul, i, n);
            let c_idx = b.bin(BinOp::Add, c_row, j);
            let c_addr = b.gep(pc, c_idx, 4);
            b.store(c_addr, acc);
            []
        });
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("sgemm verifies");

    let mut mem = MemImage::new();
    let a = mem.alloc_f32((m_dim * k_dim) as u64);
    let bb = mem.alloc_f32((k_dim * n_dim) as u64);
    let c = mem.alloc_f32((m_dim * n_dim) as u64);
    mem.fill_f32(a, &data::f32_vec(m_dim * k_dim, 1));
    mem.fill_f32(bb, &data::f32_vec(k_dim * n_dim, 2));

    Prepared {
        name: "sgemm".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(a as i64),
            RtVal::Int(bb as i64),
            RtVal::Int(c as i64),
            RtVal::Int(m_dim as i64),
            RtVal::Int(k_dim as i64),
            RtVal::Int(n_dim as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn computes_correct_product() {
        let p = build_with_dims(6, 5, 4);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        // Reference product.
        let a = p.mem.read_f32_slice(p.args[0].as_int() as u64, 30);
        let b = p.mem.read_f32_slice(p.args[1].as_int() as u64, 20);
        let c = out.mem.read_f32_slice(p.args[2].as_int() as u64, 24);
        for i in 0..6 {
            for j in 0..4 {
                let mut acc = 0f32;
                for k in 0..5 {
                    acc += a[i * 5 + k] * b[k * 4 + j];
                }
                assert!((acc - c[i * 4 + j]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn spmd_result_matches_single_tile() {
        let p = build_with_dims(8, 8, 8);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let single = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec)
            .unwrap()
            .mem
            .read_f32_slice(p.args[2].as_int() as u64, 64);
        let mut rec = mosaic_trace::TraceRecorder::new(4);
        let multi = run_tiles(&p.module, p.mem.clone(), &p.programs(4), &mut rec)
            .unwrap()
            .mem
            .read_f32_slice(p.args[2].as_int() as u64, 64);
        assert_eq!(single, multi);
    }
}

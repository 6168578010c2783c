//! SPMV: sparse matrix–vector product over CSR — the bandwidth-bound pole
//! of the suite (paper Fig. 9 shows sublinear scaling as DRAM bandwidth
//! saturates).
//!
//! `y[i] = Σ_j A[i,j] · x[col[j]]`, SPMD-interleaved over rows.

use mosaic_ir::{BinOp, CastKind, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Rows at scale 1.
const BASE_ROWS: usize = 2000;
/// Average non-zeros per row.
const NNZ_PER_ROW: usize = 8;

/// Builds the SPMV kernel at `scale`.
pub fn build(scale: u32) -> Prepared {
    build_with_rows(BASE_ROWS * scale as usize)
}

/// Builds SPMV over a random CSR matrix with `rows` rows.
pub fn build_with_rows(rows: usize) -> Prepared {
    let csr = data::random_csr(rows, rows, NNZ_PER_ROW, 10);

    let mut module = Module::new("spmv");
    let f = module.add_function(
        "spmv",
        vec![
            ("row_ptr".into(), Type::Ptr),
            ("col_idx".into(), Type::Ptr),
            ("values".into(), Type::Ptr),
            ("x".into(), Type::Ptr),
            ("y".into(), Type::Ptr),
            ("rows".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (rp, ci, vals, x, y) = (b.param(0), b.param(1), b.param(2), b.param(3), b.param(4));
    let rows_op = b.param(5);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("row", tid, rows_op, nt, [], |b, i, []| {
        let rp_addr = b.gep(rp, i, 4);
        let start32 = b.load(Type::I32, rp_addr);
        let i1 = b.bin(BinOp::Add, i, c64(1));
        let rp1_addr = b.gep(rp, i1, 4);
        let end32 = b.load(Type::I32, rp1_addr);
        let start = b.cast(CastKind::IntResize, start32, Type::I64);
        let end = b.cast(CastKind::IntResize, end32, Type::I64);
        let [acc] = b.emit_loop("nz", start, end, c64(1), [(Type::F32, cf32(0.0))], |b, j, [acc]| {
            let col_addr = b.gep(ci, j, 4);
            let col32 = b.load(Type::I32, col_addr);
            let col = b.cast(CastKind::IntResize, col32, Type::I64);
            let v_addr = b.gep(vals, j, 4);
            let v = b.load(Type::F32, v_addr);
            let x_addr = b.gep(x, col, 4);
            let xv = b.load(Type::F32, x_addr);
            let prod = b.bin(BinOp::FMul, v, xv);
            [b.bin(BinOp::FAdd, acc, prod)]
        });
        let y_addr = b.gep(y, i, 4);
        b.store(y_addr, acc);
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("spmv verifies");

    let mut mem = MemImage::new();
    let rp_buf = mem.alloc_i32(csr.row_ptr.len() as u64);
    let ci_buf = mem.alloc_i32(csr.nnz() as u64);
    let v_buf = mem.alloc_f32(csr.nnz() as u64);
    let x_buf = mem.alloc_f32(rows as u64);
    let y_buf = mem.alloc_f32(rows as u64);
    mem.fill_i32(rp_buf, &csr.row_ptr);
    mem.fill_i32(ci_buf, &csr.col_idx);
    mem.fill_f32(v_buf, &csr.values);
    mem.fill_f32(x_buf, &data::f32_vec(rows, 11));

    Prepared {
        name: "spmv".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(rp_buf as i64),
            RtVal::Int(ci_buf as i64),
            RtVal::Int(v_buf as i64),
            RtVal::Int(x_buf as i64),
            RtVal::Int(y_buf as i64),
            RtVal::Int(rows as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn matches_reference_product() {
        let rows = 40;
        let p = build_with_rows(rows);
        let csr = data::random_csr(rows, rows, NNZ_PER_ROW, 10);
        let x = data::f32_vec(rows, 11);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let y = out.mem.read_f32_slice(p.args[4].as_int() as u64, rows);
        for (i, &yi) in y.iter().enumerate() {
            let mut acc = 0f32;
            for j in csr.row_ptr[i] as usize..csr.row_ptr[i + 1] as usize {
                acc += csr.values[j] * x[csr.col_idx[j] as usize];
            }
            assert!((acc - yi).abs() < 1e-3, "row {i}: {acc} vs {yi}");
        }
    }
}

//! LBM: lattice-Boltzmann method (D2Q9 collision step) — wide streaming
//! loads/stores with moderate floating-point work per cell.

use mosaic_ir::{BinOp, MemImage, Module, Operand, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Lattice cells at scale 1.
const BASE_CELLS: usize = 1600;
/// Distribution directions (D2Q9).
pub(crate) const Q: usize = 9;

/// D2Q9 lattice weights.
const WEIGHTS: [f32; 9] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Relaxation parameter.
const OMEGA: f32 = 0.8;

/// Builds the LBM kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_cells(BASE_CELLS * scale as usize)
}

/// Builds an LBM collision sweep over `cells` lattice sites.
pub fn build_with_cells(cells: usize) -> Prepared {
    let mut module = Module::new("lbm");
    let f = module.add_function(
        "lbm",
        vec![
            ("fin".into(), Type::Ptr),
            ("fout".into(), Type::Ptr),
            ("cells".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (fin, fout) = (b.param(0), b.param(1));
    let cells_op = b.param(2);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("cell", tid, cells_op, nt, [], |b, i, []| {
        // Load all 9 distributions (plane-major layout: f[q * cells + i]).
        let mut dists: Vec<Operand> = Vec::with_capacity(Q);
        for q in 0..Q {
            let plane = b.bin(BinOp::Mul, c64(q as i64), cells_op);
            let idx = b.bin(BinOp::Add, plane, i);
            let addr = b.gep(fin, idx, 4);
            dists.push(b.load(Type::F32, addr));
        }
        // rho = sum of distributions.
        let mut rho = dists[0];
        for &d in &dists[1..] {
            rho = b.bin(BinOp::FAdd, rho, d);
        }
        // BGK relaxation toward w[q] * rho.
        for (q, &d) in dists.iter().enumerate() {
            let feq = b.bin(BinOp::FMul, rho, cf32(WEIGHTS[q]));
            let diff = b.bin(BinOp::FSub, feq, d);
            let relax = b.bin(BinOp::FMul, diff, cf32(OMEGA));
            let fnew = b.bin(BinOp::FAdd, d, relax);
            let plane = b.bin(BinOp::Mul, c64(q as i64), cells_op);
            let idx = b.bin(BinOp::Add, plane, i);
            let addr = b.gep(fout, idx, 4);
            b.store(addr, fnew);
        }
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("lbm verifies");

    let total = cells * Q;
    let mut mem = MemImage::new();
    let fin_buf = mem.alloc_f32(total as u64);
    let fout_buf = mem.alloc_f32(total as u64);
    mem.fill_f32(fin_buf, &data::f32_vec(total, 80));

    Prepared {
        name: "lbm".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(fin_buf as i64),
            RtVal::Int(fout_buf as i64),
            RtVal::Int(cells as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn collision_step_matches_reference() {
        let cells = 32;
        let p = build_with_cells(cells);
        let fin = data::f32_vec(cells * Q, 80);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let fout = out.mem.read_f32_slice(p.args[1].as_int() as u64, cells * Q);
        for i in 0..cells {
            let rho: f32 = (0..Q).map(|q| fin[q * cells + i]).sum();
            for q in 0..Q {
                let d = fin[q * cells + i];
                let expected = d + OMEGA * (WEIGHTS[q] * rho - d);
                let got = fout[q * cells + i];
                assert!((expected - got).abs() < 1e-3, "cell {i} dir {q}");
            }
        }
    }

    #[test]
    fn mass_is_conserved() {
        let cells = 16;
        let p = build_with_cells(cells);
        let fin = data::f32_vec(cells * Q, 80);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let fout = out.mem.read_f32_slice(p.args[1].as_int() as u64, cells * Q);
        let before: f32 = fin.iter().sum();
        let after: f32 = fout.iter().sum();
        assert!((before - after).abs() < 1e-2);
    }
}

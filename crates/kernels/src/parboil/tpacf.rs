//! TPACF: two-point angular correlation function — O(n²) pairwise dot
//! products followed by a branch-free histogram-bin search.

use mosaic_ir::{BinOp, CastKind, FloatPredicate, MemImage, Module, RtVal, Type};

use crate::{c64, data, emit_spmd_ids, Prepared};

/// Points at scale 1.
const BASE_POINTS: usize = 100;
/// Histogram bins (angular separation thresholds).
pub(crate) const BINS: usize = 8;

/// Bin edges on the dot-product value (cosine of angular separation).
const EDGES: [f32; BINS] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

/// Builds the TPACF kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_points(BASE_POINTS * scale as usize)
}

/// Builds TPACF over `n` unit-cube points.
fn build_with_points(n: usize) -> Prepared {
    let (xs, ys, zs) = data::point_cloud(n, 100);

    let mut module = Module::new("tpacf");
    let f = module.add_function(
        "tpacf",
        vec![
            ("x".into(), Type::Ptr),
            ("y".into(), Type::Ptr),
            ("z".into(), Type::Ptr),
            ("edges".into(), Type::Ptr),
            ("hist".into(), Type::Ptr),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (px, py, pz, pe, ph) = (
        b.param(0),
        b.param(1),
        b.param(2),
        b.param(3),
        b.param(4),
    );
    let n_op = b.param(5);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("i", tid, n_op, nt, [], |b, i, []| {
        let xa = b.gep(px, i, 4);
        let xi = b.load(Type::F32, xa);
        let ya = b.gep(py, i, 4);
        let yi = b.load(Type::F32, ya);
        let za = b.gep(pz, i, 4);
        let zi = b.load(Type::F32, za);
        let j0 = b.bin(BinOp::Add, i, c64(1));
        b.emit_loop("j", j0, n_op, c64(1), [], |b, j, []| {
            let xb = b.gep(px, j, 4);
            let xj = b.load(Type::F32, xb);
            let yb = b.gep(py, j, 4);
            let yj = b.load(Type::F32, yb);
            let zb = b.gep(pz, j, 4);
            let zj = b.load(Type::F32, zb);
            let t1 = b.bin(BinOp::FMul, xi, xj);
            let t2 = b.bin(BinOp::FMul, yi, yj);
            let t3 = b.bin(BinOp::FMul, zi, zj);
            let s = b.bin(BinOp::FAdd, t1, t2);
            let dot = b.bin(BinOp::FAdd, s, t3);
            // Branch-free bin search: bin = #edges below dot.
            let [bin] = b.emit_loop("bin", c64(0), c64(BINS as i64), c64(1), [(Type::I64, c64(0))], |b, e, [acc]| {
                let ea = b.gep(pe, e, 4);
                let edge = b.load(Type::F32, ea);
                let above = b.fcmp(FloatPredicate::Oge, dot, edge);
                let inc = b.cast(CastKind::IntResize, above, Type::I64);
                [b.bin(BinOp::Add, acc, inc)]
            });
            let ha = b.gep(ph, bin, 4);
            let old = b.load(Type::I32, ha);
            let new = b.bin(BinOp::Add, old, mosaic_ir::Constant::i32(1).into());
            b.store(ha, new);
            []
        });
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("tpacf verifies");

    let mut mem = MemImage::new();
    let x_buf = mem.alloc_f32(n as u64);
    let y_buf = mem.alloc_f32(n as u64);
    let z_buf = mem.alloc_f32(n as u64);
    let e_buf = mem.alloc_f32(BINS as u64);
    let h_buf = mem.alloc_i32((BINS + 1) as u64);
    mem.fill_f32(x_buf, &xs);
    mem.fill_f32(y_buf, &ys);
    mem.fill_f32(z_buf, &zs);
    mem.fill_f32(e_buf, &EDGES);

    Prepared {
        name: "tpacf".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(x_buf as i64),
            RtVal::Int(y_buf as i64),
            RtVal::Int(z_buf as i64),
            RtVal::Int(e_buf as i64),
            RtVal::Int(h_buf as i64),
            RtVal::Int(n as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn histogram_matches_reference_pair_counts() {
        let n = 24;
        let p = build_with_points(n);
        let (xs, ys, zs) = data::point_cloud(n, 100);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let hist = out.mem.read_i32_slice(p.args[4].as_int() as u64, BINS + 1);
        let mut expected = vec![0i32; BINS + 1];
        for i in 0..n {
            for j in i + 1..n {
                let dot = xs[i] * xs[j] + ys[i] * ys[j] + zs[i] * zs[j];
                let bin = EDGES.iter().filter(|&&e| dot >= e).count();
                expected[bin] += 1;
            }
        }
        assert_eq!(hist, expected);
        let total: i32 = hist.iter().sum();
        assert_eq!(total as usize, n * (n - 1) / 2);
    }
}

//! STENCIL: 3-D 7-point Jacobi stencil — regular streaming with high
//! spatial locality (prefetcher-friendly).

use mosaic_ir::{BinOp, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Grid edge length at scale 1.
pub(crate) const BASE_DIM: usize = 20;

/// Builds the STENCIL kernel at `scale` (grid edge = `BASE_DIM * scale`).
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_dim(BASE_DIM * scale as usize)
}

/// Builds the stencil over an `n³` grid.
fn build_with_dim(n: usize) -> Prepared {
    let mut module = Module::new("stencil");
    let f = module.add_function(
        "stencil",
        vec![
            ("input".into(), Type::Ptr),
            ("output".into(), Type::Ptr),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (inp, out) = (b.param(0), b.param(1));
    let n_op = b.param(2);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    let n1 = b.bin(BinOp::Sub, n_op, c64(1));
    let tid1 = b.bin(BinOp::Add, tid, c64(1));
    let n2 = b.bin(BinOp::Mul, n_op, n_op);
    b.emit_loop("z", tid1, n1, nt, [], |b, z, []| {
        b.emit_loop("y", c64(1), n1, c64(1), [], |b, y, []| {
            b.emit_loop("x", c64(1), n1, c64(1), [], |b, x, []| {
                let zy = b.bin(BinOp::Mul, z, n2);
                let yy = b.bin(BinOp::Mul, y, n_op);
                let base = b.bin(BinOp::Add, zy, yy);
                let idx = b.bin(BinOp::Add, base, x);
                let load_at = |b: &mut mosaic_ir::FunctionBuilder<'_>, off: mosaic_ir::Operand| {
                    let a = b.gep(inp, off, 4);
                    b.load(Type::F32, a)
                };
                let center = load_at(b, idx);
                let xm = b.bin(BinOp::Sub, idx, c64(1));
                let xp = b.bin(BinOp::Add, idx, c64(1));
                let ym = b.bin(BinOp::Sub, idx, n_op);
                let yp = b.bin(BinOp::Add, idx, n_op);
                let zm = b.bin(BinOp::Sub, idx, n2);
                let zp = b.bin(BinOp::Add, idx, n2);
                let mut sum = load_at(b, xm);
                for o in [xp, ym, yp, zm, zp] {
                    let v = load_at(b, o);
                    sum = b.bin(BinOp::FAdd, sum, v);
                }
                let c_term = b.bin(BinOp::FMul, center, cf32(-6.0));
                let lap = b.bin(BinOp::FAdd, sum, c_term);
                let scaled = b.bin(BinOp::FMul, lap, cf32(0.1));
                let new = b.bin(BinOp::FAdd, center, scaled);
                let o_addr = b.gep(out, idx, 4);
                b.store(o_addr, new);
                []
            });
            []
        });
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("stencil verifies");

    let total = n * n * n;
    let mut mem = MemImage::new();
    let in_buf = mem.alloc_f32(total as u64);
    let out_buf = mem.alloc_f32(total as u64);
    mem.fill_f32(in_buf, &data::f32_vec(total, 40));

    Prepared {
        name: "stencil".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(in_buf as i64),
            RtVal::Int(out_buf as i64),
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
    fn interior_points_follow_jacobi_update() {
        let n = 6;
        let p = build_with_dim(n);
        let grid = data::f32_vec(n * n * n, 40);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let result = out.mem.read_f32_slice(p.args[1].as_int() as u64, n * n * n);
        let at = |z: usize, y: usize, x: usize| grid[z * n * n + y * n + x];
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let lap = at(z, y, x - 1)
                        + at(z, y, x + 1)
                        + at(z, y - 1, x)
                        + at(z, y + 1, x)
                        + at(z - 1, y, x)
                        + at(z + 1, y, x)
                        - 6.0 * at(z, y, x);
                    let expected = at(z, y, x) + 0.1 * lap;
                    let got = result[z * n * n + y * n + x];
                    assert!((expected - got).abs() < 1e-3);
                }
            }
        }
        // Border untouched.
        assert_eq!(result[0], 0.0);
    }
}

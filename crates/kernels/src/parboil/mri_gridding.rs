//! MRI-GRIDDING: scattering non-Cartesian samples onto a regular grid —
//! data-dependent read-modify-write traffic over a 3-D window.

use mosaic_ir::{BinOp, CastKind, Intrinsic, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Samples at scale 1.
pub(crate) const BASE_SAMPLES: usize = 1500;
/// Grid edge length.
const GRID_DIM: usize = 16;

/// Builds the MRI-GRIDDING kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_samples(BASE_SAMPLES * scale as usize)
}

/// Builds gridding of `samples` random samples onto a `GRID_DIM`³ grid.
pub fn build_with_samples(samples: usize) -> Prepared {
    let (sx, sy, sz) = data::point_cloud(samples, 90);
    let val = data::f32_vec(samples, 91);
    let gd = GRID_DIM as i64;

    let mut module = Module::new("mri_gridding");
    let f = module.add_function(
        "mri_gridding",
        vec![
            ("sx".into(), Type::Ptr),
            ("sy".into(), Type::Ptr),
            ("sz".into(), Type::Ptr),
            ("val".into(), Type::Ptr),
            ("grid".into(), Type::Ptr),
            ("samples".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (psx, psy, psz, pval, pgrid) = (
        b.param(0),
        b.param(1),
        b.param(2),
        b.param(3),
        b.param(4),
    );
    let samples_op = b.param(5);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    let dim_minus_2 = c64(gd - 2);
    b.emit_loop("s", tid, samples_op, nt, [], |b, s, []| {
        let load_coord = |b: &mut mosaic_ir::FunctionBuilder<'_>, ptr| {
            let a = b.gep(ptr, s, 4);
            let c = b.load(Type::F32, a);
            // cell = clamp(floor(coord * (dim-2)), 0, dim-2)
            let scaled = b.bin(BinOp::FMul, c, cf32((gd - 2) as f32));
            let fl = b.call(Intrinsic::Floor, vec![scaled], Type::F32);
            let cell = b.cast(CastKind::FloatToInt, fl, Type::I64);
            let low = b.call(Intrinsic::SMax, vec![cell, c64(0)], Type::I64);
            b.call(Intrinsic::SMin, vec![low, dim_minus_2], Type::I64)
        };
        let cx = load_coord(b, psx);
        let cy = load_coord(b, psy);
        let cz = load_coord(b, psz);
        let va = b.gep(pval, s, 4);
        let v = b.load(Type::F32, va);
        // Scatter into the 2x2x2 window with inverse-ish weights.
        for dz in 0..2i64 {
            for dy in 0..2i64 {
                for dx in 0..2i64 {
                    let weight = 1.0 / (1.0 + (dx + dy + dz) as f32);
                    let x = b.bin(BinOp::Add, cx, c64(dx));
                    let y = b.bin(BinOp::Add, cy, c64(dy));
                    let z = b.bin(BinOp::Add, cz, c64(dz));
                    let zy = b.bin(BinOp::Mul, z, c64(gd * gd));
                    let yy = b.bin(BinOp::Mul, y, c64(gd));
                    let i0 = b.bin(BinOp::Add, zy, yy);
                    let idx = b.bin(BinOp::Add, i0, x);
                    let ga = b.gep(pgrid, idx, 4);
                    let old = b.load(Type::F32, ga);
                    let contrib = b.bin(BinOp::FMul, v, cf32(weight));
                    let new = b.bin(BinOp::FAdd, old, contrib);
                    b.store(ga, new);
                }
            }
        }
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("mri_gridding verifies");

    let mut mem = MemImage::new();
    let sx_buf = mem.alloc_f32(samples as u64);
    let sy_buf = mem.alloc_f32(samples as u64);
    let sz_buf = mem.alloc_f32(samples as u64);
    let val_buf = mem.alloc_f32(samples as u64);
    let grid_buf = mem.alloc_f32((GRID_DIM * GRID_DIM * GRID_DIM) as u64);
    mem.fill_f32(sx_buf, &sx);
    mem.fill_f32(sy_buf, &sy);
    mem.fill_f32(sz_buf, &sz);
    mem.fill_f32(val_buf, &val);

    Prepared {
        name: "mri-gridding".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(sx_buf as i64),
            RtVal::Int(sy_buf as i64),
            RtVal::Int(sz_buf as i64),
            RtVal::Int(val_buf as i64),
            RtVal::Int(grid_buf as i64),
            RtVal::Int(samples as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn grid_mass_matches_scattered_weights() {
        let samples = 100;
        let p = build_with_samples(samples);
        let val = data::f32_vec(samples, 91);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let grid = out
            .mem
            .read_f32_slice(p.args[4].as_int() as u64, GRID_DIM * GRID_DIM * GRID_DIM);
        // Each sample deposits v * sum of the 8 window weights.
        let wsum: f32 = (0..2)
            .flat_map(|z| (0..2).flat_map(move |y| (0..2).map(move |x| (x, y, z))))
            .map(|(x, y, z): (i64, i64, i64)| 1.0 / (1.0 + (x + y + z) as f32))
            .sum();
        let expected: f32 = val.iter().map(|v| v * wsum).sum();
        let got: f32 = grid.iter().sum();
        assert!(
            (expected - got).abs() < 1e-2 * expected.abs().max(1.0),
            "{expected} vs {got}"
        );
    }
}

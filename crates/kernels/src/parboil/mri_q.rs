//! MRI-Q: non-Cartesian MRI reconstruction (Q matrix) — trigonometry-
//! heavy compute over all (voxel, sample) pairs.

use mosaic_ir::{BinOp, Intrinsic, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Voxels at scale 1.
const BASE_VOXELS: usize = 200;
/// K-space samples at scale 1.
pub(crate) const BASE_SAMPLES: usize = 48;

/// Builds the MRI-Q kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with(BASE_VOXELS * scale as usize, BASE_SAMPLES * scale as usize)
}

/// Builds MRI-Q with explicit voxel/sample counts.
pub(crate) fn build_with(voxels: usize, samples: usize) -> Prepared {
    let (x, y, z) = data::point_cloud(voxels, 60);
    let (kx, ky, kz) = data::point_cloud(samples, 61);
    let phi = data::f32_vec(samples, 62);

    let mut module = Module::new("mri_q");
    let f = module.add_function(
        "mri_q",
        vec![
            ("x".into(), Type::Ptr),
            ("y".into(), Type::Ptr),
            ("z".into(), Type::Ptr),
            ("kx".into(), Type::Ptr),
            ("ky".into(), Type::Ptr),
            ("kz".into(), Type::Ptr),
            ("phi".into(), Type::Ptr),
            ("qr".into(), Type::Ptr),
            ("qi".into(), Type::Ptr),
            ("voxels".into(), Type::I64),
            ("samples".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (px, py, pz) = (b.param(0), b.param(1), b.param(2));
    let (pkx, pky, pkz, pphi) = (b.param(3), b.param(4), b.param(5), b.param(6));
    let (pqr, pqi) = (b.param(7), b.param(8));
    let (vox_op, smp_op) = (b.param(9), b.param(10));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("v", tid, vox_op, nt, [], |b, v, []| {
        let xa = b.gep(px, v, 4);
        let xv = b.load(Type::F32, xa);
        let ya = b.gep(py, v, 4);
        let yv = b.load(Type::F32, ya);
        let za = b.gep(pz, v, 4);
        let zv = b.load(Type::F32, za);
        let accs = [(Type::F32, cf32(0.0)); 2];
        let [qr, qi] = b.emit_loop("s", c64(0), smp_op, c64(1), accs, |b, s, [qr, qi]| {
            let kxa = b.gep(pkx, s, 4);
            let kxv = b.load(Type::F32, kxa);
            let kya = b.gep(pky, s, 4);
            let kyv = b.load(Type::F32, kya);
            let kza = b.gep(pkz, s, 4);
            let kzv = b.load(Type::F32, kza);
            let pa = b.gep(pphi, s, 4);
            let pv = b.load(Type::F32, pa);
            let t1 = b.bin(BinOp::FMul, kxv, xv);
            let t2 = b.bin(BinOp::FMul, kyv, yv);
            let t3 = b.bin(BinOp::FMul, kzv, zv);
            let s12 = b.bin(BinOp::FAdd, t1, t2);
            let arg0 = b.bin(BinOp::FAdd, s12, t3);
            let arg = b.bin(BinOp::FMul, arg0, cf32(std::f32::consts::TAU));
            let c = b.call(Intrinsic::Cos, vec![arg], Type::F32);
            let sn = b.call(Intrinsic::Sin, vec![arg], Type::F32);
            let dr = b.bin(BinOp::FMul, pv, c);
            let di = b.bin(BinOp::FMul, pv, sn);
            let qr2 = b.bin(BinOp::FAdd, qr, dr);
            let qi2 = b.bin(BinOp::FAdd, qi, di);
            [qr2, qi2]
        });
        let qra = b.gep(pqr, v, 4);
        b.store(qra, qr);
        let qia = b.gep(pqi, v, 4);
        b.store(qia, qi);
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("mri_q verifies");

    let mut mem = MemImage::new();
    let bufs: Vec<u64> = [&x, &y, &z, &kx, &ky, &kz, &phi]
        .iter()
        .map(|v| {
            let p = mem.alloc_f32(v.len() as u64);
            mem.fill_f32(p, v);
            p
        })
        .collect();
    let qr_buf = mem.alloc_f32(voxels as u64);
    let qi_buf = mem.alloc_f32(voxels as u64);

    let mut args: Vec<RtVal> = bufs.iter().map(|&p| RtVal::Int(p as i64)).collect();
    args.push(RtVal::Int(qr_buf as i64));
    args.push(RtVal::Int(qi_buf as i64));
    args.push(RtVal::Int(voxels as i64));
    args.push(RtVal::Int(samples as i64));

    Prepared {
        name: "mri-q".to_string(),
        module,
        func: f,
        args,
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn q_matrix_matches_reference() {
        let (voxels, samples) = (12, 8);
        let p = build_with(voxels, samples);
        let (x, y, z) = data::point_cloud(voxels, 60);
        let (kx, ky, kz) = data::point_cloud(samples, 61);
        let phi = data::f32_vec(samples, 62);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let qr = out.mem.read_f32_slice(p.args[7].as_int() as u64, voxels);
        let qi = out.mem.read_f32_slice(p.args[8].as_int() as u64, voxels);
        for v in 0..voxels {
            let (mut er, mut ei) = (0f64, 0f64);
            for s in 0..samples {
                let arg = std::f64::consts::TAU
                    * (kx[s] as f64 * x[v] as f64
                        + ky[s] as f64 * y[v] as f64
                        + kz[s] as f64 * z[v] as f64);
                er += phi[s] as f64 * arg.cos();
                ei += phi[s] as f64 * arg.sin();
            }
            assert!((er - qr[v] as f64).abs() < 1e-2, "qr[{v}]");
            assert!((ei - qi[v] as f64).abs() < 1e-2, "qi[{v}]");
        }
    }
}

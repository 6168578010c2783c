//! CUTCP: cutoff Coulombic potential — compute-bound with a
//! reciprocal-square-root inner loop over atoms per grid point.

use mosaic_ir::{BinOp, CastKind, FloatPredicate, Intrinsic, MemImage, Module, RtVal, Type};

use crate::{c64, cf32, data, emit_spmd_ids, Prepared};

/// Grid points at scale 1.
const BASE_GRID: usize = 500;
/// Atoms at scale 1.
const BASE_ATOMS: usize = 60;
/// Squared cutoff radius.
const CUTOFF2: f32 = 0.25;

/// Builds the CUTCP kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with(BASE_GRID * scale as usize, BASE_ATOMS * scale as usize)
}

/// Builds CUTCP with `grid` lattice points and `atoms` atoms.
pub fn build_with(grid: usize, atoms: usize) -> Prepared {
    let (ax, ay, az) = data::point_cloud(atoms, 50);
    let charge = data::f32_vec(atoms, 51);

    let mut module = Module::new("cutcp");
    let f = module.add_function(
        "cutcp",
        vec![
            ("ax".into(), Type::Ptr),
            ("ay".into(), Type::Ptr),
            ("az".into(), Type::Ptr),
            ("q".into(), Type::Ptr),
            ("pot".into(), Type::Ptr),
            ("grid".into(), Type::I64),
            ("atoms".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (pax, pay, paz, pq, ppot) = (
        b.param(0),
        b.param(1),
        b.param(2),
        b.param(3),
        b.param(4),
    );
    let (grid_op, atoms_op) = (b.param(5), b.param(6));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("g", tid, grid_op, nt, [], |b, g, []| {
        // Grid point coordinates derived from the flat index.
        let gf = b.cast(CastKind::IntToFloat, g, Type::F32);
        let inv = b.bin(BinOp::FMul, gf, cf32(0.001));
        let gx = inv;
        let gy = b.bin(BinOp::FMul, inv, cf32(0.5));
        let gz = b.bin(BinOp::FMul, inv, cf32(0.25));
        let [pot] = b.emit_loop("atom", c64(0), atoms_op, c64(1), [(Type::F32, cf32(0.0))], |b, a, [acc]| {
            let ax_addr = b.gep(pax, a, 4);
            let ax = b.load(Type::F32, ax_addr);
            let ay_addr = b.gep(pay, a, 4);
            let ay = b.load(Type::F32, ay_addr);
            let az_addr = b.gep(paz, a, 4);
            let az = b.load(Type::F32, az_addr);
            let q_addr = b.gep(pq, a, 4);
            let q = b.load(Type::F32, q_addr);
            let dx = b.bin(BinOp::FSub, gx, ax);
            let dy = b.bin(BinOp::FSub, gy, ay);
            let dz = b.bin(BinOp::FSub, gz, az);
            let dx2 = b.bin(BinOp::FMul, dx, dx);
            let dy2 = b.bin(BinOp::FMul, dy, dy);
            let dz2 = b.bin(BinOp::FMul, dz, dz);
            let s = b.bin(BinOp::FAdd, dx2, dy2);
            let dist2 = b.bin(BinOp::FAdd, s, dz2);
            let within = b.fcmp(FloatPredicate::Olt, dist2, cf32(CUTOFF2));
            let safe = b.bin(BinOp::FAdd, dist2, cf32(1e-6));
            let rinv = b.call(Intrinsic::Rsqrt, vec![safe], Type::F32);
            let contrib = b.bin(BinOp::FMul, q, rinv);
            let gated = b.select(within, contrib, cf32(0.0));
            [b.bin(BinOp::FAdd, acc, gated)]
        });
        let p_addr = b.gep(ppot, g, 4);
        b.store(p_addr, pot);
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("cutcp verifies");

    let mut mem = MemImage::new();
    let ax_buf = mem.alloc_f32(atoms as u64);
    let ay_buf = mem.alloc_f32(atoms as u64);
    let az_buf = mem.alloc_f32(atoms as u64);
    let q_buf = mem.alloc_f32(atoms as u64);
    let pot_buf = mem.alloc_f32(grid as u64);
    mem.fill_f32(ax_buf, &ax);
    mem.fill_f32(ay_buf, &ay);
    mem.fill_f32(az_buf, &az);
    mem.fill_f32(q_buf, &charge);

    Prepared {
        name: "cutcp".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(ax_buf as i64),
            RtVal::Int(ay_buf as i64),
            RtVal::Int(az_buf as i64),
            RtVal::Int(q_buf as i64),
            RtVal::Int(pot_buf as i64),
            RtVal::Int(grid as i64),
            RtVal::Int(atoms as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn potentials_match_reference() {
        let (grid, atoms) = (24, 10);
        let p = build_with(grid, atoms);
        let (ax, ay, az) = data::point_cloud(atoms, 50);
        let q = data::f32_vec(atoms, 51);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let pot = out.mem.read_f32_slice(p.args[4].as_int() as u64, grid);
        for (g, &pg) in pot.iter().enumerate() {
            let inv = g as f32 * 0.001;
            let (gx, gy, gz) = (inv, inv * 0.5, inv * 0.25);
            let mut acc = 0f32;
            for a in 0..atoms {
                let d2 = (gx - ax[a]).powi(2) + (gy - ay[a]).powi(2) + (gz - az[a]).powi(2);
                if d2 < CUTOFF2 {
                    acc += q[a] / (d2 + 1e-6).sqrt();
                }
            }
            assert!((acc - pg).abs() < 2e-2, "g={g}: {acc} vs {pg}");
        }
    }
}

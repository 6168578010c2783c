//! SAD: sum of absolute differences (video motion estimation) — integer
//! streaming compute, the highest-IPC kernel of the suite (paper Fig. 6).

use mosaic_ir::{BinOp, Intrinsic, MemImage, Module, RtVal, Type};

use crate::{c64, data, emit_spmd_ids, Prepared};

/// Block positions at scale 1.
const BASE_BLOCKS: usize = 2500;
/// Window elements per SAD.
const WINDOW: i64 = 16;

/// Builds the SAD kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_blocks(BASE_BLOCKS * scale as usize)
}

/// Builds SAD over `blocks` window positions.
fn build_with_blocks(blocks: usize) -> Prepared {
    let n = blocks + WINDOW as usize;
    let cur = data::i32_vec(n, 256, 70);
    let refr = data::i32_vec(n, 256, 71);

    let mut module = Module::new("sad");
    let f = module.add_function(
        "sad",
        vec![
            ("cur".into(), Type::Ptr),
            ("refr".into(), Type::Ptr),
            ("out".into(), Type::Ptr),
            ("blocks".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (pc, pr, po) = (b.param(0), b.param(1), b.param(2));
    let blocks_op = b.param(3);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("blk", tid, blocks_op, nt, [], |b, blk, []| {
        let init = [(Type::I32, mosaic_ir::Constant::i32(0).into())];
        let [sad] = b.emit_loop("w", c64(0), c64(WINDOW), c64(1), init, |b, w, [acc]| {
            let idx = b.bin(BinOp::Add, blk, w);
            let ca = b.gep(pc, idx, 4);
            let cv = b.load(Type::I32, ca);
            let ra = b.gep(pr, idx, 4);
            let rv = b.load(Type::I32, ra);
            let d = b.bin(BinOp::Sub, cv, rv);
            let nd = b.bin(BinOp::Sub, mosaic_ir::Constant::i32(0).into(), d);
            let ad = b.call(Intrinsic::SMax, vec![d, nd], Type::I32);
            [b.bin(BinOp::Add, acc, ad)]
        });
        let oa = b.gep(po, blk, 4);
        b.store(oa, sad);
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("sad verifies");

    let mut mem = MemImage::new();
    let c_buf = mem.alloc_i32(n as u64);
    let r_buf = mem.alloc_i32(n as u64);
    let o_buf = mem.alloc_i32(blocks as u64);
    mem.fill_i32(c_buf, &cur);
    mem.fill_i32(r_buf, &refr);

    Prepared {
        name: "sad".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(c_buf as i64),
            RtVal::Int(r_buf as i64),
            RtVal::Int(o_buf as i64),
            RtVal::Int(blocks as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn sad_matches_reference() {
        let blocks = 50;
        let p = build_with_blocks(blocks);
        let n = blocks + WINDOW as usize;
        let cur = data::i32_vec(n, 256, 70);
        let refr = data::i32_vec(n, 256, 71);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let got = out.mem.read_i32_slice(p.args[2].as_int() as u64, blocks);
        for blk in 0..blocks {
            let expected: i32 = (0..WINDOW as usize)
                .map(|w| (cur[blk + w] - refr[blk + w]).abs())
                .sum();
            assert_eq!(got[blk], expected, "block {blk}");
        }
    }
}

//! HISTO: saturating histogram (paper §VI-A) — data-dependent
//! read-modify-write traffic into a bin array, with counts saturating at
//! 255 like Parboil's 8-bit histogram.

use mosaic_ir::{BinOp, CastKind, Intrinsic, MemImage, Module, RtVal, Type};

use crate::{data, emit_spmd_ids, Prepared};

/// Input elements at scale 1.
const BASE_INPUT: usize = 16_000;
/// Histogram bins.
pub(crate) const BINS: i32 = 256;

/// Builds the HISTO kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_input(BASE_INPUT * scale as usize)
}

/// Builds HISTO over `n` random inputs.
fn build_with_input(n: usize) -> Prepared {
    let input = data::i32_vec(n, BINS, 30);

    let mut module = Module::new("histo");
    let f = module.add_function(
        "histo",
        vec![
            ("input".into(), Type::Ptr),
            ("hist".into(), Type::Ptr),
            ("n".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (inp, hist) = (b.param(0), b.param(1));
    let n_op = b.param(2);
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("i", tid, n_op, nt, [], |b, i, []| {
        let in_addr = b.gep(inp, i, 4);
        let v32 = b.load(Type::I32, in_addr);
        let v = b.cast(CastKind::IntResize, v32, Type::I64);
        let h_addr = b.gep(hist, v, 4);
        let old = b.load(Type::I32, h_addr);
        let inc = b.bin(BinOp::Add, old, mosaic_ir::Constant::i32(1).into());
        // Saturate at 255 (Parboil's 8-bit histogram).
        let sat = b.call(
            Intrinsic::SMin,
            vec![inc, mosaic_ir::Constant::i32(255).into()],
            Type::I32,
        );
        b.store(h_addr, sat);
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("histo verifies");

    let mut mem = MemImage::new();
    let in_buf = mem.alloc_i32(n as u64);
    let hist_buf = mem.alloc_i32(BINS as u64);
    mem.fill_i32(in_buf, &input);

    Prepared {
        name: "histo".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(in_buf as i64),
            RtVal::Int(hist_buf as i64),
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
    fn histogram_counts_saturate() {
        let n = 4000;
        let p = build_with_input(n);
        let input = data::i32_vec(n, BINS, 30);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let hist = out.mem.read_i32_slice(p.args[1].as_int() as u64, BINS as usize);
        let mut expected = vec![0i32; BINS as usize];
        for v in input {
            let e = &mut expected[v as usize];
            *e = (*e + 1).min(255);
        }
        assert_eq!(hist, expected);
        assert!(hist.iter().copied().max().unwrap() <= 255);
    }
}

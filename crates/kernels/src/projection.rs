//! Bipartite graph projection — the DAE case-study kernel
//! (paper §VII-A, Fig. 11).
//!
//! "Each pair of edges in the original bipartite graph updates a
//! projection edge, which creates an irregular memory access." For every
//! U-side vertex, every ordered pair `(v1, v2)` of its V-side neighbors
//! increments `proj[v1 * V + v2]` — pointer-chasing loads feeding an
//! irregular read-modify-write, making the kernel memory-latency bound
//! and an ideal Decoupled Access/Execute target (no atomics, so the DeSC
//! pass applies directly).

use mosaic_ir::{BinOp, CastKind, MemImage, Module, RtVal, Type};

use crate::{c64, data, emit_spmd_ids, Prepared};

/// U-side vertices at scale 1.
const BASE_U: usize = 300;
/// V-side vertices at scale 1: sized so the projection matrix
/// (V² × 4 B = 4 MB) exceeds the 2 MB shared L2 of the DAE case-study
/// memory system — the kernel must be memory-latency-bound for the
/// paper's Fig. 11 story to hold.
const BASE_V: usize = 1024;
/// Average U-side degree.
pub(crate) const AVG_DEGREE: usize = 4;

/// Builds the projection kernel at `scale`.
pub fn build(scale: u32) -> Prepared {
    build_with(BASE_U * scale as usize, BASE_V)
}

/// Builds projection of a random bipartite graph with `u_nodes` × `v_nodes`.
pub fn build_with(u_nodes: usize, v_nodes: usize) -> Prepared {
    let g = data::random_bipartite(u_nodes, v_nodes, AVG_DEGREE, 110);

    let mut module = Module::new("projection");
    let f = module.add_function(
        "projection",
        vec![
            ("offsets".into(), Type::Ptr),
            ("edges".into(), Type::Ptr),
            ("proj".into(), Type::Ptr),
            ("u_nodes".into(), Type::I64),
            ("v_nodes".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (offs, edges, proj) = (b.param(0), b.param(1), b.param(2));
    let (u_op, v_op) = (b.param(3), b.param(4));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("u", tid, u_op, nt, [], |b, u, []| {
        let oa = b.gep(offs, u, 4);
        let start32 = b.load(Type::I32, oa);
        let u1 = b.bin(BinOp::Add, u, c64(1));
        let oa1 = b.gep(offs, u1, 4);
        let end32 = b.load(Type::I32, oa1);
        let start = b.cast(CastKind::IntResize, start32, Type::I64);
        let end = b.cast(CastKind::IntResize, end32, Type::I64);
        b.emit_loop("e1", start, end, c64(1), [], |b, e1, []| {
            let ea1 = b.gep(edges, e1, 4);
            let v1_32 = b.load(Type::I32, ea1);
            let v1 = b.cast(CastKind::IntResize, v1_32, Type::I64);
            let row = b.bin(BinOp::Mul, v1, v_op);
            b.emit_loop("e2", start, end, c64(1), [], |b, e2, []| {
                let ea2 = b.gep(edges, e2, 4);
                let v2_32 = b.load(Type::I32, ea2);
                let v2 = b.cast(CastKind::IntResize, v2_32, Type::I64);
                let idx = b.bin(BinOp::Add, row, v2);
                let pa = b.gep(proj, idx, 4);
                let old = b.load(Type::I32, pa);
                let new = b.bin(BinOp::Add, old, mosaic_ir::Constant::i32(1).into());
                b.store(pa, new);
                []
            });
            []
        });
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("projection verifies");

    let mut mem = MemImage::new();
    let offs_buf = mem.alloc_i32(g.offsets.len() as u64);
    let edges_buf = mem.alloc_i32(g.edges.len() as u64);
    let proj_buf = mem.alloc_i32((v_nodes * v_nodes) as u64);
    mem.fill_i32(offs_buf, &g.offsets);
    mem.fill_i32(edges_buf, &g.edges);

    Prepared {
        name: "projection".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(offs_buf as i64),
            RtVal::Int(edges_buf as i64),
            RtVal::Int(proj_buf as i64),
            RtVal::Int(u_nodes as i64),
            RtVal::Int(v_nodes as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;
    use mosaic_passes::{slice_dae, DaeQueues};

    #[test]
    fn projection_counts_match_reference() {
        let (u_nodes, v_nodes) = (30, 12);
        let p = build_with(u_nodes, v_nodes);
        let g = data::random_bipartite(u_nodes, v_nodes, AVG_DEGREE, 110);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let proj = out
            .mem
            .read_i32_slice(p.args[2].as_int() as u64, v_nodes * v_nodes);
        let mut expected = vec![0i32; v_nodes * v_nodes];
        for u in 0..u_nodes {
            let adj = &g.edges[g.offsets[u] as usize..g.offsets[u + 1] as usize];
            for &v1 in adj {
                for &v2 in adj {
                    expected[v1 as usize * v_nodes + v2 as usize] += 1;
                }
            }
        }
        assert_eq!(proj, expected);
    }

    #[test]
    fn projection_is_dae_sliceable_and_semantics_preserved() {
        let (u_nodes, v_nodes) = (20, 10);
        let mut p = build_with(u_nodes, v_nodes);
        let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).unwrap();

        // Reference run (original kernel).
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let ref_out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let expected = ref_out
            .mem
            .read_i32_slice(p.args[2].as_int() as u64, v_nodes * v_nodes);

        // DAE pair run.
        let progs = vec![
            mosaic_ir::TileProgram::single(slices.access, p.args.clone()),
            mosaic_ir::TileProgram::single(slices.execute, p.args.clone()),
        ];
        let mut rec = mosaic_trace::TraceRecorder::new(2);
        let dae_out = run_tiles(&p.module, p.mem.clone(), &progs, &mut rec).unwrap();
        let got = dae_out
            .mem
            .read_i32_slice(p.args[2].as_int() as u64, v_nodes * v_nodes);
        assert_eq!(got, expected);
    }
}

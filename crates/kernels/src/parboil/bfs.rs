//! BFS: level-synchronized breadth-first search — the latency-bound pole
//! of the suite (paper Fig. 7: imperfect scaling; §VI-A attributes this
//! to "atomic read-modify-write instructions that are difficult to
//! accurately model").
//!
//! A level loop sweeps all vertices; vertices on the current frontier
//! relax their neighbors with `atomic_min` — irregular loads plus shared
//! atomic updates.

use mosaic_ir::{AtomicOp, BinOp, CastKind, IntPredicate, MemImage, Module, RtVal, Type};

use super::emit_if;
use crate::{c64, data, emit_spmd_ids, Prepared};

/// Vertices at scale 1.
const BASE_NODES: usize = 1200;
/// Average out-degree.
pub(crate) const AVG_DEGREE: usize = 6;
/// Frontier sweeps (levels) executed.
const LEVELS: i64 = 6;

/// Builds the BFS kernel at `scale`.
pub(crate) fn build(scale: u32) -> Prepared {
    build_with_nodes(BASE_NODES * scale as usize)
}

/// Builds BFS over a random graph with `nodes` vertices.
pub fn build_with_nodes(nodes: usize) -> Prepared {
    let graph = data::random_graph(nodes, AVG_DEGREE, 20);

    let mut module = Module::new("bfs");
    let f = module.add_function(
        "bfs",
        vec![
            ("offsets".into(), Type::Ptr),
            ("edges".into(), Type::Ptr),
            ("dist".into(), Type::Ptr),
            ("nodes".into(), Type::I64),
            ("levels".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
    let (offs, edges, dist) = (b.param(0), b.param(1), b.param(2));
    let (nodes_op, levels_op) = (b.param(3), b.param(4));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    let (tid, nt) = emit_spmd_ids(&mut b);
    b.emit_loop("level", c64(0), levels_op, c64(1), [], |b, level, []| {
        let level32 = b.cast(CastKind::IntResize, level, Type::I32);
        b.emit_loop("node", tid, nodes_op, nt, [], |b, v, []| {
            let d_addr = b.gep(dist, v, 4);
            let d = b.load(Type::I32, d_addr);
            let on_frontier = b.icmp(IntPredicate::Eq, d, level32);
            emit_if(b, "frontier", on_frontier, |b| {
                let o_addr = b.gep(offs, v, 4);
                let start32 = b.load(Type::I32, o_addr);
                let v1 = b.bin(BinOp::Add, v, c64(1));
                let o1_addr = b.gep(offs, v1, 4);
                let end32 = b.load(Type::I32, o1_addr);
                let start = b.cast(CastKind::IntResize, start32, Type::I64);
                let end = b.cast(CastKind::IntResize, end32, Type::I64);
                let next_level = b.bin(BinOp::Add, level32, mosaic_ir::Constant::i32(1).into());
                b.emit_loop("edge", start, end, c64(1), [], |b, e, []| {
                    let e_addr = b.gep(edges, e, 4);
                    let nbr32 = b.load(Type::I32, e_addr);
                    let nbr = b.cast(CastKind::IntResize, nbr32, Type::I64);
                    let nd_addr = b.gep(dist, nbr, 4);
                    b.atomic_rmw(AtomicOp::Min, nd_addr, next_level);
                    []
                });
            });
            []
        });
        []
    });
    b.ret(None);
    mosaic_ir::verify_module(&module).expect("bfs verifies");

    let mut mem = MemImage::new();
    let offs_buf = mem.alloc_i32(graph.offsets.len() as u64);
    let edges_buf = mem.alloc_i32(graph.edge_count() as u64);
    let dist_buf = mem.alloc_i32(nodes as u64);
    mem.fill_i32(offs_buf, &graph.offsets);
    mem.fill_i32(edges_buf, &graph.edges);
    // dist = INF except source 0.
    let mut dist0 = vec![i32::MAX / 2; nodes];
    dist0[0] = 0;
    mem.fill_i32(dist_buf, &dist0);

    Prepared {
        name: "bfs".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(offs_buf as i64),
            RtVal::Int(edges_buf as i64),
            RtVal::Int(dist_buf as i64),
            RtVal::Int(nodes as i64),
            RtVal::Int(LEVELS),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::run_tiles;

    #[test]
    fn distances_are_bfs_levels() {
        let nodes = 120;
        let p = build_with_nodes(nodes);
        let graph = data::random_graph(nodes, AVG_DEGREE, 20);
        let mut rec = mosaic_trace::TraceRecorder::new(1);
        let out = run_tiles(&p.module, p.mem.clone(), &p.programs(1), &mut rec).unwrap();
        let dist = out.mem.read_i32_slice(p.args[2].as_int() as u64, nodes);
        // Reference BFS limited to LEVELS sweeps.
        let mut expected = vec![i32::MAX / 2; nodes];
        expected[0] = 0;
        for level in 0..LEVELS as i32 {
            for v in 0..nodes {
                if expected[v] == level {
                    for e in graph.offsets[v] as usize..graph.offsets[v + 1] as usize {
                        let n = graph.edges[e] as usize;
                        expected[n] = expected[n].min(level + 1);
                    }
                }
            }
        }
        assert_eq!(dist, expected);
    }

    #[test]
    fn has_atomic_traffic() {
        let p = build_with_nodes(100);
        let (trace, _) = p.trace(1).unwrap();
        let writes = trace
            .tile(0)
            .mem_insts()
            .flat_map(|i| trace.tile(0).mem_stream(i))
            .filter(|a| a.write)
            .count();
        assert!(writes > 50, "bfs must generate atomic updates: {writes}");
    }
}

//! Cross-tile race detection.
//!
//! Reads each tile's [`Footprint`] — the byte region of every load and
//! store whose address can be bounded statically: a GEP chain rooted at
//! a pointer parameter with a concretely bound argument value, indexed
//! by a constant or by a counted-loop induction variable with constant
//! bounds — and flags pairs of overlapping regions on *different* tiles
//! where at least one side is a plain store and the two tiles share no
//! channel (directly or transitively).
//!
//! Channel connectivity is used as a conservative happens-before proxy:
//! tiles that communicate are assumed ordered, because blocking
//! send/recv pairs impose cross-tile ordering and a flow-sensitive
//! proof is out of scope. `AtomicRmw` accesses are never flagged — they
//! are the IR's synchronization primitive. Accesses whose region cannot
//! be bounded (unknown arguments, `tile_id`-dependent strides, data-
//! dependent indices) are skipped entirely, so SPMD kernels that
//! partition an array by tile id produce no findings.

use mosaic_ir::analysis::{AccessRange, Footprint};
use mosaic_ir::{Module, Opcode};

use crate::{Diagnostic, LintReport, Severity, TileBinding};

const PASS: &str = "race";

/// Tiles are channel-connected when they share a system queue, directly
/// or through a chain of other tiles.
fn connected_components(module: &Module, tiles: &[TileBinding]) -> Vec<usize> {
    let queues: Vec<Vec<u32>> = tiles
        .iter()
        .map(|t| {
            let func = module.function(t.func);
            let mut qs = Vec::new();
            for block in func.blocks() {
                for &iid in block.insts() {
                    if let Opcode::Send { queue, .. } | Opcode::Recv { queue } =
                        func.inst(iid).op()
                    {
                        let q = queue + t.queue_offset;
                        if !qs.contains(&q) {
                            qs.push(q);
                        }
                    }
                }
            }
            qs
        })
        .collect();
    let mut comp: Vec<usize> = (0..tiles.len()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..tiles.len() {
            for j in i + 1..tiles.len() {
                if comp[i] != comp[j] && queues[i].iter().any(|q| queues[j].contains(q)) {
                    let (from, to) = (comp[i].max(comp[j]), comp[i].min(comp[j]));
                    for c in comp.iter_mut() {
                        if *c == from {
                            *c = to;
                        }
                    }
                    changed = true;
                }
            }
        }
    }
    comp
}

/// Runs the race pass over one configured system.
pub(crate) fn run(module: &Module, tiles: &[TileBinding], report: &mut LintReport) {
    let comp = connected_components(module, tiles);
    // Each tile's bounded accesses that provably execute (conditionally
    // run blocks, e.g. guarded by a tile-id branch, cannot prove a race),
    // as `(tile, access)`. `AtomicRmw` is the synchronization primitive.
    let mut accesses: Vec<(usize, AccessRange)> = Vec::new();
    for (tile, binding) in tiles.iter().enumerate() {
        let func = module.function(binding.func);
        let bounded = Footprint::compute(func, &binding.args).bounded;
        accesses.extend(
            bounded
                .into_iter()
                .filter(|a| {
                    a.count.is_some_and(|c| c >= 1)
                        && !matches!(func.inst(a.inst).op(), Opcode::AtomicRmw { .. })
                })
                .map(|a| (tile, a)),
        );
    }

    // Report at most one conflict per unordered tile pair to keep the
    // output readable on large systems.
    let mut reported: Vec<(usize, usize)> = Vec::new();
    for (i, (ta, a)) in accesses.iter().enumerate() {
        for (tb, b) in &accesses[i + 1..] {
            if ta == tb
                || !(a.is_store || b.is_store)
                || comp[*ta] == comp[*tb]
                || a.lo >= b.hi
                || b.lo >= a.hi
            {
                continue;
            }
            let pair = (*ta.min(tb), *ta.max(tb));
            if reported.contains(&pair) {
                continue;
            }
            reported.push(pair);
            let ((st_tile, st), (other_tile, other)) =
                if a.is_store { ((ta, a), (tb, b)) } else { ((tb, b), (ta, a)) };
            let binding = &tiles[*st_tile];
            let func = module.function(binding.func);
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                pass: PASS,
                func: func.name().to_string(),
                func_id: binding.func,
                inst: Some(st.inst),
                queue: None,
                message: format!(
                    "possible data race: store {} on tile {} (bytes [{}, {})) \
                     overlaps {} {} on tile {} (bytes [{}, {})) and the tiles \
                     share no channel ordering",
                    st.inst,
                    st_tile,
                    st.lo,
                    st.hi,
                    if other.is_store { "store" } else { "load" },
                    other.inst,
                    other_tile,
                    other.lo,
                    other.hi,
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{Constant, FuncId, FunctionBuilder, Type};

    /// What each iteration of a [`writer`] loop does to `p[i]`.
    #[derive(Debug, Clone, Copy)]
    enum Body {
        Store,
        /// `if i < k { p[i] <- i }`: a block that runs conditionally.
        GuardedStore,
        Atomic,
    }

    /// `f(ptr p, i64 k)`: for i in 0..8 { `body` } with an optional
    /// channel op.
    fn writer(m: &mut Module, name: &str, queue: Option<(u32, bool)>, body: Body) -> FuncId {
        let params = vec![(String::from("p"), Type::Ptr), (String::from("k"), Type::I64)];
        let f = m.add_function(name, params, Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let (p, k) = (b.param(0), b.param(1));
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(8).into(), |b, iv| {
            let addr = b.gep(p, iv, 8);
            match body {
                Body::Store => b.store(addr, iv),
                Body::GuardedStore => {
                    let (then, join) = (b.create_block("then"), b.create_block("join"));
                    let c = b.icmp(mosaic_ir::IntPredicate::Slt, iv, k);
                    b.cond_br(c, then, join);
                    b.switch_to(then);
                    b.store(addr, iv);
                    b.br(join);
                    b.switch_to(join);
                }
                Body::Atomic => {
                    b.atomic_rmw(mosaic_ir::AtomicOp::Add, addr, iv);
                }
            }
        });
        match queue {
            Some((q, true)) => b.send(q, Constant::i64(1).into()),
            Some((q, false)) => {
                b.recv(q, Type::I64);
            }
            None => {}
        }
        b.ret(None);
        f
    }

    #[test]
    fn overlapping_stores_without_channels_race() {
        let mut m = Module::new("race");
        let f = writer(&mut m, "w0", None, Body::Store);
        let g = writer(&mut m, "w1", None, Body::Store);
        // Both tiles write bytes [1000, 1064).
        let tiles = vec![
            TileBinding::new(f, 0, vec![Some(1000)]),
            TileBinding::new(g, 0, vec![Some(1000)]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert_eq!(report.error_count(), 1, "findings: {report}");
        assert!(report.diagnostics[0].message.contains("data race"));
    }

    /// The two filters the pass applies to each tile's footprint: a store
    /// that may not run, or an atomic, proves no race against another
    /// tile's plain store to the same bytes.
    #[test]
    fn conditional_and_atomic_accesses_do_not_race() {
        for (body, races) in [(Body::Store, 1), (Body::GuardedStore, 0), (Body::Atomic, 0)] {
            let mut m = Module::new("filters");
            let f = writer(&mut m, "w0", None, body);
            let g = writer(&mut m, "w1", None, Body::Store);
            let tiles = vec![
                TileBinding::new(f, 0, vec![Some(1000), Some(4)]),
                TileBinding::new(g, 0, vec![Some(1000), Some(4)]),
            ];
            let mut report = LintReport::default();
            run(&m, &tiles, &mut report);
            assert_eq!(report.error_count(), races, "{body:?}: {report}");
        }
    }

    #[test]
    fn disjoint_regions_do_not_race() {
        let mut m = Module::new("disjoint");
        let f = writer(&mut m, "w0", None, Body::Store);
        let g = writer(&mut m, "w1", None, Body::Store);
        let tiles = vec![
            TileBinding::new(f, 0, vec![Some(0)]),
            TileBinding::new(g, 0, vec![Some(4096)]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "findings: {report}");
    }

    #[test]
    fn channel_ordering_suppresses_the_finding() {
        let mut m = Module::new("sync");
        let f = writer(&mut m, "w0", Some((0, true)), Body::Store);
        let g = writer(&mut m, "w1", Some((0, false)), Body::Store);
        let tiles = vec![
            TileBinding::new(f, 0, vec![Some(1000)]),
            TileBinding::new(g, 0, vec![Some(1000)]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "findings: {report}");
    }

    #[test]
    fn unknown_pointer_bindings_are_skipped() {
        let mut m = Module::new("unknown");
        let f = writer(&mut m, "w0", None, Body::Store);
        let g = writer(&mut m, "w1", None, Body::Store);
        let tiles = vec![
            TileBinding::new(f, 0, vec![None]),
            TileBinding::new(g, 0, vec![None]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "findings: {report}");
    }
}

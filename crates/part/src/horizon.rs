//! Static lower bounds on instruction issue cycles.
//!
//! The epoch-horizon machinery needs, for every `send` (and memory
//! access), a cycle count **no dynamic execution can beat** — on any
//! core model the simulator offers. Two mechanisms are provably
//! respected by every core configuration:
//!
//! 1. **True data dependences.** A dynamic instruction issues only
//!    after all its operand-producing instances complete, and an
//!    instance of opcode class *c* occupies its FU for at least the
//!    minimum latency of *c*. SSA def-use chains therefore give a
//!    per-static-instruction lower bound on the issue cycle of *every*
//!    dynamic instance: the least fixpoint of
//!    `issue(i) ≥ max over operands d of issue(d) + minlat(d)`, with
//!    phis taking the *minimum* over their incomings (any incoming may
//!    feed any instance) and parameters/constants available at cycle 0.
//!    Loop-carried chains (`add %iv, 1` through a header phi) make the
//!    bound per-iteration — the k-th increment cannot issue before
//!    `k · minlat(add)`.
//!
//! 2. **Mispredicted launch gates** (only when
//!    [`LatencyModel::gate_bounds`] is set). Under static branch
//!    prediction the loop-continuation edge is always predicted, so a
//!    *loop exit* edge is always a mispredict: the next DBB cannot
//!    launch until the exiting terminator completes. For a canonical
//!    counted loop with trip count `T`, the exiting terminator's
//!    condition depends on the `T`-th induction increment, adding
//!    `T · minlat(add)` cycles before any post-loop block launches.
//!    This is the "dominator distance + trip count" component; it is
//!    *unsound* under perfect or bimodal prediction (the gate can stay
//!    open), so callers must clear `gate_bounds` for such systems.
//!
//! Everything the model is unsure about costs zero: unknown opcodes,
//! fusible compares/GEPs/phis, memory latencies (store-to-load
//! forwarding and DeSC structures can hide them), and blocks reachable
//! without crossing a provable mispredict. Lower bounds only ever come
//! from the two mechanisms above, which is what makes the horizons
//! conservative for the future parallel interleaver.

use mosaic_ir::analysis::{find_loops, trip_count, Cfg, NaturalLoop, Trip};
use mosaic_ir::{BlockId, Function, InstId, Opcode, Operand};

/// Minimum-latency model for the horizon bounds.
///
/// Latencies are *lower bounds across every tile in the system*: when
/// building from concrete `CoreConfig`s take the minimum of each class
/// over all tiles (the default matches the default cost table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum latency of any arithmetic (`Bin`) instruction.
    pub alu: u64,
    /// Minimum latency of a branch terminator.
    pub branch: u64,
    /// Channel delivery latency: a value sent at cycle `c` becomes
    /// receivable at `c + channel` (the `ChannelConfig::latency`
    /// maturity rule).
    pub channel: u64,
    /// Whether mispredicted-launch-gate bounds apply (see the module
    /// docs). Set only when every tile uses static (or no) branch
    /// prediction; clear for perfect or bimodal predictors.
    pub gate_bounds: bool,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            alu: 1,
            branch: 1,
            channel: 1,
            gate_bounds: true,
        }
    }
}

/// A provable loop-exit edge: crossing `from → to` leaves `lp`'s body,
/// which under static prediction always waits for the exiting
/// terminator.
struct ExitEdge {
    from: BlockId,
    to: BlockId,
    /// Evaluated trip count of the loop when it is canonical and known.
    trips: Option<u64>,
    /// Issue bound of the induction chain's start value (the entry
    /// incoming of the iv phi), when the loop is canonical.
    start: Option<Operand>,
}

/// Per-function static lower bounds under one tile binding.
#[derive(Debug, Clone)]
pub struct FuncDepths {
    /// Lower bound on the issue cycle of *every* dynamic instance of
    /// each static instruction, indexed by [`InstId`].
    pub inst_issue: Vec<u64>,
    /// Lower bound on every launch of each block, indexed by
    /// [`BlockId`]. Unreachable blocks keep 0.
    pub block_launch: Vec<u64>,
}

impl FuncDepths {
    /// Computes the bounds for `func` with parameter values `args`
    /// (`None` = unknown) under `model`.
    pub fn compute(func: &Function, args: &[Option<i64>], model: &LatencyModel) -> FuncDepths {
        let cfg = Cfg::new(func);
        let dom = cfg.dominators();
        let loops = find_loops(func, &cfg, &dom);
        let exits = exit_edges(func, &cfg, &loops, args);

        let mut inst_issue = vec![0u64; func.inst_count()];
        let mut block_launch = vec![0u64; func.block_count()];

        // Kleene iteration from ⊥ = 0. All transfer functions are
        // monotone in their inputs and bounded (phi minima cap
        // loop-carried growth at the entry-edge chain), so this
        // converges; the iteration cap is belt-and-braces.
        for _ in 0..(4 * func.block_count().max(4)) {
            let mut changed = false;
            for &b in cfg.rpo() {
                let launch = if cfg.preds(b).is_empty() {
                    0
                } else {
                    cfg.preds(b)
                        .iter()
                        .filter(|&&p| cfg.is_reachable(p))
                        .map(|&p| {
                            edge_arrival(
                                func, p, b, &exits, &inst_issue, &block_launch, model,
                            )
                        })
                        .min()
                        .unwrap_or(0)
                };
                if launch > block_launch[b.index()] {
                    block_launch[b.index()] = launch;
                    changed = true;
                }
                for &iid in func.block(b).insts() {
                    let d = inst_bound(func, iid, b, &inst_issue, &block_launch, &cfg, model);
                    if d > inst_issue[iid.index()] {
                        inst_issue[iid.index()] = d;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        FuncDepths {
            inst_issue,
            block_launch,
        }
    }

}

/// Minimum issue→completion latency of one opcode. Anything that any
/// core model can retire for free — phis, fusible GEPs and compares,
/// memory operations (store-to-load forwarding / DeSC buffers), sends,
/// recvs, accelerator calls, unknown opcodes — contributes zero.
fn min_latency(op: &Opcode, model: &LatencyModel) -> u64 {
    match op {
        Opcode::Bin { .. } => model.alu,
        _ => 0,
    }
}

/// Collects provable loop-exit edges with their trip-count
/// amplification. An edge `from → to` qualifies when `from` is in a
/// loop, its terminator is conditional with exactly one successor
/// inside the loop, `to` is outside, and `to` cannot reach `from`
/// again (if it could, the static predictor's loop-continuation
/// heuristic might legitimately predict the exit).
fn exit_edges(
    func: &Function,
    cfg: &Cfg,
    loops: &[NaturalLoop],
    args: &[Option<i64>],
) -> Vec<ExitEdge> {
    let mut out = Vec::new();
    for lp in loops {
        let (trips, start) = counted_loop_info(func, lp, args);
        for &b in &lp.blocks {
            let Some(term) = func.block(b).terminator() else { continue };
            let Opcode::CondBr { on_true, on_false, .. } = func.inst(term).op() else {
                continue;
            };
            let (inside, outside) = (lp.contains(*on_true), lp.contains(*on_false));
            let exit = match (inside, outside) {
                (true, false) => *on_false,
                (false, true) => *on_true,
                _ => continue,
            };
            if reaches(cfg, exit, b) {
                continue; // re-entrant exit: prediction is not provable
            }
            // Trip amplification only applies to the canonical exit
            // (the header's compare chain); side exits still gate on
            // the terminator.
            let canonical = b == lp.header;
            out.push(ExitEdge {
                from: b,
                to: exit,
                trips: if canonical { trips } else { None },
                start: if canonical { start } else { None },
            });
        }
    }
    out
}

/// Trip count (evaluated under `args`) and induction start operand of a
/// canonical counted loop.
fn counted_loop_info(
    func: &Function,
    lp: &NaturalLoop,
    args: &[Option<i64>],
) -> (Option<u64>, Option<Operand>) {
    let trips = match trip_count(func, lp) {
        Trip::Const(c) => Some(c.max(0) as u64),
        Trip::Param(p) => args
            .get(p as usize)
            .copied()
            .flatten()
            .map(|v| v.max(0) as u64),
        Trip::Unknown => None,
    };
    // The canonical form's iv phi is the slt compare's lhs; its entry
    // incoming anchors the increment chain.
    let start = (|| {
        let term = func.block(lp.header).terminator()?;
        let Opcode::CondBr { cond, .. } = func.inst(term).op() else { return None };
        let cmp = cond.as_inst()?;
        let Opcode::ICmp { lhs, .. } = func.inst(cmp).op() else { return None };
        let phi = lhs.as_inst()?;
        let Opcode::Phi { incoming } = func.inst(phi).op() else { return None };
        incoming
            .iter()
            .find(|(p, _)| !lp.contains(*p))
            .map(|(_, v)| *v)
    })();
    (trips, start)
}

/// Whether `to` can reach `from` in the CFG.
fn reaches(cfg: &Cfg, from: BlockId, to: BlockId) -> bool {
    let mut seen = vec![false; cfg.block_count()];
    let mut work = vec![from];
    while let Some(b) = work.pop() {
        if b == to {
            return true;
        }
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        work.extend(cfg.succs(b).iter().copied());
    }
    false
}

/// Earliest cycle at which a launch of `b` via the edge `p → b` can
/// happen.
#[allow(clippy::too_many_arguments)]
fn edge_arrival(
    func: &Function,
    p: BlockId,
    b: BlockId,
    exits: &[ExitEdge],
    inst_issue: &[u64],
    block_launch: &[u64],
    model: &LatencyModel,
) -> u64 {
    let base = block_launch[p.index()];
    if !model.gate_bounds {
        return base;
    }
    let Some(edge) = exits.iter().find(|e| e.from == p && e.to == b) else {
        return base;
    };
    let Some(term) = func.block(p).terminator() else { return base };
    // The gate waits for the exiting terminator's completion.
    let mut gate = inst_issue[term.index()] + model.branch;
    if let Some(trips) = edge.trips {
        // Final-iteration induction chain: the k-th `add %iv, 1`
        // cannot issue before k·alu past the chain's anchor, and the
        // exit decision consumes increment number `trips`.
        let anchor = match &edge.start {
            Some(Operand::Inst(d)) => {
                inst_issue[d.index()] + min_latency(func.inst(*d).op(), model)
            }
            _ => 0,
        };
        gate = gate.max(base.max(anchor) + trips * model.alu + model.branch);
    }
    base.max(gate)
}

/// Issue bound for one instruction: its block's launch bound joined
/// with its operands' completion bounds (phis take the minimum over
/// reachable incomings — any incoming may feed an instance).
fn inst_bound(
    func: &Function,
    iid: InstId,
    block: BlockId,
    inst_issue: &[u64],
    block_launch: &[u64],
    cfg: &Cfg,
    model: &LatencyModel,
) -> u64 {
    let ready = |op: &Operand| -> u64 {
        match op {
            Operand::Inst(d) => inst_issue[d.index()] + min_latency(func.inst(*d).op(), model),
            _ => 0,
        }
    };
    let inst = func.inst(iid);
    let deps = match inst.op() {
        Opcode::Phi { incoming } => incoming
            .iter()
            .filter(|(p, _)| cfg.is_reachable(*p))
            .map(|(_, v)| ready(v))
            .min()
            .unwrap_or(0),
        op => {
            let mut d = 0u64;
            op.for_each_operand(|o| d = d.max(ready(&o)));
            d
        }
    };
    deps.max(block_launch[block.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{BinOp, Constant, FunctionBuilder, Module, Type};

    /// The (only) `send` instruction in a function.
    fn find_send(func: &Function) -> InstId {
        func.blocks()
            .flat_map(|b| b.insts().iter().copied())
            .find(|&i| matches!(func.inst(i).op(), Opcode::Send { .. }))
            .expect("function has a send")
    }

    /// for i in 0..100 {}; send(0, 1): the send is gated behind the
    /// loop's exit mispredict, so its bound carries the trip count.
    #[test]
    fn post_loop_send_carries_trip_count() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(100).into(), |_, _| {});
        b.send(0, Constant::i64(1).into());
        b.ret(None);
        let func = m.function(f);
        let send = find_send(func);

        let model = LatencyModel::default();
        let d = FuncDepths::compute(func, &[], &model);
        assert!(
            d.inst_issue[send.index()] >= 100,
            "post-loop send bound {} must cover 100 iv increments",
            d.inst_issue[send.index()]
        );

        // Without gate bounds (perfect prediction) the launch gate is
        // free and only data dependences count: the send depends on
        // nothing, so its bound collapses.
        let free = LatencyModel { gate_bounds: false, ..model };
        let d = FuncDepths::compute(func, &[], &free);
        assert_eq!(d.inst_issue[send.index()], 0);
    }

    /// A send inside the loop body (first iteration feeds it) keeps a
    /// near-zero bound: first-effect horizons must not multiply by trip
    /// counts.
    #[test]
    fn in_loop_send_is_not_amplified() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(100).into(), |b, iv| {
            b.send(0, iv);
        });
        b.ret(None);
        let func = m.function(f);
        let send = find_send(func);
        let d = FuncDepths::compute(func, &[], &LatencyModel::default());
        assert!(
            d.inst_issue[send.index()] <= 2,
            "first-iteration send must stay cheap, got {}",
            d.inst_issue[send.index()]
        );
    }

    /// Dependence chains alone (no gates) still bound a send fed by a
    /// chain of adds.
    #[test]
    fn dependence_chain_bounds_send() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let mut v = b.param(0);
        for _ in 0..5 {
            v = b.bin(BinOp::Add, v, Constant::i64(1).into());
        }
        b.send(0, v);
        b.ret(None);
        let func = m.function(f);
        let send = find_send(func);
        let d = FuncDepths::compute(
            func,
            &[None],
            &LatencyModel { gate_bounds: false, ..LatencyModel::default() },
        );
        assert_eq!(d.inst_issue[send.index()], 5);
    }

    /// Param trip counts evaluate through the binding arguments.
    #[test]
    fn param_trip_counts_use_bound_args() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let n = b.param(0);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |_, _| {});
        b.send(0, Constant::i64(1).into());
        b.ret(None);
        let func = m.function(f);
        let send = find_send(func);
        let model = LatencyModel::default();
        let bound_known = FuncDepths::compute(func, &[Some(64)], &model);
        assert!(bound_known.inst_issue[send.index()] >= 64);
        let bound_unknown = FuncDepths::compute(func, &[None], &model);
        assert!(bound_unknown.inst_issue[send.index()] < 64);
    }
}

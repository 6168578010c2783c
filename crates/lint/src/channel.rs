//! Channel-protocol analysis.
//!
//! Counts send/recv effects per system channel along CFG paths, using
//! loop-trip-count bounds from [`mosaic_ir::analysis::ExecCounts`], and
//! flags three classes of provable protocol violations:
//!
//! 1. **Unmatched endpoints** — a channel with receivers but no sender
//!    anywhere in the system (or vice versa), typically a `queue_offset`
//!    misconfiguration.
//! 2. **Count mismatches** — when every endpoint on a channel has a
//!    statically evaluable execution count, a send/recv total imbalance
//!    is a guaranteed dynamic stall (the surplus side blocks).
//! 3. **Self-wait cycles** — a cycle of channels `q0 -> q1 -> ... -> q0`
//!    where *every* send on each channel is dominated (within its tile)
//!    by a blocking recv on the previous channel, so no data can ever
//!    appear on any of them.
//!
//! Endpoints whose execution count cannot be bounded are skipped by the
//! count-mismatch check (conservative: no false positives), which is why
//! dynamically data-dependent kernels never trigger it.

use mosaic_ir::analysis::footprint::eval_trip_product;
use mosaic_ir::analysis::{Cfg, ExecCounts};
use mosaic_ir::{BlockId, FuncId, InstId, Module, Opcode};

use crate::{Diagnostic, LintReport, Severity, TileBinding};

const PASS: &str = "channel-protocol";

/// One send or recv instruction mapped to its system-level channel.
struct Endpoint {
    tile: usize,
    func: FuncId,
    func_name: String,
    inst: InstId,
    block: BlockId,
    /// Position of the instruction within its block (for same-block
    /// domination checks).
    idx: usize,
    /// System channel id (IR queue id + the tile's `queue_offset`).
    queue: u32,
    /// Statically evaluated execution count, if bounded.
    count: Option<i64>,
}

/// Runs the channel-protocol pass over one configured system.
pub(crate) fn run(module: &Module, tiles: &[TileBinding], report: &mut LintReport) {
    let mut sends: Vec<Endpoint> = Vec::new();
    let mut recvs: Vec<Endpoint> = Vec::new();
    // Per send endpoint: the set of system channels qa such that a recv
    // on qa dominates the send within its tile.
    let mut send_gates: Vec<Vec<u32>> = Vec::new();

    for (tile, binding) in tiles.iter().enumerate() {
        let func = module.function(binding.func);
        let cfg = Cfg::new(func);
        let dom = cfg.dominators();
        let exec = ExecCounts::compute(func, &cfg, &dom);
        let mut tile_sends: Vec<usize> = Vec::new();
        let mut tile_recvs: Vec<usize> = Vec::new();
        for block in func.blocks() {
            if !cfg.is_reachable(block.id()) {
                continue;
            }
            for (idx, &iid) in block.insts().iter().enumerate() {
                let (queue, is_send) = match func.inst(iid).op() {
                    Opcode::Send { queue, .. } => (*queue, true),
                    Opcode::Recv { queue } => (*queue, false),
                    _ => continue,
                };
                let ep = Endpoint {
                    tile,
                    func: binding.func,
                    func_name: func.name().to_string(),
                    inst: iid,
                    block: block.id(),
                    idx,
                    queue: queue + binding.queue_offset,
                    count: eval_trip_product(exec.count(block.id()), &binding.args),
                };
                if is_send {
                    tile_sends.push(sends.len());
                    sends.push(ep);
                } else {
                    tile_recvs.push(recvs.len());
                    recvs.push(ep);
                }
            }
        }
        // Which recv channels gate (dominate) each send on this tile.
        for &si in &tile_sends {
            let s = &sends[si];
            let mut gates: Vec<u32> = Vec::new();
            for &ri in &tile_recvs {
                let r = &recvs[ri];
                let dominates = if r.block == s.block {
                    r.idx < s.idx
                } else {
                    dom.dominates(r.block, s.block)
                };
                if dominates && !gates.contains(&r.queue) {
                    gates.push(r.queue);
                }
            }
            debug_assert_eq!(send_gates.len(), si);
            send_gates.push(gates);
        }
    }

    check_balance(&sends, &recvs, report);
    check_self_wait(&sends, &recvs, &send_gates, report);
}

/// Unmatched-endpoint and count-mismatch diagnostics, per system channel.
fn check_balance(sends: &[Endpoint], recvs: &[Endpoint], report: &mut LintReport) {
    let mut queues: Vec<u32> = sends.iter().chain(recvs).map(|e| e.queue).collect();
    queues.sort_unstable();
    queues.dedup();

    for q in queues {
        let qs: Vec<&Endpoint> = sends.iter().filter(|e| e.queue == q).collect();
        let qr: Vec<&Endpoint> = recvs.iter().filter(|e| e.queue == q).collect();
        if qr.is_empty() {
            let s = qs[0];
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                pass: PASS,
                func: s.func_name.clone(),
                func_id: s.func,
                inst: Some(s.inst),
                queue: Some(q),
                message: format!(
                    "send {} on channel q{q} (tile {}) has no receiver anywhere in \
                     the system; the channel fills and the send blocks forever",
                    s.inst, s.tile
                ),
            });
            continue;
        }
        if qs.is_empty() {
            let r = qr[0];
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                pass: PASS,
                func: r.func_name.clone(),
                func_id: r.func,
                inst: Some(r.inst),
                queue: Some(q),
                message: format!(
                    "recv {} on channel q{q} (tile {}) has no sender anywhere in \
                     the system; the recv blocks forever if reached",
                    r.inst, r.tile
                ),
            });
            continue;
        }
        // Both sides present: compare totals when every endpoint on this
        // channel has a bounded count.
        let total = |eps: &[&Endpoint]| -> Option<i64> {
            eps.iter()
                .try_fold(0i64, |acc, e| e.count.map(|c| acc.saturating_add(c)))
        };
        let (ts, tr) = match (total(&qs), total(&qr)) {
            (Some(ts), Some(tr)) => (ts, tr),
            _ => continue,
        };
        if ts > tr {
            let s = qs.iter().find(|e| e.count.unwrap_or(0) > 0).unwrap_or(&qs[0]);
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                pass: PASS,
                func: s.func_name.clone(),
                func_id: s.func,
                inst: Some(s.inst),
                queue: Some(q),
                message: format!(
                    "channel q{q}: {ts} value(s) sent but only {tr} received; \
                     send {} in {} (tile {}) blocks once the channel fills",
                    s.inst, s.func_name, s.tile
                ),
            });
        } else if tr > ts {
            let r = qr.iter().find(|e| e.count.unwrap_or(0) > 0).unwrap_or(&qr[0]);
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                pass: PASS,
                func: r.func_name.clone(),
                func_id: r.func,
                inst: Some(r.inst),
                queue: Some(q),
                message: format!(
                    "channel q{q}: {tr} value(s) received but only {ts} sent; \
                     recv {} in {} (tile {}) blocks forever on an empty channel",
                    r.inst, r.func_name, r.tile
                ),
            });
        }
    }
}

/// Provable self-wait cycles across the tile graph.
///
/// Builds a channel dependence graph with an edge `qa -> qb` iff every
/// send on `qb` in the system is dominated by a recv on `qa` within its
/// own tile (so no value can appear on `qb` before one is consumed from
/// `qa`). A cycle in this graph where some participating recv provably
/// executes at least once is a guaranteed deadlock.
fn check_self_wait(
    sends: &[Endpoint],
    recvs: &[Endpoint],
    send_gates: &[Vec<u32>],
    report: &mut LintReport,
) {
    let mut queues: Vec<u32> = sends.iter().map(|e| e.queue).collect();
    queues.sort_unstable();
    queues.dedup();

    // edges[qb] = channels qa gating *all* sends on qb.
    let mut edges: Vec<(u32, Vec<u32>)> = Vec::new();
    for &qb in &queues {
        let mut common: Option<Vec<u32>> = None;
        for (si, s) in sends.iter().enumerate() {
            if s.queue != qb {
                continue;
            }
            let gates = &send_gates[si];
            common = Some(match common {
                None => gates.clone(),
                Some(prev) => prev.into_iter().filter(|q| gates.contains(q)).collect(),
            });
        }
        if let Some(gating) = common {
            if !gating.is_empty() {
                edges.push((qb, gating));
            }
        }
    }

    // DFS for a cycle over the gated-dependence graph (qb depends on qa).
    let succ = |q: u32| -> &[u32] {
        edges
            .iter()
            .find(|(qb, _)| *qb == q)
            .map(|(_, g)| g.as_slice())
            .unwrap_or(&[])
    };
    let mut cycle: Option<Vec<u32>> = None;
    let mut visited: Vec<u32> = Vec::new();
    for &(start, _) in &edges {
        if cycle.is_some() {
            break;
        }
        if visited.contains(&start) {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        let mut path: Vec<u32> = vec![start];
        while let Some(&mut (q, ref mut next)) = stack.last_mut() {
            let gs = succ(q);
            if *next >= gs.len() {
                visited.push(q);
                stack.pop();
                path.pop();
                continue;
            }
            let g = gs[*next];
            *next += 1;
            if let Some(pos) = path.iter().position(|&p| p == g) {
                cycle = Some(path[pos..].to_vec());
                break;
            }
            if !visited.contains(&g) {
                stack.push((g, 0));
                path.push(g);
            }
        }
    }

    let Some(cycle) = cycle else { return };
    // Only flag if some recv on a cycle channel provably executes.
    let witness = recvs
        .iter()
        .filter(|r| cycle.contains(&r.queue))
        .find(|r| r.count.is_some_and(|c| c >= 1));
    let Some(w) = witness else { return };
    let ring: Vec<String> = cycle
        .iter()
        .chain(cycle.first())
        .map(|q| format!("q{q}"))
        .collect();
    report.diagnostics.push(Diagnostic {
        severity: Severity::Error,
        pass: PASS,
        func: w.func_name.clone(),
        func_id: w.func,
        inst: Some(w.inst),
        queue: Some(w.queue),
        message: format!(
            "provable self-wait cycle across channels {}: every send on each \
             channel waits behind a recv on the previous one, so recv {} in {} \
             (tile {}) can never be satisfied",
            ring.join(" -> "),
            w.inst,
            w.func_name,
            w.tile
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{Constant, FunctionBuilder, Operand, Type};

    fn chatter() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("chatter");
        let p = m.add_function(
            "produce",
            vec![(String::from("n"), Type::I64)],
            Type::Void,
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(p));
            let e = b.create_block("entry");
            b.switch_to(e);
            let n = b.param(0);
            b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, _iv| {
                b.send(0, Constant::i64(7).into());
            });
            b.ret(None);
        }
        let c = m.add_function(
            "consume",
            vec![(String::from("n"), Type::I64)],
            Type::Void,
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(c));
            let e = b.create_block("entry");
            b.switch_to(e);
            let n = b.param(0);
            b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, _iv| {
                b.recv(0, Type::I64);
            });
            b.ret(None);
        }
        (m, p, c)
    }

    #[test]
    fn balanced_system_is_clean() {
        let (m, p, c) = chatter();
        let tiles = vec![
            TileBinding::new(p, 0, vec![Some(200)]),
            TileBinding::new(c, 0, vec![Some(200)]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn count_mismatch_names_the_blocking_send() {
        let (m, p, c) = chatter();
        let tiles = vec![
            TileBinding::new(p, 0, vec![Some(100)]),
            TileBinding::new(c, 0, vec![Some(10)]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert_eq!(report.error_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.queue, Some(0));
        assert!(d.inst.is_some());
        assert!(d.message.contains("100 value(s) sent but only 10 received"));
    }

    #[test]
    fn queue_offset_mismatch_flags_both_orphans() {
        let (m, p, c) = chatter();
        let tiles = vec![
            TileBinding::new(p, 0, vec![None]),
            TileBinding::new(c, 7, vec![None]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert_eq!(report.error_count(), 2);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.queue == Some(0) && d.message.contains("no receiver")));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.queue == Some(7) && d.message.contains("no sender")));
    }

    #[test]
    fn unknown_counts_are_not_flagged() {
        let (m, p, c) = chatter();
        // Arguments unbound: counts unknown, endpoints matched -> clean.
        let tiles = vec![
            TileBinding::new(p, 0, vec![None]),
            TileBinding::new(c, 0, vec![None]),
        ];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn recv_before_send_ring_is_a_self_wait_cycle() {
        // Two tiles, each of which recvs before it sends: a classic
        // circular wait. t0: recv q1 then send q0; t1: recv q0 then send q1.
        let mut m = Module::new("ring");
        let mk = |m: &mut Module, name: &str, rq: u32, sq: u32| -> FuncId {
            let f = m.add_function(name, vec![], Type::Void);
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let e = b.create_block("entry");
            b.switch_to(e);
            let v = b.recv(rq, Type::I64);
            b.send(sq, v);
            b.ret(None);
            f
        };
        let t0 = mk(&mut m, "t0", 1, 0);
        let t1 = mk(&mut m, "t1", 0, 1);
        let tiles = vec![TileBinding::new(t0, 0, vec![]), TileBinding::new(t1, 0, vec![])];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("self-wait cycle")),
            "expected a self-wait finding: {report}"
        );
    }

    #[test]
    fn send_before_recv_ring_is_clean() {
        // t0 seeds the ring by sending first: no deadlock, no finding.
        let mut m = Module::new("ring_ok");
        let f0 = m.add_function("t0", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f0));
            let e = b.create_block("entry");
            b.switch_to(e);
            b.send(0, Operand::Const(Constant::i64(1)));
            b.recv(1, Type::I64);
            b.ret(None);
        }
        let f1 = m.add_function("t1", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f1));
            let e = b.create_block("entry");
            b.switch_to(e);
            let v = b.recv(0, Type::I64);
            b.send(1, v);
            b.ret(None);
        }
        let tiles = vec![TileBinding::new(f0, 0, vec![]), TileBinding::new(f1, 0, vec![])];
        let mut report = LintReport::default();
        run(&m, &tiles, &mut report);
        assert!(report.is_clean(), "unexpected findings: {report}");
    }
}

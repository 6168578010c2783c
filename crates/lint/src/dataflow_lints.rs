//! Per-function lints over `mosaic_ir::analysis`: use-before-initialize
//! (on the dominator tree), dead stores, dead values (via side-effect
//! demand), unreachable blocks, and phi inputs from unreachable
//! predecessors.

use mosaic_ir::analysis::{demanded_values, Cfg};
use mosaic_ir::{Function, InstId, Module, Opcode, Operand};

use crate::{Diagnostic, LintReport, Severity};

const PASS: &str = "dataflow";

/// Runs every per-function dataflow lint over every function.
pub(crate) fn run(module: &Module, report: &mut LintReport) {
    for func in module.functions() {
        if func.block_count() == 0 {
            continue;
        }
        let cfg = Cfg::new(func);
        unreachable_blocks(func, &cfg, report);
        dead_phi_inputs(func, &cfg, report);
        use_before_init(func, &cfg, report);
        dead_stores(func, &cfg, report);
        dead_values(func, &cfg, report);
    }
}

fn diag(
    func: &Function,
    severity: Severity,
    inst: Option<InstId>,
    message: String,
) -> Diagnostic {
    Diagnostic {
        severity,
        pass: PASS,
        func: func.name().to_string(),
        func_id: func.id(),
        inst,
        queue: None,
        message,
    }
}

/// Blocks no path from the entry can reach.
fn unreachable_blocks(func: &Function, cfg: &Cfg, report: &mut LintReport) {
    for block in func.blocks() {
        if !cfg.is_reachable(block.id()) {
            report.diagnostics.push(diag(
                func,
                Severity::Warning,
                block.terminator(),
                format!("block {} ({}) is unreachable", block.id(), block.name()),
            ));
        }
    }
}

/// Phi incoming entries whose predecessor block is unreachable: the value
/// can never flow in, so the entry is dead weight (and often a stale
/// artifact of an earlier transformation).
fn dead_phi_inputs(func: &Function, cfg: &Cfg, report: &mut LintReport) {
    for block in func.blocks() {
        if !cfg.is_reachable(block.id()) {
            continue;
        }
        for &iid in block.insts() {
            let Opcode::Phi { incoming } = func.inst(iid).op() else { continue };
            for (pred, _) in incoming {
                if !cfg.is_reachable(*pred) {
                    report.diagnostics.push(diag(
                        func,
                        Severity::Warning,
                        Some(iid),
                        format!(
                            "phi {iid} has an input from unreachable block {} ({})",
                            pred,
                            func.block(*pred).name()
                        ),
                    ));
                }
            }
        }
    }
}

/// A value used where its definition does not dominate the use — the
/// SSA rule, checked as LLVM's verifier checks it (`mosaic_ir`'s does
/// not). A use is defined iff its definition sits earlier in the same
/// block or in a block that dominates the use's block; a phi operand's
/// definition must dominate the predecessor it arrives from. Only
/// value-producing instructions scheduled in a block define anything, so
/// an operand DCE removed from its block is undefined.
fn use_before_init(func: &Function, cfg: &Cfg, report: &mut LintReport) {
    let dom = cfg.dominators();
    // The (block, position) of each scheduled value-producing instruction.
    let mut def_at = vec![None; func.inst_count()];
    for block in func.blocks() {
        for (pos, &iid) in block.insts().iter().enumerate() {
            if func.inst(iid).produces_value() {
                def_at[iid.index()] = Some((block.id(), pos));
            }
        }
    }
    let def_of = |used: InstId| def_at[used.index()];
    for block in func.blocks() {
        if !cfg.is_reachable(block.id()) {
            continue;
        }
        for (pos, &iid) in block.insts().iter().enumerate() {
            let inst = func.inst(iid);
            if let Opcode::Phi { incoming } = inst.op() {
                // A phi's operands are demanded at the end of each
                // predecessor, not at the top of this block.
                for (pred, val) in incoming {
                    let Operand::Inst(used) = val else { continue };
                    if cfg.is_reachable(*pred)
                        && !def_of(*used).is_some_and(|(b, _)| dom.dominates(b, *pred))
                    {
                        report.diagnostics.push(diag(
                            func,
                            Severity::Error,
                            Some(iid),
                            format!(
                                "phi {iid} reads {used} from predecessor {} ({}) \
                                 where it is not defined",
                                pred,
                                func.block(*pred).name()
                            ),
                        ));
                    }
                }
            } else {
                inst.op().for_each_operand(|op| {
                    let Operand::Inst(used) = op else { return };
                    let defined = def_of(used).is_some_and(|(b, p)| {
                        if b == block.id() {
                            p < pos
                        } else {
                            dom.dominates(b, block.id())
                        }
                    });
                    if !defined {
                        report.diagnostics.push(diag(
                            func,
                            Severity::Error,
                            Some(iid),
                            format!("{iid} uses {used} before it is initialized"),
                        ));
                    }
                });
            }
        }
    }
}

/// A store overwritten by a later store to the syntactically identical
/// address in the same block, with no intervening instruction that could
/// observe memory (load, atomic, call, accelerator, or channel op — a
/// channel op may signal another tile to read the location).
fn dead_stores(func: &Function, cfg: &Cfg, report: &mut LintReport) {
    for block in func.blocks() {
        if !cfg.is_reachable(block.id()) {
            continue;
        }
        let mut pending: Vec<(Operand, InstId)> = Vec::new();
        for &iid in block.insts() {
            match func.inst(iid).op() {
                Opcode::Store { addr, .. } => {
                    if let Some(pos) = pending.iter().position(|(a, _)| a == addr) {
                        let (_, dead) = pending.remove(pos);
                        report.diagnostics.push(diag(
                            func,
                            Severity::Warning,
                            Some(dead),
                            format!(
                                "store {dead} is dead: {iid} overwrites the same \
                                 address with no intervening read"
                            ),
                        ));
                    }
                    pending.push((*addr, iid));
                }
                Opcode::Load { .. }
                | Opcode::AtomicRmw { .. }
                | Opcode::Call { .. }
                | Opcode::AccelCall { .. }
                | Opcode::Send { .. }
                | Opcode::Recv { .. } => pending.clear(),
                _ => {}
            }
        }
    }
}

/// Values no side-effecting instruction transitively depends on: the
/// same demand computation `passes::dce` deletes by, surfaced as a lint.
fn dead_values(func: &Function, cfg: &Cfg, report: &mut LintReport) {
    let demanded = demanded_values(func);
    for block in func.blocks() {
        if !cfg.is_reachable(block.id()) {
            continue;
        }
        for &iid in block.insts() {
            let inst = func.inst(iid);
            if inst.produces_value() && !inst.op().has_side_effect() && !demanded[iid.index()] {
                report.diagnostics.push(diag(
                    func,
                    Severity::Warning,
                    Some(iid),
                    format!(
                        "value {iid} is dead: nothing with a side effect depends on it"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{Constant, FunctionBuilder, Type};

    #[test]
    fn clean_function_has_no_findings() {
        let mut m = Module::new("clean");
        let f = m.add_function("f", vec![(String::from("p"), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(4).into(), |b, iv| {
            let a = b.gep(p, iv, 8);
            let v = b.load(Type::I64, a);
            let w = b.bin(mosaic_ir::BinOp::Add, v, Constant::i64(1).into());
            b.store(a, w);
        });
        b.ret(None);
        let mut report = LintReport::default();
        run(&m, &mut report);
        assert!(report.is_clean(), "findings: {report}");
    }

    /// The messages of `m`'s use-before-init findings (the pass's only
    /// errors).
    fn use_before_init_messages(m: &Module) -> Vec<String> {
        let mut report = LintReport::default();
        run(m, &mut report);
        let errors = report.diagnostics.iter().filter(|d| d.severity == Severity::Error);
        errors.map(|d| d.message.clone()).collect()
    }

    /// `f(ptr %p, i64 %x)` with the given blocks, parsed (and verified:
    /// the verifier does not check dominance).
    fn parse_f(blocks: &str) -> Module {
        let text = format!("module t\nfunc @f(ptr %p, i64 %x) -> void {{\n{blocks}\n}}\n");
        mosaic_ir::parse_module(&text).expect("parses")
    }

    /// `entry: %0 = add %x, 1; br next; next: store %p, %0` with the add
    /// then removed from its block, as DCE removes an instruction.
    fn descheduled_def() -> Module {
        let mut m = Module::new("t");
        let params = vec![("p".into(), Type::Ptr), ("x".into(), Type::I64)];
        let f = m.add_function("f", params, Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (e, next) = (b.create_block("entry"), b.create_block("next"));
        b.switch_to(e);
        let v = b.bin(mosaic_ir::BinOp::Add, b.param(1), Constant::i64(1).into());
        b.br(next);
        b.switch_to(next);
        b.store(b.param(0), v);
        b.ret(None);
        m.function_mut(f).remove_from_block(v.as_inst().unwrap());
        m
    }

    #[test]
    fn use_before_init_is_the_ssa_dominance_rule() {
        // entry branches on %x > 0 to `then`, which defines %3, or to
        // `else`; both fall through to `join`.
        let diamond = "bb0: ; entry
            %2 = icmp sgt $%1, i64 0
            condbr %2, bb1, bb2
            bb1: ; then
            %3 = add i64 $%1, i64 1
            br bb3
            bb2: ; else
            br bb3
            bb3: ; join";
        let cases: [(&str, Module, &[&str]); 8] = [
            (
                "a use of a value defined later in the same block",
                parse_f(
                    "bb0: ; entry
                    %2 = add i64 %3, i64 1
                    %3 = add i64 $%1, i64 1
                    store $%0, %2
                    ret void",
                ),
                &["%2 uses %3 before it is initialized"],
            ),
            (
                "an instruction that uses its own result",
                parse_f(
                    "bb0: ; entry
                    %2 = add i64 %2, i64 1
                    store $%0, %2
                    ret void",
                ),
                &["%2 uses %2 before it is initialized"],
            ),
            (
                "a value defined on one arm of a diamond, used at the join",
                parse_f(&format!("{diamond}\nstore $%0, %3\nret void")),
                &["%5 uses %3 before it is initialized"],
            ),
            (
                "a phi reading a value from a predecessor its definition does not dominate",
                parse_f(&format!(
                    "{diamond}\n%4 = phi i64 [bb1: %3], [bb2: %3]\nstore $%0, %4\nret void"
                )),
                &["phi %4 reads %3 from predecessor bb2 (else) where it is not defined"],
            ),
            (
                "a loop-carried phi reading the latch's value",
                parse_f(
                    "bb0: ; entry
                    br bb1
                    bb1: ; header
                    %2 = phi i64 [bb0: i64 0], [bb2: %4]
                    %3 = icmp slt %2, $%1
                    condbr %3, bb2, bb3
                    bb2: ; latch
                    %4 = add i64 %2, i64 1
                    store $%0, %4
                    br bb1
                    bb3: ; exit
                    ret void",
                ),
                &[],
            ),
            (
                "a use of an instruction DCE removed from its block",
                descheduled_def(),
                &["%2 uses %0 before it is initialized"],
            ),
            (
                "a use of a value defined only in an unreachable block",
                parse_f(
                    "bb0: ; entry
                    br bb2
                    bb1: ; island
                    %2 = load i64, $%0
                    br bb2
                    bb2: ; exit
                    store $%0, %2
                    ret void",
                ),
                &["%3 uses %2 before it is initialized"],
            ),
            (
                "an entry block that is its own loop predecessor",
                parse_f(
                    "bb0: ; entry
                    %2 = phi i64 [bb0: %3]
                    %3 = add i64 %2, i64 1
                    store $%0, %3
                    %4 = icmp slt %3, $%1
                    condbr %4, bb0, bb1
                    bb1: ; exit
                    ret void",
                ),
                &[],
            ),
        ];
        for (case, m, want) in &cases {
            assert_eq!(use_before_init_messages(m), *want, "{case}");
        }
    }

    #[test]
    fn dead_value_and_dead_store_are_flagged() {
        let mut m = Module::new("dead");
        let f = m.add_function("f", vec![(String::from("p"), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        // Dead math: never demanded by a side effect.
        b.bin(
            mosaic_ir::BinOp::Mul,
            Constant::i64(3).into(),
            Constant::i64(4).into(),
        );
        // Dead store: immediately overwritten.
        b.store(p, Constant::i64(1).into());
        b.store(p, Constant::i64(2).into());
        b.ret(None);
        let mut report = LintReport::default();
        run(&m, &mut report);
        let msgs: Vec<&str> = report.diagnostics.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|s| s.contains("is dead: nothing")), "{msgs:?}");
        assert!(msgs.iter().any(|s| s.contains("store") && s.contains("overwrites")), "{msgs:?}");
    }

    #[test]
    fn load_between_stores_keeps_both() {
        let mut m = Module::new("kept");
        let f = m.add_function("f", vec![(String::from("p"), Type::Ptr)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.store(p, Constant::i64(1).into());
        let v = b.load(Type::I64, p);
        b.store(p, Constant::i64(2).into());
        b.ret(Some(v));
        let mut report = LintReport::default();
        run(&m, &mut report);
        assert!(
            !report.diagnostics.iter().any(|d| d.message.contains("overwrites")),
            "findings: {report}"
        );
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let mut m = Module::new("unreach");
        let f = m.add_function("f", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let dead = b.create_block("island");
        b.switch_to(e);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let mut report = LintReport::default();
        run(&m, &mut report);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("is unreachable") && d.message.contains("island")),
            "findings: {report}"
        );
    }
}

//! Structural and type verification of IR functions.
//!
//! The verifier checks the invariants the rest of the toolchain (DDG
//! generation, interpretation, timing simulation) relies on:
//!
//! * every block is non-empty and ends with exactly one terminator;
//! * terminators appear only in terminal position;
//! * branch targets exist;
//! * phis appear only at the top of a block and their incoming edges cover
//!   exactly the CFG predecessors;
//! * operands reference existing instructions/parameters and value-producing
//!   instructions only;
//! * loose type checks (loads from pointers, `i1` branch conditions,
//!   float/int operand agreement for arithmetic).

use std::collections::HashSet;

use crate::function::{Function, IrError, Module};
use crate::ids::InstId;
use crate::inst::{BinOp, Opcode, Operand};
use crate::types::Type;

fn operand_ty(func: &Function, op: Operand) -> Result<Type, IrError> {
    match op {
        Operand::Const(c) => Ok(c.ty()),
        Operand::Param(n) => func
            .params()
            .get(n as usize)
            .map(|(_, t)| *t)
            .ok_or_else(|| IrError::Verify(format!("parameter {n} out of range"))),
        Operand::Inst(id) => {
            if id.index() >= func.inst_count() {
                return Err(IrError::Verify(format!("operand {id} out of range")));
            }
            let inst = func.inst(id);
            if !inst.produces_value() {
                return Err(IrError::Verify(format!(
                    "operand {id} refers to a void instruction"
                )));
            }
            Ok(inst.ty())
        }
    }
}

/// Verifies a single function.
///
/// # Errors
///
/// Returns [`IrError::Verify`] describing the first violated invariant.
pub fn verify_function(func: &Function) -> Result<(), IrError> {
    if func.block_count() == 0 {
        return Err(IrError::Verify(format!(
            "function {} has no blocks",
            func.name()
        )));
    }

    let preds = func.predecessors();

    for block in func.blocks() {
        if block.insts().is_empty() {
            return Err(IrError::Verify(format!(
                "block {} ({}) is empty",
                block.id(),
                block.name()
            )));
        }
        let last = *block.insts().last().expect("non-empty");
        let mut seen_non_phi = false;
        for (pos, &iid) in block.insts().iter().enumerate() {
            let inst = func.inst(iid);
            if inst.block() != block.id() {
                return Err(IrError::Verify(format!(
                    "instruction {iid} recorded in wrong block"
                )));
            }
            let is_last = iid == last && pos == block.insts().len() - 1;
            if inst.op().is_terminator() && !is_last {
                return Err(IrError::Verify(format!(
                    "terminator {iid} is not the last instruction of {}",
                    block.id()
                )));
            }
            if is_last && !inst.op().is_terminator() {
                return Err(IrError::Verify(format!(
                    "block {} does not end with a terminator",
                    block.id()
                )));
            }

            match inst.op() {
                Opcode::Phi { incoming } => {
                    if seen_non_phi {
                        return Err(IrError::Verify(format!(
                            "phi {iid} is not at the top of {}",
                            block.id()
                        )));
                    }
                    if incoming.is_empty() {
                        return Err(IrError::Verify(format!("phi {iid} has no incoming edges")));
                    }
                    let actual: HashSet<_> =
                        preds.get(&block.id()).cloned().unwrap_or_default().into_iter().collect();
                    let declared: HashSet<_> = incoming.iter().map(|(b, _)| *b).collect();
                    if declared.len() != incoming.len() {
                        return Err(IrError::Verify(format!(
                            "phi {iid} has duplicate predecessor entries"
                        )));
                    }
                    if actual != declared {
                        return Err(IrError::Verify(format!(
                            "phi {iid} incoming blocks {declared:?} do not match CFG predecessors {actual:?}"
                        )));
                    }
                    for (_, v) in incoming {
                        operand_ty(func, *v)?;
                    }
                }
                _ => seen_non_phi = true,
            }

            verify_inst_types(func, iid)?;
        }
    }

    // Branch targets exist.
    for inst in func.insts() {
        for succ in inst.op().successors() {
            if succ.index() >= func.block_count() {
                return Err(IrError::Verify(format!(
                    "branch {} targets nonexistent block {succ}",
                    inst.id()
                )));
            }
        }
    }

    Ok(())
}

#[allow(clippy::collapsible_match)] // one arm per opcode keeps the checks scannable
fn verify_inst_types(func: &Function, iid: InstId) -> Result<(), IrError> {
    let inst = func.inst(iid);
    let mut operand_err = None;
    inst.op().for_each_operand(|o| {
        if operand_err.is_none() {
            if let Err(e) = operand_ty(func, o) {
                operand_err = Some(e);
            }
        }
    });
    if let Some(e) = operand_err {
        return Err(e);
    }

    match inst.op() {
        Opcode::Bin { op, lhs, rhs } => {
            let lt = operand_ty(func, *lhs)?;
            let rt = operand_ty(func, *rhs)?;
            if op.is_float() {
                if !lt.is_float() || !rt.is_float() {
                    return Err(IrError::Verify(format!(
                        "{iid}: float op {} on non-float operands ({lt}, {rt})",
                        op.mnemonic()
                    )));
                }
            } else if !(lt.is_int() || lt.is_pointer()) || !(rt.is_int() || rt.is_pointer()) {
                return Err(IrError::Verify(format!(
                    "{iid}: integer op {} on non-integer operands ({lt}, {rt})",
                    op.mnemonic()
                )));
            }
            if *op == BinOp::Shl && !rt.is_int() {
                return Err(IrError::Verify(format!("{iid}: shift amount must be int")));
            }
        }
        Opcode::ICmp { lhs, rhs, .. } => {
            let lt = operand_ty(func, *lhs)?;
            let rt = operand_ty(func, *rhs)?;
            if lt.is_float() || rt.is_float() {
                return Err(IrError::Verify(format!("{iid}: icmp on float operand")));
            }
        }
        Opcode::FCmp { lhs, rhs, .. } => {
            let lt = operand_ty(func, *lhs)?;
            let rt = operand_ty(func, *rhs)?;
            if !lt.is_float() || !rt.is_float() {
                return Err(IrError::Verify(format!("{iid}: fcmp on non-float operand")));
            }
        }
        Opcode::Select { cond, .. } => {
            if operand_ty(func, *cond)? != Type::I1 {
                return Err(IrError::Verify(format!("{iid}: select condition must be i1")));
            }
        }
        Opcode::Gep { base, index, .. } => {
            if !operand_ty(func, *base)?.is_pointer() {
                return Err(IrError::Verify(format!("{iid}: gep base must be ptr")));
            }
            if !operand_ty(func, *index)?.is_int() {
                return Err(IrError::Verify(format!("{iid}: gep index must be int")));
            }
        }
        Opcode::Load { addr } => {
            if !operand_ty(func, *addr)?.is_pointer() {
                return Err(IrError::Verify(format!("{iid}: load address must be ptr")));
            }
            if !inst.ty().is_value() {
                return Err(IrError::Verify(format!("{iid}: load must produce a value")));
            }
        }
        Opcode::Store { addr, .. } => {
            if !operand_ty(func, *addr)?.is_pointer() {
                return Err(IrError::Verify(format!("{iid}: store address must be ptr")));
            }
        }
        Opcode::AtomicRmw { addr, .. } => {
            if !operand_ty(func, *addr)?.is_pointer() {
                return Err(IrError::Verify(format!("{iid}: atomic address must be ptr")));
            }
        }
        Opcode::CondBr { cond, .. } => {
            if operand_ty(func, *cond)? != Type::I1 {
                return Err(IrError::Verify(format!("{iid}: branch condition must be i1")));
            }
        }
        Opcode::Call { intr, args } => {
            if args.len() != intr.arity() {
                return Err(IrError::Verify(format!(
                    "{iid}: intrinsic {} expects {} args, got {}",
                    intr.name(),
                    intr.arity(),
                    args.len()
                )));
            }
        }
        Opcode::AccelCall { accel, args } => {
            if args.len() != accel.arity() {
                return Err(IrError::Verify(format!(
                    "{iid}: {} expects {} args, got {}",
                    accel.name(),
                    accel.arity(),
                    args.len()
                )));
            }
        }
        Opcode::Ret { value } => {
            match (value, func.ret_ty()) {
                (None, Type::Void) => {}
                (Some(_), Type::Void) => {
                    return Err(IrError::Verify(format!(
                        "{iid}: ret with value in void function"
                    )))
                }
                (Some(v), _) => {
                    operand_ty(func, *v)?;
                }
                (None, t) => {
                    return Err(IrError::Verify(format!(
                        "{iid}: ret without value in function returning {t}"
                    )))
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Checks that every `send`/`recv` channel id has a peer endpoint
/// somewhere in the module: a `send` on queue `q` with no `recv` on `q`
/// anywhere (or vice versa) is a guaranteed dynamic stall, so it is
/// rejected statically.
///
/// Queue ids are compared as written in the IR; per-tile `queue_offset`
/// remapping happens at system-configuration level and does not affect
/// this check.
///
/// # Errors
///
/// Returns [`IrError::Verify`] naming the queue, function, and
/// instruction of the first unmatched endpoint.
pub(crate) fn verify_channels(module: &Module) -> Result<(), IrError> {
    match unmatched_channel_endpoint(module) {
        Some(end) => Err(IrError::Verify(format!(
            "in {}: {}",
            end.func.name(),
            end.message(&format!(" {}", end.inst))
        ))),
        None => Ok(()),
    }
}

/// A `send` or `recv` whose queue no endpoint of the other kind uses.
pub(crate) struct UnmatchedEndpoint<'m> {
    pub(crate) func: &'m Function,
    pub(crate) inst: InstId,
    queue: u32,
    send: bool,
}

impl UnmatchedEndpoint<'_> {
    /// `"send{at} on channel q{queue} has no matching recv anywhere in the
    /// module"` (or the other way round for a `recv`).
    pub(crate) fn message(&self, at: &str) -> String {
        let (this, peer) = if self.send { ("send", "recv") } else { ("recv", "send") };
        format!("{this}{at} on channel q{} has no matching {peer} anywhere in the module", self.queue)
    }
}

/// The first unmatched `send` in program order, else the first unmatched
/// `recv`: what [`verify_channels`] reports and the parser points at.
pub(crate) fn unmatched_channel_endpoint(module: &Module) -> Option<UnmatchedEndpoint<'_>> {
    let mut ends = Vec::new();
    for func in module.functions() {
        for block in func.blocks() {
            for &inst in block.insts() {
                let (queue, send) = match func.inst(inst).op() {
                    Opcode::Send { queue, .. } => (*queue, true),
                    Opcode::Recv { queue } => (*queue, false),
                    _ => continue,
                };
                ends.push(UnmatchedEndpoint { func, inst, queue, send });
            }
        }
    }
    let matched = |e: &UnmatchedEndpoint| ends.iter().any(|p| p.send != e.send && p.queue == e.queue);
    let first = |send: bool| ends.iter().position(|e| e.send == send && !matched(e));
    let at = first(true).or_else(|| first(false))?;
    Some(ends.swap_remove(at))
}

/// Verifies every function in a module, then the module-level channel
/// endpoint invariant (`verify_channels`).
///
/// # Errors
///
/// Returns the first error encountered, tagged with the function name.
pub fn verify_module(module: &Module) -> Result<(), IrError> {
    for f in module.functions() {
        verify_function(f).map_err(|e| match e {
            IrError::Verify(m) => IrError::Verify(format!("in {}: {m}", f.name())),
            other => other,
        })?;
    }
    verify_channels(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Constant;

    fn fresh() -> Module {
        Module::new("t")
    }

    #[test]
    fn empty_function_rejected() {
        let mut m = fresh();
        let f = m.add_function("k", vec![], Type::Void);
        assert!(verify_function(m.function(f)).is_err());
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut m = fresh();
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.load(Type::I32, p);
        let err = verify_function(m.function(f)).unwrap_err();
        assert!(err.to_string().contains("terminator"));
    }

    #[test]
    fn phi_predecessor_mismatch_rejected() {
        let mut m = fresh();
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let l = b.create_block("loop");
        b.switch_to(e);
        b.br(l);
        b.switch_to(l);
        // Phi claims only `entry` as predecessor but `loop` also branches here.
        let (_, phi) = b.phi_incomplete(Type::I64);
        b.phi_add_incoming(phi, e, Constant::i64(0).into());
        b.br(l);
        let err = verify_function(m.function(f)).unwrap_err();
        assert!(err.to_string().contains("predecessors"));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut m = fresh();
        let f = m.add_function("k", vec![("x".into(), Type::F64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let x = b.param(0);
        b.bin(BinOp::Add, x, x); // integer add on f64
        b.ret(None);
        let err = verify_function(m.function(f)).unwrap_err();
        assert!(err.to_string().contains("non-integer"));
    }

    #[test]
    fn branch_condition_must_be_i1() {
        let mut m = fresh();
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let t = b.create_block("t");
        b.switch_to(e);
        let x = b.param(0);
        b.cond_br(x, t, t);
        b.switch_to(t);
        b.ret(None);
        assert!(verify_function(m.function(f)).is_err());
    }

    #[test]
    fn unmatched_send_rejected_matched_pair_accepted() {
        let mut m = fresh();
        let f = m.add_function("prod", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.send(3, Constant::i64(1).into());
        b.ret(None);
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("channel q3"), "{err}");
        assert!(err.to_string().contains("no matching recv"), "{err}");

        // Adding the peer endpoint makes the module verify.
        let g = m.add_function("cons", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(g));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.recv(3, Type::I64);
        b.ret(None);
        verify_module(&m).unwrap();
    }

    #[test]
    fn unmatched_recv_rejected() {
        let mut m = fresh();
        let f = m.add_function("cons", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.recv(7, Type::I64);
        b.ret(None);
        let err = verify_channels(&m).unwrap_err();
        assert!(err.to_string().contains("no matching send"), "{err}");
    }

    #[test]
    fn valid_diamond_cfg_accepted() {
        let mut m = fresh();
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let t = b.create_block("then");
        let el = b.create_block("else");
        let j = b.create_block("join");
        b.switch_to(e);
        let x = b.param(0);
        let c = b.icmp(crate::inst::IntPredicate::Sgt, x, Constant::i64(0).into());
        b.cond_br(c, t, el);
        b.switch_to(t);
        let a = b.bin(BinOp::Add, x, Constant::i64(1).into());
        b.br(j);
        b.switch_to(el);
        let s = b.bin(BinOp::Sub, x, Constant::i64(1).into());
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64, vec![(t, a), (el, s)]);
        b.ret(Some(p));
        verify_module(&m).unwrap();
    }
}

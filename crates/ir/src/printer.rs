//! Textual form of the IR (LLVM-flavoured).
//!
//! `print_function` / [`print_module`] produce a stable textual format
//! that [`crate::parser::parse_module`] can read back; the round trip is
//! exercised by property tests.

use std::fmt::Write as _;

use crate::function::{Function, Module};
use crate::ids::InstId;
use crate::inst::{Opcode, Operand};
use crate::types::Constant;

fn fmt_operand(op: Operand, num: &dyn Fn(InstId) -> u32) -> String {
    match op {
        Operand::Inst(id) => format!("%{}", num(id)),
        Operand::Param(n) => format!("$%{n}"),
        Operand::Const(Constant::Int(v, t)) => format!("{t} {v}"),
        Operand::Const(Constant::Float(v, t)) => {
            // `{:?}` keeps a decimal point / exponent so the parser can
            // distinguish float constants from ints.
            format!("{t} {v:?}")
        }
    }
}

/// Renders one instruction (without trailing newline), `%N` its arena id.
pub fn print_inst(func: &Function, id: InstId) -> String {
    render_inst(func, id, &|i| i.0)
}

/// Renders one instruction with every instruction `i` it names as `%num(i)`.
fn render_inst(func: &Function, id: InstId, num: &dyn Fn(InstId) -> u32) -> String {
    let o = |op: &Operand| fmt_operand(*op, num);
    let list = |ops: &[Operand]| ops.iter().map(o).collect::<Vec<_>>().join(", ");
    let inst = func.inst(id);
    let ty = inst.ty();
    let body = match inst.op() {
        Opcode::Bin { op, lhs, rhs } => format!("{} {ty} {}, {}", op.mnemonic(), o(lhs), o(rhs)),
        Opcode::ICmp { pred, lhs, rhs } => {
            format!("icmp {} {}, {}", pred.mnemonic(), o(lhs), o(rhs))
        }
        Opcode::FCmp { pred, lhs, rhs } => {
            format!("fcmp {} {}, {}", pred.mnemonic(), o(lhs), o(rhs))
        }
        Opcode::Select {
            cond,
            on_true,
            on_false,
        } => format!("select {ty} {}, {}, {}", o(cond), o(on_true), o(on_false)),
        Opcode::Cast { kind, value } => format!("{} {} to {ty}", kind.mnemonic(), o(value)),
        Opcode::Gep {
            base,
            index,
            elem_size,
        } => format!("gep {}, {}, {elem_size}", o(base), o(index)),
        Opcode::Load { addr } => format!("load {ty}, {}", o(addr)),
        Opcode::Store { addr, value } => format!("store {}, {}", o(addr), o(value)),
        Opcode::AtomicRmw {
            op,
            addr,
            value,
            expected,
        } => {
            let expected = expected
                .iter()
                .map(|e| format!(", {}", o(e)))
                .collect::<String>();
            format!("{} {ty} {}, {}{expected}", op.mnemonic(), o(addr), o(value))
        }
        Opcode::Phi { incoming } => {
            let edges: Vec<String> = incoming
                .iter()
                .map(|(b, v)| format!("[bb{}: {}]", b.0, o(v)))
                .collect();
            format!("phi {ty} {}", edges.join(", "))
        }
        Opcode::Call { intr, args } => format!("call {ty} {}({})", intr.name(), list(args)),
        Opcode::Send { queue, value } => format!("send q{queue}, {}", o(value)),
        Opcode::Recv { queue } => format!("recv {ty} q{queue}"),
        Opcode::AccelCall { accel, args } => format!("call void {}({})", accel.name(), list(args)),
        Opcode::Br { target } => format!("br bb{}", target.0),
        Opcode::CondBr {
            cond,
            on_true,
            on_false,
        } => format!("condbr {}, bb{}, bb{}", o(cond), on_true.0, on_false.0),
        Opcode::Ret { value: Some(v) } => format!("ret {}", o(v)),
        Opcode::Ret { value: None } => "ret void".to_string(),
    };
    match inst.produces_value() {
        true => format!("%{} = {body}", num(id)),
        false => body,
    }
}

/// Renders a function in the textual format. Instructions are numbered
/// densely in arena order, skipping any no block holds (what a pass that
/// drops instructions, such as `slice_dae`, leaves in the arena), so the
/// parser reads back every id it is given; a function with no such gaps
/// prints its arena ids.
pub(crate) fn print_function(func: &Function) -> String {
    let mut held = vec![false; func.inst_count()];
    for block in func.blocks() {
        block.insts().iter().for_each(|i| held[i.index()] = true);
    }
    // An instruction's number: how many held instructions precede it.
    let mut dense = vec![0u32; held.len()];
    for i in 1..held.len() {
        dense[i] = dense[i - 1] + u32::from(held[i - 1]);
    }
    let mut s = String::new();
    let _ = write!(s, "func @{}(", func.name());
    for (i, (name, ty)) in func.params().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{ty} %{name}");
    }
    let _ = writeln!(s, ") -> {} {{", func.ret_ty());
    for block in func.blocks() {
        let _ = writeln!(s, "bb{}: ; {}", block.id().0, block.name());
        for &iid in block.insts() {
            let _ = writeln!(s, "  {}", render_inst(func, iid, &|i| dense[i.index()]));
        }
    }
    s.push_str("}\n");
    s
}

/// Renders an entire module.
pub fn print_module(module: &Module) -> String {
    let mut s = format!("module {}\n\n", module.name());
    for f in module.functions() {
        s.push_str(&print_function(f));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IntPredicate};
    use crate::types::{Constant, Type};

    #[test]
    fn printed_function_contains_all_blocks() {
        let mut m = Module::new("t");
        let f = m.add_function("vadd", vec![("a".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.emit_counted_loop(
            "l",
            Constant::i64(0).into(),
            Constant::i64(4).into(),
            |b, i| {
                let addr = b.gep(p, i, 4);
                let v = b.load(Type::I32, addr);
                let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
                b.store(addr, v2);
            },
        );
        b.ret(None);
        let text = print_function(m.function(f));
        assert!(text.contains("func @vadd"));
        assert!(text.contains("phi i64"));
        assert!(text.contains("gep"));
        assert!(text.contains("load i32"));
        assert!(text.contains("condbr"));
        assert!(text.matches("bb").count() > 4);
        let _ = IntPredicate::Slt;
    }
}

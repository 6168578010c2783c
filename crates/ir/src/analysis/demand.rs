//! Demanded SSA values: the mark phase shared by dead-code elimination
//! and the dead-value lint, so the two always agree.

use crate::function::Function;

/// Computes the set of *demanded* SSA values, indexed by instruction id:
/// everything transitively reachable, through operand edges, from an
/// instruction with a side effect (stores, atomics, sends/recvs,
/// accelerator calls, and terminators).
///
/// An instruction outside this set can be deleted without changing any
/// observable behavior; `passes::dce` removes exactly the non-demanded
/// value-producing instructions, and the dead-value lint reports them.
pub fn demanded_values(func: &Function) -> Vec<bool> {
    let mut demanded = vec![false; func.inst_count()];
    let mut work = Vec::new();
    for block in func.blocks() {
        for &id in block.insts() {
            if func.inst(id).op().has_side_effect() && !demanded[id.index()] {
                demanded[id.index()] = true;
                work.push(id);
            }
        }
    }
    while let Some(id) = work.pop() {
        func.inst(id).op().for_each_operand(|o| {
            if let Some(d) = o.as_inst() {
                if !std::mem::replace(&mut demanded[d.index()], true) {
                    work.push(d);
                }
            }
        });
    }
    demanded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;
    use crate::inst::BinOp;
    use crate::types::{Constant, Type};

    #[test]
    fn demand_reaches_through_stores_but_not_dead_math() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let idx = b.bin(BinOp::Add, Constant::i64(1).into(), Constant::i64(2).into());
        let addr = b.gep(b.param(0), idx, 8);
        b.store(addr, Constant::i64(7).into());
        let dead = b.bin(BinOp::Mul, idx, Constant::i64(3).into());
        b.ret(None);
        let func = m.function(f);
        let demanded = demanded_values(func);
        assert!(demanded[idx.as_inst().unwrap().index()]);
        assert!(demanded[addr.as_inst().unwrap().index()]);
        assert!(!demanded[dead.as_inst().unwrap().index()]);
    }
}

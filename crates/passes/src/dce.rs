//! Dead-code elimination over the MosaicSim IR.
//!
//! Used after DAE slicing (paper §VII-A): the execute slice's address
//! computations and the access slice's value computations become dead and
//! are removed, leaving each slice with only the work the corresponding
//! core actually performs.

use mosaic_ir::analysis::demanded_values;
use mosaic_ir::{FuncId, InstId, Module};

/// Removes instructions whose results are unused and that have no side
/// effects. Returns the number of instructions removed.
///
/// Liveness roots: stores, atomics, `send`/`recv` (queue effects must be
/// preserved so paired slices stay in lock-step), accelerator calls, and
/// terminators. Everything reachable through operands from a root is live.
/// The demand computation is shared with the linter's dead-value check
/// ([`mosaic_ir::analysis::demanded_values`]), so what `mosaic-lint`
/// reports as dead is exactly what this pass deletes — and side-effecting
/// instructions, being roots, can never be deleted.
pub(crate) fn eliminate_dead_code(module: &mut Module, func: FuncId) -> usize {
    let f = module.function(func);
    let live = demanded_values(f);
    let dead: Vec<InstId> = f
        .blocks()
        .flat_map(|b| b.insts().iter().copied())
        .filter(|iid| !live[iid.index()])
        .collect();
    let removed = dead.len();
    let f = module.function_mut(func);
    for iid in dead {
        f.remove_from_block(iid);
    }
    removed
}

/// Counts the executable (in-block) instructions of a function.
#[cfg(test)]
pub(crate) fn live_inst_count(module: &Module, func: FuncId) -> usize {
    module
        .function(func)
        .blocks()
        .map(|b| b.insts().len())
        .sum()
}

/// Convenience: whether the instruction is still scheduled in a block.
#[cfg(test)]
fn is_scheduled(module: &Module, func: FuncId, inst: InstId) -> bool {
    module
        .function(func)
        .blocks()
        .any(|b| b.insts().contains(&inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{verify_module, BinOp, Constant, FunctionBuilder, Type};

    #[test]
    fn removes_unused_arithmetic_keeps_stores() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        let dead = b.bin(BinOp::Add, Constant::i64(1).into(), Constant::i64(2).into());
        let live = b.bin(BinOp::Add, Constant::i64(3).into(), Constant::i64(4).into());
        let addr = b.gep(p, live, 8);
        b.store(addr, live);
        b.ret(None);
        let removed = eliminate_dead_code(&mut m, f);
        assert_eq!(removed, 1);
        assert!(!is_scheduled(&m, f, dead.as_inst().unwrap()));
        assert!(is_scheduled(&m, f, live.as_inst().unwrap()));
        verify_module(&m).unwrap();
    }

    #[test]
    fn transitively_dead_chains_removed() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let x = b.param(0);
        let a = b.bin(BinOp::Add, x, Constant::i64(1).into());
        let c = b.bin(BinOp::Mul, a, a);
        let d = b.bin(BinOp::Sub, c, x);
        let _ = d;
        b.ret(None);
        let removed = eliminate_dead_code(&mut m, f);
        assert_eq!(removed, 3);
        assert_eq!(live_inst_count(&m, f), 1); // just ret
        verify_module(&m).unwrap();
    }

    #[test]
    fn queue_ops_are_roots() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.recv(0, Type::I64);
        // v's value is unused, but recv must stay (it drains the queue).
        let _ = v;
        b.send(1, Constant::i64(5).into());
        b.ret(None);
        let removed = eliminate_dead_code(&mut m, f);
        assert_eq!(removed, 0);
        assert_eq!(live_inst_count(&m, f), 3);
    }

    /// SplitMix64 — deterministic, dependency-free test randomness.
    struct TestRng(u64);

    impl TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    /// Property: DCE never deletes an instruction with a side effect
    /// (store, atomic, send, recv, accelerator call, terminator), on
    /// randomly generated straight-line functions mixing dead and live
    /// arithmetic with memory and channel traffic.
    #[test]
    fn dce_never_deletes_side_effects() {
        for seed in 0..64u64 {
            let mut rng = TestRng(seed);
            let mut m = Module::new("prop");
            let f = m.add_function(
                "k",
                vec![("p".into(), Type::Ptr), ("x".into(), Type::I64)],
                Type::Void,
            );
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let e = b.create_block("entry");
            b.switch_to(e);
            let ptr = b.param(0);
            let mut vals: Vec<mosaic_ir::Operand> =
                vec![b.param(1), Constant::i64(3).into(), Constant::i64(7).into()];
            let (mut sends, mut recvs) = (0u32, 0u32);
            for _ in 0..24 {
                let pick = |rng: &mut TestRng, vals: &[mosaic_ir::Operand]| {
                    vals[rng.below(vals.len() as u64) as usize]
                };
                match rng.below(6) {
                    0 => {
                        let (a, c) = (pick(&mut rng, &vals), pick(&mut rng, &vals));
                        vals.push(b.bin(BinOp::Add, a, c));
                    }
                    1 => {
                        let (a, c) = (pick(&mut rng, &vals), pick(&mut rng, &vals));
                        vals.push(b.bin(BinOp::Mul, a, c));
                    }
                    2 => {
                        let i = pick(&mut rng, &vals);
                        let addr = b.gep(ptr, i, 8);
                        vals.push(b.load(Type::I64, addr));
                    }
                    3 => {
                        let (i, v) = (pick(&mut rng, &vals), pick(&mut rng, &vals));
                        let addr = b.gep(ptr, i, 8);
                        b.store(addr, v);
                    }
                    4 => {
                        let v = pick(&mut rng, &vals);
                        b.send(0, v);
                        sends += 1;
                    }
                    _ => {
                        vals.push(b.recv(0, Type::I64));
                        recvs += 1;
                    }
                }
            }
            // Keep the module channel-matched so the verifier accepts it.
            if sends > 0 && recvs == 0 {
                b.recv(0, Type::I64);
            }
            if recvs > 0 && sends == 0 {
                b.send(0, Constant::i64(0).into());
            }
            b.ret(None);
            verify_module(&m).unwrap();

            let func = m.function(f);
            let effectful: Vec<InstId> = func
                .blocks()
                .flat_map(|blk| blk.insts().iter().copied())
                .filter(|&iid| func.inst(iid).op().has_side_effect())
                .collect();
            assert!(!effectful.is_empty());

            eliminate_dead_code(&mut m, f);
            for iid in effectful {
                assert!(
                    is_scheduled(&m, f, iid),
                    "seed {seed}: DCE deleted side-effecting {iid}"
                );
            }
            verify_module(&m).unwrap();
        }
    }

    #[test]
    fn live_value_feeding_branch_kept() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let t = b.create_block("t");
        b.switch_to(e);
        let x = b.param(0);
        let c = b.icmp(mosaic_ir::IntPredicate::Sgt, x, Constant::i64(0).into());
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(None);
        assert_eq!(eliminate_dead_code(&mut m, f), 0);
        assert!(is_scheduled(&m, f, c.as_inst().unwrap()));
    }
}

//! Decoupled Access/Execute slicing — the DeSC compiler pass
//! (paper §VII-A).
//!
//! "DAE program slicing can be implemented in the LLVM toolchain as a
//! compiler pass. The pass first creates two copies of the kernel, one for
//! access and one for execute. On the access slice, each memory
//! instruction is augmented with a special function to either (1) push to
//! the buffer for loads or, (2) replace a store value with a value from
//! the buffer for stores. The execute slice is transformed similarly."
//!
//! Concretely:
//!
//! * **access slice** — every `load` is kept and followed by
//!   `send(load_queue, value)`; every `store` keeps its address but takes
//!   its value from `recv(store_queue)`;
//! * **execute slice** — every `load` becomes `recv(load_queue)`; every
//!   `store` becomes `send(store_queue, value)` (the address computation
//!   dies);
//! * dead-code elimination then strips each slice down to its own work.
//!
//! Both slices traverse the same control-flow path, so queue operations
//! pair 1:1 in FIFO order — exactly DeSC's load-value queue (the access
//! core acting as a non-speculative "perfect prefetcher") and store-value
//! queue. No additional synchronization is required.

use std::fmt;

use mosaic_ir::{FuncId, Module, Opcode, Type};

use crate::dce::eliminate_dead_code;

/// Queue ids used by a DAE pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaeQueues {
    /// Access → execute: loaded values.
    pub load_queue: u32,
    /// Execute → access: store values.
    pub store_queue: u32,
}

impl Default for DaeQueues {
    fn default() -> Self {
        DaeQueues {
            load_queue: 0,
            store_queue: 1,
        }
    }
}

/// The two slices produced by [`slice_dae`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaeSlices {
    /// The access slice (runs on the access core).
    pub access: FuncId,
    /// The execute slice (runs on the execute core).
    pub execute: FuncId,
}

/// Errors from DAE slicing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaeError {
    /// The kernel contains an instruction DAE slicing cannot split
    /// (atomics and accelerator calls have no DeSC decomposition here).
    Unsupported(String),
}

impl fmt::Display for DaeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaeError::Unsupported(m) => write!(f, "kernel not DAE-sliceable: {m}"),
        }
    }
}

impl std::error::Error for DaeError {}

/// Slices `func` into access and execute kernels appended to `module`.
///
/// # Errors
///
/// Returns [`DaeError::Unsupported`] if the kernel contains atomic
/// read-modify-writes, accelerator calls, or pre-existing queue
/// operations.
///
/// # Examples
///
/// ```
/// use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp};
/// use mosaic_passes::{slice_dae, DaeQueues};
///
/// let mut m = Module::new("demo");
/// let f = m.add_function("k", vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)], Type::Void);
/// let mut b = FunctionBuilder::new(m.function_mut(f));
/// let (p, n) = (b.param(0), b.param(1));
/// let e = b.create_block("entry");
/// b.switch_to(e);
/// b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
///     let a = b.gep(p, i, 4);
///     let v = b.load(Type::F32, a);
///     let v2 = b.bin(BinOp::FMul, v, Constant::f32(2.0).into());
///     b.store(a, v2);
/// });
/// b.ret(None);
///
/// let slices = slice_dae(&mut m, f, DaeQueues::default())?;
/// assert!(m.function(slices.access).name().ends_with(".access"));
/// assert!(m.function(slices.execute).name().ends_with(".execute"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn slice_dae(module: &mut Module, func: FuncId, queues: DaeQueues) -> Result<DaeSlices, DaeError> {
    // Validate sliceability.
    {
        let f = module.function(func);
        for inst in f.insts() {
            match inst.op() {
                Opcode::AtomicRmw { .. } => {
                    return Err(DaeError::Unsupported(format!(
                        "atomic at {} cannot be decoupled",
                        inst.id()
                    )))
                }
                Opcode::AccelCall { .. } => {
                    return Err(DaeError::Unsupported(format!(
                        "accelerator call at {} cannot be decoupled",
                        inst.id()
                    )))
                }
                Opcode::Send { .. } | Opcode::Recv { .. } => {
                    return Err(DaeError::Unsupported(format!(
                        "existing queue op at {} conflicts with DAE queues",
                        inst.id()
                    )))
                }
                _ => {}
            }
        }
    }

    let base_name = module.function(func).name().to_string();

    // Loads whose values the execute slice actually needs. A value is
    // *address-only* when every transitive use is address computation
    // (gep / memory-address operands); such loads stay private to the
    // access core — DeSC only communicates the data the compute slice
    // consumes, not pointer-chasing intermediates.
    let sent_loads = execute_needed_loads(module.function(func));

    // ---- Access slice ----
    let access = {
        let mut f = module.function(func).clone();
        f.set_name(&format!("{base_name}.access"));
        let loads: Vec<_> = f
            .insts()
            .filter(|i| matches!(i.op(), Opcode::Load { .. }))
            .map(|i| i.id())
            .filter(|id| sent_loads.contains(id))
            .collect();
        for l in loads {
            f.insert_inst_after(
                l,
                Opcode::Send {
                    queue: queues.load_queue,
                    value: mosaic_ir::Operand::Inst(l),
                },
                Type::Void,
            );
        }
        let stores: Vec<_> = f
            .insts()
            .filter(|i| matches!(i.op(), Opcode::Store { .. }))
            .map(|i| i.id())
            .collect();
        for s in stores {
            let (addr, value_ty) = match f.inst(s).op() {
                Opcode::Store { addr, value } => {
                    let vt = match value {
                        mosaic_ir::Operand::Inst(d) => f.inst(*d).ty(),
                        mosaic_ir::Operand::Const(c) => c.ty(),
                        mosaic_ir::Operand::Param(n) => f.params()[*n as usize].1,
                    };
                    (*addr, vt)
                }
                _ => unreachable!(),
            };
            let recv = f.insert_inst_before(
                s,
                Opcode::Recv {
                    queue: queues.store_queue,
                },
                value_ty,
            );
            f.replace_op(
                s,
                Opcode::Store {
                    addr,
                    value: mosaic_ir::Operand::Inst(recv),
                },
                Type::Void,
            );
        }
        module.add_built_function(f)
    };

    // ---- Execute slice ----
    let execute = {
        let mut f = module.function(func).clone();
        f.set_name(&format!("{base_name}.execute"));
        let loads: Vec<_> = f
            .insts()
            .filter(|i| matches!(i.op(), Opcode::Load { .. }))
            .map(|i| i.id())
            .filter(|id| sent_loads.contains(id))
            .collect();
        for l in loads {
            let ty = f.inst(l).ty();
            f.replace_op(
                l,
                Opcode::Recv {
                    queue: queues.load_queue,
                },
                ty,
            );
        }
        let stores: Vec<_> = f
            .insts()
            .filter(|i| matches!(i.op(), Opcode::Store { .. }))
            .map(|i| i.id())
            .collect();
        for s in stores {
            let value = match f.inst(s).op() {
                Opcode::Store { value, .. } => *value,
                _ => unreachable!(),
            };
            f.replace_op(
                s,
                Opcode::Send {
                    queue: queues.store_queue,
                    value,
                },
                Type::Void,
            );
        }
        module.add_built_function(f)
    };

    eliminate_dead_code(module, access);
    eliminate_dead_code(module, execute);
    mosaic_ir::verify_module(module).expect("DAE slicing preserves IR invariants");
    Ok(DaeSlices { access, execute })
}

/// Computes the loads whose values must be communicated to the execute
/// slice: those with at least one *non-address-only* use. An instruction
/// is address-only when every transitive use is a `gep` or the address
/// operand of a memory operation; address-only dataflow stays on the
/// access core.
fn execute_needed_loads(func: &mosaic_ir::Function) -> std::collections::HashSet<mosaic_ir::InstId> {
    use mosaic_ir::{InstId, Operand};
    use std::collections::HashSet;

    // users[d.index()] = list of (user, used_as_pure_address) entries,
    // over scheduled instructions only (arena orphans must not count).
    let scheduled: Vec<InstId> = func
        .blocks()
        .flat_map(|b| b.insts().iter().copied())
        .collect();
    let n = func.inst_count();
    let mut users: Vec<Vec<(InstId, bool)>> = vec![Vec::new(); n];
    for &iid in &scheduled {
        let inst = func.inst(iid);
        let addr_operand: Option<Operand> = match inst.op() {
            Opcode::Load { addr } => Some(*addr),
            Opcode::Store { addr, .. } => Some(*addr),
            Opcode::AtomicRmw { addr, .. } => Some(*addr),
            _ => None,
        };
        inst.op().for_each_operand(|o| {
            if let Operand::Inst(d) = o {
                let as_addr = addr_operand == Some(o);
                users[d.index()].push((inst.id(), as_addr));
            }
        });
    }

    // Fixed point: address_only[i] = all uses are (a) pure address
    // operands, or (b) geps that are themselves address-only.
    let mut address_only = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for &iid in &scheduled {
            let id = iid;
            if address_only[id.index()] {
                continue;
            }
            let us = &users[id.index()];
            if us.is_empty() {
                continue;
            }
            // Pure-dataflow ops (address arithmetic: geps, casts, integer
            // arithmetic, selects) propagate address-onlyness backwards.
            let is_passthrough = |user: InstId| {
                matches!(
                    func.inst(user).op(),
                    Opcode::Gep { .. }
                        | Opcode::Cast { .. }
                        | Opcode::Bin { .. }
                        | Opcode::Select { .. }
                )
            };
            let all_addr = us.iter().all(|&(user, as_addr)| {
                as_addr || (is_passthrough(user) && address_only[user.index()])
            });
            if all_addr {
                address_only[id.index()] = true;
                changed = true;
            }
        }
    }

    let mut sent = HashSet::new();
    for &iid in &scheduled {
        if matches!(func.inst(iid).op(), Opcode::Load { .. }) {
            let has_uses = !users[iid.index()].is_empty();
            if has_uses && !address_only[iid.index()] {
                sent.insert(iid);
            }
        }
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::live_inst_count;
    use mosaic_ir::{
        run_tiles, BinOp, Constant, FunctionBuilder, MemImage, RtVal, TileProgram,
    };

    /// y[i] = 2*x[i] + 1 over n elements.
    fn saxpy_like() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![
                ("x".into(), Type::Ptr),
                ("y".into(), Type::Ptr),
                ("n".into(), Type::I64),
            ],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (x, y, n) = (b.param(0), b.param(1), b.param(2));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
            let xa = b.gep(x, i, 8);
            let v = b.load(Type::I64, xa);
            let v2 = b.bin(BinOp::Mul, v, Constant::i64(2).into());
            let v3 = b.bin(BinOp::Add, v2, Constant::i64(1).into());
            let ya = b.gep(y, i, 8);
            b.store(ya, v3);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        (m, f)
    }

    #[test]
    fn slices_preserve_functional_semantics() {
        let (mut m, f) = saxpy_like();
        let slices = slice_dae(&mut m, f, DaeQueues::default()).unwrap();

        let n = 16i64;
        let mut mem = MemImage::new();
        let x = mem.alloc_i64(n as u64);
        let y = mem.alloc_i64(n as u64);
        mem.fill_i64(x, &(0..n).collect::<Vec<_>>());
        let args = vec![RtVal::Int(x as i64), RtVal::Int(y as i64), RtVal::Int(n)];
        let progs = vec![
            TileProgram::single(slices.access, args.clone()),
            TileProgram::single(slices.execute, args),
        ];
        let out = run_tiles(&m, mem, &progs, &mut mosaic_ir::interp::NullSink).unwrap();
        let result = out.mem.read_i64_slice(y, n as usize);
        let expected: Vec<i64> = (0..n).map(|i| 2 * i + 1).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn execute_slice_loses_address_computation() {
        let (mut m, f) = saxpy_like();
        let original = live_inst_count(&m, f);
        let slices = slice_dae(&mut m, f, DaeQueues::default()).unwrap();
        let exec = live_inst_count(&m, slices.execute);
        // The execute slice drops both geps; it gains a recv and keeps a
        // send, so it must be strictly smaller than the original.
        assert!(
            exec < original,
            "execute ({exec}) should be leaner than original ({original})"
        );
        // No loads or stores remain in the execute slice.
        let fe = m.function(slices.execute);
        for block in fe.blocks() {
            for &iid in block.insts() {
                assert!(
                    !fe.inst(iid).op().is_mem(),
                    "execute slice must not access memory"
                );
            }
        }
    }

    #[test]
    fn access_slice_keeps_all_memory_ops() {
        let (mut m, f) = saxpy_like();
        let count_mem = |m: &Module, f: FuncId| {
            let func = m.function(f);
            func.blocks()
                .flat_map(|b| b.insts().iter())
                .filter(|&&i| func.inst(i).op().is_mem())
                .count()
        };
        let before = count_mem(&m, f);
        let slices = slice_dae(&mut m, f, DaeQueues::default()).unwrap();
        assert_eq!(count_mem(&m, slices.access), before);
        // The access slice must not compute the stored value (2x+1): its
        // multiplies/adds beyond induction arithmetic are gone. It still
        // has the loop increment add.
        let fa = m.function(slices.access);
        let muls = fa
            .blocks()
            .flat_map(|b| b.insts().iter())
            .filter(|&&i| {
                matches!(
                    fa.inst(i).op(),
                    Opcode::Bin {
                        op: BinOp::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(muls, 0, "value computation belongs to the execute slice");
    }

    #[test]
    fn atomics_are_rejected() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.atomic_rmw(mosaic_ir::AtomicOp::Add, p, Constant::i32(1).into());
        b.ret(None);
        assert!(matches!(
            slice_dae(&mut m, f, DaeQueues::default()),
            Err(DaeError::Unsupported(_))
        ));
    }

    #[test]
    fn load_dependent_control_flow_is_supported() {
        // while-style loop whose bound comes from memory: the condition in
        // the execute slice feeds from the recv'd value.
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("deg".into(), Type::Ptr), ("out".into(), Type::Ptr)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (deg, out) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        let d = b.load(Type::I64, deg); // loop bound loaded from memory
        b.emit_counted_loop("i", Constant::i64(0).into(), d, |b, i| {
            let oa = b.gep(out, i, 8);
            b.store(oa, i);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let slices = slice_dae(&mut m, f, DaeQueues::default()).unwrap();

        let mut mem = MemImage::new();
        let degp = mem.alloc_i64(1);
        let outp = mem.alloc_i64(8);
        mem.write_i64(degp, 5);
        let args = vec![RtVal::Int(degp as i64), RtVal::Int(outp as i64)];
        let progs = vec![
            TileProgram::single(slices.access, args.clone()),
            TileProgram::single(slices.execute, args),
        ];
        let outm = run_tiles(&m, mem, &progs, &mut mosaic_ir::interp::NullSink).unwrap();
        assert_eq!(outm.mem.read_i64_slice(outp, 5), vec![0, 1, 2, 3, 4]);
    }
}

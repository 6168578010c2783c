//! # mosaic-ddg
//!
//! The **Static Data Dependency Graph (DDG) Generator** (paper §II-A).
//!
//! MosaicSim's tile models are "abstract models based on data dependence
//! graphs derived from LLVM IR": a node per static instruction, edges for
//! data and control flow within and across basic blocks. This crate turns a
//! verified [`mosaic_ir::Function`] into a [`StaticDdg`], laid out the way a
//! tile replays it: each block's [`PlanInst`]s as one contiguous slice in
//! program order, each carrying its resource class ([`InstClass`]), its
//! memory kind and queue, and its SSA parents pre-resolved to [`PlanEdge`]s
//! — a def earlier in the block, the latest instance of a def elsewhere, or
//! a phi's def per CFG predecessor. A [`BlockView`] also gives the
//! memory-operation order (consumed by the Memory Address Orderer) and the
//! terminator, whose completion gates the launch of the next Dynamic Basic
//! Block (paper §II-A, Fig. 3).
//!
//! The timing simulator (`mosaic-tile`) instantiates one *Dynamic Basic
//! Block* (DBB) per control-flow-trace entry from these static templates.
//!
//! # Examples
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp};
//! use mosaic_ddg::{StaticDdg, InstClass};
//!
//! let mut m = Module::new("demo");
//! let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(f));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! let p = b.param(0);
//! let v = b.load(Type::F32, p);
//! let v2 = b.bin(BinOp::FMul, v, Constant::f32(2.0).into());
//! b.store(p, v2);
//! b.ret(None);
//!
//! let ddg = StaticDdg::build(m.function(f));
//! let entry = ddg.block(mosaic_ir::BlockId(0));
//! assert_eq!(entry.mem_order().count(), 2);
//! let fmul = ddg.inst(entry.range.start + 1);
//! assert_eq!((fmul.inst, fmul.class), (v2.as_inst().unwrap(), InstClass::FpMul));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::ops::Range;

use mosaic_ir::{AtomicOp, BinOp, BlockId, Function, Inst, InstId, Intrinsic, Opcode, Operand};

/// Resource/latency class of an instruction, used to pick functional
/// units, latencies, and energy costs (paper §III-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer ALU op (add/sub/logic/shift/compare/select/cast/gep).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// Floating add/sub/compare.
    FpAdd,
    /// Floating multiply.
    FpMul,
    /// Floating divide.
    FpDiv,
    /// Long-latency floating special function (sqrt, exp, trig, ...).
    FpSpecial,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// Branch / return (terminator).
    Branch,
    /// SSA phi (zero-cost bookkeeping node).
    Phi,
    /// Inter-tile queue enqueue (paper §II-C).
    Send,
    /// Inter-tile queue dequeue (blocking).
    Recv,
    /// Accelerator invocation (paper §IV-A).
    Accel,
}

impl InstClass {
    /// Number of classes; [`code`](Self::code) is always below it, so
    /// per-class tables are `[T; InstClass::COUNT]`.
    pub const COUNT: usize = InstClass::Accel as usize + 1;

    /// The class's dense index (declaration order): the key of per-class
    /// tables, also in checkpoints.
    pub fn code(self) -> usize {
        self as usize
    }

    /// Classifies an instruction.
    pub(crate) fn of(inst: &Inst) -> InstClass {
        match inst.op() {
            Opcode::Bin { op, .. } => match op {
                BinOp::Mul => InstClass::IntMul,
                BinOp::SDiv | BinOp::SRem | BinOp::UDiv | BinOp::URem => InstClass::IntDiv,
                BinOp::FAdd | BinOp::FSub => InstClass::FpAdd,
                BinOp::FMul => InstClass::FpMul,
                BinOp::FDiv => InstClass::FpDiv,
                _ => InstClass::IntAlu,
            },
            Opcode::ICmp { .. }
            | Opcode::Select { .. }
            | Opcode::Cast { .. }
            | Opcode::Gep { .. } => InstClass::IntAlu,
            Opcode::FCmp { .. } => InstClass::FpAdd,
            Opcode::Load { .. } => InstClass::Load,
            Opcode::Store { .. } => InstClass::Store,
            Opcode::AtomicRmw { .. } => InstClass::Atomic,
            Opcode::Phi { .. } => InstClass::Phi,
            Opcode::Call { intr, .. } => match intr {
                Intrinsic::TileId | Intrinsic::NumTiles => InstClass::IntAlu,
                Intrinsic::SMin | Intrinsic::SMax => InstClass::IntAlu,
                Intrinsic::FMin | Intrinsic::FMax | Intrinsic::FAbs | Intrinsic::Floor => {
                    InstClass::FpAdd
                }
                _ => InstClass::FpSpecial,
            },
            Opcode::Send { .. } => InstClass::Send,
            Opcode::Recv { .. } => InstClass::Recv,
            Opcode::AccelCall { .. } => InstClass::Accel,
            Opcode::Br { .. } | Opcode::CondBr { .. } | Opcode::Ret { .. } => InstClass::Branch,
        }
    }
}

/// Kind of memory operation a node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Read.
    Load,
    /// Write.
    Store,
    /// Atomic read-modify-write (treated as a write that also returns a
    /// value; the `op` is kept for energy modeling).
    Atomic(AtomicOp),
}

/// Where a launching instruction finds the dynamic instance of one SSA
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEdge {
    /// Defined earlier in the same block: the instruction at this offset
    /// of the launching DBB itself.
    Local(u32),
    /// The most recent dynamic instance of a static instruction: a def in
    /// another block, or later in this block (so from an earlier DBB).
    Latest(InstId),
    /// A phi's incoming def, a parent only when the previous DBB on the
    /// path was an instance of `pred`.
    Phi {
        /// The CFG predecessor the value arrives from.
        pred: BlockId,
        /// The instruction defining it.
        def: InstId,
    },
}

/// One node of a [`StaticDdg`]: what a tile needs to launch, issue and
/// retire a dynamic instance without consulting the IR.
#[derive(Debug, Clone, Copy)]
pub struct PlanInst {
    /// The static instruction.
    pub inst: InstId,
    /// Its resource class.
    pub class: InstClass,
    /// Whether it is its block's terminator (paper Fig. 3: terminator
    /// completion launches the next DBB).
    pub is_terminator: bool,
    /// Whether an instance completes the moment its parents have: true
    /// for phis; a tile model sets it for whatever else it treats as a
    /// bookkeeping node (fused macro-ops, sends absorbed by hardware).
    pub zero_cost: bool,
    /// Memory kind, if it accesses memory.
    pub mem_kind: Option<MemKind>,
    /// Queue id, if it is a `send`/`recv`.
    pub queue: Option<u32>,
    edges: (u32, u32),
}

/// One block of a [`StaticDdg`], borrowed.
#[derive(Debug, Clone)]
pub struct BlockView<'a> {
    /// The plan indices (for [`StaticDdg::inst`]) of the block's
    /// instructions, in program order.
    pub range: Range<usize>,
    /// The terminator's offset within the block.
    pub terminator: u32,
    /// The whole graph's instructions.
    insts: &'a [PlanInst],
}

impl<'a> BlockView<'a> {
    /// Memory operations in program order — the order they are inserted
    /// into the Memory Address Orderer (paper §II-A).
    pub fn mem_order(&self) -> impl Iterator<Item = &'a InstId> {
        let insts: &'a [PlanInst] = self.insts;
        insts[self.range.clone()]
            .iter()
            .filter(|pi| pi.mem_kind.is_some())
            .map(|pi| &pi.inst)
    }
}

/// The static data dependency graph of one function, laid out for replay:
/// each block's instructions as one contiguous slice in program order,
/// with parent edges deduplicated and pre-resolved ([`PlanEdge`]) so
/// launching a DBB walks flat arrays. Instructions no block schedules
/// (left behind by DCE) are not in it.
#[derive(Debug, Clone)]
pub struct StaticDdg {
    insts: Vec<PlanInst>,
    edges: Vec<PlanEdge>,
    /// Per block: its slice of `insts` and its terminator's offset in it.
    blocks: Vec<(Range<usize>, u32)>,
    node_count: usize,
}

impl StaticDdg {
    /// Builds the DDG of a (verified) function; O(static instructions).
    ///
    /// # Panics
    ///
    /// May panic on unverified IR (e.g. blocks without terminators); run
    /// [`mosaic_ir::verify_function`] first.
    pub fn build(func: &Function) -> StaticDdg {
        let mut ddg = StaticDdg {
            insts: Vec::with_capacity(func.inst_count()),
            edges: Vec::new(),
            blocks: Vec::with_capacity(func.block_count()),
            node_count: func.inst_count(),
        };
        // Each instruction's offset in its block, once it is placed.
        let mut offset = vec![u32::MAX; func.inst_count()];
        for b in func.blocks() {
            let start = ddg.insts.len();
            for (pos, &iid) in b.insts().iter().enumerate() {
                let inst = func.inst(iid);
                let op = inst.op();
                let first = ddg.edges.len();
                if let Opcode::Phi { incoming } = op {
                    for (i, &(pred, def)) in incoming.iter().enumerate() {
                        // A launch selects the first entry for its predecessor.
                        let shadowed = incoming[..i].iter().any(|(p, _)| *p == pred);
                        if let (false, Some(def)) = (shadowed, def.as_inst()) {
                            ddg.edges.push(PlanEdge::Phi { pred, def });
                        }
                    }
                } else {
                    // Parents in this block first, then the others, each
                    // in operand order.
                    for local in [true, false] {
                        op.for_each_operand(|o| {
                            let Operand::Inst(def) = o else { return };
                            if (func.inst(def).block() == b.id()) != local {
                                return;
                            }
                            let edge = match offset[def.index()] {
                                off if local && (off as usize) < pos => PlanEdge::Local(off),
                                _ => PlanEdge::Latest(def),
                            };
                            // One edge per def: an operand used twice is one parent.
                            if !ddg.edges[first..].contains(&edge) {
                                ddg.edges.push(edge);
                            }
                        });
                    }
                }
                offset[iid.index()] = pos as u32;
                let class = InstClass::of(inst);
                ddg.insts.push(PlanInst {
                    inst: iid,
                    class,
                    is_terminator: b.terminator() == Some(iid),
                    zero_cost: class == InstClass::Phi,
                    mem_kind: match op {
                        Opcode::Load { .. } => Some(MemKind::Load),
                        Opcode::Store { .. } => Some(MemKind::Store),
                        Opcode::AtomicRmw { op, .. } => Some(MemKind::Atomic(*op)),
                        _ => None,
                    },
                    queue: match op {
                        Opcode::Send { queue, .. } | Opcode::Recv { queue } => Some(*queue),
                        _ => None,
                    },
                    edges: (first as u32, ddg.edges.len() as u32),
                });
            }
            let term = b.terminator().expect("verified block has terminator");
            ddg.blocks
                .push((start..ddg.insts.len(), offset[term.index()]));
        }
        ddg
    }

    /// `block`'s instructions.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: BlockId) -> BlockView<'_> {
        let (range, terminator) = self.blocks[block.index()].clone();
        BlockView {
            range,
            terminator,
            insts: &self.insts,
        }
    }

    /// The instruction at plan index `idx`.
    pub fn inst(&self, idx: usize) -> &PlanInst {
        &self.insts[idx]
    }

    /// Number of planned (scheduled) instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no block schedules an instruction.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of static instructions of the function, scheduled or not.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Every planned instruction, mutably — for a tile model to mark its
    /// own [`zero_cost`](PlanInst::zero_cost) nodes.
    pub fn insts_mut(&mut self) -> impl Iterator<Item = &mut PlanInst> {
        self.insts.iter_mut()
    }

    /// The parent edges of `inst`.
    pub fn edges(&self, inst: &PlanInst) -> &[PlanEdge] {
        &self.edges[inst.edges.0 as usize..inst.edges.1 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{Constant, FuncId, FunctionBuilder, IntPredicate, Module, Type};

    fn loop_func() -> (Module, FuncId, InstId, InstId) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let a = b.gep(p, i, 4);
        let v = b.load(Type::I32, a);
        let v2 = b.bin(BinOp::Add, v, Constant::i32(1).into());
        b.store(a, v2);
        let i2 = b.bin(BinOp::Add, i, Constant::i64(1).into());
        b.br(header);
        b.phi_add_incoming(i_phi, entry, Constant::i64(0).into());
        b.phi_add_incoming(i_phi, body, i2);
        b.switch_to(exit);
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        (m, f, i_phi, v.as_inst().unwrap())
    }

    /// The node of `inst`.
    fn node(ddg: &StaticDdg, inst: InstId) -> &PlanInst {
        let at = (0..ddg.len()).find(|&i| ddg.inst(i).inst == inst);
        ddg.inst(at.expect("planned"))
    }

    #[test]
    fn phi_incoming_captures_defs() {
        let (m, f, i_phi, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        let phi = node(&ddg, i_phi);
        assert_eq!(phi.class, InstClass::Phi);
        assert!(phi.zero_cost);
        // The edge from entry is the constant 0 (no def, so no edge); the
        // edge from body is i2.
        let [PlanEdge::Phi { pred, def }] = ddg.edges(phi) else {
            panic!("one phi edge: {:?}", ddg.edges(phi));
        };
        assert_eq!(*pred, BlockId(2));
        assert_eq!(node(&ddg, *def).class, InstClass::IntAlu);
    }

    #[test]
    fn cross_block_parents_identified() {
        let (m, f, i_phi, load) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        // load <- gep: same block, so a block-local offset; gep <- phi:
        // another block, so the phi's latest instance.
        let load_node = node(&ddg, load);
        assert_eq!(load_node.class, InstClass::Load);
        assert_eq!(ddg.edges(load_node), [PlanEdge::Local(0)]);
        let gep = ddg.inst(ddg.block(BlockId(2)).range.start);
        assert!(ddg.edges(gep).contains(&PlanEdge::Latest(i_phi)));
    }

    #[test]
    fn mem_order_is_program_order() {
        let (m, f, _, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        let body: Vec<InstId> = ddg.block(BlockId(2)).mem_order().copied().collect();
        let [load, store] = body[..] else {
            panic!("two memory operations: {body:?}");
        };
        assert_eq!(node(&ddg, load).mem_kind, Some(MemKind::Load));
        assert_eq!(node(&ddg, store).mem_kind, Some(MemKind::Store));
        assert!(load < store);
    }

    #[test]
    fn terminators_flagged() {
        let (m, f, _, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        for b in m.function(f).blocks() {
            let block = ddg.block(b.id());
            let term = ddg.inst(block.range.start + block.terminator as usize);
            assert!(term.is_terminator && Some(term.inst) == b.terminator());
            let flagged = block.range.filter(|&i| ddg.inst(i).is_terminator);
            assert_eq!(flagged.count(), 1);
        }
    }

    #[test]
    fn launch_plan_resolves_parents() {
        let (m, f, i_phi, load) = loop_func();
        let func = m.function(f);
        let ddg = StaticDdg::build(func);
        assert_eq!(
            ddg.len(),
            func.blocks().map(|b| b.insts().len()).sum::<usize>()
        );
        // Blocks are contiguous, in program order.
        for b in func.blocks() {
            let planned: Vec<InstId> = ddg.block(b.id()).range.map(|i| ddg.inst(i).inst).collect();
            assert_eq!(planned, b.insts());
        }
        let gep = ddg.inst(ddg.block(BlockId(2)).range.start);
        assert_eq!(ddg.edges(node(&ddg, load)), [PlanEdge::Local(0)]);
        assert_eq!(ddg.edges(gep), [PlanEdge::Latest(i_phi)]);
        // `store a, v2` uses two defs; `add v, 1` one.
        let store = *ddg.block(BlockId(2)).mem_order().nth(1).unwrap();
        assert_eq!(ddg.edges(node(&ddg, store)).len(), 2);
        assert_eq!(node(&ddg, store).mem_kind, Some(MemKind::Store));
    }

    #[test]
    fn launch_plan_counts_a_repeated_operand_once() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let join = b.create_block("join");
        b.switch_to(e);
        let p = b.param(0);
        let x = b.load(Type::I32, p);
        let sq = b.bin(BinOp::Mul, x, x);
        b.br(join);
        // A predecessor listed twice: a launch takes its first entry.
        b.switch_to(join);
        let (v, phi) = b.phi_incomplete(Type::I32);
        b.phi_add_incoming(phi, e, sq);
        b.phi_add_incoming(phi, e, x);
        b.store(p, v);
        b.ret(None);
        let ddg = StaticDdg::build(m.function(f));
        let mul = ddg.inst(ddg.block(e).range.start + 1);
        assert_eq!(mul.class, InstClass::IntMul);
        assert_eq!(ddg.edges(mul), [PlanEdge::Local(0)]);
        let def = sq.as_inst().unwrap();
        let phi = ddg.inst(ddg.block(join).range.start);
        assert_eq!(ddg.edges(phi), [PlanEdge::Phi { pred: e, def }]);
    }

    /// Every function the repository bundles, projection's DAE slices
    /// included.
    fn bundled_functions() -> Vec<Module> {
        let mut modules: Vec<Module> = mosaic_kernels::bundled()
            .into_iter()
            .map(|p| p.module)
            .collect();
        let mut sliced = mosaic_kernels::projection::build(1);
        mosaic_passes::slice_dae(&mut sliced.module, sliced.func, Default::default()).unwrap();
        modules.push(sliced.module);
        modules
    }

    /// The layout `CoreTile`'s launch relies on, on real kernels: local
    /// edges point backwards to an operand, no edge is repeated, each block
    /// ends in its one flagged terminator, every scheduled instruction is
    /// placed once, and the memory order is the block's memory operations.
    #[test]
    fn bundled_kernels_have_the_layout_a_launch_relies_on() {
        let mut functions = 0;
        for m in bundled_functions() {
            for func in m.functions() {
                functions += 1;
                let name = func.name();
                let ddg = StaticDdg::build(func);
                assert_eq!(ddg.node_count(), func.inst_count(), "{name}");
                let mut placed = vec![0u32; func.inst_count()];
                for i in 0..ddg.len() {
                    placed[ddg.inst(i).inst.index()] += 1;
                }
                let scheduled: usize = func.blocks().map(|b| b.insts().len()).sum();
                assert_eq!(ddg.len(), scheduled, "{name}");
                for b in func.blocks() {
                    let block = ddg.block(b.id());
                    let term = block.terminator as usize;
                    assert_eq!(
                        term + 1,
                        block.range.len(),
                        "{name} {}: terminator last",
                        b.id()
                    );
                    for (pos, i) in block.range.clone().enumerate() {
                        let pi = ddg.inst(i);
                        assert_eq!(pi.inst, b.insts()[pos], "{name} {}", b.id());
                        assert_eq!(
                            placed[pi.inst.index()],
                            1,
                            "{name} {}: placed once",
                            pi.inst
                        );
                        assert_eq!(pi.is_terminator, pos == term, "{name} {}", pi.inst);
                        let edges = ddg.edges(pi);
                        for (k, edge) in edges.iter().enumerate() {
                            assert!(
                                !edges[..k].contains(edge),
                                "{name} {}: {edge:?} twice",
                                pi.inst
                            );
                            if let PlanEdge::Local(off) = edge {
                                assert!((*off as usize) < pos, "{name} {}: {edge:?}", pi.inst);
                                let def = b.insts()[*off as usize];
                                let mut uses = false;
                                func.inst(pi.inst).op().for_each_operand(|o| {
                                    uses |= o.as_inst() == Some(def);
                                });
                                assert!(uses, "{name} {}: {edge:?} is no operand", pi.inst);
                            }
                        }
                    }
                    let is_mem = |i: &&InstId| func.inst(**i).op().is_mem();
                    let expected: Vec<&InstId> = b.insts().iter().filter(is_mem).collect();
                    let mem: Vec<&InstId> = block.mem_order().collect();
                    assert_eq!(mem, expected, "{name} {}", b.id());
                }
            }
        }
        assert!(functions > 21, "{functions} functions");
    }
}

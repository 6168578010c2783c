//! # mosaic-ddg
//!
//! The **Static Data Dependency Graph (DDG) Generator** (paper §II-A).
//!
//! MosaicSim's tile models are "abstract models based on data dependence
//! graphs derived from LLVM IR": a node per static instruction, edges for
//! data and control flow within and across basic blocks. This crate turns a
//! verified [`mosaic_ir::Function`] into a [`StaticDdg`]:
//!
//! * per-instruction [`StaticNode`]s carrying the instruction's resource
//!   class ([`InstClass`]), its intra-block and cross-block SSA parents,
//!   and — for phis — the defining instruction per CFG predecessor;
//! * per-block [`BlockDdg`]s carrying program order, the memory-operation
//!   order (consumed by the Memory Address Orderer), and the terminator
//!   node whose completion gates the launch of the next Dynamic Basic
//!   Block (paper §II-A, Fig. 3).
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
//! assert_eq!(ddg.block(mosaic_ir::BlockId(0)).mem_order().len(), 2);
//! assert_eq!(ddg.node(v2.as_inst().unwrap()).class(), InstClass::FpMul);
//! ```

#![warn(missing_docs)]

use mosaic_ir::{
    AtomicOp, BinOp, BlockId, FuncId, Function, Inst, InstId, Intrinsic, Opcode, Operand,
};

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

    /// Whether the class accesses the memory hierarchy.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store | InstClass::Atomic)
    }

    /// Classifies an instruction.
    pub fn of(inst: &Inst) -> InstClass {
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

impl MemKind {
    /// Whether the operation writes memory.
    pub fn writes(self) -> bool {
        !matches!(self, MemKind::Load)
    }
}

/// A static DDG node: one IR instruction plus its dependence metadata.
#[derive(Debug, Clone)]
pub struct StaticNode {
    inst: InstId,
    block: BlockId,
    class: InstClass,
    intra_parents: Vec<InstId>,
    cross_parents: Vec<InstId>,
    phi_incoming: Vec<(BlockId, Option<InstId>)>,
    is_terminator: bool,
    mem_kind: Option<MemKind>,
    queue: Option<u32>,
}

impl StaticNode {
    /// The underlying instruction id.
    pub fn inst(&self) -> InstId {
        self.inst
    }

    /// The block the node belongs to.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The resource class.
    pub fn class(&self) -> InstClass {
        self.class
    }

    /// SSA parents defined in the *same* basic block. A dynamic instance
    /// depends on the instance of the parent in its own DBB.
    pub fn intra_parents(&self) -> &[InstId] {
        &self.intra_parents
    }

    /// SSA parents defined in *other* basic blocks (loop-invariant defs or
    /// defs on a dominating path). A dynamic instance depends on the most
    /// recent in-flight instance of the parent, if one exists.
    pub fn cross_parents(&self) -> &[InstId] {
        &self.cross_parents
    }

    /// For phi nodes: the defining instruction per CFG predecessor
    /// (`None` when the incoming value is a constant or parameter).
    pub fn phi_incoming(&self) -> &[(BlockId, Option<InstId>)] {
        &self.phi_incoming
    }

    /// Whether this node is its block's terminator (paper Fig. 3:
    /// terminator completion launches the next DBB).
    pub fn is_terminator(&self) -> bool {
        self.is_terminator
    }

    /// Memory kind, if this node accesses memory.
    pub fn mem_kind(&self) -> Option<MemKind> {
        self.mem_kind
    }

    /// Queue id, if this node is a `send`/`recv`.
    pub fn queue(&self) -> Option<u32> {
        self.queue
    }
}

/// Per-block slice of the static DDG.
#[derive(Debug, Clone)]
pub struct BlockDdg {
    block: BlockId,
    insts: Vec<InstId>,
    mem_order: Vec<InstId>,
    terminator: InstId,
}

impl BlockDdg {
    /// The block id.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Instructions in program order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// Memory operations in program order — the order they are inserted
    /// into the Memory Address Orderer (paper §II-A).
    pub fn mem_order(&self) -> &[InstId] {
        &self.mem_order
    }

    /// The terminator node.
    pub fn terminator(&self) -> InstId {
        self.terminator
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block has no instructions (never true for verified IR).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The static data dependency graph of one function.
#[derive(Debug, Clone)]
pub struct StaticDdg {
    func: FuncId,
    func_name: String,
    nodes: Vec<StaticNode>,
    blocks: Vec<BlockDdg>,
}

impl StaticDdg {
    /// Builds the DDG of a (verified) function.
    ///
    /// # Panics
    ///
    /// May panic on unverified IR (e.g. blocks without terminators); run
    /// [`mosaic_ir::verify_function`] first.
    pub fn build(func: &Function) -> StaticDdg {
        let mut nodes = Vec::with_capacity(func.inst_count());
        for inst in func.insts() {
            let mut intra = Vec::new();
            let mut cross = Vec::new();
            let mut phi_inc = Vec::new();
            match inst.op() {
                Opcode::Phi { incoming } => {
                    for (pred, v) in incoming {
                        phi_inc.push((*pred, v.as_inst()));
                    }
                }
                op => {
                    op.for_each_operand(|o| {
                        if let Operand::Inst(def) = o {
                            if func.inst(def).block() == inst.block() {
                                intra.push(def);
                            } else {
                                cross.push(def);
                            }
                        }
                    });
                }
            }
            let mem_kind = match inst.op() {
                Opcode::Load { .. } => Some(MemKind::Load),
                Opcode::Store { .. } => Some(MemKind::Store),
                Opcode::AtomicRmw { op, .. } => Some(MemKind::Atomic(*op)),
                _ => None,
            };
            let queue = match inst.op() {
                Opcode::Send { queue, .. } | Opcode::Recv { queue } => Some(*queue),
                _ => None,
            };
            let block = func.block(inst.block());
            nodes.push(StaticNode {
                inst: inst.id(),
                block: inst.block(),
                class: InstClass::of(inst),
                intra_parents: intra,
                cross_parents: cross,
                phi_incoming: phi_inc,
                is_terminator: block.terminator() == Some(inst.id()),
                mem_kind,
                queue,
            });
        }

        let blocks = func
            .blocks()
            .map(|b| BlockDdg {
                block: b.id(),
                insts: b.insts().to_vec(),
                mem_order: b
                    .insts()
                    .iter()
                    .copied()
                    .filter(|&i| func.inst(i).op().is_mem())
                    .collect(),
                terminator: b.terminator().expect("verified block has terminator"),
            })
            .collect();

        StaticDdg {
            func: func.id(),
            func_name: func.name().to_string(),
            nodes,
            blocks,
        }
    }

    /// The function this DDG was built from.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// The function's name.
    pub fn func_name(&self) -> &str {
        &self.func_name
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn node(&self, inst: InstId) -> &StaticNode {
        &self.nodes[inst.index()]
    }

    /// Block slice lookup.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: BlockId) -> &BlockDdg {
        &self.blocks[block.index()]
    }

    /// All nodes in arena order.
    pub fn nodes(&self) -> impl Iterator<Item = &StaticNode> {
        self.nodes.iter()
    }

    /// All block slices.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockDdg> {
        self.blocks.iter()
    }

    /// Number of static instructions.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Where a launching instruction finds the dynamic instance of one SSA
/// parent (see [`LaunchPlan`]).
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

/// One instruction of a [`LaunchPlan`]: what a tile needs to launch,
/// issue and retire a dynamic instance without consulting the IR.
#[derive(Debug, Clone, Copy)]
pub struct PlanInst {
    /// The static instruction.
    pub inst: InstId,
    /// Its resource class.
    pub class: InstClass,
    /// Whether it is its block's terminator.
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

/// The static DDG compiled for replay: each block's instructions as one
/// contiguous slice in program order, with parent edges deduplicated and
/// pre-resolved ([`PlanEdge`]) so launching a DBB walks flat arrays.
/// Instructions no block schedules (left behind by DCE) are not in it.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    insts: Vec<PlanInst>,
    edges: Vec<PlanEdge>,
    /// Per block: its slice of `insts` and its terminator's offset in it.
    blocks: Vec<(std::ops::Range<usize>, u32)>,
}

impl LaunchPlan {
    /// Compiles `ddg`; O(static instructions).
    pub fn compile(ddg: &StaticDdg) -> LaunchPlan {
        let mut offset = vec![u32::MAX; ddg.node_count()];
        for b in ddg.blocks() {
            for (pos, iid) in b.insts().iter().enumerate() {
                offset[iid.index()] = pos as u32;
            }
        }
        let mut plan = LaunchPlan {
            insts: Vec::with_capacity(ddg.node_count()),
            edges: Vec::new(),
            blocks: Vec::with_capacity(ddg.block_count()),
        };
        for b in ddg.blocks() {
            let start = plan.insts.len();
            for (pos, &iid) in b.insts().iter().enumerate() {
                let node = ddg.node(iid);
                let first = plan.edges.len();
                let incoming = node.phi_incoming();
                for (i, &(pred, def)) in incoming.iter().enumerate() {
                    // A launch selects the first entry for its predecessor.
                    let shadowed = incoming[..i].iter().any(|(p, _)| *p == pred);
                    if let (false, Some(def)) = (shadowed, def) {
                        plan.edges.push(PlanEdge::Phi { pred, def });
                    }
                }
                let intra = node.intra_parents().iter().map(|&def| {
                    match offset[def.index()] {
                        off if (off as usize) < pos => PlanEdge::Local(off),
                        _ => PlanEdge::Latest(def),
                    }
                });
                let cross = node.cross_parents().iter().map(|&d| PlanEdge::Latest(d));
                for edge in intra.chain(cross) {
                    // One edge per def: an operand used twice is one parent.
                    if !plan.edges[first..].contains(&edge) {
                        plan.edges.push(edge);
                    }
                }
                plan.insts.push(PlanInst {
                    inst: iid,
                    class: node.class(),
                    is_terminator: node.is_terminator(),
                    zero_cost: node.class() == InstClass::Phi,
                    mem_kind: node.mem_kind(),
                    queue: node.queue(),
                    edges: (first as u32, plan.edges.len() as u32),
                });
            }
            let term = offset[b.terminator().index()];
            plan.blocks.push((start..plan.insts.len(), term));
        }
        plan
    }

    /// The indices (for [`inst`](Self::inst)) of `block`'s instructions,
    /// in program order.
    pub fn block(&self, block: BlockId) -> std::ops::Range<usize> {
        self.blocks[block.index()].0.clone()
    }

    /// Offset of `block`'s terminator within the block.
    pub fn terminator_offset(&self, block: BlockId) -> u32 {
        self.blocks[block.index()].1
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The instruction at plan index `idx`.
    pub fn inst(&self, idx: usize) -> &PlanInst {
        &self.insts[idx]
    }

    /// Number of planned instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the plan has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
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
    use mosaic_ir::{Constant, FunctionBuilder, IntPredicate, Module, Type};

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

    #[test]
    fn phi_incoming_captures_defs() {
        let (m, f, i_phi, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        let node = ddg.node(i_phi);
        assert_eq!(node.class(), InstClass::Phi);
        assert_eq!(node.phi_incoming().len(), 2);
        // Edge from entry is the constant 0 (no def); edge from body is i2.
        let from_entry = node
            .phi_incoming()
            .iter()
            .find(|(b, _)| *b == BlockId(0))
            .unwrap();
        assert!(from_entry.1.is_none());
        let from_body = node
            .phi_incoming()
            .iter()
            .find(|(b, _)| *b == BlockId(2))
            .unwrap();
        assert!(from_body.1.is_some());
    }

    #[test]
    fn cross_block_parents_identified() {
        let (m, f, i_phi, load) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        // gep in body uses the phi defined in header: cross-block parent.
        let load_node = ddg.node(load);
        assert_eq!(load_node.class(), InstClass::Load);
        let gep = load_node.intra_parents()[0];
        let gep_node = ddg.node(gep);
        assert!(gep_node.cross_parents().contains(&i_phi));
    }

    #[test]
    fn mem_order_is_program_order() {
        let (m, f, _, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        let body = ddg.block(BlockId(2));
        assert_eq!(body.mem_order().len(), 2);
        let load = body.mem_order()[0];
        let store = body.mem_order()[1];
        assert_eq!(ddg.node(load).mem_kind(), Some(MemKind::Load));
        assert_eq!(ddg.node(store).mem_kind(), Some(MemKind::Store));
        assert!(load < store);
    }

    #[test]
    fn terminators_flagged() {
        let (m, f, _, _) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        for b in ddg.blocks() {
            assert!(ddg.node(b.terminator()).is_terminator());
            let non_term = b.insts().iter().filter(|&&i| i != b.terminator());
            for &i in non_term {
                assert!(!ddg.node(i).is_terminator());
            }
        }
    }

    #[test]
    fn launch_plan_resolves_parents() {
        let (m, f, i_phi, load) = loop_func();
        let ddg = StaticDdg::build(m.function(f));
        let plan = LaunchPlan::compile(&ddg);
        assert_eq!(plan.len(), ddg.blocks().map(BlockDdg::len).sum::<usize>());
        let find = |inst: InstId| {
            let at = (0..plan.len()).find(|&i| plan.inst(i).inst == inst);
            plan.inst(at.expect("planned"))
        };
        // Blocks are contiguous, in program order, terminator last.
        for b in ddg.blocks() {
            let range = plan.block(b.block());
            let planned: Vec<InstId> = range.clone().map(|i| plan.inst(i).inst).collect();
            assert_eq!(planned, b.insts());
            let term = plan.inst(range.start + plan.terminator_offset(b.block()) as usize);
            assert!(term.is_terminator && term.inst == b.terminator());
        }
        // The phi takes `i2` only when entered from the body; the constant
        // incoming from the entry block is no edge at all.
        let phi = find(i_phi);
        assert!(phi.zero_cost);
        let body = BlockId(2);
        assert!(matches!(
            plan.edges(phi),
            [PlanEdge::Phi { pred, .. }] if *pred == body
        ));
        // load <- gep: same block, so a block-local offset; gep <- phi:
        // another block, so the phi's latest instance.
        let gep = ddg.node(load).intra_parents()[0];
        assert_eq!(plan.edges(find(load)), [PlanEdge::Local(0)]);
        assert_eq!(plan.edges(find(gep)), [PlanEdge::Latest(i_phi)]);
        // `store a, v2` uses two defs; `add v, 1` one.
        let store = ddg.block(body).mem_order()[1];
        assert_eq!(plan.edges(find(store)).len(), 2);
        assert_eq!(find(store).mem_kind, Some(MemKind::Store));
    }

    #[test]
    fn launch_plan_counts_a_repeated_operand_once() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        let x = b.load(Type::I32, p);
        let sq = b.bin(BinOp::Mul, x, x);
        b.store(p, sq);
        b.ret(None);
        let plan = LaunchPlan::compile(&StaticDdg::build(m.function(f)));
        let sq = plan.inst(plan.block(BlockId(0)).start + 1);
        assert_eq!(sq.class, InstClass::IntMul);
        assert_eq!(plan.edges(sq), [PlanEdge::Local(0)]);
    }
}

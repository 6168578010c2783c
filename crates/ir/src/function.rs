//! Basic blocks, functions, and modules.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{BlockId, FuncId, InstId};
use crate::inst::{Inst, Opcode, Operand};
use crate::types::Type;

/// A basic block: a single-entry, single-exit sequence of instructions
/// whose last instruction is a terminator (paper §II-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub(crate) id: BlockId,
    pub(crate) name: String,
    pub(crate) insts: Vec<InstId>,
}

impl Block {
    /// The block's id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The block's (not necessarily unique) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instruction ids in program order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// The block's terminator instruction id, if the block is complete.
    pub fn terminator(&self) -> Option<InstId> {
        self.insts.last().copied()
    }
}

/// A function: parameters, a return type, and a CFG of basic blocks over a
/// flat instruction arena. Kernels are specially named functions mapped
/// onto tiles (paper §II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub(crate) id: FuncId,
    pub(crate) name: String,
    pub(crate) params: Vec<(String, Type)>,
    pub(crate) ret_ty: Type,
    pub(crate) blocks: Vec<Block>,
    pub(crate) insts: Vec<Inst>,
}

impl Function {
    pub(crate) fn new(id: FuncId, name: &str, params: Vec<(String, Type)>, ret_ty: Type) -> Self {
        Function {
            id,
            name: name.to_string(),
            params,
            ret_ty,
            blocks: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// The function's id within its module.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter names and types.
    pub fn params(&self) -> &[(String, Type)] {
        &self.params
    }

    /// The return type.
    pub(crate) fn ret_ty(&self) -> Type {
        self.ret_ty
    }

    /// The entry block (always `bb0`).
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks yet.
    pub(crate) fn entry(&self) -> BlockId {
        assert!(!self.blocks.is_empty(), "function has no blocks");
        BlockId(0)
    }

    /// All blocks in creation order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instructions (static).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Looks up an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutable instruction lookup (used by passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Iterates over all instructions in arena order.
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter()
    }

    /// Finds a block by name.
    #[cfg(test)]
    pub(crate) fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks.iter().find(|b| b.name == name).map(|b| b.id)
    }

    /// Predecessor map of the CFG: for each block, the blocks that branch
    /// to it. Ordered, so that building and dropping it touches the heap
    /// in the same order on every run (see DESIGN.md §4.2.2).
    pub(crate) fn predecessors(&self) -> BTreeMap<BlockId, Vec<BlockId>> {
        let mut preds: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
        for b in &self.blocks {
            if let Some(t) = b.terminator() {
                for succ in self.inst(t).op().successors() {
                    preds.entry(succ).or_default().push(b.id);
                }
            }
        }
        preds
    }

    /// How many operands name each instruction's result, by `InstId`
    /// index. Only instructions some block schedules count as users:
    /// dead-code elimination leaves removed ones orphaned in the arena.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut uses = vec![0; self.insts.len()];
        for &iid in self.blocks.iter().flat_map(|b| &b.insts) {
            self.inst(iid).op().for_each_operand(|o| {
                if let Operand::Inst(d) = o {
                    uses[d.index()] += 1;
                }
            });
        }
        uses
    }

    pub(crate) fn push_block(&mut self, name: &str) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            name: name.to_string(),
            insts: Vec::new(),
        });
        id
    }

    pub(crate) fn push_inst(&mut self, block: BlockId, op: Opcode, ty: Type) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Inst { id, block, op, ty });
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Renames the function (used when cloning through passes).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    fn insert_inst_at(&mut self, anchor: InstId, op: Opcode, ty: Type, after: bool) -> InstId {
        let block = self.inst(anchor).block();
        let pos = self.blocks[block.index()]
            .insts
            .iter()
            .position(|&i| i == anchor)
            .expect("anchor instruction is in its block");
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Inst { id, block, op, ty });
        let at = if after { pos + 1 } else { pos };
        self.blocks[block.index()].insts.insert(at, id);
        id
    }

    /// Inserts a new instruction immediately before `anchor` in program
    /// order (same block). Used by compiler passes.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range.
    pub fn insert_inst_before(&mut self, anchor: InstId, op: Opcode, ty: Type) -> InstId {
        self.insert_inst_at(anchor, op, ty, false)
    }

    /// Inserts a new instruction immediately after `anchor` in program
    /// order (same block). Used by compiler passes.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range, or if `anchor` is a terminator
    /// (nothing may follow a terminator).
    pub fn insert_inst_after(&mut self, anchor: InstId, op: Opcode, ty: Type) -> InstId {
        assert!(
            !self.inst(anchor).op().is_terminator(),
            "cannot insert after terminator {anchor}"
        );
        self.insert_inst_at(anchor, op, ty, true)
    }

    /// Replaces an instruction's opcode and type in place, keeping its id
    /// (so existing operand references remain valid). Used by passes such
    /// as DAE slicing (load → recv).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_op(&mut self, id: InstId, op: Opcode, ty: Type) {
        let inst = &mut self.insts[id.index()];
        inst.op = op;
        inst.ty = ty;
    }

    /// Removes an instruction from its block's program order. The arena
    /// entry remains (ids stay stable) but the instruction will never
    /// execute; callers must ensure no live instruction still uses its
    /// value. Used by dead-code elimination.
    pub fn remove_from_block(&mut self, id: InstId) {
        let block = self.inst(id).block();
        self.blocks[block.index()].insts.retain(|&i| i != id);
    }
}

/// Parse/validation errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// The verifier found a malformed construct.
    Verify(String),
    /// The textual parser failed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A name lookup failed.
    UnknownName(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Verify(m) => write!(f, "verification failed: {m}"),
            IrError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IrError::UnknownName(n) => write!(f, "unknown name: {n}"),
        }
    }
}

impl std::error::Error for IrError {}

/// A module: a set of functions sharing a name space. This is the unit the
/// DDG generator, passes, and the simulator operate on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    ///
    /// # Examples
    ///
    /// ```
    /// use mosaic_ir::Module;
    /// let m = Module::new("kernel");
    /// assert_eq!(m.name(), "kernel");
    /// assert_eq!(m.functions().count(), 0);
    /// ```
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_string(),
            functions: Vec::new(),
        }
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an empty function and returns its id.
    pub fn add_function(&mut self, name: &str, params: Vec<(String, Type)>, ret_ty: Type) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(Function::new(id, name, params, ret_ty));
        id
    }

    /// Adds a fully built function (used when cloning through passes).
    pub fn add_built_function(&mut self, mut func: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        func.id = id;
        self.functions.push(func);
        id
    }

    /// Looks up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable function lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Iterates over all functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter()
    }

    /// Finds a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().find(|f| f.name == name).map(|f| f.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn module_function_lookup() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("a".into(), Type::Ptr)], Type::Void);
        assert_eq!(m.function_by_name("k"), Some(f));
        assert_eq!(m.function_by_name("nope"), None);
        assert_eq!(m.function(f).params().len(), 1);
    }

    #[test]
    fn predecessors_reflect_cfg() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let entry = b.create_block("entry");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(exit);
        b.switch_to(exit);
        b.ret(None);
        let preds = m.function(f).predecessors();
        assert_eq!(preds[&exit], vec![entry]);
        assert!(!preds.contains_key(&entry));
    }
}

//! Control-flow graph, reachability, and dominator trees.
//!
//! The CFG is derived once from a function's terminators and then shared
//! by every analysis. Dominators are computed with the Cooper–Harvey–
//! Kennedy iterative algorithm over a reverse-post-order numbering, which
//! is simple and fast for the small, reducible CFGs the builder emits.

use crate::function::Function;
use crate::ids::BlockId;

/// A function's control-flow graph: successor/predecessor lists, a
/// reverse-post-order numbering, and entry reachability.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse post order (entry first); unreachable blocks are
    /// absent.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_pos: Vec<usize>,
    /// Blocks that terminate with `ret`.
    exits: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.block_count();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut exits = Vec::new();
        for block in func.blocks() {
            if let Some(t) = block.terminator() {
                let term = func.inst(t).op();
                let ss = term.successors();
                if ss.is_empty() {
                    exits.push(block.id());
                }
                for s in ss {
                    succs[block.id().index()].push(s);
                    preds[s.index()].push(block.id());
                }
            }
        }
        // Depth-first post-order from the entry, then reverse.
        let mut rpo = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        if n > 0 {
            let entry = BlockId(0);
            let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
            state[entry.index()] = 1;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < succs[b.index()].len() {
                    let s = succs[b.index()][*i];
                    *i += 1;
                    if state[s.index()] == 0 {
                        state[s.index()] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b.index()] = 2;
                    rpo.push(b);
                    stack.pop();
                }
            }
            rpo.reverse();
        }
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
            exits,
        }
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessor blocks of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Blocks in reverse post order (entry first). Unreachable blocks are
    /// excluded.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }

    /// Blocks whose terminator is `ret` (function exits).
    pub(crate) fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// Number of blocks (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.succs.len()
    }

    /// Computes the dominator tree (over reachable blocks).
    ///
    /// Cooper–Harvey–Kennedy: iterate `idom[b] = intersect(processed
    /// preds)` over RPO until fixpoint.
    pub fn dominators(&self) -> DomTree {
        // The intersect walk numbers blocks by their position in RPO.
        let pos = &self.rpo_pos;
        let mut idom: Vec<Option<BlockId>> = vec![None; self.block_count()];
        let Some((&entry, rest)) = self.rpo.split_first() else {
            return DomTree { idom, pos: pos.clone() };
        };
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rest {
                let mut new_idom: Option<BlockId> = None;
                for &p in self.preds(b) {
                    if pos[p.index()] == usize::MAX || idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, pos, cur, p),
                    });
                }
                if new_idom != idom[b.index()] && new_idom.is_some() {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        // The entry reports no parent (its self-idom is an implementation
        // artifact of the intersect walk).
        idom[entry.index()] = None;
        DomTree { idom, pos: pos.clone() }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while pos[a.index()] > pos[b.index()] {
            a = idom[a.index()].expect("walk stays inside processed region");
        }
        while pos[b.index()] > pos[a.index()] {
            b = idom[b.index()].expect("walk stays inside processed region");
        }
    }
    a
}

/// An (immediate-)dominator tree.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    pos: Vec<usize>,
}

impl DomTree {
    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive). Unreachable blocks dominate
    /// nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.pos[a.index()] == usize::MAX || self.pos[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;
    use crate::inst::IntPredicate;
    use crate::types::{Constant, Type};

    /// entry -> {then, else} -> join -> ret, plus a detached block.
    fn diamond() -> (Module, crate::ids::FuncId, [BlockId; 5]) {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        let t = b.create_block("then");
        let el = b.create_block("else");
        let j = b.create_block("join");
        let dead = b.create_block("dead");
        b.switch_to(e);
        let c = b.icmp(IntPredicate::Sgt, b.param(0), Constant::i64(0).into());
        b.cond_br(c, t, el);
        b.switch_to(t);
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        b.switch_to(dead);
        b.br(j);
        (m, f, [e, t, el, j, dead])
    }

    #[test]
    fn diamond_dominators_and_reachability() {
        let (m, f, [e, t, el, j, dead]) = diamond();
        let cfg = Cfg::new(m.function(f));
        assert!(cfg.is_reachable(e) && cfg.is_reachable(j));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo()[0], e);
        assert_eq!(cfg.exits(), &[j]);

        let dom = cfg.dominators();
        assert_eq!(dom.idom(e), None);
        assert_eq!(dom.idom(t), Some(e));
        assert_eq!(dom.idom(el), Some(e));
        assert_eq!(dom.idom(j), Some(e));
        assert!(dom.dominates(e, j));
        assert!(dom.dominates(j, j));
        assert!(!dom.dominates(t, j));
        assert!(!dom.dominates(dead, j) && !dom.dominates(j, dead));
    }

    #[test]
    fn loop_dominators() {
        let mut m = Module::new("t");
        let f = m.add_function("k", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), b.param(0), |_, _| {});
        b.ret(None);
        let func = m.function(f);
        let cfg = Cfg::new(func);
        let dom = cfg.dominators();
        let header = func.block_by_name("l.header").unwrap();
        let body = func.block_by_name("l.body").unwrap();
        let cont = func.block_by_name("l.cont").unwrap();
        assert_eq!(dom.idom(header), Some(e));
        assert_eq!(dom.idom(body), Some(header));
        assert_eq!(dom.idom(cont), Some(header));
        assert!(dom.dominates(header, body));
    }
}

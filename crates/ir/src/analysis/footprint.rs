//! Static byte-range footprints of memory accesses.
//!
//! Resolves the region of memory an address operand can touch, walking
//! GEP chains down to pointer parameters or constants, with
//! counted-loop induction variables summarized by their `[lo, hi]`
//! value range. `mosaic-lint`'s race pass and `mosaic-part`'s tile↔bank
//! interference graph both read [`Footprint::compute`], so they agree on
//! exactly what is provable.
//!
//! Everything degrades to "unknown" rather than guessing: a returned
//! range is a proof that every dynamic access lands inside it, and an
//! access whose range cannot be bounded is reported as *unbounded*
//! rather than dropped, so clients can stay conservative.

use crate::function::Function;
use crate::ids::InstId;
use crate::inst::{BinOp, IntPredicate, Opcode, Operand};
use crate::types::{Constant, Type};

use super::cfg::{Cfg, DomTree};
use super::loops::{find_loops, ExecCounts, Trip};

/// Evaluates an operand to a known integer under the bound arguments
/// (`args[i]` is the statically known value of parameter `i`, if any).
fn known_int(op: &Operand, args: &[Option<i64>]) -> Option<i64> {
    match op {
        Operand::Const(Constant::Int(v, _)) => Some(*v),
        Operand::Param(p) => args.get(*p as usize).copied().flatten(),
        _ => None,
    }
}

/// Inclusive ranges `[lo, hi]` of the values counted-loop induction phis
/// can take, for phis matching the canonical `emit_counted_loop` shape
/// (`for i in start..end` with step 1) with statically known bounds.
/// Loops whose bounds are unknown under `args` are omitted.
fn iv_ranges(
    func: &Function,
    cfg: &Cfg,
    dom: &DomTree,
    args: &[Option<i64>],
) -> Vec<(InstId, i64, i64)> {
    let mut out = Vec::new();
    for lp in find_loops(func, cfg, dom) {
        if lp.latches.len() != 1 {
            continue;
        }
        let latch = lp.latches[0];
        let header = func.block(lp.header);
        let Some(term) = header.terminator() else { continue };
        let Opcode::CondBr { cond: Operand::Inst(cmp), .. } = func.inst(term).op() else {
            continue;
        };
        let Opcode::ICmp { pred: IntPredicate::Slt, lhs: Operand::Inst(phi_id), rhs } =
            func.inst(*cmp).op()
        else {
            continue;
        };
        let Opcode::Phi { incoming } = func.inst(*phi_id).op() else { continue };
        if incoming.len() != 2 {
            continue;
        }
        let mut start = None;
        let mut step_ok = false;
        for (pred, val) in incoming {
            if *pred == latch {
                if let Operand::Inst(add) = val {
                    if let Opcode::Bin { op: BinOp::Add, lhs, rhs } = func.inst(*add).op() {
                        step_ok = *lhs == Operand::Inst(*phi_id)
                            && matches!(rhs, Operand::Const(Constant::Int(1, _)));
                    }
                }
            } else {
                start = known_int(val, args);
            }
        }
        let (Some(s), Some(e)) = (start, known_int(rhs, args)) else { continue };
        if step_ok && e > s {
            out.push((*phi_id, s, e - 1));
        }
    }
    out
}

/// Resolves the inclusive range of start addresses an address operand can
/// evaluate to, walking GEP chains down to pointer parameters/constants.
/// `ivs` supplies induction-variable value ranges from [`iv_ranges`].
fn addr_range(
    func: &Function,
    op: &Operand,
    args: &[Option<i64>],
    ivs: &[(InstId, i64, i64)],
) -> Option<(i64, i64)> {
    if let Some(v) = known_int(op, args) {
        return Some((v, v));
    }
    let Operand::Inst(id) = op else { return None };
    let Opcode::Gep { base, index, elem_size } = func.inst(*id).op() else {
        return None;
    };
    let (blo, bhi) = addr_range(func, base, args, ivs)?;
    let (ilo, ihi) = if let Some(v) = known_int(index, args) {
        (v, v)
    } else if let Operand::Inst(iv) = index {
        let &(_, lo, hi) = ivs.iter().find(|(p, _, _)| p == iv)?;
        (lo, hi)
    } else {
        return None;
    };
    let es = *elem_size as i64;
    Some((blo + ilo * es, bhi + ihi * es))
}

/// Width in bytes of the value moved by a load, store, or atomic.
fn access_size(func: &Function, op: &Opcode, ty: Type) -> i64 {
    let t = match op {
        Opcode::Store { value, .. } => match value {
            Operand::Inst(id) => func.inst(*id).ty(),
            Operand::Const(c) => c.ty(),
            Operand::Param(p) => func.params()[*p as usize].1,
        },
        _ => ty,
    };
    i64::from(t.size_bytes().max(1))
}

/// Evaluates a block's execution-count factor list (from
/// [`ExecCounts`]) under the bound arguments: `None` if any factor is
/// unknown, otherwise the saturating product with negative trip counts
/// clamped to zero.
pub fn eval_trip_product(factors: Option<&[Trip]>, args: &[Option<i64>]) -> Option<i64> {
    let mut n: i64 = 1;
    for t in factors? {
        let v = match t {
            Trip::Const(c) => *c,
            Trip::Param(p) => args.get(*p as usize).copied().flatten()?,
            Trip::Unknown => return None,
        };
        n = n.saturating_mul(v.max(0));
    }
    Some(n)
}

/// One memory access whose touched byte region `[lo, hi)` was bounded
/// statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRange {
    /// The load/store/atomic instruction.
    pub inst: InstId,
    /// Whether the access writes memory (stores and atomics).
    pub is_store: bool,
    /// First byte touched.
    pub lo: i64,
    /// One past the last byte touched.
    pub hi: i64,
    /// Provable execution count of the access under the bound arguments
    /// (`None` when the enclosing block's count is not provable, e.g.
    /// conditionally executed code).
    pub count: Option<i64>,
}

/// Loop-summarized memory footprint of one function under bound
/// arguments: every reachable load, store, and atomic, split into
/// statically bounded regions and a count of accesses whose region could
/// not be bounded (unknown pointer arguments, data-dependent indices).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Accesses with a proven byte region.
    pub bounded: Vec<AccessRange>,
    /// Reachable accesses with no provable region. A nonempty list means
    /// the function may touch *any* address.
    pub unbounded: Vec<InstId>,
}

impl Footprint {
    /// Computes the footprint of `func` under `args`. The summary
    /// includes conditionally executed accesses (they *may* touch their
    /// region), recording provable execution counts where available; the
    /// race pass keeps the accesses that provably execute (`count ≥ 1`)
    /// and are not atomics.
    pub fn compute(func: &Function, args: &[Option<i64>]) -> Footprint {
        let cfg = Cfg::new(func);
        let dom = cfg.dominators();
        let exec = ExecCounts::compute(func, &cfg, &dom);
        let ivs = iv_ranges(func, &cfg, &dom, args);
        let mut fp = Footprint::default();
        for block in func.blocks() {
            if !cfg.is_reachable(block.id()) {
                continue;
            }
            let count = eval_trip_product(exec.count(block.id()), args);
            for &iid in block.insts() {
                let inst = func.inst(iid);
                let (addr, is_store) = match inst.op() {
                    Opcode::Load { addr } => (addr, false),
                    Opcode::Store { addr, .. } => (addr, true),
                    Opcode::AtomicRmw { addr, .. } => (addr, true),
                    _ => continue,
                };
                match addr_range(func, addr, args, &ivs) {
                    Some((lo, hi)) => {
                        let size = access_size(func, inst.op(), inst.ty());
                        fp.bounded.push(AccessRange {
                            inst: iid,
                            is_store,
                            lo,
                            hi: hi + size,
                            count,
                        });
                    }
                    None => fp.unbounded.push(iid),
                }
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;

    /// `f(p, n)`: for i in 0..8 { p[i] <- i }; if n-dependent path also
    /// stores through an unknown pointer.
    #[test]
    fn counted_loop_footprint_is_bounded() {
        let mut m = Module::new("fp");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let p = b.param(0);
        b.emit_counted_loop("l", Constant::i64(0).into(), Constant::i64(8).into(), |b, iv| {
            let addr = b.gep(p, iv, 8);
            b.store(addr, iv);
        });
        b.ret(None);

        let fp = Footprint::compute(m.function(f), &[Some(1000)]);
        assert!(fp.unbounded.is_empty());
        assert_eq!(fp.bounded.len(), 1);
        let a = &fp.bounded[0];
        assert!(a.is_store);
        assert_eq!((a.lo, a.hi), (1000, 1000 + 8 * 8));
        assert_eq!(a.count, Some(8), "store runs once per iteration");
    }

    #[test]
    fn unknown_pointer_is_reported_unbounded() {
        let mut m = Module::new("fp");
        let f = m.add_function("k", vec![("p".into(), Type::Ptr)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        let v = b.load(Type::I64, b.param(0));
        b.store(v, Constant::i64(0).into());
        b.ret(None);

        // The load's address is the unknown parameter; the store's
        // address is the loaded (data-dependent) value.
        let fp = Footprint::compute(m.function(f), &[None]);
        assert_eq!(fp.bounded.len(), 0);
        assert_eq!(fp.unbounded.len(), 2);
        // Binding the pointer bounds the load but not the dependent store.
        let fp = Footprint::compute(m.function(f), &[Some(64)]);
        assert_eq!(fp.bounded.len(), 1);
        assert_eq!(fp.unbounded.len(), 1);
        assert!(!fp.bounded[0].is_store);
    }

    #[test]
    fn trip_product_saturates_and_clamps() {
        let factors = [Trip::Const(4), Trip::Param(0)];
        assert_eq!(eval_trip_product(Some(&factors), &[Some(3)]), Some(12));
        assert_eq!(eval_trip_product(Some(&factors), &[Some(-5)]), Some(0));
        assert_eq!(eval_trip_product(Some(&factors), &[None]), None);
        assert_eq!(eval_trip_product(None, &[]), None);
        assert_eq!(eval_trip_product(Some(&[]), &[]), Some(1));
    }
}

//! Static analyses over the MosaicSim IR.
//!
//! This module is what `mosaic-lint`, `mosaic-part`, and the compiler
//! passes build on: a control-flow graph with dominator trees
//! ([`mod@cfg`]), natural-loop detection with static trip-count bounds
//! ([`loops`]), the side-effect demand behind DCE and the dead-value lint
//! ([`demanded_values`]), and loop-summarized memory-access byte-range
//! footprints ([`footprint`]).
//!
//! All analyses are purely structural: they inspect a verified
//! [`crate::Function`] and never mutate it. The results are conservative —
//! a trip count is reported only when it is provable from the IR, and
//! every client (lints, DCE) treats `Unknown` as "anything may happen".
//!
//! # Examples
//!
//! Dominators of a diamond CFG:
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, IntPredicate};
//! use mosaic_ir::analysis::Cfg;
//!
//! let mut m = Module::new("t");
//! let f = m.add_function("k", vec![("x".into(), Type::I64)], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(f));
//! let e = b.create_block("entry");
//! let t = b.create_block("then");
//! let el = b.create_block("else");
//! let j = b.create_block("join");
//! b.switch_to(e);
//! let c = b.icmp(IntPredicate::Sgt, b.param(0), Constant::i64(0).into());
//! b.cond_br(c, t, el);
//! b.switch_to(t);
//! b.br(j);
//! b.switch_to(el);
//! b.br(j);
//! b.switch_to(j);
//! b.ret(None);
//!
//! let cfg = Cfg::new(m.function(f));
//! let dom = cfg.dominators();
//! assert_eq!(dom.idom(j), Some(e)); // the join is dominated by the entry
//! assert!(dom.dominates(e, t) && !dom.dominates(t, j));
//! ```

pub mod cfg;
mod demand;
pub mod footprint;
pub mod loops;

pub use cfg::{Cfg, DomTree};
pub use demand::demanded_values;
pub use footprint::{AccessRange, Footprint};
pub use loops::{find_loops, trip_count, ExecCounts, NaturalLoop, Trip};

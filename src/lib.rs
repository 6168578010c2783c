//! # mosaicsim
//!
//! A Rust reproduction of **MosaicSim: A Lightweight, Modular Simulator
//! for Heterogeneous Systems** (Matthews et al., ISPASS 2020) — a
//! cycle-driven, dependence-graph-based timing simulator for heterogeneous
//! SoCs, together with every substrate the paper's toolchain depends on.
//!
//! This crate is the facade: it re-exports the whole stack under one
//! dependency. The pieces are:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`ir`] | `mosaic-ir` | LLVM-IR substitute: SSA IR, builder, verifier, parser, functional interpreter (the Dynamic Trace Generator) — §II |
//! | [`trace`] | `mosaic-trace` | Control-flow / memory / accelerator traces — §II-A |
//! | [`ddg`] | `mosaic-ddg` | Static Data Dependency Graph generator — §II-A |
//! | [`mem`] | `mosaic-mem` | Caches, MSHRs, prefetcher, SimpleDRAM + banked DRAM — §V |
//! | [`tile`] | `mosaic-tile` | Graph-based core/accelerator tile models, MAO, channels — §III |
//! | [`accel`] | `mosaic-accel` | Analytic + cycle-level accelerator models — §IV |
//! | [`core`] | `mosaic-core` | Interleaver, system builder, energy/EDP, runner — §II |
//! | [`obs`] | `mosaic-obs` | Stats registry, cycle timelines, IR-level hotspot profiling |
//! | [`ckpt`] | `mosaic-ckpt` | Deterministic checkpoint/restore snapshot format |
//! | [`passes`] | `mosaic-passes` | DAE slicing (DeSC), DCE — §VII-A |
//! | [`lint`] | `mosaic-lint` | Static channel-protocol, race, and liveness analysis over the IR |
//! | [`part`] | `mosaic-part` | Static tile-interference graph and static horizons |
//! | [`kernels`] | `mosaic-kernels` | Parboil-style suite + case-study workloads — §VI/§VII |
//!
//! # Quickstart
//!
//! ```
//! use mosaicsim::prelude::*;
//!
//! // 1. Build a kernel (here: one of the bundled Parboil-style kernels).
//! let prepared = mosaicsim::kernels::build_parboil("sgemm", 1);
//!
//! // 2. Run the Dynamic Trace Generator (functional execution).
//! let (trace, _outcome) = prepared.trace(1)?;
//!
//! // 3. Simulate on an out-of-order core with the Table-I memory system.
//! let report = SystemBuilder::new(
//!         std::sync::Arc::new(prepared.module),
//!         std::sync::Arc::new(trace),
//!     )
//!     .memory(xeon_memory())
//!     .core(CoreConfig::out_of_order(), prepared.func, 0)
//!     .run()?;
//!
//! println!("{report}");
//! assert!(report.ipc() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for heterogeneous SoCs, DAE pipelines, multicore
//! scaling, and accelerator design-space exploration, and `crates/bench`
//! for the harnesses that regenerate every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use mosaic_accel as accel;
pub use mosaic_ckpt as ckpt;
pub use mosaic_core as core;
pub use mosaic_ddg as ddg;
pub use mosaic_ir as ir;
pub use mosaic_kernels as kernels;
pub use mosaic_lint as lint;
pub use mosaic_mem as mem;
pub use mosaic_obs as obs;
pub use mosaic_part as part;
pub use mosaic_passes as passes;
pub use mosaic_tile as tile;
pub use mosaic_trace as trace;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use mosaic_accel::{AccelBank, AccelConfig};
    pub use mosaic_core::{
        dae_channel, dae_memory, load_system_config, parse_system_config, record_trace,
        simulate_single, simulate_spmd, small_memory, xeon_memory, LintLevel,
        MosaicError, SimError, SimReport, StallSnapshot, SystemBuilder,
    };
    pub use mosaic_ir::{
        parse_module, print_module, verify_module, BinOp, Constant, FunctionBuilder, MemImage,
        Module, RtVal, TileProgram, Type,
    };
    pub use mosaic_kernels::Prepared;
    pub use mosaic_mem::{CacheConfig, DramKind, HierarchyConfig, PrefetchConfig};
    pub use mosaic_obs::{IrProfile, ObsLevel, StatsRegistry, Timeline};
    pub use mosaic_part::{InterferenceGraph, MemGeometry};
    pub use mosaic_passes::{slice_dae, DaeQueues};
    pub use mosaic_tile::{BranchMode, ChannelConfig, CoreConfig};
    pub use mosaic_trace::{KernelTrace, TraceRecorder};
}

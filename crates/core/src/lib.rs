//! # mosaic-core
//!
//! The simulator core of MosaicSim-RS: the [`Interleaver`] that composes
//! tile models into system-wide performance estimates (paper §II, Fig. 2),
//! system configuration presets reproducing the paper's Tables I and II,
//! the energy/EDP model, and the end-to-end runner pipeline
//! (build IR → trace → simulate, paper Fig. 3).
//!
//! # Examples
//!
//! End-to-end single-core simulation:
//!
//! ```
//! use mosaic_core::{simulate_single, small_memory};
//! use mosaic_ir::{Module, FunctionBuilder, Type, Constant, BinOp, MemImage, RtVal};
//! use mosaic_tile::CoreConfig;
//!
//! let mut m = Module::new("demo");
//! let f = m.add_function("scale", vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(f));
//! let (p, n) = (b.param(0), b.param(1));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
//!     let a = b.gep(p, i, 4);
//!     let v = b.load(Type::F32, a);
//!     let v2 = b.bin(BinOp::FMul, v, Constant::f32(3.0).into());
//!     b.store(a, v2);
//! });
//! b.ret(None);
//!
//! let mut img = MemImage::new();
//! let buf = img.alloc_f32(256);
//! let report = simulate_single(
//!     m, f,
//!     vec![RtVal::Int(buf as i64), RtVal::Int(256)],
//!     img,
//!     CoreConfig::out_of_order(),
//!     small_memory(),
//! )?;
//! assert!(report.cycles > 0 && report.ipc() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod config;
mod config_file;
pub mod energy;
mod error;
mod interleaver;
mod runner;
mod system;

pub use config::{dae_channel, dae_memory, print_table1, print_table2, small_memory, xeon_memory};
pub use config_file::{load_system_config, parse_system_config, ConfigError};
pub use error::MosaicError;
pub use interleaver::{ChannelSnapshot, Interleaver, SimError, StallSnapshot};
pub use mosaic_lint::{LintLevel, LintReport};
pub use runner::{record_trace, simulate_single, simulate_spmd};
pub use system::{SimReport, SystemBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{
        BinOp, Constant, FunctionBuilder, IntPredicate, MemImage, Module, RtVal, Type,
    };
    use mosaic_tile::CoreConfig;

    /// SPMD vector-increment kernel with interleaved work distribution.
    fn spmd_kernel(elem_ty: Type) -> (Module, mosaic_ir::FuncId) {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(e);
        let tid = b.tile_id();
        let nt = b.num_tiles();
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi_incomplete(Type::I64);
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let a = b.gep(p, i, elem_ty.size_bytes());
        let v = b.load(elem_ty, a);
        let v2 = if elem_ty.is_float() {
            b.bin(BinOp::FAdd, v, Constant::f32(1.0).into())
        } else {
            b.bin(BinOp::Add, v, Constant::i32(1).into())
        };
        b.store(a, v2);
        let i2 = b.bin(BinOp::Add, i, nt);
        b.br(header);
        b.phi_add_incoming(i_phi, e, tid);
        b.phi_add_incoming(i_phi, body, i2);
        b.switch_to(exit);
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        (m, f)
    }

    #[test]
    fn spmd_scaling_reduces_cycles() {
        let n = 2048i64;
        let run = |tiles: usize| {
            let (m, f) = spmd_kernel(Type::I32);
            let mut img = MemImage::new();
            let buf = img.alloc_i32(n as u64);
            simulate_spmd(
                m,
                f,
                vec![RtVal::Int(buf as i64), RtVal::Int(n)],
                img,
                tiles,
                CoreConfig::out_of_order(),
                small_memory(),
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(four.cycles < one.cycles, "4 cores must beat 1");
        let speedup = one.cycles as f64 / four.cycles as f64;
        assert!(speedup > 1.5, "speedup {speedup:.2} too low");
        assert_eq!(four.tiles.len(), 4);
        // Same loop work; each extra tile only adds its own entry/exit
        // overhead instructions.
        let diff = four.total_retired.abs_diff(one.total_retired);
        assert!(diff < 64, "partitioning changed work by {diff} insts");
    }

    #[test]
    fn report_energy_components_positive() {
        let (m, f) = spmd_kernel(Type::F32);
        let mut img = MemImage::new();
        let buf = img.alloc_f32(256);
        let report = simulate_single(
            m,
            f,
            vec![RtVal::Int(buf as i64), RtVal::Int(256)],
            img,
            CoreConfig::out_of_order(),
            small_memory(),
        )
        .unwrap();
        assert!(report.core_energy_pj > 0.0);
        assert!(report.mem_energy_pj > 0.0);
        assert!(report.static_energy_pj > 0.0);
        assert!(report.edp_js() > 0.0);
        let txt = report.to_string();
        assert!(txt.contains("cycles:"));
        assert!(txt.contains("IPC"));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let (m, f) = spmd_kernel(Type::I32);
        let mut img = MemImage::new();
        let buf = img.alloc_i32(4096);
        let programs =
            mosaic_ir::TileProgram::spmd(f, vec![RtVal::Int(buf as i64), RtVal::Int(4096)], 1);
        let (trace, _) = record_trace(&m, img, &programs).unwrap();
        let err = SystemBuilder::new(std::sync::Arc::new(m), std::sync::Arc::new(trace))
            .memory(small_memory())
            .core(CoreConfig::in_order(), f, 0)
            .cycle_limit(100)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            MosaicError::Sim(SimError::CycleLimit { .. })
        ));
    }

    #[test]
    fn interleaver_clock_divisors_slow_tiles() {
        let (m, f) = spmd_kernel(Type::I32);
        let mut img = MemImage::new();
        let buf = img.alloc_i32(1024);
        let args = vec![RtVal::Int(buf as i64), RtVal::Int(1024)];
        let programs = mosaic_ir::TileProgram::spmd(f, args, 1);
        let (trace, _) = record_trace(&m, img, &programs).unwrap();
        let m = std::sync::Arc::new(m);
        let trace = std::sync::Arc::new(trace);

        let fast = SystemBuilder::new(m.clone(), trace.clone())
            .memory(small_memory())
            .core(CoreConfig::out_of_order(), f, 0)
            .run()
            .unwrap();
        let slow = SystemBuilder::new(m, trace)
            .memory(small_memory())
            .core(CoreConfig::out_of_order().with_clock_divisor(4), f, 0)
            .run()
            .unwrap();
        assert!(
            slow.cycles > fast.cycles * 2,
            "a 4x slower clock should roughly quadruple cycles ({} vs {})",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn xeon_memory_is_larger_but_not_slower_for_small_kernels() {
        let (m, f) = spmd_kernel(Type::I32);
        let mut img = MemImage::new();
        let buf = img.alloc_i32(512);
        let report = simulate_single(
            m,
            f,
            vec![RtVal::Int(buf as i64), RtVal::Int(512)],
            img,
            CoreConfig::out_of_order(),
            xeon_memory(),
        )
        .unwrap();
        assert!(report.cycles > 0);
        // 512 i32s fit easily: after cold misses, everything hits.
        assert!(report.mem.l1_hits > report.mem.l1_misses);
    }
}

#[cfg(test)]
mod pipeline_invariant_tests {
    //! Deterministic parameter sweeps (formerly proptest) over the full
    //! trace + simulate pipeline.
    use super::*;
    use mosaic_ir::{BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal, Type};
    use mosaic_tile::CoreConfig;

    /// Builds a strided read-modify-write kernel over `n` elements with a
    /// parameterized arithmetic chain.
    fn kernel(chain: usize) -> (Module, mosaic_ir::FuncId) {
        let mut m = Module::new("p");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
            let a = b.gep(p, i, 4);
            let mut v = b.load(Type::I32, a);
            for k in 0..chain {
                v = b.bin(BinOp::Add, v, Constant::i32(k as i32).into());
            }
            b.store(a, v);
        });
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        (m, f)
    }

    /// The full pipeline (trace + simulate) is bit-deterministic for
    /// any kernel shape, element count, tile count, and core width.
    #[test]
    fn pipeline_is_deterministic() {
        for (n, chain, tiles, width) in [
            (1i64, 0usize, 1usize, 1u32),
            (37, 2, 2, 3),
            (113, 5, 3, 2),
            (299, 1, 1, 5),
            (64, 3, 3, 4),
            (200, 4, 2, 1),
        ] {
            let run = || {
                let (m, f) = kernel(chain);
                let mut img = MemImage::new();
                let buf = img.alloc_i32(n as u64);
                let mut cfg = CoreConfig::out_of_order();
                cfg.issue_width = width;
                simulate_spmd(
                    m,
                    f,
                    vec![RtVal::Int(buf as i64), RtVal::Int(n)],
                    img,
                    tiles,
                    cfg,
                    small_memory(),
                )
                .unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.total_retired, b.total_retired);
            assert_eq!(a.mem, b.mem);
        }
    }

    /// Wider issue never makes a kernel slower (monotonicity of the
    /// width resource under identical everything-else).
    #[test]
    fn issue_width_is_monotone() {
        for (n, chain) in [(32i64, 1usize), (100, 3), (199, 4)] {
            let run = |width: u32| {
                let (m, f) = kernel(chain);
                let mut img = MemImage::new();
                let buf = img.alloc_i32(n as u64);
                let mut cfg = CoreConfig::out_of_order();
                cfg.issue_width = width;
                simulate_spmd(
                    m,
                    f,
                    vec![RtVal::Int(buf as i64), RtVal::Int(n)],
                    img,
                    1,
                    cfg,
                    small_memory(),
                )
                .unwrap()
                .cycles
            };
            let narrow = run(1);
            let wide = run(8);
            assert!(wide <= narrow, "width 8 ({wide}) slower than width 1 ({narrow})");
        }
    }
}

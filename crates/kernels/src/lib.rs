//! # mosaic-kernels
//!
//! The benchmark workloads of the MosaicSim evaluation, re-implemented
//! against the `mosaic-ir` builder:
//!
//! * [`parboil`] — the eleven Parboil-style kernels of paper §VI-A
//!   (Figs. 5–9): `bfs`, `cutcp`, `histo`, `lbm`, `mri_gridding`,
//!   `mri_q`, `sad`, `sgemm`, `spmv`, `stencil`, `tpacf`. Each preserves
//!   the original kernel's loop structure, access pattern, and arithmetic
//!   mix at reduced input scale.
//! * [`projection`] — the bipartite graph projection kernel of the DAE
//!   case study (paper §VII-A, Fig. 11).
//! * [`sinkhorn`] — the EWSD microbenchmark and the combined sparse/dense
//!   Sinkhorn-style kernels (paper §VII-B, Figs. 12–13), with
//!   accelerator-offloaded SGEMM variants.
//! * [`keras`] — layer graphs for the three DNN applications of
//!   paper §VII-C (ConvNet, GraphSage, RecSys) and their per-layer
//!   op/byte counts.
//! * [`data`] — deterministic workload generators (arrays, CSR sparse
//!   matrices, random graphs, bipartite graphs).
//!
//! Every kernel constructor returns a [`Prepared`] bundle: module,
//! function, arguments, and the filled memory image — ready for tracing.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod data;
pub mod keras;
pub mod parboil;
pub mod projection;
pub mod sinkhorn;

use mosaic_ir::{
    Constant, ExecOutcome, FuncId, FunctionBuilder, MemImage, Module, Operand, RtVal, TileProgram,
};
use mosaic_trace::{KernelTrace, TraceRecorder};

/// A kernel ready to trace and simulate: module + entry function +
/// arguments + initialized memory image.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Kernel display name (Parboil benchmark name or case-study id).
    pub name: String,
    /// The IR module.
    pub module: Module,
    /// The kernel entry function.
    pub func: FuncId,
    /// Argument values.
    pub args: Vec<RtVal>,
    /// Memory image with inputs loaded.
    pub mem: MemImage,
}

impl Prepared {
    /// SPMD tile programs for `tiles` tiles.
    pub fn programs(&self, tiles: usize) -> Vec<TileProgram> {
        TileProgram::spmd(self.func, self.args.clone(), tiles)
    }

    /// Runs the Dynamic Trace Generator on `tiles` tiles.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures (deadlock, trap, step limit).
    pub fn trace(&self, tiles: usize) -> Result<(KernelTrace, ExecOutcome), mosaic_ir::ExecError> {
        let mut rec = TraceRecorder::new(tiles);
        let out = mosaic_ir::run_tiles(
            &self.module,
            self.mem.clone(),
            &self.programs(tiles),
            &mut rec,
        )?;
        Ok((rec.finish(), out))
    }
}

/// Emits the standard SPMD prologue: returns `(tid, num_tiles)` as `i64`
/// operands.
pub(crate) fn emit_spmd_ids(b: &mut FunctionBuilder<'_>) -> (Operand, Operand) {
    let tid = b.tile_id();
    let nt = b.num_tiles();
    (tid, nt)
}

/// Shorthand for an `i64` constant operand.
pub(crate) fn c64(v: i64) -> Operand {
    Constant::i64(v).into()
}

/// Shorthand for an `f32` constant operand.
pub(crate) fn cf32(v: f32) -> Operand {
    Constant::f32(v).into()
}

/// Names of all Parboil-style kernels in Fig. 5 order.
pub const PARBOIL_NAMES: [&str; 11] = [
    "bfs",
    "cutcp",
    "histo",
    "lbm",
    "mri-gridding",
    "mri-q",
    "sad",
    "sgemm",
    "spmv",
    "stencil",
    "tpacf",
];

/// Builds a Parboil-style kernel by name at the given problem scale
/// (1 = the default small dataset; larger values grow the input).
///
/// # Panics
///
/// Panics on an unknown name; valid names are [`PARBOIL_NAMES`].
pub fn build_parboil(name: &str, scale: u32) -> Prepared {
    match name {
        "bfs" => parboil::bfs::build(scale),
        "cutcp" => parboil::cutcp::build(scale),
        "histo" => parboil::histo::build(scale),
        "lbm" => parboil::lbm::build(scale),
        "mri-gridding" => parboil::mri_gridding::build(scale),
        "mri-q" => parboil::mri_q::build(scale),
        "sad" => parboil::sad::build(scale),
        "sgemm" => parboil::sgemm::build(scale),
        "spmv" => parboil::spmv::build(scale),
        "stencil" => parboil::stencil::build(scale),
        "tpacf" => parboil::tpacf::build(scale),
        other => panic!("unknown Parboil kernel `{other}`"),
    }
}

/// Every kernel the repository bundles, at a small scale: the Parboil
/// suite in [`PARBOIL_NAMES`] order, graph projection, the Sinkhorn
/// kernels (EWSD, SGEMM on the core and on the accelerator, the three
/// combined mixes) and the accelerated Keras apps. A kernel's IR shape is
/// scale-independent; only its trip-count constants change.
pub fn bundled() -> Vec<Prepared> {
    let mut out: Vec<Prepared> = PARBOIL_NAMES.iter().map(|name| build_parboil(name, 1)).collect();
    out.push(projection::build(1));
    out.push(sinkhorn::ewsd(sinkhorn::BASE_NNZ));
    out.push(sinkhorn::sgemm_micro(1));
    out.push(sinkhorn::accel_sgemm_micro(sinkhorn::BASE_DIM));
    for mix in [sinkhorn::Mix::DenseHeavy, sinkhorn::Mix::Equal, sinkhorn::Mix::SparseHeavy] {
        out.push(sinkhorn::combined(mix, 1, true));
    }
    out.extend(keras::all_apps().iter().map(keras::KerasApp::lower_accelerated));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_parboil_kernels_build_and_verify() {
        for name in PARBOIL_NAMES {
            let p = build_parboil(name, 1);
            mosaic_ir::verify_module(&p.module)
                .unwrap_or_else(|e| panic!("{name} failed verification: {e}"));
            assert_eq!(p.name, name);
        }
    }

    #[test]
    fn all_parboil_kernels_trace_single_tile() {
        for name in PARBOIL_NAMES {
            let p = build_parboil(name, 1);
            let (trace, out) = p
                .trace(1)
                .unwrap_or_else(|e| panic!("{name} failed to execute: {e}"));
            assert!(
                trace.tile(0).retired() > 100,
                "{name} retired too few instructions: {}",
                trace.tile(0).retired()
            );
            assert!(out.steps > 0, "{name} made no progress");
        }
    }

    #[test]
    fn spmd_kernels_partition_work() {
        for name in ["bfs", "sgemm", "spmv"] {
            let p = build_parboil(name, 1);
            let (t1, _) = p.trace(1).unwrap();
            let (t4, _) = p.trace(4).unwrap();
            let total1 = t1.total_retired();
            let total4 = t4.total_retired();
            // Partitioned work should be within 35% of single-tile work
            // (imbalance + per-tile loop overhead).
            let ratio = total4 as f64 / total1 as f64;
            assert!(
                (0.65..1.35).contains(&ratio),
                "{name}: work changed by {ratio:.2}x under SPMD"
            );
            // And the per-tile maximum must be well below the total.
            let max_tile = t4.tiles().map(|t| t.retired()).max().unwrap();
            assert!(
                (max_tile as f64) < 0.7 * total4 as f64,
                "{name}: tile imbalance, max {max_tile} of {total4}"
            );
        }
    }

    #[test]
    fn scale_grows_work() {
        for name in ["sgemm", "spmv", "stencil"] {
            let small = build_parboil(name, 1).trace(1).unwrap().0.total_retired();
            let big = build_parboil(name, 2).trace(1).unwrap().0.total_retired();
            assert!(big > small, "{name}: scale=2 not bigger than scale=1");
        }
    }
}

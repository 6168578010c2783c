//! # mosaic-accel
//!
//! Accelerator performance models (paper §IV): the three fidelity levels
//! MosaicSim offers for accelerator simulation —
//!
//! 1. **Pre-RTL graph-based tiles** live in `mosaic-tile` (a `CoreTile`
//!    built from [`mosaic_tile::CoreConfig::accelerator`]): the CPU
//!    dependence-graph engine with accelerator-style resource provisioning.
//! 2. **Cycle-level pipeline reference** ([`rtl_cycles`]): the exact
//!    event schedule of the HLS-style load/compute/store pipeline with a
//!    double-buffered PLM — our stand-in for SystemC/RTL simulation.
//! 3. **Back-annotated analytic model** ([`analytic_estimate`]): the
//!    paper's generic closed-form model (§IV-B), the one the Interleaver
//!    invokes during system simulation because it "takes nearly no time to
//!    execute".
//!
//! [`fpga_cycles`] adds device-driver overhead and SoC interference on top
//! of the cycle-level reference, standing in for the paper's full-system
//! FPGA measurements (Fig. 10d).
//!
//! [`AccelBank`] wires the analytic models into the tile/Interleaver
//! machinery via [`mosaic_tile::AccelSim`].
//!
//! # Examples
//!
//! ```
//! use mosaic_accel::{AccelBank, AccelConfig, analytic_estimate, rtl_cycles};
//! use mosaic_ir::AccelOp;
//!
//! let cfg = AccelConfig::default().with_plm_bytes(64 * 1024);
//! let args = [0, 0, 0, 128, 128, 128]; // SGEMM 128x128x128
//! let fast = analytic_estimate(AccelOp::Sgemm, &args, &cfg);
//! let exact = rtl_cycles(AccelOp::Sgemm, &args, &cfg);
//! let accuracy = (fast.cycles as f64 / exact.cycles as f64).min(
//!     exact.cycles as f64 / fast.cycles as f64);
//! assert!(accuracy > 0.9);
//!
//! let mut bank = AccelBank::new();
//! bank.configure(AccelOp::Sgemm, cfg);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod analytic;
mod config;
mod fpga;
mod rtl;
mod workload;

pub use analytic::{analytic_estimate, AnalyticOutcome};
pub use config::AccelConfig;
pub use fpga::{fpga_cycles, FpgaOutcome};
pub use rtl::{rtl_cycles, RtlOutcome};
pub use workload::Workload;

use std::collections::HashMap;

use mosaic_ir::AccelOp;
use mosaic_tile::{AccelResult, AccelSim, TileError};

/// A set of configured accelerator tiles exposed to the simulator.
///
/// When a core tile issues an accelerator invocation, the Interleaver
/// queries this bank (paper §IV-A); the bank dispatches to the analytic
/// performance model for the invoked function and returns its cycles and
/// energy.
#[derive(Debug, Clone, Default)]
pub struct AccelBank {
    configs: HashMap<AccelOp, AccelConfig>,
}

impl AccelBank {
    /// An empty bank; unconfigured accelerators fall back to
    /// [`AccelConfig::default`].
    pub fn new() -> Self {
        AccelBank::default()
    }

    /// Installs (or replaces) the configuration for one accelerator.
    pub fn configure(&mut self, accel: AccelOp, config: AccelConfig) -> &mut Self {
        self.configs.insert(accel, config);
        self
    }

    /// The configuration used for `accel`.
    pub(crate) fn config(&self, accel: AccelOp) -> AccelConfig {
        self.configs.get(&accel).copied().unwrap_or_default()
    }
}

impl AccelSim for AccelBank {
    fn invoke(&mut self, accel: AccelOp, args: &[i64]) -> Result<AccelResult, TileError> {
        let config = self.config(accel);
        let est = analytic_estimate(accel, args, &config);
        Ok(AccelResult {
            cycles: est.cycles + config.invocation_overhead,
            energy_pj: est.energy_pj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_dispatches_and_accounts() {
        let mut bank = AccelBank::new();
        let r1 = bank.invoke(AccelOp::Sgemm, &[0, 0, 0, 64, 64, 64]).unwrap();
        let r2 = bank.invoke(AccelOp::ElementWise, &[0, 0, 0, 4096]).unwrap();
        assert!(r1.cycles > 0 && r2.cycles > 0);
    }

    #[test]
    fn per_accelerator_configuration_respected() {
        let mut bank = AccelBank::new();
        bank.configure(
            AccelOp::Sgemm,
            AccelConfig::default().with_plm_bytes(4 * 1024),
        );
        let small_plm = bank.invoke(AccelOp::Sgemm, &[0, 0, 0, 256, 256, 256]).unwrap().cycles;
        bank.configure(
            AccelOp::Sgemm,
            AccelConfig::default().with_plm_bytes(256 * 1024),
        );
        let big_plm = bank.invoke(AccelOp::Sgemm, &[0, 0, 0, 256, 256, 256]).unwrap().cycles;
        assert!(big_plm < small_plm);
    }

    #[test]
    fn unconfigured_accelerator_uses_defaults() {
        let mut bank = AccelBank::new();
        let r = bank.invoke(AccelOp::Relu, &[1 << 16]).unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn proptest_analytic_never_exceeds_double_rtl() {
        // Cheap grid property: the analytic estimate stays within 2x of
        // the cycle-level schedule everywhere on a coarse sweep.
        for accel in [AccelOp::Sgemm, AccelOp::Histogram, AccelOp::ElementWise] {
            for plm in [4096u64, 65536, 262144] {
                for n in [32i64, 512, 2048] {
                    let cfg = AccelConfig::default().with_plm_bytes(plm);
                    let args = match accel {
                        AccelOp::Sgemm => vec![0, 0, 0, n.min(256), n.min(256), n.min(256)],
                        AccelOp::Histogram => vec![0, 0, n * 16, 256],
                        AccelOp::ElementWise => vec![0, 0, 0, n * 16],
                        _ => unreachable!(),
                    };
                    let a = analytic_estimate(accel, &args, &cfg).cycles as f64;
                    let r = rtl_cycles(accel, &args, &cfg).cycles as f64;
                    assert!(a / r < 2.0 && r / a < 2.0, "{}: {a} vs {r}", accel.name());
                }
            }
        }
    }
}

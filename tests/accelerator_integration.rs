//! Integration tests for accelerator-offloaded systems (paper §IV, §VII-B).

use mosaicsim::accel::{analytic_estimate, fpga_cycles, rtl_cycles};
use mosaicsim::ir::AccelOp;
use mosaicsim::kernels::sinkhorn::{combined, Mix};
use mosaicsim::prelude::*;

fn simulate(p: &mosaicsim::kernels::Prepared, bank: AccelBank) -> SimReport {
    let builder = support::spmd(p, &CoreConfig::out_of_order(), 1, dae_memory());
    let builder = builder.accelerators(Box::new(bank));
    builder.run().expect("simulate")
}

#[test]
fn accelerator_offload_speeds_up_dense_heavy_kernel() {
    let cpu = simulate(&combined(Mix::DenseHeavy, 1, false), AccelBank::new());
    let acc = simulate(&combined(Mix::DenseHeavy, 1, true), AccelBank::new());
    let speedup = cpu.cycles as f64 / acc.cycles as f64;
    assert!(
        speedup > 2.0,
        "SGEMM accelerator should pay off on a dense-heavy kernel: {speedup:.2}x"
    );
    let accel_invocations: u64 = acc.tiles.iter().map(|t| t.accel_invocations).sum();
    assert_eq!(accel_invocations, 1);
}

#[test]
fn accelerator_helps_less_on_sparse_heavy_kernel() {
    let ratio = |mix: Mix| {
        let cpu = simulate(&combined(mix, 1, false), AccelBank::new());
        let acc = simulate(&combined(mix, 1, true), AccelBank::new());
        cpu.cycles as f64 / acc.cycles as f64
    };
    let dense = ratio(Mix::DenseHeavy);
    let sparse = ratio(Mix::SparseHeavy);
    assert!(
        dense > sparse,
        "offload gain must shrink as the sparse phase dominates: dense {dense:.2}x vs sparse {sparse:.2}x"
    );
}

#[test]
fn model_accuracy_bands_hold_across_the_dse_grid() {
    // Fig. 10d aggregated: analytic-vs-RTL in the high 90s, analytic-vs-
    // FPGA high 80s/low 90s, for every accelerator and PLM size.
    for accel in [AccelOp::Sgemm, AccelOp::Histogram, AccelOp::ElementWise] {
        let mut rtl_accs = Vec::new();
        let mut fpga_accs = Vec::new();
        for plm_kb in [4u64, 16, 64, 256] {
            let cfg = AccelConfig::default().with_plm_bytes(plm_kb * 1024);
            let args = match accel {
                AccelOp::Sgemm => vec![0, 0, 0, 256, 256, 256],
                AccelOp::Histogram => vec![0, 0, 1 << 18, 256],
                AccelOp::ElementWise => vec![0, 0, 0, 1 << 18],
                _ => unreachable!(),
            };
            let a = analytic_estimate(accel, &args, &cfg).cycles as f64;
            let r = rtl_cycles(accel, &args, &cfg).cycles as f64;
            let f = fpga_cycles(accel, &args, &cfg).cycles as f64;
            rtl_accs.push((a / r).min(r / a));
            fpga_accs.push((a / f).min(f / a));
        }
        let rtl_avg = rtl_accs.iter().sum::<f64>() / rtl_accs.len() as f64;
        let fpga_avg = fpga_accs.iter().sum::<f64>() / fpga_accs.len() as f64;
        assert!(
            rtl_avg > 0.90,
            "{}: avg accuracy vs RTL too low: {rtl_avg:.3}",
            accel.name()
        );
        assert!(
            fpga_avg > 0.80 && fpga_avg < rtl_avg,
            "{}: FPGA accuracy band violated: {fpga_avg:.3} (rtl {rtl_avg:.3})",
            accel.name()
        );
    }
}

#[test]
fn keras_apps_lower_and_simulate() {
    for app in mosaicsim::kernels::keras::all_apps() {
        let p = app.lower_accelerated();
        let report = simulate(&p, AccelBank::new());
        let invocations: u64 = report.tiles.iter().map(|t| t.accel_invocations).sum();
        assert_eq!(
            invocations as usize,
            app.layers.iter().filter(|l| l.is_accelerable()).count(),
            "{}",
            app.name
        );
        assert!(report.cycles > 0);
    }
}

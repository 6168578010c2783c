//! The paper's case studies (§VII): Table II and Figs. 11–14 —
//! decoupled access/execute pairs, accelerators, and both combined.

use mosaic_accel::{analytic_estimate, AccelBank, AccelConfig};
use mosaic_core::{dae_channel, dae_memory, print_table2, xeon_memory, EnergyModel};
use mosaic_ir::AccelOp;
use mosaic_kernels::keras::{all_apps, KerasApp};
use mosaic_kernels::sinkhorn::{self, Mix};
use mosaic_kernels::{parboil::sgemm, projection, Prepared};
use mosaic_passes::{slice_dae, DaeQueues};
use mosaic_tile::CoreConfig;

use crate::figures::paper_rows;
use crate::{run_dae_pairs, run_spmd, run_with_accel, Cell, Table};

/// Table II: the DAE case-study parameters, as the paper lists them and
/// as the Fig. 11–13 harnesses instantiate them.
pub fn table2_dae_params() -> Vec<Table> {
    let print = print_table2();
    let mut rows = paper_rows(&print);
    let heads = rows.next().expect("heads");
    let heads: Vec<(&str, usize)> = heads.iter().map(|h| (h.as_str(), 0)).collect();
    let mut paper = Table::new("Table II — parameters for DAE case-study", &heads);
    for mut cells in rows {
        // A memory-system row gives one value for both cores.
        let key = cells.remove(0);
        cells.resize(2, cells[0].clone());
        paper.row(key, cells.into_iter().map(Cell::Text));
    }
    let mut built = Table::new(
        "Table II as instantiated — `CoreConfig` and `mosaic_core::dae_channel()`",
        &[("unit", 0), ("width / entries", 0), ("window", 0), ("LSQ", 0), ("latency", 0)],
    );
    built.columns.push(("area (mm^2)".into(), 2));
    let (ino, ch, none) = (CoreConfig::in_order(), dae_channel(), || Cell::from("—"));
    for (name, c) in [("OoO", &CoreConfig::out_of_order()), ("InO", &ino)] {
        let sizes = [c.issue_width as u64, c.window_size, c.lsq_size as u64].map(Cell::from);
        built.row(name, sizes.into_iter().chain([none(), c.area_mm2.into()]));
    }
    let buffer = [(ch.capacity as u64).into(), none(), none(), ch.latency.into(), none()];
    built.row("comm buffer", buffer);
    built.row("8 × InO", [none(), none(), none(), none(), (8.0 * ino.area_mm2).into()]);
    vec![paper, built]
}

/// Cycles of `p`'s access and execute slices as `pairs` DAE pairs.
fn dae(mut p: Prepared, pairs: usize) -> u64 {
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let r = run_dae_pairs(&p, slices, pairs, dae_memory(), dae_channel());
    r.expect("DAE system drains").cycles
}

/// Cycles of `p` on `tiles` SPMD copies of `core` over the Table-II memory.
fn spmd(p: &Prepared, tiles: usize, core: CoreConfig) -> u64 {
    run_spmd(p, tiles, core, dae_memory()).cycles
}

/// Cycles of `p` on one OoO core with the SGEMM accelerator at a 64 KB PLM.
fn accelerated(p: &Prepared) -> u64 {
    let mut bank = AccelBank::new();
    bank.configure(AccelOp::Sgemm, AccelConfig::default().with_plm_bytes(64 * 1024));
    run_with_accel(p, CoreConfig::out_of_order(), dae_memory(), bank).cycles
}

/// Fig. 11: speedups of homogeneous and heterogeneous (DAE) systems on
/// the bipartite graph-projection kernel over one in-order core: 1 InO vs
/// 1 OoO, 2 InO vs 1 DAE pair, and the OoO-area-equivalent 8 InO vs 4 DAE
/// pairs (Table II: 8 × 1.01 mm² ≈ 8.44 mm²). The paper: "DAE
/// heterogeneity outperforms OoO by nearly 2×".
pub fn fig11_dae() -> Vec<Table> {
    let p = projection::build(1);
    let base = spmd(&p, 1, CoreConfig::in_order()) as f64;
    let mut t = Table::new(
        "Fig. 11 — graph projection speedups (normalized to 1 In-Order core)",
        &[("system", 0), ("speedup", 2)],
    );
    t.row("1 In-Order", [1.0.into()]);
    t.row("1 Out-of-Order", [(base / spmd(&p, 1, CoreConfig::out_of_order()) as f64).into()]);
    for cores in [2, 8] {
        let s = base / spmd(&p, cores, CoreConfig::in_order()) as f64;
        t.row(format!("{cores} In-Order (homogeneous)"), [s.into()]);
    }
    for (pairs, name) in [(1, "1 DAE pair (2 InO cores)"), (4, "4 DAE pairs (8 InO cores)")] {
        t.row(name, [(base / dae(p.clone(), pairs) as f64).into()]);
    }
    vec![t.with_note(
        "(paper: OoO ≈ 3.5x; 1 DAE pair > 2 InO; 4 DAE pairs ≈ 2x the area-equivalent 8-InO \
         homogeneous system)",
    )]
}

/// Fig. 12: the EWSD and SGEMM microbenchmarks optimized independently
/// (§VII-B). EWSD is memory-bound and gains most from DAE latency
/// tolerance (paper ≈ 6×); SGEMM is compute-bound and gains most from the
/// fixed-function accelerator (paper ≈ 45×).
pub fn fig12_microbench() -> Vec<Table> {
    let (ino, ooo) = (CoreConfig::in_order, CoreConfig::out_of_order);
    let [ewsd, sgemm] = [sinkhorn::ewsd(sinkhorn::BASE_NNZ), sinkhorn::sgemm_micro(1)].map(|p| {
        let base = spmd(&p, 1, ino()) as f64;
        let cycles = [spmd(&p, 4, ino()), spmd(&p, 8, ino()), spmd(&p, 1, ooo()), dae(p, 4)];
        (base, cycles.map(|c| base / c as f64))
    });
    let mut t = Table::new(
        "Fig. 12 — EWSD and SGEMM optimized independently (speedup vs 1 IO)",
        &[("system", 0), ("EWSD", 2), ("SGEMM", 2)],
    );
    t.row("1 IO", [1.0.into(), 1.0.into()]);
    for (i, name) in ["4 IO", "8 IO", "1 OoO", "4+4 IO DAE"].into_iter().enumerate() {
        t.row(name, [ewsd.1[i].into(), sgemm.1[i].into()]);
    }
    // The SGEMM accelerator invoked from an OoO host core.
    let accel = accelerated(&sinkhorn::accel_sgemm_micro(sinkhorn::BASE_DIM));
    t.row("Accel.", ["—".into(), (sgemm.0 / accel as f64).into()]);
    vec![t.with_note("(paper: DAE gives EWSD ≈ 6x; the accelerator gives SGEMM ≈ 45x)")]
}

/// The two phases of a Fig. 13 mix, at the mix's sizes: SGEMM at its
/// dense dimension (on the cores, or as one accelerator call) and EWSD at
/// its nonzeros.
struct Phases {
    dim: usize,
    nnz: usize,
}

impl Phases {
    fn of(mix: Mix) -> Phases {
        let (dim, nnz) = mix.sizes(1);
        Phases { dim, nnz }
    }

    fn sgemm(&self) -> Prepared {
        sgemm::build_with_dims(self.dim, self.dim, self.dim)
    }

    fn sgemm_accel(&self) -> Prepared {
        sinkhorn::accel_sgemm_micro(self.dim)
    }

    fn ewsd(&self) -> Prepared {
        sinkhorn::ewsd(self.nnz)
    }
}

/// Fig. 13: the combined sparse+dense kernel across workload mixes
/// (§VII-B). The phases run back-to-back, so a system's runtime is the sum
/// of its phases'; heterogeneous systems route each phase to the tile that
/// suits it (the accelerator for SGEMM, DAE pairs for EWSD). The paper:
/// without the accelerator, sparse-heavy favours DAE and dense-heavy the
/// OoO core; with it, DAE + accel wins every mix.
pub fn fig13_combined() -> Vec<Table> {
    let mixes = [Mix::DenseHeavy, Mix::Equal, Mix::SparseHeavy];
    let mut heads = vec![("system", 0)];
    heads.extend(mixes.map(|m| (m.label(), 2)));
    let mut t = Table::new("Fig. 13 — combined SGEMM+EWSD kernel (speedup vs 1 IO core)", &heads);
    let (ino, ooo) = (CoreConfig::in_order, CoreConfig::out_of_order);
    let speedups = mixes.map(|mix| {
        let ph = Phases::of(mix);
        let (dense, sparse) = (ph.sgemm(), ph.ewsd());
        let homog = |n, core: fn() -> _| spmd(&dense, n, core()) + spmd(&sparse, n, core());
        let base = homog(1, ino) as f64;
        let dae_sparse = dae(ph.ewsd(), 4);
        let [dae, dae_accel] = [dae(ph.sgemm(), 4), accelerated(&ph.sgemm_accel())];
        let systems = [homog(4, ino), homog(8, ino), homog(1, ooo)];
        let systems = systems.into_iter().chain([dae, dae_accel].map(|d| d + dae_sparse));
        systems.map(|c| base / c as f64).collect::<Vec<_>>()
    });
    let names = ["4 IO", "8 IO", "1 OoO", "4+4 IO DAE", "4+4 IO DAE w/Accel"];
    for (i, name) in names.into_iter().enumerate() {
        t.row(name, speedups.iter().map(|s| Cell::from(s[i])));
    }
    let sizes = mixes.map(|m| format!("{}³ dense + {} nonzeros", m.sizes(1).0, m.sizes(1).1));
    let sizes = sizes.join(", ");
    vec![t.with_note(format!("(mixes: {sizes}; paper: DAE+accelerator wins every mix)"))]
}

/// A layer's cycles on the OoO core: its ops at `per_op`, or its bytes at
/// `bw` bytes a cycle, whichever is longer.
fn cpu_layer(ops: u64, bytes: u64, per_op: f64, bw: f64) -> f64 {
    (ops as f64 * per_op).max(bytes as f64 / bw)
}

/// The accelerator SoC's cycles and accelerator energy: accelerable
/// layers take the analytic models' cycles (8 instances, as in the paper's
/// SoC), the rest stay on the CPU.
fn soc_cycles(app: &KerasApp, per_op: f64, bw: f64) -> (f64, f64) {
    let config = AccelConfig::default().with_plm_bytes(128 * 1024);
    let (mut cycles, mut accel_pj) = (0.0, 0.0);
    for l in &app.layers {
        match &l.accel {
            Some((op, args)) => {
                let est = analytic_estimate(*op, args, &config);
                cycles += est.cycles as f64;
                accel_pj += est.energy_pj;
            }
            None => cycles += cpu_layer(l.ops, l.bytes, per_op, bw),
        }
    }
    (cycles, accel_pj)
}

/// Fig. 14: the energy-delay-product gain of an accelerator-oriented SoC
/// over an out-of-order server core for the three Keras applications
/// (§VII-C). CPU phase costs are calibrated, not assumed: a dense MAC loop
/// simulated on the OoO core gives its cycles per operation, and
/// memory-bound phases are costed by DRAM bandwidth; the SoC pays the
/// analytic accelerator model's cycles plus the CPU cost of the layers no
/// accelerator covers.
pub fn fig14_keras_edp() -> Vec<Table> {
    let energy = EnergyModel::default();
    let mac = sgemm::build_with_dims(48, 48, 48);
    let mac_cycles = run_spmd(&mac, 1, CoreConfig::out_of_order(), xeon_memory()).cycles;
    let per_op = mac_cycles as f64 / (48u64 * 48 * 48) as f64;
    let bw = 21.25; // Table I DRAM bytes/cycle
    // Energy: the CPU pays OoO static energy and a per-op dynamic cost;
    // the SoC pays accelerator energy, the CPU share of the layers left on
    // it, and the same static energy.
    let ooo_area = CoreConfig::out_of_order().area_mm2;
    let cpu_pj_per_op = 2.0; // OoO datapath energy per elementary op
    let mut t = Table::new(
        "Fig. 14 — energy-delay improvement from hardware accelerators",
        &[("app", 0), ("coverage (%)", 0), ("cpu cycles", 0), ("soc cycles", 0)],
    );
    t.columns.push(("EDP gain".into(), 1));
    for app in all_apps() {
        let cpu_cyc: f64 = app.layers.iter().map(|l| cpu_layer(l.ops, l.bytes, per_op, bw)).sum();
        let (soc_cyc, accel_pj) = soc_cycles(&app, per_op, bw);
        // Both systems move the same data through DRAM.
        let dram_pj = app.layers.iter().map(|l| l.bytes).sum::<u64>() as f64 / 64.0 * 2600.0;
        let cpu_energy = app.total_ops() as f64 * cpu_pj_per_op
            + dram_pj
            + energy.static_energy_pj(ooo_area, cpu_cyc as u64);
        let left: u64 = app.layers.iter().filter(|l| !l.is_accelerable()).map(|l| l.ops).sum();
        let soc_energy = accel_pj
            + dram_pj
            + left as f64 * cpu_pj_per_op
            + energy.static_energy_pj(ooo_area, soc_cyc as u64);
        let gain = energy.edp(cpu_energy, cpu_cyc as u64) / energy.edp(soc_energy, soc_cyc as u64);
        let cells = [app.accel_coverage() * 100.0, cpu_cyc, soc_cyc, gain].map(Cell::from);
        t.row(app.name, cells);
    }
    vec![t.with_note(format!(
        "(calibrated OoO cost: {per_op:.3} cycles/op; paper: ConvNet 7.22x, GraphSage 38x, \
         RecSys 282.24x)"
    ))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::RtVal;

    /// Each mix's phase kernels carry the mix's own sizes: the EWSD
    /// kernel's `nnz` argument, the SGEMM kernel's and the accelerator
    /// call's dimensions.
    #[test]
    fn each_mix_runs_its_own_phase_sizes() {
        for mix in [Mix::DenseHeavy, Mix::Equal, Mix::SparseHeavy] {
            let (dim, nnz) = mix.sizes(1);
            let ph = Phases::of(mix);
            assert_eq!(ph.ewsd().args[5], RtVal::Int(nnz as i64), "{}", mix.label());
            assert_eq!(ph.sgemm().args[3..6], [RtVal::Int(dim as i64); 3], "{}", mix.label());
            let (trace, _) = ph.sgemm_accel().trace(1).expect("trace");
            let call = &trace.tile(0).accel_invocations()[0];
            assert_eq!(call.args[3..6], [dim as i64; 3], "{}", mix.label());
        }
    }
}

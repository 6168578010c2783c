//! End-to-end integration tests: build → trace → simulate across crates,
//! exercising the public facade exactly as a downstream user would.

mod support;

use mosaicsim::kernels::{build_parboil, PARBOIL_NAMES};
use mosaicsim::prelude::*;

/// Traces a kernel once and simulates it under `config`.
fn simulate(name: &str, tiles: usize, config: CoreConfig) -> SimReport {
    let p = build_parboil(name, 1);
    let builder = support::spmd(&p, &config, tiles, xeon_memory());
    builder.run().expect("simulate")
}

/// A second run of spmv on two OoO tiles is the first, field for field.
#[test]
fn simulation_is_deterministic() {
    use support::relations::{hold, AGAIN, FF};
    let covers = |s: &str| s == "spmv@1/ooo/2t";
    hold(&[("rerun ≡ run", covers, [support::everything; 2], vec![(AGAIN, FF)])]);
}

#[test]
fn every_parboil_kernel_simulates_on_ooo() {
    for name in PARBOIL_NAMES {
        let report = simulate(name, 1, CoreConfig::out_of_order());
        assert!(report.cycles > 0, "{name} produced no cycles");
        assert!(report.ipc() > 0.05, "{name} IPC implausibly low");
        assert!(report.ipc() < 16.0, "{name} IPC implausibly high");
    }
}

#[test]
fn ooo_beats_ino_on_every_kernel() {
    for name in ["sgemm", "spmv", "stencil"] {
        let ooo = simulate(name, 1, CoreConfig::out_of_order());
        let ino = simulate(name, 1, CoreConfig::in_order());
        assert!(
            ooo.cycles < ino.cycles,
            "{name}: OoO ({}) not faster than InO ({})",
            ooo.cycles,
            ino.cycles
        );
    }
}

#[test]
fn compute_bound_kernels_scale_better_than_latency_bound() {
    let speedup = |name: &str| {
        let one = simulate(name, 1, CoreConfig::out_of_order()).cycles as f64;
        let four = simulate(name, 4, CoreConfig::out_of_order()).cycles as f64;
        one / four
    };
    let sgemm = speedup("sgemm");
    let bfs = speedup("bfs");
    assert!(
        sgemm > bfs,
        "SGEMM ({sgemm:.2}x) should scale better than BFS ({bfs:.2}x)"
    );
    assert!(sgemm > 2.5, "SGEMM 4-tile speedup too low: {sgemm:.2}");
}

#[test]
fn memory_bound_kernel_has_lower_ipc_than_compute_bound() {
    let bfs = simulate("bfs", 1, CoreConfig::out_of_order());
    let sad = simulate("sad", 1, CoreConfig::out_of_order());
    assert!(
        bfs.ipc() < sad.ipc(),
        "bfs IPC {:.2} should be below sad IPC {:.2} (paper Fig. 6)",
        bfs.ipc(),
        sad.ipc()
    );
}

#[test]
fn report_accounts_energy_and_memory() {
    let r = simulate("stencil", 1, CoreConfig::out_of_order());
    assert!(r.core_energy_pj > 0.0);
    assert!(r.mem_energy_pj > 0.0);
    assert!(r.mem.l1_hits + r.mem.l1_misses > 0);
    let total = r.total_energy_pj();
    assert!(total >= r.core_energy_pj + r.mem_energy_pj);
}

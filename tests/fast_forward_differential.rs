//! Differential test for the event-horizon fast-forward scheduler
//! (DESIGN.md §"Event-horizon fast-forwarding").
//!
//! The fast-forward path must be an *optimization*, never a semantic
//! change: for every kernel × core model × tile count, the cycle count,
//! every per-tile statistic (including stall breakdowns), the memory
//! statistics, DRAM throttle accounting, and all energy totals must be
//! bit-identical to the naive cycle-by-cycle stepper.

mod support;

use std::sync::Arc;

use mosaicsim::kernels::build_parboil;
use mosaicsim::prelude::*;

/// Simulates `name` on `tiles` copies of `config`, with or without
/// fast-forwarding, and returns the full report.
fn simulate(name: &str, tiles: usize, config: &CoreConfig, fast_forward: bool) -> SimReport {
    let builder = support::spmd(&build_parboil(name, 1), config, tiles, xeon_memory());
    builder.fast_forward(fast_forward).run().expect("simulate")
}

/// Asserts every observable field of two reports is identical.
fn assert_reports_identical(naive: &SimReport, fast: &SimReport, label: &str) {
    assert_eq!(naive.cycles, fast.cycles, "{label}: cycle count diverged");
    assert_eq!(
        naive.total_retired, fast.total_retired,
        "{label}: retired count diverged"
    );
    assert_eq!(naive.mem, fast.mem, "{label}: memory stats diverged");
    assert_eq!(
        naive.dram_throttled, fast.dram_throttled,
        "{label}: DRAM throttle accounting diverged"
    );
    assert_eq!(
        naive.tiles.len(),
        fast.tiles.len(),
        "{label}: tile count diverged"
    );
    for (n, f) in naive.tiles.iter().zip(&fast.tiles) {
        assert_eq!(n, f, "{label}: tile {} stats diverged", n.name);
    }
    assert_eq!(
        naive.core_energy_pj.to_bits(),
        fast.core_energy_pj.to_bits(),
        "{label}: core energy diverged"
    );
    assert_eq!(
        naive.mem_energy_pj.to_bits(),
        fast.mem_energy_pj.to_bits(),
        "{label}: memory energy diverged"
    );
    assert_eq!(
        naive.static_energy_pj.to_bits(),
        fast.static_energy_pj.to_bits(),
        "{label}: static energy diverged"
    );
}

/// The full matrix from the issue: ≥4 Parboil kernels × {in-order,
/// out-of-order} × {1, 4} tiles.
#[test]
fn fast_forward_is_bit_identical_to_naive() {
    let kernels = ["bfs", "sgemm", "spmv", "histo", "stencil"];
    let cores = [
        ("in_order", CoreConfig::in_order()),
        ("out_of_order", CoreConfig::out_of_order()),
    ];
    for name in kernels {
        for (core_label, config) in &cores {
            for tiles in [1usize, 4] {
                let label = format!("{name}/{core_label}/{tiles}t");
                let naive = simulate(name, tiles, config, false);
                let fast = simulate(name, tiles, config, true);
                assert_reports_identical(&naive, &fast, &label);
            }
        }
    }
}

/// Error verdicts are part of the differential contract too: a deadlock
/// must produce the *same* [`SimError::Deadlock`] — same blocked cycle,
/// same per-tile reasons, same channel occupancies — whether it is found
/// by the fast-forward event survey or by the naive-path watchdog.
#[test]
fn deadlock_verdict_is_bit_identical_to_naive() {
    use mosaicsim::core::{record_trace, MosaicError, SimError};
    use mosaicsim::ir::{Constant, FunctionBuilder, MemImage, Module, RtVal, TileProgram, Type};

    let mut m = Module::new("dl");
    let produce = m.add_function("produce", vec![("n".into(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(produce));
    let n = b.param(0);
    let e = b.create_block("entry");
    b.switch_to(e);
    b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| b.send(0, i));
    b.ret(None);
    let consume = m.add_function("consume", vec![("n".into(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(consume));
    let n = b.param(0);
    let e = b.create_block("entry");
    b.switch_to(e);
    b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, _| {
        b.recv(0, Type::I64);
    });
    b.ret(None);
    mosaicsim::ir::verify_module(&m).expect("verify");

    // Producer sends 64, consumer takes 16: the producer eventually
    // deadlocks against the capacity-8 channel.
    let programs = vec![
        TileProgram::single(produce, vec![RtVal::Int(64)]),
        TileProgram::single(consume, vec![RtVal::Int(16)]),
    ];
    let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("functional run");
    let (m, trace) = (Arc::new(m), Arc::new(trace));

    let run = |fast_forward: bool| {
        SystemBuilder::new(m.clone(), trace.clone())
            .memory(xeon_memory())
            .channels(ChannelConfig {
                capacity: 8,
                latency: 1,
            })
            .core(CoreConfig::in_order().with_name("p"), produce, 0)
            .core(CoreConfig::in_order().with_name("c"), consume, 1)
            .fast_forward(fast_forward)
            .run()
            .expect_err("must deadlock")
    };
    let naive = run(false);
    let fast = run(true);
    assert!(
        matches!(&fast, MosaicError::Sim(SimError::Deadlock { .. })),
        "expected deadlock, got {fast:?}"
    );
    assert_eq!(naive, fast, "deadlock verdict diverged between modes");
}

/// Fast-forwarding must also preserve behavior under a banked
/// (DRAMSim-style) backend, whose horizon comes from bank state rather
/// than the SimpleDRAM epoch equation.
#[test]
fn fast_forward_identical_with_banked_dram() {
    let p = build_parboil("bfs", 1);
    let run = |fast_forward: bool| {
        let memory = support::banked(xeon_memory());
        let builder = support::spmd(&p, &CoreConfig::out_of_order(), 2, memory);
        builder.fast_forward(fast_forward).run().expect("simulate")
    };
    let naive = run(false);
    let fast = run(true);
    assert_reports_identical(&naive, &fast, "bfs/banked/2t");
}

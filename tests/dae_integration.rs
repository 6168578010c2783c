//! Integration tests for the Decoupled Access/Execute flow
//! (paper §VII-A): compiler pass → functional pair execution → timing
//! simulation with DeSC-extended cores.

mod support;

use std::sync::Arc;

use mosaicsim::kernels::projection;
use mosaicsim::prelude::*;

fn simulate_plain(p: &mosaicsim::kernels::Prepared, config: CoreConfig) -> SimReport {
    let builder = support::spmd(p, &config, 1, dae_memory());
    builder.run().expect("simulate")
}

/// `pairs` DAE pairs of projection at scale 1, `access` on the access side.
fn simulate_dae_pairs(pairs: usize, access: CoreConfig) -> SimReport {
    let mut p = projection::build(1);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    // SPMD across pairs: each pair owns a disjoint queue namespace.
    let funcs = (slices.access, slices.execute);
    let programs = TileProgram::dae_pairs(funcs.0, funcs.1, p.args.clone(), pairs);
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    SystemBuilder::new(Arc::new(p.module), Arc::new(trace))
        .memory(dae_memory())
        .channels(dae_channel())
        .dae_pairs(access, CoreConfig::in_order(), funcs, pairs)
        .run()
        .expect("simulate")
}

#[test]
fn dae_pair_beats_single_in_order_core() {
    let p = projection::build(1);
    let ino = simulate_plain(&p, CoreConfig::in_order());
    let dae = simulate_dae_pairs(1, CoreConfig::dae_access());
    let speedup = ino.cycles as f64 / dae.cycles as f64;
    assert!(
        speedup > 1.5,
        "DAE pair should clearly beat one InO core, got {speedup:.2}x"
    );
}

#[test]
fn more_dae_pairs_scale() {
    let one = simulate_dae_pairs(1, CoreConfig::dae_access());
    let four = simulate_dae_pairs(4, CoreConfig::dae_access());
    let speedup = one.cycles as f64 / four.cycles as f64;
    assert!(
        speedup > 1.5,
        "4 DAE pairs should beat 1 pair, got {speedup:.2}x"
    );
}

#[test]
fn dae_channels_drain_completely() {
    // After simulation every send was matched by a recv (no stranded
    // messages) — verified indirectly: the run terminates and both tiles
    // retire the traced instruction counts.
    let mut p = projection::build_with(40, 64);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).unwrap();
    let programs = TileProgram::dae_pairs(slices.access, slices.execute, p.args.clone(), 1);
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).unwrap();
    let expect0 = trace.tile(0).retired();
    let expect1 = trace.tile(1).retired();
    let report = SystemBuilder::new(Arc::new(p.module), Arc::new(trace))
        .memory(dae_memory())
        .channels(dae_channel())
        .core(CoreConfig::dae_access(), slices.access, 0)
        .core(CoreConfig::in_order(), slices.execute, 1)
        .run()
        .unwrap();
    assert_eq!(report.tiles[0].retired, expect0);
    assert_eq!(report.tiles[1].retired, expect1);
}

#[test]
fn desc_extensions_matter() {
    // Without the DeSC structures the InO access core serializes on its
    // loads and the pair loses most of its advantage.
    let with = simulate_dae_pairs(1, CoreConfig::dae_access());
    let without = simulate_dae_pairs(1, CoreConfig::in_order());
    assert!(
        with.cycles * 2 < without.cycles,
        "DeSC structures should at least halve the runtime: {} vs {}",
        with.cycles,
        without.cycles
    );
}

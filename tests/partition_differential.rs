//! Static/dynamic differential tests for `mosaic-part` (DESIGN.md §4.7).
//!
//! The partitioner's contract is *conservatism*: every static bound it
//! publishes must be a lower bound on what the timing simulator actually
//! observes. These tests pin that contract against the Interleaver:
//!
//! * channel-edge send and delivery bounds never exceed the first
//!   dynamically observed send/recv cycle, on both in-order and
//!   out-of-order cores;
//! * the counted-loop launch gate (the mechanism that makes post-loop
//!   sends expensive) is conservative dynamically, not just in the
//!   fixpoint's own unit tests;
//! * the real DAE-sliced projection pipeline respects its statically
//!   computed delivery bounds on every queue;
//! * the 2-shard epoch horizon of every bundled system at 8 tiles is the
//!   one in DESIGN.md §4.7's table — the measurement that ruled a BSP
//!   executor out, kept reproducible;
//! * `SystemBuilder::compute_partition_plan` succeeds on the two shapes
//!   the performance ledger calls it on.
//!
//! The static model used throughout is [`LatencyModel::default`]
//! (`alu = branch = channel = 1`, gate bounds on), which lower-bounds
//! every system built here: all core presets use static branch
//! prediction and both channel configs have latency 1.

use std::sync::Arc;

use mosaicsim::core::{record_trace, Interleaver, SimError};
use mosaicsim::ir::{Constant, FuncId, MemImage, Module, RtVal, TileProgram, Type};
use mosaicsim::kernels::{build_parboil, projection, sinkhorn, Prepared, PARBOIL_NAMES};
use mosaicsim::lint::TileBinding;
use mosaicsim::part::{partition, InterferenceGraph, LatencyModel, MemGeometry};
use mosaicsim::prelude::*;

/// Steps `il` to completion (capped) and returns, for each watched
/// queue, the first cycle a send completed and the first cycle a recv
/// completed (`None` = never happened).
fn observe_first_cycles(
    mut il: Interleaver,
    queues: &[u32],
) -> Vec<(Option<u64>, Option<u64>)> {
    il.set_fast_forward(false);
    let mut first: Vec<(Option<u64>, Option<u64>)> = vec![(None, None); queues.len()];
    for _ in 0..2_000_000u64 {
        let now = il.now();
        let done = match il.step() {
            Ok(d) => d,
            Err(SimError::Deadlock { .. }) => break,
            Err(e) => panic!("step failed: {e}"),
        };
        for (i, &q) in queues.iter().enumerate() {
            if let Some(ch) = il.channels().channel(q) {
                if first[i].0.is_none() && ch.sends() > 0 {
                    first[i].0 = Some(now);
                }
                if first[i].1.is_none() && ch.recvs() > 0 {
                    first[i].1 = Some(now);
                }
            }
        }
        if done {
            return first;
        }
    }
    panic!("cycle cap exceeded before completion");
}

/// Builds an Interleaver over `configs[i]` running `funcs[i]` with the
/// recorded per-tile traces.
fn interleaver(
    module: Arc<Module>,
    trace: &KernelTrace,
    parts: &[(CoreConfig, FuncId)],
    channel: ChannelConfig,
) -> Interleaver {
    let mut b = SystemBuilder::new(module, Arc::new(trace.clone()))
        .memory(mosaicsim::core::small_memory())
        .channels(channel);
    for (i, (cfg, f)) in parts.iter().enumerate() {
        b = b.core(cfg.clone(), *f, i);
    }
    b.build().expect("build")
}

/// Asserts every channel edge's static bounds against the dynamics:
/// `min_delivery - channel` never exceeds the first observed send, and
/// `min_delivery` never exceeds the first observed recv.
fn assert_edges_conservative(
    graph: &InterferenceGraph,
    model: &LatencyModel,
    il: Interleaver,
    label: &str,
) {
    assert!(
        !graph.channel_edges.is_empty(),
        "{label}: expected at least one channel edge"
    );
    let queues: Vec<u32> = graph.channel_edges.iter().map(|e| e.queue).collect();
    let observed = observe_first_cycles(il, &queues);
    for (e, (send, recv)) in graph.channel_edges.iter().zip(&observed) {
        let send = send.unwrap_or_else(|| panic!("{label}: q{} never sent", e.queue));
        let recv = recv.unwrap_or_else(|| panic!("{label}: q{} never received", e.queue));
        let static_send = e.min_delivery - model.channel;
        assert!(
            static_send <= send,
            "{label}: q{}: static send bound {static_send} > observed first send {send}",
            e.queue
        );
        assert!(
            e.min_delivery <= recv,
            "{label}: q{}: static delivery bound {} > observed first recv {recv}",
            e.queue,
            e.min_delivery
        );
    }
}

/// Producer sends `n` values in a loop; consumer receives `n` values.
fn chatter_module() -> (Module, FuncId, FuncId) {
    let mut m = Module::new("chatter");
    let produce = m.add_function("produce", vec![("n".into(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(produce));
    let n = b.param(0);
    let e = b.create_block("entry");
    b.switch_to(e);
    b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| {
        b.send(0, i);
    });
    b.ret(None);

    let consume = m.add_function("consume", vec![("n".into(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(consume));
    let n = b.param(0);
    let e = b.create_block("entry");
    b.switch_to(e);
    b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, _i| {
        b.recv(0, Type::I64);
    });
    b.ret(None);
    verify_module(&m).expect("verify");
    (m, produce, consume)
}

/// Producer runs a 100-trip compute loop, then sends once; consumer
/// receives once. The static send bound carries the loop's launch gate
/// (~trip count), so this exercises the expensive half of the analysis.
fn gated_module() -> (Module, FuncId, FuncId) {
    let mut m = Module::new("gated");
    let produce = m.add_function("produce", vec![("n".into(), Type::I64)], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(produce));
    let n = b.param(0);
    let e = b.create_block("entry");
    b.switch_to(e);
    b.emit_counted_loop("i", Constant::i64(0).into(), n, |_b, _i| {});
    b.send(0, Constant::i64(7).into());
    b.ret(None);

    let consume = m.add_function("consume", vec![], Type::Void);
    let mut b = FunctionBuilder::new(m.function_mut(consume));
    let e = b.create_block("entry");
    b.switch_to(e);
    b.recv(0, Type::I64);
    b.ret(None);
    verify_module(&m).expect("verify");
    (m, produce, consume)
}

fn chatter_channel() -> ChannelConfig {
    ChannelConfig {
        capacity: 8,
        latency: 1,
    }
}

#[test]
fn chatter_bounds_are_conservative_on_both_core_models() {
    let (m, produce, consume) = chatter_module();
    let n = 50i64;
    let bindings = vec![
        TileBinding::new(produce, 0, vec![Some(n)]),
        TileBinding::new(consume, 0, vec![Some(n)]),
    ];
    let model = LatencyModel::default();
    let graph = InterferenceGraph::build(&m, &bindings, MemGeometry::default(), &model);

    let programs = vec![
        TileProgram::single(produce, vec![RtVal::Int(n)]),
        TileProgram::single(consume, vec![RtVal::Int(n)]),
    ];
    let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
    let module = Arc::new(m);
    for config in [CoreConfig::in_order(), CoreConfig::out_of_order()] {
        let name = config.name.clone();
        let il = interleaver(
            module.clone(),
            &trace,
            &[(config.clone(), produce), (config, consume)],
            chatter_channel(),
        );
        assert_edges_conservative(&graph, &model, il, &format!("chatter/{name}"));
    }
}

#[test]
fn counted_loop_gate_bound_is_conservative_dynamically() {
    let (m, produce, consume) = gated_module();
    let trips = 100i64;
    let bindings = vec![
        TileBinding::new(produce, 0, vec![Some(trips)]),
        TileBinding::new(consume, 0, vec![]),
    ];
    let model = LatencyModel::default();
    let graph = InterferenceGraph::build(&m, &bindings, MemGeometry::default(), &model);
    let edge = graph
        .channel_edges
        .iter()
        .find(|e| e.queue == 0)
        .expect("produce→consume edge");
    assert!(
        edge.min_delivery >= trips as u64,
        "the post-loop send must carry the launch gate, got {}",
        edge.min_delivery
    );

    let programs = vec![
        TileProgram::single(produce, vec![RtVal::Int(trips)]),
        TileProgram::single(consume, vec![]),
    ];
    let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
    let module = Arc::new(m);
    for config in [CoreConfig::in_order(), CoreConfig::out_of_order()] {
        let name = config.name.clone();
        let il = interleaver(
            module.clone(),
            &trace,
            &[(config.clone(), produce), (config, consume)],
            chatter_channel(),
        );
        assert_edges_conservative(&graph, &model, il, &format!("gated/{name}"));
    }
}

#[test]
fn dae_projection_delivery_bounds_are_conservative() {
    let mut p = projection::build_with(40, 64);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let programs = TileProgram::dae_pairs(slices.access, slices.execute, p.args.clone(), 1);
    let bindings: Vec<TileBinding> = programs.iter().map(TileBinding::from_program).collect();
    let model = LatencyModel::default();
    let graph = InterferenceGraph::build(&p.module, &bindings, MemGeometry::default(), &model);

    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let module = Arc::new(p.module);
    let il = interleaver(
        module,
        &trace,
        &[
            (CoreConfig::dae_access(), slices.access),
            (CoreConfig::in_order(), slices.execute),
        ],
        dae_channel(),
    );
    assert_edges_conservative(&graph, &model, il, "dae-projection");
}

/// Every system the repository bundles, at a small scale (the graph
/// shape is scale-independent; only trip-count weights change).
fn bundled_kernels() -> Vec<Prepared> {
    let mut out: Vec<Prepared> = PARBOIL_NAMES.iter().map(|n| build_parboil(n, 1)).collect();
    out.push(projection::build(1));
    out.push(sinkhorn::ewsd(1));
    out.push(sinkhorn::sgemm_micro(1));
    out.push(sinkhorn::accel_sgemm_micro(1));
    for mix in [
        sinkhorn::Mix::DenseHeavy,
        sinkhorn::Mix::Equal,
        sinkhorn::Mix::SparseHeavy,
    ] {
        out.push(sinkhorn::combined(mix, 1, true));
    }
    for app in mosaicsim::kernels::keras::all_apps() {
        out.push(app.lower_accelerated());
    }
    out
}

/// DESIGN.md §4.7's table: the epoch horizon of the 2-shard cut of each
/// bundled system at 8 tiles, in `bundled_kernels` order. Thirteen rows
/// of 0 and four of 2-4 are why no BSP executor was built; `u64::MAX`
/// (the tiles never interact) is the accelerator-only systems. A kernel
/// or footprint change that moves a row fails here.
const EPOCH_HORIZONS: [(&str, u64); 21] = [
    ("bfs", 0),
    ("cutcp", 0),
    ("histo", 0),
    ("lbm", 2),
    ("mri-gridding", 0),
    ("mri-q", 0),
    ("sad", 0),
    ("sgemm", 2),
    ("spmv", 0),
    ("stencil", 4),
    ("tpacf", 0),
    ("projection", 0),
    ("ewsd", 0),
    ("sgemm", 2),
    ("sgemm+accel", u64::MAX),
    ("sinkhorn-dense-heavy+accel", 0),
    ("sinkhorn-equal-sparse-dense+accel", 0),
    ("sinkhorn-sparse-heavy+accel", 0),
    ("ConvNet", u64::MAX),
    ("GraphSage", u64::MAX),
    ("RecSys", u64::MAX),
];

#[test]
fn bundled_systems_have_the_epoch_horizons_that_ruled_bsp_out() {
    let model = LatencyModel::default();
    let systems = bundled_kernels();
    assert_eq!(systems.len(), EPOCH_HORIZONS.len());
    for (p, (name, horizon)) in systems.iter().zip(EPOCH_HORIZONS) {
        assert_eq!(p.name, name, "bundled systems in table order");
        let bindings: Vec<TileBinding> = p
            .programs(8)
            .iter()
            .map(TileBinding::from_program)
            .collect();
        let graph = InterferenceGraph::build(&p.module, &bindings, MemGeometry::default(), &model);
        let plan = partition(&graph, 2);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.tiles.len()).collect();
        assert_eq!(sizes, [4, 4], "{name}: an even 2-way cut of 8 tiles");
        assert_eq!(plan.epoch_horizon, horizon, "{name}");
    }
}

/// The two `manytile_chan` shapes of the performance ledger, the one
/// caller `compute_partition_plan` has left: eight SPMD spmv tiles, and
/// projection as four DAE pairs in their own queue namespaces.
#[test]
fn builder_plans_the_two_shapes_the_ledger_times() {
    let spmv = build_parboil("spmv", 1);
    let (trace, _) = record_trace(&spmv.module, spmv.mem.clone(), &spmv.programs(8)).expect("trace");
    let mut builder = SystemBuilder::new(Arc::new(spmv.module), Arc::new(trace));
    for slot in 0..8 {
        builder = builder.core(CoreConfig::in_order(), spmv.func, slot);
    }
    let plan = builder.compute_partition_plan(2).expect("spmv plan");
    assert_eq!((plan.tiles, plan.shards.len()), (8, 2));

    let mut p = projection::build_with(40, 64);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let funcs = (slices.access, slices.execute);
    let programs = TileProgram::dae_pairs(funcs.0, funcs.1, p.args.clone(), 4);
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let builder = SystemBuilder::new(Arc::new(p.module), Arc::new(trace))
        .channels(dae_channel())
        .dae_pairs(CoreConfig::dae_access(), CoreConfig::in_order(), funcs, 4);
    let plan = builder.compute_partition_plan(2).expect("projection plan");
    assert_eq!((plan.tiles, plan.shards.len()), (8, 2));
}

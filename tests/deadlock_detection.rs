//! Deadlock-detector integration tests (DESIGN.md §4.3).
//!
//! Each test builds a kernel pair that deadlocks *in the timing model*
//! (the functional interpreter completes, so a trace exists) and asserts
//! that the run returns [`SimError::Deadlock`] with a wait-for snapshot —
//! at the cycle the system blocked, not at the cycle cap — and that the
//! fast-forwarding and naive schedulers return bit-identical verdicts.

use std::sync::Arc;

use mosaicsim::core::{record_trace, Interleaver, MosaicError, SimError, SystemBuilder};
use mosaicsim::ir::{Constant, FunctionBuilder, MemImage, Module, RtVal, TileProgram, Type};
use mosaicsim::mem::MemoryHierarchy;
use mosaicsim::tile::{ChannelConfig, ChannelSet, CoreConfig, CoreTile, NoAccel, StallReason, Tile};

/// Module with a producer that sends `n` values on queue 0 and a consumer
/// that receives `n` values from queue 0.
fn chatter_module() -> (Module, mosaicsim::ir::FuncId, mosaicsim::ir::FuncId) {
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

    mosaicsim::ir::verify_module(&m).expect("verify");
    (m, produce, consume)
}

/// Records the trace of one producer/consumer pair with the given counts.
fn chatter_trace(
    m: &Module,
    produce: mosaicsim::ir::FuncId,
    consume: mosaicsim::ir::FuncId,
    sends: i64,
    recvs: i64,
) -> mosaicsim::trace::KernelTrace {
    let programs = vec![
        TileProgram::single(produce, vec![RtVal::Int(sends)]),
        TileProgram::single(consume, vec![RtVal::Int(recvs)]),
    ];
    let (trace, _) = record_trace(m, MemImage::new(), &programs).expect("functional run");
    trace
}

/// Builds the timing system for one recorded producer/consumer trace.
fn chatter_builder(
    m: &Module,
    trace: &mosaicsim::trace::KernelTrace,
    produce: mosaicsim::ir::FuncId,
    consume: mosaicsim::ir::FuncId,
    capacity: usize,
    consumer_offset: u32,
) -> SystemBuilder {
    SystemBuilder::new(Arc::new(m.clone()), Arc::new(trace.clone()))
        .memory(mosaicsim::core::small_memory())
        .channels(ChannelConfig {
            capacity,
            latency: 1,
        })
        .core(CoreConfig::in_order().with_name("producer"), produce, 0)
        .core(
            CoreConfig::in_order()
                .with_name("consumer")
                .with_queue_offset(consumer_offset),
            consume,
            1,
        )
}

fn expect_deadlock(result: Result<mosaicsim::core::SimReport, MosaicError>) -> SimError {
    match result {
        Err(MosaicError::Sim(e @ SimError::Deadlock { .. })) => e,
        other => panic!("expected a deadlock verdict, got {other:?}"),
    }
}

/// A producer that sends more values than the consumer ever receives
/// blocks on the full channel once the consumer finishes: `SendFull`.
#[test]
fn overproducing_sender_deadlocks_on_full_channel() {
    let (m, produce, consume) = chatter_module();
    // Functional queues are unbounded, so sending 100 and receiving 10
    // completes functionally; the timing model's capacity-8 channel
    // blocks the producer at send 19 (10 received + 8 buffered).
    let trace = chatter_trace(&m, produce, consume, 100, 10);

    let err = expect_deadlock(
        chatter_builder(&m, &trace, produce, consume, 8, 0)
            .run(),
    );
    let SimError::Deadlock { snapshot } = &err else {
        unreachable!()
    };
    // Only the producer is unfinished, blocked sending on queue 0.
    assert_eq!(snapshot.tiles.len(), 1, "consumer finished: {snapshot}");
    assert_eq!(snapshot.tiles[0].tile, "producer");
    assert_eq!(
        snapshot.tiles[0].reason,
        StallReason::SendFull { queue: 0 },
        "snapshot must name the blocked channel: {snapshot}"
    );
    // The blocking channel is reported full.
    let ch = snapshot
        .channels
        .iter()
        .find(|c| c.queue == 0)
        .expect("channel 0 in snapshot");
    assert_eq!(ch.occupancy, ch.capacity);
    assert_eq!(ch.capacity, 8);
    assert_eq!(ch.recvs, 10);
    assert!(snapshot.cycle > 0);
    // The rendering names the ingredients a user needs.
    let text = err.to_string();
    assert!(text.contains("producer"), "{text}");
    assert!(text.contains("full channel 0"), "{text}");

    // The naive stepper (watchdog path) returns the bit-identical
    // verdict, however many quiet cycles later its watchdog fires.
    let naive = expect_deadlock(
        chatter_builder(&m, &trace, produce, consume, 8, 0)
            .fast_forward(false)
            .run(),
    );
    assert_eq!(naive, err, "naive verdict diverged");
}

/// A consumer wired (by queue offset) to a channel nobody sends on blocks
/// on the empty channel; the producer blocks on the full one. Both sides
/// appear in the snapshot.
#[test]
fn mismatched_queue_wiring_deadlocks_both_tiles() {
    let (m, produce, consume) = chatter_module();
    let trace = chatter_trace(&m, produce, consume, 20, 20);

    // The consumer's timing config shifts its queues by 7, so it receives
    // from channel 7 while the producer fills channel 0.
    let err = expect_deadlock(
        chatter_builder(&m, &trace, produce, consume, 4, 7)
            .run(),
    );
    let SimError::Deadlock { snapshot } = &err else {
        unreachable!()
    };
    assert_eq!(snapshot.tiles.len(), 2, "{snapshot}");
    assert_eq!(snapshot.tiles[0].reason, StallReason::SendFull { queue: 0 });
    assert_eq!(snapshot.tiles[1].reason, StallReason::RecvEmpty { queue: 7 });
    let ch0 = snapshot
        .channels
        .iter()
        .find(|c| c.queue == 0)
        .expect("channel 0");
    assert_eq!(ch0.occupancy, 4);
    assert_eq!(ch0.recvs, 0);

    let naive = expect_deadlock(
        chatter_builder(&m, &trace, produce, consume, 4, 7)
            .fast_forward(false)
            .run(),
    );
    assert_eq!(naive, err);
}

/// A supply/compute pair with mismatched produce counts: the producer's
/// trace sends 5 values, the consumer's trace expects 10. Assembled from
/// two separate recordings, because the mismatch cannot execute
/// functionally.
#[test]
fn mismatched_produce_counts_deadlock_at_blocking_cycle() {
    let (m, produce, consume) = chatter_module();
    let short = chatter_trace(&m, produce, consume, 5, 5);
    let long = chatter_trace(&m, produce, consume, 10, 10);
    let module = Arc::new(m);

    let run = |fast_forward: bool| {
        let producer = CoreTile::new(
            CoreConfig::in_order().with_name("supply"),
            module.clone(),
            produce,
            Arc::new(short.tile(0).clone()),
            0,
        );
        let consumer = CoreTile::new(
            CoreConfig::in_order().with_name("compute"),
            module.clone(),
            consume,
            Arc::new(long.tile(1).clone()),
            1,
        );
        let tiles: Vec<Box<dyn Tile>> = vec![Box::new(producer), Box::new(consumer)];
        let mem = MemoryHierarchy::new(mosaicsim::core::small_memory(), 2);
        let channels = ChannelSet::new(ChannelConfig {
            capacity: 8,
            latency: 1,
        });
        let mut il = Interleaver::new(tiles, mem, channels, Box::new(NoAccel));
        il.set_fast_forward(fast_forward);
        il.run()
    };

    let err = run(true).expect_err("must deadlock");
    let SimError::Deadlock { snapshot } = &err else {
        panic!("expected deadlock, got {err:?}");
    };
    // The producer finished its 5 sends; only the starved consumer hangs.
    assert_eq!(snapshot.tiles.len(), 1, "{snapshot}");
    assert_eq!(snapshot.tiles[0].tile, "compute");
    assert_eq!(snapshot.tiles[0].reason, StallReason::RecvEmpty { queue: 0 });
    let ch = snapshot
        .channels
        .iter()
        .find(|c| c.queue == 0)
        .expect("channel 0");
    assert_eq!(ch.sends, 5);
    assert_eq!(ch.recvs, 5);
    assert_eq!(ch.occupancy, 0);
    // Detected at the cycle the system blocked, far below the cycle cap.
    assert!(snapshot.cycle < 10_000, "cycle {} not early", snapshot.cycle);

    // Naive stepping agrees bit-for-bit.
    assert_eq!(run(false).expect_err("must deadlock"), err);
}

/// A consumer wired to a channel nobody ever sends on only *waits* on it,
/// for hundreds of cycles in which the producer works and the consumer's
/// steps are answered from its stall memo (DESIGN.md §4.2.1), not walked.
/// Waiting is touching: when the producer finishes and the system
/// deadlocks, the snapshot lists the consumer's channel, created and never
/// used, the same under both schedulers.
#[test]
fn channel_a_tile_only_ever_waited_on_is_in_the_snapshot() {
    let (m, produce, consume) = chatter_module();
    let trace = chatter_trace(&m, produce, consume, 300, 300);
    // The producer's 300 sends fit its channel; the consumer listens on 7.
    let build = || chatter_builder(&m, &trace, produce, consume, 512, 7);

    let err = expect_deadlock(build().run());
    let SimError::Deadlock { snapshot } = &err else {
        unreachable!()
    };
    assert_eq!(snapshot.tiles.len(), 1, "producer finished: {snapshot}");
    assert_eq!(snapshot.tiles[0].reason, StallReason::RecvEmpty { queue: 7 });
    assert!(snapshot.cycle > 300, "blocked at {}: the producer ran on", snapshot.cycle);
    let queues: Vec<u32> = snapshot.channels.iter().map(|c| c.queue).collect();
    assert_eq!(queues, [0, 7], "{snapshot}");
    let waited = &snapshot.channels[1];
    assert_eq!((waited.sends, waited.recvs, waited.occupancy), (0, 0, 0));
    assert_eq!(snapshot.channels[0].occupancy, 300);

    let naive = expect_deadlock(build().fast_forward(false).run());
    assert_eq!(naive, err, "naive verdict diverged");
}

/// A live-but-slow system still reports `CycleLimit`, not `Deadlock`:
/// the watchdog only fires on provable no-progress.
#[test]
fn live_system_hitting_cap_is_not_a_deadlock() {
    let (m, produce, consume) = chatter_module();
    let trace = chatter_trace(&m, produce, consume, 200, 200);
    for ff in [true, false] {
        let err = chatter_builder(&m, &trace, produce, consume, 8, 0)
            .fast_forward(ff)
            .cycle_limit(40)
            .run()
            .expect_err("cap must trip");
        assert!(
            matches!(err, MosaicError::Sim(SimError::CycleLimit { .. })),
            "expected CycleLimit, got {err:?}"
        );
    }
}

//! Static/dynamic differential tests for `mosaic-lint` (DESIGN.md §4.4).
//!
//! The linter's contract is *soundness of errors*: every error-severity
//! finding must correspond to a real dynamic failure, and every bundled
//! kernel must lint clean and actually terminate. These tests pin both
//! directions against the simulator:
//!
//! * the deadlock-detection scenarios of `tests/deadlock_detection.rs`
//!   are flagged statically — naming the channel and the blocking
//!   instruction — *and* deadlock dynamically;
//! * the balanced scenario is statically clean and terminates;
//! * every bundled paper kernel lints clean at `Deny` and completes
//!   functional execution (and a representative subset completes the
//!   full timing simulation).

use std::sync::Arc;

use mosaicsim::core::{record_trace, Interleaver, MosaicError, SimError, SystemBuilder};
use mosaicsim::ir::{Constant, FunctionBuilder, MemImage, Module, RtVal, TileProgram, Type};
use mosaicsim::kernels::{build_parboil, bundled, Prepared};
use mosaicsim::lint::{lint_system, LintReport, Severity, TileBinding};
use mosaicsim::mem::MemoryHierarchy;
use mosaicsim::tile::{ChannelConfig, ChannelSet, CoreConfig, CoreTile, NoAccel, Tile};

/// Producer sends `n` values on queue 0; consumer receives `n` values.
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

/// Statically lints the chatter system under concrete bindings.
fn lint_chatter(sends: i64, recvs: i64, consumer_offset: u32) -> LintReport {
    let (m, produce, consume) = chatter_module();
    let tiles = vec![
        TileBinding::new(produce, 0, vec![Some(sends)]),
        TileBinding::new(consume, consumer_offset, vec![Some(recvs)]),
    ];
    lint_system(&m, &tiles)
}

/// Runs the chatter system through the timing simulator.
fn run_chatter(
    sends: i64,
    recvs: i64,
    consumer_offset: u32,
) -> Result<mosaicsim::core::SimReport, MosaicError> {
    let (m, produce, consume) = chatter_module();
    let programs = vec![
        TileProgram::single(produce, vec![RtVal::Int(sends)]),
        TileProgram::single(consume, vec![RtVal::Int(recvs)]),
    ];
    let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("functional run");
    SystemBuilder::new(Arc::new(m), Arc::new(trace))
        .memory(mosaicsim::core::small_memory())
        .channels(ChannelConfig {
            capacity: 8,
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
        .run()
}

fn assert_deadlocks(result: Result<mosaicsim::core::SimReport, MosaicError>) {
    assert!(
        matches!(result, Err(MosaicError::Sim(SimError::Deadlock { .. }))),
        "expected a dynamic deadlock"
    );
}

/// Every error must name the channel and the blocking instruction, so a
/// user can find the offending send/recv without running anything.
fn assert_names_channel_and_inst(report: &LintReport, queue: u32) {
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error && d.queue == Some(queue))
        .unwrap_or_else(|| panic!("no error naming q{queue}: {report}"));
    assert!(d.inst.is_some(), "finding must name the instruction: {d}");
    assert!(
        d.message.contains(&format!("q{queue}")),
        "message must name the channel: {d}"
    );
}

/// Scenario 1 of `deadlock_detection.rs`: 100 sends vs 10 recvs. The
/// linter proves the imbalance from the loop trip counts and names the
/// send that will block; the simulator confirms with `SendFull`.
#[test]
fn overproduction_flagged_statically_and_deadlocks() {
    let report = lint_chatter(100, 10, 0);
    assert_names_channel_and_inst(&report, 0);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("100 value(s) sent but only 10 received")),
        "{report}"
    );
    assert_deadlocks(run_chatter(100, 10, 0));
}

/// Scenario 2: the consumer's queue offset strands both endpoints. The
/// linter flags both orphaned channels; the simulator deadlocks with the
/// producer on full q0 and the consumer on empty q7.
#[test]
fn queue_offset_mismatch_flagged_statically_and_deadlocks() {
    let report = lint_chatter(20, 20, 7);
    assert_names_channel_and_inst(&report, 0);
    assert_names_channel_and_inst(&report, 7);
    assert_deadlocks(run_chatter(20, 20, 7));
}

/// Scenario 3: 5 sends vs 10 recvs. The linter names the recv that
/// starves; dynamically the consumer hangs on the drained channel. The
/// mismatch cannot execute functionally, so — like the corresponding
/// `deadlock_detection.rs` scenario — the timing system is spliced from
/// two matched recordings and driven through the Interleaver directly.
#[test]
fn starved_consumer_flagged_statically_and_deadlocks() {
    let report = lint_chatter(5, 10, 0);
    assert_names_channel_and_inst(&report, 0);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("10 value(s) received but only 5 sent")),
        "{report}"
    );

    let (m, produce, consume) = chatter_module();
    let record = |n: i64| {
        let programs = vec![
            TileProgram::single(produce, vec![RtVal::Int(n)]),
            TileProgram::single(consume, vec![RtVal::Int(n)]),
        ];
        record_trace(&m, MemImage::new(), &programs).expect("functional run").0
    };
    let short = record(5);
    let long = record(10);
    let module = Arc::new(m);
    let producer = CoreTile::new(
        CoreConfig::in_order(),
        module.clone(),
        produce,
        Arc::new(short.tile(0).clone()),
        0,
    );
    let consumer = CoreTile::new(
        CoreConfig::in_order(),
        module,
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
    let err = il.run().expect_err("must deadlock");
    assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
}

/// Scenario 4: balanced 200/200 — slow but live. The linter must NOT
/// flag it (no false positives), and the system runs to completion.
#[test]
fn balanced_chatter_is_clean_and_terminates() {
    let report = lint_chatter(200, 200, 0);
    assert!(report.is_clean(), "false positive: {report}");
    let sim = run_chatter(200, 200, 0).expect("balanced system must terminate");
    assert!(sim.cycles > 0);
}

/// Bindings for a prepared kernel as an SPMD system on `tiles` tiles.
fn kernel_bindings(p: &Prepared, tiles: usize) -> Vec<TileBinding> {
    p.programs(tiles)
        .iter()
        .map(TileBinding::from_program)
        .collect()
}

/// Every bundled kernel lints clean at `Deny` (zero findings, not just
/// zero errors) and completes functional execution — the linter marks it
/// deadlock-free and it is.
#[test]
fn bundled_kernels_lint_clean_and_terminate_functionally() {
    for p in bundled() {
        let report = lint_system(&p.module, &kernel_bindings(&p, 2));
        assert!(report.is_clean(), "{}: {report}", p.name);
        p.trace(2)
            .unwrap_or_else(|e| panic!("{} did not terminate: {e}", p.name));
    }
}

/// A representative subset of lint-clean kernels also completes the full
/// timing simulation (the Interleaver agrees with the static verdict).
#[test]
fn lint_clean_kernels_terminate_under_interleaver() {
    for name in ["sgemm", "spmv", "bfs"] {
        let p = build_parboil(name, 1);
        assert!(lint_system(&p.module, &kernel_bindings(&p, 2)).is_clean());
        let memory = mosaicsim::core::small_memory();
        let builder = support::spmd(&p, &CoreConfig::in_order(), 2, memory);
        let builder = builder.lint(mosaicsim::core::LintLevel::Deny);
        let report = builder.run().expect("lint-clean kernel must simulate");
        assert!(report.cycles > 0, "{name}");
    }
}

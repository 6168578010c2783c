//! Differential test for checkpoint/restore (DESIGN.md §4.6).
//!
//! The contract: resuming from a snapshot taken at cycle N is
//! *bit-identical* to a straight-through run — the final report (cycles,
//! per-tile stats, memory stats, energy bit patterns), the full stats
//! registry, and the IR profile may not differ in any way. The snapshot
//! cycle is drawn from a seeded SplitMix64 generator per configuration,
//! so each run of the suite probes the same pause points but those
//! points land mid-flight in the pipeline, the MAO, the MSHRs, and the
//! DRAM queues rather than at hand-picked quiet cycles.
//!
//! The matrix: 5 bundled kernels × {in-order, out-of-order} ×
//! {fast-forward, naive} stepping.

mod support;

use std::sync::Arc;

use mosaicsim::kernels::build_parboil;
use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::*;
use support::cramped_memory;

/// The builder for one configuration of the matrix. Straight run, prefix
/// run, and resumed run must all construct the identical system, so all
/// three go through this.
fn builder_for(p: &Prepared, trace: &Arc<KernelTrace>, config: &CoreConfig, ff: bool) -> SystemBuilder {
    SystemBuilder::new(Arc::new(p.module.clone()), trace.clone())
        .memory(xeon_memory())
        .fast_forward(ff)
        .observe(ObsLevel::Stats)
        .core(config.clone().with_name("diff"), p.func, 0)
}

/// Asserts every observable of the two runs is identical: the report
/// fields, energy bit patterns, the full registry dump, and the profile.
fn assert_identical(straight: &SimReport, resumed: &SimReport, label: &str) {
    assert_eq!(straight.cycles, resumed.cycles, "{label}: cycle count diverged");
    assert_eq!(
        straight.total_retired, resumed.total_retired,
        "{label}: retired count diverged"
    );
    assert_eq!(straight.mem, resumed.mem, "{label}: memory stats diverged");
    assert_eq!(
        straight.dram_throttled, resumed.dram_throttled,
        "{label}: DRAM throttle accounting diverged"
    );
    for (s, r) in straight.tiles.iter().zip(&resumed.tiles) {
        assert_eq!(s, r, "{label}: tile {} stats diverged", s.name);
    }
    for (field, s, r) in [
        ("core", straight.core_energy_pj, resumed.core_energy_pj),
        ("mem", straight.mem_energy_pj, resumed.mem_energy_pj),
        ("static", straight.static_energy_pj, resumed.static_energy_pj),
    ] {
        assert_eq!(s.to_bits(), r.to_bits(), "{label}: {field} energy diverged");
    }
    assert_eq!(
        straight.registry, resumed.registry,
        "{label}: registry dump diverged"
    );
    assert_eq!(straight.profile, resumed.profile, "{label}: IR profile diverged");
}

/// Snapshot at a seeded-random cycle, resume, and demand bit-identity
/// with the straight-through run, across the full kernel × core ×
/// stepping matrix.
#[test]
fn resume_is_bit_identical_to_straight_run() {
    let kernels = ["bfs", "sgemm", "spmv", "histo", "stencil"];
    let cores = [
        ("in_order", CoreConfig::in_order()),
        ("out_of_order", CoreConfig::out_of_order()),
    ];
    let mut rng = Rng::seed_from_u64(0x6d6f_7361_6963_736d); // "mosaicsm"
    for name in kernels {
        let p = build_parboil(name, 1);
        let (trace, _) = p.trace(1).expect("trace");
        let trace = Arc::new(trace);
        for (core_label, config) in &cores {
            for ff in [true, false] {
                let label = format!("{name}/{core_label}/{}", if ff { "ff" } else { "naive" });

                let straight = builder_for(&p, &trace, config, ff)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: straight run failed: {e}"));

                // Snapshot somewhere strictly inside the run, away from
                // the trivially-correct cycle-0 edge.
                let snap = 1 + rng.below(straight.cycles - 1);

                let mut il = builder_for(&p, &trace, config, ff)
                    .build()
                    .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
                let paused = il.run_until(snap).expect("prefix run");
                assert_eq!(paused, None, "{label}: prefix finished before cycle {snap}");
                // Fast-forwarding may overshoot the requested cycle (the
                // pause lands on the first *stepped* cycle at or past
                // it); the snapshot cycle just has to be inside the run.
                let ckpt = Arc::new(il.save_checkpoint());
                assert!(
                    ckpt.cycle() >= snap && ckpt.cycle() < straight.cycles,
                    "{label}: snapshot at cycle {} for request {snap}",
                    ckpt.cycle()
                );

                let resumed = builder_for(&p, &trace, config, ff)
                    .resume_from_checkpoint(ckpt)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));

                assert_identical(&straight, &resumed, &format!("{label}@{snap}"));
            }
        }
    }
}

/// The same contract through the file format: save the snapshot to disk,
/// resume with [`SystemBuilder::resume_from`], and demand bit-identity.
/// Also checks that a resumed run can itself checkpoint periodically.
#[test]
fn resume_through_a_file_is_bit_identical() {
    let p = build_parboil("sgemm", 1);
    let (trace, _) = p.trace(1).expect("trace");
    let trace = Arc::new(trace);
    let config = CoreConfig::out_of_order();

    let straight = builder_for(&p, &trace, &config, true).run().expect("straight");

    let mut il = builder_for(&p, &trace, &config, true).build().expect("build");
    assert_eq!(il.run_until(straight.cycles / 2).expect("prefix"), None);
    let dir = std::env::temp_dir();
    let path = dir.join("mosaic_ckpt_differential.mckpt");
    il.save_checkpoint().save(&path).expect("save checkpoint");

    let repath = dir.join("mosaic_ckpt_differential_re.mckpt");
    let resumed = builder_for(&p, &trace, &config, true)
        .resume_from(&path)
        .checkpoint_every(straight.cycles / 4)
        .checkpoint_to(&repath)
        .run()
        .expect("resume");
    assert_identical(&straight, &resumed, "sgemm/file");

    // The periodic snapshot the resumed run wrote must itself be loadable
    // and land at a cycle the policy says it should.
    let periodic = mosaicsim::ckpt::Checkpoint::load(&repath).expect("periodic snapshot");
    assert!(periodic.cycle() > straight.cycles / 2);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&repath).ok();
}

/// Resuming into a *different* system is a checkpoint error, not
/// undefined behavior: the tile fingerprint is verified.
#[test]
fn resume_rejects_a_mismatched_system() {
    let p = build_parboil("histo", 1);
    let (trace, _) = p.trace(1).expect("trace");
    let trace = Arc::new(trace);
    let config = CoreConfig::in_order();

    let mut il = builder_for(&p, &trace, &config, true).build().expect("build");
    assert_eq!(il.run_until(500).expect("prefix"), None);
    let ckpt = Arc::new(il.save_checkpoint());

    // Same kernel, different tile name: the fingerprint no longer
    // matches.
    let err = SystemBuilder::new(Arc::new(p.module.clone()), trace.clone())
        .memory(xeon_memory())
        .core(config.clone().with_name("other"), p.func, 0)
        .resume_from_checkpoint(ckpt)
        .run()
        .expect_err("mismatched resume must fail");
    match err {
        MosaicError::Ckpt { message } => {
            assert!(message.contains("other"), "unhelpful mismatch message: {message}");
        }
        other => panic!("expected a checkpoint error, got {other}"),
    }
}

/// Resume is bit-identical with full, dirty caches as with mostly empty
/// ones, and what the interleaver restored into held before does not
/// matter: one that has already run past the snapshot (and so holds valid
/// ways the snapshot does not name) ends in the same state as a fresh one.
#[test]
fn resume_is_bit_identical_whatever_the_caches_and_the_target_held() {
    let cramped_ways = (512 + 1024 + 2048) / 64;
    for (name, cramped) in [("stencil", true), ("histo", true), ("histo", false)] {
        let label = format!("{name}/{}", if cramped { "cramped" } else { "xeon" });
        let p = build_parboil(name, 1);
        let (trace, _) = p.trace(1).expect("trace");
        let trace = Arc::new(trace);
        let builder = || {
            let b = builder_for(&p, &trace, &CoreConfig::out_of_order(), true);
            if cramped {
                b.memory(cramped_memory())
            } else {
                b
            }
        };
        let straight = builder().run().expect("straight");

        let mut il = builder().build().expect("build");
        assert_eq!(il.run_until(straight.cycles / 2).expect("prefix"), None);
        let ckpt = Arc::new(il.save_checkpoint());
        if cramped {
            assert!(straight.mem.dram_writebacks > 0, "{label}: nothing was written back");
            let mem = ckpt.section("mem").expect("mem section");
            assert!(mem.len() >= 16 * cramped_ways, "{label}: caches not full at the pause");
        }

        let resumed = builder()
            .resume_from_checkpoint(ckpt.clone())
            .run()
            .expect("resume");
        assert_identical(&straight, &resumed, &label);

        // `il` has the snapshot's state; let it run on past the snapshot,
        // then put it back and compare with a fresh restore, at once and
        // at the end of the run.
        assert_eq!(il.run_until(straight.cycles * 3 / 4).expect("overrun"), None);
        il.restore_checkpoint(&ckpt).expect("restore into a used interleaver");
        // (`assert!`, not `assert_eq!`: a failure should not print two
        // snapshots byte by byte.)
        assert!(
            il.save_checkpoint().to_bytes() == ckpt.to_bytes(),
            "{label}: the restored state is not the snapshot's"
        );
        let mut fresh = builder().build().expect("build");
        fresh.restore_checkpoint(&ckpt).expect("restore into a fresh interleaver");
        assert_eq!(il.run().expect("used"), straight.cycles, "{label}: used target");
        assert_eq!(fresh.run().expect("fresh"), straight.cycles, "{label}: fresh target");
        assert!(
            il.save_checkpoint().to_bytes() == fresh.save_checkpoint().to_bytes(),
            "{label}: the used and the fresh target ended in different states"
        );
    }
}

/// Whole-checkpoint damage: every section of two mid-run snapshots — two
/// bfs tiles at `Trace`, and a DeSC pair — is cut short at every offset
/// (512 seeded ones where a section is over 4 KiB) and has seeded bytes
/// flipped, 2000 in all. Restoring into a fresh system must refuse every
/// cut with a typed error and survive every flip: a flipped byte may still
/// be a state some run could reach, so `Ok` is allowed — a panic, an
/// arithmetic overflow (CI runs this with overflow checks on) or an
/// allocation sized from a flipped count is not.
#[test]
fn damaged_checkpoints_are_typed_errors() {
    use mosaicsim::ckpt::{Checkpoint, CkptError, Enc};

    let bfs = build_parboil("bfs", 1);
    let (trace, _) = bfs.trace(2).expect("trace");
    let trace = Arc::new(trace);
    let two_tiles = || {
        builder_for(&bfs, &trace, &CoreConfig::out_of_order(), true)
            .observe(ObsLevel::Trace)
            .core(CoreConfig::out_of_order().with_name("second"), bfs.func, 1)
    };
    let desc = support::system("projection/desc");
    let desc_pair = || desc.builder();
    let systems: [(&str, &dyn Fn() -> SystemBuilder, u64); 2] = [
        ("bfs/2t/trace", &two_tiles, 9_000),
        ("projection/desc", &desc_pair, 12_476),
    ];
    let mut rng = Rng::seed_from_u64(0x6461_6d61_6765_6421); // "damage!"
    for (label, make, pause) in systems {
        let mut il = make().build().expect("build");
        assert_eq!(il.run_until(pause).expect("prefix"), None, "{label}");
        let good = il.save_checkpoint();
        let sections: Vec<(String, Vec<u8>)> = good
            .section_table()
            .map(|(name, _)| (name.to_string(), good.section(name).expect("listed").to_vec()))
            .collect();
        // The snapshot with `bytes` in place of section `name`, restored
        // into a system that has not run.
        let restore = |name: &str, bytes: &[u8]| -> Result<(), CkptError> {
            let mut damaged: Checkpoint = good.clone();
            let mut e = Enc::new();
            e.raw(bytes);
            damaged.add_section(name, e);
            make().build().expect("build").restore_checkpoint(&damaged)
        };
        restore("mem", good.section("mem").expect("mem")).expect("the undamaged snapshot");

        for (name, bytes) in &sections {
            let cuts: Vec<usize> = if bytes.len() > 4096 {
                (0..512).map(|_| rng.below(bytes.len() as u64) as usize).collect()
            } else {
                (0..bytes.len()).collect()
            };
            for cut in cuts {
                match restore(name, &bytes[..cut]) {
                    Err(CkptError::Truncated { .. })
                    | Err(CkptError::Corrupt { .. })
                    | Err(CkptError::Mismatch { .. }) => {}
                    other => panic!("{label}: {name} cut at {cut} of {}: {other:?}", bytes.len()),
                }
            }
        }
        let mut refused = 0;
        for _ in 0..1000 {
            let (name, bytes) = &sections[rng.below(sections.len() as u64) as usize];
            let mut bytes = bytes.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.below(255) as u8;
            match restore(name, &bytes) {
                Ok(()) => {}
                Err(CkptError::Truncated { .. })
                | Err(CkptError::Corrupt { .. })
                | Err(CkptError::Mismatch { .. }) => refused += 1,
                Err(other) => panic!("{label}: {name} flipped at {at}: {other}"),
            }
        }
        // Most bytes are counters and cycles any value of which is a state;
        // the lengths, tags and ids among them are what a flip breaks.
        assert!(refused > 50, "{label}: only {refused} of 1000 flips were refused");
    }
}

//! Checkpoint/restore (DESIGN.md §4.6): a run resumed at a seeded pause,
//! in either scheduler or at any level, is the straight run — the resume
//! lines of the relation table (`support::relations`) — and so is one
//! resumed through the file format, into full caches or into a used
//! target; a resume into the wrong system and damaged snapshots are typed
//! errors.

use std::sync::Arc;

use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::*;
use support::relations::{hold, resumes, EVERY, FF, FF_STATS, FF_TRACE, LAST, NAIVE_STATS};
use support::{counters, cramped_memory, drift, everything, Observed, System};

/// The zoo's `name` at `Stats`.
fn at_stats(name: &str) -> System {
    let mut system = support::system(name);
    system.obs = ObsLevel::Stats;
    system
}

/// Panics naming each field where `resumed` drifted from `straight`.
fn assert_resumes(label: &str, straight: &SimReport, resumed: Result<SimReport, MosaicError>) {
    let (straight, resumed) = (Observed::of(Ok(straight.clone())), Observed::of(resumed));
    let label = format!("{label}: resumed ≡ straight");
    let moved = drift(&label, (&straight, everything), (&resumed, everything));
    moved.unwrap_or_else(|moved| panic!("{moved}"));
}

/// Resumed ≡ straight at four seeded pauses a run, on one tile under
/// either scheduler, and across schedulers and observability levels.
#[test]
fn resume_is_bit_identical_to_straight_run() {
    let scheds = [FF_STATS, NAIVE_STATS];
    let levels = resumes(&[FF, FF_STATS, FF_TRACE], |s, r| s != r, LAST);
    // Every level counts as `Stats` does (`obs_differential`).
    let levels = levels.into_iter().map(|(resumed, _)| (resumed, FF_STATS)).collect();
    let one = |s: &str| s.ends_with("/1t");
    let ooo_one = |s: &str| s.ends_with("/ooo/1t");
    hold(&[
        ("resumed ≡ straight", one, [everything; 2], resumes(&scheds, |s, r| s == r, EVERY)),
        ("resumed across schedulers", one, [everything; 2], resumes(&scheds, |s, r| s != r, LAST)),
        ("resumed across levels", ooo_one, [counters; 2], levels),
    ]);
}

/// Resumed ≡ straight through the file format: save the snapshot to disk
/// and resume with [`SystemBuilder::resume_from`]. Also checks that a
/// resumed run can itself checkpoint periodically.
#[test]
fn resume_through_a_file_is_bit_identical() {
    let sgemm = at_stats("sgemm@1/ooo/1t");
    let straight = sgemm.builder().run().expect("straight");

    let mut il = sgemm.builder().build().expect("build");
    assert_eq!(il.run_until(straight.cycles / 2).expect("prefix"), None);
    // Named by process, so that concurrent runs of the suite do not share
    // a snapshot.
    let (dir, pid) = (std::env::temp_dir(), std::process::id());
    let path = dir.join(format!("mosaic_ckpt_differential_{pid}.mckpt"));
    il.save_checkpoint().save(&path).expect("save checkpoint");

    let repath = dir.join(format!("mosaic_ckpt_differential_re_{pid}.mckpt"));
    let resumed = sgemm
        .builder()
        .resume_from(&path)
        .checkpoint_every(straight.cycles / 4)
        .checkpoint_to(&repath)
        .run();
    assert_resumes("sgemm@1/ooo/1t from a file", &straight, resumed);

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
    let histo = at_stats("histo@1/ino/1t");
    let mut il = histo.builder().build().expect("build");
    assert_eq!(il.run_until(500).expect("prefix"), None);
    let ckpt = Arc::new(il.save_checkpoint());

    // Same kernel, different tile name: the fingerprint no longer
    // matches.
    let mut other = histo.clone();
    other.cores = support::Cores::Tiles(vec![CoreConfig::in_order().with_name("other")]);
    let err = other
        .builder()
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
        let mut system = at_stats(&format!("{name}@1/ooo/1t"));
        if cramped {
            system.memory = cramped_memory();
        }
        let builder = || system.builder();
        let straight = builder().run().expect("straight");

        let mut il = builder().build().expect("build");
        assert_eq!(il.run_until(straight.cycles / 2).expect("prefix"), None);
        let ckpt = Arc::new(il.save_checkpoint());
        if cramped {
            assert!(straight.mem.dram_writebacks > 0, "{label}: nothing was written back");
            let mem = ckpt.section("mem").expect("mem section");
            assert!(mem.len() >= 16 * cramped_ways, "{label}: caches not full at the pause");
        }

        let resumed = builder().resume_from_checkpoint(ckpt.clone()).run();
        assert_resumes(&label, &straight, resumed);

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

    let mut bfs = support::system("bfs@1/ooo/2t");
    bfs.obs = ObsLevel::Trace;
    let mut rng = Rng::seed_from_u64(0x6461_6d61_6765_6421); // "damage!"
    for (system, pause) in [(bfs, 9_000), (support::system("projection/desc"), 12_476)] {
        let (label, make) = (&system.name, || system.builder());
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

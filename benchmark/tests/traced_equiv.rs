//! The traced driver must be the Interleaver's loop: same completion
//! cycle, same retired count, same `steps` / `cycles_skipped` /
//! `skips_taken`, under fast-forward and naive stepping, on one tile, on
//! four, and on a DAE pair with channel traffic.

use std::path::Path;

use mosaic_perf::traced::run_traced;
use mosaic_perf::workloads::{Catalog, Size, Staged};

const LIMIT: u64 = 2_000_000_000;

fn catalog() -> Catalog {
    let mut points = Vec::new();
    for kernel in ["bfs", "sgemm", "lbm"] {
        for tiles in [1, 4] {
            points.push(format!(
                r#"{{"id": "{kernel}.x{tiles}", "kernel": "{kernel}", "core": "ooo", "tiles": {tiles}}}"#
            ));
        }
    }
    // In-order with the prefetcher off: long stall spans, many skips.
    points.push(
        r#"{"id": "lbm.ino", "kernel": "lbm", "core": "ino", "mem": "xeon_nopf"}"#.to_string(),
    );
    points.push(
        r#"{"id": "projection.pair", "kernel": "projection", "core": "ino", "tiles": 2, "dae": true, "mem": "dae"}"#
            .to_string(),
    );
    let text = format!(
        r#"{{"workloads": [{{"name": "equiv", "why": "test", "points": [{}]}}]}}"#,
        points.join(", ")
    );
    Catalog::parse(&text).expect("test catalog parses")
}

#[test]
fn traced_loop_matches_interleaver_run() {
    let catalog = catalog();
    let spec = &catalog.workloads[0];
    let staged = Staged::stage(spec, Size::Full, 1, Path::new(".")).expect("stages");
    for (i, p) in spec.points.iter().enumerate() {
        let front = staged.front(i);
        for ff in [true, false] {
            let mut il = staged
                .builder(p, front)
                .fast_forward(ff)
                .build()
                .expect("builds");
            let cycles = il.run().expect("reference run completes");
            let want = (
                cycles,
                il.steps_executed(),
                il.cycles_skipped(),
                il.skips_taken(),
            );
            let retired: u64 = il.tiles().iter().map(|t| t.stats().retired).sum();

            let il = staged
                .builder(p, front)
                .fast_forward(ff)
                .build()
                .expect("builds");
            let tr = run_traced(il, ff, LIMIT).unwrap_or_else(|e| panic!("{} ff={ff}: {e}", p.id));
            let got = (tr.cycles, tr.steps, tr.cycles_skipped, tr.skips_taken);
            assert_eq!(
                got, want,
                "{} ff={ff}: (cycles, steps, skipped, skips)",
                p.id
            );
            assert_eq!(tr.retired, retired, "{} ff={ff}", p.id);
            assert_eq!(tr.retired, front.trace.total_retired(), "{} ff={ff}", p.id);

            // Every step steps the hierarchy once and each live tile at
            // most once; nothing is skipped without fast-forward.
            assert_eq!(tr.mem_step.calls, tr.steps);
            assert!(tr.tile_step.calls <= tr.steps * p.tiles as u64);
            assert!(tr.skip_apply.calls == tr.skips_taken && tr.survey.calls >= tr.skips_taken);
            if !ff {
                assert_eq!((tr.cycles_skipped, tr.survey.calls), (0, 0), "{}", p.id);
            }
            // The spans partition the loop: self time is what is left.
            let in_layers = tr.mem_step.total_ns
                + tr.completion.total_ns
                + tr.tile_step.total_ns
                + tr.survey.total_ns
                + tr.skip_apply.total_ns;
            assert!(
                in_layers <= tr.loop_ns && tr.self_ns() == tr.loop_ns - in_layers,
                "{}",
                p.id
            );
            assert!(
                tr.skip_credit.total_ns <= tr.skip_apply.total_ns,
                "{}",
                p.id
            );
            if p.dae {
                assert!(tr.channel_sends > 0, "a DAE pair talks over its channels");
            } else {
                assert_eq!(tr.channel_sends, 0, "{}", p.id);
            }
        }
    }
}

#[test]
fn dae_system_matches_the_bench_harness() {
    // `Staged::builder` rebuilds the system of `mosaic_bench::run_dae_pairs`
    // (so that set-up and simulation can be timed apart); it must be the
    // same system.
    use mosaicsim::core::{dae_channel, dae_memory};
    use mosaicsim::kernels::projection;
    use mosaicsim::passes::{slice_dae, DaeQueues};

    let catalog = catalog();
    let spec = &catalog.workloads[0];
    let staged = Staged::stage(spec, Size::Full, 1, Path::new(".")).expect("stages");
    let i = spec.points.iter().position(|p| p.dae).expect("a DAE point");
    let ours = staged
        .builder(&spec.points[i], staged.front(i))
        .run()
        .expect("runs");

    let mut p = projection::build(1);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("slices");
    let theirs =
        mosaic_bench::run_dae_pairs(&p, slices, 1, dae_memory(), dae_channel()).expect("runs");
    assert_eq!(
        (ours.cycles, ours.total_retired),
        (theirs.cycles, theirs.total_retired)
    );
}

//! Golden rows at the Chrome trace's own bytes.
//!
//! `ckpt_golden` pins the timeline as a checkpoint holds it (each span's
//! name rendered, in recording order); nothing else pins what
//! `Timeline::to_chrome_json` writes. This test does: per system at
//! `ObsLevel::Trace`, the span count and the length and FNV-1a hash of the
//! exported JSON, against rows recorded before the span store was packed
//! into fixed-width records. A span's name rendered differently, a track
//! named in another order or a number written in another form moves the
//! hash of every row that has one.
//!
//! The systems, `support::zoo()`'s `TIMELINE` entries: bfs on two
//! in-order tiles (the `mosaic-report --kernel bfs --tiles 2 --timeline`
//! run), the same run resumed from a mid-run checkpoint (its spans before
//! the pause come back as decoded names), mri-q on one out-of-order tile
//! (the ledger's `observed_ckpt` trace point, 65 667 spans), a DeSC
//! projection pair, and the graphsage accelerator system (`accel` spans).

mod support;

use std::sync::Arc;

use mosaicsim::prelude::*;
use support::{Golden, Hashed, TIMELINE};

fn row(label: &str, report: &SimReport) -> String {
    let spans = report.timeline.len();
    let Hashed { len, hash } = Hashed::of(report.timeline.to_chrome_json().as_bytes());
    format!("{label} spans={spans} len={len} fnv={hash:016x}")
}

#[test]
fn chrome_json_reproduces_every_recorded_row() {
    let mut rows = Vec::new();
    for s in support::systems(TIMELINE) {
        let traced = || s.builder().observe(ObsLevel::Trace);
        let straight = traced().run().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        rows.push(row(&s.name, &straight));
        if s.name == "bfs/ino/2t" {
            let mut paused = traced().build().expect("build");
            assert_eq!(paused.run_until(straight.cycles / 2).expect("prefix"), None);
            let resumed = traced()
                .resume_from_checkpoint(Arc::new(paused.save_checkpoint()))
                .run()
                .expect("resumed bfs x2");
            rows.push(row("bfs/ino/2t/resumed", &resumed));
        }
    }
    Golden::new("timeline").assert(&rows);
}

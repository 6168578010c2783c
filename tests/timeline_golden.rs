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
//! The systems: bfs on two in-order tiles (the `mosaic-report --kernel bfs
//! --tiles 2 --timeline` run), the same run resumed from a mid-run
//! checkpoint (its spans before the pause come back as decoded names),
//! mri-q on one out-of-order tile (the ledger's `observed_ckpt` trace
//! point, 65 667 spans), a DeSC projection pair, and the graphsage
//! accelerator system (`accel` spans).

use std::sync::Arc;

use mosaicsim::kernels::{build_parboil, keras, projection, Prepared};
use mosaicsim::prelude::*;

/// `label spans=N len=L fnv=H`, recorded at the parent of the packed span
/// store.
const ROWS: [&str; 5] = [
    "bfs/ino/2t spans=47935 len=4013214 fnv=65f9aa4eff3ee812",
    "bfs/ino/2t/resumed spans=47935 len=4013214 fnv=65f9aa4eff3ee812",
    "mri-q/ooo/1t spans=65667 len=5420828 fnv=9f4423f59475387a",
    "projection/desc spans=5746 len=470917 fnv=e4832f762f4e4861",
    "graphsage/accel spans=25 len=2312 fnv=b1cfc3a19cc24588",
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(label: &str, report: &SimReport) -> String {
    let json = report.timeline.to_chrome_json();
    let spans = report.timeline.len();
    let (len, hash) = (json.len(), fnv(json.as_bytes()));
    format!("{label} spans={spans} len={len} fnv={hash:016x}")
}

/// `tiles` cores of `config` running `p` at `Trace`.
fn spmd(p: &Prepared, config: &CoreConfig, tiles: usize, memory: HierarchyConfig) -> SystemBuilder {
    let trace = p.trace(tiles).expect("trace").0;
    let mut b = SystemBuilder::new(Arc::new(p.module.clone()), Arc::new(trace))
        .memory(memory)
        .observe(ObsLevel::Trace);
    for t in 0..tiles {
        b = b.core(config.clone().with_name(&format!("c{t}")), p.func, t);
    }
    b
}

/// One DAE pair of the projection kernel on DeSC cores, the execute side
/// at a third of the clock behind a one-message channel.
fn desc_pair() -> SystemBuilder {
    let mut p = projection::build_with(40, 64);
    let slices = slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("sliceable");
    let programs: Vec<TileProgram> = [slices.access, slices.execute]
        .into_iter()
        .map(|func| TileProgram::single(func, p.args.clone()))
        .collect();
    let (trace, _) = record_trace(&p.module, p.mem.clone(), &programs).expect("trace");
    let mut execute = CoreConfig::in_order().with_name("execute");
    execute.clock_divisor = 3;
    let channel = ChannelConfig {
        capacity: 1,
        latency: 2,
    };
    SystemBuilder::new(Arc::new(p.module), Arc::new(trace))
        .memory(dae_memory())
        .channels(channel)
        .observe(ObsLevel::Trace)
        .core(CoreConfig::dae_access().with_name("access"), slices.access, 0)
        .core(execute, slices.execute, 1)
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    let bfs = build_parboil("bfs", 1);
    let bfs_x2 = || spmd(&bfs, &CoreConfig::in_order(), 2, xeon_memory());
    let straight = bfs_x2().run().expect("bfs x2");
    rows.push(row("bfs/ino/2t", &straight));

    let mut paused = bfs_x2().build().expect("build");
    let pause = straight.cycles / 2;
    assert_eq!(paused.run_until(pause).expect("prefix"), None);
    let resumed = bfs_x2()
        .resume_from_checkpoint(Arc::new(paused.save_checkpoint()))
        .run()
        .expect("resumed bfs x2");
    rows.push(row("bfs/ino/2t/resumed", &resumed));

    let mri_q = build_parboil("mri-q", 1);
    let report = spmd(&mri_q, &CoreConfig::out_of_order(), 1, xeon_memory())
        .run()
        .expect("mri-q");
    rows.push(row("mri-q/ooo/1t", &report));

    rows.push(row("projection/desc", &desc_pair().run().expect("desc pair")));

    let accel = keras::graphsage().lower_accelerated();
    let report = spmd(&accel, &CoreConfig::out_of_order(), 1, dae_memory())
        .accelerators(Box::new(AccelBank::with_defaults()))
        .run()
        .expect("graphsage");
    rows.push(row("graphsage/accel", &report));
    rows
}

#[test]
fn chrome_json_reproduces_every_recorded_row() {
    let rows = rows();
    for row in &rows {
        println!("{row}");
    }
    assert_eq!(rows, ROWS, "the exported Chrome JSON moved");
}

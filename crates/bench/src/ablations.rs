//! Design-choice ablations (DESIGN.md §4.10): the model features the
//! paper calls out — prefetching, DRAM model fidelity, memory-alias
//! speculation, branch speculation, MSHR capacity, the accelerator tile's
//! unrolling and the mesh NoC — each one sweep through [`run_sweep`].

use mosaic_core::xeon_memory;
use mosaic_kernels::build_parboil;
use mosaic_mem::{BankedDramConfig, DramKind, HierarchyConfig, NocConfig, PrefetchConfig};
use mosaic_tile::{BranchMode, CoreConfig};

use crate::{run_spmd, run_sweep, Sweep, Table};

/// Each point's kernel at scale 1 on its tile count, on the core and
/// memory `system` gives its setting, as one sweep.
fn runs<K: Sync>(
    points: &[(&str, usize, K)],
    system: impl Fn(&K) -> (CoreConfig, HierarchyConfig) + Sync,
) -> Sweep {
    let sweep = run_sweep(points, |(kernel, tiles, setting)| {
        let (core, memory) = system(setting);
        (kernel.to_string(), run_spmd(&build_parboil(kernel, 1), *tiles, core, memory))
    });
    eprintln!("{}", sweep.summary());
    sweep
}

/// Each kernel's cycles with a knob off and on, and `ratio` of the two.
fn off_on(
    title: &str,
    kernels: &[&str],
    heads: [(&str, usize); 3],
    ratio: fn(f64, f64) -> f64,
    system: impl Fn(&bool) -> (CoreConfig, HierarchyConfig) + Sync,
) -> (Table, Sweep) {
    let points: Vec<_> = kernels.iter().flat_map(|&k| [(k, 1, false), (k, 1, true)]).collect();
    let sweep = runs(&points, system);
    let mut t = Table::new(title, &[&[("kernel", 0)], &heads[..]].concat());
    for (kernel, pair) in kernels.iter().zip(sweep.points.chunks(2)) {
        let [a, b] = [&pair[0], &pair[1]].map(|p| p.report().cycles);
        t.row(*kernel, [a.into(), b.into(), ratio(a as f64, b as f64).into()]);
    }
    (t, sweep)
}

/// One kernel's cycles at each setting of one knob.
fn knob<K: Sync + std::fmt::Debug>(
    title: &str,
    head: &str,
    (kernel, tiles): (&str, usize),
    settings: impl IntoIterator<Item = K>,
    system: impl Fn(&K) -> (CoreConfig, HierarchyConfig) + Sync,
) -> (Table, Sweep) {
    let points: Vec<_> = settings.into_iter().map(|k| (kernel, tiles, k)).collect();
    let sweep = runs(&points, system);
    let mut t = Table::new(title, &[(head, 0), ("cycles", 0)]);
    for ((_, _, k), p) in points.iter().zip(&sweep.points) {
        t.row(format!("{k:?}"), [p.report().cycles.into()]);
    }
    (t, sweep)
}

/// The ablation tables, in DESIGN.md §4.10's order.
pub(crate) fn ablations() -> Vec<Table> {
    let (ooo, xeon) = (CoreConfig::out_of_order, xeon_memory);
    let (mut prefetcher, sweep) = off_on(
        "Ablation 1 — stream prefetcher (paper §V-A): streaming kernels benefit",
        &["stencil", "sgemm", "bfs"],
        [("on", 0), ("off", 0), ("gain", 2)],
        |on, off| off / on,
        |&off| match off {
            false => (ooo(), xeon()),
            true => (ooo(), HierarchyConfig { prefetch: PrefetchConfig::disabled(), ..xeon() }),
        },
    );
    prefetcher.columns.push(("prefetches".into(), 0));
    for (row, on) in prefetcher.rows.iter_mut().zip(sweep.points.iter().step_by(2)) {
        row.1.push(on.report().mem.prefetches.into());
    }
    let (dram, _) = off_on(
        "Ablation 2 — DRAM model: SimpleDRAM vs banked (DRAMSim2-substitute)",
        &["spmv", "stencil"],
        [("simple", 0), ("banked", 0), ("ratio", 2)],
        |simple, banked| banked / simple,
        |&banked| {
            let dram = DramKind::Banked(BankedDramConfig::default());
            (ooo(), if banked { HierarchyConfig { dram, ..xeon() } } else { xeon() })
        },
    );
    let (alias, _) = off_on(
        "Ablation 3 — perfect memory-alias speculation (paper §III-C)",
        &["histo", "mri-gridding"],
        [("off", 0), ("on", 0), ("gain", 2)],
        |off, on| off / on,
        |&alias_speculation| (CoreConfig { alias_speculation, ..ooo() }, xeon()),
    );
    let (mut branch, sweep) = knob(
        "Ablation 4 — branch speculation mode on spmv (paper §III-C)",
        "mode",
        ("spmv", 1),
        [BranchMode::None, BranchMode::Static, BranchMode::Bimodal, BranchMode::Perfect],
        |&branch| (CoreConfig { branch, ..ooo() }, xeon()),
    );
    branch.columns.push(("mispredicts".into(), 0));
    for (row, p) in branch.rows.iter_mut().zip(&sweep.points) {
        row.1.push(p.report().tiles[0].mispredicts.into());
    }
    let branch = branch.with_note("(Bimodal is the dynamic predictor of the paper's future work)");
    let (mshr, _) = knob(
        "Ablation 5 — MSHR capacity on spmv (paper §V-A)",
        "entries",
        ("spmv", 1),
        [1usize, 4, 16, 64],
        |&mshr_entries| (ooo(), HierarchyConfig { mshr_entries, ..xeon() }),
    );
    let (unroll, _) = knob(
        "Ablation 6 — pre-RTL accelerator tile on stencil: live-DBB limit as hardware loop \
         unrolling (paper §IV / §III-A)",
        "unroll",
        ("stencil", 1),
        [1u32, 2, 4, 8, 16],
        |&unroll| (CoreConfig::accelerator(unroll), xeon()),
    );
    let (noc, _) = knob(
        "Ablation 7 — mesh NoC hop latency on spmv, 4 tiles (paper §V-A future work; 0 = ideal)",
        "cycles/hop",
        ("spmv", 4),
        [0u64, 2, 8],
        |&hop_latency| {
            let noc = (hop_latency > 0).then_some(NocConfig { mesh_width: 2, hop_latency });
            (ooo(), HierarchyConfig { noc, ..xeon() })
        },
    );
    vec![prefetcher, dram, alias, branch, mshr, unroll, noc]
}

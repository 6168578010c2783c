//! The paper's evaluation of the simulator itself (§VI): Fig. 1, Table I,
//! Figs. 5–10, the §VI-B trace storage and a per-kernel characterization.

use std::sync::OnceLock;

use mosaic_accel::{analytic_estimate, fpga_cycles, rtl_cycles, AccelBank, AccelConfig};
use mosaic_core::{dae_memory, print_table1, xeon_memory, SimReport};
use mosaic_ir::AccelOp;
use mosaic_kernels::{build_parboil, sinkhorn, PARBOIL_NAMES};
use mosaic_tile::CoreConfig;

use crate::{edp, geomean, run_spmd, run_sweep, run_with_accel, Cell, Sweep, Table};

/// `(year, [transistors_thousands, frequency_mhz, typical_power_w,
/// logical_cores, single_thread_perf])`: decade samples of the public
/// dataset (Rupp) the paper's Fig. 1 recreates, embedded so the figure
/// regenerates without network access.
const TRENDS: [(u32, [f64; 5]); 11] = [
    (1975, [5.0, 1.0, 1.0, 1.0, 0.02]),
    (1980, [30.0, 5.0, 2.0, 1.0, 0.1]),
    (1985, [275.0, 16.0, 3.0, 1.0, 0.4]),
    (1990, [1200.0, 33.0, 5.0, 1.0, 2.0]),
    (1995, [5500.0, 150.0, 15.0, 1.0, 20.0]),
    (2000, [42000.0, 1000.0, 35.0, 1.0, 300.0]),
    (2005, [300000.0, 3000.0, 90.0, 2.0, 1500.0]),
    (2010, [1200000.0, 3300.0, 100.0, 6.0, 5000.0]),
    (2015, [5000000.0, 3500.0, 110.0, 12.0, 8000.0]),
    (2017, [10000000.0, 3700.0, 120.0, 18.0, 10000.0]),
    (2019, [20000000.0, 3800.0, 140.0, 32.0, 11000.0]),
];

/// Fig. 1: 42 years of microprocessor trend data (intro figure).
pub fn fig01_trends() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 1 — microprocessor trend data (decade samples of the public dataset)",
        &[("year", 0), ("transistors_k", 0), ("freq_MHz", 0), ("power_W", 0)],
    );
    t.columns.extend([("cores".into(), 0), ("st_perf".into(), 2)]);
    for (year, values) in TRENDS {
        t.row(year.to_string(), values.map(Cell::from));
    }
    vec![t.with_note(
        "Frequency plateaus after ~2005 while logical cores keep climbing — the motivation \
         for heterogeneous parallelism the paper opens with.",
    )]
}

/// `print`'s lines after its title, split at runs of two or more spaces.
pub(crate) fn paper_rows(print: &str) -> impl Iterator<Item = Vec<String>> + '_ {
    print.lines().skip(1).map(|line| {
        let cells = line.split("  ").map(str::trim).filter(|c| !c.is_empty());
        cells.map(String::from).collect()
    })
}

/// Table I: the evaluation system, as the paper lists it and as
/// `mosaic_core::xeon_memory()` — the Fig. 5–9 harnesses' memory —
/// instantiates it.
pub fn table1_system() -> Vec<Table> {
    let mut paper = Table::new(
        "Table I — evaluation system details (Intel Xeon E5-2667 v3)",
        &[("parameter", 0), ("value", 0)],
    );
    for [key, value] in paper_rows(&print_table1()).map(|r| <[String; 2]>::try_from(r).unwrap()) {
        paper.row(key, [Cell::Text(value)]);
    }
    let mut built = Table::new(
        "Table I as instantiated — `mosaic_core::xeon_memory()`",
        &[("level", 0), ("size (KB)", 0), ("ways", 0), ("latency (cycles)", 0)],
    );
    let m = xeon_memory();
    for (level, c) in [("L1", &m.l1), ("L2", m.l2.as_ref().expect("L2")), ("LLC", &m.llc)] {
        built.row(level, [c.size_bytes() / 1024, c.ways() as u64, c.latency()].map(Cell::from));
    }
    vec![paper, built]
}

/// The 11 Parboil kernels at scale 1, each on one out-of-order tile over
/// the Table-I memory: the runs Fig. 5, Fig. 6 and [`characterize`] read,
/// simulated once per process.
fn parboil_ooo() -> &'static Sweep {
    static RUNS: OnceLock<Sweep> = OnceLock::new();
    RUNS.get_or_init(|| parboil_on(CoreConfig::out_of_order()))
}

fn parboil_on(core: CoreConfig) -> Sweep {
    let sweep = run_sweep(&PARBOIL_NAMES, |name| {
        (name.to_string(), run_spmd(&build_parboil(name, 1), 1, core.clone(), xeon_memory()))
    });
    eprintln!("{}", sweep.summary());
    sweep
}

/// Each point's label and report.
fn reports(sweep: &Sweep) -> impl Iterator<Item = (&str, &SimReport)> {
    sweep.points.iter().map(|p| (p.label.as_str(), p.report()))
}

/// Fig. 5: per-benchmark runtime accuracy of MosaicSim against the
/// reference machine model.
///
/// The paper measures simulated cycles against an Intel Xeon E5-2667 v3
/// and reports a geomean accuracy factor of 1.099×, with benchmarks on
/// both sides of 1 because LLVM IR does not map 1-to-1 onto x86 (gep+load
/// vs one MOV). The Xeon here is the ISA-tuned reference model — the same
/// engine with x86-like macro-op fusion, a dynamic-predictor-class branch
/// model and Haswell-class window/LSQ sizes (DESIGN.md §1) — so the gap
/// arises from the mechanism the paper describes.
pub fn fig05_accuracy() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 5 — runtime accuracy factor (MosaicSim cycles / reference cycles)",
        &[("benchmark", 0), ("mosaic", 0), ("reference", 0), ("factor", 3)],
    );
    let reference = parboil_on(CoreConfig::x86_reference());
    let mut factors = Vec::new();
    for ((name, m), (_, r)) in reports(parboil_ooo()).zip(reports(&reference)) {
        factors.push(m.cycles as f64 / r.cycles as f64);
        t.row(name, [m.cycles.into(), r.cycles.into(), factors[factors.len() - 1].into()]);
    }
    t.row("geomean", ["—".into(), "—".into(), geomean(&factors).into()]);
    vec![t.with_note("(paper: geomean 1.099, spread 0.16–3.29)")]
}

/// Fig. 6: IPC characterization, ascending. "A lower IPC indicates that a
/// kernel is memory-bound while a higher IPC indicates being
/// compute-bound."
pub fn fig06_ipc() -> Vec<Table> {
    let mut rows: Vec<(&str, f64)> = reports(parboil_ooo()).map(|(n, r)| (n, r.ipc())).collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut t = Table::new(
        "Fig. 6 — IPC characterization (OoO core, Table-I memory)",
        &[("benchmark", 0), ("ipc", 2)],
    );
    for (name, ipc) in rows {
        t.row(name, [ipc.into()]);
    }
    vec![t.with_note("(paper ordering: bfs lowest ≈ 0.84 … sad highest ≈ 3.7)")]
}

/// A whole-suite summary of the kind a user triages hardware with (paper
/// §II), every number read from the run's stats registry by dotted path
/// (DESIGN.md §4.5). `mosaic-report --kernel K --core ooo --stats F`
/// writes one such registry whole.
pub fn characterize() -> Vec<Table> {
    let mut t = Table::new(
        "Characterization — every Parboil kernel on one OoO tile, Table-I memory",
        &[("kernel", 0), ("cycles", 0), ("retired", 0), ("ipc", 3), ("l1_miss_pct", 1)],
    );
    let more = [("llc_miss_pct", 1), ("dram_lines", 0), ("atomics", 0), ("mispredicts", 0)];
    let more = more.iter().chain(&[("core_nj", 1), ("mem_nj", 1), ("edp_pj_s", 1), ("bound", 0)]);
    t.columns.extend(more.map(|&(h, p)| (h.to_string(), p)));
    for (name, r) in reports(parboil_ooo()) {
        let reg = &r.registry;
        let miss_pct = |level: &str| {
            let h = reg.counter(&format!("mem.{level}.hits"));
            let m = reg.counter(&format!("mem.{level}.misses"));
            100.0 * m as f64 / (h + m).max(1) as f64
        };
        let ipc = reg.gauge("sim.ipc");
        // The paper's rule of thumb (§VI-A): low IPC = memory-bound.
        let bound = match ipc {
            i if i < 1.5 => "memory",
            i if i < 3.0 => "mixed",
            _ => "compute",
        };
        let counter = |path| Cell::from(reg.counter(path));
        let counts = ["sim.cycles", "sim.retired"].map(counter);
        let rates = [ipc, miss_pct("l1"), miss_pct("llc")].map(Cell::from);
        let events = ["mem.dram.reads", "mem.atomics", "tile.0.mispredicts"].map(counter);
        let energy = [r.core_energy_pj / 1e3, r.mem_energy_pj / 1e3, edp(r) * 1e12].map(Cell::from);
        t.row(name, [&counts[..], &rates, &events, &energy, &[bound.into()]].concat());
    }
    vec![t.with_note("(bound: IPC < 1.5 memory, < 3 mixed, else compute)")]
}

/// Figs. 7–9: multicore scaling of BFS (latency-bound), SGEMM
/// (compute-bound) and SPMV (bandwidth-bound), for MosaicSim's default
/// model and the reference model standing in for the paper's x86 runs.
pub fn fig07_09_scaling() -> Vec<Table> {
    let threads = [1usize, 2, 4, 8];
    let figs = [
        ("Fig. 7", "bfs", 2u32, "BFS scales worst: its atomic read-modify-writes serialize"),
        ("Fig. 8", "sgemm", 1, "SGEMM scales near-linearly"),
        ("Fig. 9", "spmv", 4, "SPMV scales sublinearly as DRAM bandwidth throttles"),
    ];
    let grid = figs.iter().flat_map(|&(_, name, scale, _)| threads.map(|t| (name, scale, t)));
    let points: Vec<_> = grid.flat_map(|(n, s, t)| [(n, s, t, false), (n, s, t, true)]).collect();
    let sweep = run_sweep(&points, |&(name, scale, t, reference)| {
        let (core, model) = match reference {
            true => (CoreConfig::x86_reference(), "ref"),
            false => (CoreConfig::out_of_order(), "mosaic"),
        };
        let label = format!("{name}/{t}t/{model}");
        (label, run_spmd(&build_parboil(name, scale), t, core, xeon_memory()))
    });
    eprintln!("{}", sweep.summary());
    let mut runs = sweep.points.chunks(2).map(|p| (p[0].report(), p[1].report()));
    let heads = [("threads", 0), ("mosaic cycles", 0), ("mosaic speedup", 2), ("ref cycles", 0)];
    let heads = [&heads[..], &[("ref speedup", 2), ("throttled", 0)]].concat();
    let tables = figs.map(|(fig, name, _, paper)| {
        let mut t = Table::new(format!("{fig} — {name} scaling (speedup over 1 thread)"), &heads);
        let mut base = (0.0, 0.0);
        for n in threads {
            let (m, r) = runs.next().expect("grid row");
            if n == 1 {
                base = (m.cycles as f64, r.cycles as f64);
            }
            let (ms, rs) = (base.0 / m.cycles as f64, base.1 / r.cycles as f64);
            let cells = [m.cycles.into(), ms.into(), r.cycles.into(), rs.into()];
            t.row(n.to_string(), cells.into_iter().chain([m.dram_throttled.into()]));
        }
        t.with_note(format!("(paper: {paper})"))
    });
    tables.to_vec()
}

/// A Fig. 10 workload whose input footprint is `bytes`, as the paper's
/// 256 KB / 1 MB / 4 MB / 16 MB.
fn workload(accel: AccelOp, bytes: u64) -> Vec<i64> {
    match accel {
        // SGEMM input = 8n² bytes (two n×n f32 matrices).
        AccelOp::Sgemm => {
            let n = ((bytes as f64 / 8.0).sqrt()) as i64;
            vec![0, 0, 0, n, n, n]
        }
        // Histogram input = 4n bytes.
        AccelOp::Histogram => vec![0, 0, (bytes / 4) as i64, 256],
        // Element-wise input = 8n bytes.
        AccelOp::ElementWise => vec![0, 0, 0, (bytes / 8) as i64],
        _ => unreachable!("Fig. 10 covers three accelerators"),
    }
}

/// Fig. 10: accelerator design-space exploration. Parts a–c: execution
/// time and area of the matrix-multiplication, histogram and element-wise
/// accelerators over four PLM sizes and four workload sizes. Part d: the
/// back-annotated analytic model's average accuracy against RTL-level
/// simulation (paper: 97–100 %) and FPGA emulation (paper: 89–93 %). Then
/// the SGEMM accelerator in a full system, one simulation per PLM size.
pub fn fig10_accel_dse() -> Vec<Table> {
    let plms = [4u64 << 10, 16 << 10, 64 << 10, 256 << 10];
    let sizes = [(256u64 << 10, "256KB"), (1 << 20, "1MB"), (4 << 20, "4MB"), (16 << 20, "16MB")];
    let mut heads = vec![("PLM", 0), ("area (um^2)", 0)];
    heads.extend(sizes.map(|(_, label)| (label, 0)));
    let mut accuracy = Table::new(
        "Fig. 10d — execution time accuracy of the analytic model",
        &[("accelerator", 0), ("vs RTL sim (%)", 0), ("vs FPGA emu (%)", 0)],
    );
    let ratio = |a: u64, b: u64| (a as f64 / b as f64).min(b as f64 / a as f64);
    let mut tables: Vec<Table> = [
        (AccelOp::Sgemm, "Fig. 10a — Matrix multiplication"),
        (AccelOp::Histogram, "Fig. 10b — Histogram"),
        (AccelOp::ElementWise, "Fig. 10c — Element-wise"),
    ]
    .map(|(accel, title)| {
        let mut t = Table::new(format!("{title}: execution time [cycles]"), &heads);
        let (mut vs_rtl, mut vs_fpga) = (0.0, 0.0);
        for plm in plms {
            let config = AccelConfig::default().with_plm_bytes(plm);
            let cycles = sizes.map(|(bytes, _)| {
                let args = workload(accel, bytes);
                let exact = rtl_cycles(accel, &args, &config).cycles;
                let fast = analytic_estimate(accel, &args, &config).cycles;
                vs_rtl += ratio(fast, exact);
                vs_fpga += ratio(fast, fpga_cycles(accel, &args, &config).cycles);
                Cell::from(exact)
            });
            t.row(format!("{}KB", plm >> 10), [config.area_um2().into()].into_iter().chain(cycles));
        }
        let points = (plms.len() * sizes.len()) as f64;
        accuracy.row(accel.name(), [vs_rtl, vs_fpga].map(|sum| Cell::from(sum / points * 100.0)));
        t
    })
    .into();
    tables.push(accuracy.with_note("(paper: matmul 99%/90%, histo 99%/93%, elementwise 97%/89%)"));
    let sweep = run_sweep(&plms, |&plm| {
        let p = sinkhorn::accel_sgemm_micro(sinkhorn::BASE_DIM);
        let mut bank = AccelBank::new();
        bank.configure(AccelOp::Sgemm, AccelConfig::default().with_plm_bytes(plm));
        let r = run_with_accel(&p, CoreConfig::out_of_order(), dae_memory(), bank);
        (format!("{}KB", plm >> 10), r)
    });
    eprintln!("{}", sweep.summary());
    let mut system = Table::new(
        "Fig. 10 (system) — SGEMM accelerator in-system, cycles per PLM size",
        &[("PLM", 0), ("cycles", 0), ("accel invocations", 0)],
    );
    for (plm, r) in reports(&sweep) {
        system.row(plm, [r.cycles.into(), r.tiles[0].accel_invocations.into()]);
    }
    tables.push(system);
    tables
}

/// The ratio of a Parboil default dataset's dynamic instruction count to
/// the scale-1 input's, estimated from input sizes.
fn extrapolation_factor(name: &str) -> f64 {
    match name {
        "bfs" => 8_000.0,    // 1M-node graphs vs 1.2k nodes
        "histo" => 30_000.0, // 996 frames of 1MB input
        "sgemm" => 500.0,    // 1024^3 vs 40^3 ops ratio ~ reduced by reuse
        "spmv" => 5_000.0,
        _ => 1_000.0,
    }
}

/// §VI-B storage requirements: "the memory traces can be several GB large
/// depending on the kernel … BFS takes 1.3 GB, HISTO takes 1.4 GB, and
/// SGEMM takes 99 MB." The footprints `MSTR` version 2 encodes here, per
/// component and per traced instruction, and a linear extrapolation to
/// Parboil's default datasets, which leaves out the byte a larger dataset
/// would widen some streams by.
pub fn storage_report() -> Vec<Table> {
    let mut t = Table::new(
        "§VI-B — trace storage requirements",
        &[("kernel", 0), ("ctrl-flow (KB)", 1), ("memory (KB)", 1), ("mem %", 0)],
    );
    t.columns.extend([("B/instr".into(), 3), ("extrapolated (MB)".into(), 1)]);
    for name in PARBOIL_NAMES {
        let (trace, _) = build_parboil(name, 1).trace(1).expect("trace");
        let r = trace.size_report();
        let (ctrl, mem) = (r.control_flow_bytes as f64, r.memory_bytes as f64);
        let total = r.total_bytes() as f64;
        let per_instr = total / trace.total_retired() as f64;
        let extrapolated = total * extrapolation_factor(name) / 1e6;
        let cells = [ctrl / 1e3, mem / 1e3, 100.0 * mem / total, per_instr, extrapolated];
        t.row(name, cells.map(Cell::from));
    }
    vec![t.with_note(
        "(paper, full Parboil datasets: BFS 1.3 GB, HISTO 1.4 GB, SGEMM 99 MB, control-flow \
         traces negligible; packed, the memory trace is still the larger part of most kernels, \
         by a factor of 1-20 and not by orders)",
    )]
}

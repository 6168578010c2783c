//! # mosaic-bench
//!
//! Reproduction harnesses for every table and figure in the MosaicSim
//! paper's evaluation (§VI, §VII). Each is a function that returns its
//! data as [`Table`]s; [`FIGURES`] names them, and the crate's binary
//! prints the named ones (all of them with no arguments) as Markdown:
//! `cargo run --release -p mosaic-bench -- fig11_dae table1_system`.
//!
//! | Name | Reproduces |
//! |---|---|
//! | `fig01_trends` | Fig. 1 microprocessor trend data |
//! | `table1_system` | Table I evaluation system |
//! | `fig05_accuracy` | Fig. 5 per-benchmark runtime accuracy factors |
//! | `fig06_ipc` | Fig. 6 IPC characterization |
//! | `characterize` | per-kernel registry summary of the Fig. 5/6 runs |
//! | `fig07_09_scaling` | Figs. 7–9 BFS/SGEMM/SPMV scaling |
//! | `fig10_accel_dse` | Fig. 10 accelerator DSE + model accuracy |
//! | `storage_report` | §VI-B trace storage requirements |
//! | `table2_dae_params` | Table II DAE case-study parameters |
//! | `fig11_dae` | Fig. 11 graph-projection DAE speedups |
//! | `fig12_microbench` | Fig. 12 EWSD / SGEMM microbenchmarks |
//! | `fig13_combined` | Fig. 13 combined sparse+dense workloads |
//! | `fig14_keras_edp` | Fig. 14 Keras EDP improvements |
//! | `ablations` | Design-choice ablations (DESIGN.md §4.10) |
//!
//! The rest of the crate is the shared harness: SPMD, accelerator and DAE
//! runs, and the parallel (and warm-started) sweep.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mosaic_core::{record_trace, MosaicError, SimError, SimReport, SystemBuilder};
use mosaic_ir::TileProgram;
use mosaic_kernels::Prepared;
use mosaic_mem::HierarchyConfig;
use mosaic_passes::DaeSlices;
use mosaic_tile::{ChannelConfig, CoreConfig};

mod ablations;
mod case_study;
mod figures;
mod table;

pub use table::*;
use {ablations::*, case_study::*, figures::*};

/// A figure or table: the function that simulates it and returns its data.
type Figure = fn() -> Vec<Table>;

/// Every figure and table the binary prints, by name, in paper order.
pub const FIGURES: [(&str, Figure); 14] = [
    ("fig01_trends", fig01_trends),
    ("table1_system", table1_system),
    ("fig05_accuracy", fig05_accuracy),
    ("fig06_ipc", fig06_ipc),
    ("characterize", characterize),
    ("fig07_09_scaling", fig07_09_scaling),
    ("fig10_accel_dse", fig10_accel_dse),
    ("storage_report", storage_report),
    ("table2_dae_params", table2_dae_params),
    ("fig11_dae", fig11_dae),
    ("fig12_microbench", fig12_microbench),
    ("fig13_combined", fig13_combined),
    ("fig14_keras_edp", fig14_keras_edp),
    ("ablations", ablations),
];

/// Runs `prepared` on `tiles` SPMD copies of `core` over `memory`.
///
/// # Panics
///
/// Panics on trace or simulation failure (harness code).
pub(crate) fn run_spmd(
    prepared: &Prepared,
    tiles: usize,
    core: CoreConfig,
    memory: HierarchyConfig,
) -> SimReport {
    let (trace, _) = prepared.trace(tiles).expect("trace");
    let module = Arc::new(prepared.module.clone());
    let trace = Arc::new(trace);
    SystemBuilder::new(module, trace)
        .memory(memory)
        .spmd(core, prepared.func, tiles)
        .run()
        .expect("simulate")
}

/// Runs `prepared` on one core with an accelerator bank attached.
///
/// # Panics
///
/// Panics on trace or simulation failure (harness code).
pub(crate) fn run_with_accel(
    prepared: &Prepared,
    core: CoreConfig,
    memory: HierarchyConfig,
    bank: mosaic_accel::AccelBank,
) -> SimReport {
    let (trace, _) = prepared.trace(1).expect("trace");
    SystemBuilder::new(Arc::new(prepared.module.clone()), Arc::new(trace))
        .memory(memory)
        .accelerators(Box::new(bank))
        .core(core, prepared.func, 0)
        .run()
        .expect("simulate")
}

/// Runs `pairs` SPMD Decoupled Access/Execute pairs of a sliced kernel
/// (paper §VII-A). Each pair gets a private queue namespace.
///
/// # Errors
///
/// Returns the simulation error if the system fails to drain.
///
/// # Panics
///
/// Panics if trace generation fails.
pub fn run_dae_pairs(
    prepared: &Prepared,
    slices: DaeSlices,
    pairs: usize,
    memory: HierarchyConfig,
    channel: ChannelConfig,
) -> Result<SimReport, MosaicError> {
    let funcs = (slices.access, slices.execute);
    let programs = TileProgram::dae_pairs(funcs.0, funcs.1, prepared.args.clone(), pairs);
    let (trace, _) = record_trace(&prepared.module, prepared.mem.clone(), &programs)
        .expect("DAE trace generation");
    let (access, execute) = (CoreConfig::dae_access(), CoreConfig::in_order());
    SystemBuilder::new(Arc::new(prepared.module.clone()), Arc::new(trace))
        .memory(memory)
        .channels(channel)
        .dae_pairs(access, execute, funcs, pairs)
        .run()
}

/// One completed point of a [`run_sweep`] call.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Label the job function returned for this point.
    pub label: String,
    /// The simulation report, or why this configuration failed. A failed
    /// point is a report row like any other: the rest of the sweep ran.
    pub result: Result<SimReport, MosaicError>,
    /// Wall-clock seconds this point took on its worker thread.
    pub wall_secs: f64,
}

impl SweepPoint {
    /// The report of a point that must have succeeded.
    ///
    /// # Panics
    ///
    /// Panics with the rendered failure (snapshot included for
    /// deadlocks) when the point failed — for figures whose
    /// configurations are known-good.
    pub(crate) fn report(&self) -> &SimReport {
        match &self.result {
            Ok(r) => r,
            Err(e) => panic!("sweep point {} failed: {e}", self.label),
        }
    }
}

/// Result of a [`run_sweep`] call: the per-point reports in input order
/// plus aggregate simulator-throughput figures for the whole sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One entry per input point, in input order.
    pub points: Vec<SweepPoint>,
    /// Wall-clock seconds for the entire sweep (all workers).
    pub wall_secs: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl Sweep {
    /// Aggregate simulated cycles per wall-clock second across the sweep
    /// (successful points only).
    fn sim_cycles_per_sec(&self) -> f64 {
        self.points
            .iter()
            .filter_map(|p| p.result.as_ref().ok())
            .map(|r| r.cycles)
            .sum::<u64>() as f64
            / self.wall_secs
    }

    /// Aggregate retired instructions per wall-clock second (successful
    /// points only).
    fn instrs_per_sec(&self) -> f64 {
        self.points
            .iter()
            .filter_map(|p| p.result.as_ref().ok())
            .map(|r| r.total_retired)
            .sum::<u64>() as f64
            / self.wall_secs
    }

    /// Points that failed (deadlocks, invalid configs, caught panics).
    pub(crate) fn failed(&self) -> impl Iterator<Item = &SweepPoint> {
        self.points.iter().filter(|p| p.result.is_err())
    }

    /// One-line throughput summary, which the figures print to stderr;
    /// names the number of failed points when there are any.
    pub(crate) fn summary(&self) -> String {
        let failures = self.failed().count();
        let failure_note = if failures > 0 {
            format!(", {failures} FAILED")
        } else {
            String::new()
        };
        format!(
            "[sweep: {} sims on {} threads in {:.2}s — {:.2}M sim-cycles/s, {:.3} MIPS aggregate{}]",
            self.points.len(),
            self.threads,
            self.wall_secs,
            self.sim_cycles_per_sec() / 1e6,
            self.instrs_per_sec() / 1e6,
            failure_note
        )
    }
}

/// Anything a [`run_sweep`] job may return as its report slot: an
/// infallible [`SimReport`], or a `Result` in either of the simulator's
/// error types — so both panicking harness helpers and fallible runs
/// plug in without adapter closures.
pub trait IntoSweepResult {
    /// Converts into the sweep's uniform result row.
    fn into_sweep_result(self) -> Result<SimReport, MosaicError>;
}

impl IntoSweepResult for SimReport {
    fn into_sweep_result(self) -> Result<SimReport, MosaicError> {
        Ok(self)
    }
}

impl IntoSweepResult for Result<SimReport, MosaicError> {
    fn into_sweep_result(self) -> Result<SimReport, MosaicError> {
        self
    }
}

impl IntoSweepResult for Result<SimReport, SimError> {
    fn into_sweep_result(self) -> Result<SimReport, MosaicError> {
        self.map_err(MosaicError::Sim)
    }
}

/// Runs one simulation per point of `points` across all available cores
/// and returns the reports in input order.
///
/// This is the parallel sweep harness the figures use: sweeps are
/// embarrassingly parallel (every [`SystemBuilder`] run is independent),
/// so points are distributed over `std::thread::available_parallelism()`
/// workers via an atomic work index. `job` maps a point to a
/// `(label, report-or-error)` pair (see [`IntoSweepResult`]) and must be
/// callable from any thread.
///
/// One failing configuration does not take the batch down: a returned
/// error — and even a panic inside `job` — becomes that point's
/// [`SweepPoint::result`] row while every other point still runs.
pub fn run_sweep<T, R, F>(points: &[T], job: F) -> Sweep
where
    T: Sync,
    R: IntoSweepResult,
    F: Fn(&T) -> (String, R) + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let n = points.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepPoint>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                // A panicking job must not poison the whole sweep; fold
                // it into the point's result like any other failure.
                // (&points[i] is a shared reference and the job ran to a
                // panic, so observing no partial state makes the
                // AssertUnwindSafe sound here.)
                let (label, result) = match catch_unwind(AssertUnwindSafe(|| {
                    let (label, r) = job(&points[i]);
                    (label, r.into_sweep_result())
                })) {
                    Ok(done) => done,
                    Err(payload) => {
                        let context = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("non-string panic payload")
                            .to_string();
                        (format!("point {i}"), Err(MosaicError::Panic { context }))
                    }
                };
                let point = SweepPoint {
                    label,
                    result,
                    wall_secs: t0.elapsed().as_secs_f64(),
                };
                *slots[i].lock().expect("sweep slot") = Some(point);
            }));
        }
        // Joined, not only waited for: glibc frees a thread's malloc arena
        // for reuse when the thread exits, after the scope could return, and
        // a sweep started in between gives a worker a new ~1.5 MiB arena.
        for worker in workers {
            worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    Sweep {
        points: slots
            .into_iter()
            .map(|m| m.into_inner().expect("sweep slot").expect("worker filled slot"))
            .collect(),
        wall_secs: start.elapsed().as_secs_f64(),
        threads,
    }
}

/// The shared-prefix snapshot a warm-start sweep forks from.
///
/// Produced by [`warm_start`]; holds the checkpoint (shared by reference
/// across all worker threads) and the wall-clock cost of the one prefix
/// simulation, so [`run_sweep_warm`] can account for it in the sweep
/// total.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Complete simulator state at the fork cycle.
    pub checkpoint: Arc<mosaic_ckpt::Checkpoint>,
    /// Cycle the prefix was paused at (the fork point).
    pub cycle: u64,
    /// Wall-clock seconds the prefix simulation took (paid once).
    pub prefix_secs: f64,
}

/// Simulates the shared configuration prefix once and snapshots it.
///
/// Builds `builder`, runs it to `prefix_cycles`, and captures a
/// checkpoint for [`run_sweep_warm`] to fork every sweep row from. The
/// rows must rebuild the *same* system (each tile's, the memory's and the
/// channels' configuration fingerprint is verified on resume);
/// run-control knobs — fast-forwarding, observability level, cycle limit —
/// may differ per row.
///
/// # Errors
///
/// Returns the build or simulation error of the prefix run, or an
/// invalid-config error when the system finishes before `prefix_cycles`
/// (a fork point after the end of the run cannot seed a sweep).
pub fn warm_start(builder: SystemBuilder, prefix_cycles: u64) -> Result<WarmStart, MosaicError> {
    let start = Instant::now();
    let mut il = builder.build()?;
    if let Some(done) = il.run_until(prefix_cycles)? {
        return Err(MosaicError::invalid_config(
            "warm_start.prefix_cycles",
            format!("simulation finished at cycle {done}, before the fork point {prefix_cycles}"),
        ));
    }
    let ckpt = il.save_checkpoint();
    Ok(WarmStart {
        cycle: ckpt.cycle(),
        checkpoint: Arc::new(ckpt),
        prefix_secs: start.elapsed().as_secs_f64(),
    })
}

/// [`run_sweep`], but every point forks from a [`warm_start`] snapshot
/// instead of simulating the shared prefix again.
///
/// `job` receives the point and the shared checkpoint; it should rebuild
/// the system and hand the checkpoint to
/// [`SystemBuilder::resume_from_checkpoint`]. Because resume is
/// bit-identical to straight-through simulation, the reports are the
/// ones a cold sweep would have produced — only faster, since the prefix
/// is simulated once instead of once per row.
///
/// The returned [`Sweep::wall_secs`] includes the prefix cost, so
/// throughput aggregates stay comparable with a cold [`run_sweep`].
pub fn run_sweep_warm<T, R, F>(points: &[T], warm: &WarmStart, job: F) -> Sweep
where
    T: Sync,
    R: IntoSweepResult,
    F: Fn(&T, &Arc<mosaic_ckpt::Checkpoint>) -> (String, R) + Sync,
{
    let mut sweep = run_sweep(points, |point| job(point, &warm.checkpoint));
    sweep.wall_secs += warm.prefix_secs;
    sweep
}

/// Geometric mean of a set of positive factors.
pub(crate) fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn spmd_harness_runs() {
        let p = mosaic_kernels::build_parboil("histo", 1);
        let r = run_spmd(&p, 2, CoreConfig::out_of_order(), mosaic_core::small_memory());
        assert!(r.cycles > 0);
        assert_eq!(r.tiles.len(), 2);
    }

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let points = [("histo", 1usize), ("bfs", 1), ("histo", 2)];
        let job = |&(name, tiles): &(&str, usize)| {
            let p = mosaic_kernels::build_parboil(name, 1);
            let r = run_spmd(&p, tiles, CoreConfig::out_of_order(), mosaic_core::small_memory());
            (format!("{name}/{tiles}t"), r)
        };
        let sweep = run_sweep(&points, job);
        assert_eq!(sweep.points.len(), points.len());
        assert!(sweep.threads >= 1);
        for (point, expect) in sweep.points.iter().zip(&points) {
            assert_eq!(point.label, format!("{}/{}t", expect.0, expect.1));
            let serial = job(expect).1;
            assert_eq!(point.report().cycles, serial.cycles, "{}", point.label);
            assert_eq!(point.report().total_retired, serial.total_retired);
        }
        assert!(sweep.sim_cycles_per_sec() > 0.0);
        assert!(!sweep.summary().is_empty());
    }

    /// Builds a producer/consumer system whose timing run deadlocks when
    /// `sends > recvs + capacity` (the functional run still completes,
    /// because interpreter queues are unbounded).
    fn chatter(sends: i64, recvs: i64) -> Result<SimReport, MosaicError> {
        use mosaic_ir::{Constant, FunctionBuilder, MemImage, Module, RtVal, Type};
        let mut m = Module::new("chatter");
        let produce = m.add_function("produce", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(produce));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, i| b.send(0, i));
        b.ret(None);
        let consume = m.add_function("consume", vec![("n".into(), Type::I64)], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(consume));
        let n = b.param(0);
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("i", Constant::i64(0).into(), n, |b, _| {
            b.recv(0, Type::I64);
        });
        b.ret(None);
        let programs = vec![
            TileProgram::single(produce, vec![RtVal::Int(sends)]),
            TileProgram::single(consume, vec![RtVal::Int(recvs)]),
        ];
        let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
        SystemBuilder::new(Arc::new(m), Arc::new(trace))
            .memory(mosaic_core::small_memory())
            .channels(ChannelConfig {
                capacity: 8,
                latency: 1,
            })
            .core(CoreConfig::in_order().with_name("p"), produce, 0)
            .core(CoreConfig::in_order().with_name("c"), consume, 1)
            .run()
    }

    /// One deadlocking configuration becomes a failure row; the rest of
    /// the batch still completes with reports.
    #[test]
    fn sweep_isolates_a_deadlocked_config() {
        // (sends, recvs): the middle point deadlocks, the others drain.
        let points = [(20i64, 20i64), (100, 10), (30, 30)];
        let sweep = run_sweep(&points, |&(sends, recvs)| {
            (format!("{sends}/{recvs}"), chatter(sends, recvs))
        });
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points[0].result.is_ok(), "{:?}", sweep.points[0].result);
        assert!(sweep.points[2].result.is_ok(), "{:?}", sweep.points[2].result);
        match &sweep.points[1].result {
            Err(MosaicError::Sim(mosaic_core::SimError::Deadlock { snapshot })) => {
                // The failure row carries the full wait-for evidence.
                assert!(snapshot.to_string().contains("full channel 0"));
            }
            other => panic!("expected a deadlock row, got {other:?}"),
        }
        assert_eq!(sweep.failed().count(), 1);
        assert!(sweep.summary().contains("1 FAILED"), "{}", sweep.summary());
    }

    /// Warm-start forking is an optimization, not a semantics change:
    /// every forked row's report must be bit-identical to a cold
    /// straight-through run of the same configuration.
    #[test]
    fn warm_sweep_rows_match_cold_runs() {
        let p = mosaic_kernels::build_parboil("sgemm", 1);
        let (trace, _) = p.trace(1).expect("trace");
        let module = Arc::new(p.module.clone());
        let trace = Arc::new(trace);
        let make = || {
            SystemBuilder::new(module.clone(), trace.clone())
                .memory(mosaic_core::small_memory())
                .core(CoreConfig::out_of_order().with_name("warm"), p.func, 0)
        };
        let warm = warm_start(make(), 2_000).expect("warm start");
        assert_eq!(warm.checkpoint.cycle(), 2_000);
        // Rows vary a run-control knob (fast-forwarding) that resume
        // explicitly allows to differ from the prefix run.
        let points = [true, false, true];
        let sweep = run_sweep_warm(&points, &warm, |&ff, ckpt| {
            (
                format!("ff={ff}"),
                make()
                    .fast_forward(ff)
                    .resume_from_checkpoint(ckpt.clone())
                    .run(),
            )
        });
        assert_eq!(sweep.points.len(), points.len());
        for (point, &ff) in sweep.points.iter().zip(&points) {
            let cold = make().fast_forward(ff).run().expect("cold run");
            assert_eq!(point.report().cycles, cold.cycles, "{}", point.label);
            assert_eq!(point.report().total_retired, cold.total_retired, "{}", point.label);
        }
        assert!(sweep.wall_secs >= warm.prefix_secs);
    }

    /// Even a panic inside the job is confined to its point's row.
    #[test]
    fn sweep_isolates_a_panicking_job() {
        let points = [1usize, 2, 3];
        let sweep = run_sweep(&points, |&i| {
            if i == 2 {
                panic!("point {i} exploded");
            }
            let p = mosaic_kernels::build_parboil("histo", 1);
            (
                format!("ok{i}"),
                run_spmd(&p, 1, CoreConfig::in_order(), mosaic_core::small_memory()),
            )
        });
        assert!(sweep.points[0].result.is_ok());
        assert!(sweep.points[2].result.is_ok());
        match &sweep.points[1].result {
            Err(MosaicError::Panic { context }) => {
                assert!(context.contains("point 2 exploded"), "{context}");
            }
            other => panic!("expected a panic row, got {other:?}"),
        }
        assert!(sweep.summary().contains("1 FAILED"));
    }
}

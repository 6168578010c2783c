//! The untraced run: set-up passes, timed reps of the point list, the
//! correctness checks, and the five end-to-end metrics.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mosaic_bench::{run_sweep, run_sweep_warm, warm_start, Sweep};
use mosaicsim::core::{MosaicError, SimReport};

use crate::calib::{LoadGauge, Timing};
use crate::stats::{summarize, Summary};
use crate::workloads::{Front, Pin, PointSpec, Size, Staged, WorkloadSpec};
use crate::{Metric, RunResult, END_TO_END};

/// Set-up passes per run: `setup_s` is their median, so one pass that
/// collides with another process does not decide the number.
pub const SETUP_PASSES: usize = 7;

/// Fewest timed reps per run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Host-memory high-water mark of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one simulated point produced in one rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Point id (warm rows: `<id>.row<k>`).
    pub id: String,
    /// `(cycles, retired)`, or why the point failed.
    pub result: Result<Pin, String>,
    /// Time of the point's `SystemBuilder::run()` call.
    pub timing: Timing,
}

/// One pass over the point list.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// One outcome per point, then one per warm row.
    pub outcomes: Vec<Outcome>,
    /// Time of the rep: the `run()` calls of a serial workload,
    /// `Sweep::wall_secs` (cold + warm, prefix included) of a sweep.
    pub timing: Timing,
    /// Worker threads the sweep harness used (1 for serial workloads).
    pub threads: usize,
    /// Σ point wall ÷ (threads × sweep wall) of the cold sweep.
    pub parallel_eff: f64,
    /// The warm half's share of the rep's wall seconds (prefix included).
    pub warm_wall_secs: f64,
}

impl Rep {
    /// Retired instructions over the points that succeeded.
    pub fn retired(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|p| p.retired)
            .sum()
    }

    /// Simulated instructions per calibrated host second, millions.
    pub fn mips(&self) -> f64 {
        self.retired() as f64 / self.timing.calibrated_secs / 1e6
    }

    /// Simulated instructions per wall second, millions.
    pub fn wall_mips(&self) -> f64 {
        self.retired() as f64 / self.timing.wall_secs / 1e6
    }
}

fn pin_of(result: Result<SimReport, MosaicError>) -> Result<Pin, String> {
    result
        .map(|r| Pin {
            cycles: r.cycles,
            retired: r.total_retired,
        })
        .map_err(|e| e.to_string())
}

/// Runs one point the way a user does — `SystemBuilder::run()` — and, for
/// an observed point, renders what the observability level recorded (the
/// Chrome trace at `Trace`, the registry dump at `Stats` and above),
/// because that rendering is the cost of observing.
pub fn run_point(staged: &Staged, p: &PointSpec, front: &Front, gauge: &mut LoadGauge) -> Outcome {
    let (result, timing) = gauge.time(|| {
        let result = staged.builder(p, front).run();
        if let Ok(report) = &result {
            let level = p.obs_level();
            if level.trace_on() {
                black_box(report.timeline.to_chrome_json().len());
            }
            if level.stats_on() {
                black_box(report.registry.to_json().len());
            }
        }
        result
    });
    Outcome {
        id: p.id.clone(),
        result: pin_of(result),
        timing,
    }
}

/// The harness's own wall time for `sweep` (which for a warm sweep
/// includes the prefix), scaled by the load seen around the call.
fn harness_timing(sweep: &Sweep, around: Timing) -> Timing {
    Timing {
        wall_secs: sweep.wall_secs,
        calibrated_secs: sweep.wall_secs * around.calibrated_secs / around.wall_secs,
    }
}

/// The points of a sweep as outcomes, each point's wall time scaled by
/// the load seen around the whole sweep call.
fn sweep_outcomes(sweep: Sweep, around: Timing, out: &mut Vec<Outcome>) {
    let load = around.calibrated_secs / around.wall_secs;
    out.extend(sweep.points.into_iter().map(|pt| Outcome {
        id: pt.label,
        result: pin_of(pt.result),
        timing: Timing {
            wall_secs: pt.wall_secs,
            calibrated_secs: pt.wall_secs * load,
        },
    }));
}

/// One timed pass over the staged point list.
pub fn run_rep(staged: &Staged, gauge: &mut LoadGauge) -> Rep {
    let spec = staged.spec;
    if !spec.sweep {
        let outcomes: Vec<Outcome> = spec
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| run_point(staged, p, staged.front(i), gauge))
            .collect();
        let timing = outcomes
            .iter()
            .fold(Timing::default(), |sum, o| sum.plus(o.timing));
        return Rep {
            outcomes,
            timing,
            threads: 1,
            parallel_eff: 1.0,
            warm_wall_secs: 0.0,
        };
    }

    let indices: Vec<usize> = (0..spec.points.len()).collect();
    let (cold, around) = gauge.time(|| {
        run_sweep(&indices, |&i| {
            let p = &spec.points[i];
            (p.id.clone(), staged.builder(p, staged.front(i)).run())
        })
    });
    let threads = cold.threads;
    let mut timing = harness_timing(&cold, around);
    let busy: f64 = cold.points.iter().map(|p| p.wall_secs).sum();
    let parallel_eff = busy / (threads as f64 * cold.wall_secs);
    let mut warm_wall_secs = 0.0;
    let mut outcomes = Vec::new();
    sweep_outcomes(cold, around, &mut outcomes);

    if let (Some(warm), Some(front)) = (&spec.warm, staged.warm_front()) {
        let p = &warm.point;
        let rows = warm.row_fast_forward();
        let (forked, around) = gauge.time(|| {
            let cycle = warm
                .fork_cycle(staged.size)
                .ok_or_else(|| format!("{} has no pin to fork from; run --repin", p.id))?;
            let start = warm_start(staged.builder(p, front), cycle).map_err(|e| e.to_string())?;
            Ok::<Sweep, String>(run_sweep_warm(&rows, &start, |&ff, ckpt| {
                let run = staged
                    .builder(p, front)
                    .fast_forward(ff)
                    .resume_from_checkpoint(ckpt.clone())
                    .run();
                (String::new(), run)
            }))
        });
        match forked {
            Ok(sweep) => {
                warm_wall_secs = sweep.wall_secs;
                timing = timing.plus(harness_timing(&sweep, around));
                let first = outcomes.len();
                sweep_outcomes(sweep, around, &mut outcomes);
                for (k, o) in outcomes[first..].iter_mut().enumerate() {
                    o.id = format!("{}.row{k}", p.id);
                }
            }
            Err(e) => outcomes.extend((0..warm.rows).map(|k| Outcome {
                id: format!("{}.row{k}", p.id),
                result: Err(e.clone()),
                timing: Timing::default(),
            })),
        }
    }
    Rep {
        outcomes,
        timing,
        threads,
        parallel_eff,
        warm_wall_secs,
    }
}

/// The point and front behind outcome `k` of a rep (points first, then
/// the warm rows, which all replay the warm point).
fn behind<'s>(staged: &'s Staged, k: usize) -> (&'s PointSpec, &'s Front) {
    let spec = staged.spec;
    match spec.points.get(k) {
        Some(p) => (p, staged.front(k)),
        None => {
            let warm = spec
                .warm
                .as_ref()
                .expect("outcomes past the points are warm rows");
            (
                &warm.point,
                staged.warm_front().expect("a warm half has a front"),
            )
        }
    }
}

/// Checks every outcome of every rep. An operation fails on a simulation
/// error, on `(cycles, retired)` other than the pin (seeded points are
/// pinned for seed 1 only), on a retired count other than the trace's, and
/// on two reps disagreeing.
pub fn check(staged: &Staged, seed: u64, reps: &[Rep]) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    for (r, rep) in reps.iter().enumerate() {
        for (k, o) in rep.outcomes.iter().enumerate() {
            attempted += 1;
            let (p, front) = behind(staged, k);
            let pin = p.expected(staged.size, seed);
            let problem = match &o.result {
                Err(e) => Some(format!("simulation failed: {e}")),
                Ok(got) if pin.is_some_and(|want| want != *got) => {
                    Some(format!("got {got:?}, pinned {:?}", pin.expect("checked")))
                }
                Ok(got) if got.retired != front.trace.total_retired() => Some(format!(
                    "retired {} but the trace holds {}",
                    got.retired,
                    front.trace.total_retired()
                )),
                Ok(got) if reps[0].outcomes[k].result.as_ref() != Ok(got) => Some(format!(
                    "rep {r} got {got:?}, rep 0 got {:?}",
                    reps[0].outcomes[k].result
                )),
                Ok(_) => None,
            };
            if let Some(problem) = problem {
                failed += 1;
                if failures.len() < 20 {
                    failures.push(format!("{} rep {r}: {problem}", o.id));
                }
            }
        }
    }
    (attempted, failed, failures)
}

/// Everything the untraced run measured.
pub struct Measured {
    /// The result line's content.
    pub result: RunResult,
    /// The timed reps.
    pub reps: Vec<Rep>,
    /// Time of each set-up pass.
    pub setup: Vec<Timing>,
}

/// Runs the set-up passes, keeping the last pass's product.
///
/// # Errors
///
/// A front-end stage failure.
pub fn stage_timed<'w>(
    spec: &'w WorkloadSpec,
    size: Size,
    seed: u64,
    out_dir: &Path,
    passes: usize,
    gauge: &mut LoadGauge,
) -> Result<(Staged<'w>, Vec<Timing>), String> {
    let mut times = Vec::with_capacity(passes);
    let mut staged = None;
    for _ in 0..passes.max(1) {
        // Drop the previous product first: peak memory should be one
        // pass's, not two.
        drop(staged.take());
        let (product, timing) = gauge.time(|| Staged::stage(spec, size, seed, out_dir));
        times.push(timing);
        staged = Some(product?);
    }
    Ok((staged.expect("at least one pass ran"), times))
}

fn metric(name: &str, value: f64, samples: Option<Summary>) -> Metric {
    let &((name, unit, _), _) = END_TO_END
        .iter()
        .find(|((n, _, _), _)| *n == name)
        .expect("end-to-end metrics are declared in END_TO_END");
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// The untraced run of one workload: `passes` set-up passes, then reps of
/// the point list until `seconds` have been measured (at least
/// `min_reps`), then the checks.
///
/// # Errors
///
/// A front-end stage failure. Simulation failures are counted, not
/// returned.
pub fn measure(
    spec: &WorkloadSpec,
    size: Size,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    passes: usize,
    min_reps: usize,
) -> Result<Measured, String> {
    let (staged, setup) =
        stage_timed(spec, size, seed, out_dir, passes, &mut LoadGauge::default())?;
    // Set-up is single-threaded; a sweep's reps keep every core busy.
    let threads = if spec.sweep {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(spec.points.len())
    } else {
        1
    };
    let mut gauge = LoadGauge::new(threads);
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps.max(1) || started.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(&staged, &mut gauge));
    }
    let (attempted, failed, failures) = check(&staged, seed, &reps);

    // Timings are in calibrated seconds (see `calib`), and the reported
    // value is the median over reps or passes: on the shared boxes this
    // runs on that repeats within 1–2 %, where the best rep spreads 10 %.
    let mips_summary = summarize(&reps.iter().map(Rep::mips).collect::<Vec<_>>());
    let setup_summary = summarize(&setup.iter().map(|t| t.calibrated_secs).collect::<Vec<_>>());
    let metrics = vec![
        metric("sim_mips", mips_summary.median, Some(mips_summary.clone())),
        metric("setup_s", setup_summary.median, Some(setup_summary.clone())),
        metric("peak_rss_mb", peak_rss_mib(), None),
        metric(
            "trace_bytes_per_instr",
            staged.trace_bytes() as f64 / staged.trace_retired() as f64,
            None,
        ),
        metric(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            None,
        ),
    ];
    Ok(Measured {
        result: RunResult {
            attempted,
            failed,
            failures,
            metrics,
        },
        reps,
        setup,
    })
}

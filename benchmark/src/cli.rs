//! The command line: one workload in this process, or every workload each
//! in a process of its own (so `peak_rss_mb` is the workload's).

use std::path::{Path, PathBuf};
use std::process::Command;

use mosaicsim::obs::json::{parse, JsonValue};

use crate::calib::LoadGauge;
use crate::e2e::{measure, run_point, Rep, MIN_REPS, SETUP_PASSES};
use crate::jsonio::{num, object, render, render_lines, string};
use crate::layers::measure_layers;
use crate::workloads::{Catalog, Pin, Size, Staged};
use crate::{Metric, RunResult, END_TO_END, WORKLOADS};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                        [--quick] [--selfcheck] [--repin]

  (no --workload)   every workload, each in its own process
  --workload NAME   one of: compute_ooo memstall_ino manytile_chan observed_ckpt dse_sweep
  --seed N          seeds the benchmark-owned gather kernel only (default 1)
  --seconds S       how long the timed reps run (default 12)
  --trace 1         per-layer metrics from the traced driver (alias: --traced)
  --quick           scale-1 points, one set-up pass, one rep: checks only
  --selfcheck       runs the full untraced set twice; fails if any end-to-end
                    metric differs between the sets by more than its bound
  --repin           re-measures (cycles, retired) of every point and rewrites
                    workloads.json; only after an intended timing-model change";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The benchmark directory (`workloads.json`, `out/`).
    pub root: PathBuf,
    /// One workload, or all of them.
    pub workload: Option<String>,
    /// Gather seed.
    pub seed: u64,
    /// Timed-rep budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Smoke size.
    pub quick: bool,
    /// Two-set agreement check.
    pub selfcheck: bool,
    /// Rewrite the pins.
    pub repin: bool,
}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Names the offending argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            root: PathBuf::from("benchmark"),
            workload: None,
            seed: 1,
            seconds: 12.0,
            trace: false,
            quick: false,
            selfcheck: false,
            repin: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--root" => out.root = PathBuf::from(value("a directory")?),
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                    }
                    out.workload = Some(name.clone());
                }
                "--seed" => {
                    out.seed = value("a whole number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?;
                }
                "--seconds" => {
                    out.seconds = value("a number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?;
                }
                "--trace" => {
                    out.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--traced" => out.trace = true,
                "--quick" => out.quick = true,
                "--selfcheck" => out.selfcheck = true,
                "--repin" => out.repin = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        Ok(out)
    }

    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    fn out_dir(&self) -> PathBuf {
        self.root.join("out")
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    render(&object([
        ("correct", JsonValue::Bool(r.failed == 0)),
        ("attempted", JsonValue::Int(r.attempted)),
        ("failed", JsonValue::Int(r.failed)),
        ("metrics", r.metrics_json()),
    ]))
}

fn metric_json(m: &Metric) -> JsonValue {
    let mut fields = vec![("value", num(m.value)), ("unit", string(m.unit))];
    if let Some(s) = &m.samples {
        fields.extend([
            ("n", JsonValue::Int(s.n as u64)),
            ("min", num(s.min)),
            ("q1", num(s.q1)),
            ("median", num(s.median)),
            ("q3", num(s.q3)),
            ("max", num(s.max)),
        ]);
    }
    object(fields)
}

fn print_metrics(workload: &str, r: &RunResult) {
    for m in &r.metrics {
        println!("{workload:<14} {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload:<14} ops_attempted {}  ops_failed {}",
        r.attempted, r.failed
    );
    for f in &r.failures {
        eprintln!("{workload}: FAILED {f}");
    }
}

fn write_out(dir: &Path, file: &str, value: &JsonValue) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, render_lines(value)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process and prints its result line last.
fn run_workload(args: &Args, name: &str) -> Result<RunResult, String> {
    let catalog = Catalog::load(&args.root)?;
    let spec = catalog
        .workload(name)
        .ok_or_else(|| format!("workloads.json does not define `{name}`"))?;
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let result = if args.trace {
        let layered = measure_layers(spec, args.size(), args.seed, &out_dir)?;
        write_out(&out_dir, &format!("trace_{name}.json"), &layered.trace_file)?;
        layered.result
    } else {
        let (passes, min_reps, seconds) = if args.quick {
            (1, 1, 0.0)
        } else {
            (SETUP_PASSES, MIN_REPS, args.seconds)
        };
        let m = measure(
            spec,
            args.size(),
            args.seed,
            seconds,
            &out_dir,
            passes,
            min_reps,
        )?;
        let points: Vec<JsonValue> = m.reps[0]
            .outcomes
            .iter()
            .enumerate()
            .map(|(k, o)| {
                let best = m
                    .reps
                    .iter()
                    .map(|r| r.outcomes[k].timing.wall_secs)
                    .fold(f64::INFINITY, f64::min);
                let (cycles, retired) = o.result.as_ref().map_or((0, 0), |p| (p.cycles, p.retired));
                object([
                    ("id", string(&o.id)),
                    ("cycles", JsonValue::Int(cycles)),
                    ("retired", JsonValue::Int(retired)),
                    ("best_wall_s", num(best)),
                ])
            })
            .collect();
        let list = |values: Vec<f64>| JsonValue::Arr(values.into_iter().map(num).collect());
        let file = object([
            ("workload", string(name)),
            ("why", string(&spec.why)),
            ("seed", JsonValue::Int(args.seed)),
            ("quick", JsonValue::Bool(args.quick)),
            ("seconds", num(seconds)),
            ("reps", JsonValue::Int(m.reps.len() as u64)),
            ("threads", JsonValue::Int(m.reps[0].threads as u64)),
            ("ops_attempted", JsonValue::Int(m.result.attempted)),
            ("ops_failed", JsonValue::Int(m.result.failed)),
            (
                "failures",
                JsonValue::Arr(m.result.failures.iter().map(string).collect()),
            ),
            (
                "metrics",
                object(m.result.metrics.iter().map(|x| (x.name, metric_json(x)))),
            ),
            (
                "setup_pass_wall_s",
                list(m.setup.iter().map(|t| t.wall_secs).collect()),
            ),
            (
                "rep_wall_s",
                list(m.reps.iter().map(|r| r.timing.wall_secs).collect()),
            ),
            (
                "rep_calibrated_s",
                list(m.reps.iter().map(|r| r.timing.calibrated_secs).collect()),
            ),
            (
                "rep_wall_mips",
                list(m.reps.iter().map(Rep::wall_mips).collect()),
            ),
            ("points", JsonValue::Arr(points)),
        ]);
        write_out(&out_dir, &format!("{name}.json"), &file)?;
        m.result
    };
    print_metrics(name, &result);
    println!("{}", result_line(&result));
    Ok(result)
}

/// Runs `name` in a child process and returns its parsed result line.
fn spawn_workload(args: &Args, name: &str) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--root").arg(&args.root).args(["--workload", name]);
    cmd.args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; its stderr (failure notes) passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "the {name} run exited with {}\n{stdout}",
            out.status
        ));
    }
    // The child printed its metrics for people, then its result line.
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("the {name} run printed no result line"))?;
    println!("{report}");
    parse(last).map_err(|e| format!("the {name} run's result line does not parse: {e}"))
}

/// `(name, value)` of every metric of a parsed result line.
fn metrics_of(line: &JsonValue) -> Vec<(&str, f64)> {
    line.get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
            (name.as_str(), value)
        })
        .collect()
}

/// One set: every workload, each in its own process. Returns the parsed
/// result lines in workload order.
fn run_set(args: &Args) -> Result<Vec<JsonValue>, String> {
    WORKLOADS
        .iter()
        .map(|name| spawn_workload(args, name))
        .collect()
}

fn all_correct(lines: &[JsonValue]) -> bool {
    lines
        .iter()
        .all(|l| l.get("correct") == Some(&JsonValue::Bool(true)))
}

/// Two back-to-back sets; every end-to-end metric must agree within its
/// bound, and nothing may fail.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("# selfcheck: first set");
    let first = run_set(args)?;
    println!("# selfcheck: second set");
    let second = run_set(args)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("# selfcheck: second set against first");
    for ((name, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        let (a, b) = (metrics_of(a), metrics_of(b));
        for &((metric, _, better), bound) in &END_TO_END {
            let find = |set: &[(&str, f64)]| set.iter().find(|m| m.0 == metric).map(|m| m.1);
            let (Some(x), Some(y)) = (find(&a), find(&b)) else {
                return Err(format!("{name}: a set did not report {metric}"));
            };
            let change = if x == 0.0 { 0.0 } else { (y - x) / x };
            let within = change.abs() <= bound;
            ok &= within;
            println!(
                "{name:<14} {metric:<24} {x:>14.6} -> {y:>14.6}  {:+7.2}% (bound {:.1}%, {} is better)  {}",
                100.0 * change,
                100.0 * bound,
                better.as_str(),
                if within { "ok" } else { "DIFFERS" }
            );
        }
    }
    println!("# selfcheck: {}", if ok { "green" } else { "RED" });
    Ok(ok)
}

/// Re-measures every point at both sizes and rewrites the pins. Seeded
/// points are pinned at seed 1.
fn repin(args: &Args) -> Result<(), String> {
    let mut catalog = Catalog::load(&args.root)?;
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut gauge = LoadGauge::default();
    for w in 0..catalog.workloads.len() {
        for size in [Size::Full, Size::Quick] {
            // Serially and untimed: only the simulated result matters here.
            let mut spec = catalog.workloads[w].clone();
            spec.sweep = false;
            spec.points.extend(spec.warm.take().map(|warm| warm.point));
            let staged = Staged::stage(&spec, size, 1, &out_dir)?;
            let mut pins: Vec<(String, Pin)> = Vec::new();
            for (i, p) in spec.points.iter().enumerate() {
                let pin = run_point(&staged, p, staged.front(i), &mut gauge)
                    .result
                    .map_err(|e| format!("{}/{}: {e}", spec.name, p.id))?;
                println!(
                    "{:<14} {:<22} {size:?}: cycles {} retired {}",
                    spec.name, p.id, pin.cycles, pin.retired
                );
                pins.push((p.id.clone(), pin));
            }
            for (id, pin) in pins {
                catalog.workloads[w].set_pin(&id, size, pin);
            }
        }
    }
    let path = args.root.join("workloads.json");
    std::fs::write(&path, catalog.to_text()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("rewrote {}", path.display());
    Ok(())
}

/// Entry point; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let outcome = if args.repin {
        repin(&args).map(|()| true)
    } else if args.selfcheck {
        selfcheck(&args)
    } else if let Some(name) = &args.workload {
        // A failed check is reported in the result line (`correct`,
        // `failed`), not through the exit code.
        run_workload(&args, name).map(|_| true)
    } else {
        run_set(&args).map(|lines| all_correct(&lines))
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_issue_spellings_parse() {
        let a = Args::parse(&argv(
            "--root b --workload dse_sweep --seed 7 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("dse_sweep"), 7, 10.0, true)
        );
        let a = Args::parse(&argv("--traced --quick")).expect("parses");
        assert!(a.trace && a.quick && a.workload.is_none());
        assert!(!Args::parse(&argv("--trace 0")).expect("parses").trace);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let r = RunResult {
            attempted: 45,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric {
                    name: "sim_mips",
                    unit: "Minstr/s",
                    value: 1.5,
                    samples: Some(summarize(&[1.0, 1.5])),
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 2.0,
                    samples: None,
                },
            ],
        };
        let line = result_line(&r);
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metrics_of(&v), [("sim_mips", 1.5), ("setup_s", 2.0)]);
        assert_eq!(render(&v), line);
    }
}

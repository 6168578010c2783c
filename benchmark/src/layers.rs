//! The traced run: one pass over the point list through the outside-in
//! traced driver, an untraced twin of every point for the overhead and
//! the `sim.ff.*` cross-check, the isolation drivers, and the per-layer
//! metrics assembled from all of it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mosaic_bench::run_sweep;
use mosaicsim::core::{dae_channel, Interleaver, SimReport};
use mosaicsim::lint::lint_system;
use mosaicsim::obs::json::JsonValue;
use mosaicsim::obs::ObsLevel;
use mosaicsim::passes::DaeQueues;

use crate::calib::{LoadGauge, Timing};
use crate::e2e::{run_rep, Rep};
use crate::isolation::{access_streams, channel_replay, mao_replay, mem_replay, OpCost};
use crate::jsonio::{num, object, string};
use crate::stats::{high_percentile, summarize};
use crate::traced::{run_traced, HotSpan, LoopTrace, Recorder};
use crate::workloads::{
    lint_bindings, tile_config, Front, Pin, PointSpec, Size, Staged, WorkloadSpec,
};
use crate::{Metric, RunResult, PER_LAYER};

/// The cycle cap `SystemBuilder` applies by default; `into_parts` does
/// not hand it over, so the traced loop is given it again.
const CYCLE_LIMIT: u64 = 2_000_000_000;

/// Untraced sweep reps behind the `bench.*` percentiles.
const SWEEP_REPS: usize = 3;

/// Runs per level behind the `obs.*_overhead_pct` figures (median of).
const OBS_RUNS: usize = 3;

/// Sums over the traced points of a workload.
#[derive(Default)]
struct Totals {
    trace: LoopTrace,
    traced_build_s: f64,
    /// Build + loop of the traced runs, for the overhead figure.
    traced: Timing,
    twin_build_s: f64,
    twin_loop_s: f64,
    twin_run_s: f64,
    /// Build + loop of the untraced twins.
    twin: Timing,
    lint_s: f64,
    part_s: f64,
}

impl Totals {
    fn add(&mut self, t: &LoopTrace) {
        let sum = &mut self.trace;
        for (mine, theirs) in [
            (&mut sum.mem_step, &t.mem_step),
            (&mut sum.completion, &t.completion),
            (&mut sum.tile_step, &t.tile_step),
            (&mut sum.survey, &t.survey),
            (&mut sum.skip_apply, &t.skip_apply),
            (&mut sum.skip_credit, &t.skip_credit),
        ] {
            HotSpan::merge(mine, theirs);
        }
        sum.steps += t.steps;
        sum.cycles_skipped += t.cycles_skipped;
        sum.skips_taken += t.skips_taken;
        sum.idle_tile_steps += t.idle_tile_steps;
        sum.loop_ns += t.loop_ns;
        sum.cycles += t.cycles;
        sum.retired += t.retired;
        sum.channel_sends += t.channel_sends;
        sum.mem.l1_hits += t.mem.l1_hits;
        sum.mem.l1_misses += t.mem.l1_misses;
        sum.mem.llc_hits += t.mem.llc_hits;
        sum.mem.llc_misses += t.mem.llc_misses;
        sum.mem.dram_reads += t.mem.dram_reads;
        sum.mem.prefetches += t.mem.prefetches;
    }
}

fn secs_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the untraced twin of a point reports.
struct Twin {
    build_s: f64,
    loop_s: f64,
    run_s: f64,
    /// `build()` + `Interleaver::run()` together, calibrated.
    build_and_loop: Timing,
    pin: Pin,
    steps: u64,
    cycles_skipped: u64,
    skips_taken: u64,
    report: SimReport,
}

/// Runs a point untraced twice: once as `build()` + `Interleaver::run()`
/// timed apart, once as the single `SystemBuilder::run()` call users make
/// (whose extra over the first is the report assembly).
///
/// The twin writes no periodic checkpoints, because the traced loop it is
/// compared with cannot (`into_parts` drops the policy); checkpoint cost
/// is the `ckpt.*` driver's to measure.
fn twin(
    staged: &Staged,
    p: &PointSpec,
    front: &Front,
    gauge: &mut LoadGauge,
) -> Result<Twin, String> {
    let p = &PointSpec {
        ckpt_every: None,
        ..p.clone()
    };
    let (split, build_and_loop) = gauge.time(|| -> Result<_, String> {
        let (il, build_s) = secs_of(|| staged.builder(p, front).build());
        let mut il: Interleaver = il.map_err(|e| e.to_string())?;
        let (cycles, loop_s) = secs_of(|| il.run());
        Ok((il, build_s, cycles.map_err(|e| e.to_string())?, loop_s))
    });
    let (il, build_s, cycles, loop_s) = split?;
    let (report, run_s) = secs_of(|| staged.builder(p, front).run());
    let report = report.map_err(|e| e.to_string())?;
    if report.cycles != cycles {
        return Err(format!(
            "run() ended at {} but build()+run() at {cycles}",
            report.cycles
        ));
    }
    Ok(Twin {
        build_s,
        loop_s,
        run_s,
        build_and_loop,
        pin: Pin {
            cycles,
            retired: report.total_retired,
        },
        steps: il.steps_executed(),
        cycles_skipped: il.cycles_skipped(),
        skips_taken: il.skips_taken(),
        report,
    })
}

/// The periodic-checkpoint policy driven from outside: pause at every
/// multiple of `every` with `run_until`, snapshot and encode there, then
/// restore the middle snapshot into a fresh system and run it out.
#[derive(Default)]
struct CkptCost {
    saves: u64,
    save_s: f64,
    encoded_bytes: u64,
    last_bytes: u64,
    restore_s: f64,
}

fn ckpt_driver(
    staged: &Staged,
    p: &PointSpec,
    front: &Front,
    every: u64,
    want: Pin,
) -> Result<CkptCost, String> {
    let mut il = staged
        .builder(p, front)
        .build()
        .map_err(|e| e.to_string())?;
    let mut cost = CkptCost::default();
    let mut snapshots = Vec::new();
    let mut boundary = every;
    while il.run_until(boundary).map_err(|e| e.to_string())?.is_none() {
        let (bytes, s) = secs_of(|| il.save_checkpoint().to_bytes());
        cost.saves += 1;
        cost.save_s += s;
        cost.encoded_bytes += bytes.len() as u64;
        cost.last_bytes = bytes.len() as u64;
        snapshots.push(bytes);
        boundary = il.now().div_ceil(every).max(1) * every;
        if boundary <= il.now() {
            boundary += every;
        }
    }
    if let Some(bytes) = snapshots.get(snapshots.len() / 2) {
        let mut fresh = staged
            .builder(p, front)
            .build()
            .map_err(|e| e.to_string())?;
        let (restored, s) = secs_of(|| {
            mosaicsim::ckpt::Checkpoint::from_bytes(bytes, "ledger snapshot")
                .and_then(|ckpt| fresh.restore_checkpoint(&ckpt))
        });
        restored.map_err(|e| e.to_string())?;
        cost.restore_s = s;
        let cycles = fresh.run().map_err(|e| e.to_string())?;
        if cycles != want.cycles {
            return Err(format!(
                "resumed run ended at cycle {cycles}, straight run at {}",
                want.cycles
            ));
        }
    }
    Ok(cost)
}

/// Median calibrated seconds of `OBS_RUNS` runs of `p` at `level`,
/// rendering included. Calibrated, like `traced.overhead_pct`, because
/// two levels run at different moments are divided.
fn typical_secs_at(
    staged: &Staged,
    p: &PointSpec,
    front: &Front,
    level: &str,
    gauge: &mut LoadGauge,
) -> Result<f64, String> {
    let mut at = p.clone();
    at.obs = level.to_string();
    at.ckpt_every = None;
    let mut secs = Vec::with_capacity(OBS_RUNS);
    for _ in 0..OBS_RUNS {
        let o = crate::e2e::run_point(staged, &at, front, gauge);
        o.result?;
        secs.push(o.timing.calibrated_secs);
    }
    Ok(summarize(&secs).median)
}

/// Values, operation counts and failure notes gathered along the run.
#[derive(Default)]
struct Ledger {
    /// A metric nothing sets reports 0: the layer did not run.
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Adds `value` to metric `name` (sums over points; most metrics
    /// are added to once).
    fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.0 == name),
            "{name} is not declared in PER_LAYER"
        );
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

/// The per-layer metrics of one workload and the trace file's content.
pub struct Layered {
    /// The result line's content.
    pub result: RunResult,
    /// `out/trace_<workload>.json`.
    pub trace_file: JsonValue,
}

/// The traced run of one workload.
///
/// # Errors
///
/// A front-end stage failure. Failures of simulated points are counted,
/// not returned.
pub fn measure_layers(
    spec: &WorkloadSpec,
    size: Size,
    seed: u64,
    out_dir: &Path,
) -> Result<Layered, String> {
    let mut rec = Recorder::default();
    let mut led = Ledger::default();
    let mut gauge = LoadGauge::default();

    // Set-up, once. The stages time themselves (a dozen clock reads per
    // kernel); their spans are laid out back to back under `setup`.
    let setup = rec.begin("setup", None, None);
    let staged = Staged::stage(spec, size, seed, out_dir)?;
    rec.end(setup);
    let mut cursor = rec.spans[setup].start_ns;
    for front in &staged.fronts {
        let t = front.times;
        for (name, secs) in [
            ("kernels.build", t.kernel_build),
            ("passes.dae_slice", t.dae_slice),
            ("ir.dtg", t.dtg),
            ("ddg.build", t.ddg),
            ("trace.write", t.trace_write),
            ("trace.read", t.trace_read),
        ] {
            let end = cursor + (secs * 1e9) as u64;
            rec.push_span(name, None, Some(setup), cursor, end);
            cursor = end;
        }
    }
    let t = staged.times();
    let instrs = staged.trace_retired();
    led.add("kernels.build_s", t.kernel_build);
    led.add("passes.dae_slice_ms", t.dae_slice * 1e3);
    led.add("ir.dtg_s", t.dtg);
    led.add("ir.dtg_minstr_per_s", ratio(instrs as f64 / 1e6, t.dtg));
    led.add("ir.dtg_instrs", instrs as f64);
    led.add("trace.write_s", t.trace_write);
    led.add("trace.read_s", t.trace_read);
    led.add("trace.bytes", staged.trace_bytes() as f64);
    led.add("ddg.build_us", t.ddg * 1e6);
    led.add(
        "ddg.nodes",
        staged.fronts.iter().map(|f| f.ddg_nodes).sum::<u64>() as f64,
    );

    // The traced pass, one point after another on this thread.
    let mut totals = Totals::default();
    let mut point_rows = Vec::new();
    let mut hot_rows = Vec::new();
    let mut dae_sends = 0u64;
    for (i, p) in spec.points.iter().enumerate() {
        led.attempted += 1;
        let front = staged.front(i);
        let root = rec.begin("point", Some(i), None);

        let untraced = match twin(&staged, p, front, &mut gauge) {
            Ok(t) => t,
            Err(e) => {
                led.fail(format!("{}: untraced twin failed: {e}", p.id));
                rec.end(root);
                continue;
            }
        };
        let ((build_s, loop_span, traced), traced_timing) = gauge.time(|| {
            let (il, build_s) = rec.span("core.build", Some(i), Some(root), || {
                staged.builder(p, front).build()
            });
            let loop_span = rec.begin("core.loop", Some(i), Some(root));
            let traced = il
                .map_err(|e| e.to_string())
                .and_then(|il| run_traced(il, true, CYCLE_LIMIT));
            rec.end(loop_span);
            (build_s, loop_span, traced)
        });
        let ((), lint_s) = rec.span("lint.system", Some(i), Some(root), || {
            black_box(lint_system(&front.module, &lint_bindings(p, front)).is_clean());
        });
        let mut part_s = 0.0;
        if p.tiles >= 2 {
            let (plan, s) = rec.span("part.plan", Some(i), Some(root), || {
                staged.builder(p, front).compute_partition_plan(2)
            });
            if let Err(e) = plan {
                led.fail(format!("{}: partition plan failed: {e}", p.id));
            }
            part_s = s;
        }
        rec.end(root);

        let tr = match traced {
            Ok(tr) => tr,
            Err(e) => {
                led.fail(format!("{}: traced loop failed: {e}", p.id));
                continue;
            }
        };
        // The traced loop is only worth reading if it is the same loop.
        let pin = p.expected(size, seed);
        let got = Pin {
            cycles: tr.cycles,
            retired: tr.retired,
        };
        let counts = (tr.steps, tr.cycles_skipped, tr.skips_taken);
        let want_counts = (
            untraced.steps,
            untraced.cycles_skipped,
            untraced.skips_taken,
        );
        if got != untraced.pin {
            led.fail(format!(
                "{}: traced {got:?}, untraced {:?}",
                p.id, untraced.pin
            ));
        } else if counts != want_counts {
            led.fail(format!(
                "{}: traced steps/skipped/skips {counts:?}, sim.ff {want_counts:?}",
                p.id
            ));
        } else if pin.is_some_and(|want| want != got) {
            led.fail(format!(
                "{}: got {got:?}, pinned {:?}",
                p.id,
                pin.expect("checked")
            ));
        } else if got.retired != front.trace.total_retired() {
            led.fail(format!(
                "{}: retired {} of {} traced",
                p.id,
                got.retired,
                front.trace.total_retired()
            ));
        }

        totals.add(&tr);
        totals.traced_build_s += build_s;
        totals.traced = totals.traced.plus(traced_timing);
        totals.twin = totals.twin.plus(untraced.build_and_loop);
        totals.twin_build_s += untraced.build_s;
        totals.twin_loop_s += untraced.loop_s;
        totals.twin_run_s += untraced.run_s;
        totals.lint_s += lint_s;
        totals.part_s += part_s;
        if p.dae {
            dae_sends += tr.channel_sends;
        }

        if p.obs_level() != ObsLevel::Off {
            let (n, dump_s) = secs_of(|| untraced.report.registry.to_json().len());
            black_box(n);
            led.add("obs.registry_dump_ms", dump_s * 1e3);
            let (n, export_s) = secs_of(|| untraced.report.timeline.to_chrome_json().len());
            black_box(n);
            led.add("obs.timeline_export_ms", export_s * 1e3);
            led.add("obs.timeline_events", untraced.report.timeline.len() as f64);
            let metric = if p.obs_level() == ObsLevel::Trace {
                "obs.trace_overhead_pct"
            } else {
                "obs.stats_overhead_pct"
            };
            match typical_secs_at(&staged, p, front, "off", &mut gauge).and_then(|off| {
                typical_secs_at(&staged, p, front, &p.obs, &mut gauge)
                    .map(|on| 100.0 * (on / off - 1.0))
            }) {
                Ok(pct) => led.add(metric, pct),
                Err(e) => led.fail(format!("{}: overhead runs failed: {e}", p.id)),
            }
        }
        if let Some(every) = p.ckpt_every {
            match ckpt_driver(&staged, p, front, every, untraced.pin) {
                Ok(c) => {
                    led.add("ckpt.saves", c.saves as f64);
                    led.add("ckpt.save_ms", ratio(c.save_s * 1e3, c.saves as f64));
                    led.add("ckpt.restore_ms", c.restore_s * 1e3);
                    led.add("ckpt.bytes", c.last_bytes as f64);
                    led.add(
                        "ckpt.encode_mb_per_s",
                        ratio(c.encoded_bytes as f64 / 1e6, c.save_s),
                    );
                }
                Err(e) => led.fail(format!("{}: checkpoint driver failed: {e}", p.id)),
            }
        }

        let accounted = tr.loop_ns - tr.self_ns();
        point_rows.push(object([
            ("index", JsonValue::Int(i as u64)),
            ("id", string(&p.id)),
            ("cycles", JsonValue::Int(tr.cycles)),
            ("retired", JsonValue::Int(tr.retired)),
            ("steps", JsonValue::Int(tr.steps)),
            ("cycles_skipped", JsonValue::Int(tr.cycles_skipped)),
            ("skips_taken", JsonValue::Int(tr.skips_taken)),
            ("surveys", JsonValue::Int(tr.survey.calls)),
            ("idle_tile_steps", JsonValue::Int(tr.idle_tile_steps)),
            ("channel_sends", JsonValue::Int(tr.channel_sends)),
            ("untraced_build_s", num(untraced.build_s)),
            ("untraced_loop_s", num(untraced.loop_s)),
            ("untraced_run_s", num(untraced.run_s)),
            ("traced_build_s", num(build_s)),
            ("traced_loop_s", num(tr.loop_ns as f64 / 1e9)),
            ("loop_self_s", num(tr.self_ns() as f64 / 1e9)),
            (
                "in_layer_share",
                num(ratio(accounted as f64, tr.loop_ns as f64)),
            ),
        ]));
        for (name, span) in tr.hot_spans() {
            let mut row = vec![
                ("point".to_string(), JsonValue::Int(i as u64)),
                ("parent".to_string(), JsonValue::Int(loop_span as u64)),
                ("name".to_string(), string(name)),
            ];
            if let JsonValue::Obj(fields) = span.to_json() {
                row.extend(fields);
            }
            hot_rows.push(JsonValue::Obj(row));
        }
    }

    let sum = &totals.trace;
    let loop_s = sum.loop_ns as f64 / 1e9;
    led.add("lint.system_ms", totals.lint_s * 1e3);
    led.add("part.plan_ms", totals.part_s * 1e3);
    led.add("core.build_ms", totals.traced_build_s * 1e3);
    led.add(
        "core.build_share",
        ratio(
            totals.twin_build_s,
            totals.twin_build_s + totals.twin_loop_s,
        ),
    );
    // Two separate runs are subtracted, so noise can push this below 0;
    // the floor keeps the unit meaningful.
    led.add(
        "core.report_ms",
        (totals.twin_run_s - totals.twin_build_s - totals.twin_loop_s).max(0.0) * 1e3,
    );
    led.add("core.cycles", sum.cycles as f64);
    led.add("core.steps", sum.steps as f64);
    led.add("core.cycles_skipped", sum.cycles_skipped as f64);
    led.add("core.skips_taken", sum.skips_taken as f64);
    led.add("core.surveys", sum.survey.calls as f64);
    led.add(
        "core.skip_hit_ratio",
        ratio(sum.skips_taken as f64, sum.survey.calls as f64),
    );
    led.add("core.survey_s", sum.survey.secs());
    led.add("core.skip_apply_s", sum.skip_apply.secs());
    led.add("core.loop_s", loop_s);
    led.add("core.loop_self_s", sum.self_ns() as f64 / 1e9);
    // Per-step and per-instruction host cost come from the untraced twin:
    // the traced loop's own clock reads would inflate them.
    led.add(
        "core.host_ns_per_step",
        ratio(totals.twin_loop_s * 1e9, sum.steps as f64),
    );
    led.add(
        "core.host_ns_per_instr",
        ratio(totals.twin_loop_s * 1e9, sum.retired as f64),
    );
    led.add("tile.step_calls", sum.tile_step.calls as f64);
    led.add("tile.step_s", sum.tile_step.secs());
    led.add(
        "tile.step_ns",
        ratio(sum.tile_step.total_ns as f64, sum.tile_step.calls as f64),
    );
    led.add("tile.step_share", ratio(sum.tile_step.secs(), loop_s));
    led.add(
        "tile.idle_step_ratio",
        ratio(sum.idle_tile_steps as f64, sum.tile_step.calls as f64),
    );
    led.add("tile.completion_calls", sum.completion.calls as f64);
    led.add("tile.completion_s", sum.completion.secs());
    led.add("tile.skip_credit_s", sum.skip_credit.secs());
    led.add("channel.sends", sum.channel_sends as f64);
    led.add("mem.step_calls", sum.mem_step.calls as f64);
    led.add("mem.step_s", sum.mem_step.secs());
    led.add(
        "mem.step_ns",
        ratio(sum.mem_step.total_ns as f64, sum.mem_step.calls as f64),
    );
    led.add("mem.step_share", ratio(sum.mem_step.secs(), loop_s));
    led.add(
        "mem.l1_miss_ratio",
        ratio(
            sum.mem.l1_misses as f64,
            (sum.mem.l1_hits + sum.mem.l1_misses) as f64,
        ),
    );
    led.add(
        "mem.llc_miss_ratio",
        ratio(
            sum.mem.llc_misses as f64,
            (sum.mem.llc_hits + sum.mem.llc_misses) as f64,
        ),
    );
    led.add("mem.dram_reads", sum.mem.dram_reads as f64);
    led.add("mem.prefetches", sum.mem.prefetches as f64);
    // The one per-layer figure taken in calibrated seconds: it is a ratio
    // of two runs made at different moments on a shared box.
    led.add(
        "traced.overhead_pct",
        100.0 * (ratio(totals.traced.calibrated_secs, totals.twin.calibrated_secs) - 1.0),
    );

    // Isolation drivers, once per distinct trace, under the configuration
    // of the first point that replays it.
    let iso = rec.begin("isolation", None, None);
    let (mut walk, mut mao, mut replay) = (OpCost::default(), OpCost::default(), OpCost::default());
    for (f, front) in staged.fronts.iter().enumerate() {
        let Some(p) = staged.first_point_of(f) else {
            continue; // the warm half's trace: its layers are the sweep's
        };
        let ((streams, cost), _) = rec.span("trace.cursor_walk", None, Some(iso), || {
            access_streams(&front.module, &front.funcs, &front.trace)
        });
        walk.add(cost);
        let ((), _) = rec.span("mao.replay", None, Some(iso), || {
            for (slot, stream) in streams.iter().enumerate() {
                let c = tile_config(p, slot);
                mao.add(mao_replay(stream, c.lsq_size, c.alias_speculation));
            }
        });
        let (cost, _) = rec.span("mem.replay", None, Some(iso), || {
            mem_replay(&streams, p.memory_config())
        });
        replay.add(cost);
    }
    let mut channel = OpCost::default();
    if dae_sends > 0 {
        let queues: Vec<u32> = spec
            .points
            .iter()
            .filter(|p| p.dae)
            .flat_map(|p| {
                (0..p.tiles)
                    .step_by(2)
                    .map(|slot| tile_config(p, slot).queue_offset)
            })
            .flat_map(|offset| {
                let q = DaeQueues::default();
                [offset + q.load_queue, offset + q.store_queue]
            })
            .collect();
        channel = rec
            .span("channel.replay", None, Some(iso), || {
                channel_replay(dae_sends, &queues, dae_channel())
            })
            .0;
    }
    rec.end(iso);
    led.add("trace.cursor_ns_per_instr", walk.ns_per_op());
    led.add("mao.ns_per_op", mao.ns_per_op());
    led.add("mao.ops", mao.ops as f64);
    led.add("channel.ns_per_msg", channel.ns_per_op());
    led.add("channel.msgs", channel.ops as f64);
    led.add("mem.replay_ns_per_req", replay.ns_per_op());
    led.add("mem.replay_reqs", replay.ops as f64);

    // The sweep harness, measured from outside: untraced reps.
    let mut hi_pct = 0.0;
    if !spec.sweep {
        led.add("bench.threads", 1.0);
    } else {
        let harness = rec.begin("bench.sweep_reps", None, None);
        let reps: Vec<Rep> = (0..SWEEP_REPS)
            .map(|_| run_rep(&staged, &mut gauge))
            .collect();
        rec.end(harness);
        let (a, f, mut why) = crate::e2e::check(&staged, seed, &reps);
        led.attempted += a;
        led.failed += f;
        led.failures.append(&mut why);
        led.failures.truncate(20);
        let walls: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.outcomes.iter().map(|o| o.timing.wall_secs * 1e3))
            .collect();
        led.add("bench.threads", reps[0].threads as f64);
        let eff: Vec<f64> = reps.iter().map(|r| r.parallel_eff).collect();
        led.add("bench.sweep_parallel_eff", summarize(&eff).median);
        led.add("bench.point_ms_p50", summarize(&walls).median);
        if let Some((pct, ms)) = high_percentile(&walls) {
            hi_pct = pct;
            led.add("bench.point_ms_hi", ms);
        }
        if let (Some(warm), Some(front)) = (&spec.warm, staged.warm_front()) {
            // The same rows cold, against the warm half's wall (prefix
            // included): what forking from a snapshot buys.
            let cold = run_sweep(&warm.row_fast_forward(), |&ff| {
                (
                    String::new(),
                    staged.builder(&warm.point, front).fast_forward(ff).run(),
                )
            });
            let warm_wall: Vec<f64> = reps.iter().map(|r| r.warm_wall_secs).collect();
            led.add(
                "bench.warm_speedup",
                ratio(cold.wall_secs, summarize(&warm_wall).median),
            );
            // Restore cost on the warm half's own snapshot.
            if let Some(cycle) = warm.fork_cycle(size) {
                let restored = mosaic_bench::warm_start(staged.builder(&warm.point, front), cycle)
                    .map_err(|e| e.to_string())
                    .and_then(|start| {
                        let mut fresh = staged
                            .builder(&warm.point, front)
                            .build()
                            .map_err(|e| e.to_string())?;
                        let (r, s) = secs_of(|| fresh.restore_checkpoint(&start.checkpoint));
                        r.map(|()| s).map_err(|e| e.to_string())
                    });
                match restored {
                    Ok(s) => led.add("ckpt.restore_ms", s * 1e3),
                    Err(e) => led.fail(format!("{}: warm restore failed: {e}", warm.point.id)),
                }
            }
        }
    }
    let Ledger {
        values,
        attempted,
        failed,
        failures,
    } = led;
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
            samples: None,
        })
        .collect();

    let result = RunResult {
        attempted,
        failed,
        failures,
        metrics,
    };
    let trace_file = object([
        ("workload", string(&spec.name)),
        ("seed", JsonValue::Int(seed)),
        ("quick", JsonValue::Bool(size == Size::Quick)),
        ("attempted", JsonValue::Int(result.attempted)),
        ("failed", JsonValue::Int(result.failed)),
        (
            "failures",
            JsonValue::Arr(result.failures.iter().map(string).collect()),
        ),
        ("bench_point_ms_hi_percentile", num(hi_pct)),
        ("metrics", result.metrics_json()),
        ("points", JsonValue::Arr(point_rows)),
        ("hot", JsonValue::Arr(hot_rows)),
        ("spans", rec.to_json()),
    ]);
    Ok(Layered { result, trace_file })
}

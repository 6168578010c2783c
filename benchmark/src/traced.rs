//! The outside-in traced driver: a copy of the Interleaver's
//! `step` / `skip_to_horizon` loop over the *public* `MemoryHierarchy`,
//! `Tile` and `TileCtx` API, with a clock read around every call into a
//! layer.
//!
//! It must make exactly the calls `Interleaver::run` makes, in the same
//! order, so that it finishes at the same cycle and with the same
//! `steps` / `cycles_skipped` / `skips_taken` as `sim.ff.*`; the
//! benchmark's own tests hold it to that. Two things the real loop does
//! are left out because the parts handed over by `into_parts` cannot do
//! them: periodic checkpoints (measured by their own driver) and the
//! naive-path deadlock watchdog (a deadlock under fast-forward is still
//! reported; without it the cycle limit ends the run).
//!
//! `Tile::step` necessarily *contains* the `MemoryHierarchy::request`,
//! `Mao` and `ChannelSet` calls the tile makes; separating those needs
//! spans inside the program. Until then the isolation drivers replay the
//! same traces through those layers alone.

use std::time::Instant;

use mosaicsim::core::Interleaver;
use mosaicsim::mem::{Completion, MemStats, MemoryHierarchy};
use mosaicsim::obs::json::JsonValue;
use mosaicsim::obs::Log2Histogram;
use mosaicsim::tile::{ChannelSet, Horizon, NoAccel, Tile, TileCtx};

use crate::jsonio::object;

/// A hot-loop call site: calls are too many to keep one span each, so
/// they are aggregated as count, total and a log2 histogram of durations.
#[derive(Debug, Clone, Default)]
pub struct HotSpan {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds over all calls.
    pub total_ns: u64,
    /// Per-call host nanoseconds.
    pub hist: Log2Histogram,
}

impl HotSpan {
    fn record(&mut self, since: Instant) -> Instant {
        let end = Instant::now();
        let ns = end.duration_since(since).as_nanos() as u64;
        self.calls += 1;
        self.total_ns += ns;
        self.hist.record(ns);
        end
    }

    /// Host seconds over all calls.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Adds `other`'s calls to this span.
    pub fn merge(&mut self, other: &HotSpan) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.hist.merge_from(&other.hist);
    }

    /// `{calls, total_ns, hist: {"<bucket floor ns>": count}}`.
    pub fn to_json(&self) -> JsonValue {
        object([
            ("calls", JsonValue::Int(self.calls)),
            ("total_ns", JsonValue::Int(self.total_ns)),
            (
                "hist",
                JsonValue::Obj(
                    self.hist
                        .nonzero_buckets()
                        .map(|(i, n)| (Log2Histogram::bucket_low(i).to_string(), JsonValue::Int(n)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Everything one traced run of the loop recorded.
#[derive(Debug, Clone, Default)]
pub struct LoopTrace {
    /// `MemoryHierarchy::step` + `drain_completions_into`, once per step.
    pub mem_step: HotSpan,
    /// `Tile::on_mem_completion`, once per delivered completion.
    pub completion: HotSpan,
    /// `Tile::step` with its two `progress_mark` reads, once per tile per
    /// step.
    pub tile_step: HotSpan,
    /// One horizon survey: every `Tile::next_event` plus
    /// `MemoryHierarchy::next_event_cycle`.
    pub survey: HotSpan,
    /// Applying one taken skip (contains `skip_credit`).
    pub skip_apply: HotSpan,
    /// `Tile::on_cycles_skipped`, once per tile per taken skip.
    pub skip_credit: HotSpan,
    /// Cycles stepped (`sim.ff.steps_executed`).
    pub steps: u64,
    /// Cycles jumped over (`sim.ff.cycles_skipped`).
    pub cycles_skipped: u64,
    /// Jumps taken (`sim.ff.skips_taken`).
    pub skips_taken: u64,
    /// Tile steps whose `progress_mark` did not move: wasted work.
    pub idle_tile_steps: u64,
    /// Host nanoseconds of the whole loop.
    pub loop_ns: u64,
    /// Completion cycle, as `Interleaver::run` reports it.
    pub cycles: u64,
    /// Retired instructions over all tiles.
    pub retired: u64,
    /// Memory statistics at the end of the run.
    pub mem: MemStats,
    /// Successful channel sends over all queues.
    pub channel_sends: u64,
}

impl LoopTrace {
    /// Loop time not inside any call into a layer: the scheduler's own
    /// bookkeeping plus the clock reads themselves.
    pub fn self_ns(&self) -> u64 {
        // `skip_credit` is a child of `skip_apply`, so it is not
        // subtracted a second time.
        self.loop_ns.saturating_sub(
            self.mem_step.total_ns
                + self.completion.total_ns
                + self.tile_step.total_ns
                + self.survey.total_ns
                + self.skip_apply.total_ns,
        )
    }

    /// The hot spans by name, for the trace file.
    pub fn hot_spans(&self) -> [(&'static str, &HotSpan); 6] {
        [
            ("mem.step", &self.mem_step),
            ("tile.on_mem_completion", &self.completion),
            ("tile.step", &self.tile_step),
            ("core.survey", &self.survey),
            ("core.skip_apply", &self.skip_apply),
            ("tile.on_cycles_skipped", &self.skip_credit),
        ]
    }
}

/// Smallest multiple of `d` that is `>= x`.
fn align_up(x: u64, d: u64) -> u64 {
    x.div_ceil(d) * d
}

struct Parts {
    tiles: Vec<Box<dyn Tile>>,
    mem: MemoryHierarchy,
    channels: ChannelSet,
    now: u64,
    finished: usize,
    cycle_limit: u64,
}

/// What one survey decided.
enum Survey {
    /// Some tile is ready now: no skip.
    Stay,
    /// Nothing can happen before this cycle.
    SkipTo(u64),
    /// Nothing can ever happen again.
    Deadlock,
}

impl Parts {
    /// `Interleaver::step`, timed.
    fn step(&mut self, buf: &mut Vec<Completion>, tr: &mut LoopTrace) -> Result<bool, String> {
        let now = self.now;
        let t = Instant::now();
        self.mem.step(now);
        self.mem.drain_completions_into(buf);
        let mut t = tr.mem_step.record(t);
        let mut progress = !buf.is_empty();
        for c in buf.drain(..) {
            if let Some(tile) = self.tiles.get_mut(c.tile) {
                tile.on_mem_completion(c.id, now);
                t = tr.completion.record(t);
            }
        }
        let mut accel = NoAccel;
        for tile in &mut self.tiles {
            if tile.is_done() || !now.is_multiple_of(tile.clock_divisor()) {
                continue;
            }
            let t = Instant::now();
            let mark = tile.progress_mark();
            let mut ctx = TileCtx {
                now,
                mem: &mut self.mem,
                channels: &mut self.channels,
                accel: &mut accel,
            };
            let stepped = tile.step(&mut ctx);
            let moved = tile.progress_mark() != mark;
            tr.tile_step.record(t);
            stepped.map_err(|e| format!("tile {}: {e}", tile.name()))?;
            progress |= moved;
            tr.idle_tile_steps += u64::from(!moved);
            if tile.is_done() {
                self.finished += 1;
            }
        }
        tr.steps += 1;
        self.now += 1;
        Ok(!progress)
    }

    /// The survey half of `Interleaver::skip_to_horizon`.
    fn survey(&self) -> Survey {
        let now = self.now;
        let mut target = self.cycle_limit;
        let mut any_event = false;
        for tile in self.tiles.iter().filter(|t| !t.is_done()) {
            let div = tile.clock_divisor().max(1);
            let wake = match tile.next_event(now, &self.channels) {
                Horizon::Ready => align_up(now, div),
                Horizon::At(c) => align_up(c.max(now), div),
                Horizon::Blocked => continue,
            };
            any_event = true;
            target = target.min(wake);
            if target <= now {
                return Survey::Stay;
            }
        }
        if let Some(e) = self.mem.next_event_cycle(now) {
            any_event = true;
            target = target.min(e.max(now));
        }
        if !any_event && self.finished < self.tiles.len() {
            Survey::Deadlock
        } else if target <= now {
            Survey::Stay
        } else {
            Survey::SkipTo(target)
        }
    }

    /// The apply half of `Interleaver::skip_to_horizon`.
    fn skip_to(&mut self, target: u64, tr: &mut LoopTrace) {
        let now = self.now;
        for tile in self.tiles.iter_mut().filter(|t| !t.is_done()) {
            let div = tile.clock_divisor().max(1);
            let skipped = target.div_ceil(div).saturating_sub(now.div_ceil(div));
            if skipped > 0 {
                let t = Instant::now();
                tile.on_cycles_skipped(now, skipped, &self.channels);
                tr.skip_credit.record(t);
            }
        }
        tr.cycles_skipped += target - now;
        tr.skips_taken += 1;
        self.now = target;
    }
}

/// Runs a freshly built `il` to completion through the traced loop.
/// `fast_forward` and `cycle_limit` must be passed again because
/// `into_parts` does not hand the Interleaver's settings over.
///
/// # Errors
///
/// A tile fault, a deadlock found by a survey, or the cycle limit — as
/// text, since the caller counts it as a failed operation.
pub fn run_traced(
    il: Interleaver,
    fast_forward: bool,
    cycle_limit: u64,
) -> Result<LoopTrace, String> {
    let now = il.now();
    let (tiles, mem, channels) = il.into_parts();
    let finished = tiles.iter().filter(|t| t.is_done()).count();
    let mut p = Parts {
        tiles,
        mem,
        channels,
        now,
        finished,
        cycle_limit,
    };
    let mut tr = LoopTrace::default();
    let mut buf = Vec::new();
    let mut just_skipped = false;
    let loop_start = Instant::now();
    loop {
        let quiet = p.step(&mut buf, &mut tr)?;
        if p.finished == p.tiles.len() {
            break;
        }
        if p.now >= p.cycle_limit {
            return Err(format!("cycle limit {} reached", p.cycle_limit));
        }
        // The gate of `Interleaver::run_inner`: survey only after a quiet
        // step or right after a jump.
        if fast_forward && (quiet || just_skipped) {
            let t = Instant::now();
            let verdict = p.survey();
            let t = tr.survey.record(t);
            just_skipped = match verdict {
                Survey::Stay => false,
                Survey::Deadlock => return Err(format!("deadlock at cycle {}", p.now)),
                Survey::SkipTo(target) => {
                    p.skip_to(target, &mut tr);
                    tr.skip_apply.record(t);
                    true
                }
            };
            if p.now >= p.cycle_limit {
                return Err(format!("cycle limit {} reached", p.cycle_limit));
            }
        } else {
            just_skipped = false;
        }
    }
    tr.loop_ns = loop_start.elapsed().as_nanos() as u64;
    tr.cycles = p
        .tiles
        .iter()
        .filter_map(|t| t.stats().done_at)
        .max()
        .unwrap_or(p.now);
    tr.retired = p.tiles.iter().map(|t| t.stats().retired).sum();
    tr.mem = p.mem.stats();
    tr.channel_sends = p.channels.iter().map(|(_, ch)| ch.sends()).sum();
    Ok(tr)
}

/// One stage span: a call into a layer that happens a handful of times
/// per point, kept individually.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// Index into the workload's point list (`None` for set-up stages,
    /// which belong to the whole list).
    pub point: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// The spans, in start order.
    pub spans: Vec<StageSpan>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(StageSpan {
            name,
            point,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records a span whose bounds the caller already knows (for stage
    /// times a callee measured itself).
    pub fn push_span(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(StageSpan {
            name,
            point,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, point, parent);
        let out = f();
        (out, self.end(id))
    }

    /// A span's self time: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The spans as JSON, one object each.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    object([
                        ("id", JsonValue::Int(id as u64)),
                        ("name", JsonValue::Str(s.name.to_string())),
                        (
                            "point",
                            s.point
                                .map_or(JsonValue::Null, |p| JsonValue::Int(p as u64)),
                        ),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Int(p as u64)),
                        ),
                        ("start_ns", JsonValue::Int(s.start_ns)),
                        ("end_ns", JsonValue::Int(s.end_ns)),
                        ("self_ns", JsonValue::Int(self.self_ns(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        let root = rec.begin("point", Some(0), None);
        let ((), child_secs) = rec.span("core.build", Some(0), Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let root_secs = rec.end(root);
        assert!(child_secs >= 0.005 && root_secs >= child_secs);
        let child_ns = rec.spans[1].end_ns - rec.spans[1].start_ns;
        let root_ns = rec.spans[0].end_ns - rec.spans[0].start_ns;
        assert_eq!(rec.self_ns(root), root_ns - child_ns);
        assert_eq!(rec.self_ns(1), child_ns);
    }

    #[test]
    fn loop_self_time_counts_skip_credit_once() {
        let span = |ns| HotSpan {
            calls: 1,
            total_ns: ns,
            hist: Log2Histogram::new(),
        };
        let tr = LoopTrace {
            mem_step: span(10),
            completion: span(5),
            tile_step: span(50),
            survey: span(7),
            skip_apply: span(8),
            skip_credit: span(6),
            loop_ns: 100,
            ..LoopTrace::default()
        };
        assert_eq!(tr.self_ns(), 20);
    }
}

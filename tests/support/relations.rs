//! The mode relations: fast-forwarding, the observability level and a
//! pause at a checkpoint change how a system runs, never what it computes
//! (DESIGN.md §4.2.1, §4.5, §4.6). A relation is one line, a
//! [`Relation`]: its name, the zoo's `MODES` systems it covers, a view of
//! each run, and the pairs of modes whose runs it holds equal. An
//! invariant of one run pairs a mode with itself, seen as what the run
//! holds and what it must. Each suite declares the lines it [`hold`]s, so
//! a new relation, or a new `MODES` system, is one line.
//!
//! A process makes each run of a system in a mode once, however many lines
//! and tests ask for it, and a drift names the system, the relation, its
//! modes and each field that moved.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::available_parallelism;

use mosaicsim::ckpt::Checkpoint;
use mosaicsim::kernels::data::Rng;
use mosaicsim::prelude::ObsLevel::{Off, Stats, Trace};
use mosaicsim::prelude::*;
use Start::{Again, Pause, Zero};

use super::{drift, Observed, System, View, MODES};

/// How a run is made: fast-forwarded or not, at a level, from a start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mode(Sched, ObsLevel, Start);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Sched {
    Ff,
    Naive,
}

/// Cycle 0, cycle 0 a second time, or the `nth` pause of a run in a mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Start {
    Zero,
    Again,
    Pause(Sched, ObsLevel, u64),
}

pub const FF: Mode = Mode(Sched::Ff, Off, Zero);
pub const NAIVE: Mode = Mode(Sched::Naive, Off, Zero);
pub const FF_STATS: Mode = Mode(Sched::Ff, Stats, Zero);
pub const NAIVE_STATS: Mode = Mode(Sched::Naive, Stats, Zero);
pub const FF_TRACE: Mode = Mode(Sched::Ff, Trace, Zero);
/// [`FF`] run a second time.
pub const AGAIN: Mode = Mode(Sched::Ff, Off, Again);

/// A run pauses at a seeded cycle in each of `PAUSES` equal spans of it.
const PAUSES: u64 = 4;
pub const EVERY: Range<u64> = 0..PAUSES;
pub const LAST: Range<u64> = PAUSES - 1..PAUSES;

/// A name, the systems it covers, a view of each run, pairs of modes.
pub type Relation = (&'static str, fn(&str) -> bool, [View; 2], Vec<(Mode, Mode)>);

/// Each mode `run` of `modes` resumed from the pauses `at` of a run in
/// each mode `saved` of `modes` that `pick(saved, run)` takes, and `run`.
pub fn resumes(modes: &[Mode], pick: fn(Mode, Mode) -> bool, at: Range<u64>) -> Vec<(Mode, Mode)> {
    let mut pairs = Vec::new();
    for &saved @ Mode(sched, obs, _) in modes {
        for &run @ Mode(s, o, _) in modes.iter().filter(|&&run| pick(saved, run)) {
            let resumed = |nth| (Mode(s, o, Pause(sched, obs, nth)), run);
            pairs.extend(at.clone().map(resumed));
        }
    }
    pairs
}

/// What the process has made for each system and mode, each made once by
/// whichever thread asks first.
type Memo<T> = Mutex<BTreeMap<(String, Mode), Arc<OnceLock<T>>>>;

static RUNS: Memo<Arc<Observed>> = Mutex::new(BTreeMap::new());
static PAUSED: Memo<Vec<Arc<Checkpoint>>> = Mutex::new(BTreeMap::new());

fn once<T: Clone>(memo: &Memo<T>, system: &System, mode: Mode, make: impl FnOnce() -> T) -> T {
    let key = (system.name.clone(), mode);
    let cell = memo.lock().expect("no panic holds the memo").entry(key).or_default().clone();
    cell.get_or_init(make).clone()
}

/// The run of `system` in `mode`.
fn observe(system: &System, mode: Mode) -> Arc<Observed> {
    once(&RUNS, system, mode, || {
        let builder = builder(system, mode);
        let run = match mode.2 {
            Pause(sched, obs, nth) => {
                let ckpt = pauses(system, Mode(sched, obs, Zero))[nth as usize].clone();
                builder.resume_from_checkpoint(ckpt).run()
            }
            Zero | Again => builder.run(),
        };
        Arc::new(Observed::of(run))
    })
}

/// The checkpoints of a run in `mode`, one at a seeded cycle in each of
/// `PAUSES` equal spans of the system's cycles (every mode runs as many:
/// they are counted in the [`FF_STATS`] run).
fn pauses(system: &System, mode: Mode) -> Vec<Arc<Checkpoint>> {
    once(&PAUSED, system, mode, || {
        let name = &system.name;
        let straight = observe(system, FF_STATS);
        let run = straight.0.as_ref().unwrap_or_else(|e| panic!("{name}: no run to pause: {e}"));
        let span = run.cycles / PAUSES;
        let mut il = builder(system, mode).build().expect("build");
        let mut pause = |k| {
            let seed = super::fnv(format!("{name}#{k}").as_bytes());
            let at = k * span + 1 + Rng::seed_from_u64(seed).below(span - 1);
            // Fast-forwarding pauses at the first cycle it steps at or past `at`.
            let ended = il.run_until(at).expect("prefix");
            assert_eq!(ended, None, "{name}: {mode:?} ended before {at}");
            Arc::new(il.save_checkpoint())
        };
        EVERY.map(&mut pause).collect()
    })
}

fn builder(system: &System, Mode(sched, obs, _): Mode) -> SystemBuilder {
    let ff = sched == Sched::Ff;
    system.builder().fast_forward(ff).observe(obs)
}

/// Holds every line on each system it covers, and panics with every drift;
/// a line that covers no system fails too.
pub fn hold(relations: &[Relation]) {
    let zoo: &Vec<System> = &super::systems(MODES).collect();
    let lines = |i: usize| relations.iter().filter(move |r| (r.1)(&zoo[i].name));
    for (name, covers, ..) in relations {
        assert!(zoo.iter().any(|s| covers(&s.name)), "{name} covers no system");
    }
    // The runs the lines compare: the straight ones, then each run that
    // pauses, then the resumes, each in zoo order (the slowest first).
    let mut runs = BTreeSet::new();
    for i in 0..zoo.len() {
        for mode in lines(i).flat_map(|r| r.3.iter().flat_map(|&(a, b)| [a, b])) {
            match mode.2 {
                Pause(sched, obs, _) => {
                    runs.extend([(0, i, FF_STATS), (1, i, Mode(sched, obs, Zero)), (2, i, mode)])
                }
                Zero | Again => drop(runs.insert((0, i, mode))),
            }
        }
    }
    let (runs, next) = (&Vec::from_iter(runs), &AtomicUsize::new(0));
    // A few threads take the runs in turn, each with a zoo of its own.
    let worker = || {
        let zoo: Vec<System> = super::systems(MODES).collect();
        while let Some(&(phase, i, mode)) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
            match phase {
                1 => drop(pauses(&zoo[i], mode)),
                _ => drop(observe(&zoo[i], mode)),
            }
        }
    };
    let threads = available_parallelism().map_or(1, |n| n.get()).min(4);
    std::thread::scope(|scope| (0..threads).for_each(|_| drop(scope.spawn(worker))));

    let mut drifts = Vec::new();
    for (i, s) in zoo.iter().enumerate() {
        for (name, _, [va, vb], pairs) in lines(i) {
            for &(a, b) in pairs {
                let label = format!("{}: {name} ({a:?} vs {b:?})", s.name);
                drifts.extend(drift(&label, (&observe(s, a), *va), (&observe(s, b), *vb)).err());
            }
        }
    }
    assert!(drifts.is_empty(), "{} drifts:\n{}", drifts.len(), drifts.join("\n"));
}

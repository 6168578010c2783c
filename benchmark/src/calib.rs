//! Load calibration: a fixed reference loop run beside every timed unit.
//!
//! The boxes this ledger runs on are small shared VMs. Measured here
//! (240 back-to-back `sgemm` runs, 2 vCPUs, 7 % steal): single runs range
//! 0.45–0.66 s; the best of 12 consecutive runs still spreads 10 %
//! (interquartile range over median) and the median of 12 spreads 5.5 %,
//! because slow phases last seconds to minutes and inflate CPU time as
//! much as wall time. The same runs divided by the time of a 65 ms
//! reference loop run before and after each one spread 1.2 %. So every
//! end-to-end timing is reported in *calibrated* seconds:
//!
//! ```text
//! calibrated = wall × REFERENCE_SECS ÷ mean(reference loop before, after)
//! ```
//!
//! — the time the unit would have taken had the box run the reference
//! loop at its uncontended speed. `REFERENCE_SECS` only fixes the scale
//! (calibrated ≈ wall on a quiet box of the kind this was frozen on); a
//! parent and a change measured on one box see the same scale. The loop
//! is a hash-map update over an L2-sized key set because that is what the
//! simulator's hot path mostly does; it never changes with the simulator.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Updates per reference-loop run.
const REFERENCE_ITERS: u64 = 4_000_000;

/// Seconds one reference-loop run takes on the box the ledger was frozen
/// on when nothing else runs (the floor of 280 runs).
pub const REFERENCE_SECS: f64 = 0.0415;

fn reference_loop() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for _ in 0..REFERENCE_ITERS {
        // xorshift64: a fixed key stream, independent of any seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = map.entry(x & 0x3fff).or_insert(0);
        *slot = slot.wrapping_add(x);
        acc = acc.wrapping_add(*slot);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// How long a timed unit took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Host wall seconds, as measured.
    pub wall_secs: f64,
    /// Wall seconds scaled by the load the reference loop saw.
    pub calibrated_secs: f64,
}

impl Timing {
    /// The sum of two timings.
    pub fn plus(self, other: Timing) -> Timing {
        Timing {
            wall_secs: self.wall_secs + other.wall_secs,
            calibrated_secs: self.calibrated_secs + other.calibrated_secs,
        }
    }
}

/// Runs the reference loop around timed units; each loop run serves as
/// the "after" of one unit and the "before" of the next.
#[derive(Debug)]
pub struct LoadGauge {
    threads: usize,
    last_reference_secs: f64,
}

/// The reference loop on `threads` threads at once, as the time of one
/// loop at the threads' mean *speed* (the harmonic mean of their times):
/// a work-sharing sweep finishes at the sum of its workers' speeds.
fn reference_run(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_loop();
    }
    let speeds: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(reference_loop)).collect();
        workers
            .into_iter()
            .map(|w| 1.0 / w.join().expect("the reference loop does not panic"))
            .sum()
    });
    threads as f64 / speeds
}

impl Default for LoadGauge {
    fn default() -> Self {
        LoadGauge::new(1)
    }
}

impl LoadGauge {
    /// A gauge for units that keep `threads` threads busy: the reference
    /// loop then runs on as many, to see the load such a unit sees.
    pub fn new(threads: usize) -> Self {
        LoadGauge {
            threads,
            last_reference_secs: reference_run(threads),
        }
    }

    /// Times `f` on the wall clock and calibrates it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last_reference_secs;
        let t0 = Instant::now();
        let out = f();
        let wall_secs = t0.elapsed().as_secs_f64();
        let after = reference_run(self.threads);
        self.last_reference_secs = after;
        let calibrated_secs = wall_secs * REFERENCE_SECS / ((before + after) / 2.0);
        (
            out,
            Timing {
                wall_secs,
                calibrated_secs,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_wall_time_by_the_reference_loop() {
        let mut gauge = LoadGauge {
            threads: 1,
            last_reference_secs: 2.0 * REFERENCE_SECS,
        };
        let ((), t) = gauge.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.wall_secs >= 0.020);
        // Before = twice the nominal time, after = whatever this box
        // does: the factor lies between the two.
        let after = gauge.last_reference_secs;
        let factor = REFERENCE_SECS / ((2.0 * REFERENCE_SECS + after) / 2.0);
        assert!((t.calibrated_secs - t.wall_secs * factor).abs() < 1e-12);
        let sum = t.plus(t);
        assert_eq!(sum.wall_secs, 2.0 * t.wall_secs);
    }
}

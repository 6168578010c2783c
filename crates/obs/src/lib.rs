//! Observability for MosaicSim-RS (the fourth pillar next to perf,
//! robustness, and lint).
//!
//! Three facilities, all dependency-free so every simulation crate can
//! use them:
//!
//! * [`StatsRegistry`] — a hierarchical registry of typed counters,
//!   gauges, and log2-bucketed histograms with stable dotted paths
//!   (`tile.3.stall.mem`, `mem.l2.mshr.occupancy`), dumpable as JSON
//!   ([`StatsRegistry::to_json`]) and pretty tables
//!   ([`StatsRegistry::to_table`]), diffable across runs
//!   ([`StatsRegistry::diff`]).
//! * [`Timeline`] — an event sink of half-open cycle spans (tile
//!   compute/stall intervals, accelerator invocations, memory request
//!   lifetimes) exportable as Chrome `trace_event` JSON
//!   ([`Timeline::to_chrome_json`]) loadable in `chrome://tracing` and
//!   Perfetto.
//! * [`IrProfile`] — per-static-instruction attribution of retired
//!   instructions, stall cycles (by [`StallKind`]), and memory latency
//!   histograms, keyed by raw `(function, instruction)` ids so this
//!   crate needs no IR dependency. Tiles record into a [`ProfileTable`]
//!   (arrays indexed by instruction id) and build the profile once, at
//!   report time.
//!
//! Recording is gated by [`ObsLevel`]: at [`ObsLevel::Off`] no span or
//! sample is ever recorded (the hot path pays at most one branch on an
//! `Option` that is `None`); [`ObsLevel::Stats`] enables cheap
//! per-instruction counters and occupancy histograms;
//! [`ObsLevel::Trace`] additionally records timeline spans. All
//! counters and histograms are bit-identical between fast-forward and
//! naive stepping — recording sites are mirrored in the one-cycle
//! stall surveys that fast-forwarding multiplies.
//!
//! A hand-rolled JSON parser ([`json`]) supports reloading stats dumps
//! (`StatsRegistry::from_json`) and validating emitted traces without
//! external dependencies.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod json;
mod profile;
mod registry;
mod timeline;

pub use profile::{InstProfile, IrProfile, ProfileTable, StallKind, STALL_KINDS};
pub use registry::{Log2Histogram, StatValue, StatsRegistry};
pub use timeline::{Category, Span, SpanName, Timeline};

/// How much the simulator records while running.
///
/// The default is [`ObsLevel::Off`]: the instrumented hot path costs
/// nothing (every recording site is behind a branch that is
/// statically `None`/false).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ObsLevel {
    /// No sampling or span recording. End-of-run counter snapshots
    /// (the [`StatsRegistry`] assembled from `TileStats`/`MemStats`)
    /// are still available — they cost nothing during simulation.
    #[default]
    Off,
    /// Cheap hot-path sampling: per-instruction retire/stall/latency
    /// attribution ([`IrProfile`]) and occupancy histograms.
    Stats,
    /// Everything in `Stats` plus [`Timeline`] span recording for
    /// Chrome-trace export.
    Trace,
}

impl ObsLevel {
    /// Whether per-event sampling (profiles, histograms) is enabled.
    pub fn stats_on(self) -> bool {
        self >= ObsLevel::Stats
    }

    /// Whether timeline span recording is enabled.
    pub fn trace_on(self) -> bool {
        self >= ObsLevel::Trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates() {
        assert!(!ObsLevel::Off.stats_on());
        assert!(!ObsLevel::Off.trace_on());
        assert!(ObsLevel::Stats.stats_on());
        assert!(!ObsLevel::Stats.trace_on());
        assert!(ObsLevel::Trace.stats_on());
        assert!(ObsLevel::Trace.trace_on());
        assert_eq!(ObsLevel::default(), ObsLevel::Off);
    }
}

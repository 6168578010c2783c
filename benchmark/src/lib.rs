//! # mosaic-perf — the pipeline performance ledger
//!
//! One command (`benchmark/run.sh`) measures the whole MosaicSim-RS
//! pipeline — kernel build → trace generation → DDG → `SystemBuilder` →
//! Interleaver → report — on five workloads, end to end with tracing off
//! and layer by layer with an outside-in traced driver. Every number is
//! *host* time; simulated results are deterministic and serve only as
//! exact-match correctness checks. See `README.md` beside this crate for
//! the metric definitions, the workloads and how to read the output.
//!
//! The crate touches no simulator code: it calls the public API of
//! `mosaicsim` and `mosaic-bench` exactly as a user would.

#![warn(missing_docs)]

pub mod calib;
pub mod cli;
pub mod e2e;
pub mod gather;
pub mod isolation;
pub mod jsonio;
pub mod layers;
pub mod stats;
pub mod traced;
pub mod workloads;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration: name, unit, direction.
pub type MetricDecl = (&'static str, &'static str, Better);

/// The workloads, in report order. `workloads.json` defines them;
/// `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "compute_ooo",
    "memstall_ino",
    "manytile_chan",
    "observed_ckpt",
    "dse_sweep",
];

/// End-to-end metrics (tracing off), each with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub const END_TO_END: [(MetricDecl, f64); 5] = [
    (("sim_mips", "Minstr/s", Better::Higher), 0.25),
    (("setup_s", "s", Better::Lower), 0.25),
    (("peak_rss_mb", "MiB", Better::Lower), 0.10),
    (("trace_bytes_per_instr", "B/instr", Better::Lower), 0.001),
    (("ok_ratio", "ratio", Better::Higher), 0.001),
];

/// Per-layer metrics (traced run). Every workload emits every one; a
/// layer a workload does not run reports 0.
pub const PER_LAYER: [MetricDecl; 67] = [
    // kernels / passes
    ("kernels.build_s", "s", Better::Lower),
    ("passes.dae_slice_ms", "ms", Better::Lower),
    // ir (dynamic trace generator)
    ("ir.dtg_s", "s", Better::Lower),
    ("ir.dtg_minstr_per_s", "Minstr/s", Better::Higher),
    ("ir.dtg_instrs", "count", Better::Lower),
    // trace
    ("trace.write_s", "s", Better::Lower),
    ("trace.read_s", "s", Better::Lower),
    ("trace.bytes", "B", Better::Lower),
    ("trace.cursor_ns_per_instr", "ns", Better::Lower),
    // ddg
    ("ddg.build_us", "us", Better::Lower),
    ("ddg.nodes", "count", Better::Lower),
    // lint / part
    ("lint.system_ms", "ms", Better::Lower),
    ("part.plan_ms", "ms", Better::Lower),
    // core: SystemBuilder
    ("core.build_ms", "ms", Better::Lower),
    ("core.build_share", "ratio", Better::Lower),
    ("core.report_ms", "ms", Better::Lower),
    // core: Interleaver loop
    ("core.cycles", "count", Better::Lower),
    ("core.steps", "count", Better::Lower),
    ("core.cycles_skipped", "count", Better::Higher),
    ("core.skips_taken", "count", Better::Lower),
    ("core.surveys", "count", Better::Lower),
    ("core.skip_hit_ratio", "ratio", Better::Higher),
    ("core.survey_s", "s", Better::Lower),
    ("core.skip_apply_s", "s", Better::Lower),
    ("core.loop_s", "s", Better::Lower),
    ("core.loop_self_s", "s", Better::Lower),
    ("core.host_ns_per_step", "ns", Better::Lower),
    ("core.host_ns_per_instr", "ns", Better::Lower),
    // tile: CoreTile
    ("tile.step_calls", "count", Better::Lower),
    ("tile.step_s", "s", Better::Lower),
    ("tile.step_ns", "ns", Better::Lower),
    ("tile.step_share", "ratio", Better::Lower),
    ("tile.idle_step_ratio", "ratio", Better::Lower),
    ("tile.completion_calls", "count", Better::Lower),
    ("tile.completion_s", "s", Better::Lower),
    ("tile.skip_credit_s", "s", Better::Lower),
    // tile: Mao
    ("mao.ns_per_op", "ns", Better::Lower),
    ("mao.ops", "count", Better::Lower),
    // tile: ChannelSet
    ("channel.ns_per_msg", "ns", Better::Lower),
    ("channel.msgs", "count", Better::Lower),
    ("channel.sends", "count", Better::Lower),
    // mem
    ("mem.step_calls", "count", Better::Lower),
    ("mem.step_s", "s", Better::Lower),
    ("mem.step_ns", "ns", Better::Lower),
    ("mem.step_share", "ratio", Better::Lower),
    ("mem.replay_ns_per_req", "ns", Better::Lower),
    ("mem.replay_reqs", "count", Better::Lower),
    ("mem.l1_miss_ratio", "ratio", Better::Lower),
    ("mem.llc_miss_ratio", "ratio", Better::Lower),
    ("mem.dram_reads", "count", Better::Lower),
    ("mem.prefetches", "count", Better::Lower),
    // obs
    ("obs.stats_overhead_pct", "%", Better::Lower),
    ("obs.trace_overhead_pct", "%", Better::Lower),
    ("obs.registry_dump_ms", "ms", Better::Lower),
    ("obs.timeline_export_ms", "ms", Better::Lower),
    ("obs.timeline_events", "count", Better::Lower),
    // ckpt
    ("ckpt.save_ms", "ms", Better::Lower),
    ("ckpt.restore_ms", "ms", Better::Lower),
    ("ckpt.bytes", "B", Better::Lower),
    ("ckpt.encode_mb_per_s", "MB/s", Better::Higher),
    ("ckpt.saves", "count", Better::Lower),
    // bench: sweep harness
    ("bench.sweep_parallel_eff", "ratio", Better::Higher),
    ("bench.point_ms_p50", "ms", Better::Lower),
    ("bench.point_ms_hi", "ms", Better::Lower),
    ("bench.warm_speedup", "ratio", Better::Higher),
    ("bench.threads", "count", Better::Higher),
    // whole
    ("traced.overhead_pct", "%", Better::Lower),
];

/// Whether `s` is a legal metric, workload or point name: 1 to 64 of
/// letters, digits, `_`, `.`, `-`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// For timings taken several times: the samples' summary.
    pub samples: Option<stats::Summary>,
}

/// The outcome of one benchmark run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Operations attempted (one simulated point in one rep).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for people (bounded).
    pub failures: Vec<String>,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// `{"<name>": {"value": …, "unit": …}}`, as the result line and the
    /// trace file carry the metrics.
    pub fn metrics_json(&self) -> mosaicsim::obs::json::JsonValue {
        jsonio::object(self.metrics.iter().map(|m| {
            let entry = [
                ("value", jsonio::num(m.value)),
                ("unit", jsonio::string(m.unit)),
            ];
            (m.name, jsonio::object(entry))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in ["a", "sim_mips", "core.host_ns_per_step", "9x", "mri-q.ooo"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".a", "-a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_names_and_units_are_legal_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.0)
            .chain(PER_LAYER.iter().map(|d| d.0))
            .collect();
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END
            .iter()
            .map(|(d, _)| d.1)
            .chain(PER_LAYER.iter().map(|d| d.1))
            .all(unit_ok));
        assert!(END_TO_END
            .iter()
            .all(|&(_, bound)| bound > 0.0 && bound <= 0.25));
    }
}

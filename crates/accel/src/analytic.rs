//! The generic back-annotated analytic performance model (paper §IV-B).
//!
//! "MosaicSim has a generic performance model for loosely-coupled,
//! reconfigurable, fixed-function accelerators. The model abstracts an
//! accelerator as a set of concurrent modules, where each module executes
//! one or more loops multiple times." The model takes (1) the number of
//! processes, (2) loops per process, (3) the per-iteration latency of each
//! internal loop (back-annotated from RTL instrumentation), and (4) the
//! iteration counts, which are functions of the invocation parameters.
//!
//! For the paper's three-process load/compute/store pipelines this reduces
//! to the classic pipeline formula over `N` chunks with per-chunk stage
//! latencies `l, c, s`:
//!
//! ```text
//! cycles ≈ (N - 1) · max(l, c, s) + l + c + s
//! ```
//!
//! "These performance models do not actually execute the workloads and
//! therefore take nearly no time to execute" — evaluation is O(#loops).

use mosaic_ir::AccelOp;

use crate::config::AccelConfig;
use crate::workload::{compute_ops_per_cycle, workload_of, workload_with_plm, Workload};

/// One internal loop of a process: back-annotated per-iteration latency ×
/// a configuration-dependent iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoopSpec {
    /// Cycles per iteration (from RTL instrumentation, paper §IV-B
    /// "Accelerator Instrumentation").
    pub latency_per_iter: u64,
    /// Iteration count for this invocation.
    pub iterations: u64,
}

impl LoopSpec {
    /// Total cycles of this loop.
    pub(crate) fn cycles(&self) -> u64 {
        self.latency_per_iter * self.iterations
    }
}

/// One concurrent module (process) of the accelerator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ProcessSpec {
    /// The internal loops executed by this process per chunk.
    pub loops: Vec<LoopSpec>,
}

impl ProcessSpec {
    /// A process with one loop.
    pub(crate) fn single(latency_per_iter: u64, iterations: u64) -> Self {
        ProcessSpec {
            loops: vec![LoopSpec {
                latency_per_iter,
                iterations,
            }],
        }
    }

    /// Total per-chunk cycles of the process.
    pub(crate) fn cycles(&self) -> u64 {
        self.loops.iter().map(LoopSpec::cycles).sum()
    }
}

/// The four §IV-B arguments, fully instantiated for one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PipelineSpec {
    /// Concurrent processes (load / compute(s) / store).
    pub processes: Vec<ProcessSpec>,
    /// Number of chunk repetitions the pipeline runs.
    pub chunks: u64,
}

impl PipelineSpec {
    /// Closed-form pipeline cycles.
    pub(crate) fn cycles(&self) -> u64 {
        if self.processes.is_empty() || self.chunks == 0 {
            return 0;
        }
        let per_chunk: Vec<u64> = self.processes.iter().map(ProcessSpec::cycles).collect();
        let bottleneck = per_chunk.iter().copied().max().unwrap_or(0);
        let fill: u64 = per_chunk.iter().sum();
        (self.chunks - 1) * bottleneck + fill
    }
}

/// Analytic performance estimate of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticOutcome {
    /// Estimated execution cycles.
    pub cycles: u64,
    /// Bytes moved to/from memory.
    pub bytes: u64,
    /// Energy in picojoules.
    pub energy_pj: f64,
}

/// Builds the [`PipelineSpec`] for invoking `accel` with `args` under
/// `config` — the instantiation step that maps invocation parameters to
/// loop iteration counts.
pub(crate) fn pipeline_spec(accel: AccelOp, args: &[i64], config: &AccelConfig) -> PipelineSpec {
    let mut w = workload_with_plm(accel, args, config.chunk_bytes());
    let inst = config.instances.max(1) as u64;
    w = Workload {
        input_bytes: w.input_bytes.div_ceil(inst),
        output_bytes: w.output_bytes.div_ceil(inst),
        compute_ops: w.compute_ops.div_ceil(inst),
    };
    let chunk = config.chunk_bytes();
    let chunks = w.input_bytes.div_ceil(chunk).max(1);
    let bw = config.effective_dma_bw();
    let hop = config.noc_hops as u64 * config.hop_latency;

    let per_in = w.input_bytes.div_ceil(chunks);
    let per_out = w.output_bytes.div_ceil(chunks);
    let per_ops = w.compute_ops.div_ceil(chunks);

    let load = ProcessSpec::single(1, (per_in as f64 / bw).ceil() as u64 + hop);
    let compute = ProcessSpec::single(1, per_ops.div_ceil(compute_ops_per_cycle(accel)));
    let store = ProcessSpec::single(1, (per_out as f64 / bw).ceil() as u64 + hop);

    PipelineSpec {
        processes: vec![load, compute, store],
        chunks,
    }
}

/// Evaluates the analytic model for one invocation.
pub fn analytic_estimate(accel: AccelOp, args: &[i64], config: &AccelConfig) -> AnalyticOutcome {
    let spec = pipeline_spec(accel, args, config);
    let cycles = spec.cycles();
    let w = workload_of(accel, args);
    AnalyticOutcome {
        cycles,
        bytes: w.total_bytes(),
        energy_pj: 0.5 * config.active_power_mw * cycles as f64 * config.instances as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::rtl_cycles;

    #[test]
    fn pipeline_formula_matches_hand_computation() {
        // 3 chunks; stages 10/20/5 per chunk: (3-1)*20 + 35 = 75.
        let spec = PipelineSpec {
            processes: vec![
                ProcessSpec::single(1, 10),
                ProcessSpec::single(1, 20),
                ProcessSpec::single(1, 5),
            ],
            chunks: 3,
        };
        assert_eq!(spec.cycles(), 75);
    }

    #[test]
    fn multi_loop_process_sums_loops() {
        let p = ProcessSpec {
            loops: vec![
                LoopSpec {
                    latency_per_iter: 2,
                    iterations: 10,
                },
                LoopSpec {
                    latency_per_iter: 3,
                    iterations: 4,
                },
            ],
        };
        assert_eq!(p.cycles(), 32);
    }

    #[test]
    fn analytic_tracks_rtl_within_a_few_percent() {
        // The headline validation of Fig. 10d: analytic vs RTL accuracy
        // should be in the high 90s for all three accelerators over the
        // whole DSE grid.
        for accel in [AccelOp::Sgemm, AccelOp::Histogram, AccelOp::ElementWise] {
            for plm_kb in [4u64, 16, 64, 256] {
                for scale in [64i64, 128, 256] {
                    let cfg = AccelConfig::default().with_plm_bytes(plm_kb * 1024);
                    let args = match accel {
                        AccelOp::Sgemm => vec![0, 0, 0, scale, scale, scale],
                        AccelOp::Histogram => vec![0, 0, scale * scale, 256],
                        AccelOp::ElementWise => vec![0, 0, 0, scale * scale],
                        _ => unreachable!(),
                    };
                    let a = analytic_estimate(accel, &args, &cfg).cycles as f64;
                    let r = rtl_cycles(accel, &args, &cfg).cycles as f64;
                    let accuracy = (a / r).min(r / a);
                    assert!(
                        accuracy > 0.85,
                        "{} plm={}KB n={}: analytic {a} vs rtl {r} (accuracy {accuracy:.3})",
                        accel.name(),
                        plm_kb,
                        scale
                    );
                }
            }
        }
    }

    #[test]
    fn evaluation_is_closed_form_fast() {
        // A huge workload evaluates instantly (no per-element work).
        let cfg = AccelConfig::default();
        let big = analytic_estimate(AccelOp::Sgemm, &[0, 0, 0, 4096, 4096, 4096], &cfg);
        assert!(big.cycles > 1_000_000);
    }

    #[test]
    fn empty_pipeline_is_zero() {
        let spec = PipelineSpec {
            processes: vec![],
            chunks: 10,
        };
        assert_eq!(spec.cycles(), 0);
    }
}

//! Per-accelerator workload characterization.
//!
//! Every accelerated function (paper §II-B's accelerator API) maps its
//! invocation parameters to three quantities the performance models
//! consume: input bytes, output bytes, and compute operations. These are
//! the "expression to calculate the number of bytes transferred to/from
//! memory as a function of the accelerator configuration" plus the
//! iteration counts of §IV-B.

use mosaic_ir::AccelOp;

/// Workload of one accelerator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Bytes streamed in from memory.
    pub input_bytes: u64,
    /// Bytes streamed out to memory.
    pub output_bytes: u64,
    /// Elementary compute operations (MACs for dense kernels, updates for
    /// histogram, lane-ops for element-wise).
    pub compute_ops: u64,
}

impl Workload {
    /// Total bytes moved.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }
}

/// Derives the workload of invoking `accel` with the dynamic `args`
/// recorded by the trace (argument layouts documented on
/// [`mosaic_ir::AccelOp`]).
///
/// # Panics
///
/// Panics if `args` is shorter than the accelerator's arity.
pub(crate) fn workload_of(accel: AccelOp, args: &[i64]) -> Workload {
    assert!(
        args.len() >= accel.arity(),
        "{} expects {} args, got {}",
        accel.name(),
        accel.arity(),
        args.len()
    );
    let a = |i: usize| args[i].max(0) as u64;
    match accel {
        AccelOp::Sgemm => {
            // (a, b, c, m, n, k)
            let (m, n, k) = (a(3), a(4), a(5));
            Workload {
                input_bytes: 4 * (m * k + k * n),
                output_bytes: 4 * m * n,
                compute_ops: m * n * k,
            }
        }
        AccelOp::Histogram => {
            // (in, out, n, bins)
            let (n, bins) = (a(2), a(3));
            Workload {
                input_bytes: 4 * n,
                output_bytes: 4 * bins,
                compute_ops: n,
            }
        }
        AccelOp::ElementWise => {
            // (a, b, c, n)
            let n = a(3);
            Workload {
                input_bytes: 8 * n,
                output_bytes: 4 * n,
                compute_ops: n,
            }
        }
        AccelOp::Conv2d => {
            // (in_c, out_c, h, w, k)
            let (ic, oc, h, w, k) = (a(0), a(1), a(2), a(3), a(4));
            Workload {
                input_bytes: 4 * (ic * h * w + ic * oc * k * k),
                output_bytes: 4 * (oc * h * w),
                compute_ops: ic * oc * h * w * k * k,
            }
        }
        AccelOp::Dense => {
            // (batch, in_dim, out_dim)
            let (b, i, o) = (a(0), a(1), a(2));
            Workload {
                input_bytes: 4 * (b * i + i * o),
                output_bytes: 4 * (b * o),
                compute_ops: b * i * o,
            }
        }
        AccelOp::Relu => {
            let n = a(0);
            Workload {
                input_bytes: 4 * n,
                output_bytes: 4 * n,
                compute_ops: n,
            }
        }
        AccelOp::Pool2d => {
            // (c, h, w, k)
            let (c, h, w, k) = (a(0), a(1), a(2), a(3).max(1));
            Workload {
                input_bytes: 4 * c * h * w,
                output_bytes: 4 * c * h * w / (k * k),
                compute_ops: c * h * w,
            }
        }
        AccelOp::BatchNorm => {
            let n = a(0);
            Workload {
                input_bytes: 4 * n,
                output_bytes: 4 * n,
                compute_ops: 2 * n,
            }
        }
        AccelOp::Embedding => {
            // (rows, dim)
            let (r, d) = (a(0), a(1));
            Workload {
                input_bytes: 4 * r * d,
                output_bytes: 4 * r * d,
                compute_ops: r * d,
            }
        }
    }
}

/// Refines [`workload_of`] with PLM-dependent data reuse.
///
/// For tiled GEMM-family kernels, the traffic actually crossing the DMA
/// depends on the tile size the PLM can hold: a row-tile of `t` rows of A
/// (plus the C tile) stays resident while all of B streams through, so B
/// is re-read `ceil(m / t)` times. Larger PLMs therefore trade area for
/// memory traffic — the core trade-off of the paper's Fig. 10 design-space
/// exploration. Streaming kernels (histogram, element-wise, ...) have no
/// reuse and are returned unchanged.
pub(crate) fn workload_with_plm(accel: AccelOp, args: &[i64], chunk_bytes: u64) -> Workload {
    let base = workload_of(accel, args);
    match accel {
        AccelOp::Sgemm => {
            let a = |i: usize| args[i].max(0) as u64;
            let (m, n, k) = (a(3), a(4), a(5));
            if m == 0 || n == 0 || k == 0 {
                return base;
            }
            // Rows of A resident per pass (at least one).
            let t = (chunk_bytes / (4 * k).max(1)).clamp(1, m);
            let passes = m.div_ceil(t);
            Workload {
                input_bytes: 4 * (m * k + passes * k * n),
                output_bytes: base.output_bytes,
                compute_ops: base.compute_ops,
            }
        }
        AccelOp::Dense => {
            let a = |i: usize| args[i].max(0) as u64;
            let (b, i, o) = (a(0), a(1), a(2));
            if b == 0 || i == 0 || o == 0 {
                return base;
            }
            let t = (chunk_bytes / (4 * i).max(1)).clamp(1, b);
            let passes = b.div_ceil(t);
            Workload {
                input_bytes: 4 * (b * i + passes * i * o),
                output_bytes: base.output_bytes,
                compute_ops: base.compute_ops,
            }
        }
        _ => base,
    }
}

/// Peak compute throughput (operations per cycle) of the fixed-function
/// datapath generated for `accel` — the paper's HLS-generated accelerators
/// have wide, deeply pipelined compute processes.
pub(crate) fn compute_ops_per_cycle(accel: AccelOp) -> u64 {
    match accel {
        AccelOp::Sgemm => 16, // 4x4 MAC array
        // The ESP-style layer accelerators of the Keras flow (§VII-C) use
        // a narrower 2x2 datapath than the standalone SGEMM engine.
        AccelOp::Conv2d => 4,
        AccelOp::Dense => 4,
        AccelOp::Histogram => 8,    // bank-limited updates
        AccelOp::ElementWise => 16, // 16 SIMD lanes
        AccelOp::Relu => 32,
        AccelOp::Pool2d => 16,
        AccelOp::BatchNorm => 16,
        AccelOp::Embedding => 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgemm_workload_scales_cubically() {
        let small = workload_of(AccelOp::Sgemm, &[0, 0, 0, 16, 16, 16]);
        let big = workload_of(AccelOp::Sgemm, &[0, 0, 0, 32, 32, 32]);
        assert_eq!(big.compute_ops, small.compute_ops * 8);
        assert_eq!(big.input_bytes, small.input_bytes * 4);
    }

    #[test]
    fn histogram_output_is_bins_only() {
        let w = workload_of(AccelOp::Histogram, &[0, 0, 1024, 256]);
        assert_eq!(w.input_bytes, 4096);
        assert_eq!(w.output_bytes, 1024);
        assert_eq!(w.compute_ops, 1024);
    }

    #[test]
    fn elementwise_reads_two_streams() {
        let w = workload_of(AccelOp::ElementWise, &[0, 0, 0, 100]);
        assert_eq!(w.input_bytes, 800);
        assert_eq!(w.output_bytes, 400);
        assert_eq!(w.total_bytes(), 1200);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn short_args_panic() {
        workload_of(AccelOp::Sgemm, &[1, 2, 3]);
    }

    #[test]
    fn throughputs_positive() {
        for op in [
            AccelOp::Sgemm,
            AccelOp::Histogram,
            AccelOp::ElementWise,
            AccelOp::Conv2d,
            AccelOp::Dense,
            AccelOp::Relu,
            AccelOp::Pool2d,
            AccelOp::BatchNorm,
            AccelOp::Embedding,
        ] {
            assert!(compute_ops_per_cycle(op) > 0);
        }
    }
}

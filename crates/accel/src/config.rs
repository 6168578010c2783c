//! Accelerator hardware configuration (paper §IV-A/B).
//!
//! Two parameter sets, as the paper specifies: *generic system parameters*
//! (technology node, memory bandwidth, NoC distance, instance count) and
//! *accelerator configuration parameters* (PLM size, datapath width —
//! carried per-accelerator in [`crate::workload`]).

/// Hardware configuration of one accelerator tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Private local memory size in bytes (the DSE knob of Fig. 10).
    pub plm_bytes: u64,
    /// Sustained DMA bandwidth in bytes per cycle.
    pub dma_bytes_per_cycle: f64,
    /// Average NoC hops between the accelerator and the memory interface.
    pub noc_hops: u32,
    /// Latency per NoC hop, in cycles.
    pub hop_latency: u64,
    /// Average power while active, in milliwatts (measured by logic
    /// synthesis in the paper; a model constant here).
    pub active_power_mw: f64,
    /// Number of parallel instances invoked (paper §IV-B: the model can
    /// "invoke accelerators in parallel and, given a maximum memory
    /// bandwidth, scale execution time and average power accordingly").
    pub instances: u32,
    /// Maximum aggregate memory bandwidth shared by all instances,
    /// bytes per cycle.
    pub max_memory_bw: f64,
    /// Fixed invocation overhead in cycles (Linux device-driver path; the
    /// paper measures it below 1% for medium/large workloads).
    pub invocation_overhead: u64,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            plm_bytes: 64 * 1024,
            dma_bytes_per_cycle: 16.0,
            noc_hops: 2,
            hop_latency: 4,
            active_power_mw: 50.0,
            instances: 1,
            max_memory_bw: 32.0,
            invocation_overhead: 3000,
        }
    }
}

impl AccelConfig {
    /// Sets the PLM size (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_plm_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "PLM must be non-empty");
        self.plm_bytes = bytes;
        self
    }

    /// Sets the instance count (builder-style).
    #[cfg(test)]
    pub(crate) fn with_instances(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one instance");
        self.instances = n;
        self
    }

    /// Effective per-instance DMA bandwidth after sharing the memory
    /// interface among instances.
    pub(crate) fn effective_dma_bw(&self) -> f64 {
        let total = self.dma_bytes_per_cycle * self.instances as f64;
        if total > self.max_memory_bw {
            self.max_memory_bw / self.instances as f64
        } else {
            self.dma_bytes_per_cycle
        }
    }

    /// Double-buffered chunk size: half the PLM holds the working set
    /// while the other half streams (paper Fig. 4).
    pub(crate) fn chunk_bytes(&self) -> u64 {
        (self.plm_bytes / 2).max(64)
    }

    /// Silicon area of the accelerator in µm², dominated by the PLM —
    /// the y-axis of Fig. 10a-c. SRAM macro ≈ 0.4 µm²/bit at a 22 nm-class
    /// node plus a fixed datapath overhead.
    pub fn area_um2(&self) -> f64 {
        let sram = self.plm_bytes as f64 * 8.0 * 0.4;
        let datapath = 40_000.0;
        (sram + datapath) * self.instances as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_sharing_kicks_in() {
        let one = AccelConfig::default();
        assert_eq!(one.effective_dma_bw(), 16.0);
        let four = AccelConfig::default().with_instances(4);
        // 4 x 16 = 64 > 32 cap: each gets 8.
        assert_eq!(four.effective_dma_bw(), 8.0);
    }

    #[test]
    fn area_grows_with_plm() {
        let small = AccelConfig::default().with_plm_bytes(4 * 1024).area_um2();
        let big = AccelConfig::default().with_plm_bytes(256 * 1024).area_um2();
        assert!(big > small * 10.0);
    }

    #[test]
    fn chunking_is_double_buffered() {
        let c = AccelConfig::default().with_plm_bytes(8192);
        assert_eq!(c.chunk_bytes(), 4096);
    }
}

//! System energy model (paper §III-B: instruction energy costs; §VII-C:
//! energy-delay-product comparisons).
//!
//! Core-side dynamic energy is accumulated per instruction by the tiles
//! (see [`mosaic_tile::CostTable`]) and per invocation by the accelerator
//! models. This module adds the memory-hierarchy dynamic energy (per
//! access at each level) and area-proportional static energy, and rolls
//! everything into joules and energy-delay product.

use mosaic_mem::MemStats;

/// Per-event memory energies and static power densities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per L1 access, pJ.
    pub l1_access_pj: f64,
    /// Energy per L2 access, pJ.
    pub l2_access_pj: f64,
    /// Energy per LLC access, pJ.
    pub llc_access_pj: f64,
    /// Energy per DRAM line transfer, pJ.
    pub dram_line_pj: f64,
    /// Static (leakage) power density, mW per mm² of core area.
    pub static_mw_per_mm2: f64,
    /// Clock frequency in GHz (converts cycles to seconds).
    pub freq_ghz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 22 nm-class values in the spirit of McPAT (which the paper uses
        // for its area/power numbers).
        EnergyModel {
            l1_access_pj: 15.0,
            l2_access_pj: 45.0,
            llc_access_pj: 120.0,
            dram_line_pj: 2600.0,
            static_mw_per_mm2: 50.0,
            freq_ghz: 2.0,
        }
    }
}

impl EnergyModel {
    /// Memory-hierarchy dynamic energy for the given access counts, pJ.
    pub(crate) fn memory_energy_pj(&self, stats: &MemStats) -> f64 {
        let l1 = (stats.l1_hits + stats.l1_misses) as f64 * self.l1_access_pj;
        let l2 = (stats.l2_hits + stats.l2_misses) as f64 * self.l2_access_pj;
        let llc = (stats.llc_hits + stats.llc_misses) as f64 * self.llc_access_pj;
        let dram = (stats.dram_reads + stats.dram_writebacks) as f64 * self.dram_line_pj;
        l1 + l2 + llc + dram
    }

    /// Static energy of `area_mm2` of silicon active for `cycles`, pJ.
    pub fn static_energy_pj(&self, area_mm2: f64, cycles: u64) -> f64 {
        // mW * ns = pJ; one cycle = 1/freq ns.
        let ns = cycles as f64 / self.freq_ghz;
        self.static_mw_per_mm2 * area_mm2 * ns
    }

    /// Converts cycles to seconds at the model frequency.
    pub(crate) fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, total_energy_pj: f64, cycles: u64) -> f64 {
        total_energy_pj * 1e-12 * self.seconds(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_energy_sums_levels() {
        let m = EnergyModel::default();
        let stats = MemStats {
            l1_hits: 100,
            l1_misses: 10,
            l2_hits: 5,
            l2_misses: 5,
            llc_hits: 3,
            llc_misses: 2,
            dram_reads: 2,
            dram_writebacks: 1,
            atomics: 0,
            prefetches: 0,
        };
        let e = m.memory_energy_pj(&stats);
        let expected = 110.0 * 15.0 + 10.0 * 45.0 + 5.0 * 120.0 + 3.0 * 2600.0;
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn static_energy_scales_with_area_and_time() {
        let m = EnergyModel::default();
        let small = m.static_energy_pj(1.01, 1000);
        let big = m.static_energy_pj(8.44, 1000);
        assert!(big > small * 8.0);
        assert!(m.static_energy_pj(1.0, 2000) > m.static_energy_pj(1.0, 1000));
    }

    #[test]
    fn edp_has_joule_second_magnitude() {
        let m = EnergyModel::default();
        // 1 J over 1 s => 1 J·s.
        let edp = m.edp(1e12, 2_000_000_000);
        assert!((edp - 1.0).abs() < 1e-9);
    }
}

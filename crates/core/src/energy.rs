//! System energy model (paper §III-B: instruction energy costs; §VII-C:
//! energy-delay-product comparisons).
//!
//! Core-side dynamic energy is accumulated per instruction by the tiles
//! (see [`mosaic_tile::CostTable`]) and per invocation by the accelerator
//! models. This module adds the memory-hierarchy dynamic energy (per
//! access at each level) and area-proportional static energy, and rolls
//! everything into joules and energy-delay product. The values are
//! 22 nm-class, in the spirit of McPAT (which the paper uses for its
//! area/power numbers).

use mosaic_mem::MemStats;

/// Energy per L1 access, pJ.
const L1_ACCESS_PJ: f64 = 15.0;
/// Energy per L2 access, pJ.
const L2_ACCESS_PJ: f64 = 45.0;
/// Energy per LLC access, pJ.
const LLC_ACCESS_PJ: f64 = 120.0;
/// Energy per DRAM line transfer, pJ.
pub const DRAM_LINE_PJ: f64 = 2600.0;
/// Static (leakage) power density, mW per mm² of core area.
const STATIC_MW_PER_MM2: f64 = 50.0;
/// Clock frequency in GHz (converts cycles to seconds).
const FREQ_GHZ: f64 = 2.0;

/// Memory-hierarchy dynamic energy for the given access counts, pJ.
pub(crate) fn memory_energy_pj(stats: &MemStats) -> f64 {
    let l1 = (stats.l1_hits + stats.l1_misses) as f64 * L1_ACCESS_PJ;
    let l2 = (stats.l2_hits + stats.l2_misses) as f64 * L2_ACCESS_PJ;
    let llc = (stats.llc_hits + stats.llc_misses) as f64 * LLC_ACCESS_PJ;
    let dram = (stats.dram_reads + stats.dram_writebacks) as f64 * DRAM_LINE_PJ;
    l1 + l2 + llc + dram
}

/// Static energy of `area_mm2` of silicon active for `cycles`, pJ.
pub fn static_energy_pj(area_mm2: f64, cycles: u64) -> f64 {
    // mW * ns = pJ; one cycle = 1/freq ns.
    let ns = cycles as f64 / FREQ_GHZ;
    STATIC_MW_PER_MM2 * area_mm2 * ns
}

/// Energy-delay product in joule-seconds.
pub fn edp(total_energy_pj: f64, cycles: u64) -> f64 {
    let seconds = cycles as f64 / (FREQ_GHZ * 1e9);
    total_energy_pj * 1e-12 * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_energy_sums_levels() {
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
        let e = memory_energy_pj(&stats);
        let expected = 110.0 * 15.0 + 10.0 * 45.0 + 5.0 * 120.0 + 3.0 * 2600.0;
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn static_energy_scales_with_area_and_time() {
        let small = static_energy_pj(1.01, 1000);
        let big = static_energy_pj(8.44, 1000);
        assert!(big > small * 8.0);
        assert!(static_energy_pj(1.0, 2000) > static_energy_pj(1.0, 1000));
    }

    #[test]
    fn edp_has_joule_second_magnitude() {
        // 1 J over 1 s => 1 J·s.
        let js = edp(1e12, 2_000_000_000);
        assert!((js - 1.0).abs() < 1e-9);
    }
}

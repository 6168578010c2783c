//! Fast-forwarding skips cycles in which no tile or memory event happens;
//! it must change how a system runs, never what it computes (DESIGN.md
//! §4.2.1). Each test holds its lines of the mode relations
//! (`support::relations`) on the zoo's `MODES` systems: every report
//! field, registry path and profile row.

use support::everything;
use support::relations::{hold, FF, NAIVE};

/// Fast-forward ≡ naive on one and four tiles.
#[test]
fn fast_forward_is_bit_identical_to_naive() {
    let covers = |s: &str| s.ends_with("/1t") || s.ends_with("/4t");
    hold(&[("fast-forward ≡ naive", covers, [everything; 2], vec![(FF, NAIVE)])]);
}

/// The same on banked DRAM, whose horizon comes from bank state.
#[test]
fn fast_forward_identical_with_banked_dram() {
    let covers = |s: &str| s.ends_with("/banked");
    hold(&[("fast-forward ≡ naive on banked DRAM", covers, [everything; 2], vec![(FF, NAIVE)])]);
}

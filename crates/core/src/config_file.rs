//! Configuration files (paper §VI-B).
//!
//! "MosaicSim provides a comprehensive set of both core and system
//! configuration files that include a number of reconfigurable parameters
//! (e.g. ROB size, issue-width, memory hierarchy details, etc.). These
//! are straightforward to modify or extend."
//!
//! The format is a flat `key = value` file with `#` comments. Unknown
//! keys are errors (typos should not silently fall back to defaults).
//! Two example files ship in the repository's `configs/` directory.
//!
//! # Examples
//!
//! ```
//! use mosaic_core::parse_system_config;
//!
//! let text = "
//! core.name = demo # a 2-wide core on a small memory system
//! core.issue_width = 2
//! core.window_size = 64
//! mem.l1.size_kb = 16
//! mem.dram.bandwidth_bytes_per_cycle = 16
//! ";
//! let (core, mem) = parse_system_config(text)?;
//! assert_eq!(core.issue_width, 2);
//! assert_eq!(mem.l1.size_bytes(), 16 * 1024);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use mosaic_mem::{
    BankedDramConfig, CacheConfig, DramKind, HierarchyConfig, NocConfig, PrefetchConfig,
    SimpleDramConfig,
};
use mosaic_tile::{BranchMode, CoreConfig};

/// Errors from configuration parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not `key = value` or a comment.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The key is not recognized.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// The value failed to parse for its key.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
        /// The unparsable value.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Malformed { line, text } => {
                write!(f, "line {line}: expected `key = value`, got `{text}`")
            }
            ConfigError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown configuration key `{key}`")
            }
            ConfigError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value `{value}` for `{key}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One `key = value` line.
struct Raw<'a> {
    line: usize,
    key: &'a str,
    value: &'a str,
}

fn tokenize(text: &str) -> Result<Vec<Raw<'_>>, ConfigError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let t = raw.split('#').next().unwrap_or("").trim();
        if t.is_empty() {
            continue;
        }
        let Some((k, v)) = t.split_once('=') else {
            return Err(ConfigError::Malformed {
                line,
                text: t.to_string(),
            });
        };
        out.push(Raw {
            line,
            key: k.trim(),
            value: v.trim(),
        });
    }
    Ok(out)
}

impl Raw<'_> {
    fn bad_value(&self) -> ConfigError {
        ConfigError::BadValue {
            line: self.line,
            key: self.key.to_string(),
            value: self.value.to_string(),
        }
    }

    /// The value as a `T` within the key's bounds.
    fn parse_if<T: FromStr>(&self, in_bounds: impl Fn(&T) -> bool) -> Result<T, ConfigError> {
        let parsed = self.value.parse().ok().filter(in_bounds);
        parsed.ok_or_else(|| self.bad_value())
    }

    fn parse<T: FromStr>(&self) -> Result<T, ConfigError> {
        self.parse_if(|_| true)
    }

    /// The value looked up among the key's spellings.
    fn one_of<T: Copy>(&self, spellings: &[(&str, T)]) -> Result<T, ConfigError> {
        let found = spellings.iter().find(|(spelling, _)| *spelling == self.value);
        found.map(|&(_, v)| v).ok_or_else(|| self.bad_value())
    }

    fn parse_bool(&self) -> Result<bool, ConfigError> {
        match self.value {
            "true" | "on" | "yes" | "1" => Ok(true),
            "false" | "off" | "no" | "0" => Ok(false),
            _ => Err(self.bad_value()),
        }
    }

    /// `cache`, renamed `name`, with the field this `mem.<level>.<field>`
    /// line sets. A size is positive and, in bytes, fits a `u64`; a cache
    /// has at least one way.
    fn cache_field(
        &self,
        name: &str,
        cache: &CacheConfig,
        field: &str,
    ) -> Result<CacheConfig, ConfigError> {
        let (mut size, mut ways) = (cache.size_bytes(), cache.ways());
        let mut latency = cache.latency();
        match field {
            "size_kb" => {
                let fits = |kb: &u64| kb.checked_mul(1024).is_some_and(|bytes| bytes > 0);
                size = self.parse_if(fits)? * 1024;
            }
            "ways" => ways = self.parse_if(|&ways| ways > 0)?,
            "latency" => latency = self.parse()?,
            _ => return Err(self.unknown_key()),
        }
        Ok(CacheConfig::new(name, size).with_ways(ways).with_latency(latency))
    }

    fn unknown_key(&self) -> ConfigError {
        ConfigError::UnknownKey {
            line: self.line,
            key: self.key.to_string(),
        }
    }
}

const BRANCH_MODES: [(&str, BranchMode); 4] = [
    ("none", BranchMode::None),
    ("static", BranchMode::Static),
    ("perfect", BranchMode::Perfect),
    ("bimodal", BranchMode::Bimodal),
];

/// `mem.dram` spellings: whether the banked model is chosen.
const DRAM_MODELS: [(&str, bool); 2] = [("simple", false), ("banked", true)];

/// Parses both a core and a memory configuration from one file. Keys not
/// present keep [`CoreConfig::out_of_order`] / [`crate::xeon_memory`]
/// defaults. It never panics: a value outside its key's bounds is a
/// [`ConfigError::BadValue`], and what only makes sense across fields
/// (cache geometry, latencies against the cycle limit) is left to
/// `SystemBuilder::build`.
///
/// | key | value |
/// |---|---|
/// | `core.name` | text |
/// | `core.issue_width`, `core.lsq_size`, `core.desc_buffer` | `u32` |
/// | `core.window_size`, `core.mispredict_penalty`, `core.clock_divisor` | `u64` |
/// | `core.live_dbb_limit` | `u32`, 0 = no limit |
/// | `core.branch` | `none`, `static`, `perfect`, `bimodal` |
/// | `core.alias_speculation`, `core.desc_extensions`, `mem.prefetch` | `true`/`on`/`yes`/`1` or `false`/`off`/`no`/`0` |
/// | `core.area_mm2` | finite `f64` ≥ 0 |
/// | `mem.{l1,l2,llc}.size_kb` | `u64` ≥ 1 whose bytes fit a `u64`; `mem.l2.size_kb = 0` = no private L2 |
/// | `mem.{l1,l2,llc}.ways` | `u32` ≥ 1 |
/// | `mem.{l1,l2,llc}.latency`, `mem.atomic_penalty` | `u64` |
/// | `mem.mshr_entries` | `usize` |
/// | `mem.dram` | `simple` or `banked` |
/// | `mem.dram.latency` | `u64` (simple model) |
/// | `mem.dram.bandwidth_bytes_per_cycle` | finite `f64` > 0 (simple model) |
/// | `mem.noc.mesh_width` | `u32`, 0 = no NoC |
/// | `mem.noc.hop_latency` | `u64` |
///
/// DESIGN.md §4.1.1 gives each key's default.
///
/// # Errors
///
/// Returns [`ConfigError`] on malformed lines, unknown keys, or bad
/// values.
pub fn parse_system_config(text: &str) -> Result<(CoreConfig, HierarchyConfig), ConfigError> {
    let mut core = CoreConfig::out_of_order();
    let mut mem = crate::xeon_memory();
    let mut dram_banked = false;
    let mut dram_latency: u64 = 180;
    let mut dram_bw: f64 = 21.25;
    let mut noc_width: u32 = 0;
    let mut noc_hop: u64 = 2;

    for r in tokenize(text)? {
        match r.key {
            "core.name" => core.name = r.value.to_string(),
            "core.issue_width" => core.issue_width = r.parse()?,
            "core.window_size" => core.window_size = r.parse()?,
            "core.lsq_size" => core.lsq_size = r.parse()?,
            "core.branch" => core.branch = r.one_of(&BRANCH_MODES)?,
            "core.mispredict_penalty" => core.mispredict_penalty = r.parse()?,
            "core.alias_speculation" => core.alias_speculation = r.parse_bool()?,
            "core.live_dbb_limit" => {
                let v: u32 = r.parse()?;
                core.live_dbb_limit = (v > 0).then_some(v);
            }
            "core.clock_divisor" => core.clock_divisor = r.parse()?,
            "core.area_mm2" => core.area_mm2 = r.parse_if(|a: &f64| a.is_finite() && *a >= 0.0)?,
            "core.desc_extensions" => core.desc_extensions = r.parse_bool()?,
            "core.desc_buffer" => core.desc_buffer = r.parse()?,

            "mem.mshr_entries" => mem.mshr_entries = r.parse()?,
            "mem.prefetch" => {
                mem.prefetch = if r.parse_bool()? {
                    PrefetchConfig::default()
                } else {
                    PrefetchConfig::disabled()
                };
            }
            "mem.atomic_penalty" => mem.atomic_penalty = r.parse()?,
            "mem.dram" => dram_banked = r.one_of(&DRAM_MODELS)?,
            "mem.dram.latency" => dram_latency = r.parse()?,
            "mem.dram.bandwidth_bytes_per_cycle" => {
                dram_bw = r.parse_if(|bw: &f64| bw.is_finite() && *bw > 0.0)?;
            }
            "mem.noc.mesh_width" => noc_width = r.parse()?,
            "mem.noc.hop_latency" => noc_hop = r.parse()?,
            key => match key.strip_prefix("mem.").and_then(|rest| rest.split_once('.')) {
                Some(("l1", field)) => mem.l1 = r.cache_field("L1", &mem.l1, field)?,
                Some(("llc", field)) => mem.llc = r.cache_field("LLC", &mem.llc, field)?,
                // `mem.l2.size_kb = 0`: no private L2.
                Some(("l2", "size_kb")) if r.parse::<u64>() == Ok(0) => mem.l2 = None,
                Some(("l2", field)) => {
                    let l2 = mem.l2.take();
                    let l2 = l2.unwrap_or_else(|| CacheConfig::new("L2", 2 * 1024 * 1024));
                    mem.l2 = Some(r.cache_field("L2", &l2, field)?);
                }
                _ => return Err(r.unknown_key()),
            },
        }
    }

    mem.dram = if dram_banked {
        DramKind::Banked(BankedDramConfig::default())
    } else {
        DramKind::Simple(SimpleDramConfig::from_bandwidth(dram_latency, dram_bw, 64))
    };
    mem.noc = (noc_width > 0).then_some(NocConfig {
        mesh_width: noc_width,
        hop_latency: noc_hop,
    });
    Ok((core, mem))
}

/// Loads a system configuration from a file.
///
/// # Errors
///
/// Returns I/O errors wrapped as [`ConfigError::Malformed`] on read
/// failure, or parse errors from [`parse_system_config`].
pub fn load_system_config(path: impl AsRef<Path>) -> Result<(CoreConfig, HierarchyConfig), ConfigError> {
    let text = std::fs::read_to_string(&path).map_err(|e| ConfigError::Malformed {
        line: 0,
        text: format!("{}: {e}", path.as_ref().display()),
    })?;
    parse_system_config(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_round_trip() {
        let text = "
            # DAE-style in-order core
            core.name = access
            core.issue_width = 1
            core.window_size = 1
            core.lsq_size = 1
            core.branch = static
            core.mispredict_penalty = 4
            core.alias_speculation = off
            core.area_mm2 = 1.01
            core.desc_extensions = on
            core.desc_buffer = 4

            mem.l1.size_kb = 32
            mem.l1.ways = 8
            mem.l1.latency = 1
            mem.l2.size_kb = 0        # no private L2
            mem.llc.size_kb = 2048
            mem.llc.ways = 8
            mem.llc.latency = 6
            mem.mshr_entries = 16
            mem.prefetch = on
            mem.atomic_penalty = 20
            mem.dram = simple
            mem.dram.latency = 200
            mem.dram.bandwidth_bytes_per_cycle = 12
        ";
        let (core, mem) = parse_system_config(text).unwrap();
        assert_eq!(core.name, "access");
        assert_eq!(core.issue_width, 1);
        assert_eq!(core.window_size, 1);
        assert_eq!(core.branch, BranchMode::Static);
        assert!(core.desc_extensions);
        assert_eq!(core.desc_buffer, 4);
        assert!(!core.alias_speculation);
        assert_eq!(mem.l1.size_bytes(), 32 * 1024);
        assert!(mem.l2.is_none());
        assert_eq!(mem.llc.size_bytes(), 2 * 1024 * 1024);
        assert_eq!(mem.llc.latency(), 6);
        // Matches dae_memory() on the load-bearing parameters (the
        // display name differs: config files call the shared level LLC).
        let reference = crate::dae_memory();
        assert_eq!(mem.llc.size_bytes(), reference.llc.size_bytes());
        assert_eq!(mem.llc.ways(), reference.llc.ways());
        assert_eq!(mem.llc.latency(), reference.llc.latency());
        assert_eq!(mem.dram, reference.dram);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = parse_system_config("core.isue_width = 4").unwrap_err();
        assert!(matches!(err, ConfigError::UnknownKey { line: 1, .. }));
    }

    #[test]
    fn bad_value_reports_line() {
        let err = parse_system_config("\ncore.issue_width = wide").unwrap_err();
        match err {
            ConfigError::BadValue { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_line_rejected() {
        let err = parse_system_config("just some words").unwrap_err();
        assert!(matches!(err, ConfigError::Malformed { .. }));
    }

    #[test]
    fn noc_and_banked_dram_options() {
        let (_, mem) = parse_system_config(
            "mem.dram = banked\nmem.noc.mesh_width = 4\nmem.noc.hop_latency = 3",
        )
        .unwrap();
        assert!(matches!(mem.dram, DramKind::Banked(_)));
        let noc = mem.noc.expect("noc configured");
        assert_eq!(noc.mesh_width, 4);
        assert_eq!(noc.hop_latency, 3);
    }

    #[test]
    fn shipped_config_files_parse() {
        for name in ["ooo_xeon.cfg", "dae_access.cfg"] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/");
            let (core, _mem) =
                load_system_config(format!("{path}{name}")).unwrap_or_else(|e| {
                    panic!("shipped config {name} failed to parse: {e}")
                });
            assert!(!core.name.is_empty());
        }
    }
}

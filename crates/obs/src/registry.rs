//! Hierarchical statistics registry with stable dotted paths.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`, so 65 buckets cover the full `u64` range. The
/// exact `count`/`sum`/`min`/`max` are tracked alongside the buckets,
/// making two histograms comparable bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }

    /// The bucket index a value falls into.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        }
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[cfg(test)]
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    #[cfg(test)]
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate p-th percentile (0..=100): the lower bound of the
    /// bucket containing that rank.
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(u64::from(p.min(100)))).div_ceil(100);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return Self::bucket_low(i);
            }
        }
        self.max
    }

    /// Iterates non-empty `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Merges another histogram into this one exactly: bucket counts
    /// add and the tracked moments (count/sum/min/max) combine.
    pub fn merge_from(&mut self, other: &Log2Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// One-line human summary: `n=.. mean=.. p50=.. p99=.. max=..`.
    pub(crate) fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50),
            self.percentile(99),
            self.max
        )
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        );
        let mut first = true;
        for (i, c) in self.nonzero_buckets() {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "[{i},{c}]");
        }
        s.push_str("]}");
        s
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let mut h = Log2Histogram::new();
        h.count = v
            .get("count")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram missing count")?;
        h.sum = v
            .get("sum")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram missing sum")?;
        let min = v
            .get("min")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram missing min")?;
        h.min = if h.count == 0 { u64::MAX } else { min };
        h.max = v
            .get("max")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram missing max")?;
        let buckets = v
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or("histogram missing buckets")?;
        for pair in buckets {
            let pair = pair.as_array().ok_or("histogram bucket not a pair")?;
            let (i, c) = match pair {
                [i, c] => (
                    i.as_u64().ok_or("bad bucket index")? as usize,
                    c.as_u64().ok_or("bad bucket count")?,
                ),
                _ => return Err("histogram bucket not a pair".into()),
            };
            if i >= 65 {
                return Err(format!("bucket index {i} out of range"));
            }
            h.buckets[i] = c;
        }
        Ok(h)
    }
}

/// One typed value in the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// A monotonically accumulated event count.
    Counter(u64),
    /// A point-in-time measurement (energy, ratios, high-water marks).
    Gauge(f64),
    /// A log2-bucketed sample distribution (boxed to keep the enum small).
    Histogram(Box<Log2Histogram>),
}

impl StatValue {
    fn to_json(&self) -> String {
        match self {
            StatValue::Counter(c) => c.to_string(),
            StatValue::Gauge(g) => fmt_gauge(*g),
            StatValue::Histogram(h) => h.to_json(),
        }
    }

    /// A short human rendering (used by the table dump).
    pub(crate) fn display(&self) -> String {
        match self {
            StatValue::Counter(c) => c.to_string(),
            StatValue::Gauge(g) => format!("{g:.3}"),
            StatValue::Histogram(h) => h.summary(),
        }
    }
}

fn fmt_gauge(g: f64) -> String {
    // Always keep a decimal point so `from_json` can distinguish
    // gauges from counters.
    if g == g.trunc() && g.abs() < 1e15 {
        format!("{g:.1}")
    } else {
        format!("{g}")
    }
}

/// A hierarchical registry of named statistics.
///
/// Paths are dotted strings with stable, documented segments
/// (`tile.<slot>.stall.mem`, `mem.l1.<i>.hits`,
/// `mem.l2.mshr.occupancy`, `sim.cycles_skipped`). Entries are kept
/// sorted by path, so dumps are deterministic and two registries from
/// bit-identical runs compare equal with `==`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsRegistry {
    stats: BTreeMap<String, StatValue>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (inserting or overwriting) a counter.
    pub fn set_counter(&mut self, path: &str, value: u64) {
        self.stats
            .insert(path.to_string(), StatValue::Counter(value));
    }

    /// Sets (inserting or overwriting) a gauge.
    pub fn set_gauge(&mut self, path: &str, value: f64) {
        self.stats.insert(path.to_string(), StatValue::Gauge(value));
    }

    /// Inserts an already-built histogram.
    pub fn set_histogram(&mut self, path: &str, h: Log2Histogram) {
        self.stats
            .insert(path.to_string(), StatValue::Histogram(Box::new(h)));
    }

    /// The value at `path`, if any.
    pub fn get(&self, path: &str) -> Option<&StatValue> {
        self.stats.get(path)
    }

    /// The counter at `path` (0 if absent or not a counter).
    pub fn counter(&self, path: &str) -> u64 {
        match self.stats.get(path) {
            Some(StatValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The gauge at `path` (0.0 if absent or not a gauge).
    pub fn gauge(&self, path: &str) -> f64 {
        match self.stats.get(path) {
            Some(StatValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// Iterates `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.stats.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Keeps only the entries whose path satisfies `keep` (e.g. to strip
    /// a diagnostic namespace before a bit-identity comparison).
    pub fn retain<F: FnMut(&str) -> bool>(&mut self, mut keep: F) {
        self.stats.retain(|k, _| keep(k));
    }

    /// Serializes the registry as one flat JSON object keyed by path.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut first = true;
        for (k, v) in &self.stats {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(s, "  \"{}\": {}", json::escape(k), v.to_json());
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a registry from a [`Self::to_json`] dump.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("stats dump is not a JSON object")?;
        let mut reg = StatsRegistry::new();
        for (k, v) in obj {
            let value = match v {
                JsonValue::Int(i) => StatValue::Counter(*i),
                JsonValue::Num(n) => StatValue::Gauge(*n),
                JsonValue::Obj(_) => StatValue::Histogram(Box::new(Log2Histogram::from_json(v)?)),
                _ => return Err(format!("stat {k:?} has unsupported JSON type")),
            };
            reg.stats.insert(k.clone(), value);
        }
        Ok(reg)
    }

    /// Pretty-prints the registry as an aligned two-column table,
    /// with a blank line between top-level path groups.
    pub fn to_table(&self) -> String {
        let width = self
            .stats
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(4)
            .max(4);
        let mut s = format!("{:width$}  value\n", "path");
        let _ = writeln!(s, "{:-<width$}  {:-<20}", "", "");
        let mut last_group: Option<&str> = None;
        for (k, v) in &self.stats {
            let group = k.split('.').next().unwrap_or(k);
            if last_group.is_some_and(|g| g != group) {
                s.push('\n');
            }
            last_group = Some(group);
            let _ = writeln!(s, "{k:width$}  {}", v.display());
        }
        s
    }

    /// Compares two registries, returning `(path, before, after)` for
    /// every path whose value differs (absent values render as `-`).
    pub fn diff<'a>(&'a self, other: &'a StatsRegistry) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        let mut keys: Vec<&String> = self.stats.keys().chain(other.stats.keys()).collect();
        keys.sort();
        keys.dedup();
        for k in keys {
            let a = self.stats.get(k);
            let b = other.stats.get(k);
            if a != b {
                rows.push((
                    k.clone(),
                    a.map_or_else(|| "-".to_string(), StatValue::display),
                    b.map_or_else(|| "-".to_string(), StatValue::display),
                ));
            }
        }
        rows
    }
}

mosaic_ckpt::snap_fields!(Log2Histogram: count, sum, min, max);

/// Exact `count`/`sum` and the raw `min`/`max` fields (so an empty
/// histogram round-trips its `u64::MAX` min sentinel), then the nonzero
/// buckets as sparse `(index, count)` pairs; a bucket index outside `0..65`
/// is corrupt.
impl mosaic_ckpt::Snap for Log2Histogram {
    fn put(&self, e: &mut mosaic_ckpt::Enc) {
        self.put_fields(e);
        e.seq::<(u8, u64)>(self.nonzero_buckets().map(|(i, n)| (i as u8, n)));
    }

    fn get(d: &mut mosaic_ckpt::Dec<'_>, _: &str) -> Result<Self, mosaic_ckpt::CkptError> {
        let mut h = Log2Histogram::new();
        h.get_fields(d)?;
        d.seq::<(u8, u64)>("histogram buckets", |(i, n)| {
            let bucket = h.buckets.get_mut(usize::from(i)).ok_or_else(|| {
                mosaic_ckpt::CkptError::corrupt(format!("histogram bucket index {i} out of range"))
            })?;
            *bucket = n;
            Ok(())
        })?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(h.percentile(100), Log2Histogram::bucket_low(7));
        assert!(h.percentile(50) <= h.percentile(99));
    }

    #[test]
    fn registry_json_round_trip() {
        let mut r = StatsRegistry::new();
        r.set_counter("tile.0.retired", 1234);
        r.set_gauge("tile.0.energy_pj", 56.25);
        r.set_gauge("tile.0.ipc", 2.0);
        let mut h = Log2Histogram::new();
        for v in [1, 5, 9, 130] {
            h.record(v);
        }
        r.set_histogram("mem.l1.0.mshr.occupancy", h);
        let text = r.to_json();
        let back = StatsRegistry::from_json(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn diff_reports_changed_and_missing() {
        let mut a = StatsRegistry::new();
        a.set_counter("x", 1);
        a.set_counter("same", 5);
        let mut b = StatsRegistry::new();
        b.set_counter("x", 2);
        b.set_counter("same", 5);
        b.set_counter("new", 9);
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, "new");
        assert_eq!(d[0].1, "-");
        assert_eq!(d[1].0, "x");
        assert_eq!((d[1].1.as_str(), d[1].2.as_str()), ("1", "2"));
    }

    #[test]
    fn table_mentions_every_path() {
        let mut r = StatsRegistry::new();
        r.set_counter("a.one", 1);
        r.set_counter("b.two", 2);
        let t = r.to_table();
        assert!(t.contains("a.one"));
        assert!(t.contains("b.two"));
    }
}

//! Cycle-timeline span recording and Chrome `trace_event` export.

use std::fmt::{self, Write as _};

use mosaic_ckpt::{CkptError, Dec, Enc, Snap};

use crate::json::Escaped;

/// A span's name, kept in the form it was recorded in and rendered only
/// when the timeline is exported or checkpointed — recording the
/// commonest spans neither formats nor allocates.
#[derive(Debug, Clone)]
pub enum SpanName {
    /// A fixed label (`"compute"`, `"stall"`, `"accel invoke"`).
    Static(&'static str),
    /// A memory request's lifetime: `"<kind> line 0x<line>"`.
    MemLine {
        /// The access kind's label (`"ld"`, `"st"`, …).
        kind: &'static str,
        /// The line address.
        line: u64,
    },
    /// A DRAM service interval: `"line 0x<line>"`.
    DramLine(u64),
    /// Any other text (per-tile lifetime spans, decoded checkpoints).
    Owned(String),
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanName::Static(s) => f.write_str(s),
            SpanName::MemLine { kind, line } => write!(f, "{kind} line 0x{line:x}"),
            SpanName::DramLine(line) => write!(f, "line 0x{line:x}"),
            SpanName::Owned(s) => f.write_str(s),
        }
    }
}

/// Names are equal when they render to the same text, whichever form
/// they were recorded in (a decoded checkpoint holds only `Owned`).
impl PartialEq for SpanName {
    fn eq(&self, other: &Self) -> bool {
        self.to_string() == other.to_string()
    }
}

impl Eq for SpanName {}

impl From<&'static str> for SpanName {
    fn from(s: &'static str) -> Self {
        SpanName::Static(s)
    }
}

/// One half-open span `[start, end)` of simulated cycles on a
/// (process, thread) track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Track process id (0 = tiles, 1 = memory by convention).
    pub pid: u32,
    /// Track thread id within the process (tile slot, memory lane).
    pub tid: u32,
    /// Event category (`"tile"`, `"stall"`, `"mem"`, `"accel"`).
    pub cat: &'static str,
    /// Human-readable span name (instruction, stall reason, level).
    pub name: SpanName,
    /// First cycle covered by the span.
    pub start: u64,
    /// First cycle after the span.
    pub end: u64,
}

/// A sink of [`Span`]s plus track-naming metadata, exportable as
/// Chrome `trace_event` JSON (the format `chrome://tracing` and
/// Perfetto load).
///
/// Simulated cycles are written as microseconds (`ts`/`dur`), so one
/// viewer microsecond is one global cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    processes: Vec<(u32, String)>,
    threads: Vec<(u32, u32, String)>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span; `end <= start` records a 1-cycle span.
    pub fn span(
        &mut self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: impl Into<SpanName>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            pid,
            tid,
            cat,
            name: name.into(),
            start,
            end: end.max(start + 1),
        });
    }

    /// Names a process track (emitted as `process_name` metadata).
    pub fn process_name(&mut self, pid: u32, name: impl Into<String>) {
        let name = name.into();
        if !self.processes.iter().any(|(p, _)| *p == pid) {
            self.processes.push((pid, name));
        }
    }

    /// Names a thread track (emitted as `thread_name` metadata).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        let name = name.into();
        if !self.threads.iter().any(|(p, t, _)| *p == pid && *t == tid) {
            self.threads.push((pid, tid, name));
        }
    }

    /// Appends all spans and track names from `other`.
    pub fn merge(&mut self, other: Timeline) {
        self.spans.extend(other.spans);
        for (pid, name) in other.processes {
            self.process_name(pid, name);
        }
        for (pid, tid, name) in other.threads {
            self.thread_name(pid, tid, name);
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serializes as Chrome `trace_event` JSON: an object with a
    /// `traceEvents` array of complete (`"ph":"X"`) events plus
    /// `process_name`/`thread_name` metadata (`"ph":"M"`) records.
    pub fn to_chrome_json(&self) -> String {
        // An event is about 80 bytes; reserving up front saves the copies
        // of growing a multi-megabyte string by doubling.
        let mut s = String::with_capacity(96 * self.spans.len() + 256);
        s.push_str("{\"traceEvents\":[\n");
        let mut sep = "  ";
        let processes = self.processes.iter().map(|(pid, name)| (pid, &0, "process_name", name));
        let threads = self.threads.iter().map(|(pid, tid, name)| (pid, tid, "thread_name", name));
        // `write!` into a `String` cannot fail.
        for (pid, tid, kind, name) in processes.chain(threads) {
            let _ = write!(
                s,
                "{sep}{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\""
            );
            let _ = Escaped(&mut s).write_str(name);
            s.push_str("\"}}");
            sep = ",\n  ";
        }
        for sp in &self.spans {
            s.push_str(sep);
            s.push_str("{\"ph\":\"X\",\"pid\":");
            push_decimal(&mut s, sp.pid.into());
            s.push_str(",\"tid\":");
            push_decimal(&mut s, sp.tid.into());
            s.push_str(",\"cat\":\"");
            s.push_str(sp.cat);
            s.push_str("\",\"name\":\"");
            let _ = write!(Escaped(&mut s), "{}", sp.name);
            s.push_str("\",\"ts\":");
            push_decimal(&mut s, sp.start);
            s.push_str(",\"dur\":");
            push_decimal(&mut s, sp.end - sp.start);
            s.push('}');
            sep = ",\n  ";
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

/// Appends `v` in decimal. A span has four integers and an export
/// hundreds of thousands; going through `fmt` for each is most of its
/// time.
fn push_decimal(s: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.extend(digits[at..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    #[test]
    fn chrome_json_parses_and_has_complete_events() {
        let mut t = Timeline::new();
        t.process_name(0, "tiles");
        t.thread_name(0, 3, "tile.3 core");
        t.span(0, 3, "tile", "active", 0, 128);
        t.span(1, 0, "mem", "ld @0x40", 10, 10); // zero-length clamps to 1
        let doc = t.to_chrome_json();
        let v = parse(&doc).expect("trace must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        let complete: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[0].get("dur").unwrap().as_u64(), Some(128));
        assert_eq!(complete[1].get("dur").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn decimals_render_as_display_does() {
        for v in [0, 9, 10, 65_667, u64::from(u32::MAX), u64::MAX] {
            let mut s = String::new();
            push_decimal(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn merge_combines_spans_and_tracks() {
        let mut a = Timeline::new();
        a.span(0, 0, "tile", "x", 0, 5);
        a.thread_name(0, 0, "tile.0");
        let mut b = Timeline::new();
        b.span(1, 0, "mem", "y", 2, 9);
        b.thread_name(0, 0, "dup ignored");
        b.thread_name(1, 0, "mem");
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.threads[0].2, "tile.0");
    }
}

/// The span categories the simulator emits: a [`Span`] carries one as a
/// `&'static str`, so a checkpoint naming any other is corrupt.
const CATEGORIES: [&str; 5] = ["tile", "stall", "mem", "dram", "accel"];

/// A span as a checkpoint holds it: the name rendered, whichever form it
/// was recorded in, and read back as [`SpanName::Owned`].
impl Snap for Span {
    fn put(&self, e: &mut Enc) {
        (self.pid, self.tid).put(e);
        e.str(self.cat);
        e.display(&self.name);
        (self.start, self.end).put(e);
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        let (pid, tid) = Snap::get(d, what)?;
        let cat = d.bytes(what)?;
        let Some(&cat) = CATEGORIES.iter().find(|c| c.as_bytes() == cat) else {
            let cat = String::from_utf8_lossy(cat);
            let context = format!("{what}: unknown category '{cat}'");
            return Err(CkptError::Corrupt { context });
        };
        let name = SpanName::Owned(d.str(what)?);
        let (start, end) = Snap::get(d, what)?;
        Ok(Span {
            pid,
            tid,
            cat,
            name,
            start,
            end,
        })
    }
}

impl Timeline {
    /// Serializes spans and track metadata into a checkpoint section.
    pub fn encode_into(&self, e: &mut Enc) {
        e.seq::<u64, Span>(&self.spans);
        e.seq::<u32, (u32, String)>(&self.processes);
        e.seq::<u32, (u32, u32, String)>(&self.threads);
    }

    /// Decodes a timeline written by [`Timeline::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`mosaic_ckpt::CkptError`] on truncated or malformed
    /// data.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut t = Timeline::new();
        d.seq_into::<u64, Span>("timeline span", &mut t.spans)?;
        d.seq_into::<u32, (u32, String)>("timeline process", &mut t.processes)?;
        d.seq_into::<u32, (u32, u32, String)>("timeline thread", &mut t.threads)?;
        Ok(t)
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn timeline_round_trips_spans_and_tracks() {
        let mut t = Timeline::new();
        t.process_name(0, "tiles");
        t.thread_name(0, 2, "tile.2");
        t.span(0, 2, "stall", "stall", 5, 9);
        t.span(1, 0, "dram", "rd", 1, 2);
        let mut e = mosaic_ckpt::Enc::new();
        t.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = mosaic_ckpt::Dec::new(&bytes);
        let back = Timeline::decode_from(&mut d).unwrap();
        assert!(d.is_exhausted());
        assert_eq!(t, back);
    }

    /// A span's category is one of the five the simulator emits; any
    /// other is a corrupt record (and nothing is leaked to hold it).
    #[test]
    fn unknown_span_category_is_corrupt() {
        let encoded = |cat: &'static str| {
            let mut t = Timeline::new();
            t.span(0, 0, cat, "x", 1, 2);
            let mut e = Enc::new();
            t.encode_into(&mut e);
            e.into_bytes()
        };
        for cat in CATEGORIES {
            let back = Timeline::decode_from(&mut Dec::new(&encoded(cat))).unwrap();
            assert_eq!(back.spans()[0].cat, cat);
        }
        let err = Timeline::decode_from(&mut Dec::new(&encoded("gpu"))).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("gpu"), "{err}");
    }
}

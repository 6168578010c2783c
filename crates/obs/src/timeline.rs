//! Cycle-timeline span recording and Chrome `trace_event` export.
//!
//! A span is a 32-byte [`Span`] record whose name is a tag and a payload:
//! a line address, or an index into its timeline's tables of interned
//! static labels and owned names. Names are rendered only when the
//! timeline is exported, checkpointed or compared. Records sit in chunks
//! of `CHUNK` that are never reallocated, and [`Timeline::merge`] moves
//! the other timeline's chunks instead of copying them (DESIGN.md §4.5).

use std::io::{self, Write};

use mosaic_ckpt::{CkptError, Dec, Enc, Snap};

use crate::json::{escape, escape_into};

/// Records per chunk: 64 KiB.
const CHUNK: usize = 2048;

/// Digits by value, lower case.
const HEX: &[u8; 16] = b"0123456789abcdef";

mosaic_ckpt::snap_enum! {
    /// What a span shows: the five kinds of interval the simulator records.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Category {
        /// A tile's compute interval, or its whole active lifetime.
        Tile = 0,
        /// A tile's stall interval.
        Stall = 1,
        /// A memory request's lifetime.
        Mem = 2,
        /// A DRAM service interval.
        Dram = 3,
        /// An accelerator invocation.
        Accel = 4,
    }
}

impl Category {
    /// The category as Chrome's `cat` field spells it.
    pub(crate) fn as_str(self) -> &'static str {
        ["tile", "stall", "mem", "dram", "accel"][self as usize]
    }
}

/// A span's name as a recording site hands it over. The timeline keeps it
/// in this form — a label by its address, a line as a number — so
/// recording the commonest spans neither formats nor allocates.
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

impl From<&'static str> for SpanName {
    fn from(s: &'static str) -> Self {
        SpanName::Static(s)
    }
}

// What a span's payload is, by its tag: an index into the timeline's
// labels or owned names, or a line address — of a DRAM service, or of a
// request whose kind is label `k` (tag `MEM + k`).
const LABEL: u8 = 0;
const OWNED: u8 = 1;
const DRAM: u8 = 2;
const MEM: u8 = 3;

/// One half-open span `[start, end)` of simulated cycles on a
/// (process, thread) track: 32 bytes, its name held by the [`Timeline`]
/// that recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// First cycle covered by the span.
    pub start: u64,
    /// First cycle after the span.
    pub end: u64,
    /// A line address or a name-table index, as `tag` says.
    payload: u64,
    /// Track thread id within the process (tile slot, memory lane).
    pub tid: u32,
    /// Track process id (0 = tiles, 1 = memory by convention).
    pub pid: u16,
    /// Event category.
    pub cat: Category,
    tag: u8,
}

// DESIGN.md §4.5 quotes the size.
const _: () = assert!(size_of::<Span>() == 32);

/// A sink of [`Span`]s plus track-naming metadata, exportable as
/// Chrome `trace_event` JSON (the format `chrome://tracing` and
/// Perfetto load).
///
/// Simulated cycles are written as microseconds (`ts`/`dur`), so one
/// viewer microsecond is one global cycle.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// The records in recording order, each chunk allocated with room for
    /// `CHUNK` and never grown past its capacity.
    chunks: Vec<Vec<Span>>,
    /// Static labels, interned by address.
    labels: Vec<&'static str>,
    /// Names that own their text, one per span that has one.
    owned: Vec<String>,
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
        pid: u16,
        tid: u32,
        cat: Category,
        name: impl Into<SpanName>,
        start: u64,
        end: u64,
    ) {
        let end = end.max(start.saturating_add(1));
        let (tag, payload) = self.intern(name.into());
        if self.chunks.last().is_none_or(|c| c.len() == c.capacity()) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        chunk.push(Span {
            start,
            end,
            payload,
            tid,
            pid,
            cat,
            tag,
        });
    }

    /// The tag and payload of `name`. A label is found by its address,
    /// never by comparing text; a request kind past the tag's reach is
    /// rendered into an owned name.
    fn intern(&mut self, name: SpanName) -> (u8, u64) {
        let mut label = |s: &'static str| {
            let at = self.labels.iter().position(|&l| std::ptr::eq(l, s));
            at.unwrap_or_else(|| {
                self.labels.push(s);
                self.labels.len() - 1
            })
        };
        match name {
            SpanName::Static(s) => (LABEL, label(s) as u64),
            SpanName::DramLine(line) => (DRAM, line),
            SpanName::MemLine { kind, line } => match u8::try_from(label(kind)) {
                Ok(k) if k <= u8::MAX - MEM => (MEM + k, line),
                _ => self.intern(SpanName::Owned(format!("{kind} line 0x{line:x}"))),
            },
            SpanName::Owned(s) => {
                self.owned.push(s);
                (OWNED, self.owned.len() as u64 - 1)
            }
        }
    }

    /// Appends `span`'s name to `out`, its text through `text` (as it is,
    /// or JSON-escaped).
    fn push_name(&self, span: &Span, out: &mut Vec<u8>, text: impl Fn(&mut Vec<u8>, &str)) {
        let at = span.payload as usize;
        match span.tag {
            LABEL => return text(out, self.labels[at]),
            OWNED => return text(out, &self.owned[at]),
            DRAM => {}
            k => {
                text(out, self.labels[usize::from(k - MEM)]);
                out.push(b' ');
            }
        }
        push_num::<16>(out, b"line 0x", span.payload);
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

    /// Appends all spans and track names from `other`. Its chunks are
    /// moved, not copied: only their names are re-pointed at this
    /// timeline's tables.
    pub fn merge(&mut self, mut other: Timeline) {
        for span in other.chunks.iter_mut().flatten() {
            let at = span.payload as usize;
            let name = match span.tag {
                LABEL => SpanName::Static(other.labels[at]),
                OWNED => SpanName::Owned(std::mem::take(&mut other.owned[at])),
                DRAM => continue,
                k => SpanName::MemLine {
                    kind: other.labels[usize::from(k - MEM)],
                    line: span.payload,
                },
            };
            (span.tag, span.payload) = self.intern(name);
        }
        self.chunks.append(&mut other.chunks);
        for (pid, name) in other.processes {
            self.process_name(pid, name);
        }
        for (pid, tid, name) in other.threads {
            self.thread_name(pid, tid, name);
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.chunks.iter().flatten()
    }

    /// Serializes as Chrome `trace_event` JSON: an object with a
    /// `traceEvents` array of complete (`"ph":"X"`) events plus
    /// `process_name`/`thread_name` metadata (`"ph":"M"`) records.
    pub fn to_chrome_json(&self) -> String {
        // An event is about 80 bytes; reserving up front saves the copies
        // of growing a multi-megabyte buffer by doubling.
        let mut out = Vec::with_capacity(96 * self.len() + 256);
        self.write_chrome_json(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("names are UTF-8 and escaping keeps them so")
    }

    /// Writes [`Timeline::to_chrome_json`]'s document to `w` 64 KiB at a
    /// time, never holding it whole.
    ///
    /// # Errors
    ///
    /// The first error `w` returns.
    pub fn write_chrome_json(&self, w: &mut impl Write) -> io::Result<()> {
        const FLUSH: usize = 64 << 10;
        let mut out = Vec::with_capacity(FLUSH + 4096);
        out.extend_from_slice(b"{\"traceEvents\":[\n");
        let mut sep = "  ";
        let processes = self
            .processes
            .iter()
            .map(|(pid, name)| (pid, &0, "process_name", name));
        let threads = self
            .threads
            .iter()
            .map(|(pid, tid, name)| (pid, tid, "thread_name", name));
        for (pid, tid, kind, name) in processes.chain(threads) {
            let name = escape(name);
            write!(
                out,
                "{sep}{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
            sep = ",\n  ";
        }
        for span in self.spans() {
            out.extend_from_slice(sep.as_bytes());
            push_num::<10>(&mut out, b"{\"ph\":\"X\",\"pid\":", span.pid.into());
            push_num::<10>(&mut out, b",\"tid\":", span.tid.into());
            out.extend_from_slice(b",\"cat\":\"");
            out.extend_from_slice(span.cat.as_str().as_bytes());
            out.extend_from_slice(b"\",\"name\":\"");
            self.push_name(span, &mut out, escape_into);
            push_num::<10>(&mut out, b"\",\"ts\":", span.start);
            push_num::<10>(&mut out, b",\"dur\":", span.end - span.start);
            out.push(b'}');
            sep = ",\n  ";
            if out.len() >= FLUSH {
                w.write_all(&out)?;
                out.clear();
            }
        }
        out.extend_from_slice(b"\n],\"displayTimeUnit\":\"ms\"}\n");
        w.write_all(&out)
    }

    /// A span's name as text.
    fn name(&self, span: &Span) -> String {
        let mut name = Vec::new();
        self.push_name(span, &mut name, |out, s| {
            out.extend_from_slice(s.as_bytes())
        });
        String::from_utf8(name).expect("names are UTF-8")
    }
}

/// A span as a checkpoint holds it: its track `((pid, tid), category)`,
/// its name as text and its cycles.
type SpanRecord = (((u32, u32), Category), String, (u64, u64));

/// Spans and track metadata, each name as text: a decoded timeline owns
/// every name. A process id past `u16` is corrupt.
impl Snap for Timeline {
    fn put(&self, e: &mut Enc) {
        e.seq::<SpanRecord>(self.spans().map(|span| {
            let track = ((u32::from(span.pid), span.tid), span.cat);
            (track, self.name(span), (span.start, span.end))
        }));
        e.seq::<(u32, String)>(&self.processes);
        e.seq::<(u32, u32, String)>(&self.threads);
    }

    fn get(d: &mut Dec<'_>, _: &str) -> Result<Self, CkptError> {
        let mut t = Timeline::new();
        d.seq::<SpanRecord>(
            "timeline span",
            |(((pid, tid), cat), name, (start, end))| {
                let pid = u16::try_from(pid)
                    .map_err(|_| CkptError::corrupt(format!("timeline span: process id {pid}")))?;
                t.span(pid, tid, cat, SpanName::Owned(name), start, end);
                Ok(())
            },
        )?;
        d.seq_into::<(u32, String)>("timeline process", &mut t.processes)?;
        d.seq_into::<(u32, u32, String)>("timeline thread", &mut t.threads)?;
        Ok(t)
    }
}

/// Timelines are equal when they encode alike: the same spans — track,
/// category, cycles and rendered name, in order — and the same track
/// names, however either interned its names or chunked its records.
impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        let encoded = |t: &Timeline| {
            let mut e = Enc::new();
            t.put(&mut e);
            e.into_bytes()
        };
        encoded(self) == encoded(other)
    }
}

impl Eq for Timeline {}

/// Appends `prefix`, then `v` in base `RADIX` (10, or 16 in lower case):
/// a span has four numbers and an export hundreds of thousands, and going
/// through `fmt` for each is most of its time.
fn push_num<const RADIX: u64>(out: &mut Vec<u8>, prefix: &[u8], mut v: u64) {
    out.extend_from_slice(prefix);
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = HEX[(v % RADIX) as usize];
        v /= RADIX;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn encoded(t: &Timeline) -> Vec<u8> {
        let mut e = Enc::new();
        t.put(&mut e);
        e.into_bytes()
    }

    fn mem_line(kind: &'static str, line: u64) -> SpanName {
        SpanName::MemLine { kind, line }
    }

    #[test]
    fn chrome_json_parses_and_has_complete_events() {
        let mut t = Timeline::new();
        t.process_name(0, "tiles");
        t.thread_name(0, 3, "tile.3 \"core\"");
        t.span(0, 3, Category::Tile, "active", 0, 128);
        t.span(1, 0, Category::Mem, mem_line("ld", 0x40), 10, 10); // zero-length clamps to 1
        t.span(1, 1, Category::Dram, SpanName::DramLine(0), 10, 12);
        let doc = t.to_chrome_json();
        let v = parse(&doc).expect("trace must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        let meta = events[1].get("args").unwrap().get("name").unwrap();
        assert_eq!(meta.as_str(), Some("tile.3 \"core\""));
        let complete: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(complete[0].get("dur").unwrap().as_u64(), Some(128));
        assert_eq!(complete[1].get("dur").unwrap().as_u64(), Some(1));
        let name = |e: &JsonValue| e.get("name").unwrap().as_str().unwrap().to_string();
        let names: Vec<String> = complete.into_iter().map(name).collect();
        assert_eq!(names, ["active", "ld line 0x40", "line 0x0"]);
        let mut streamed = Vec::new();
        t.write_chrome_json(&mut streamed).unwrap();
        assert_eq!(streamed, doc.as_bytes());
    }

    #[test]
    fn numbers_render_as_display_does() {
        for v in [0, 9, 10, 15, 16, 65_667, u64::from(u32::MAX), u64::MAX] {
            let (mut dec, mut hex) = (Vec::new(), Vec::new());
            push_num::<10>(&mut dec, b"", v);
            push_num::<16>(&mut hex, b"0x", v);
            assert_eq!(dec, v.to_string().into_bytes());
            assert_eq!(hex, format!("{v:#x}").into_bytes());
        }
    }

    /// Spans recorded straight into one timeline, and the same spans split
    /// over three timelines (labels interned in another order, an owned
    /// name, chunks part-filled) and merged: equal, and exported alike.
    #[test]
    fn merge_moves_spans_and_keeps_their_names() {
        let record = |t: &mut Timeline, i: u64| match i % 4 {
            0 => t.span(0, 0, Category::Tile, "compute", i, i + 2),
            1 => t.span(0, 0, Category::Stall, "stall", i, i + 1),
            2 => t.span(1, 1, Category::Mem, mem_line("st", i << 6), i, i + 9),
            _ => t.span(1, 2, Category::Dram, SpanName::DramLine(i << 6), i, i + 7),
        };
        let mut direct = Timeline::new();
        let mut parts = [Timeline::new(), Timeline::new(), Timeline::new()];
        let n = CHUNK as u64;
        for i in 0..3 * n {
            record(&mut direct, i);
            record(
                &mut parts[usize::from(i >= n / 2) + usize::from(i >= 2 * n + 7)],
                i,
            );
        }
        let active = || SpanName::Owned("c0 active".into());
        direct.span(0, 5, Category::Tile, active(), 0, 9);
        parts[2].span(0, 5, Category::Tile, active(), 0, 9);
        direct.thread_name(0, 0, "tile.0");
        parts[0].thread_name(0, 0, "tile.0");
        parts[1].thread_name(0, 0, "dup ignored");
        let (mut merged, mut want) = (Timeline::new(), Timeline::new());
        merged.span(1, 1, Category::Mem, mem_line("ld", 1), 0, 1);
        want.span(1, 1, Category::Mem, mem_line("ld", 1), 0, 1);
        want.merge(direct);
        for part in parts {
            merged.merge(part);
        }
        assert_eq!(merged.len(), 3 * CHUNK + 2);
        assert_eq!(merged.threads, [(0, 0, "tile.0".to_string())]);
        assert_eq!(merged, want);
        assert_eq!(merged.to_chrome_json(), want.to_chrome_json());
    }

    /// A request kind the tag cannot reach is rendered once, into an owned
    /// name, and reads as any other.
    #[test]
    fn kinds_past_the_tag_fall_back_to_owned_names() {
        let mut t = Timeline::new();
        for k in 0..300 {
            let kind: &'static str = Box::leak(format!("k{k}").into_boxed_str());
            t.span(1, 0, Category::Mem, mem_line(kind, 0xab), 0, 1);
        }
        assert_eq!(t.labels.len(), 300);
        assert_eq!(t.owned.len(), 300 - 253);
        let doc = t.to_chrome_json();
        assert!(doc.contains("\"name\":\"k0 line 0xab\""), "{doc}");
        assert!(doc.contains("\"name\":\"k299 line 0xab\""), "{doc}");
    }

    /// A decoded timeline holds every name as owned text, and still
    /// compares equal to, and re-encodes as, the one it was written from.
    #[test]
    fn timeline_round_trips_spans_and_tracks() {
        let mut t = Timeline::new();
        t.process_name(0, "tiles");
        t.thread_name(0, 2, "tile.2");
        t.span(0, 2, Category::Stall, "stall", 5, 9);
        t.span(1, 0, Category::Dram, SpanName::DramLine(0x1c0), 1, 2);
        t.span(1, 0, Category::Mem, mem_line("atomic", 0x80), 1, 7);
        let bytes = encoded(&t);
        let mut d = Dec::new(&bytes);
        let back = Timeline::get(&mut d, "timeline").unwrap();
        assert!(d.is_exhausted());
        assert_eq!(back.owned, ["stall", "line 0x1c0", "atomic line 0x80"]);
        assert_eq!(t, back);
        assert_eq!(encoded(&back), bytes);
        let mut other = back.clone();
        other.span(0, 2, Category::Stall, "stall", 9, 10);
        assert_ne!(t, other);
    }

    /// A span's category is one of the five the simulator emits and its
    /// process id fits a `u16`; anything else is a corrupt record, found
    /// by the decoder.
    #[test]
    fn unknown_category_or_wide_pid_is_corrupt() {
        for cat in [
            Category::Tile,
            Category::Stall,
            Category::Mem,
            Category::Dram,
            Category::Accel,
        ] {
            let mut t = Timeline::new();
            t.span(0, 0, cat, "x", 1, 2);
            let back = Timeline::get(&mut Dec::new(&encoded(&t)), "timeline").unwrap();
            assert_eq!(back.spans().next().unwrap().cat, cat);
        }
        let mut t = Timeline::new();
        t.span(7, 0, Category::Mem, "x", 1, 2);
        let good = encoded(&t);
        assert_eq!(good[12], Category::Mem as u8);
        let mut gpu = good.clone();
        gpu[12] = 5;
        let err = Timeline::get(&mut Dec::new(&gpu), "timeline").unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("Category code 5"), "{err}");
        let mut wide = good;
        wide[4..8].copy_from_slice(&0x1_0007u32.to_le_bytes());
        let err = Timeline::get(&mut Dec::new(&wide), "timeline").unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    }
}

//! # mosaic-ckpt
//!
//! Deterministic checkpoint/restore for MosaicSim: a versioned,
//! little-endian binary container ([`Checkpoint`]) plus the byte codec
//! ([`Enc`]/[`Dec`]) the simulation crates use to serialize their state
//! into it.
//!
//! The container follows the `MSTR` conventions of `mosaic-trace`'s
//! on-disk format: a 4-byte magic (`MCKP`), a `u32` version, and
//! little-endian fixed-width integers throughout. The body is a sequence
//! of *named, length-prefixed sections* — one per simulator component
//! (`sched`, `mem`, `channels`, `tile.0`, …) — so readers can skip
//! sections they do not understand (the forward-compatibility policy:
//! unknown sections are ignored; incompatible changes to a known
//! section's layout bump [`VERSION`], and a reader accepts exactly its
//! own version — an older file's sections would be mis-decoded).
//!
//! The contract the simulator builds on top (see `DESIGN.md` §4.6):
//! restoring a checkpoint taken at cycle *N* and running to completion
//! produces a final report and full stats-registry dump bit-identical to
//! a straight-through run, under both the naive and fast-forward
//! schedulers.
//!
//! This crate is dependency-free; `mosaic-obs`, `mosaic-tile`,
//! `mosaic-mem`, and `mosaic-core` depend on it and implement
//! encode/restore for their own (private-field) types.

#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes identifying a MosaicSim checkpoint file.
pub const MAGIC: &[u8; 4] = b"MCKP";

/// Current checkpoint format version. Version 2 changed the `tile.<slot>`
/// section layout (dense in-flight ring, request ring); version 3 the
/// cache records inside `mem` (valid ways only).
pub const VERSION: u32 = 3;

/// Longest string the decoder will accept (tile names, section names).
const MAX_STR: u64 = 4096;

/// Fewest bytes a section occupies: the `u64` length prefixes of its name
/// and of its body.
const SECTION_MIN: usize = 16;

/// Errors from encoding, decoding, or file I/O of checkpoints.
#[derive(Debug)]
pub enum CkptError {
    /// The file does not start with the `MCKP` magic.
    BadMagic {
        /// File the bytes came from (or a label for in-memory data).
        path: String,
        /// The magic that was expected (`MCKP`).
        expected: [u8; 4],
        /// The first four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not the one this reader decodes.
    BadVersion {
        /// File the bytes came from.
        path: String,
        /// The one version this reader understands.
        supported: u32,
        /// Version found in the file.
        found: u32,
    },
    /// The data ended before a field could be read.
    Truncated {
        /// What was being decoded when the data ran out.
        context: String,
    },
    /// A field held a value no writer would produce (bad enum tag,
    /// implausible length, …).
    Corrupt {
        /// What was wrong.
        context: String,
    },
    /// The checkpoint does not match the system being restored into
    /// (different tile count, names, or missing section).
    Mismatch {
        /// What did not line up.
        context: String,
    },
    /// An underlying file operation failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path}: not a checkpoint file: expected magic {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            CkptError::BadVersion {
                path,
                supported,
                found,
            } => write!(
                f,
                "{path}: checkpoint version {found} is not supported: this build reads and \
                 writes version {supported} only"
            ),
            CkptError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CkptError::Corrupt { context } => write!(f, "checkpoint corrupt: {context}"),
            CkptError::Mismatch { context } => {
                write!(f, "checkpoint does not match this system: {context}")
            }
            CkptError::Io { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CkptError {
    /// Shorthand for a [`CkptError::Corrupt`].
    pub fn corrupt(context: impl Into<String>) -> Self {
        CkptError::Corrupt {
            context: context.into(),
        }
    }

    /// Shorthand for a [`CkptError::Mismatch`].
    pub fn mismatch(context: impl Into<String>) -> Self {
        CkptError::Mismatch {
            context: context.into(),
        }
    }
}

/// Little-endian byte encoder. All integers are fixed-width LE; strings
/// and byte blobs are `u64` length-prefixed; `f64` is written as its IEEE
/// bit pattern so round-trips are exact.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a `u64`-length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes `b` as it is (a fixed-size field whose length the reader
    /// already knows; [`Dec::raw`] reads it back).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Little-endian byte decoder over a borrowed buffer. Every read returns
/// [`CkptError::Truncated`] naming the field when the data runs out.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// How many of `count` records of at least `min_bytes` each to
    /// reserve room for: a count read from the data is a claim, and the
    /// bytes left bound how many records can really follow.
    pub fn reserve_for(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.remaining() / min_bytes.max(1))
    }

    /// Reads `n` raw bytes (a fixed-size field whose length the reader
    /// already knows).
    pub fn raw(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        if self.data.len() - self.pos < n {
            return Err(CkptError::Truncated {
                context: what.to_string(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CkptError> {
        Ok(self.raw(1, what)?[0])
    }

    /// Reads a `bool` (rejecting anything but 0/1).
    pub fn bool(&mut self, what: &str) -> Result<bool, CkptError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::corrupt(format!("{what}: bool byte {v}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, CkptError> {
        let b = self.raw(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, CkptError> {
        let b = self.raw(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and converts to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, CkptError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CkptError::corrupt(format!("{what}: {v} overflows usize")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, CkptError> {
        let b = self.raw(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads an `Option<u64>` (presence byte plus value).
    pub fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, CkptError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            v => Err(CkptError::corrupt(format!("{what}: presence byte {v}"))),
        }
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, CkptError> {
        let len = self.u64(what)?;
        if len > MAX_STR {
            return Err(CkptError::corrupt(format!(
                "{what}: string length {len} implausibly long"
            )));
        }
        let b = self.raw(len as usize, what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CkptError::corrupt(format!("{what}: invalid UTF-8")))
    }

    /// Reads a `u64`-length-prefixed byte blob.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], CkptError> {
        let len = self.u64(what)?;
        let len = usize::try_from(len)
            .map_err(|_| CkptError::corrupt(format!("{what}: blob length {len} overflows")))?;
        self.raw(len, what)
    }
}

/// A complete simulator snapshot: the global cycle it was taken at, a
/// fingerprint of the system it came from (the ordered tile names), and
/// one named byte section per component.
///
/// Sections are opaque to the container; each simulation crate encodes
/// its own state with [`Enc`] and decodes it with [`Dec`]. Restoring
/// ignores sections it does not recognize, so old readers tolerate new
/// writers that only *add* sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    cycle: u64,
    fingerprint: Vec<String>,
    sections: Vec<(String, Vec<u8>)>,
}

/// Header and section table of a checkpoint file, as returned by
/// [`Checkpoint::inspect_bytes`]: the snapshot cycle, the tile-name
/// fingerprint, and one `(section name, byte length)` pair per section.
pub type InspectSummary = (u64, Vec<String>, Vec<(String, u64)>);

impl Checkpoint {
    /// An empty checkpoint taken at `cycle` from a system whose tiles are
    /// named `fingerprint` (in slot order).
    pub fn new(cycle: u64, fingerprint: Vec<String>) -> Self {
        Checkpoint {
            cycle,
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// The global cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The ordered tile names of the originating system.
    pub fn fingerprint(&self) -> &[String] {
        &self.fingerprint
    }

    /// Adds (or replaces) the section called `name`.
    pub fn add_section(&mut self, name: &str, enc: Enc) {
        let bytes = enc.into_bytes();
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = bytes;
        } else {
            self.sections.push((name.to_string(), bytes));
        }
    }

    /// The bytes of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// The bytes of section `name`, or a [`CkptError::Mismatch`] naming it.
    pub fn require_section(&self, name: &str) -> Result<&[u8], CkptError> {
        self.section(name)
            .ok_or_else(|| CkptError::mismatch(format!("missing section '{name}'")))
    }

    /// Iterates `(name, byte length)` of every section, in file order
    /// (the view `mosaic-ckpt inspect` prints).
    pub fn section_table(&self) -> impl Iterator<Item = (&str, usize)> {
        self.sections.iter().map(|(n, b)| (n.as_str(), b.len()))
    }

    /// Serializes the container: magic, version, cycle, fingerprint,
    /// section count, then each section as (name, `u64` length, bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Writes the container to `w`, section bodies straight from where
    /// they are held.
    fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut e = Enc::new();
        e.raw(MAGIC);
        e.u32(VERSION);
        e.u64(self.cycle);
        e.u32(self.fingerprint.len() as u32);
        for name in &self.fingerprint {
            e.str(name);
        }
        e.u32(self.sections.len() as u32);
        for (name, bytes) in &self.sections {
            e.str(name);
            e.u64(bytes.len() as u64);
            w.write_all(&e.buf)?;
            w.write_all(bytes)?;
            e.buf.clear();
        }
        w.write_all(&e.buf)
    }

    /// Parses a container from `data`; `label` names the source in errors
    /// (a file path, or e.g. `"<memory>"`).
    pub fn from_bytes(data: &[u8], label: &str) -> Result<Self, CkptError> {
        let (cycle, fingerprint, mut d) = Self::read_header(data, label)?;
        let nsections = d.u32("section count")?;
        let mut sections = Vec::with_capacity(d.reserve_for(nsections as usize, SECTION_MIN));
        for _ in 0..nsections {
            let name = d.str("section name")?;
            let bytes = d.bytes(&format!("section '{name}'"))?.to_vec();
            sections.push((name, bytes));
        }
        Ok(Checkpoint {
            cycle,
            fingerprint,
            sections,
        })
    }

    /// Parses only the header (magic, version, cycle, fingerprint),
    /// returning a decoder positioned at the section count.
    fn read_header<'a>(
        data: &'a [u8],
        label: &str,
    ) -> Result<(u64, Vec<String>, Dec<'a>), CkptError> {
        let mut d = Dec::new(data);
        let magic = d.raw(4, "magic")?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(CkptError::BadMagic {
                path: label.to_string(),
                expected: *MAGIC,
                found,
            });
        }
        let version = d.u32("version")?;
        if version != VERSION {
            return Err(CkptError::BadVersion {
                path: label.to_string(),
                supported: VERSION,
                found: version,
            });
        }
        let cycle = d.u64("cycle")?;
        let ntiles = d.u32("tile count")?;
        // A name is at least its `u64` length prefix.
        let mut fingerprint = Vec::with_capacity(d.reserve_for(ntiles as usize, 8));
        for i in 0..ntiles {
            fingerprint.push(d.str(&format!("tile name {i}"))?);
        }
        Ok((cycle, fingerprint, d))
    }

    /// Reads only the header and section table of `data` — `(cycle,
    /// fingerprint, [(section name, length)])` — without copying section
    /// bodies. Backs `mosaic-ckpt inspect`.
    pub fn inspect_bytes(data: &[u8], label: &str) -> Result<InspectSummary, CkptError> {
        let (cycle, fingerprint, mut d) = Self::read_header(data, label)?;
        let nsections = d.u32("section count")?;
        let mut table = Vec::with_capacity(d.reserve_for(nsections as usize, SECTION_MIN));
        for _ in 0..nsections {
            let name = d.str("section name")?;
            let len = d.u64(&format!("section '{name}' length"))?;
            d.raw(
                usize::try_from(len).map_err(|_| {
                    CkptError::corrupt(format!("section '{name}': length {len} overflows"))
                })?,
                &format!("section '{name}' body"),
            )?;
            table.push((name, len));
        }
        Ok((cycle, fingerprint, table))
    }

    /// Writes the checkpoint to `path` without ever exposing a partial
    /// file there: the bytes go to `<path>.tmp` in the same directory,
    /// which is renamed over `path` only once it is complete and flushed.
    /// A failed write, or the process dying mid-write, leaves the previous
    /// file at `path` (the only snapshot, under periodic checkpointing) as
    /// it was. The file is not `fsync`ed — a periodic snapshot must not
    /// cost a disk barrier — so this does not cover power loss.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] naming the file the failed operation
    /// was on.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        let io = |at: &Path, source| CkptError::Io {
            path: at.display().to_string(),
            source,
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = File::create(&tmp).and_then(|f| {
            let mut w = BufWriter::new(f);
            self.write_to(&mut w)?;
            w.flush()
        });
        let saved = written
            .map_err(|e| io(&tmp, e))
            .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| io(path, e)));
        if saved.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        saved
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        let label = path.display().to_string();
        let io = |source| CkptError::Io {
            path: label.clone(),
            source,
        };
        let mut data = Vec::new();
        File::open(path).map_err(io)?.read_to_end(&mut data).map_err(io)?;
        Self::from_bytes(&data, &label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(1234, vec!["core0".into(), "core1".into()]);
        let mut e = Enc::new();
        e.u64(42);
        e.str("hello");
        e.f64(2.5);
        e.i64(-7);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        c.add_section("sched", e);
        let mut e2 = Enc::new();
        e2.bytes(&[1, 2, 3]);
        c.add_section("mem", e2);
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes, "<memory>").unwrap();
        assert_eq!(c, back);
        assert_eq!(back.cycle(), 1234);
        assert_eq!(back.fingerprint(), &["core0", "core1"]);
        let mut d = Dec::new(back.require_section("sched").unwrap());
        assert_eq!(d.u64("a").unwrap(), 42);
        assert_eq!(d.str("b").unwrap(), "hello");
        assert_eq!(d.f64("c").unwrap(), 2.5);
        assert_eq!(d.i64("d").unwrap(), -7);
        assert_eq!(d.opt_u64("e").unwrap(), Some(9));
        assert_eq!(d.opt_u64("f").unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn inspect_reads_table_without_bodies() {
        let bytes = sample().to_bytes();
        let (cycle, fp, table) = Checkpoint::inspect_bytes(&bytes, "<memory>").unwrap();
        assert_eq!(cycle, 1234);
        assert_eq!(fp.len(), 2);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, "sched");
        assert_eq!(table[1], ("mem".to_string(), 11));
    }

    #[test]
    fn wrong_magic_names_expected_and_found() {
        let mut bytes = sample().to_bytes();
        bytes[0..4].copy_from_slice(b"NOPE");
        let err = Checkpoint::from_bytes(&bytes, "x.mckpt").unwrap_err();
        match err {
            CkptError::BadMagic {
                path,
                expected,
                found,
            } => {
                assert_eq!(path, "x.mckpt");
                assert_eq!(&expected, MAGIC);
                assert_eq!(&found, b"NOPE");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn future_version_is_rejected_with_both_versions() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes, "f").unwrap_err();
        match err {
            CkptError::BadVersion {
                supported, found, ..
            } => {
                assert_eq!(supported, VERSION);
                assert_eq!(found, 99);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    /// A file of an older version has other section layouts: every entry
    /// point must refuse it rather than decode its bytes as the current
    /// layout.
    #[test]
    fn older_version_is_rejected_by_every_reader() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&(VERSION - 1).to_le_bytes());
        let path = std::env::temp_dir().join("mosaic_ckpt_old_version.mckpt");
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            Checkpoint::from_bytes(&bytes, "old").unwrap_err(),
            Checkpoint::inspect_bytes(&bytes, "old").unwrap_err(),
            Checkpoint::load(&path).unwrap_err(),
        ];
        std::fs::remove_file(&path).ok();
        for err in errors {
            match &err {
                CkptError::BadVersion {
                    supported, found, ..
                } => assert_eq!((*supported, *found), (VERSION, VERSION - 1)),
                other => panic!("wrong error: {other}"),
            }
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {}", VERSION - 1)), "{msg}");
            assert!(msg.contains(&format!("version {VERSION}")), "{msg}");
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut], "t").unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::BadMagic { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    /// Counts come from the file; the reader must find out that nothing
    /// follows them, not reserve room for four billion entries first.
    #[test]
    fn oversized_counts_are_truncation_not_allocation() {
        let mut header = Enc::new();
        header.raw(MAGIC);
        header.u32(VERSION);
        header.u64(7);
        let mut tiles = header.into_bytes();
        let mut sections = tiles.clone();
        tiles.extend(u32::MAX.to_le_bytes());
        assert_eq!(tiles.len(), 20);
        sections.extend(0u32.to_le_bytes());
        sections.extend(u32::MAX.to_le_bytes());

        let path = std::env::temp_dir().join("mosaic_ckpt_oversized_count.mckpt");
        for bytes in [tiles, sections] {
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                Checkpoint::from_bytes(&bytes, "crafted").unwrap_err(),
                Checkpoint::inspect_bytes(&bytes, "crafted").unwrap_err(),
                Checkpoint::load(&path).unwrap_err(),
            ];
            for err in errors {
                assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reserve_for_is_bounded_by_the_bytes_left() {
        let d = Dec::new(&[0; 40]);
        assert_eq!(d.reserve_for(3, 8), 3);
        assert_eq!(d.reserve_for(usize::MAX, 8), 5);
        assert_eq!(d.reserve_for(usize::MAX, 0), 40);
    }

    /// `save` replaces the file at `path` in one step: the previous
    /// snapshot is there until the new one is complete, and no `.tmp` is
    /// left behind.
    #[test]
    fn save_over_an_existing_checkpoint_is_atomic() {
        let path = std::env::temp_dir().join("mosaic_ckpt_atomic_save.mckpt");
        let tmp = std::env::temp_dir().join("mosaic_ckpt_atomic_save.mckpt.tmp");
        let first = sample();
        first.save(&path).unwrap();
        let mut second = sample();
        second.add_section("extra", Enc::new());
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        assert!(!tmp.exists(), "save left {} behind", tmp.display());

        // A write that cannot happen (the temporary's name is taken by a
        // directory) reports the file it failed on and leaves the
        // previous snapshot as it was.
        std::fs::create_dir(&tmp).unwrap();
        let err = first.save(&path).unwrap_err();
        std::fs::remove_dir(&tmp).unwrap();
        match &err {
            CkptError::Io { path: named, .. } => {
                assert!(named.contains("mosaic_ckpt_atomic_save.mckpt"), "{named}")
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("mosaic_ckpt_test.mckpt");
        let c = sample();
        c.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(c, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_error_names_the_path() {
        let err = Checkpoint::load(Path::new("/nonexistent/nope.mckpt")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent/nope.mckpt"), "{msg}");
    }

    #[test]
    fn missing_section_is_a_mismatch() {
        let c = sample();
        let err = c.require_section("tile.7").unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }));
        assert!(err.to_string().contains("tile.7"));
    }

    #[test]
    fn add_section_replaces_by_name() {
        let mut c = Checkpoint::new(0, vec![]);
        let mut e = Enc::new();
        e.u8(1);
        c.add_section("s", e);
        let mut e = Enc::new();
        e.u8(2);
        c.add_section("s", e);
        assert_eq!(c.section("s"), Some(&[2u8][..]));
        assert_eq!(c.section_table().count(), 1);
    }

    #[test]
    fn bool_and_presence_bytes_reject_garbage() {
        let mut d = Dec::new(&[7]);
        assert!(matches!(d.bool("b"), Err(CkptError::Corrupt { .. })));
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.opt_u64("o"), Err(CkptError::Corrupt { .. })));
    }
}

//! # mosaic-ckpt
//!
//! Deterministic checkpoint/restore for MosaicSim: a versioned,
//! little-endian binary container ([`Checkpoint`]) plus the byte codec
//! ([`Enc`]/[`Dec`]) the simulation crates use to serialize their state
//! into it.
//!
//! The container is a 4-byte magic (`MCKP`), a `u32` version, and
//! little-endian fixed-width integers throughout — the conventions
//! `mosaic-trace`'s on-disk format (`MSTR`) follows, since this codec
//! writes and reads it. The body is a sequence
//! of *named, length-prefixed sections* — one per simulator component
//! (`sched`, `mem`, `channels`, `tile.0`, …) — so readers can skip
//! sections they do not understand (the forward-compatibility policy:
//! unknown sections are ignored; incompatible changes to a known
//! section's layout bump `VERSION`, and a reader accepts exactly its
//! own version — an older file's sections would be mis-decoded).
//!
//! The contract the simulator builds on top (see `DESIGN.md` §4.6):
//! restoring a checkpoint taken at cycle *N* and running to completion
//! produces a final report and full stats-registry dump bit-identical to
//! a straight-through run, under both the naive and fast-forward
//! schedulers.
//!
//! This crate is dependency-free; `mosaic-obs`, `mosaic-tile`,
//! `mosaic-mem`, and `mosaic-core` depend on it and declare the codecs of
//! their own (private-field) types through [`Snap`]: one field list per
//! record, from which both directions follow. `mosaic-trace` depends on
//! it too, and writes and reads its `MSTR` files with [`Enc`]/[`Dec`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes identifying a MosaicSim checkpoint file.
pub(crate) const MAGIC: &[u8; 4] = b"MCKP";

/// Current checkpoint format version. Version 2 changed the `tile.<slot>`
/// layout (dense rings), 3 the cache records in `mem` (valid ways only), 4
/// dropped the counters nothing read, 5 the counts the rest of a snapshot
/// determines (a tile's busy units and live DBBs, a cache's accesses, …),
/// 6 the configuration echoes the header's per-part fingerprints replace,
/// 7 wrote every count and string length as a `u32`, 8 dropped a cache's
/// valid-way count, which its validity bitmap gives.
pub(crate) const VERSION: u32 = 8;

/// Longest string the decoder will accept (tile names, section names).
const MAX_STR: u32 = 4096;

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
    /// The checkpoint does not match the system being restored into (a
    /// part's fingerprint differs, or a section is missing).
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

/// Little-endian byte encoder. All integers are fixed-width LE; every
/// count of items and every string length is a `u32` ([`Enc::seq`],
/// [`Enc::str`]); `f64` is written as its IEEE bit pattern so round-trips
/// are exact.
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
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
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
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i64`, little-endian two's complement.
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a UTF-8 string behind its `u32` length ([`Dec::str`] reads
    /// it back).
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("a string's length fits a u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes `b` as it is (a fixed-size field whose length the reader
    /// already knows; [`Dec::raw`] reads it back).
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes `items` behind their `u32` count ([`Dec::seq`] reads them
    /// back). The count goes in once they are written: any iterator will do.
    pub fn seq<T: Snap>(&mut self, items: impl IntoIterator<Item = impl Borrow<T>>) {
        let at = self.buf.len();
        self.u32(0);
        let mut count = 0u32;
        for item in items {
            item.borrow().put(self);
            count = count.checked_add(1).expect("a sequence's count fits a u32");
        }
        self.buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
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
    pub(crate) fn usize(&mut self, what: &str) -> Result<usize, CkptError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CkptError::corrupt(format!("{what}: {v} overflows usize")))
    }

    /// Reads a little-endian `i64`.
    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, CkptError> {
        let b = self.raw(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a string written by [`Enc::str`].
    pub fn str(&mut self, what: &str) -> Result<String, CkptError> {
        let len = self.u32(what)?;
        if len > MAX_STR {
            return Err(CkptError::corrupt(format!(
                "{what}: string length {len} implausibly long"
            )));
        }
        let b = self.raw(len as usize, what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CkptError::corrupt(format!("{what}: invalid UTF-8")))
    }

    /// Reads a sequence written by [`Enc::seq`], handing each item to
    /// `each` as it is decoded: nothing is sized from the count, so a
    /// crafted one costs nothing before the data runs out, and `each` can
    /// check an item against those before it while it can still name it.
    pub fn seq<T: Snap>(
        &mut self,
        what: &str,
        mut each: impl FnMut(T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        for _ in 0..self.u32(what)? {
            each(T::get(self, what)?)?;
        }
        Ok(())
    }

    /// Reads a sequence written by [`Enc::seq`] onto the end of `into`.
    pub fn seq_into<T: Snap>(
        &mut self,
        what: &str,
        into: &mut impl Extend<T>,
    ) -> Result<(), CkptError> {
        self.seq::<T>(what, |item| {
            into.extend([item]);
            Ok(())
        })
    }
}

/// A value with one checkpoint encoding: [`Snap::get`] reads back what
/// [`Snap::put`] wrote. Scalars, `String`, `Option`, `Vec`, arrays and
/// small tuples have theirs here; [`snap_record!`] and [`snap_enum!`]
/// declare a component's own, so that neither direction can be written
/// without the other.
pub trait Snap: Sized {
    /// Appends the value to `e`.
    fn put(&self, e: &mut Enc);

    /// Reads one value; `what` names it in the error when the data is
    /// short or wrong, and is only formatted then.
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError>;
}

macro_rules! snap_scalar {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn put(&self, e: &mut Enc) {
                e.$t(*self);
            }
            fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
                d.$t(what)
            }
        }
    )*};
}
snap_scalar!(u8, u32, u64, usize, i64, f64, bool);

impl Snap for String {
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        d.str(what)
    }
}

/// A presence byte, then the value if there is one.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        d.bool(what)?.then(|| T::get(d, what)).transpose()
    }
}

/// A sequence: its `u32` count, then the items.
impl<T: Snap> Snap for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.seq::<T>(self);
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        let mut items = Vec::new();
        d.seq_into(what, &mut items)?;
        Ok(items)
    }
}

macro_rules! snap_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)*
            }
            fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
                Ok(($($t::get(d, what)?,)*))
            }
        }
    };
}
snap_tuple!(A 0, B 1);
snap_tuple!(A 0, B 1, C 2);

/// The elements in order, with no count: the type fixes it.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn put(&self, e: &mut Enc) {
        self.iter().for_each(|v| v.put(e));
    }
    fn get(d: &mut Dec<'_>, what: &str) -> Result<Self, CkptError> {
        let items = (0..N).map(|_| T::get(d, what)).collect::<Result<Vec<T>, _>>()?;
        Ok(items.try_into().unwrap_or_else(|_| unreachable!("{N} items")))
    }
}

/// Declares a record — a struct whose every field is a [`Snap`] — and its
/// codec from one field list: fields are written in the order listed, and
/// one added to the list is in both directions or in neither.
#[macro_export]
macro_rules! snap_record {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }
        impl $crate::Snap for $name {
            fn put(&self, e: &mut $crate::Enc) {
                $($crate::Snap::put(&self.$field, e);)*
            }
            fn get(d: &mut $crate::Dec<'_>, _: &str) -> Result<Self, $crate::CkptError> {
                $(let $field = $crate::Snap::get(d, stringify!($name.$field))?;)*
                Ok($name { $($field),* })
            }
        }
    };
}

/// Declares a field-less enum and its one-byte codes; a byte that is no
/// variant's code reads back as [`CkptError::Corrupt`].
#[macro_export]
macro_rules! snap_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $code:literal),* $(,)?
    }) => {
        $(#[$meta])* $vis enum $name {
            $($(#[$vmeta])* $variant = $code),*
        }
        impl $crate::Snap for $name {
            fn put(&self, e: &mut $crate::Enc) {
                e.u8(*self as u8);
            }
            fn get(d: &mut $crate::Dec<'_>, what: &str) -> Result<Self, $crate::CkptError> {
                match d.u8(what)? {
                    $($code => Ok($name::$variant),)*
                    v => Err($crate::CkptError::corrupt(format!(
                        "{what}: {} code {v}", stringify!($name)
                    ))),
                }
            }
        }
    };
}

/// Gives `$ty` a `put_fields`/`get_fields` pair over the listed `self.`
/// fields, in that order: the scalar part of a component that restores in
/// place, beside the sequences it reads with checks.
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident: $($field:ident),* $(,)?) => {
        impl $ty {
            fn put_fields(&self, e: &mut $crate::Enc) {
                $($crate::Snap::put(&self.$field, e);)*
            }
            fn get_fields(&mut self, d: &mut $crate::Dec<'_>) -> Result<(), $crate::CkptError> {
                $(self.$field = $crate::Snap::get(d, stringify!($ty.$field))?;)*
                Ok(())
            }
        }
    };
}

/// A complete simulator snapshot: the global cycle it was taken at, the
/// parts of the system it came from, each named with a fingerprint of its
/// configuration, and one named byte section per component.
///
/// Sections are opaque to the container; each simulation crate encodes
/// its own state with [`Enc`] and decodes it with [`Dec`]. Restoring
/// ignores sections it does not recognize, so old readers tolerate new
/// writers that only *add* sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    cycle: u64,
    parts: Vec<(String, u64)>,
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint taken at `cycle` from a system made of `parts`:
    /// each part's name and the fingerprint of its configuration.
    pub fn new(cycle: u64, parts: Vec<(String, u64)>) -> Self {
        Checkpoint {
            cycle,
            parts,
            sections: Vec::new(),
        }
    }

    /// The global cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The originating system's parts, in order: each one's name and
    /// configuration fingerprint.
    pub fn parts(&self) -> &[(String, u64)] {
        &self.parts
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

    /// Serializes the container: magic, version, cycle, parts, section
    /// count, then each section as (name, `u64` byte length, bytes).
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
        e.seq::<(String, u64)>(&self.parts);
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
        let mut parts = Vec::new();
        d.seq_into::<(String, u64)>("part", &mut parts)?;
        let mut sections = Vec::new();
        for _ in 0..d.u32("section count")? {
            let name = d.str("section name")?;
            let what = format!("section '{name}'");
            let len = d.u64(&what)?;
            let len = usize::try_from(len)
                .map_err(|_| CkptError::corrupt(format!("{what}: length {len} overflows")))?;
            sections.push((name, d.raw(len, &what)?.to_vec()));
        }
        Ok(Checkpoint {
            cycle,
            parts,
            sections,
        })
    }

    /// Writes the checkpoint to `path` without ever exposing a partial
    /// file there: the bytes go to `<path>.tmp` in the same directory,
    /// which takes `path`'s name only once it is complete and flushed. A
    /// failed write, or the process dying mid-write, leaves the previous
    /// file at `path` (the only snapshot, under periodic checkpointing) as
    /// it was. The file is not `fsync`ed, so this does not cover power
    /// loss.
    ///
    /// A first save renames the temporary into place. Over an existing
    /// regular file, the two names are swapped in one step (Linux's
    /// `renameat2` with `RENAME_EXCHANGE`) and the temporary, which now
    /// holds the old snapshot, is unlinked. Under its default
    /// `auto_da_alloc`, ext4 makes a rename over an existing file wait on
    /// a disk write (58–96 ms a save on a virtual disk, whatever the
    /// size), and a periodic snapshot must not cost a disk barrier. Where
    /// the swap is unavailable, or `path` is not a regular file, it is a
    /// rename.
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
        let saved = written.map_err(|e| io(&tmp, e)).and_then(|()| {
            let replaces_file = std::fs::symlink_metadata(path).is_ok_and(|m| m.is_file());
            if replaces_file && exchange(&tmp, path).is_ok() {
                std::fs::remove_file(&tmp).map_err(|e| io(&tmp, e))
            } else {
                std::fs::rename(&tmp, path).map_err(|e| io(path, e))
            }
        });
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

/// Swaps the names `a` and `b` in one step; both must exist. Callers
/// fall back to a rename on any error, so a filesystem or kernel without
/// `RENAME_EXCHANGE` (`EINVAL`, `ENOSYS`) costs only the failed call.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn exchange(a: &Path, b: &Path) -> std::io::Result<()> {
    use std::ffi::{c_char, c_int, c_uint, CString};
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        // glibc 2.28 and later.
        fn renameat2(
            olddirfd: c_int,
            oldpath: *const c_char,
            newdirfd: c_int,
            newpath: *const c_char,
            flags: c_uint,
        ) -> c_int;
    }
    const AT_FDCWD: c_int = -100;
    const RENAME_EXCHANGE: c_uint = 1 << 1;
    let a = CString::new(a.as_os_str().as_bytes())?;
    let b = CString::new(b.as_os_str().as_bytes())?;
    // SAFETY: `renameat2` is declared with its glibc signature, and both
    // paths are NUL-terminated strings it only reads, alive for the call.
    let rc = unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), RENAME_EXCHANGE) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Elsewhere there is no exchange, and `save` renames.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn exchange(_: &Path, _: &Path) -> std::io::Result<()> {
    Err(std::io::ErrorKind::Unsupported.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(1234, vec![("core0".into(), 7), ("memory".into(), u64::MAX)]);
        let mut e = Enc::new();
        e.u64(42);
        e.str("hello");
        e.f64(2.5);
        e.i64(-7);
        Some(9u64).put(&mut e);
        None::<u64>.put(&mut e);
        c.add_section("sched", e);
        let mut e2 = Enc::new();
        e2.seq::<u8>([1u8, 2, 3]);
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
        assert_eq!(back.parts(), &[("core0".into(), 7), ("memory".into(), u64::MAX)]);
        let mut d = Dec::new(back.require_section("sched").unwrap());
        assert_eq!(d.u64("a").unwrap(), 42);
        assert_eq!(d.str("b").unwrap(), "hello");
        assert_eq!(d.f64("c").unwrap(), 2.5);
        assert_eq!(d.i64("d").unwrap(), -7);
        assert_eq!(Option::<u64>::get(&mut d, "e").unwrap(), Some(9));
        assert_eq!(Option::<u64>::get(&mut d, "f").unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn section_table_lists_names_and_lengths_in_file_order() {
        let back = Checkpoint::from_bytes(&sample().to_bytes(), "<memory>").unwrap();
        let table: Vec<(&str, usize)> = back.section_table().collect();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, "sched");
        assert_eq!(table[1], ("mem", 7));
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

    /// DESIGN.md §4.6 and the CI comments quote the version by number.
    #[test]
    fn the_format_is_version_8() {
        assert_eq!(VERSION, 8);
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
                Checkpoint::load(&path).unwrap_err(),
            ];
            for err in errors {
                assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
            }
        }
        std::fs::remove_file(&path).ok();
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

    /// A save onto a directory is a plain rename, which fails naming the
    /// path: swapping names would succeed and move the directory to the
    /// temporary's name.
    #[test]
    fn save_onto_a_directory_fails_and_leaves_it_in_place() {
        let dir = std::env::temp_dir().join(format!("mosaic_ckpt_onto_dir_{}", std::process::id()));
        let inside = dir.join("kept");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&inside, b"contents").unwrap();
        let err = sample().save(&dir).unwrap_err();
        let tmp = PathBuf::from(format!("{}.tmp", dir.display()));
        let (kept, tmp_left) = (std::fs::read(&inside), tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&tmp).ok();
        match &err {
            CkptError::Io { path, .. } => assert_eq!(path, &dir.display().to_string()),
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(kept.unwrap(), b"contents");
        assert!(!tmp_left, "save left {} behind", tmp.display());
    }

    /// The first save renames into a fresh name, the second swaps names
    /// with the first's file: one file is left, and it is the second.
    #[test]
    fn repeated_saves_leave_one_file_holding_the_last() {
        let dir = std::env::temp_dir().join(format!("mosaic_ckpt_repeated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.mckpt");
        let mut second = sample();
        second.add_section("extra", Enc::new());
        sample().save(&path).unwrap();
        second.save(&path).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        let loaded = Checkpoint::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(names, ["run.mckpt"]);
        assert_eq!(loaded.unwrap(), second);
    }

    /// Where `save` swaps names, the swap works: a failing `exchange`
    /// would fall back to the rename every time, unseen by the tests above.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn exchange_swaps_two_files() {
        let dir = std::env::temp_dir().join(format!("mosaic_ckpt_exchange_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::write(&a, b"first").unwrap();
        std::fs::write(&b, b"second").unwrap();
        let swapped = exchange(&a, &b).map(|()| (std::fs::read(&a), std::fs::read(&b)));
        std::fs::remove_dir_all(&dir).ok();
        let (a, b) = swapped.unwrap();
        assert_eq!((a.unwrap(), b.unwrap()), (b"second".to_vec(), b"first".to_vec()));
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

    snap_record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Entry {
            id: u64,
            kind: Kind,
            slot: Option<(u64, u8, Kind)>,
            name: String,
        }
    }

    snap_enum! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Read = 0,
            Write = 1,
        }
    }

    #[derive(Debug, Default, PartialEq)]
    struct Counters {
        label: &'static str,
        hits: u64,
        ratio: f64,
        last: Option<u64>,
        depth: usize,
    }
    snap_fields!(Counters: hits, ratio, last, depth);

    fn entries() -> Vec<Entry> {
        let entry = |id, kind, slot: Option<u8>| Entry {
            id,
            kind,
            slot: slot.map(|size| (id << 8, size, Kind::Write)),
            name: format!("e{id}"),
        };
        vec![entry(1, Kind::Read, None), entry(7, Kind::Write, Some(4))]
    }

    /// A declared record, enum and field list read back what they wrote,
    /// in the layout the hand-written codecs had: fields in order, a
    /// presence byte before an `Option`, one byte per enum.
    #[test]
    fn declared_codecs_round_trip_in_the_v3_layout() {
        let mut e = Enc::new();
        entries()[1].put(&mut e);
        let mut by_hand = Enc::new();
        by_hand.u64(7);
        by_hand.u8(1);
        by_hand.u8(1);
        by_hand.u64(7 << 8);
        by_hand.u8(4);
        by_hand.u8(1);
        by_hand.str("e7");
        assert_eq!(e.buf, by_hand.buf);
        let back = Entry::get(&mut Dec::new(&e.buf), "entry").unwrap();
        assert_eq!(back, entries()[1]);

        let counters = Counters {
            label: "kept",
            hits: 3,
            ratio: 0.25,
            last: Some(9),
            depth: 12,
        };
        let mut e = Enc::new();
        counters.put_fields(&mut e);
        assert_eq!(e.len(), 8 + 8 + 9 + 8);
        let mut back = Counters {
            label: "kept",
            ..Counters::default()
        };
        back.get_fields(&mut Dec::new(&e.buf)).unwrap();
        assert_eq!(back, counters);
    }

    /// Errors name the declared field, and a byte that is no variant's
    /// code and a presence byte that is no bool are corrupt, not a panic.
    #[test]
    fn declared_codecs_reject_damage_by_name() {
        let mut e = Enc::new();
        entries()[0].put(&mut e);
        let err = Entry::get(&mut Dec::new(&e.buf[..8]), "entry").unwrap_err();
        assert!(
            matches!(&err, CkptError::Truncated { context } if context == "Entry.kind"),
            "{err}"
        );
        let mut bad = e.buf.clone();
        bad[8] = 2;
        let err = Entry::get(&mut Dec::new(&bad), "entry").unwrap_err();
        assert!(err.to_string().contains("Entry.kind: Kind code 2"), "{err}");
        bad[8..10].copy_from_slice(&[0, 5]);
        let err = Entry::get(&mut Dec::new(&bad), "entry").unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    }

    /// Sequences carry a `u32` count, whatever iterator wrote them; a
    /// reader hands items over one by one, stops at the first its closure
    /// refuses, and finds a crafted count truncated.
    #[test]
    fn sequences_in_both_widths() {
        let mut e = Enc::new();
        e.seq::<Entry>(&entries());
        e.seq::<u64>((0..5u64).filter(|v| v % 2 == 0));
        assert_eq!(e.buf[..4], 2u32.to_le_bytes());
        let mut d = Dec::new(&e.buf);
        let mut back = Vec::new();
        d.seq_into::<Entry>("entries", &mut back).unwrap();
        assert_eq!(back, entries());
        let rest = &e.buf[e.buf.len() - d.remaining()..];
        assert_eq!(Vec::<u64>::get(&mut Dec::new(rest), "evens").unwrap(), [0, 2, 4]);
        let mut seen = 0;
        let err = d.seq::<u64>("evens", |v| {
            seen += 1;
            if v == 2 {
                return Err(CkptError::corrupt("no twos"));
            }
            Ok(())
        });
        assert!(matches!(err, Err(CkptError::Corrupt { .. })));
        assert_eq!(seen, 2);

        let mut crafted = Enc::new();
        crafted.u32(u32::MAX);
        crafted.u64(1);
        let mut items = Vec::new();
        let err = Dec::new(&crafted.buf)
            .seq_into::<u64>("crafted", &mut items)
            .unwrap_err();
        assert!(matches!(err, CkptError::Truncated { .. }), "{err}");
        assert_eq!(items, [1]);
    }

    #[test]
    fn bool_and_presence_bytes_reject_garbage() {
        let mut d = Dec::new(&[7]);
        assert!(matches!(d.bool("b"), Err(CkptError::Corrupt { .. })));
        let presence = Option::<u64>::get(&mut Dec::new(&[9]), "o");
        assert!(matches!(presence, Err(CkptError::Corrupt { .. })));
    }
}

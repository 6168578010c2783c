//! On-disk trace format: traces are generated once and replayed across
//! many system configurations (paper §II-A, §VI-B). `MSTR` version 2, laid
//! out in DESIGN.md §4.1, is written and read through `mosaic-ckpt`'s
//! [`Enc`]/[`Dec`], and a [`KernelTrace`] holds its file's bytes: writing
//! one is a copy, reading one a check of its headers.

use std::io::{self, ErrorKind::InvalidData, ErrorKind::UnexpectedEof, Read, Write};
use std::{ops::RangeInclusive, path::Path};

use mosaic_ckpt::{CkptError, CkptError::Corrupt, CkptError::Truncated, Dec, Enc, Snap};

use super::*;

const MAGIC: &[u8; 4] = b"MSTR";
const VERSION: u32 = 2;

/// Encodes what `tiles` recorded as an `MSTR` file, letting each chunk of a
/// column go once it is written, in a buffer shrunk to the file's size.
pub(crate) fn encode(tiles: Vec<Recording>) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(MAGIC);
    (VERSION, tiles.len() as u32).put(&mut e);
    for t in tiles {
        (t.func.is_some(), t.func.map_or(0, |f| f.0)).put(&mut e);
        let widest = t.path.iter().flatten().copied().max().unwrap_or(0);
        put_column(&mut e, t.path, 0, width_for(widest.into()).max(1));
        e.u32(t.mem.iter().filter(|s| !s.0.is_empty()).count() as u32);
        for (inst, (addrs, size, write)) in t.mem.into_iter().enumerate() {
            let Some(lo) = addrs.iter().flatten().copied().min() else {
                continue;
            };
            let width = width_for(addrs.iter().flatten().max().map_or(0, |hi| hi - lo));
            // Lowered where `lo` is so close to the top of the address space
            // that a reader could not tell that no offset carries past it.
            let base = lo.min(u64::MAX - max_of_width(width));
            (inst as u32, (size, write, base)).put(&mut e);
            put_column(&mut e, addrs, base, width);
        }
        let calls = t.calls.iter();
        e.seq::<Call>(calls.map(|c| (c.inst.0, c.accel.name().to_string(), c.args.clone())));
        e.u64(t.retired);
    }
    let mut bytes = e.into_bytes();
    bytes.shrink_to_fit();
    bytes
}

/// Writes `chunks` as a column of `width`-byte values less `base`, through
/// a buffer on the stack: each value is stored as 8 bytes, `width` past the
/// last one, whose bytes beyond `width` are zero and the next value's to
/// overwrite. Each chunk goes once it is written.
fn put_column<T: Into<u64> + Copy>(e: &mut Enc, chunks: Chunks<T>, base: u64, width: u8) {
    (chunks.iter().map(Vec::len).sum::<usize>() as u64, width).put(e);
    let (w, mut packed) = (usize::from(width), [0; 4096 + 8]);
    for chunk in chunks {
        for values in chunk.chunks(4096 / w.max(1)) {
            for (i, &v) in values.iter().enumerate() {
                packed[w * i..][..8].copy_from_slice(&(v.into() - base).to_le_bytes());
            }
            e.raw(&packed[..w * values.len()]);
        }
    }
}

/// `Ok` if `ok`, else `InvalidData` saying `what`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), CkptError> {
    ok.then_some(()).ok_or_else(|| CkptError::corrupt(what()))
}

/// Reads a column of at most `max` values, each of a width in `w`, from
/// a file `end` bytes long.
fn column(d: &mut Dec, end: usize, max: u64, w: RangeInclusive<u8>) -> Result<Column, CkptError> {
    let (len, width) = <(u64, u8)>::get(d, "column header")?;
    let size = len.checked_mul(width.into());
    let size = size.filter(|_| len <= max && w.contains(&width));
    let absurd = || CkptError::corrupt(format!("a column of {len} {width}-byte values"));
    let (size, start) = (size.ok_or_else(absurd)?, end - d.remaining());
    d.raw(size.try_into().unwrap_or(usize::MAX), "column")?;
    let len = len as usize;
    Ok(Column { width, len, start })
}

/// An accelerator call as the file holds it: its instruction, the
/// accelerator's name and the arguments.
type Call = (u32, String, Vec<i64>);

/// A static instruction id, refused where no real function reaches it:
/// streams are stored in tables indexed by it.
fn inst(id: u32) -> Result<InstId, CkptError> {
    ensure(id < 1 << 20, || format!("instruction id {id} too large")).map(|()| InstId(id))
}

impl KernelTrace {
    /// Reads `bytes` as an `MSTR` file, checking every header and sizing
    /// nothing from a count: the trace holds `bytes`, its columns ranges.
    pub(crate) fn index(bytes: Vec<u8>) -> Result<KernelTrace, CkptError> {
        let bytes = Arc::new(bytes);
        let (mut d, end) = (Dec::new(&bytes), bytes.len());
        let magic = d.raw(4, "magic")?;
        ensure(magic == MAGIC, || {
            let found = magic.escape_ascii();
            format!("not a MosaicSim trace file: expected magic \"MSTR\", found \"{found}\"")
        })?;
        let version = d.u32("version")?;
        ensure(version == VERSION, || {
            format!("unsupported trace version {version}: this build reads version {VERSION} only")
        })?;
        let count = d.u32("tile count")?;
        ensure(count <= 1 << 16, || format!("{count} tiles: too many"))?;
        let (mut tiles, mut size) = (Vec::new(), TraceSizeReport::default());
        for _ in 0..count {
            let mut t = TileTrace::default();
            let (has_func, func) = <(bool, u32)>::get(&mut d, "tile function")?;
            t.func = has_func.then_some(FuncId(func));
            let mut at = d.remaining();
            let mut read_since_last =
                |d: &Dec| (std::mem::replace(&mut at, d.remaining()) - d.remaining()) as u64;
            t.path = column(&mut d, end, u64::MAX, 1..=4)?;
            size.control_flow_bytes += read_since_last(&d);
            for _ in 0..d.u32("stream count")? {
                let s = slot_mut(&mut t.mem, inst(d.u32("instruction id")?)?.index());
                (s.size, s.write, s.base) = Snap::get(&mut d, "stream")?;
                // A `CursorPos` counts the entries it consumed in a `u32`.
                s.offsets = column(&mut d, end, u32::MAX.into(), 0..=8)?;
                let wraps = s.base.checked_add(max_of_width(s.offsets.width)).is_none();
                ensure(!wraps, || format!("stream base {:#x} overflows", s.base))?;
            }
            size.memory_bytes += read_since_last(&d);
            d.seq::<Call>("accelerator call", |(inst_id, name, args)| {
                let inst = inst(inst_id)?;
                let accel = AccelOp::from_name(&name);
                let accel = accel
                    .ok_or_else(|| CkptError::corrupt(format!("unknown accelerator `{name}`")))?;
                let call = AccelInvocation { inst, accel, args };
                slot_mut(&mut t.accel, inst.index()).push(call.clone());
                t.accel_order.push(call);
                Ok(())
            })?;
            size.accel_bytes += read_since_last(&d);
            (t.bytes, t.retired) = (Arc::clone(&bytes), d.u64("retired")?);
            tiles.push(Arc::new(t));
        }
        ensure(d.is_exhausted(), || "bytes past the last tile".into())?;
        Ok(KernelTrace { bytes, tiles, size })
    }

    /// Storage accounting, mirroring the paper's §VI-B discussion: the bytes
    /// of the file each component takes, headers included, as read. The
    /// file is these, 12 bytes and 13 more per tile of framing.
    pub fn size_report(&self) -> TraceSizeReport {
        self.size
    }

    /// Writes the trace's `MSTR` file to `w`, propagating its errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.bytes)
    }

    /// Reads `r` to its end as an `MSTR` file: `InvalidData` if it is not
    /// one, `UnexpectedEof` if it is short, or the reader's own error.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<KernelTrace> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        KernelTrace::index(bytes).map_err(|e| match e {
            Truncated { context } => io::Error::new(UnexpectedEof, context + " cut short"),
            Corrupt { context } => io::Error::new(InvalidData, context),
            e => io::Error::new(InvalidData, e.to_string()),
        })
    }

    /// Saves the trace to `path`, propagating filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.bytes.as_slice())
    }

    /// Loads a trace from `path`; an error names the path, and calls a
    /// short file truncated.
    pub fn load(path: impl AsRef<Path>) -> io::Result<KernelTrace> {
        let path = path.as_ref();
        let read = std::fs::File::open(path).and_then(|mut f| KernelTrace::read_from(&mut f));
        read.map_err(|e| {
            let truncated = "truncated trace file (unexpected end of file)";
            let detail = match e.kind() {
                UnexpectedEof => truncated.into(),
                _ => e.to_string(),
            };
            io::Error::new(e.kind(), format!("{}: {detail}", path.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemAccess, TraceRecorder};
    use mosaic_ir::{run_tiles, BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal, Type};

    fn sample_trace() -> KernelTrace {
        sample_on(1)
    }

    /// A loop of loads and stores (one of them at the same address every
    /// iteration), then one accelerator call, per tile.
    fn sample_on(tiles: usize) -> KernelTrace {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.emit_counted_loop("l", Constant::i64(0).into(), n, |b, i| {
            let a = b.gep(p, i, 4);
            let v = b.load(Type::I32, a);
            let first = b.load(Type::I32, p);
            let v2 = b.bin(BinOp::Add, v, first);
            b.store(a, v2);
        });
        b.accel_call(mosaic_ir::AccelOp::Relu, vec![Constant::i64(128).into()]);
        b.ret(None);
        let mut mem = MemImage::new();
        let buf = mem.alloc_i32(32);
        let mut rec = TraceRecorder::new(tiles);
        let args = vec![RtVal::Int(buf as i64), RtVal::Int(32)];
        let programs = mosaic_ir::TileProgram::spmd(f, args, tiles);
        run_tiles(&m, mem, &programs, &mut rec).unwrap();
        rec.finish()
    }

    /// Everything the accessors of every tile answer, in one value: what a
    /// round trip must keep, and what a damaged file that still reads must
    /// be able to answer without a panic. (Up to 4096 accesses a stream: a
    /// flipped count of accesses to one address has no bytes to run out of.)
    fn contents(trace: &KernelTrace) -> Vec<String> {
        let tile = |t: &TileTrace| {
            let path: Vec<_> = t.path().collect();
            let stream = |i| (i, t.mem_stream(i).take(4096).collect::<Vec<_>>());
            let streams: Vec<_> = t.mem_insts().map(stream).collect();
            let calls = t.accel_invocations();
            let counts = (t.func(), t.retired(), t.mem_access_count());
            format!("{path:?} {streams:?} {calls:?} {counts:?}")
        };
        trace.tiles().map(tile).collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_on(2);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let loaded = KernelTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(contents(&loaded), contents(&trace));
        assert_eq!(trace.size_report(), loaded.size_report());
        // 32 iterations: a byte a block, a byte an access of the two
        // streams that walk the buffer, none for the one that stays put.
        let t = trace.tile(0);
        let widths = t.mem_insts().map(|i| t.mem[i.index()].offsets.width);
        assert_eq!(widths.collect::<Vec<_>>(), [1, 0, 1]);
        let r = trace.size_report();
        assert_eq!(r.control_flow_bytes, 2 * (9 + 67));
        assert_eq!(r.memory_bytes, 2 * (4 + 3 * 23 + 2 * 32));
        assert_eq!(r.total_bytes() + 12 + 2 * 13, buf.len() as u64);
    }

    /// A column at every width, 0 (a stream that stays at one address) to
    /// 8, low in the address space and so near its top that the base is
    /// lowered below the stream: the bytes are what writing
    /// `to_le_bytes()[..width]` of each offset writes, and read back.
    #[test]
    fn columns_of_every_width_are_written_value_by_value() {
        let mut rec = TraceRecorder::new(1);
        let mut want = Vec::new();
        for width in 0..=8u8 {
            let top = max_of_width(width);
            // Low: offsets up to `top` from 0x40. High: up to half of it,
            // ending at `u64::MAX`, which leaves the base at `MAX - top`.
            let low = (
                0x40u64.min(u64::MAX - top),
                top,
                0x40u64.min(u64::MAX - top),
            );
            let high = (u64::MAX - top / 2, top / 2, u64::MAX - top);
            for (k, (lo, span, base)) in [low, high].into_iter().enumerate() {
                let offset = |i: u64| match i {
                    0 => 0,
                    1 => span,
                    _ => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & span,
                };
                let addrs: Vec<u64> = (0..300).map(|i| lo + offset(i)).collect();
                let inst = InstId(2 * u32::from(width) + k as u32);
                for &addr in &addrs {
                    rec.on_mem(0, inst, addr, 8, false);
                }
                want.push((inst, width, base, addrs));
            }
        }
        let trace = rec.finish();
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        let back = KernelTrace::read_from(&mut file.as_slice()).unwrap();
        for (inst, width, base, addrs) in want {
            let s = trace.tile(0).mem[inst.index()];
            assert_eq!((s.offsets.width, s.base), (width, base), "{inst:?}");
            let mut column = (addrs.len() as u64).to_le_bytes().to_vec();
            column.push(width);
            for a in &addrs {
                column.extend_from_slice(&(a - base).to_le_bytes()[..usize::from(width)]);
            }
            let at = s.offsets.start - 9;
            assert_eq!(file[at..at + column.len()], column, "{inst:?}");
            let read: Vec<u64> = back.tile(0).mem_stream(inst).map(|a| a.addr).collect();
            assert_eq!(read, addrs, "{inst:?}");
        }
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join("mosaic_trace_test.mstr");
        trace.save(&path).unwrap();
        let loaded = KernelTrace::load(&path).unwrap();
        assert_eq!(contents(&loaded), contents(&trace));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"definitely not a trace";
        assert!(KernelTrace::read_from(&mut garbage.as_ref()).is_err());
        // Right magic, wrong version.
        let mut bad = Vec::new();
        bad.extend_from_slice(b"MSTR");
        bad.extend_from_slice(&99u32.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert!(KernelTrace::read_from(&mut bad.as_slice()).is_err());
    }

    /// Version 1 (an address, a size and a direction per access) is not
    /// read: the error says which version this build reads.
    #[test]
    fn a_version_1_file_is_an_unsupported_version() {
        let v1 = [&MAGIC[..], &1u32.to_le_bytes(), &0u32.to_le_bytes()].concat();
        let err = KernelTrace::read_from(&mut v1.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported trace version 1"),
            "{err}"
        );
    }

    /// A wrong-magic error must say what it expected and what it found,
    /// so a user who pointed the simulator at the wrong file can tell at
    /// a glance.
    #[test]
    fn wrong_magic_error_names_expected_and_found() {
        let err = KernelTrace::read_from(&mut b"MCKPxxxx".as_ref()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("MSTR"), "no expected magic in: {msg}");
        assert!(msg.contains("MCKP"), "no found magic in: {msg}");
    }

    /// A future-version error must name both versions so the fix
    /// (upgrade the reader, or regenerate the trace) is obvious.
    #[test]
    fn future_version_error_names_both_versions() {
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.extend_from_slice(&7u32.to_le_bytes());
        let err = KernelTrace::read_from(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("version 7"), "no found version in: {msg}");
        assert!(
            msg.contains(&format!("version {VERSION}")),
            "no supported version in: {msg}"
        );
    }

    /// `load` must name the offending path in every failure — missing
    /// file, bad magic, and truncation (reported as truncation, not as a
    /// bare UnexpectedEof).
    #[test]
    fn load_errors_name_the_path() {
        let dir = std::env::temp_dir();

        let missing = dir.join("mosaic_trace_missing.mstr");
        let msg = KernelTrace::load(&missing).unwrap_err().to_string();
        assert!(msg.contains("mosaic_trace_missing.mstr"), "{msg}");

        let wrong_magic = dir.join("mosaic_trace_wrong_magic.mstr");
        std::fs::write(&wrong_magic, b"ELF\x7fgarbage").unwrap();
        let msg = KernelTrace::load(&wrong_magic).unwrap_err().to_string();
        assert!(msg.contains("mosaic_trace_wrong_magic.mstr"), "{msg}");
        assert!(msg.contains("MSTR"), "{msg}");
        std::fs::remove_file(&wrong_magic).ok();

        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        let truncated = dir.join("mosaic_trace_truncated.mstr");
        std::fs::write(&truncated, &buf[..buf.len() / 2]).unwrap();
        let err = KernelTrace::load(&truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let msg = err.to_string();
        assert!(msg.contains("mosaic_trace_truncated.mstr"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");
        std::fs::remove_file(&truncated).ok();
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        for cut in [5usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                KernelTrace::read_from(&mut &buf[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    /// Whatever is cut off or flipped, `read_from` answers with an error
    /// or with some other trace, whose every accessor answers: it neither
    /// panics nor sizes an allocation by a count the file merely claims.
    #[test]
    fn damaged_files_are_errors_or_traces_never_panics() {
        let mut buf = Vec::new();
        sample_on(2).write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let short = KernelTrace::read_from(&mut &buf[..cut]);
            assert!(short.is_err(), "cut at {cut} of {}", buf.len());
        }
        // SplitMix64.
        let mut state = 0x4d53_5452_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut read = 0;
        for _ in 0..2000 {
            let mut bad = buf.clone();
            let at = (next() % buf.len() as u64) as usize;
            bad[at] ^= 1 << (next() % 8);
            if let Ok(trace) = KernelTrace::read_from(&mut bad.as_slice()) {
                read += contents(&trace).len();
            }
        }
        assert!(read > 0, "no flipped file read at all");
    }

    /// One tile of function 0 with an empty path, up to its stream count.
    fn one_tile(streams: u32) -> Vec<u8> {
        let words = [VERSION, 1].map(u32::to_le_bytes).concat();
        let path = [&[1, 0, 0, 0, 0][..], &[0; 8], &[1]].concat();
        [&MAGIC[..], &words, &path, &streams.to_le_bytes()].concat()
    }

    /// That tile up to the bytes of its only stream.
    fn one_stream(inst: u32, write: u8, base: u64, len: u64, width: u8) -> Vec<u8> {
        let inst = inst.to_le_bytes();
        let (base, len) = (base.to_le_bytes(), len.to_le_bytes());
        [&one_tile(1)[..], &inst, &[4, write], &base, &len, &[width]].concat()
    }

    /// The headers the layout invites a damaged file to carry: each is a
    /// typed error, a count with nothing behind it a short file — not a
    /// `capacity overflow`, an allocation abort or an address that wraps.
    #[test]
    fn absurd_headers_are_typed_errors() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        let path = |len: u64, width: u8| {
            let head = &one_tile(0)[..17];
            [head, &len.to_le_bytes(), &[width]].concat()
        };
        let tiles = [
            &MAGIC[..],
            &VERSION.to_le_bytes(),
            &(1u32 << 16 | 1).to_le_bytes(),
        ]
        .concat();
        let mut nargs = [&one_tile(0)[..], &[1, 0, 0, 0, 0, 0, 0, 0]].concat();
        nargs.extend_from_slice(b"\x0a\0\0\0accel.relu");
        nargs.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut func = one_tile(0);
        func[12] = 2;
        let cases = [
            ("tile count", tiles, InvalidData),
            ("has_func", func, InvalidData),
            ("path of no width", path(3, 0), InvalidData),
            ("path wider than a block id", path(3, 5), InvalidData),
            ("path count past its bytes", path(1000, 2), UnexpectedEof),
            ("path count", path(u64::MAX, 1), UnexpectedEof),
            ("path count x width", path(1 << 62, 4), InvalidData),
            ("stream width", one_stream(0, 0, 64, 3, 9), InvalidData),
            (
                "stream count past its bytes",
                one_stream(0, 0, 64, 1000, 3),
                UnexpectedEof,
            ),
            (
                "stream count",
                one_stream(0, 0, 64, u32::MAX.into(), 8),
                UnexpectedEof,
            ),
            (
                "stream count no cursor reaches",
                one_stream(0, 0, 64, 1 << 32, 0),
                InvalidData,
            ),
            (
                "stream count x width",
                one_stream(0, 0, 64, 1 << 61, 8),
                InvalidData,
            ),
            (
                "base + offset past u64",
                one_stream(0, 0, u64::MAX - 254, 0, 1),
                InvalidData,
            ),
            ("direction", one_stream(0, 2, 64, 0, 1), InvalidData),
            (
                "instruction id",
                one_stream(1 << 20, 0, 64, 0, 1),
                InvalidData,
            ),
            ("accelerator arguments", nargs, UnexpectedEof),
        ];
        for (what, bytes, kind) in cases {
            let err = KernelTrace::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), kind, "{what}: {err}");
        }
        // What is not absurd: a stream of no width is one address, however
        // often, and a base may sit as high as its offsets leave room for.
        let rest = [0; 12];
        let same = [&one_stream(7, 1, u64::MAX, 5, 0)[..], &rest].concat();
        let same = KernelTrace::read_from(&mut same.as_slice()).unwrap();
        let access = MemAccess {
            addr: u64::MAX,
            size: 4,
            write: true,
        };
        assert!(same.tile(0).mem_stream(InstId(7)).eq([access; 5]));
        let high = [&one_stream(0, 0, u64::MAX - 255, 1, 1)[..], &[255], &rest].concat();
        let high = KernelTrace::read_from(&mut high.as_slice()).unwrap();
        assert_eq!(
            high.tile(0).mem_access(InstId(0), 0).unwrap().addr,
            u64::MAX
        );
    }
}

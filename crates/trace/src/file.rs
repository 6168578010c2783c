//! On-disk trace format.
//!
//! The paper's toolchain materializes traces as files between the native
//! instrumented run and simulation (§II-A, §VI-B). This module gives
//! [`KernelTrace`] a compact little-endian binary format
//! (`write_to`/`read_from` plus `save`/`load` path helpers) so traces can
//! be generated once and replayed across many system configurations —
//! the workflow behind every multi-config figure harness. `MSTR` version 2
//! holds the columns a [`TileTrace`] holds, laid out in DESIGN.md §4.1:
//! writing one is a copy, reading one a check of its headers.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::ops::RangeInclusive;
use std::path::Path;

use mosaic_ir::{AccelOp, FuncId, InstId};

use crate::{max_of_width, slot_mut, AccelInvocation, Column, KernelTrace, MemStream};
use crate::{TileTrace, TraceSizeReport};

const MAGIC: &[u8; 4] = b"MSTR";
const VERSION: u32 = 2;

/// The most bytes reserved ahead of the bytes that fill them, on the word
/// of a count read from the file — above every column of the bundled
/// kernels, so a sound file is read into exact reservations. A longer
/// column grows as its bytes actually arrive, so a damaged count ends in
/// `UnexpectedEof` after at most 16 MiB of untouched reservation, not in
/// one no machine has.
const RESERVE_CAP: u64 = 16 << 20;

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    r_array(r).map(u32::from_le_bytes)
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    r_array(r).map(u64::from_le_bytes)
}

/// Reads a static instruction id, refusing one no real function reaches:
/// streams are stored in tables indexed by it.
fn r_inst<R: Read>(r: &mut R) -> io::Result<InstId> {
    let id = r_u32(r)?;
    if id >= 1 << 20 {
        return Err(bad(format!("instruction id {id} implausibly large")));
    }
    Ok(InstId(id))
}

/// The next `len` bytes of `r`, read as they arrive: nothing is reserved
/// beyond [`RESERVE_CAP`] on the word of `len` alone.
fn r_bytes<R: Read>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(len.min(RESERVE_CAP) as usize);
    if (r.by_ref().take(len).read_to_end(&mut bytes)? as u64) < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes)
}

fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn r_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = r_u32(r)?;
    if len > 4096 {
        return Err(bad("trace string implausibly long".into()));
    }
    let buf = r_bytes(r, len.into())?;
    String::from_utf8(buf).map_err(|_| bad("bad utf-8".into()))
}

fn w_column<W: Write>(w: &mut W, column: &Column) -> io::Result<()> {
    w_u64(w, column.len as u64)?;
    w.write_all(&[column.width])?;
    w.write_all(&column.bytes)
}

/// Reads a column of at most `max_len` values, each of a width in `widths`.
fn r_column<R: Read>(r: &mut R, max_len: u64, widths: RangeInclusive<u8>) -> io::Result<Column> {
    let (len, [width]) = (r_u64(r)?, r_array(r)?);
    let size = len.checked_mul(width.into());
    let size = size.filter(|_| len <= max_len && widths.contains(&width));
    let size = size.ok_or_else(|| bad(format!("a column of {len} {width}-byte values")))?;
    let (len, bytes) = (len as usize, r_bytes(r, size)?);
    Ok(Column { width, len, bytes })
}

impl KernelTrace {
    /// Storage accounting, mirroring the paper's §VI-B discussion: the bytes
    /// [`write_to`](Self::write_to) spends on each component, headers
    /// included. The file is these, 12 bytes and 13 more per tile of framing.
    pub fn size_report(&self) -> TraceSizeReport {
        let mut r = TraceSizeReport::default();
        for t in self.tiles() {
            // A column's header is 9 bytes, a stream's 14 and its column's.
            let stream = |i: InstId| 23 + t.mem[i.index()].offsets.bytes.len();
            let call = |a: &AccelInvocation| 12 + a.accel.name().len() + 8 * a.args.len();
            r.control_flow_bytes += (9 + t.path.bytes.len()) as u64;
            r.memory_bytes += (4 + t.mem_insts().map(stream).sum::<usize>()) as u64;
            r.accel_bytes += (4 + t.accel_order.iter().map(call).sum::<usize>()) as u64;
        }
        r
    }

    /// Writes the trace in the binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w_u32(w, VERSION)?;
        w_u32(w, self.tile_count() as u32)?;
        for tile in self.tiles() {
            w.write_all(&[tile.func.is_some() as u8])?;
            w_u32(w, tile.func.map_or(0, |f| f.0))?;
            w_column(w, &tile.path)?;
            w_u32(w, tile.mem_insts().count() as u32)?;
            for inst in tile.mem_insts() {
                let stream = &tile.mem[inst.index()];
                w_u32(w, inst.0)?;
                w.write_all(&[stream.size, stream.write as u8])?;
                w_u64(w, stream.base)?;
                w_column(w, &stream.offsets)?;
            }
            w_u32(w, tile.accel_invocations().len() as u32)?;
            for inv in tile.accel_invocations() {
                w_u32(w, inv.inst.0)?;
                w_str(w, inv.accel.name())?;
                w_u32(w, inv.args.len() as u32)?;
                for &a in &inv.args {
                    w_u64(w, a as u64)?;
                }
            }
            w_u64(w, tile.retired())?;
        }
        Ok(())
    }

    /// Reads a trace in the binary format.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic/version or malformed content,
    /// plus any I/O error from the reader.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<KernelTrace> {
        let magic: [u8; 4] = r_array(r)?;
        if &magic != MAGIC {
            return Err(bad(format!(
                "not a MosaicSim trace file: expected magic {:?}, found {:?}",
                String::from_utf8_lossy(MAGIC),
                String::from_utf8_lossy(&magic),
            )));
        }
        let version = r_u32(r)?;
        if version != VERSION {
            return Err(bad(format!(
                "unsupported trace version {version}: this build reads version {VERSION} \
                 only (a trace is regenerated, not converted)"
            )));
        }
        let tiles = r_u32(r)? as usize;
        if tiles > 1 << 16 {
            return Err(bad("too many tiles".into()));
        }
        let mut out = Vec::with_capacity(tiles);
        for _ in 0..tiles {
            let mut tile = TileTrace::default();
            let ([has_func], func) = (r_array(r)?, r_u32(r)?);
            tile.func = (has_func == 1).then_some(FuncId(func));
            tile.path = r_column(r, u64::MAX, 1..=4)?;
            let mem_insts = r_u32(r)?;
            for _ in 0..mem_insts {
                let inst = r_inst(r)?;
                let [size, write] = r_array(r)?;
                let base = r_u64(r)?;
                // A `CursorPos` counts the entries it consumed in a `u32`.
                let offsets = r_column(r, u32::MAX.into(), 0..=8)?;
                if write > 1 || base.checked_add(max_of_width(offsets.width)).is_none() {
                    return Err(bad(format!("{inst:?}: direction {write}, base {base:#x}")));
                }
                *slot_mut(&mut tile.mem, inst) = MemStream {
                    size,
                    write: write == 1,
                    base,
                    offsets,
                };
            }
            let accels = r_u32(r)? as usize;
            for _ in 0..accels {
                let inst = r_inst(r)?;
                let name = r_str(r)?;
                let accel = AccelOp::from_name(&name)
                    .ok_or_else(|| bad(format!("unknown accelerator `{name}`")))?;
                let nargs = r_u32(r)? as usize;
                let mut args = Vec::with_capacity(nargs.min(RESERVE_CAP as usize / 8));
                for _ in 0..nargs {
                    args.push(r_u64(r)? as i64);
                }
                let inv = AccelInvocation { inst, accel, args };
                slot_mut(&mut tile.accel, inst).push(inv.clone());
                tile.accel_order.push(inv);
            }
            tile.retired = r_u64(r)?;
            out.push(std::sync::Arc::new(tile));
        }
        Ok(KernelTrace { tiles: out })
    }

    /// Saves the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Loads a trace from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and format violations; every error
    /// names the offending path, and a short read is reported as a
    /// truncated file rather than a bare `UnexpectedEof`.
    pub fn load(path: impl AsRef<Path>) -> io::Result<KernelTrace> {
        let path = path.as_ref();
        let with_path = |e: io::Error| {
            let detail = if e.kind() == io::ErrorKind::UnexpectedEof {
                "truncated trace file (unexpected end of file)".to_string()
            } else {
                e.to_string()
            };
            io::Error::new(e.kind(), format!("{}: {detail}", path.display()))
        };
        let mut r = BufReader::new(File::open(path).map_err(&with_path)?);
        KernelTrace::read_from(&mut r).map_err(&with_path)
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
        w_str(&mut nargs, "accel.relu").unwrap();
        nargs.extend_from_slice(&u32::MAX.to_le_bytes());
        let cases = [
            ("tile count", tiles, InvalidData),
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

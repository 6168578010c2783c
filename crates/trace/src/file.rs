//! On-disk trace format.
//!
//! The paper's toolchain materializes traces as files between the native
//! instrumented run and simulation (§II-A, §VI-B). This module gives
//! [`KernelTrace`] a compact little-endian binary format
//! (`write_to`/`read_from` plus `save`/`load` path helpers) so traces can
//! be generated once and replayed across many system configurations —
//! the workflow behind every multi-config figure harness.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use mosaic_ir::{AccelOp, BlockId, FuncId, InstId};

use crate::{stream_mut, AccelInvocation, KernelTrace, MemAccess, TileTrace};

const MAGIC: &[u8; 4] = b"MSTR";
const VERSION: u32 = 1;

/// The most items reserved on the word of a count read from the file —
/// above every stream of the bundled kernels, so a sound file is read into
/// exact reservations. A longer sequence grows as its items actually
/// arrive, so a damaged count ends in `UnexpectedEof` after at most 16 MiB
/// of untouched reservation, not in one no machine has.
const RESERVE_CAP: usize = 1 << 20;

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a static instruction id, refusing one no real function reaches:
/// streams are stored in tables indexed by it.
fn r_inst<R: Read>(r: &mut R) -> io::Result<InstId> {
    let id = r_u32(r)?;
    if id >= 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("instruction id {id} implausibly large"),
        ));
    }
    Ok(InstId(id))
}

fn r_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn r_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = r_u32(r)? as usize;
    if len > 4096 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trace string implausibly long",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad utf-8"))
}

impl KernelTrace {
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
            match tile.func() {
                Some(f) => {
                    w.write_all(&[1])?;
                    w_u32(w, f.0)?;
                }
                None => w.write_all(&[0, 0, 0, 0, 0])?,
            }
            w_u64(w, tile.path().len() as u64)?;
            for b in tile.path() {
                w_u32(w, b.0)?;
            }
            w_u32(w, tile.mem_insts().count() as u32)?;
            for inst in tile.mem_insts() {
                w_u32(w, inst.0)?;
                let stream = tile.mem_stream(inst);
                w_u64(w, stream.len() as u64)?;
                for a in stream {
                    w_u64(w, a.addr)?;
                    w.write_all(&[a.size, a.write as u8])?;
                }
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
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "not a MosaicSim trace file: expected magic {:?}, found {:?}",
                    String::from_utf8_lossy(MAGIC),
                    String::from_utf8_lossy(&magic),
                ),
            ));
        }
        let version = r_u32(r)?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported trace version {version}: this build reads version {VERSION} \
                     (was the file written by a newer MosaicSim?)"
                ),
            ));
        }
        let tiles = r_u32(r)? as usize;
        if tiles > 1 << 16 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "too many tiles"));
        }
        let mut out = Vec::with_capacity(tiles);
        for _ in 0..tiles {
            let mut tile = TileTrace::default();
            let has_func = r_u8(r)? == 1;
            let func = r_u32(r)?;
            if has_func {
                tile.func = Some(FuncId(func));
            }
            let path_len = r_u64(r)? as usize;
            tile.path.reserve(path_len.min(RESERVE_CAP));
            for _ in 0..path_len {
                tile.path.push(BlockId(r_u32(r)?));
            }
            let mem_insts = r_u32(r)? as usize;
            for _ in 0..mem_insts {
                let inst = r_inst(r)?;
                let len = r_u64(r)? as usize;
                let mut stream = Vec::with_capacity(len.min(RESERVE_CAP));
                for _ in 0..len {
                    let addr = r_u64(r)?;
                    let size = r_u8(r)?;
                    let write = r_u8(r)? != 0;
                    stream.push(MemAccess { addr, size, write });
                }
                *stream_mut(&mut tile.mem, inst) = stream;
            }
            let accels = r_u32(r)? as usize;
            for _ in 0..accels {
                let inst = r_inst(r)?;
                let name = r_str(r)?;
                let accel = AccelOp::from_name(&name).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown accelerator `{name}`"),
                    )
                })?;
                let nargs = r_u32(r)? as usize;
                let mut args = Vec::with_capacity(nargs.min(RESERVE_CAP));
                for _ in 0..nargs {
                    args.push(r_u64(r)? as i64);
                }
                let inv = AccelInvocation { inst, accel, args };
                stream_mut(&mut tile.accel, inst).push(inv.clone());
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
    use crate::TraceRecorder;
    use mosaic_ir::{run_tiles, BinOp, Constant, FunctionBuilder, MemImage, Module, RtVal, Type};

    fn sample_trace() -> KernelTrace {
        sample_on(1)
    }

    /// A loop of loads and stores, then one accelerator call, per tile.
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
            let v2 = b.bin(BinOp::Add, v, Constant::i32(3).into());
            b.store(a, v2);
        });
        b.accel_call(
            mosaic_ir::AccelOp::Relu,
            vec![Constant::i64(128).into()],
        );
        b.ret(None);
        let mut mem = MemImage::new();
        let buf = mem.alloc_i32(32);
        let mut rec = TraceRecorder::new(tiles);
        let args = vec![RtVal::Int(buf as i64), RtVal::Int(32)];
        let programs = mosaic_ir::TileProgram::spmd(f, args, tiles);
        run_tiles(&m, mem, &programs, &mut rec).unwrap();
        rec.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let loaded = KernelTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.tile_count(), trace.tile_count());
        let (a, b) = (trace.tile(0), loaded.tile(0));
        assert_eq!(a.path(), b.path());
        assert_eq!(a.retired(), b.retired());
        assert_eq!(a.func(), b.func());
        let mut insts: Vec<_> = a.mem_insts().collect();
        insts.sort();
        for i in insts {
            assert_eq!(a.mem_stream(i), b.mem_stream(i));
        }
        assert_eq!(a.accel_invocations(), b.accel_invocations());
        assert_eq!(trace.size_report(), loaded.size_report());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join("mosaic_trace_test.mstr");
        trace.save(&path).unwrap();
        let loaded = KernelTrace::load(&path).unwrap();
        assert_eq!(loaded.tile(0).path(), trace.tile(0).path());
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
    /// or with some other trace: it neither panics nor sizes an
    /// allocation by a count the file merely claims.
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
        for _ in 0..2000 {
            let mut bad = buf.clone();
            let at = (next() % buf.len() as u64) as usize;
            bad[at] ^= 1 << (next() % 8);
            let _ = KernelTrace::read_from(&mut bad.as_slice());
        }
    }

    /// A count of `u64::MAX` / `u32::MAX` items with nothing behind it is a
    /// short file, not a `capacity overflow` or an allocation abort.
    #[test]
    fn absurd_counts_end_in_unexpected_eof() {
        // One tile with a function, up to its path length.
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        for word in [VERSION, 1] {
            head.extend_from_slice(&word.to_le_bytes());
        }
        head.extend_from_slice(&[1, 0, 0, 0, 0]);
        let le64 = u64::to_le_bytes;
        let path_len = [&head[..], &le64(u64::MAX)].concat();
        // No path, one memory stream of instruction 0.
        let stream = [&head[..], &le64(0), &[1, 0, 0, 0, 0, 0, 0, 0][..]].concat();
        let stream_len = [&stream[..], &le64(u64::MAX)].concat();
        // No path, no stream, one call of instruction 0.
        let mut nargs = [&head[..], &le64(0), &[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]].concat();
        w_str(&mut nargs, "accel.relu").unwrap();
        nargs.extend_from_slice(&u32::MAX.to_le_bytes());
        for (what, bytes) in [("path", path_len), ("stream", stream_len), ("args", nargs)] {
            let err = KernelTrace::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{what}");
        }
    }
}

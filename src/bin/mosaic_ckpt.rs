//! `mosaic-ckpt`: take, resume from, and inspect simulator checkpoints.
//!
//! Modes:
//!
//! ```text
//! mosaic-ckpt save --kernel <name> --at <cycle> --out ckpt.mckpt
//!                  [--scale N] [--tiles N] [--core ino|ooo] [--naive]
//!     Builds the bundled kernel, runs it to <cycle>, and writes a
//!     snapshot of the complete simulator state.
//!
//! mosaic-ckpt resume --kernel <name> --from ckpt.mckpt
//!                    [--scale N] [--tiles N] [--core ino|ooo] [--naive]
//!     Rebuilds the *same* system (the kernel flags must match the save
//!     invocation — the tile fingerprint is verified), loads the
//!     snapshot, and runs to completion. The final report is
//!     bit-identical to a straight-through run.
//!
//! mosaic-ckpt inspect ckpt.mckpt
//!     Prints the header (version, cycle, tile fingerprint) and the
//!     section table without decoding section bodies.
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use mosaicsim::ckpt::Checkpoint;
use mosaicsim::prelude::*;

struct Options {
    mode: String,
    kernel: Option<String>,
    scale: u32,
    tiles: usize,
    ooo: bool,
    naive: bool,
    at: Option<u64>,
    out: Option<String>,
    from: Option<String>,
    file: Option<String>,
}

const USAGE: &str = "usage:
  mosaic-ckpt save    --kernel <name> --at <cycle> --out <file>
                      [--scale N] [--tiles N] [--core ino|ooo] [--naive]
  mosaic-ckpt resume  --kernel <name> --from <file>
                      [--scale N] [--tiles N] [--core ino|ooo] [--naive]
  mosaic-ckpt inspect <file>";

/// Parses the value of a flag that counts from 1: a kernel built at
/// scale 0 has no data to index and a system of 0 tiles simulates nothing.
fn positive<T>(flag: &str, text: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match text.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        Ok(_) => Err(format!("{flag}: must be at least 1")),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().ok_or(USAGE.to_string())?;
    let mut opts = Options {
        mode,
        kernel: None,
        scale: 1,
        tiles: 1,
        ooo: true,
        naive: false,
        at: None,
        out: None,
        from: None,
        file: None,
    };
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--kernel" => opts.kernel = Some(value(&mut i, "--kernel")?),
            "--scale" => opts.scale = positive("--scale", &value(&mut i, "--scale")?)?,
            "--tiles" => opts.tiles = positive("--tiles", &value(&mut i, "--tiles")?)?,
            "--core" => {
                opts.ooo = match value(&mut i, "--core")?.as_str() {
                    "ino" => false,
                    "ooo" => true,
                    other => return Err(format!("--core: unknown model {other:?}")),
                }
            }
            "--naive" => opts.naive = true,
            "--at" => {
                opts.at = Some(
                    value(&mut i, "--at")?
                        .parse()
                        .map_err(|e| format!("--at: {e}"))?,
                )
            }
            "--out" => opts.out = Some(value(&mut i, "--out")?),
            "--from" => opts.from = Some(value(&mut i, "--from")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with("--") && opts.file.is_none() => {
                opts.file = Some(other.to_string())
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.mode.as_str() {
        "save" => save(&opts),
        "resume" => resume(&opts),
        "inspect" => inspect(&opts),
        other => Err(format!("unknown mode {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mosaic-ckpt: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Rebuilds the system the kernel flags describe. `save` and `resume`
/// must construct identical systems for a snapshot to apply, so both go
/// through this one function.
fn builder_for(opts: &Options) -> Result<SystemBuilder, String> {
    let name = opts
        .kernel
        .as_deref()
        .ok_or_else(|| format!("--kernel is required\n{USAGE}"))?;
    if !mosaicsim::kernels::PARBOIL_NAMES.contains(&name) {
        return Err(format!(
            "unknown kernel {name:?}; available: {}",
            mosaicsim::kernels::PARBOIL_NAMES.join(", ")
        ));
    }
    let prepared = mosaicsim::kernels::build_parboil(name, opts.scale);
    let (trace, _) = prepared.trace(opts.tiles).map_err(|e| e.to_string())?;
    let core = if opts.ooo {
        CoreConfig::out_of_order()
    } else {
        CoreConfig::in_order()
    };
    let mut builder = SystemBuilder::new(Arc::new(prepared.module.clone()), Arc::new(trace))
        .memory(xeon_memory())
        .fast_forward(!opts.naive);
    for t in 0..opts.tiles {
        let config = core.clone().with_name(&format!("{name}#{t}"));
        builder = builder.core(config, prepared.func, t);
    }
    Ok(builder)
}

fn save(opts: &Options) -> Result<(), String> {
    let at = opts.at.ok_or_else(|| format!("--at is required\n{USAGE}"))?;
    let out = opts
        .out
        .as_deref()
        .ok_or_else(|| format!("--out is required\n{USAGE}"))?;
    let mut il = builder_for(opts)?.build().map_err(|e| e.to_string())?;
    let paused = il.run_until(at).map_err(|e| e.to_string())?;
    if let Some(done) = paused {
        eprintln!("note: simulation finished at cycle {done}, before the requested cycle {at}; the snapshot is of the completed system");
    }
    let ckpt = il.save_checkpoint();
    ckpt.save(Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "checkpoint at cycle {} ({} sections, {} tiles) written to {out}",
        ckpt.cycle(),
        ckpt.section_table().count(),
        ckpt.fingerprint().len()
    );
    Ok(())
}

fn resume(opts: &Options) -> Result<(), String> {
    let from = opts
        .from
        .as_deref()
        .ok_or_else(|| format!("--from is required\n{USAGE}"))?;
    let report = builder_for(opts)?
        .resume_from(from)
        .run()
        .map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn inspect(opts: &Options) -> Result<(), String> {
    let path = opts
        .file
        .as_deref()
        .or(opts.from.as_deref())
        .ok_or_else(|| format!("inspect needs a file\n{USAGE}"))?;
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (cycle, fingerprint, sections) =
        Checkpoint::inspect_bytes(&data, path).map_err(|e| e.to_string())?;
    println!("{path}: checkpoint at cycle {cycle}");
    println!("tiles ({}):", fingerprint.len());
    for name in &fingerprint {
        println!("  {name}");
    }
    println!("sections ({}):", sections.len());
    let width = sections.iter().map(|(n, _)| n.len()).max().unwrap_or(4);
    for (name, len) in &sections {
        println!("  {name:<width$}  {len:>12} bytes");
    }
    Ok(())
}

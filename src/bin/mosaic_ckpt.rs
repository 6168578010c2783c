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
//!     invocation — each part's configuration fingerprint is verified),
//!     loads the snapshot, and runs to completion. The final report is
//!     bit-identical to a straight-through run.
//!
//! mosaic-ckpt inspect ckpt.mckpt
//!     Prints the header (cycle; each part and its configuration
//!     fingerprint) and the section table (each section's name and
//!     length).
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod kernel_flags;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use kernel_flags::{number, value, KernelFlags};
use mosaicsim::ckpt::Checkpoint;
use mosaicsim::prelude::*;

struct Options {
    mode: String,
    flags: KernelFlags,
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

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().ok_or(USAGE.to_string())?;
    let mut opts = Options {
        mode,
        flags: KernelFlags::new(),
        naive: false,
        at: None,
        out: None,
        from: None,
        file: None,
    };
    let mut i = 1;
    while i < args.len() {
        if !opts.flags.take(&args, &mut i)? {
            match args[i].as_str() {
                "--naive" => opts.naive = true,
                "--at" => opts.at = Some(number(&args, &mut i, "--at")?),
                "--out" => opts.out = Some(value(&args, &mut i, "--out")?),
                "--from" => opts.from = Some(value(&args, &mut i, "--from")?),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other if !other.starts_with("--") && opts.file.is_none() => {
                    opts.file = Some(other.to_string())
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
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
        .flags
        .kernel
        .as_deref()
        .ok_or_else(|| format!("--kernel is required\n{USAGE}"))?;
    let (builder, _) = opts.flags.system(name)?;
    Ok(builder.fast_forward(!opts.naive))
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
        il.tiles().len()
    );
    Ok(())
}

fn resume(opts: &Options) -> Result<(), String> {
    let from = opts
        .from
        .as_deref()
        .ok_or_else(|| format!("--from is required\n{USAGE}"))?;
    let ckpt = Checkpoint::load(Path::new(from)).map_err(|e| e.to_string())?;
    let report = builder_for(opts)?
        .resume_from_checkpoint(Arc::new(ckpt))
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
    let ckpt = Checkpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
    println!("{path}: checkpoint at cycle {}", ckpt.cycle());
    println!("parts ({}):", ckpt.parts().len());
    let width = ckpt.parts().iter().map(|(n, _)| n.len()).max().unwrap_or(4);
    for (name, fingerprint) in ckpt.parts() {
        println!("  {name:<width$}  {fingerprint:016x}");
    }
    let sections: Vec<(&str, usize)> = ckpt.section_table().collect();
    println!("sections ({}):", sections.len());
    let width = sections.iter().map(|(n, _)| n.len()).max().unwrap_or(4);
    for (name, len) in sections {
        println!("  {name:<width$}  {len:>12} bytes");
    }
    Ok(())
}

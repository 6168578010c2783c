//! `mosaic-report`: run a bundled kernel under observability and report
//! IR-level hotspots, registry dumps, and Chrome-trace timelines.
//!
//! Modes:
//!
//! ```text
//! mosaic-report --kernel sgemm [--scale 1] [--tiles 2] [--core ino|ooo]
//!               [--top 10] [--stats out.json] [--timeline out.json]
//!     Runs the kernel at ObsLevel::Stats (or Trace when --timeline is
//!     given), prints the per-instruction hotspot table and the stats
//!     registry, and writes the requested dumps.
//!
//! mosaic-report --diff a.json b.json
//!     Compares two registry dumps (per-kernel comparison).
//!
//! mosaic-report --check-trace trace.json --expect-tiles N
//!     Validates a Chrome trace_event dump: parses, and requires at
//!     least one complete ("X") span per tile track (used by CI).
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod kernel_flags;

use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use kernel_flags::{number, value, KernelFlags};
use mosaicsim::ir::{print_inst, FuncId, InstId};
use mosaicsim::obs::{json, ObsLevel, StatsRegistry};
use mosaicsim::prelude::*;

struct Options {
    flags: KernelFlags,
    top: usize,
    stats_out: Option<String>,
    timeline_out: Option<String>,
    diff: Option<(String, String)>,
    check_trace: Option<String>,
    expect_tiles: usize,
}

const USAGE: &str = "usage:
  mosaic-report --kernel <name> [--scale N] [--tiles N] [--core ino|ooo]
                [--top N] [--stats out.json] [--timeline out.json]
  mosaic-report --diff a.json b.json
  mosaic-report --check-trace trace.json [--expect-tiles N]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        flags: KernelFlags::new(),
        top: 10,
        stats_out: None,
        timeline_out: None,
        diff: None,
        check_trace: None,
        expect_tiles: 1,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if !opts.flags.take(&args, &mut i)? {
            match args[i].as_str() {
                "--top" => opts.top = number(&args, &mut i, "--top")?,
                "--stats" => opts.stats_out = Some(value(&args, &mut i, "--stats")?),
                "--timeline" => opts.timeline_out = Some(value(&args, &mut i, "--timeline")?),
                "--diff" => {
                    let a = value(&args, &mut i, "--diff")?;
                    let b = value(&args, &mut i, "--diff")?;
                    opts.diff = Some((a, b));
                }
                "--check-trace" => opts.check_trace = Some(value(&args, &mut i, "--check-trace")?),
                "--expect-tiles" => opts.expect_tiles = number(&args, &mut i, "--expect-tiles")?,
                "--help" | "-h" => return Err(USAGE.to_string()),
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
    let result = if let Some((a, b)) = &opts.diff {
        diff_registries(a, b)
    } else if let Some(path) = &opts.check_trace {
        check_trace(path, opts.expect_tiles)
    } else if let Some(name) = &opts.flags.kernel {
        run_kernel(name, &opts)
    } else {
        Err(USAGE.to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mosaic-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a bundled kernel under observability and reports hotspots.
fn run_kernel(name: &str, opts: &Options) -> Result<(), String> {
    let level = if opts.timeline_out.is_some() {
        ObsLevel::Trace
    } else {
        ObsLevel::Stats
    };
    let (builder, module) = opts.flags.system(name)?;
    let report = builder.observe(level).run().map_err(|e| e.to_string())?;

    println!(
        "{name} scale {} on {} {} tile(s): {} cycles, IPC {:.3}",
        opts.flags.scale,
        opts.flags.tiles,
        if opts.flags.ooo { "OoO" } else { "InO" },
        report.cycles,
        report.ipc()
    );
    println!();
    print_hotspots(&module, &report, opts.top);

    if let Some(path) = &opts.stats_out {
        std::fs::write(path, report.registry.to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("stats registry written to {path}");
    } else {
        println!("{}", report.registry.to_table());
    }
    if let Some(path) = &opts.timeline_out {
        // Streamed: the span store is the only large block a long run holds.
        std::fs::File::create(path)
            .map(BufWriter::new)
            .and_then(|mut w| {
                report.timeline.write_chrome_json(&mut w)?;
                w.flush()
            })
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "timeline with {} span(s) written to {path} (load in chrome://tracing or https://ui.perfetto.dev)",
            report.timeline.len()
        );
    }
    Ok(())
}

/// Prints the per-instruction hotspot table: the `top` instructions by
/// attributed stall cycles, mapped back to printed IR.
fn print_hotspots(module: &Module, report: &SimReport, top: usize) {
    if report.profile.is_empty() {
        println!("(no per-instruction profile; run with ObsLevel::Stats or higher)");
        return;
    }
    println!(
        "{:>4}  {:>12} {:>12}  {:>8} {:>9} {:>9}  instruction",
        "rank", "stall cyc", "retired", "dominant", "mem p50", "mem p95"
    );
    for (rank, ((fk, ik), p)) in report.profile.top(top).iter().enumerate() {
        let func = module.function(FuncId(*fk));
        let text = print_inst(func, InstId(*ik));
        let (p50, p95) = if p.mem_lat.count() > 0 {
            (
                format!("{}", p.mem_lat.percentile(50)),
                format!("{}", p.mem_lat.percentile(95)),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        println!(
            "{:>4}  {:>12} {:>12}  {:>8} {:>9} {:>9}  {}: {}",
            rank + 1,
            p.total_stalls(),
            p.retired,
            p.dominant_stall().map_or("-", |k| k.label()),
            p50,
            p95,
            func.name(),
            text
        );
    }
    println!();
}

/// Loads two registry dumps and prints every differing path.
fn diff_registries(a_path: &str, b_path: &str) -> Result<(), String> {
    let read = |p: &str| -> Result<StatsRegistry, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        StatsRegistry::from_json(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let rows = a.diff(&b);
    if rows.is_empty() {
        println!("registries identical ({} stats)", a.len());
        return Ok(());
    }
    let width = rows.iter().map(|(p, _, _)| p.len()).max().unwrap_or(4);
    println!("{:<width$}  {a_path:>20} {b_path:>20}", "path");
    for (path, va, vb) in &rows {
        println!("{path:<width$}  {va:>20} {vb:>20}");
    }
    println!("{} differing path(s)", rows.len());
    Ok(())
}

/// Validates a Chrome `trace_event` dump: it must parse, and every tile
/// track (pid 0, tid `0..expect_tiles`) must hold at least one complete
/// ("X") span. Used as a CI gate.
fn check_trace(path: &str, expect_tiles: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or_else(|| format!("{path}: missing traceEvents array"))?;
    let mut complete_per_tile = vec![0u64; expect_tiles];
    let mut total_complete = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or_default();
        if ph != "X" {
            continue;
        }
        for key in ["name", "ts", "dur", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("{path}: complete event missing {key:?}"));
            }
        }
        total_complete += 1;
        let pid = ev.get("pid").and_then(|p| p.as_u64()).unwrap_or(u64::MAX);
        let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap_or(u64::MAX);
        if pid == 0 && (tid as usize) < expect_tiles {
            complete_per_tile[tid as usize] += 1;
        }
    }
    for (tile, &n) in complete_per_tile.iter().enumerate() {
        if n == 0 {
            return Err(format!(
                "{path}: tile track {tile} has no complete span (expected >= 1)"
            ));
        }
    }
    println!(
        "{path}: OK — {total_complete} complete span(s), {expect_tiles} tile track(s) covered"
    );
    Ok(())
}

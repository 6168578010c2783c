//! `mosaic-lint` — static analysis over mosaic IR.
//!
//! ```text
//! mosaic-lint [--deny] [--json] [--kernels] [--tiles N] [FILE.mir ...]
//! ```
//!
//! * `FILE.mir` arguments are parsed with span tracking so findings
//!   point at source lines (`file.mir:12: error[...] ...`), then linted
//!   as standalone modules.
//! * `--kernels` lints every bundled paper kernel (`kernels::bundled`:
//!   Parboil suite, sinkhorn/EWSD case studies, graph projection, Keras
//!   apps) as a configured SPMD system with its real argument bindings.
//! * `--json` replaces the human-readable report with one JSON object
//!   (`{"units":[{"unit":…,"findings":[…]}…],"total_findings":N}`) on
//!   stdout; exit status is unchanged.
//! * `--deny` exits non-zero on *any* finding; otherwise only
//!   error-severity findings fail the run.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

#[path = "kernel_flags/args.rs"]
mod args;

use std::process::ExitCode;

use args::positive;
use mosaicsim::lint::{lint_module, lint_system, LintLevel, LintReport, TileBinding};

fn usage() -> ExitCode {
    eprintln!("usage: mosaic-lint [--deny] [--json] [--kernels] [--tiles N] [FILE.mir ...]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut kernels = false;
    let mut tiles = 4usize;
    let mut files: Vec<String> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--kernels" => kernels = true,
            "--tiles" => match positive(&args, &mut i, "--tiles") {
                Ok(n) => tiles = n,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return usage(),
        }
        i += 1;
    }
    if !kernels && files.is_empty() {
        return usage();
    }

    let level = if deny { LintLevel::Deny } else { LintLevel::Warn };
    let mut failed = false;
    let mut total_findings = 0usize;
    let mut units = 0usize;
    let mut json_units: Vec<String> = Vec::new();

    for path in &files {
        units += 1;
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let (module, spans) = match mosaicsim::ir::parse_module_with_spans(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let report = lint_module(&module);
        if json {
            json_units.push(report.to_json(path));
        } else {
            for d in &report.diagnostics {
                println!("{}", d.render(Some(&spans), Some(path)));
            }
        }
        total_findings += report.diagnostics.len();
        failed |= report.fails(level) || report.error_count() > 0;
    }

    if kernels {
        for prepared in mosaicsim::kernels::bundled() {
            units += 1;
            let bindings: Vec<TileBinding> = prepared
                .programs(tiles)
                .iter()
                .map(TileBinding::from_program)
                .collect();
            let report = lint_system(&prepared.module, &bindings);
            if json {
                json_units.push(report.to_json(&prepared.name));
            } else {
                report_kernel(&prepared.name, &report);
            }
            total_findings += report.diagnostics.len();
            failed |= report.fails(level) || report.error_count() > 0;
        }
    }

    if json {
        println!(
            "{{\"units\":[{}],\"total_findings\":{total_findings}}}",
            json_units.join(",")
        );
    } else {
        println!(
            "mosaic-lint: {units} unit(s) checked, {total_findings} finding(s){}",
            if deny { " (deny)" } else { "" }
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn report_kernel(name: &str, report: &LintReport) {
    if report.is_clean() {
        println!("{name}: clean");
    } else {
        println!("{name}:");
        for d in &report.diagnostics {
            println!("  {d}");
        }
    }
}

//! `mosaic-lint` — static analysis over mosaic IR.
//!
//! ```text
//! mosaic-lint [--deny] [--json] [--kernels] [--tiles N] [FILE.mir ...]
//! ```
//!
//! * `FILE.mir` arguments are parsed with span tracking so findings
//!   point at source lines (`file.mir:12: error[...] ...`), then linted
//!   as standalone modules.
//! * `--kernels` lints every bundled paper kernel (Parboil suite,
//!   sinkhorn/EWSD case studies, graph projection, Keras apps) as a
//!   configured SPMD system with its real argument bindings.
//! * `--json` replaces the human-readable report with one JSON object
//!   (`{"units":[{"unit":…,"findings":[…]}…],"total_findings":N}`) on
//!   stdout; exit status is unchanged.
//! * `--deny` exits non-zero on *any* finding; otherwise only
//!   error-severity findings fail the run.

use std::process::ExitCode;

use mosaic_lint::{lint_module, lint_system, LintLevel, LintReport, TileBinding};

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

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--kernels" => kernels = true,
            "--tiles" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => tiles = n,
                _ => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return usage(),
        }
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
        let (module, spans) = match mosaic_ir::parse_module_with_spans(&text) {
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
        for prepared in bundled_kernels() {
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

/// Every kernel the repository bundles, at a small scale (the IR shape —
/// and hence the lint result — is scale-independent; only trip-count
/// constants change).
fn bundled_kernels() -> Vec<mosaic_kernels::Prepared> {
    use mosaic_kernels as k;
    let mut out: Vec<k::Prepared> = Vec::new();
    for name in k::PARBOIL_NAMES {
        out.push(k::build_parboil(name, 1));
    }
    out.push(k::projection::build(1));
    out.push(k::sinkhorn::ewsd(1));
    out.push(k::sinkhorn::sgemm_micro(1));
    out.push(k::sinkhorn::accel_sgemm_micro(1));
    for mix in [
        k::sinkhorn::Mix::DenseHeavy,
        k::sinkhorn::Mix::Equal,
        k::sinkhorn::Mix::SparseHeavy,
    ] {
        out.push(k::sinkhorn::combined(mix, 1, true));
    }
    for app in k::keras::all_apps() {
        out.push(app.lower_accelerated());
    }
    out
}

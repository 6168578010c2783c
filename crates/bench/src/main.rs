//! `mosaic-bench [NAME...]`: prints the named figures and tables of the
//! paper's evaluation as Markdown, or all of them with no names. Stdout is
//! the same on every run; sweep throughput goes to stderr.

use std::process::ExitCode;

use mosaic_bench::{render, FIGURES};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &String| FIGURES.iter().find(|(n, _)| n == name);
    if let Some(bad) = names.iter().find(|n| find(n).is_none()) {
        let valid: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("mosaic-bench: no figure `{bad}`; the names are: {}", valid.join(" "));
        return ExitCode::from(2);
    }
    let chosen: Vec<_> = match names.is_empty() {
        true => FIGURES.iter().collect(),
        false => names.iter().filter_map(find).collect(),
    };
    let blocks: Vec<String> = chosen.iter().map(|(_, figure)| render(&figure())).collect();
    print!("{}", blocks.join("\n"));
    ExitCode::SUCCESS
}

//! `mosaic-perf`: the performance ledger's executable. See `README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mosaic_perf::cli::main(&argv));
}

//! The command-line tools reject arguments they cannot simulate with one
//! line naming the flag, instead of panicking in a kernel builder
//! (`--scale 0`) or simulating, or linting, a system with no tiles
//! (`--tiles 0`).

use std::process::Command;

/// Runs `tool` with `args` and asserts that it fails with the one line
/// `<flag>: must be at least 1` and prints nothing on stdout.
fn refuses(tool: &str, args: &[&str], flag: &str) {
    let run = Command::new(tool).args(args).output().expect("tool runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{tool} {args:?} exited 0");
    assert_eq!(stderr.trim_end(), format!("{flag}: must be at least 1"), "{tool} {args:?}");
    assert!(run.stdout.is_empty(), "{tool} {args:?} printed a report");
}

#[test]
fn a_zero_scale_or_tile_count_is_a_one_line_error_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("mosaic_cli_zero_{}.mckpt", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let tools: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_mosaic-report"), &["--kernel", "bfs"]),
        (
            env!("CARGO_BIN_EXE_mosaic-ckpt"),
            &["save", "--kernel", "bfs", "--at", "100", "--out", out],
        ),
    ];
    for (tool, args) in tools {
        for flag in ["--scale", "--tiles"] {
            refuses(tool, &[args, &[flag, "0"]].concat(), flag);
        }
    }
    refuses(env!("CARGO_BIN_EXE_mosaic-lint"), &["--kernels", "--tiles", "0"], "--tiles");
    assert!(!std::path::Path::new(out).exists(), "a checkpoint was written");
}

//! The command-line tools reject arguments they cannot simulate with one
//! line naming the flag, instead of panicking in a kernel builder
//! (`--scale 0`) or "simulating" a system with no tiles (`--tiles 0`).

use std::process::Command;

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
            let run = Command::new(tool)
                .args(args)
                .args([flag, "0"])
                .output()
                .expect("tool runs");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(!run.status.success(), "{tool} {flag} 0 exited 0");
            assert_eq!(
                stderr.trim_end(),
                format!("{flag}: must be at least 1"),
                "{tool} {flag} 0"
            );
            assert!(run.stdout.is_empty(), "{tool} {flag} 0 printed a report");
        }
    }
    assert!(!std::path::Path::new(out).exists(), "a checkpoint was written");
}

//! The golden-table harness every `*_golden` test goes through, checked
//! once here on a table in a temporary directory.

use support::Golden;

#[test]
fn a_drift_names_its_row_and_columns_and_a_rewrite_fails() {
    let path = std::env::temp_dir().join(format!("golden_harness_{}.txt", std::process::id()));
    let table = Golden(path.clone());
    let recorded = ["lbm tile0 cycles=10 issued=4", "bfs@7 mem=3:ff"];

    // Rewriting writes the rows, one a line, and still fails.
    let err = table.check(&recorded, true).expect_err("a rewrite");
    assert!(err.contains("rewrote"), "{err}");
    let written = std::fs::read_to_string(&path).expect("the table was written");
    assert_eq!(written, "lbm tile0 cycles=10 issued=4\nbfs@7 mem=3:ff\n");
    assert_eq!(table.check(&recorded, false), Ok(()));

    // One column moved: the row by its key, the column, both values.
    let drifted = ["lbm tile0 cycles=11 issued=4", "bfs@7 mem=3:ff"];
    let err = table.check(&drifted, false).expect_err("a drift");
    assert!(err.contains("lbm tile0: cycles: 10 -> 11"), "{err}");
    assert!(!err.contains("issued") && !err.contains("bfs"), "{err}");

    // A row the table lacks, and a row the table has that is gone.
    let reshaped = ["lbm tile0 cycles=10 issued=4", "sgemm@9 mem=3:ff"];
    let err = table.check(&reshaped, false).expect_err("a new row");
    assert!(err.contains("extra row sgemm@9"), "{err}");
    assert!(err.contains("missing row bfs@7"), "{err}");

    // The same rows in another order are not the table either.
    let reordered = ["bfs@7 mem=3:ff", "lbm tile0 cycles=10 issued=4"];
    let err = table.check(&reordered, false).expect_err("another order");
    assert!(err.contains("another order"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// The comparison the mode relations go through, checked once on a run
/// and a copy of it with one field moved, and on runs that stopped.
#[test]
fn a_relation_names_each_drifted_field_and_compares_verdicts() {
    use mosaicsim::prelude::{MosaicError, ObsLevel};
    use support::{drift, everything, Observed};

    let moved = |a: &Observed, b: &Observed| drift("s: r", (a, everything), (b, everything));
    let mut system = support::system("bfs/bimodal");
    system.obs = ObsLevel::Stats;
    let run = system.builder().run().expect("a run");
    let mut longer = run.clone();
    longer.cycles += 1;
    let cycles = format!("s: r: cycles: {} -> {}", run.cycles, longer.cycles);
    let (run, longer) = (Observed::of(Ok(run)), Observed::of(Ok(longer)));
    assert_eq!(moved(&run, &run), Ok(()));
    assert_eq!(moved(&run, &longer), Err(cycles));

    // Once either run stopped, the verdicts are all that is compared.
    let stopped = |message: &str| {
        let message = message.to_string();
        Observed(Err(MosaicError::Ckpt { message }))
    };
    let (full, empty) = (stopped("full"), stopped("empty"));
    assert_eq!(moved(&full, &stopped("full")), Ok(()));
    let two = r#"s: r: verdict: Err(Ckpt { message: "full" }) -> Err(Ckpt { message: "empty" })"#;
    assert_eq!(moved(&full, &empty), Err(two.into()));
    let one = r#"s: r: verdict: Ok("finished") -> Err(Ckpt { message: "full" })"#;
    assert_eq!(moved(&run, &full), Err(one.into()));
}

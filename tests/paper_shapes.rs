//! The paper's shape claims, held to the figures `mosaic-bench` prints.
//!
//! [`CLAIMS`] is one line per claim EXPERIMENTS.md makes: the figure, the
//! claim, the verdict EXPERIMENTS.md records, and a predicate over the
//! figure's named cells. A verdict that flips — a ✓ that stops holding, or
//! a ✗ that starts to — fails, naming the claim and every cell it read.
//!
//! EXPERIMENTS.md quotes each figure's rendered tables between
//! `<!-- figs:NAME -->` and `<!-- /figs -->` (and the claims between
//! `<!-- figs:claims -->` markers); a quote that no longer matches the
//! renderer fails, naming each row that drifted. `GOLDEN_WRITE=1` rewrites
//! the quotes and still fails, as it does for the golden tables.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::OnceLock;

use mosaic_bench::{render, Cell, Table, FIGURES};

/// Every figure's tables, each figure on a thread of its own, once.
fn figures() -> &'static [(&'static str, Vec<Table>)] {
    static FIGS: OnceLock<Vec<(&str, Vec<Table>)>> = OnceLock::new();
    FIGS.get_or_init(|| {
        std::thread::scope(|s| {
            let running: Vec<_> = FIGURES
                .iter()
                .map(|&(name, f)| (name, s.spawn(f)))
                .collect();
            running
                .into_iter()
                .map(|(name, t)| (name, t.join().expect(name)))
                .collect()
        })
    })
}

/// The cells a predicate reads, found by table label, row key and column
/// head, each logged with its value.
#[derive(Default)]
struct Cells(RefCell<Vec<String>>);

impl Cells {
    fn table(label: &str) -> &'static Table {
        let mut all = figures().iter().flat_map(|(_, tables)| tables);
        all.find(|t| t.label() == label)
            .unwrap_or_else(|| panic!("no table {label}"))
    }

    fn at(&self, label: &str, row: &str, column: &str) -> f64 {
        let v = Self::table(label).num(row, column);
        let v = v.unwrap_or_else(|| panic!("{label} has no number at [{row}, {column}]"));
        self.0
            .borrow_mut()
            .push(format!("{label} [{row}, {column}] = {v:.3}"));
        v
    }

    /// The column's numbers by row key, `except` those rows.
    fn column(&self, label: &str, column: &str, except: &[&str]) -> Vec<(&'static str, f64)> {
        let mut cells = Self::table(label).column(column);
        cells.retain(|(key, _)| !except.contains(key));
        let read: Vec<String> = cells.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
        self.0
            .borrow_mut()
            .push(format!("{label} [*, {column}] = {}", read.join(", ")));
        cells
    }

    /// The column's numbers, in row order.
    fn values(&self, label: &str, column: &str) -> Vec<f64> {
        self.column(label, column, &[])
            .into_iter()
            .map(|x| x.1)
            .collect()
    }

    /// A Fig. 11 system's speedup over one in-order core.
    fn speedup(&self, system: &str) -> f64 {
        self.at("Fig. 11", system, "speedup")
    }

    /// Whether `row` holds the column's largest number.
    fn wins(&self, label: &str, column: &str, row: &str) -> bool {
        let cells = self.column(label, column, &[]);
        let best = cells
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a row");
        best.0 == row
    }
}

/// Whether `v` never goes down (`up`) or never goes up along the sequence.
fn monotone(v: impl IntoIterator<Item = f64>, up: bool) -> bool {
    let v: Vec<f64> = v.into_iter().collect();
    v.windows(2)
        .all(|w| if up { w[0] <= w[1] } else { w[0] >= w[1] })
}

struct Claim {
    figure: &'static str,
    claim: &'static str,
    /// The verdict EXPERIMENTS.md records: ✓ (`true`) or ✗.
    recorded: bool,
    holds: fn(&Cells) -> bool,
}

const MIXES: [&str; 3] = ["Dense-Heavy", "Equal Sparse Dense", "Sparse-Heavy"];
const ACCEL: &str = "4+4 IO DAE w/Accel";
const DAE: &str = "4+4 IO DAE";
const FPGA: &str = "vs FPGA emu (%)";

#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim { figure: "Table I", claim: "the sizes and ways equal the paper's", recorded: true,
        holds: |c| {
        let cells = [("L1", 32.0, 8.0), ("L2", 2048.0, 8.0), ("LLC", 20480.0, 20.0)];
        let at = |level, column| c.at("Table I as instantiated", level, column);
        cells.iter().all(|&(l, kb, ways)| at(l, "size (KB)") == kb && at(l, "ways") == ways)
    } },
    Claim { figure: "Fig. 5", claim: "the geomean factor is in [0.9, 1.2]", recorded: true,
        holds: |c| (0.9..=1.2).contains(&c.at("Fig. 5", "geomean", "factor")) },
    Claim { figure: "Fig. 5", claim: "the factors fall on both sides of 1", recorded: true,
        holds: |c| {
        let f = c.column("Fig. 5", "factor", &["geomean"]);
        f.iter().any(|x| x.1 < 1.0) && f.iter().any(|x| x.1 > 1.0)
    } },
    Claim { figure: "Fig. 6", claim: "bfs has the lowest IPC", recorded: true,
        holds: |c| c.values("Fig. 6", "ipc").iter().all(|&x| x >= c.at("Fig. 6", "bfs", "ipc")) },
    Claim { figure: "Fig. 6", claim: "sad and sgemm are in the top three", recorded: true,
        holds: |c| {
        let ipc = c.values("Fig. 6", "ipc");
        let above = |k| ipc.iter().filter(|&&x| x > c.at("Fig. 6", k, "ipc")).count();
        above("sad") < 3 && above("sgemm") < 3
    } },
    Claim { figure: "Fig. 7", claim: "bfs at 8 threads < 3.5×", recorded: false,
        holds: |c| c.at("Fig. 7", "8", "mosaic speedup") < 3.5 },
    Claim { figure: "Fig. 8", claim: "sgemm at 8 threads > 6.5×", recorded: true,
        holds: |c| c.at("Fig. 8", "8", "mosaic speedup") > 6.5 },
    Claim { figure: "Fig. 9", claim: "spmv at 8 threads < 4×", recorded: true,
        holds: |c| c.at("Fig. 9", "8", "mosaic speedup") < 4.0 },
    Claim { figure: "Fig. 10d", claim: "every accelerator ≥ 97 % vs RTL", recorded: true,
        holds: |c| c.values("Fig. 10d", "vs RTL sim (%)").iter().all(|&x| x >= 97.0) },
    Claim { figure: "Fig. 10d", claim: "matmul in [89, 93] % vs FPGA", recorded: true,
        holds: |c| (89.0..=93.0).contains(&c.at("Fig. 10d", "accel.sgemm", FPGA)) },
    Claim { figure: "Fig. 10d", claim: "histogram in [89, 93] % vs FPGA", recorded: false,
        holds: |c| (89.0..=93.0).contains(&c.at("Fig. 10d", "accel.histogram", FPGA)) },
    Claim { figure: "Fig. 10d", claim: "element-wise in [89, 93] % vs FPGA", recorded: false,
        holds: |c| (89.0..=93.0).contains(&c.at("Fig. 10d", "accel.elementwise", FPGA)) },
    Claim { figure: "§VI-B", claim: "the memory trace is the larger part on ≥ 10 of 11 kernels",
        recorded: true,
        holds: |c| c.values("§VI-B", "mem %").iter().filter(|&&x| x > 50.0).count() >= 10 },
    Claim { figure: "§VI-B", claim: "extrapolated, HISTO > BFS > SGEMM", recorded: true,
        holds: |c| {
        let mb = |k| c.at("§VI-B", k, "extrapolated (MB)");
        mb("histo") > mb("bfs") && mb("bfs") > mb("sgemm")
    } },
    Claim { figure: "Table II", claim: "the cores and buffers equal the paper's", recorded: true,
        holds: |c| {
        let (w, a) = ("width / entries", "area (mm^2)");
        let cells = [("OoO", w, 4.0), ("OoO", "window", 128.0), ("OoO", "LSQ", 128.0),
            ("OoO", a, 8.44), ("InO", w, 1.0), ("InO", "window", 1.0), ("InO", "LSQ", 1.0),
            ("InO", a, 1.01), ("comm buffer", w, 512.0), ("comm buffer", "latency", 1.0)];
        let at = |row, column| c.at("Table II as instantiated", row, column);
        cells.iter().all(|&(row, column, paper)| at(row, column) == paper)
    } },
    Claim { figure: "Fig. 11", claim: "1 DAE pair > 2 InO", recorded: true,
        holds: |c| c.speedup("1 DAE pair (2 InO cores)") > c.speedup("2 In-Order (homogeneous)") },
    Claim { figure: "Fig. 11", claim: "4 DAE pairs > 8 InO", recorded: true,
        holds: |c| c.speedup("4 DAE pairs (8 InO cores)") > c.speedup("8 In-Order (homogeneous)") },
    Claim { figure: "Fig. 11", claim: "4 DAE pairs ÷ 1 OoO in [1.5, 2.5]", recorded: true,
        holds: |c| {
        let ratio = c.speedup("4 DAE pairs (8 InO cores)") / c.speedup("1 Out-of-Order");
        (1.5..=2.5).contains(&ratio)
    } },
    Claim { figure: "Fig. 12", claim: "DAE wins EWSD", recorded: true,
        holds: |c| c.wins("Fig. 12", "EWSD", "4+4 IO DAE") },
    Claim { figure: "Fig. 12", claim: "the accelerator wins SGEMM", recorded: true,
        holds: |c| c.wins("Fig. 12", "SGEMM", "Accel.") },
    Claim { figure: "Fig. 13", claim: "DAE+accel wins every mix", recorded: true,
        holds: |c| MIXES.iter().all(|mix| c.wins("Fig. 13", mix, ACCEL)) },
    Claim { figure: "Fig. 13", claim: "DAE+accel's margin over DAE falls from dense to sparse",
        recorded: true,
        holds: |c| {
        let margin = MIXES.map(|mix| c.at("Fig. 13", ACCEL, mix) / c.at("Fig. 13", DAE, mix));
        monotone(margin, false) && margin[0] > margin[2]
    } },
    Claim { figure: "Fig. 13", claim: "plain DAE rises from dense to sparse", recorded: true,
        holds: |c| {
        let dae = MIXES.map(|mix| c.at("Fig. 13", DAE, mix));
        monotone(dae, true) && dae[0] < dae[2]
    } },
    Claim { figure: "Fig. 14", claim: "RecSys > GraphSage > ConvNet", recorded: true,
        holds: |c| {
        let gain = |app| c.at("Fig. 14", app, "EDP gain");
        gain("RecSys") > gain("GraphSage") && gain("GraphSage") > gain("ConvNet")
    } },
    Claim { figure: "Fig. 14", claim: "GraphSage within 10 % of 38×", recorded: true,
        holds: |c| (c.at("Fig. 14", "GraphSage", "EDP gain") / 38.0 - 1.0).abs() <= 0.1 },
    Claim { figure: "Ablation 1", claim: "prefetching gains > 1× on stencil and sgemm",
        recorded: true,
        holds: |c| ["stencil", "sgemm"].iter().all(|k| c.at("Ablation 1", k, "gain") > 1.0) },
    Claim { figure: "Ablation 1", claim: "prefetching is neutral on bfs: gain in [0.95, 1.05]",
        recorded: false,
        holds: |c| (0.95..=1.05).contains(&c.at("Ablation 1", "bfs", "gain")) },
    Claim { figure: "Ablation 3", claim: "alias speculation gains > 1× on histo and mri-gridding",
        recorded: true,
        holds: |c| ["histo", "mri-gridding"].iter().all(|k| c.at("Ablation 3", k, "gain") > 1.0) },
    Claim { figure: "Ablation 4", claim: "cycles None ≥ Static ≥ Perfect", recorded: true,
        holds: |c| {
        monotone(["None", "Static", "Perfect"].map(|m| c.at("Ablation 4", m, "cycles")), false)
    } },
    Claim { figure: "Ablation 5", claim: "cycles never rise with more MSHR entries", recorded: true,
        holds: |c| monotone(c.values("Ablation 5", "cycles"), false) },
    Claim { figure: "Ablation 6", claim: "cycles never rise with more unrolling", recorded: true,
        holds: |c| monotone(c.values("Ablation 6", "cycles"), false) },
    Claim { figure: "Ablation 7", claim: "cycles never fall with more NoC hop latency",
        recorded: true,
        holds: |c| monotone(c.values("Ablation 7", "cycles"), true) },
];

fn mark(verdict: bool) -> &'static str {
    if verdict {
        "✓"
    } else {
        "✗"
    }
}

#[test]
fn every_claim_keeps_the_verdict_experiments_md_records() {
    let mut flipped = Vec::new();
    for claim in CLAIMS {
        let cells = Cells::default();
        let holds = (claim.holds)(&cells);
        if holds != claim.recorded {
            let (was, now) = (mark(claim.recorded), mark(holds));
            let read = cells.0.into_inner().join("; ");
            flipped.push(format!(
                "{}: {} — recorded {was}, now {now}; read {read}",
                claim.figure, claim.claim
            ));
        }
    }
    assert!(
        flipped.is_empty(),
        "{} verdicts flipped:\n{}",
        flipped.len(),
        flipped.join("\n")
    );
}

/// The claims as EXPERIMENTS.md's summary quotes them.
fn claims_table() -> Table {
    let heads = [("claim", 0), ("figure", 0), ("verdict", 0)];
    let mut t = Table::new("Claims — held by `tests/paper_shapes.rs`", &heads);
    for c in CLAIMS {
        t.row(
            c.claim,
            vec![Cell::from(c.figure), Cell::from(mark(c.recorded))],
        );
    }
    t
}

/// What `recorded` quotes as `rendered` no longer does: each table row by
/// its key, each other line as it is.
fn drift(name: &str, recorded: &str, rendered: &str) -> Vec<String> {
    let lines = |s: &str| s.lines().map(String::from).collect::<BTreeSet<_>>();
    let (was, now) = (lines(recorded), lines(rendered));
    let name_line = |line: &String| match line.strip_prefix("| ") {
        Some(row) => format!("row {}", row.split(" |").next().unwrap_or(row).trim()),
        None => "line".to_string(),
    };
    let gone = was
        .difference(&now)
        .map(|l| format!("{name}: {} was `{l}`", name_line(l)));
    let new = now
        .difference(&was)
        .map(|l| format!("{name}: {} now `{l}`", name_line(l)));
    gone.chain(new).collect()
}

#[test]
fn experiments_md_quotes_each_figure_as_rendered() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let (open, close) = ("\n<!-- figs:", "<!-- /figs -->\n");
    let (mut out, mut rest, mut moved, mut quoted) = (String::new(), text.as_str(), Vec::new(), 0);
    while let Some(at) = rest.find(open) {
        let (head, body) = rest[at + open.len()..]
            .split_once(" -->\n")
            .expect("a marker line");
        let (recorded, tail) = body
            .split_once(close)
            .unwrap_or_else(|| panic!("{head}: no {close}"));
        let rendered = match head {
            "claims" => render(&[claims_table()]),
            name => {
                let figure = figures().iter().find(|(n, _)| *n == name);
                render(
                    &figure
                        .unwrap_or_else(|| panic!("EXPERIMENTS.md quotes no figure {name}"))
                        .1,
                )
            }
        };
        moved.extend(drift(head, recorded, &rendered));
        out += &format!("{}{open}{head} -->\n{rendered}{close}", &rest[..at]);
        rest = tail;
        quoted += 1;
    }
    out += rest;
    assert!(quoted > 0, "EXPERIMENTS.md quotes no figure");
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(path, &out).expect("rewrite EXPERIMENTS.md");
        panic!("rewrote {path}:\n{}", moved.join("\n"));
    }
    assert!(
        moved.is_empty(),
        "{path} quotes {} stale lines:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

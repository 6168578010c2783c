//! # mosaic-lint
//!
//! Static lint passes over `mosaic-ir`, built on the CFG, dominator,
//! loop and footprint analyses of [`mosaic_ir::analysis`]. The linter is
//! the static complement of the simulator's dynamic deadlock detector: it proves
//! protocol violations, races, and liveness problems from the IR before
//! the Interleaver ever runs a cycle.
//!
//! Passes (see `DESIGN.md` §4.4 for the catalog with example output):
//!
//! * **channel-protocol** (`channel`) — per-channel send/recv effect
//!   counting with loop-trip-count bounds, unmatched-endpoint detection
//!   under per-tile queue offsets, and provable self-wait cycles.
//! * **race** (`race`) — each tile's statically bounded
//!   [`mosaic_ir::analysis::Footprint`], flagging conflicting load/store
//!   regions on tiles with no channel-ordered happens-before edge.
//! * **dataflow lints** (`dataflow_lints`) — use-before-initialize
//!   (SSA dominance), dead stores, dead values, unreachable blocks, dead
//!   phi inputs.
//!
//! Every diagnostic is *conservative*: the linter only reports what it
//! can prove, so "no findings" does not mean "no bugs" (the properties
//! are undecidable in general), but every `Error` finding corresponds to
//! a guaranteed dynamic failure.
//!
//! # Examples
//!
//! ```
//! use mosaic_ir::{Module, FunctionBuilder, Constant, Type};
//! use mosaic_lint::{lint_system, Severity, TileBinding};
//!
//! // A producer that sends on q0 while the consumer listens on q1.
//! let mut m = Module::new("bad");
//! let p = m.add_function("prod", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(p));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! b.send(0, Constant::i64(1).into());
//! b.ret(None);
//! let c = m.add_function("cons", vec![], Type::Void);
//! let mut b = FunctionBuilder::new(m.function_mut(c));
//! let e = b.create_block("entry");
//! b.switch_to(e);
//! b.recv(0, Type::I64);
//! b.ret(None);
//!
//! // The queue offset shifts the consumer's endpoint to q1.
//! let tiles = vec![
//!     TileBinding::new(p, 0, vec![]),
//!     TileBinding::new(c, 1, vec![]),
//! ];
//! let report = lint_system(&m, &tiles);
//! assert!(report.diagnostics.iter().any(|d| d.severity == Severity::Error));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub(crate) mod channel;
mod dataflow_lints;
pub(crate) mod race;

use std::fmt;

use mosaic_ir::{FuncId, InstId, Module, SpanTable};
use mosaic_obs::json::escape;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably fatal (dead code, dead stores).
    Warning,
    /// A guaranteed dynamic failure (deadlock, use-before-init, race).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Which pass produced it (e.g. `channel-protocol`).
    pub pass: &'static str,
    /// Name of the function the finding is in.
    pub func: String,
    /// Id of the function the finding is in.
    pub func_id: FuncId,
    /// The offending (for protocol findings: blocking) instruction.
    pub inst: Option<InstId>,
    /// The system-level channel involved, for protocol findings.
    pub queue: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic, resolving `inst` to a source line when a
    /// span table (from [`mosaic_ir::parse_module_with_spans`]) is
    /// available.
    pub fn render(&self, spans: Option<&SpanTable>, file: Option<&str>) -> String {
        let mut s = String::new();
        if let (Some(spans), Some(inst)) = (spans, self.inst) {
            if let Some(line) = spans.line(self.func_id, inst) {
                let f = file.unwrap_or("<input>");
                s.push_str(&format!("{f}:{line}: "));
            }
        }
        s.push_str(&format!("{}[{}] in {}", self.severity, self.pass, self.func));
        if let Some(inst) = self.inst {
            s.push_str(&format!(" at {inst}"));
        }
        s.push_str(": ");
        s.push_str(&self.message);
        s
    }
}

impl Diagnostic {
    /// Serializes the diagnostic as one compact JSON object (for the
    /// CLI's `--json` mode and downstream tooling). Optional fields
    /// render as `null`.
    pub(crate) fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map(|n| n.to_string()).unwrap_or_else(|| "null".into());
        format!(
            "{{\"severity\":\"{}\",\"pass\":\"{}\",\"func\":\"{}\",\"func_id\":{},\
             \"inst\":{},\"queue\":{},\"message\":\"{}\"}}",
            self.severity,
            escape(self.pass),
            escape(&self.func),
            self.func_id.index(),
            opt(self.inst.map(|i| i.index() as u64)),
            opt(self.queue.map(u64::from)),
            escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(None, None))
    }
}

/// The result of running the lint passes: all findings, errors first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, sorted most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    fn finish(mut self) -> LintReport {
        self.diagnostics
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.func_id.cmp(&b.func_id)));
        // Cross-pass span dedup: when several passes anchor a finding on
        // the same instruction, keep only the first (most severe) one —
        // the others restate the same root cause. Same-pass findings at
        // one instruction are distinct problems and all survive.
        let mut kept: Vec<(FuncId, InstId, &'static str)> = Vec::new();
        self.diagnostics.retain(|d| {
            let Some(inst) = d.inst else { return true };
            if kept
                .iter()
                .any(|&(f, i, p)| f == d.func_id && i == inst && p != d.pass)
            {
                return false;
            }
            kept.push((d.func_id, inst, d.pass));
            true
        });
        self
    }

    /// Whether no findings at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether the report should fail the given lint level: `Deny` fails
    /// on *any* finding, `Warn` and `Off` never fail.
    pub fn fails(&self, level: LintLevel) -> bool {
        level == LintLevel::Deny && !self.is_clean()
    }

    /// The report for `unit` (a `.mir` path or a kernel name) as one
    /// `{"unit":…,"findings":[…],"errors":N}` object, the form
    /// `mosaic-lint --json` prints.
    pub fn to_json(&self, unit: &str) -> String {
        let findings: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"unit\":\"{}\",\"findings\":[{}],\"errors\":{}}}",
            escape(unit),
            findings.join(","),
            self.error_count()
        )
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} finding(s), {} error(s)",
            self.diagnostics.len(),
            self.error_count()
        )
    }
}

/// How strictly lint findings are enforced by consumers such as
/// `SystemBuilder::build`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LintLevel {
    /// Do not run the linter at all.
    Off,
    /// Run and report findings (to stderr in the builder gate) but never
    /// fail.
    #[default]
    Warn,
    /// Fail on any finding.
    Deny,
}

/// How one tile of the system maps onto the module: which function it
/// runs, its channel-id offset, and any statically known argument values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBinding {
    /// The kernel function this tile executes.
    pub func: FuncId,
    /// Added to every IR queue id on this tile (mirrors the tile
    /// configuration's `queue_offset`).
    pub queue_offset: u32,
    /// Statically known integer argument values, by parameter position;
    /// `None` means unknown. May be shorter than the parameter list.
    pub args: Vec<Option<i64>>,
}

impl TileBinding {
    /// Convenience constructor.
    pub fn new(func: FuncId, queue_offset: u32, args: Vec<Option<i64>>) -> TileBinding {
        TileBinding {
            func,
            queue_offset,
            args,
        }
    }

    /// Derives a binding from a concrete [`mosaic_ir::TileProgram`]:
    /// integer arguments (including pointer bases) become statically
    /// known, float arguments stay unknown.
    pub fn from_program(p: &mosaic_ir::TileProgram) -> TileBinding {
        TileBinding {
            func: p.func,
            queue_offset: p.queue_offset,
            args: p
                .args
                .iter()
                .map(|a| match a {
                    mosaic_ir::RtVal::Int(v) => Some(*v),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// Lints a module in isolation (no tile mapping): all per-function
/// dataflow lints plus module-level channel balance where both sides are
/// constant.
pub fn lint_module(module: &Module) -> LintReport {
    let mut report = LintReport::default();
    dataflow_lints::run(module, &mut report);
    // Without a tile mapping, treat the module as one system with every
    // function on its own tile at offset 0 and unknown arguments.
    let tiles: Vec<TileBinding> = module
        .functions()
        .map(|f| TileBinding::new(f.id(), 0, vec![None; f.params().len()]))
        .collect();
    channel::run(module, &tiles, &mut report);
    report.finish()
}

/// Lints a configured system: the module plus one [`TileBinding`] per
/// tile. Runs everything [`lint_module`] runs, with channel endpoints
/// shifted by per-tile queue offsets, send/recv counts evaluated under
/// the bound arguments, and cross-tile race detection.
pub fn lint_system(module: &Module, tiles: &[TileBinding]) -> LintReport {
    let mut report = LintReport::default();
    dataflow_lints::run(module, &mut report);
    channel::run(module, tiles, &mut report);
    race::run(module, tiles, &mut report);
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_errors_above_warnings() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn report_fails_only_at_deny() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                severity: Severity::Warning,
                pass: "test",
                func: "f".into(),
                func_id: FuncId(0),
                inst: None,
                queue: None,
                message: "m".into(),
            }],
        };
        assert!(report.fails(LintLevel::Deny));
        assert!(!report.fails(LintLevel::Warn));
        assert!(!report.fails(LintLevel::Off));
        assert!(!LintReport::default().fails(LintLevel::Deny));
    }

    fn diag(pass: &'static str, severity: Severity, inst: Option<u32>) -> Diagnostic {
        Diagnostic {
            severity,
            pass,
            func: "f".into(),
            func_id: FuncId(0),
            inst: inst.map(InstId),
            queue: None,
            message: "m".into(),
        }
    }

    #[test]
    fn finish_dedups_identical_spans_across_passes_only() {
        let report = LintReport {
            diagnostics: vec![
                diag("a", Severity::Warning, Some(3)),
                diag("b", Severity::Error, Some(3)),   // same span, other pass
                diag("a", Severity::Warning, Some(3)), // same span, same pass
                diag("a", Severity::Warning, None),    // spanless: never deduped
                diag("b", Severity::Warning, None),
            ],
        }
        .finish();
        // The error sorts first and wins the span; pass `a`'s findings
        // at inst 3 are cross-pass duplicates and drop, while the
        // spanless findings always survive.
        assert_eq!(report.diagnostics.len(), 3);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.inst == Some(InstId(3)))
                .count(),
            1,
            "only the most severe finding keeps the span"
        );
        assert_eq!(report.diagnostics.iter().filter(|d| d.inst.is_none()).count(), 2);

        // Same-pass findings at one span are distinct problems: kept.
        let report = LintReport {
            diagnostics: vec![
                diag("a", Severity::Warning, Some(3)),
                diag("a", Severity::Warning, Some(3)),
            ],
        }
        .finish();
        assert_eq!(report.diagnostics.len(), 2);
    }

    #[test]
    fn diagnostic_json_escapes_and_nulls() {
        let mut d = diag("channel-protocol", Severity::Error, Some(7));
        d.queue = Some(2);
        d.message = "line1\n\"quoted\"".into();
        let j = d.to_json();
        assert_eq!(
            j,
            "{\"severity\":\"error\",\"pass\":\"channel-protocol\",\"func\":\"f\",\
             \"func_id\":0,\"inst\":7,\"queue\":2,\"message\":\"line1\\n\\\"quoted\\\"\"}"
        );
        let d = diag("race", Severity::Warning, None);
        assert!(d.to_json().contains("\"inst\":null,\"queue\":null"));
    }

    /// Any unit name and message make a document that parses back to
    /// them; escaping only `\` and `"` leaves the newline raw.
    #[test]
    fn report_json_parses_with_control_characters() {
        use mosaic_obs::json::{parse, JsonValue};
        let unit = "a\"b\\c\nd\u{1}.mir";
        let mut d = diag("race", Severity::Error, Some(2));
        d.message = "tab\there".into();
        let report = LintReport { diagnostics: vec![d] };
        let doc = parse(&report.to_json(unit)).expect("valid JSON");
        assert_eq!(doc.get("unit").and_then(JsonValue::as_str), Some(unit));
        let finding = &doc.get("findings").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(finding.get("message").and_then(JsonValue::as_str), Some("tab\there"));
        assert_eq!(doc.get("errors").and_then(JsonValue::as_u64), Some(1));
        let quotes_only = unit.replace('\\', "\\\\").replace('"', "\\\"");
        assert!(parse(&format!("{{\"unit\":\"{quotes_only}\"}}")).is_err());
    }
}

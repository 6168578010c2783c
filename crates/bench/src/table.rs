//! The one shape every figure and table of the reproduction returns, and
//! its one rendering: Markdown, as EXPERIMENTS.md quotes it.

use std::fmt;

/// One cell of a [`Table`] row after its key.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A number, printed at its column's precision.
    Num(f64),
    /// Text, printed as it is (`—` for a cell with no value).
    Text(String),
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Num(v as f64)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

/// A figure's or table's data: a title, column heads (the first heads the
/// row keys), rows keyed by their first cell, and a one-line note.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// `"<label> — <description>"`; the label names the table in lookups.
    pub title: String,
    /// Each column's head and the decimals its numbers print with.
    pub columns: Vec<(String, usize)>,
    /// Each row's key and its cells, one per column after the key's.
    pub rows: Vec<(String, Vec<Cell>)>,
    /// The paper's figure or claim the table is read against.
    pub note: String,
}

impl Table {
    /// An empty table titled `title` with the columns `heads` (the key
    /// column's precision is unused).
    pub fn new(title: impl Into<String>, heads: &[(&str, usize)]) -> Self {
        Table {
            title: title.into(),
            columns: heads.iter().map(|&(h, p)| (h.to_string(), p)).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Appends the row `key` with `cells`.
    pub fn row(&mut self, key: impl Into<String>, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        debug_assert_eq!(cells.len() + 1, self.columns.len(), "{}", self.title);
        self.rows.push((key.into(), cells));
    }

    /// The table with `note` as its note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The title up to its ` — `: `Fig. 11`, `Ablation 3`.
    pub fn label(&self) -> &str {
        self.title.split(" — ").next().unwrap_or(&self.title)
    }

    /// The number in row `key` under the head `column`, if there is one.
    pub fn num(&self, key: &str, column: &str) -> Option<f64> {
        let c = self.columns[1..].iter().position(|(h, _)| h == column)?;
        match self.rows.iter().find(|(k, _)| k == key)?.1.get(c)? {
            Cell::Num(v) => Some(*v),
            Cell::Text(_) => None,
        }
    }

    /// Every row's key and its number under the head `column`.
    pub fn column(&self, column: &str) -> Vec<(&str, f64)> {
        let keys = self.rows.iter().map(|(k, _)| k.as_str());
        keys.filter_map(|k| Some((k, self.num(k, column)?))).collect()
    }
}

impl fmt::Display for Table {
    /// `**title**`, a Markdown table padded to its widest cells (numbers
    /// right-aligned) and the note, with no trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = |(key, cells): &(String, Vec<Cell>)| -> Vec<String> {
            let cells = cells.iter().zip(&self.columns[1..]).map(|(cell, &(_, prec))| match cell {
                Cell::Num(v) => format!("{v:.prec$}"),
                Cell::Text(s) => s.clone(),
            });
            std::iter::once(key.clone()).chain(cells).collect()
        };
        let mut rows = vec![self.columns.iter().map(|c| c.0.clone()).collect::<Vec<_>>()];
        rows.extend(self.rows.iter().map(text));
        let numeric = |c| c > 0 && self.rows.iter().any(|r| matches!(r.1[c - 1], Cell::Num(_)));
        let width = |c: usize| rows.iter().map(|r| r[c].chars().count()).fold(3, usize::max);
        let columns: Vec<_> = (0..self.columns.len()).map(|c| (width(c), numeric(c))).collect();
        let line = |cells: &[String]| -> String {
            let padded = cells.iter().zip(&columns).map(|(cell, &(w, numeric))| match numeric {
                true => format!("| {cell:>w$} "),
                false => format!("| {cell:<w$} "),
            });
            padded.collect::<String>() + "|\n"
        };
        let rule = columns.iter().map(|&(w, numeric)| match numeric {
            true => format!("|{}:", "-".repeat(w + 1)),
            false => format!("|{}", "-".repeat(w + 2)),
        });
        write!(f, "**{}**\n\n{}{}|\n", self.title, line(&rows[0]), rule.collect::<String>())?;
        let body: String = rows[1..].iter().map(|r| line(r)).collect();
        match self.note.is_empty() {
            true => write!(f, "{}", body.trim_end()),
            false => write!(f, "{body}\n{}", self.note),
        }
    }
}

/// `tables` as the `mosaic-bench` binary prints a figure: each rendered,
/// a blank line between, ending in a newline.
pub fn render(tables: &[Table]) -> String {
    let all: Vec<String> = tables.iter().map(Table::to_string).collect();
    all.join("\n\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let heads = [("system", 0), ("cycles", 0), ("speedup", 2)];
        let mut t = Table::new("Fig. 0 — sample", &heads);
        t.row("1 IO", [100u64.into(), 1.0.into()]);
        t.row("4+4 IO DAE", [25u64.into(), 4.0.into()]);
        t.row("Accel.", ["—".into(), 117.314.into()]);
        t.with_note("(paper: ≈ 45×)")
    }

    #[test]
    fn renders_one_padded_markdown_table() {
        let expect = "\
**Fig. 0 — sample**

| system     | cycles | speedup |
|------------|-------:|--------:|
| 1 IO       |    100 |    1.00 |
| 4+4 IO DAE |     25 |    4.00 |
| Accel.     |      — |  117.31 |

(paper: ≈ 45×)";
        assert_eq!(sample().to_string(), expect);
        assert_eq!(render(&[sample(), sample()]), format!("{expect}\n\n{expect}\n"));
    }

    #[test]
    fn cells_are_found_by_label_row_key_and_head() {
        let t = sample();
        assert_eq!(t.label(), "Fig. 0");
        assert_eq!(t.num("4+4 IO DAE", "speedup"), Some(4.0));
        assert_eq!(t.num("Accel.", "cycles"), None, "a text cell is no number");
        assert_eq!(t.num("8 IO", "speedup"), None);
        assert_eq!(t.num("1 IO", "system"), None, "the key column holds no numbers");
        assert_eq!(t.column("cycles"), vec![("1 IO", 100.0), ("4+4 IO DAE", 25.0)]);
    }
}

//! JSON output for the ledger's files and result line.
//!
//! Parsing reuses `mosaic_obs::json` (the workspace is dependency-free, so
//! that hand-rolled parser is the one JSON reader the repo has); this
//! module adds the writer that crate lacks, plus small constructors.

use mosaicsim::obs::json::{escape, JsonValue};

/// A float as JSON. Non-finite values (a ratio over an empty layer) have
/// no JSON spelling and become 0.
pub fn num(v: f64) -> JsonValue {
    JsonValue::Num(if v.is_finite() { v } else { 0.0 })
}

/// A string as JSON.
pub fn string(s: impl Into<String>) -> JsonValue {
    JsonValue::Str(s.into())
}

/// An object from `(key, value)` pairs, in the given order.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders `value` on one line.
///
/// Floats are written with `{:?}` so that an integral float keeps its
/// `.0` and parses back as [`JsonValue::Num`], not [`JsonValue::Int`] —
/// `parse(render(v)) == v` holds for every finite value.
pub fn render(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Num(n) => out.push_str(&format!("{n:?}")),
        JsonValue::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\": ");
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Renders a top-level object with one entry per line (the layout of the
/// files under `out/`, which people read), nested values on one line.
pub fn render_lines(value: &JsonValue) -> String {
    let Some(entries) = value.as_object() else {
        return render(value) + "\n";
    };
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{}\": ", escape(k)));
        match v {
            // One array element per line: point lists, span lists.
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    write_value(item, &mut out);
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            // One metric per line.
            JsonValue::Obj(inner) if !inner.is_empty() => {
                out.push_str("{\n");
                for (j, (ik, iv)) in inner.iter().enumerate() {
                    out.push_str(&format!("    \"{}\": ", escape(ik)));
                    write_value(iv, &mut out);
                    out.push_str(if j + 1 < inner.len() { ",\n" } else { "\n" });
                }
                out.push_str("  }");
            }
            other => write_value(other, &mut out),
        }
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaicsim::obs::json::parse;

    #[test]
    fn both_layouts_round_trip() {
        let v = object([
            ("int", JsonValue::Int(u64::MAX)),
            ("whole_float", num(3.0)),
            ("small", num(1.25e-9)),
            ("text", string("a \"quoted\"\nline")),
            (
                "list",
                JsonValue::Arr(vec![JsonValue::Int(1), num(0.5), JsonValue::Null]),
            ),
            ("nested", object([("ok", JsonValue::Bool(true))])),
            ("empty", JsonValue::Arr(vec![])),
        ]);
        assert_eq!(parse(&render(&v)).expect("one-line form parses"), v);
        assert_eq!(parse(&render_lines(&v)).expect("line form parses"), v);
    }

    #[test]
    fn non_finite_numbers_become_zero() {
        assert_eq!(render(&num(f64::NAN)), "0.0");
        assert_eq!(render(&num(f64::INFINITY)), "0.0");
    }
}

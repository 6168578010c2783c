//! The ledger against its own declarations: `BENCHMARK.json`,
//! `workloads.json` and the metric tables agree, and a quick run of every
//! workload — untraced and traced — emits exactly the declared metrics
//! with no failed operation.

use std::path::{Path, PathBuf};

use mosaic_perf::cli::result_line;
use mosaic_perf::e2e::measure;
use mosaic_perf::jsonio::render_lines;
use mosaic_perf::layers::measure_layers;
use mosaic_perf::workloads::{Catalog, Size};
use mosaic_perf::{valid_name, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use mosaicsim::obs::json::{parse, JsonValue};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn text_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

#[test]
fn benchmark_json_matches_the_declarations() {
    let path = root().join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("`{key}`"))
    };
    let dir = root()
        .file_name()
        .expect("crate directory")
        .to_string_lossy()
        .into_owned();
    assert_eq!(list("paths"), [JsonValue::Str(dir.clone())]);
    let command: Vec<&str> = list("command")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(command, ["bash", &format!("{dir}/run.sh")]);
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let catalog = Catalog::load(&root()).expect("workloads.json loads");
    let declared: Vec<&str> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let defined: Vec<&str> = catalog.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(declared, WORKLOADS);
    assert_eq!(defined, WORKLOADS);
    for (w, spec) in list("workloads").iter().zip(&catalog.workloads) {
        assert_eq!(
            text_of(w, "why"),
            spec.why,
            "one reason per workload, stated once"
        );
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let e2e: Vec<(&str, &str, &str, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                bound,
            )
        })
        .collect();
    let want: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|&((n, u, b), bound)| (n, u, b.as_str(), bound))
        .collect();
    assert_eq!(e2e, want);
    assert!(e2e
        .iter()
        .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));

    let layers: Vec<(&str, &str, &str)> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let want: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n, u, b.as_str()))
        .collect();
    assert_eq!(layers, want);
    assert!(layers.len() <= 128);
}

#[test]
fn every_pinned_point_has_a_legal_unique_name() {
    let catalog = Catalog::load(&root()).expect("workloads.json loads");
    for w in &catalog.workloads {
        let mut ids: Vec<&str> = w
            .points
            .iter()
            .chain(w.warm.iter().map(|x| &x.point))
            .map(|p| p.id.as_str())
            .collect();
        assert!(ids.iter().all(|id| valid_name(id)), "{}: {ids:?}", w.name);
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "{}: duplicate point id", w.name);
        for p in w.points.iter().chain(w.warm.iter().map(|x| &x.point)) {
            assert!(
                p.pin.is_some() && p.quick_pin.is_some(),
                "{}/{} is not pinned",
                w.name,
                p.id
            );
        }
    }
    // The checked-in file is what `--repin` would write.
    let text = std::fs::read_to_string(root().join("workloads.json")).expect("readable");
    assert_eq!(catalog.to_text(), text);
}

fn assert_emits(result: &RunResult, want: &[(&str, &str)], what: &str) {
    assert_eq!(
        (result.failed, &result.failures),
        (0, &Vec::new()),
        "{what}"
    );
    assert!(result.attempted >= 1, "{what}");
    let got: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, want, "{what}");
    assert!(
        result
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && valid_name(m.name)),
        "{what}"
    );
    // The result line is one line of JSON with the contract's four keys.
    let line = result_line(result);
    let v = parse(&line).expect("result line parses");
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)), "{what}");
    assert_eq!(
        v.get("metrics")
            .and_then(JsonValue::as_object)
            .map(<[_]>::len),
        Some(want.len())
    );
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let catalog = Catalog::load(&root()).expect("workloads.json loads");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|&((n, u, _), _)| (n, u)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    for spec in &catalog.workloads {
        let m = measure(spec, Size::Quick, 1, 0.0, out, 1, 2).expect("untraced quick run");
        assert_emits(&m.result, &e2e, &spec.name);
        assert!(
            m.result.metrics.iter().all(|x| x.value > 0.0),
            "{}: end-to-end metrics are never 0",
            spec.name
        );
        assert_eq!(m.reps.len(), 2);

        let layered = measure_layers(spec, Size::Quick, 1, out).expect("traced quick run");
        assert_emits(&layered.result, &layers, &spec.name);
        let file = render_lines(&layered.trace_file);
        assert_eq!(
            parse(&file).expect("trace file parses"),
            layered.trace_file,
            "{}",
            spec.name
        );

        // The separation the workloads were chosen for.
        let value = |name: &str| {
            layered
                .result
                .metrics
                .iter()
                .find(|x| x.name == name)
                .map(|x| x.value)
                .expect(name)
        };
        let has_dae = spec.points.iter().any(|p| p.dae);
        assert_eq!(value("channel.sends") > 0.0, has_dae, "{}", spec.name);
        assert_eq!(value("channel.msgs") > 0.0, has_dae, "{}", spec.name);
        let observed = spec.points.iter().any(|p| p.obs != "off");
        assert_eq!(
            value("obs.timeline_events") > 0.0,
            observed,
            "{}",
            spec.name
        );
        assert_eq!(
            value("ckpt.saves") > 0.0,
            spec.points.iter().any(|p| p.ckpt_every.is_some()),
            "{}",
            spec.name
        );
        assert_eq!(
            value("bench.point_ms_p50") > 0.0,
            spec.sweep,
            "{}",
            spec.name
        );
        assert_eq!(
            value("ckpt.restore_ms") > 0.0,
            spec.sweep || value("ckpt.saves") > 0.0,
            "{}",
            spec.name
        );
        // Every span lies inside its parent.
        let spans = layered
            .trace_file
            .get("spans")
            .and_then(JsonValue::as_array)
            .expect("spans");
        let bounds = |s: &JsonValue| {
            let at = |k: &str| s.get(k).and_then(JsonValue::as_u64).expect("span bound");
            (at("start_ns"), at("end_ns"))
        };
        for s in spans {
            if let Some(parent) = s.get("parent").and_then(JsonValue::as_u64) {
                let (ps, pe) = bounds(&spans[parent as usize]);
                let (start, end) = bounds(s);
                assert!(
                    ps <= start && start <= end && end <= pe,
                    "{}: span outside its parent",
                    spec.name
                );
            }
        }
    }
}

//! `BENCHMARK.json` and this package must describe the same benchmark:
//! the same workloads, the same metric names, units and directions,
//! the same default run length.

use metro_benchmark::compare::bounds_from;
use metro_benchmark::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use metro_benchmark::workloads::WORKLOADS;
use metro_harness::Json;
use std::path::Path;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} has no {key}"))
}

fn check_metrics(listed: &Json, catalog: &[MetricDef]) {
    let listed = listed.as_arr().expect("a metric list");
    assert_eq!(listed.len(), catalog.len());
    for (entry, def) in listed.iter().zip(catalog) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(
            Better::from_name(text(entry, "better")),
            Some(def.better),
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_lists_this_package_s_workloads_and_metrics() {
    let doc = manifest();
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    check_metrics(doc.get("end_to_end").unwrap(), &END_TO_END);
    check_metrics(doc.get("per_layer").unwrap(), &PER_LAYER);
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr),
        Some(&[Json::from("benchmark")][..])
    );
    // The default `--seconds` is the run length the driver will pass.
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(30.0));
}

#[test]
fn every_end_to_end_metric_has_a_bound_the_contract_allows() {
    let bounds = bounds_from(&manifest()).unwrap();
    assert_eq!(bounds.len(), END_TO_END.len());
    for def in &END_TO_END {
        let b = bounds[def.name];
        assert!(
            b.bound > 0.0 && b.bound <= 0.25,
            "{}: {}",
            def.name,
            b.bound
        );
    }
    // Set-up time carries the largest bound: its spread is not gated,
    // only its drift.
    let largest = bounds.values().map(|b| b.bound).fold(0.0, f64::max);
    assert_eq!(bounds["setup_s"].bound, largest);
}

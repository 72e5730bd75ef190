//! A 1/50-scale smoke run of the real binary: all four workloads, both
//! passes, the whole-benchmark mode and `--compare`. It validates the
//! shape of everything the benchmark prints and writes; smoke numbers
//! are never recorded.

use metro_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use metro_benchmark::trace::{layer_times, spans_from_json};
use metro_benchmark::workloads::WORKLOADS;
use metro_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_metro-benchmark");

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke(extra: &[&str], out_dir: &Path) -> Output {
    Command::new(EXE)
        .args(["--seed", "7", "--seconds", "0.2", "--scale", "50"])
        .arg("--out-dir")
        .arg(out_dir)
        .args(extra)
        .output()
        .expect("the benchmark binary starts")
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

/// The last stdout line must be the contract object, carrying exactly
/// the catalog's metrics with their units.
fn check_contract_line(stdout: &str, catalog: &[MetricDef], never_zero: bool) {
    let line = stdout.lines().last().expect("the run printed something");
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"));
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = doc.get("metrics").unwrap();
    let expected: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(keys(metrics), expected);
    for def in catalog {
        let m = metrics.get(def.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"], "{}", def.name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{}: {value:?}", def.name);
        if never_zero {
            assert_ne!(value, Some(0.0), "{} must never read 0", def.name);
        }
    }
}

/// The result document `--compare` reads: every metric with its unit,
/// direction and sample statistics, the host record, the op tally.
fn check_result_doc(doc: &Json, workload: &str, catalog: &[MetricDef]) {
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some(workload));
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(doc.get("scale").and_then(Json::as_f64), Some(50.0));
    assert_eq!(doc.get("ops_failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        keys(doc.get("host").unwrap()),
        ["nproc", "cpu_model", "rustc", "git"]
    );
    let metrics = doc.get("metrics").unwrap();
    for def in catalog {
        let m = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{workload}: no {}", def.name));
        assert_eq!(
            keys(m),
            [
                "unit",
                "better",
                "value",
                "statistic",
                "n",
                "min",
                "q1",
                "median",
                "q3",
                "max"
            ]
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(def.better.name())
        );
        let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap();
        assert!(num("n") >= 1.0);
        assert!((num("min")..=num("max")).contains(&num("value")));
        assert!(
            num("min") <= num("q3") && num("q1") <= num("max"),
            "{}",
            def.name
        );
    }
}

#[test]
fn every_workload_runs_both_passes_and_prints_the_contract_line() {
    let dir = out_dir("single");
    for w in &WORKLOADS {
        for (trace, catalog) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let run = smoke(&["--workload", w.name, "--trace", trace], &dir);
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{} --trace {trace}: {stdout}\n{}",
                w.name,
                String::from_utf8_lossy(&run.stderr)
            );
            // Every metric is printed by name with its unit.
            for def in catalog {
                assert!(
                    stdout.lines().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(def.name) && words.nth(1) == Some(def.unit)
                    }),
                    "{} is not listed with its unit:\n{stdout}",
                    def.name
                );
            }
            assert!(stdout.contains("ops_attempted"), "{stdout}");
            check_contract_line(&stdout, catalog, trace == "0");
            let doc = read_json(&dir.join(format!("{}.trace{trace}.json", w.name)));
            check_result_doc(&doc, w.name, catalog);
        }
        // The trace file loads back and its self times add up.
        let trace = read_json(&dir.join(format!("{}.trace.json", w.name)));
        let spans = spans_from_json(&trace).unwrap();
        let layers = layer_times(&spans);
        // One root span per traced run; every run ticks.
        assert!(layers["run"].spans >= 5, "{:?}", layers["run"]);
        assert!(layers["sim.engine.tick"].spans >= layers["run"].spans);
        assert!(layers["sim.engine.tick"].total_ns > 0);
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum();
        let selves: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(selves, roots, "self times must add up to the roots");
    }
    // Nothing but results is left behind: the scratch directory is gone.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn the_whole_benchmark_writes_a_file_compare_can_judge() {
    let dir = out_dir("all");
    let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut files = Vec::new();
    for name in ["a.json", "b.json"] {
        let file = dir.join(name);
        let run = smoke(&["--out", file.to_str().unwrap()], &dir);
        assert!(
            run.status.success(),
            "{}\n{}",
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        let doc = read_json(&file);
        let workloads = doc.get("workloads").unwrap();
        assert_eq!(keys(workloads), WORKLOADS.map(|w| w.name));
        for w in &WORKLOADS {
            let metrics = workloads.get(w.name).unwrap().get("metrics").unwrap();
            assert_eq!(keys(metrics).len(), END_TO_END.len() + PER_LAYER.len());
        }
        files.push(file);
    }
    let compared = Command::new(EXE)
        .arg("--compare")
        .args(&files)
        .arg("--bounds")
        .arg(&bounds)
        .output()
        .unwrap();
    // Smoke-scale timings are noise, so the verdicts may be anything;
    // the table must still hold a row per workload and metric.
    assert!(matches!(compared.status.code(), Some(0 | 1)));
    let table = String::from_utf8_lossy(&compared.stdout);
    assert_eq!(
        table.lines().count(),
        1 + WORKLOADS.len() * END_TO_END.len()
    );
    // Simulated metrics are exact: same seed, same numbers, always ok.
    for line in table
        .lines()
        .filter(|l| l.contains(" sim_p95_latency_cyc "))
    {
        assert!(line.contains("1.0000x") && line.ends_with("ok"), "{line}");
    }
}

#[test]
fn an_unknown_workload_prints_no_result() {
    let dir = out_dir("bad");
    let run = smoke(&["--workload", "no-such-workload"], &dir);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}

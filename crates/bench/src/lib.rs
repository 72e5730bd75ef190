//! # metro-bench — regeneration harness for every table and figure
//!
//! Every paper artifact is an entry in the [`artifacts`] registry,
//! fronted by the single `metro` CLI:
//!
//! ```text
//! cargo run --release -p metro-bench --bin metro -- list
//! cargo run --release -p metro-bench --bin metro -- run fig3 --quick --jobs 8
//! cargo run --release -p metro-bench --bin metro -- run --all --quick
//! ```
//!
//! Each run prints the human report, writes machine-readable
//! `results/<artifact>.json`, and appends a record (git revision,
//! wall-clock, point count, worker count, parameters) to
//! `results/manifest.json`.
//!
//! | artifact | reproduces |
//! |----------|------------|
//! | `fig1` | Figure 1 — the 16×16 multipath network and its path structure |
//! | `fig3` | Figure 3 — latency versus load on the 3-stage radix-4 network |
//! | `table2` | Table 2 — configuration options and scan-register bit budget |
//! | `table3` | Table 3 — METRO implementation examples (`t_20,32`) |
//! | `table4` | Table 4 — the latency equations, worked through |
//! | `table5` | Table 5 — contemporary routing technologies |
//! | `fault_sweep` | §6.2 — performance degradation under faults |
//! | `chaos` | §5.1/§5.3 — fault-storm campaigns against the self-healing loop |
//! | `ablation_selection` | random vs round-robin vs fixed output selection |
//! | `ablation_reclaim` | fast vs detailed path reclamation |
//! | `ablation_dilation` | dilated multipath vs non-dilated network |
//! | `ablation_pipelining` | `hw`/`dp`/wire-delay pipelining options |
//! | `ablation_concurrency` | one vs two transmit engines per endpoint |
//! | `traffic_patterns` | uniform / hotspot / transpose / bit-reversal |
//! | `scaling` | 16 → 256 endpoints at fixed router technology |
//! | `cascade_sim` | cascade width: simulated cycles vs the Table 4 model |
//! | `occupancy` | per-router load balance, uniform vs hotspot |
//! | `fattree_budget` | fat-tree router budgets from METRO parts |
//! | `message_sizes` | size sweeps and implementation crossovers |

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod chaos_cli;
pub mod report_cli;
pub mod scenario_cli;
pub mod scenarios;

use metro_harness::{Json, Registry, ResultsDir, ResultsError};
use metro_sim::experiment::{FaultSweepPoint, LoadPoint};

/// Builds the full artifact registry (all 19 paper artifacts).
#[must_use]
pub fn registry() -> Registry {
    artifacts::registry()
}

/// Renders a latency-versus-load table in a fixed-width layout shared
/// by the sweep binaries.
#[must_use]
pub fn render_load_points(points: &[LoadPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>9} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "offered", "accepted", "mean(cyc)", "p50", "p95", "retries/msg", "delivered"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for p in points {
        let _ = writeln!(
            out,
            "{:>8.3} {:>9.3} {:>10.1} {:>8} {:>8} {:>12.3} {:>10}",
            p.offered,
            p.accepted,
            p.mean_latency,
            p.p50_latency,
            p.p95_latency,
            p.retries_per_message,
            p.delivered
        );
    }
    out
}

/// A simple ASCII plot of latency versus load for terminal output.
#[must_use]
pub fn ascii_curve(points: &[LoadPoint], height: usize) -> String {
    if points.is_empty() {
        return String::new();
    }
    let max = points
        .iter()
        .map(|p| p.mean_latency)
        .fold(f64::MIN, f64::max);
    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold = max * (row as f64 + 0.5) / height as f64;
        let line: String = points
            .iter()
            .map(|p| {
                if p.mean_latency >= threshold {
                    '█'
                } else {
                    ' '
                }
            })
            .collect();
        out.push_str(&format!(
            "{:>8.0} |{}\n",
            max * (row as f64 + 1.0) / height as f64,
            line
        ));
    }
    out.push_str(&format!("         +{}\n", "-".repeat(points.len())));
    out.push_str(&format!(
        "          load {:.2} .. {:.2}\n",
        points[0].offered,
        points[points.len() - 1].offered
    ));
    out
}

/// Renders load points as CSV (offered, accepted, mean, p50, p95,
/// retries, delivered) for plotting.
#[must_use]
pub fn load_points_csv(points: &[LoadPoint]) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("offered,accepted,mean_latency,p50,p95,retries_per_message,delivered\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            p.offered,
            p.accepted,
            p.mean_latency,
            p.p50_latency,
            p.p95_latency,
            p.retries_per_message,
            p.delivered
        );
    }
    out
}

/// Renders load points as a JSON array for the results layer.
#[must_use]
pub fn load_points_json(points: &[LoadPoint]) -> Json {
    Json::arr(points.iter().map(|p| {
        Json::obj([
            ("offered", Json::from(p.offered)),
            ("accepted", Json::from(p.accepted)),
            ("mean_latency", Json::from(p.mean_latency)),
            ("p50_latency", Json::from(p.p50_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("mean_network_latency", Json::from(p.mean_network_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("delivered", Json::from(p.delivered)),
        ])
    }))
}

/// Renders fault-sweep points as a JSON array for the results layer.
#[must_use]
pub fn fault_points_json(points: &[FaultSweepPoint]) -> Json {
    Json::arr(points.iter().map(|p| {
        Json::obj([
            ("dead_routers", Json::from(p.dead_routers)),
            ("dead_links", Json::from(p.dead_links)),
            ("mean_latency", Json::from(p.mean_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("accepted", Json::from(p.accepted)),
            ("delivered", Json::from(p.delivered)),
            ("abandoned", Json::from(p.abandoned)),
        ])
    }))
}

/// Writes a CSV artifact under `results/`, creating the directory if
/// missing.
///
/// # Errors
///
/// Returns a typed [`ResultsError`] naming the failing path (not a bare
/// `io::Error` silently tied to the working directory).
pub fn write_result_csv(name: &str, csv: &str) -> Result<std::path::PathBuf, ResultsError> {
    write_result_csv_in(&ResultsDir::standard(), name, csv)
}

/// [`write_result_csv`] into an explicit results directory (tests point
/// this at a temporary location).
///
/// # Errors
///
/// Returns a typed [`ResultsError`] naming the failing path.
pub fn write_result_csv_in(
    dir: &ResultsDir,
    name: &str,
    csv: &str,
) -> Result<std::path::PathBuf, ResultsError> {
    dir.write_text(name, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered: f64, mean: f64) -> LoadPoint {
        LoadPoint {
            offered,
            accepted: offered,
            mean_latency: mean,
            p50_latency: mean as u64,
            p95_latency: (mean * 2.0) as u64,
            mean_network_latency: mean,
            retries_per_message: 0.1,
            delivered: 100,
        }
    }

    #[test]
    fn load_points_render_one_line_each() {
        let s = render_load_points(&[point(0.1, 30.0), point(0.5, 90.0)]);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("0.100"));
    }

    #[test]
    fn ascii_curve_has_requested_height() {
        let s = ascii_curve(&[point(0.1, 30.0), point(0.5, 90.0)], 5);
        assert_eq!(s.lines().count(), 7);
    }

    #[test]
    fn ascii_curve_empty_is_empty() {
        assert!(ascii_curve(&[], 5).is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = load_points_csv(&[point(0.1, 30.0)]);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("offered,"));
        assert!(lines.next().unwrap().starts_with("0.1,"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn json_points_mirror_the_struct() {
        let doc = load_points_json(&[point(0.1, 30.0)]);
        let row = &doc.as_arr().unwrap()[0];
        assert_eq!(row.get("offered").and_then(Json::as_f64), Some(0.1));
        assert_eq!(row.get("delivered").and_then(Json::as_f64), Some(100.0));
        // And it survives the writer/parser round-trip.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn write_result_csv_creates_missing_directory() {
        let root = std::env::temp_dir().join(format!(
            "metro-bench-csv-{}/nested/results",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let dir = ResultsDir::new(&root);
        let path = write_result_csv_in(&dir, "t.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(root.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn write_result_csv_reports_a_typed_error() {
        // A file where the directory should be forces a creation error
        // that names the offending path.
        let base = std::env::temp_dir().join(format!("metro-bench-block-{}", std::process::id()));
        std::fs::write(&base, "occupied").unwrap();
        let dir = ResultsDir::new(base.join("results"));
        match write_result_csv_in(&dir, "t.csv", "x") {
            Err(ResultsError::Io { path, .. }) => assert!(path.starts_with(&base)),
            other => panic!("expected typed Io error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&base);
    }

    #[test]
    fn registry_holds_all_nineteen_artifacts() {
        assert_eq!(
            registry().names(),
            [
                "fig1",
                "fig3",
                "table2",
                "table3",
                "table4",
                "table5",
                "fault_sweep",
                "chaos",
                "ablation_selection",
                "ablation_reclaim",
                "ablation_dilation",
                "ablation_pipelining",
                "ablation_concurrency",
                "traffic_patterns",
                "scaling",
                "cascade_sim",
                "occupancy",
                "fattree_budget",
                "message_sizes",
            ]
        );
    }
}

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

use metro_harness::Registry;
use metro_sim::experiment::LoadPoint;

/// Builds the full artifact registry (all 19 paper artifacts).
#[must_use]
pub fn registry() -> Registry {
    artifacts::registry()
}

/// A verb's entry point: its arguments (the verb itself stripped) to
/// the process exit code.
type VerbFn = fn(&[String]) -> i32;

/// The verbs `metro` dispatches itself — name, entry point, and the
/// line `metro help` prints — before the harness's `list` and `run`.
const VERBS: [(&str, VerbFn, &str); 4] = [
    (
        "scenario",
        scenario_cli::main,
        "run | dump | validate | fuzz declarative scenario files",
    ),
    (
        "resume",
        scenario_cli::resume_main,
        "continue an interrupted checkpointed scenario run",
    ),
    (
        "chaos",
        chaos_cli::main,
        "fault-storm campaigns: the chaos artifact, its storm as flags",
    ),
    (
        "report",
        report_cli::main,
        "per-stage tables from telemetry sidecars",
    ),
];

/// The `metro` binary: dispatches `args` (without the program name) to
/// one of [`VERBS`] or to the harness, and returns the exit code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let verb = args.first().map(String::as_str);
    if let Some((_, entry, _)) = VERBS.iter().find(|(name, ..)| Some(*name) == verb) {
        return entry(&args[1..]);
    }
    let help = VERBS.map(|(name, _, help)| (name, help));
    metro_harness::cli::main_with(&registry(), args, &help)
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
    fn top_level_help_lists_every_dispatched_verb() {
        let help = VERBS.map(|(name, _, help)| (name, help));
        let usage = metro_harness::cli::usage(&help);
        for verb in ["list", "run", "scenario", "resume", "chaos", "report"] {
            assert!(usage.contains(&format!("\n  metro {verb} ")), "{verb}");
        }
        // Each verb answers for itself; an unknown one is the harness's
        // usage error.
        let run = |args: &[&str]| main(&args.iter().map(ToString::to_string).collect::<Vec<_>>());
        for (verb, ..) in VERBS {
            assert_eq!(run(&[verb, "--help"]), 0, "{verb}");
        }
        assert_eq!(run(&["frobnicate"]), 2);
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

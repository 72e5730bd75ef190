//! Differential validation of the analytic estimator: every scenario in
//! the checked-in corpus is replayed cycle-accurately on the flat
//! engine and estimated analytically, and the estimator's latency
//! quantiles must stay within bounds (p50 ≤15%, p95 ≤25%) of the
//! ground truth, and its accepted load within 1% — the accuracy
//! contract CI enforces. Both count the same window: the messages
//! requested from the warmup on. Retries per message are printed beside
//! them, unbounded: the estimator samples about half the engines'.

use metro_sim::engine::analytic::estimate_scenario;
use metro_sim::scenario::{codec, run_scenario, Run, Scenario, ScenarioResult, WorkloadSpec};
use metro_sim::workload::{ArrivalProcess, TraceEntry, WorkloadDriver};
use metro_sim::LatencyStats;
use std::path::PathBuf;

/// Maximum relative error at the median.
const P50_BOUND: f64 = 0.15;
/// Maximum relative error at the 95th percentile.
const P95_BOUND: f64 = 0.25;
/// Maximum relative error of the accepted load: the estimator replays
/// the engines' exact arrivals and counts the same window, so only a
/// message still in flight at the end of one and not the other differs.
const ACCEPTED_BOUND: f64 = 0.01;

fn corpus() -> Vec<(String, Scenario)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (name, codec::from_text(&text).unwrap())
        })
        .collect()
}

fn rel_err(estimate: u64, truth: u64) -> f64 {
    if truth == 0 {
        return if estimate == 0 { 0.0 } else { f64::INFINITY };
    }
    (estimate as f64 - truth as f64).abs() / truth as f64
}

/// Total latencies of `result`'s kept outcomes requested from
/// `scenario`'s warmup on — the window `NetworkSim` and the estimator
/// measure (a `Sends` workload has no warmup).
fn measured_latencies(scenario: &Scenario, result: &ScenarioResult) -> LatencyStats {
    let warmup = match scenario.workload {
        WorkloadSpec::Load { warmup, .. } => warmup,
        WorkloadSpec::Sends { .. } => 0,
    };
    let mut h = LatencyStats::new();
    for o in result.outcomes.iter().filter(|o| o.requested_at >= warmup) {
        h.record(o.total_latency());
    }
    h
}

/// What the test compares of a result.
#[derive(Debug, Clone, Copy)]
struct Figures {
    p50: u64,
    p95: u64,
    /// Accepted load and retries per message: a `Load` workload's point
    /// only.
    load: Option<(f64, f64)>,
}

/// A result's figures: the load point's for `Load` workloads, the kept
/// outcomes' quantiles for `Sends`.
fn figures(scenario: &Scenario, result: &ScenarioResult) -> Figures {
    match &result.point {
        Some(p) => Figures {
            p50: p.p50_latency,
            p95: p.p95_latency,
            load: Some((p.accepted, p.retries_per_message)),
        },
        None => {
            let h = measured_latencies(scenario, result);
            Figures {
                p50: h.percentile(50.0),
                p95: h.percentile(95.0),
                load: None,
            }
        }
    }
}

/// Ground-truth figures from a cycle-accurate replay, its outcomes kept
/// for a `Sends` workload.
fn truth_figures(scenario: &Scenario) -> Figures {
    let mut run = Run::of(scenario, None).expect("corpus scenario must replay");
    run.keep_outcomes();
    while run.step() {}
    figures(scenario, &run.finish().0)
}

#[test]
fn estimator_tracks_the_flat_engine_across_the_corpus() {
    let mut violations = Vec::new();
    for (name, scenario) in corpus() {
        let est = estimate_scenario(&scenario).expect("corpus scenario must estimate");
        let (estimate, truth) = (figures(&scenario, &est), truth_figures(&scenario));
        let (est_p50, est_p95, true_p50, true_p95) =
            (estimate.p50, estimate.p95, truth.p50, truth.p95);
        let (e50, e95) = (rel_err(est_p50, true_p50), rel_err(est_p95, true_p95));
        print!(
            "{name:>14}: p50 {est_p50:>4} vs {true_p50:>4} ({:>5.1}%)  p95 {est_p95:>4} vs {true_p95:>4} ({:>5.1}%)",
            e50 * 100.0,
            e95 * 100.0
        );
        if let (Some((est_acc, est_retries)), Some((true_acc, true_retries))) =
            (estimate.load, truth.load)
        {
            let e_acc = (est_acc - true_acc).abs() / true_acc;
            println!(
                "  accepted {est_acc:.5} vs {true_acc:.5} ({:>5.2}%)  retries/msg {est_retries:.3} vs {true_retries:.3}",
                e_acc * 100.0
            );
            if e_acc > ACCEPTED_BOUND {
                violations.push(format!(
                    "{name}: accepted load estimate {est_acc} vs truth {true_acc} ({:.2}% > {:.0}%)",
                    e_acc * 100.0,
                    ACCEPTED_BOUND * 100.0
                ));
            }
        } else {
            println!();
        }
        if e50 > P50_BOUND {
            violations.push(format!(
                "{name}: p50 estimate {est_p50} vs truth {true_p50} ({:.1}% > {:.0}%)",
                e50 * 100.0,
                P50_BOUND * 100.0
            ));
        }
        if e95 > P95_BOUND {
            violations.push(format!(
                "{name}: p95 estimate {est_p95} vs truth {true_p95} ({:.1}% > {:.0}%)",
                e95 * 100.0,
                P95_BOUND * 100.0
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "estimator out of bounds:\n{}",
        violations.join("\n")
    );
}

#[test]
fn metro1k_estimate_quantiles_are_pinned() {
    // The estimator is deterministic: these are its exact total-latency
    // p50/p95/p99 for scenarios/metro1k.json, so a change to the
    // analytic model shows up here by name, not only as drift inside
    // the accuracy bounds above. (The p95 was 73 while the window was
    // the messages completed from the warmup on.)
    let (_, scenario) = corpus()
        .into_iter()
        .find(|(name, _)| name == "metro1k")
        .expect("metro1k in corpus");
    let est = estimate_scenario(&scenario).unwrap();
    let latencies = measured_latencies(&scenario, &est);
    assert_eq!(
        [50.0, 95.0, 99.0].map(|q| latencies.percentile(q)),
        [24, 72, 99]
    );
}

#[test]
fn load_estimate_digests_are_pinned() {
    // The estimator is deterministic: these are the digests of its
    // outcomes for every corpus `Load` scenario, so a change to the
    // replay order or the arrival draws shows up here by name.
    let mut digests = Vec::new();
    for (name, scenario) in corpus() {
        if matches!(scenario.workload, WorkloadSpec::Load { .. }) {
            let est = estimate_scenario(&scenario).unwrap();
            digests.push((name, est.outcomes.len(), est.outcomes.digest()));
        }
    }
    let digests: Vec<(&str, usize, u64)> = digests
        .iter()
        .map(|(name, len, digest)| (name.as_str(), *len, *digest))
        .collect();
    assert_eq!(
        digests,
        [
            ("figure3_load", 1709, 0x2006_bbf7_ff97_4f74),
            ("hotspot_burst", 210, 0x0380_558a_3d16_21ee),
            ("metro1k", 6409, 0x4d80_e751_d8b2_1ed0),
            ("trace_replay", 60, 0xbfbf_3e9c_8614_6224),
        ]
    );
}

#[test]
fn a_traces_same_cycle_entries_are_estimated_in_recorded_order() {
    // The driver replays a trace by cycle, same-cycle entries in the
    // order they were recorded, and the estimator requests them in the
    // driver's order, not by source.
    let (_, mut scenario) = corpus()
        .into_iter()
        .find(|(name, _)| name == "trace_replay")
        .expect("trace_replay in corpus");
    let WorkloadSpec::Load { arrival, .. } = &mut scenario.workload else {
        panic!("trace_replay is a load workload");
    };
    let entries = vec![
        TraceEntry {
            at: 8,
            src: 5,
            dest: 1,
            payload_words: 3,
        },
        TraceEntry {
            at: 8,
            src: 2,
            dest: 6,
            payload_words: 4,
        },
        TraceEntry {
            at: 3,
            src: 7,
            dest: 0,
            payload_words: 2,
        },
    ];
    *arrival = ArrivalProcess::Trace(entries.clone());
    let mut driver = WorkloadDriver::replay(&entries);
    let mut polled = Vec::new();
    for cycle in 0..10 {
        driver.poll(cycle, |a| polled.push((cycle, a.src, a.payload_words)));
    }
    assert_eq!(polled, [(3, 7, 2), (8, 5, 3), (8, 2, 4)]);
    let est = estimate_scenario(&scenario).unwrap();
    let requested: Vec<(u64, usize, usize)> = est
        .outcomes
        .iter()
        .map(|o| (o.requested_at, o.src, o.payload_words))
        .collect();
    assert_eq!(requested, polled);
}

#[test]
fn analytic_scenarios_dispatch_through_run_scenario() {
    // Flipping a corpus scenario's engine to analytic must route
    // run_scenario to the estimator and reproduce estimate_scenario's
    // result exactly.
    let (_, mut scenario) = corpus()
        .into_iter()
        .find(|(name, _)| name == "figure1")
        .expect("figure1 in corpus");
    scenario.sim.engine = metro_sim::EngineKind::Analytic;
    let via_run = run_scenario(&scenario).unwrap();
    let direct = estimate_scenario(&scenario).unwrap();
    assert_eq!(via_run, direct);
    assert!(via_run.delivered > 0);
}

#[test]
fn estimator_counts_match_the_load_replay() {
    // The estimator replays the exact arrival streams, so for Load
    // scenarios its message population must be close to the flat
    // engine's (small slack: in-flight boundary effects).
    for (name, scenario) in corpus() {
        if !matches!(scenario.workload, WorkloadSpec::Load { .. }) {
            continue;
        }
        let est = estimate_scenario(&scenario).unwrap();
        let truth = run_scenario(&scenario).unwrap();
        let (e, t) = (est.outcomes.len() as f64, truth.outcomes.len() as f64);
        assert!(
            (e - t).abs() / t < 0.1,
            "{name}: estimated {e} outcomes vs {t} simulated"
        );
    }
}

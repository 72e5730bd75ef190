//! §6.2: "performance degrades robustly in the face of faults".
//! Kills growing numbers of routers and links in the Figure 3 network
//! under moderate load and reports latency, retries, throughput, and
//! message loss (there must be none).

use metro_harness::{Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::{fault_sweep_jobs, run_fault_sim, sweep_point, FaultSweepPoint};
use metro_sim::scenario::WorkloadSpec;
use std::fmt::Write as _;

/// The `(dead_routers, dead_links)` grid.
pub const GRID: [(usize, usize); 9] = [
    (0, 0),
    (1, 0),
    (2, 0),
    (4, 0),
    (0, 4),
    (0, 8),
    (2, 4),
    (4, 8),
    (6, 12),
];

/// Offered load during the sweep.
pub const LOAD: f64 = 0.3;

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "fault_sweep",
        description: "§6.2 — performance degradation under router/link faults",
        quick_profile: "9 fault points at load 0.3, 500 warmup / 3k measured cycles",
        full_profile: "9 fault points at load 0.3, 2k warmup / 12k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let sweep = crate::scenarios::sweep_for("fault_sweep", ctx.quick);
    let WorkloadSpec::Load {
        warmup, measure, ..
    } = sweep.workload
    else {
        unreachable!("the fault sweep offers a load")
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Fault-degradation sweep (Figure 3 network, load {LOAD}) ===\n"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>7} {:>11} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "routers", "links", "mean(cyc)", "p95", "retries/msg", "accepted", "delivered", "lost"
    );
    let _ = writeln!(out, "{}", "-".repeat(84));

    let points = fault_sweep_jobs(&sweep, LOAD, &GRID, ctx.jobs);
    let mut baseline = None;
    for p in &points {
        if p.dead_routers == 0 && p.dead_links == 0 {
            baseline = Some(p.mean_latency);
        }
        let _ = writeln!(
            out,
            "{:>8} {:>7} {:>11.1} {:>8} {:>12.3} {:>10.4} {:>10} {:>10}",
            p.dead_routers,
            p.dead_links,
            p.mean_latency,
            p.p95_latency,
            p.retries_per_message,
            p.accepted,
            p.delivered,
            p.abandoned
        );
    }
    if let Some(base) = baseline {
        let _ = writeln!(
            out,
            "\nrobust degradation: latency grows gradually from the {base:.1}-cycle baseline;\nstochastic path selection + source retry deliver every message (lost = 0)."
        );
    }

    let lost: u64 = points.iter().map(|p| p.abandoned).sum();
    let json = Json::obj([
        ("artifact", Json::from("fault_sweep")),
        ("topology", Json::from("figure3")),
        ("load", Json::from(LOAD)),
        ("warmup_cycles", Json::from(warmup)),
        ("measured_cycles", Json::from(measure)),
        ("seed", Json::from(sweep.seed)),
        ("messages_lost", Json::from(lost)),
        (
            "points",
            Json::arr(points.iter().map(FaultSweepPoint::to_json)),
        ),
    ]);
    let params = Json::obj([
        ("load", Json::from(LOAD)),
        ("measure", Json::from(measure)),
        ("grid", Json::from(GRID.len())),
    ]);
    // The sweep's network and load as a declarative scenario. (The
    // grid cells themselves are fault points with their own arrival
    // RNG discipline; the sidecar records the fault-free
    // configuration they all share.)
    let scenario = sweep.at_load(LOAD);
    // Telemetry sidecar: the fault-free baseline cell (grid index 0)
    // with its sweep seed, so the snapshot matches the table's first
    // row.
    let sim = run_fault_sim(&sweep_point(&sweep, 0, LOAD), 0, 0);
    Ok(ArtifactOutput {
        human: out,
        json,
        points: points.len(),
        params,
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: Some(sim.telemetry_snapshot("fault_sweep").to_json()),
    })
}

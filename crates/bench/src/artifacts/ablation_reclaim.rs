//! Ablation: fast path reclamation (BCB teardown) versus detailed
//! turn-time replies on blocked connections (paper §5.1, "Path
//! Reclamation — Fast and Detailed").

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::run_load_point;
use std::fmt::Write as _;

const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_reclaim",
        description: "fast vs detailed path reclamation under rising load",
        quick_profile: "2 modes × 3 loads, 2.5k measured cycles",
        full_profile: "2 modes × 3 loads, 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cfg = crate::scenarios::sweep_for("ablation_reclaim", ctx.quick);

    // One worker item per (mode, load) combination; common master seed
    // keeps the comparison paired.
    let combos: Vec<(bool, f64)> = [true, false]
        .iter()
        .flat_map(|&fast| LOADS.iter().map(move |&l| (fast, l)))
        .collect();
    let results = par_map(ctx.jobs, &combos, |_, &(fast, load)| {
        let mut cfg = cfg.clone();
        cfg.sim.fast_reclaim = fast;
        run_load_point(&cfg, load)
    });

    let mut out = String::new();
    let _ = writeln!(out, "=== Ablation: fast vs detailed path reclamation ===\n");
    let _ = writeln!(
        out,
        "{:>9} {:>6} {:>11} {:>8} {:>12} {:>10}",
        "mode", "load", "mean(cyc)", "p95", "retries/msg", "delivered"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    let mut rows = Vec::new();
    for ((fast, load), p) in combos.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{:>9} {:>6.1} {:>11.1} {:>8} {:>12.3} {:>10}",
            if *fast { "fast" } else { "detailed" },
            load,
            p.mean_latency,
            p.p95_latency,
            p.retries_per_message,
            p.delivered
        );
        rows.push(Json::obj([
            ("mode", Json::from(if *fast { "fast" } else { "detailed" })),
            ("load", Json::from(*load)),
            ("mean_latency", Json::from(p.mean_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("delivered", Json::from(p.delivered)),
        ]));
    }
    let _ = writeln!(
        out,
        "\nexpected shape: identical at low load (nothing blocks); as load grows,"
    );
    let _ = writeln!(
        out,
        "fast reclamation frees blocked paths sooner — lower latency and higher"
    );
    let _ = writeln!(
        out,
        "delivered throughput near saturation (\"Fast path reclamation allows"
    );
    let _ = writeln!(
        out,
        "stochastic search for non-faulty, uncongested paths to proceed rapidly\")."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("ablation_reclaim")),
        ("topology", Json::from("figure3")),
        ("measured_cycles", Json::from(cfg.measure)),
        ("seed", Json::from(cfg.seed)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = cfg.load_scenario("ablation_reclaim", LOADS[1]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("measure", Json::from(cfg.measure))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

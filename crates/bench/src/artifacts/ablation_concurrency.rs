//! Ablation: one transmit engine versus two. The Figure 3 caption
//! restricts each endpoint "to only use one of its entering network
//! ports at a time" — the parallelism-limited model; this experiment
//! measures what the restriction costs.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::run_load_point;
use std::fmt::Write as _;

const LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_concurrency",
        description: "one vs two transmit engines per endpoint",
        quick_profile: "2 engine counts × 3 loads, 2.5k measured cycles",
        full_profile: "2 engine counts × 3 loads, 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cfg = crate::scenarios::sweep_for("ablation_concurrency", ctx.quick);

    let combos: Vec<(usize, f64)> = [1usize, 2]
        .iter()
        .flat_map(|&engines| LOADS.iter().map(move |&l| (engines, l)))
        .collect();
    let results = par_map(ctx.jobs, &combos, |_, &(engines, load)| {
        let mut cfg = cfg.clone();
        cfg.sim.endpoint.max_concurrent = engines;
        run_load_point(&cfg, load)
    });

    let mut out = String::new();
    let _ = writeln!(out, "=== Ablation: transmit engines per endpoint ===\n");
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>11} {:>8} {:>12} {:>10}",
        "engines", "load", "mean(cyc)", "p95", "retries/msg", "delivered"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    let mut rows = Vec::new();
    for ((engines, load), p) in combos.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{engines:>8} {load:>6.1} {:>11.1} {:>8} {:>12.3} {:>10}",
            p.mean_latency, p.p95_latency, p.retries_per_message, p.delivered
        );
        rows.push(Json::obj([
            ("engines", Json::from(*engines)),
            ("load", Json::from(*load)),
            ("mean_latency", Json::from(p.mean_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("delivered", Json::from(p.delivered)),
        ]));
    }
    let _ = writeln!(
        out,
        "\nexpected shape: identical until a single engine saturates (~0.55 of"
    );
    let _ = writeln!(
        out,
        "capacity); past that, the second engine converts queueing delay into"
    );
    let _ = writeln!(
        out,
        "delivered throughput — at the cost of more in-network contention."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("ablation_concurrency")),
        ("topology", Json::from("figure3")),
        ("measured_cycles", Json::from(cfg.measure)),
        ("seed", Json::from(cfg.seed)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = cfg.load_scenario("ablation_concurrency", LOADS[2]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("measure", Json::from(cfg.measure))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

//! Traffic-pattern study: the Figure 3 network under the standard
//! multistage-network adversaries — uniform random (the paper's
//! workload), hotspot concentration, matrix transpose, and bit
//! reversal.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::run_load_point;
use metro_sim::TrafficPattern;
use std::fmt::Write as _;

const LOADS: [f64; 2] = [0.2, 0.4];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "traffic_patterns",
        description: "uniform / hotspot / transpose / bit-reversal workloads",
        quick_profile: "4 patterns × 2 loads, 2.5k measured cycles",
        full_profile: "4 patterns × 2 loads, 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cfg = crate::scenarios::sweep_for("traffic_patterns", ctx.quick);

    let patterns: [(&str, TrafficPattern); 4] = [
        ("uniform", TrafficPattern::Uniform),
        (
            "hotspot 20%",
            TrafficPattern::Hotspot {
                target: 0,
                percent: 20,
            },
        ),
        ("transpose", TrafficPattern::Transpose),
        ("bit-reversal", TrafficPattern::BitReversal),
    ];
    let combos: Vec<(usize, f64)> = (0..patterns.len())
        .flat_map(|k| LOADS.iter().map(move |&l| (k, l)))
        .collect();
    let results = par_map(ctx.jobs, &combos, |_, &(k, load)| {
        let mut cfg = cfg.clone();
        cfg.pattern = patterns[k].1.clone();
        run_load_point(&cfg, load)
    });

    let mut out = String::new();
    let _ = writeln!(out, "=== Traffic patterns on the Figure 3 network ===\n");
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>11} {:>8} {:>12} {:>10}",
        "pattern", "load", "mean(cyc)", "p95", "retries/msg", "delivered"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    let mut rows = Vec::new();
    for ((k, load), p) in combos.iter().zip(&results) {
        let name = patterns[*k].0;
        let _ = writeln!(
            out,
            "{name:<14} {load:>6.1} {:>11.1} {:>8} {:>12.3} {:>10}",
            p.mean_latency, p.p95_latency, p.retries_per_message, p.delivered
        );
        rows.push(Json::obj([
            ("pattern", Json::from(name)),
            ("load", Json::from(*load)),
            ("mean_latency", Json::from(p.mean_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("delivered", Json::from(p.delivered)),
        ]));
    }
    let _ = writeln!(
        out,
        "\nreading: permutations (transpose, bit-reversal) beat even uniform"
    );
    let _ = writeln!(
        out,
        "traffic — each destination hears from exactly one source, so the only"
    );
    let _ = writeln!(
        out,
        "contention is inside the multipath fabric, which the dilation absorbs."
    );
    let _ = writeln!(
        out,
        "The hotspot serializes at the victim's delivery ports — an endpoint"
    );
    let _ = writeln!(
        out,
        "limit no network fixes (visible as ~10 retries/msg at the hot node)."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("traffic_patterns")),
        ("topology", Json::from("figure3")),
        ("measured_cycles", Json::from(cfg.measure)),
        ("seed", Json::from(cfg.seed)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = cfg.load_scenario("traffic_patterns", LOADS[1]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("measure", Json::from(cfg.measure))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

//! Router occupancy analysis: how evenly the stochastic selection
//! spreads connections over the fabric, under uniform and hotspot
//! traffic — §4's "random selection … frees the source from knowing the
//! actual details of the redundant paths", made visible.

use crate::scenarios::{set_pattern, set_windows};
use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::scenario::{Run, Scenario};
use metro_sim::workload::{StreamSeeds, TrafficPattern};
use metro_sim::NetworkSim;
use metro_telemetry::RouterCounter;
use std::fmt::Write as _;

fn simulate(pattern: &TrafficPattern, cycles: u64) -> NetworkSim {
    let mut s = Scenario::figure3("occupancy", 0.3);
    set_pattern(&mut s, pattern.clone());
    set_windows(&mut s, [0, cycles, 0]);
    let sim = NetworkSim::from_scenario(&s).expect("figure 3 is runnable");
    // Historical seeds for this bench, predating StreamSeeds::load:
    // a raw (un-salted) pattern seed and consecutive stream seeds.
    let seeds = StreamSeeds {
        pattern_seed: 0xACC,
        stream_base: 0x0CC,
        stream_stride: 1,
    };
    let mut run = Run::new(sim, &s.workload, seeds, &s.injections);
    while run.step() {}
    run.finish().1
}

fn report(out: &mut String, rows: &mut Vec<Json>, label: &str, sim: &NetworkSim) {
    let _ = writeln!(out, "{label}:");
    for s in 0..sim.topology().stages() {
        let grants: Vec<u64> = (0..sim.topology().routers_in_stage(s))
            .map(|r| sim.router(s, r).counters().get(RouterCounter::Grants))
            .collect();
        let total: u64 = grants.iter().sum();
        let min = grants.iter().min().copied().unwrap_or(0);
        let max = grants.iter().max().copied().unwrap_or(0);
        let mean = total as f64 / grants.len() as f64;
        let blocks: u64 = (0..grants.len())
            .map(|r| sim.router(s, r).counters().get(RouterCounter::Blocks))
            .sum();
        let imbalance = if min > 0 {
            max as f64 / min as f64
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "  stage {s}: grants/router min {min:>5} mean {mean:>8.1} max {max:>5}  (imbalance {imbalance:.2}x, {blocks} blocks)",
        );
        rows.push(Json::obj([
            ("workload", Json::from(label)),
            ("stage", Json::from(s)),
            ("grants_min", Json::from(min)),
            ("grants_mean", Json::from(mean)),
            ("grants_max", Json::from(max)),
            // Infinite imbalance (a starved router) renders as null.
            ("imbalance", Json::from(imbalance)),
            ("blocks", Json::from(blocks)),
        ]));
    }
    let _ = writeln!(out);
}

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "occupancy",
        description: "per-router load balance, uniform vs hotspot traffic",
        quick_profile: "2 workloads × 3k cycles at load 0.3",
        full_profile: "2 workloads × 8k cycles at load 0.3",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cycles = if ctx.quick { 3_000 } else { 8_000 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Router occupancy under load 0.3, {cycles} cycles ===\n"
    );

    let workloads: [(&str, TrafficPattern); 2] = [
        ("uniform random traffic", TrafficPattern::Uniform),
        (
            "30% hotspot on endpoint 0",
            TrafficPattern::Hotspot {
                target: 0,
                percent: 30,
            },
        ),
    ];
    let sims = par_map(ctx.jobs, &workloads, |_, (_, pattern)| {
        simulate(pattern, cycles)
    });

    let mut rows = Vec::new();
    for ((label, _), sim) in workloads.iter().zip(&sims) {
        report(&mut out, &mut rows, label, sim);
    }
    // Telemetry sidecar: the uniform-traffic fabric.
    let snap = sims[0].telemetry_snapshot("occupancy");

    let _ = writeln!(
        out,
        "reading: under uniform traffic the stochastic selection keeps the"
    );
    let _ = writeln!(
        out,
        "grant imbalance within ~1.5x at every stage with zero coordination."
    );
    let _ = writeln!(
        out,
        "The hotspot leaves stage 0 balanced (retries spread over all entry"
    );
    let _ = writeln!(
        out,
        "paths) but skews the later stages by an order of magnitude: the"
    );
    let _ = writeln!(
        out,
        "victim's destination subtree — rooted where the groups first"
    );
    let _ = writeln!(
        out,
        "single out endpoint 0 — absorbs the whole concentration, and the"
    );
    let _ = writeln!(
        out,
        "blocks pile up at stage 0 where circuits fail to form."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("occupancy")),
        ("topology", Json::from("figure3")),
        ("cycles", Json::from(cycles)),
        ("load", Json::from(0.3)),
        ("points", Json::Arr(rows)),
    ]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("cycles", Json::from(cycles))]),
        scenario: None,
        telemetry: Some(snap.to_json()),
    })
}

//! Ablation: stochastic output selection (the METRO architecture)
//! versus round-robin and fixed-priority selection, under load and
//! under faults (§4: random selection is "the key to making the
//! protocol robust against dynamic faults").

use metro_core::SelectionPolicy;
use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::{run_fault_point, run_load_point};
use std::fmt::Write as _;

const LOADS: [f64; 2] = [0.2, 0.5];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_selection",
        description: "random vs round-robin vs fixed backward-port selection",
        quick_profile: "3 policies × (2 loads + 1 fault point), 2.5k measured cycles",
        full_profile: "3 policies × (2 loads + 1 fault point), 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cfg = crate::scenarios::sweep_for("ablation_selection", ctx.quick);

    let policies = [
        SelectionPolicy::Random,
        SelectionPolicy::RoundRobin,
        SelectionPolicy::Fixed,
    ];
    // One worker item per policy; variants share the master seed so the
    // comparison is paired (common randomness).
    let results = par_map(ctx.jobs, &policies, |_, &policy| {
        let mut cfg = cfg.clone();
        cfg.sim.selection = policy;
        let loaded: Vec<_> = LOADS.iter().map(|&l| run_load_point(&cfg, l)).collect();
        let faulty = run_fault_point(&cfg, 0.3, 3, 6);
        (policy, loaded, faulty)
    });

    let mut out = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(out, "=== Ablation: backward-port selection policy ===\n");
    for (policy, loaded, faulty) in &results {
        let _ = writeln!(out, "policy: {policy:?}");
        for (load, p) in LOADS.iter().zip(loaded) {
            let _ = writeln!(
                out,
                "  load {load:.1}: mean {:>7.1} cyc  p95 {:>6}  retries/msg {:>6.3}  delivered {}",
                p.mean_latency, p.p95_latency, p.retries_per_message, p.delivered
            );
            rows.push(Json::obj([
                ("policy", Json::from(format!("{policy:?}"))),
                ("load", Json::from(*load)),
                ("mean_latency", Json::from(p.mean_latency)),
                ("p95_latency", Json::from(p.p95_latency)),
                ("retries_per_message", Json::from(p.retries_per_message)),
                ("delivered", Json::from(p.delivered)),
            ]));
        }
        // Under faults the difference matters most: fixed selection
        // retries down the same path.
        let _ = writeln!(
            out,
            "  faulty (3 routers + 6 links): mean {:>7.1} cyc  retries/msg {:>6.3}  delivered {}  lost {}\n",
            faulty.mean_latency, faulty.retries_per_message, faulty.delivered, faulty.abandoned
        );
        rows.push(Json::obj([
            ("policy", Json::from(format!("{policy:?}"))),
            ("dead_routers", Json::from(3u64)),
            ("dead_links", Json::from(6u64)),
            ("mean_latency", Json::from(faulty.mean_latency)),
            (
                "retries_per_message",
                Json::from(faulty.retries_per_message),
            ),
            ("delivered", Json::from(faulty.delivered)),
            ("abandoned", Json::from(faulty.abandoned)),
        ]));
    }
    let _ = writeln!(
        out,
        "expected shape: random ≈ round-robin when healthy; under faults and"
    );
    let _ = writeln!(
        out,
        "contention, fixed priority concentrates traffic, raising retries/latency."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("ablation_selection")),
        ("topology", Json::from("figure3")),
        ("measured_cycles", Json::from(cfg.measure)),
        ("seed", Json::from(cfg.seed)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = cfg.load_scenario("ablation_selection", LOADS[1]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("measure", Json::from(cfg.measure))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

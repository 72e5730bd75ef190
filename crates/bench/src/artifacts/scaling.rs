//! Scaling study: unloaded latency and saturation throughput as the
//! network grows from 16 to 256 endpoints, holding the router
//! technology fixed — the "logarithmic number of routing components"
//! claim of §2 made quantitative.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::{run_load_point, unloaded_latency};
use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};
use std::fmt::Write as _;

/// A 256-endpoint, 4-stage radix-4 network from the same parts as
/// Figure 3 (dilation 2/2/2/1).
fn net256() -> MultibutterflySpec {
    MultibutterflySpec {
        endpoints: 256,
        endpoint_ports: 2,
        stages: vec![
            StageSpec::new(8, 8, 2),
            StageSpec::new(8, 8, 2),
            StageSpec::new(8, 8, 2),
            StageSpec::new(4, 4, 1),
        ],
        wiring: WiringStyle::Randomized,
        seed: 0x256,
    }
}

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "scaling",
        description: "16 → 256 endpoints at fixed router technology",
        quick_profile: "4 network sizes, 2.5k measured cycles each",
        full_profile: "4 network sizes, full Figure 3 windows below 256 endpoints",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let sizes: [(MultibutterflySpec, usize); 4] = [
        (MultibutterflySpec::figure1(), 16),
        (MultibutterflySpec::paper32(), 32),
        (MultibutterflySpec::figure3(), 64),
        (net256(), 256),
    ];
    let quick = ctx.quick;
    let results = par_map(ctx.jobs, &sizes, |_, (spec, label)| {
        let net = Multibutterfly::build(spec).expect("valid spec");
        // The 256-endpoint network always runs the quick windows; the
        // catalog keeps quick and full on one construction path.
        let mut s = crate::scenarios::sweep_for("scaling", quick || *label >= 256);
        s.topology = spec.clone();
        let base = unloaded_latency(&s);
        let p = run_load_point(&s.at_load(0.4));
        (*label, net.stages(), net.total_routers(), base, p)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Scaling: 16 -> 256 endpoints, fixed router technology ===\n"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>8} {:>10} {:>12} {:>14}",
        "endpoints", "stages", "routers", "unloaded", "mean @ 0.4", "retries @ 0.4"
    );
    let _ = writeln!(out, "{}", "-".repeat(68));
    let mut rows = Vec::new();
    for (label, stages, routers, base, p) in &results {
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:>8} {:>10} {:>12.1} {:>14.3}",
            label, stages, routers, base, p.mean_latency, p.retries_per_message
        );
        rows.push(Json::obj([
            ("endpoints", Json::from(*label)),
            ("stages", Json::from(*stages)),
            ("routers", Json::from(*routers)),
            ("unloaded_latency_cycles", Json::from(*base)),
            ("mean_latency_at_0_4", Json::from(p.mean_latency)),
            (
                "retries_per_message_at_0_4",
                Json::from(p.retries_per_message),
            ),
            ("delivered", Json::from(p.delivered)),
        ]));
    }
    let _ = writeln!(
        out,
        "\nreading: unloaded latency grows by ~1 cycle per extra stage plus the"
    );
    let _ = writeln!(
        out,
        "longer headers — logarithmic in machine size, as circuit-switched"
    );
    let _ = writeln!(
        out,
        "multistage routing promises; router count grows as N·log(N)/radix."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("scaling")),
        ("load", Json::from(0.4)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = crate::scenarios::sweep_for("scaling", quick).at_load(0.4);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("sizes", Json::from(4u64)), ("quick", Json::from(quick))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

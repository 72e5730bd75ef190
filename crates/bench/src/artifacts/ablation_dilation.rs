//! Ablation: the multipath (dilated) network of Figure 3 versus a
//! non-dilated network of the same parts, and deterministic versus
//! randomized wiring. Dilation is METRO's source of path redundancy
//! (§2): it should buy both congestion relief under load and survival
//! under router faults.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::{run_fault_point, run_load_point};
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};
use std::fmt::Write as _;

const LOADS: [f64; 2] = [0.2, 0.5];

/// A 64-endpoint network from the same 8x8 parts with dilation 1
/// everywhere: two stages of radix 8, no redundant paths inside the
/// network (only the two endpoint ports).
fn non_dilated() -> MultibutterflySpec {
    MultibutterflySpec {
        endpoints: 64,
        endpoint_ports: 2,
        stages: vec![StageSpec::new(8, 8, 1), StageSpec::new(8, 8, 1)],
        wiring: WiringStyle::Randomized,
        seed: 0x1994,
    }
}

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_dilation",
        description: "dilated multipath vs non-dilated network, and wiring styles",
        quick_profile: "3 variants × (2 loads + 1 fault point), 2.5k measured cycles",
        full_profile: "3 variants × (2 loads + 1 fault point), 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let base = crate::scenarios::sweep_for("ablation_dilation", ctx.quick);

    let variants: [(&str, MultibutterflySpec); 3] = [
        ("dilated 2/2/1 (paper)", MultibutterflySpec::figure3()),
        ("non-dilated radix-8 x2", non_dilated()),
        (
            "dilated, deterministic wiring",
            MultibutterflySpec::figure3().with_wiring(WiringStyle::Deterministic),
        ),
    ];
    let results = par_map(ctx.jobs, &variants, |_, (name, spec)| {
        let mut cfg = base.clone();
        cfg.spec = spec.clone();
        let loaded: Vec<_> = LOADS.iter().map(|&l| run_load_point(&cfg, l)).collect();
        let faulty = run_fault_point(&cfg, 0.3, 2, 0);
        (*name, loaded, faulty)
    });

    let mut out = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(out, "=== Ablation: dilation and wiring style ===\n");
    for (name, loaded, faulty) in &results {
        let _ = writeln!(out, "{name}:");
        for (load, p) in LOADS.iter().zip(loaded) {
            let _ = writeln!(
                out,
                "  load {load:.1}: mean {:>7.1} cyc  p95 {:>6}  retries/msg {:>6.3}  delivered {}",
                p.mean_latency, p.p95_latency, p.retries_per_message, p.delivered
            );
            rows.push(Json::obj([
                ("variant", Json::from(*name)),
                ("load", Json::from(*load)),
                ("mean_latency", Json::from(p.mean_latency)),
                ("p95_latency", Json::from(p.p95_latency)),
                ("retries_per_message", Json::from(p.retries_per_message)),
                ("delivered", Json::from(p.delivered)),
            ]));
        }
        let _ = writeln!(
            out,
            "  2 dead routers @ load 0.3: mean {:>7.1} cyc  retries/msg {:>6.3}  delivered {}  lost {}\n",
            faulty.mean_latency, faulty.retries_per_message, faulty.delivered, faulty.abandoned
        );
        rows.push(Json::obj([
            ("variant", Json::from(*name)),
            ("dead_routers", Json::from(2u64)),
            ("load", Json::from(0.3)),
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
        "expected shape: the dilated network rides through contention and router"
    );
    let _ = writeln!(
        out,
        "loss with modest retry counts; the non-dilated network concentrates"
    );
    let _ = writeln!(out, "blocking on its unique internal paths.");

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("ablation_dilation")),
        ("measured_cycles", Json::from(base.measure)),
        ("seed", Json::from(base.seed)),
        ("points", Json::Arr(rows)),
    ]);
    let scenario = base.load_scenario("ablation_dilation", LOADS[1]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("measure", Json::from(base.measure))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

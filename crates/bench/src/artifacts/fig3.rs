//! Figure 3: effective latency versus network loading for randomly
//! distributed 20-byte message traffic on the 3-stage, 64-endpoint,
//! radix-4 network (dilation 2/2/1, two network ports per endpoint,
//! parallelism-limited processors).

use crate::{ascii_curve, render_load_points};
use metro_harness::{Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::{
    load_sweep_jobs, point_seed, run_load_sim, unloaded_latency, LoadPoint, SweepConfig,
};
use std::fmt::Write as _;

/// The sweep's offered-load grid.
pub const LOADS: [f64; 16] = [
    0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80, 0.90,
];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "fig3",
        description: "Figure 3 — latency vs load, 64-endpoint 3-stage radix-4 network",
        quick_profile: "16 load points, 500 warmup / 3k measured / 1k drain cycles",
        full_profile: "16 load points, 2k warmup / 12k measured / 3k drain cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let cfg = crate::scenarios::sweep_for("fig3", ctx.quick);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure 3: aggregate latency vs network loading ===\n"
    );
    let _ = writeln!(
        out,
        "network: 64 endpoints, 3 stages of radix-4 routers (8-bit wide),"
    );
    let _ = writeln!(out, "         dilation 2 / 2 / 1, two ports per endpoint");
    let _ = writeln!(
        out,
        "traffic: uniformly random destinations, 20-byte messages"
    );
    let _ = writeln!(
        out,
        "model:   parallelism-limited (processors stall on outstanding message)\n"
    );

    let base = unloaded_latency(&cfg);
    let _ = writeln!(
        out,
        "unloaded message latency: {base} cycles (paper: 28 cycles, injection to ack receipt)\n"
    );

    let points = load_sweep_jobs(&cfg, &LOADS, ctx.jobs);
    out.push_str(&render_load_points(&points));

    let _ = writeln!(out, "\nmean latency vs offered load:");
    out.push_str(&ascii_curve(&points, 12));

    let low = &points[0];
    let last = points.last().expect("non-empty sweep");
    let sat = points.iter().map(|p| p.accepted).fold(f64::MIN, f64::max);
    let _ = writeln!(out, "\nshape summary:");
    let _ = writeln!(
        out,
        "  low-load latency {:.1} cycles ({:.2}x unloaded)",
        low.mean_latency,
        low.mean_latency / base as f64
    );
    let _ = writeln!(
        out,
        "  saturation throughput ~{sat:.2} of injection capacity"
    );
    let _ = writeln!(
        out,
        "  latency at highest load {:.0} cycles ({:.1}x unloaded) — the congestion knee",
        last.mean_latency,
        last.mean_latency / base as f64
    );

    let json = Json::obj([
        ("artifact", Json::from("fig3")),
        ("topology", Json::from("figure3")),
        ("endpoints", Json::from(64u64)),
        ("payload_words", Json::from(cfg.payload_words)),
        ("warmup_cycles", Json::from(cfg.warmup)),
        ("measured_cycles", Json::from(cfg.measure)),
        ("drain_cycles", Json::from(cfg.drain)),
        ("seed", Json::from(cfg.seed)),
        ("unloaded_latency_cycles", Json::from(base)),
        ("paper_unloaded_latency_cycles", Json::from(28u64)),
        ("saturation_throughput", Json::from(sat)),
        ("points", Json::arr(points.iter().map(LoadPoint::to_json))),
    ]);
    let params = Json::obj([
        ("measure", Json::from(cfg.measure)),
        ("seed", Json::from(cfg.seed)),
        ("loads", Json::from(LOADS.len())),
    ]);
    // The curve's 0.40-load cell, seeded as the sweep seeds it
    // (point_seed(seed, index), not the base): its declarative scenario
    // is the sidecar — `metro scenario run` on it reproduces that point
    // bit for bit — and re-running it freezes the telemetry sidecar.
    let cell = 7;
    let cell_cfg = SweepConfig {
        seed: point_seed(cfg.seed, cell as u64),
        ..cfg.clone()
    };
    let scenario = cell_cfg.load_scenario("fig3", LOADS[cell]);
    let (_, sim) = run_load_sim(&cell_cfg, LOADS[cell]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points: points.len(),
        params,
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: Some(sim.telemetry_snapshot("fig3").to_json()),
    })
}

//! Ablation: the pipelining options of §5.1 — internal pipestages
//! (`dp`), pipelined connection setup (`hw`), and wire pipeline depth
//! (variable turn delay) — measured in simulation cycles and projected
//! to nanoseconds with the Table 4 model.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::unloaded_latency;
use metro_timing::equations::{stages_32_node_4stage, LatencyModel, T_WIRE_NS};
use std::fmt::Write as _;

const SIM_GRID: [(usize, usize, usize); 8] = [
    (1, 0, 0),
    (2, 0, 0),
    (3, 0, 0),
    (1, 1, 0),
    (1, 2, 0),
    (1, 0, 1),
    (1, 0, 2),
    (2, 1, 1),
];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_pipelining",
        description: "dp / hw / wire-delay pipelining options, simulated + analytic",
        quick_profile: "identical to full (unloaded probes are already fast)",
        full_profile: "8 simulated (dp, hw, vtd) points + 4 analytic Table 4 projections",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let mut out = String::new();
    let _ = writeln!(out, "=== Ablation: pipelining options ===\n");
    let _ = writeln!(
        out,
        "simulated unloaded latency (cycles), Figure 3 network:"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>11} {:>16}",
        "dp", "hw", "wire delay", "latency (cycles)"
    );
    let _ = writeln!(out, "{}", "-".repeat(44));

    let quick = ctx.quick;
    let sim_points = par_map(ctx.jobs, &SIM_GRID, |_, &(dp, hw, wire)| {
        let mut s = crate::scenarios::sweep_for("ablation_pipelining", quick);
        s.sim.pipestages = dp;
        s.sim.header_words = hw;
        s.sim.wire_delay = wire;
        unloaded_latency(&s)
    });
    let mut rows = Vec::new();
    for (&(dp, hw, wire), &lat) in SIM_GRID.iter().zip(&sim_points) {
        let _ = writeln!(out, "{dp:>6} {hw:>6} {wire:>11} {lat:>16}");
        rows.push(Json::obj([
            ("pipestages", Json::from(dp)),
            ("header_words", Json::from(hw)),
            ("wire_delay", Json::from(wire)),
            ("unloaded_latency_cycles", Json::from(lat)),
        ]));
    }

    let _ = writeln!(
        out,
        "\nanalytic projection (Table 4, 0.8µ full custom, 32-node network):"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>9} {:>9} {:>12}",
        "dp", "hw", "t_clk", "t_stg", "t_20,32 (ns)"
    );
    let _ = writeln!(out, "{}", "-".repeat(46));
    let mut analytic = Vec::new();
    for (dp, hw, t_clk) in [(1, 0, 5.0), (2, 0, 2.0), (1, 1, 2.0), (1, 2, 2.0)] {
        let m = LatencyModel {
            t_clk_ns: t_clk,
            t_io_ns: 3.0,
            t_wire_ns: T_WIRE_NS,
            width: 4,
            cascade: 1,
            pipestages: dp,
            header_words: hw,
            stage_digit_bits: stages_32_node_4stage(),
        };
        let _ = writeln!(
            out,
            "{dp:>6} {hw:>6} {:>9} {:>9} {:>12}",
            t_clk,
            m.t_stg_ns(),
            m.t20_32_ns()
        );
        analytic.push(Json::obj([
            ("pipestages", Json::from(dp)),
            ("header_words", Json::from(hw)),
            ("t_clk_ns", Json::from(t_clk)),
            ("t_stg_ns", Json::from(m.t_stg_ns())),
            ("t20_32_ns", Json::from(m.t20_32_ns())),
        ]));
    }
    let _ = writeln!(
        out,
        "\nreading: deeper pipelines cost cycles but buy clock rate; pipelined"
    );
    let _ = writeln!(
        out,
        "connection setup (hw > 0) trades header words for a shorter critical"
    );
    let _ = writeln!(
        out,
        "path — the 124 ns (dp=2) vs 120 ns (hw=1) comparison of Table 3."
    );

    let points = rows.len() + analytic.len();
    let json = Json::obj([
        ("artifact", Json::from("ablation_pipelining")),
        ("simulated", Json::Arr(rows)),
        ("analytic", Json::Arr(analytic)),
    ]);
    // The serial-setup Table 4 cell as a scripted scenario (the
    // `table4_hw0` corpus entry).
    let scenario = crate::scenarios::named("table4_hw0").expect("a corpus file");
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("sim_grid", Json::from(SIM_GRID.len()))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

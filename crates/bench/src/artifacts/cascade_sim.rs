//! Cross-validation of Table 3's cascade rows in *simulation*: a
//! `c`-wide cascade moves `w·c` bits per clock with the header
//! replicated on every slice, so its cycle count equals a single-slice
//! network carrying `ceil(payload/c)` words. The simulated unloaded
//! cycle counts are compared against the Table 4 cycle model.

use metro_harness::{par_map, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::experiment::unloaded_latency;
use metro_sim::scenario::WorkloadSpec;
use metro_timing::equations::{stages_32_node_4stage, LatencyModel, T_WIRE_NS};
use metro_topo::multibutterfly::MultibutterflySpec;
use std::fmt::Write as _;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "cascade_sim",
        description: "cascade width: simulated cycles vs the Table 4 model",
        quick_profile: "identical to full (unloaded probes are already fast)",
        full_profile: "cascade widths 1/2/4 on the 32-node network, 20-byte messages",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Cascade width: simulated cycles vs the analytic model ===\n"
    );
    let _ = writeln!(
        out,
        "32-node Figure-1-style network, 20-byte messages, METROJR-class routers\n"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>14} {:>18} {:>22}",
        "c", "payload words", "simulated cycles", "t_20,32 @ 25 ns (ns)"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));

    let quick = ctx.quick;
    let results = par_map(ctx.jobs, &WIDTHS, |_, &c| {
        // Equivalent-payload reduction: 20 bytes over a w·c-bit logical
        // channel (w = 8 in simulation → 20 words at c = 1).
        let words = 20usize.div_ceil(c);
        let mut s = crate::scenarios::sweep_for("cascade_sim", quick);
        s.topology = MultibutterflySpec::paper32();
        let WorkloadSpec::Load { payload_words, .. } = &mut s.workload else {
            unreachable!("the catalog offers a load")
        };
        *payload_words = words.saturating_sub(1); // + checksum word
        let cycles = unloaded_latency(&s);
        let model = LatencyModel {
            t_clk_ns: 25.0,
            t_io_ns: 10.0,
            t_wire_ns: T_WIRE_NS,
            width: 4,
            cascade: c,
            pipestages: 1,
            header_words: 0,
            stage_digit_bits: stages_32_node_4stage(),
        };
        (c, words, cycles, model.t20_32_ns())
    });

    let mut rows = Vec::new();
    for (c, payload_words, cycles, model_ns) in &results {
        let _ = writeln!(
            out,
            "{c:>3} {payload_words:>14} {cycles:>18} {model_ns:>22}"
        );
        rows.push(Json::obj([
            ("cascade", Json::from(*c)),
            ("payload_words", Json::from(*payload_words)),
            ("simulated_cycles", Json::from(*cycles)),
            ("model_t20_32_ns", Json::from(*model_ns)),
        ]));
    }
    let _ = writeln!(
        out,
        "\nreading: doubling the cascade roughly halves the serialization cycles"
    );
    let _ = writeln!(
        out,
        "while the per-stage cycles are fixed — the same diminishing-returns"
    );
    let _ = writeln!(
        out,
        "shape as Table 3's 1250 -> 750 -> 500 ns ORBIT column."
    );

    let points = rows.len();
    let json = Json::obj([
        ("artifact", Json::from("cascade_sim")),
        ("topology", Json::from("paper32")),
        ("message_bytes", Json::from(20u64)),
        ("points", Json::Arr(rows)),
    ]);
    // The width-4 cell as a scripted scenario (the `cascade_w4` corpus
    // entry).
    let scenario = crate::scenarios::named("cascade_w4").expect("catalog entry");
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([("widths", Json::from(WIDTHS.len()))]),
        scenario: Some(crate::scenarios::emit(&scenario)),
        telemetry: None,
    })
}

//! Message-size sweep over the Table 3 implementation catalog: where
//! the `t_20,32` snapshot sits in the broader design space, and where
//! implementations cross over (§8: "tradeoffs … between latency,
//! throughput, i/o pins, and cost").

use metro_harness::{Artifact, ArtifactOutput, Json, RunCtx};
use metro_timing::catalog::table3;
use metro_timing::sweeps::{crossover_bytes, message_size_sweep, serialization_fraction};
use std::fmt::Write as _;

const SIZES: [usize; 5] = [4, 8, 20, 64, 256];
const PICKS: [usize; 6] = [0, 2, 4, 8, 11, 15];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "message_sizes",
        description: "latency vs message size across the Table 3 catalog",
        quick_profile: "identical to full (closed-form model)",
        full_profile: "6 implementations × 5 message sizes, crossover search to 4 KiB",
        run,
    }
}

fn run(_ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let mut out = String::new();
    let _ = writeln!(out, "=== Delivery latency vs message size (ns) ===\n");
    let rows = table3();
    let _ = write!(out, "{:<36}", "implementation");
    for s in SIZES {
        let _ = write!(out, "{s:>9} B");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(36 + SIZES.len() * 10));

    let mut json_rows = Vec::new();
    for &k in &PICKS {
        let r = &rows[k];
        let _ = write!(out, "{:<36}", format!("{} [{}]", r.name, r.technology));
        let sweep = message_size_sweep(&r.model(), &SIZES);
        let mut latencies = Vec::new();
        for (bytes, ns) in &sweep {
            let _ = write!(out, "{ns:>10.0}");
            latencies.push(Json::obj([
                ("bytes", Json::from(*bytes)),
                ("latency_ns", Json::from(*ns)),
            ]));
        }
        let _ = writeln!(out);
        json_rows.push(Json::obj([
            ("name", Json::from(r.name)),
            ("technology", Json::from(r.technology)),
            ("latencies", Json::Arr(latencies)),
        ]));
    }

    let _ = writeln!(
        out,
        "\ncrossovers (message size where the wide/slow option starts winning):"
    );
    let wide_slow = rows[2].model(); // ORBIT 4-cascade
    let narrow_fast = rows[4].model(); // std-cell METROJR
    let crossover = crossover_bytes(&wide_slow, &narrow_fast, 4096);
    match crossover {
        Some(b) => {
            let _ = writeln!(
                out,
                "  ORBIT 4-cascade overtakes std-cell METROJR at {b} bytes (Table 3's\n  20-byte figure of merit sits exactly on this crossover: both 500 ns)"
            );
        }
        None => {
            let _ = writeln!(out, "  no crossover within 4 KiB");
        }
    }

    let _ = writeln!(
        out,
        "\nserialization fraction of t_20,32 (short-haul regime check, §2):"
    );
    let mut fractions = Vec::new();
    for (name, frac) in serialization_fraction(&rows) {
        if frac > 0.0 {
            let _ = writeln!(out, "  {name:<44} {:>5.1}%", frac * 100.0);
        }
        fractions.push(Json::obj([
            ("name", Json::from(name.as_str())),
            ("serialization_fraction", Json::from(frac)),
        ]));
    }

    let points = json_rows.len() * SIZES.len();
    let json = Json::obj([
        ("artifact", Json::from("message_sizes")),
        (
            "sizes_bytes",
            Json::Arr(SIZES.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("crossover_bytes", crossover.map_or(Json::Null, Json::from)),
        ("points", Json::Arr(json_rows)),
        ("serialization_fractions", Json::Arr(fractions)),
    ]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points,
        params: Json::obj([
            ("implementations", Json::from(PICKS.len())),
            ("sizes", Json::from(SIZES.len())),
        ]),
        scenario: None,
        telemetry: None,
    })
}

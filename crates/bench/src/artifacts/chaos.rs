//! The chaos-campaign artifact: randomized fault storms against the
//! self-healing loop (§5.1 port disabling + §5.3 live reconfiguration),
//! replayed on both tick engines, with every hard invariant enforced —
//! no silent loss or duplication, evidence-driven mask convergence, and
//! bounded latency recovery.

use metro_harness::{Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::chaos::{run_campaign_paired, ChaosCampaign, ChaosReport};
use metro_sim::network::EngineKind;
use metro_topo::multibutterfly::MultibutterflySpec;
use std::fmt::Write as _;

/// Base seed of the campaign sweep.
pub const BASE_SEED: u64 = 0x57A6;

/// Campaigns in the quick profile.
pub const QUICK_CAMPAIGNS: u64 = 4;

/// Campaigns in the full profile.
pub const FULL_CAMPAIGNS: u64 = 12;

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "chaos",
        description: "§5.1/§5.3 — fault-storm campaigns against the online self-healing loop",
        quick_profile: "4 randomized campaigns on Figure 1, Flat + Reference engines",
        full_profile: "12 randomized campaigns on Figure 1, Flat + Reference engines",
        run,
    }
}

fn kind_label(r: &ChaosReport) -> String {
    format!("{} link{}", r.events, if r.events == 1 { "" } else { "s" })
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let spec = MultibutterflySpec::figure1();
    let campaigns = if ctx.quick {
        QUICK_CAMPAIGNS
    } else {
        FULL_CAMPAIGNS
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Chaos campaigns (Figure 1 network, {campaigns} seeded storms, both engines) ===\n"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "seed", "faults", "sends", "retries", "base(cyc)", "rec(cyc)", "cksum", "masks", "after"
    );
    let _ = writeln!(out, "{}", "-".repeat(84));

    let mut reports = Vec::new();
    let mut last_snapshot = None;
    for k in 0..campaigns {
        let seed = BASE_SEED.wrapping_add(k);
        let campaign = ChaosCampaign::generate(&spec, seed).map_err(|e| e.to_string())?;
        // Flat carries the report; Reference must agree bit for bit.
        let engines = [(EngineKind::Flat, 1), (EngineKind::Reference, 1)];
        let (flat, snap) =
            run_campaign_paired(&campaign, engines).map_err(|e| format!("seed {seed:#x}: {e}"))?;
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8}",
            format!("{seed:#x}"),
            kind_label(&flat),
            flat.sends,
            flat.total_retries,
            flat.baseline_worst,
            flat.recovery_worst,
            flat.checksum_mismatches,
            flat.masks_applied,
            flat.retries_after_mask,
        );
        last_snapshot = Some(snap);
        reports.push(flat);
    }

    let total_sends: usize = reports.iter().map(|r| r.sends).sum();
    let total_masks: u64 = reports.iter().map(|r| r.masks_applied).sum();
    let _ = writeln!(
        out,
        "\nall invariants held on both engines: {total_sends} probes, zero silent losses or\nduplicates; every injected fault was masked from reply evidence alone\n({total_masks} port masks applied), and post-masking latency recovered to baseline."
    );

    let json = Json::obj([
        ("artifact", Json::from("chaos")),
        ("topology", Json::from("figure1")),
        ("base_seed", Json::from(BASE_SEED)),
        ("campaigns", Json::from(campaigns)),
        ("engines", Json::from("flat+reference")),
        ("total_sends", Json::from(total_sends)),
        ("total_masks_applied", Json::from(total_masks)),
        (
            "reports",
            Json::arr(reports.iter().map(ChaosReport::to_json)),
        ),
    ]);
    let params = Json::obj([
        ("base_seed", Json::from(BASE_SEED)),
        ("campaigns", Json::from(campaigns)),
    ]);
    Ok(ArtifactOutput {
        human: out,
        json,
        points: reports.len(),
        params,
        scenario: None,
        telemetry: last_snapshot.map(|s| s.to_json()),
    })
}

//! The chaos-campaign artifact: randomized fault storms against the
//! self-healing loop (§5.1 port disabling + §5.3 live reconfiguration),
//! replayed on both tick engines, with every hard invariant enforced —
//! no silent loss or duplication, evidence-driven mask convergence, and
//! bounded latency recovery.
//!
//! This is the only writer of `results/chaos.json`. `metro run chaos`
//! runs it with no flags; the `metro chaos` verb ([`crate::chaos_cli`])
//! hands it the storm's flags (`StormFlags`) through [`RunCtx::flags`].

use metro_harness::{cli, Artifact, ArtifactOutput, Json, RunCtx};
use metro_sim::chaos::{run_campaign, run_campaign_paired, ChaosCampaign, ChaosReport};
use metro_sim::network::EngineKind;
use metro_topo::multibutterfly::MultibutterflySpec;
use std::fmt::Write as _;
use std::num::NonZeroU64;

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

/// Which engines a chaos run exercises: one cycle-accurate engine, or
/// the paired flat+reference divergence audit (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineChoice {
    /// A single cycle-accurate engine.
    One(EngineKind),
    /// Flat carries the report; Reference must agree bit for bit.
    Both,
}

/// What `metro chaos`'s flags say about a storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StormFlags {
    /// `--campaigns N`; absent, the profile's count.
    pub(crate) campaigns: Option<NonZeroU64>,
    /// `--seed S`: campaign `k` runs seed `S + k`.
    pub(crate) seed: u64,
    /// `--engine flat|reference|both`.
    pub(crate) engine: EngineChoice,
    /// `--shards N`: above 1, every campaign also replays on the
    /// N-shard Flat engine and must match the single-threaded run.
    pub(crate) shards: usize,
}

impl StormFlags {
    /// Parses the verb's flags; an `Err` is the usage message.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, a zero count, or
    /// an engine that is not cycle-accurate.
    pub(crate) fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = StormFlags {
            campaigns: None,
            seed: BASE_SEED,
            engine: EngineChoice::Both,
            shards: 1,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--campaigns" => {
                    flags.campaigns = Some(cli::parsed(&mut it, a, "a positive count")?)
                }
                "--seed" => flags.seed = cli::u64(&mut it, a)?,
                "--shards" => match usize::try_from(cli::u64(&mut it, a)?) {
                    Ok(n) if n >= 1 => flags.shards = n,
                    _ => {
                        return Err(
                            "--shards expects a count >= 1 (0/auto is scenario-file only)"
                                .to_string(),
                        )
                    }
                },
                "--engine" => match cli::value(&mut it, a)? {
                    "both" => flags.engine = EngineChoice::Both,
                    name => match EngineKind::from_name(name) {
                        Some(k) if k != EngineKind::Analytic => flags.engine = EngineChoice::One(k),
                        Some(k) => {
                            return Err(format!(
                                "--engine {}: chaos invariants are cycle-exact; \
                                 the analytic estimator cannot run them",
                                k.name()
                            ))
                        }
                        None => {
                            return Err(format!(
                                "--engine expects flat|reference|both, got {name:?}"
                            ))
                        }
                    },
                },
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(flags)
    }
}

fn kind_label(r: &ChaosReport) -> String {
    format!("{} link{}", r.events, if r.events == 1 { "" } else { "s" })
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let spec = MultibutterflySpec::figure1();
    let flags = StormFlags::parse(&ctx.flags)?;
    let campaigns = flags.campaigns.map_or(
        if ctx.quick {
            QUICK_CAMPAIGNS
        } else {
            FULL_CAMPAIGNS
        },
        NonZeroU64::get,
    );
    let (engines, on) = match flags.engine {
        EngineChoice::One(k) => (k.name(), format!("the {k} engine")),
        EngineChoice::Both => ("flat+reference", "both engines".to_string()),
    };
    let sharded = if flags.shards > 1 {
        format!(", shard-identical at {} shards", flags.shards)
    } else {
        String::new()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Chaos campaigns (Figure 1 network, {campaigns} seeded storms, {on}{sharded}) ===\n"
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
        let seed = flags.seed.wrapping_add(k);
        let campaign = ChaosCampaign::generate(&spec, seed).map_err(|e| e.to_string())?;
        let flat = (EngineKind::Flat, 1);
        let (report, snap) = match flags.engine {
            EngineChoice::One(k) => run_campaign(&campaign, k, 1),
            // Flat carries the report; Reference must agree bit for bit.
            EngineChoice::Both => {
                run_campaign_paired(&campaign, [flat, (EngineKind::Reference, 1)])
            }
        }
        .map_err(|e| format!("seed {seed:#x}: {e}"))?;
        if flags.shards > 1 {
            // Shard-identity audit: the same campaign on the sharded
            // Flat engine must be bit-identical to single-threaded,
            // telemetry snapshot included.
            run_campaign_paired(&campaign, [flat, (EngineKind::Flat, flags.shards)])
                .map_err(|e| format!("seed {seed:#x} (shards={}): {e}", flags.shards))?;
        }
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8}",
            format!("{seed:#x}"),
            kind_label(&report),
            report.sends,
            report.total_retries,
            report.baseline_worst,
            report.recovery_worst,
            report.checksum_mismatches,
            report.masks_applied,
            report.retries_after_mask,
        );
        last_snapshot = Some(snap);
        reports.push(report);
    }

    let total_sends: usize = reports.iter().map(|r| r.sends).sum();
    let total_masks: u64 = reports.iter().map(|r| r.masks_applied).sum();
    let _ = writeln!(
        out,
        "\nall invariants held on {on}: {total_sends} probes, zero silent losses or\nduplicates; every injected fault was masked from reply evidence alone\n({total_masks} port masks applied), and post-masking latency recovered to baseline."
    );

    let mut json = Json::obj([
        ("artifact", Json::from("chaos")),
        ("topology", Json::from("figure1")),
        ("base_seed", Json::from(flags.seed)),
        ("campaigns", Json::from(campaigns)),
        ("engines", Json::from(engines)),
    ]);
    if flags.shards > 1 {
        json.set("shards", Json::from(flags.shards));
    }
    json.set("total_sends", Json::from(total_sends));
    json.set("total_masks_applied", Json::from(total_masks));
    json.set(
        "reports",
        Json::arr(reports.iter().map(ChaosReport::to_json)),
    );
    let params = Json::obj([
        ("base_seed", Json::from(flags.seed)),
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

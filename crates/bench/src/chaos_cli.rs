//! The `metro chaos` verb: randomized fault-storm campaigns against the
//! self-healing loop, from the command line.
//!
//! ```text
//! metro chaos                          # 4 campaigns, both engines
//! metro chaos --campaigns 12 --seed 7  # a longer, reseeded sweep
//! metro chaos --engine flat            # one engine only (faster smoke)
//! ```
//!
//! Each campaign injects link faults mid-run, drives traffic until the
//! evidence-driven diagnosis masks the faulted ports, optionally
//! repairs the links, and probes recovery — failing loudly on any
//! violated invariant (silent loss/duplication, unmasked fault, slow
//! recovery, engine divergence). Results land in `results/chaos.json`
//! with a manifest record, the same trail `metro run` leaves.

use metro_harness::results::{git_describe, unix_time_now, ResultsDir, RunRecord};
use metro_harness::{cli, log, Json};
use metro_sim::chaos::{run_campaign, run_campaign_paired, ChaosCampaign, ChaosReport};
use metro_sim::network::EngineKind;
use metro_topo::multibutterfly::MultibutterflySpec;
use std::time::Instant;

fn usage() -> String {
    "usage: metro chaos [--campaigns N] [--seed S] [--engine flat|reference|both]\n\
     \x20                [--shards N]\n\
     \n\
     Runs N seeded fault-storm campaigns on the Figure 1 network with\n\
     self-healing enabled, checking hard invariants: no silent message\n\
     loss or duplication, every injected fault masked from reply\n\
     evidence alone, bounded post-masking latency recovery, and (with\n\
     --engine both, the default) bit-identical behaviour on the Flat\n\
     and Reference tick engines. With --shards N (N > 1), every\n\
     campaign additionally replays on the sharded Flat engine and must\n\
     be bit-identical to the single-threaded run, telemetry included.\n\
     The analytic estimator is not cycle-accurate and is rejected.\n"
        .to_string()
}

/// Which engines a chaos run exercises: one cycle-accurate engine, or
/// the paired flat+reference divergence audit (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    One(EngineKind),
    Both,
}

/// Parses the flags into `(campaigns, seed, engine, shards)`;
/// `Ok(None)` is `--help`, an `Err` the usage message.
fn parse_flags(args: &[String]) -> Result<Option<(u64, u64, EngineChoice, usize)>, String> {
    let mut campaigns = 4u64;
    let mut seed = 0x57A6u64;
    let mut engine = EngineChoice::Both;
    let mut shards = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--campaigns" => campaigns = cli::u64(&mut it, a)?,
            "--seed" => seed = cli::u64(&mut it, a)?,
            "--shards" => match usize::try_from(cli::u64(&mut it, a)?) {
                Ok(n) if n >= 1 => shards = n,
                _ => {
                    return Err(
                        "--shards expects a count >= 1 (0/auto is scenario-file only)".to_string(),
                    )
                }
            },
            "--engine" => match cli::value(&mut it, a)? {
                "both" => engine = EngineChoice::Both,
                name => match EngineKind::from_name(name) {
                    Some(k) if k.is_cycle_accurate() => engine = EngineChoice::One(k),
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
    Ok(Some((campaigns, seed, engine, shards)))
}

/// Entry point for `metro chaos <args…>`; returns the process exit
/// code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let (campaigns, seed, engine, shards) = match parse_flags(args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            log::output(&usage());
            return 0;
        }
        Err(msg) => {
            log::error(&format!("metro chaos: {msg}\n"));
            log::error_text(&usage());
            return 2;
        }
    };
    match run_storm(campaigns, seed, engine, shards, &ResultsDir::standard()) {
        Ok(summary) => {
            log::output(&summary);
            0
        }
        Err(e) => {
            log::error(&format!("metro chaos: {e}"));
            1
        }
    }
}

/// Runs the storm and records `results/chaos.json` plus a manifest
/// record; returns the human summary. Split from the arg handling so
/// tests can drive it against a temporary results directory.
fn run_storm(
    campaigns: u64,
    base_seed: u64,
    engine: EngineChoice,
    shards: usize,
    results: &ResultsDir,
) -> Result<String, String> {
    let spec = MultibutterflySpec::figure1();
    let started = Instant::now();
    let mut reports: Vec<ChaosReport> = Vec::new();
    for k in 0..campaigns {
        let seed = base_seed.wrapping_add(k);
        let campaign = ChaosCampaign::generate(&spec, seed).map_err(|e| e.to_string())?;
        let flat = (EngineKind::Flat, 1);
        let (report, _) = match engine {
            EngineChoice::One(k) => run_campaign(&campaign, k, 1),
            EngineChoice::Both => {
                run_campaign_paired(&campaign, [flat, (EngineKind::Reference, 1)])
            }
        }
        .map_err(|e| format!("campaign seed {seed:#x}: {e}"))?;
        if shards > 1 {
            // Shard-identity audit: the same campaign on the sharded
            // Flat engine must be bit-identical to single-threaded,
            // telemetry snapshot included.
            run_campaign_paired(&campaign, [flat, (EngineKind::Flat, shards)])
                .map_err(|e| format!("campaign seed {seed:#x} (shards={shards}): {e}"))?;
        }
        reports.push(report);
    }
    let wall = started.elapsed().as_secs_f64();

    let total_sends: usize = reports.iter().map(|r| r.sends).sum();
    let total_masks: u64 = reports.iter().map(|r| r.masks_applied).sum();
    let engines = match engine {
        EngineChoice::One(k) => k.name(),
        EngineChoice::Both => "flat+reference",
    };
    let mut fields = vec![
        ("artifact", Json::from("chaos")),
        ("base_seed", Json::from(base_seed)),
        ("campaigns", Json::from(campaigns)),
        ("engines", Json::from(engines)),
    ];
    // Conditional emission keeps the checked-in chaos.json byte-stable
    // for the classic single-threaded storm.
    if shards > 1 {
        fields.push(("shards", Json::from(shards)));
    }
    fields.extend([
        ("total_sends", Json::from(total_sends)),
        ("total_masks_applied", Json::from(total_masks)),
        (
            "reports",
            Json::arr(reports.iter().map(ChaosReport::to_json)),
        ),
    ]);
    let doc = Json::obj(fields);
    let out_path = results
        .write_json("chaos", &doc)
        .map_err(|e| e.to_string())?;
    results
        .append_manifest(&RunRecord {
            artifact: "chaos".to_string(),
            git: git_describe(),
            unix_time: unix_time_now(),
            wall_seconds: wall,
            points: reports.len(),
            jobs: 1,
            quick: false,
            params: Json::obj([
                ("base_seed", Json::from(base_seed)),
                ("campaigns", Json::from(campaigns)),
                ("engines", Json::from(engines)),
            ]),
            scenario_hash: None,
            telemetry_hash: None,
            failure: None,
        })
        .map_err(|e| e.to_string())?;

    let mut summary = String::new();
    let shard_note = if shards > 1 {
        format!(", shard-identical at {shards} shards")
    } else {
        String::new()
    };
    summary.push_str(&format!(
        "chaos storm: {campaigns} campaigns (base seed {base_seed:#x}, {engines}{shard_note})\n"
    ));
    for r in &reports {
        summary.push_str(&format!(
            "  seed {:#x}: {} fault(s), {} probes, {} retries, masked {} link(s), \
             latency {} -> {} cyc\n",
            r.seed,
            r.events,
            r.sends,
            r.total_retries,
            r.masked_links.len(),
            r.baseline_worst,
            r.recovery_worst,
        ));
    }
    summary.push_str(&format!(
        "all invariants held: no silent loss or duplication, every injected fault\n\
         masked online ({total_masks} port masks), recovery within bounds ({wall:.1}s)\n\
         wrote {}\n",
        out_path.display()
    ));
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_results(tag: &str) -> (std::path::PathBuf, ResultsDir) {
        let dir =
            std::env::temp_dir().join(format!("metro-chaos-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (dir.clone(), ResultsDir::new(dir.join("results")))
    }

    #[test]
    fn run_storm_records_results_and_manifest() {
        let (dir, results) = temp_results("run");
        let summary = run_storm(1, 3, EngineChoice::One(EngineKind::Flat), 1, &results).unwrap();
        assert!(summary.contains("all invariants held"));

        let doc = Json::parse(&std::fs::read_to_string(results.root().join("chaos.json")).unwrap())
            .unwrap();
        assert_eq!(doc.get("campaigns").and_then(Json::as_f64), Some(1.0));
        let reports = doc.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);

        let manifest = results.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("artifact").and_then(Json::as_str),
            Some("chaos")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sharded_storm_holds_shard_identity() {
        let (dir, results) = temp_results("sharded");
        let summary = run_storm(1, 3, EngineChoice::One(EngineKind::Flat), 4, &results).unwrap();
        assert!(summary.contains("shard-identical at 4 shards"));
        let doc = Json::parse(&std::fs::read_to_string(results.root().join("chaos.json")).unwrap())
            .unwrap();
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(4.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(main(&["--campaigns".into()]), 2);
        assert_eq!(main(&["--engine".into(), "warp".into()]), 2);
        // A real engine name that is not cycle-accurate is rejected too.
        assert_eq!(main(&["--engine".into(), "analytic".into()]), 2);
        assert_eq!(main(&["--shards".into(), "0".into()]), 2);
        assert_eq!(main(&["--frobnicate".into()]), 2);
        assert_eq!(main(&["--help".into()]), 0);
    }
}

//! The `metro chaos` verb: the registry's `chaos` artifact
//! ([`crate::artifacts::chaos`]) with a storm's parameters on the
//! command line.
//!
//! ```text
//! metro chaos                          # = metro run chaos --quick
//! metro chaos --campaigns 12 --seed 7  # a longer, reseeded sweep
//! metro chaos --engine flat            # one engine only (faster smoke)
//! ```
//!
//! The verb checks the flags (exit 2 on a bad one) and hands them to
//! the artifact through `RunCtx::flags`; the artifact runs the storm
//! and `metro_harness::cli::run_one` leaves the trail every `metro run`
//! leaves — `results/chaos.json`, its telemetry sidecar, a manifest
//! record carrying the sidecar's hash. A violated invariant, a
//! panicking campaign (quarantined in the manifest) or a results write
//! error is exit 1.

use crate::artifacts::chaos::StormFlags;
use metro_harness::{cli, log, ResultsDir, RunCtx};

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

/// Entry point for `metro chaos <args…>`; returns the process exit
/// code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    run(args, ResultsDir::standard())
}

/// [`main`] against an explicit results directory (tests point it at a
/// temporary one).
fn run(args: &[String], results: ResultsDir) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        log::output(&usage());
        return 0;
    }
    if let Err(msg) = StormFlags::parse(args) {
        log::error(&format!("metro chaos: {msg}\n"));
        log::error_text(&usage());
        return 2;
    }
    // The quick profile is the verb's default of 4 campaigns.
    let ctx = RunCtx {
        quick: true,
        flags: args.to_vec(),
        results,
        ..RunCtx::new()
    };
    match cli::run_one(&crate::registry(), "chaos", &ctx, false) {
        Ok(_) => 0,
        Err(e) => {
            log::error(&format!("metro chaos: {e}"));
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_harness::Json;

    fn temp_results(tag: &str) -> ResultsDir {
        let dir =
            std::env::temp_dir().join(format!("metro-chaos-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultsDir::new(dir)
    }

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn read(results: &ResultsDir, file: &str) -> String {
        std::fs::read_to_string(results.root().join(file)).unwrap()
    }

    /// The last manifest record's `telemetry_hash`.
    fn recorded_telemetry_hash(results: &ResultsDir) -> String {
        let manifest = results.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        let last = runs.last().unwrap();
        assert_eq!(last.get("artifact").and_then(Json::as_str), Some("chaos"));
        last.get("telemetry_hash")
            .and_then(Json::as_str)
            .expect("the record carries the sidecar's hash")
            .to_string()
    }

    #[test]
    fn the_verb_and_the_artifact_write_the_same_files() {
        let verb = temp_results("verb");
        assert_eq!(run(&[], verb.clone()), 0);

        // `metro run chaos --quick`.
        let artifact = temp_results("artifact");
        let ctx = RunCtx {
            quick: true,
            results: artifact.clone(),
            ..RunCtx::new()
        };
        cli::run_one(&crate::registry(), "chaos", &ctx, false).unwrap();

        for file in ["chaos.json", "chaos.telemetry.json"] {
            assert_eq!(read(&verb, file), read(&artifact, file), "{file}");
        }
        let sidecar = Json::parse(&read(&verb, "chaos.telemetry.json")).unwrap();
        let hash = metro_harness::document::hex64(sidecar.canonical_hash());
        assert_eq!(recorded_telemetry_hash(&verb), hash);
        assert_eq!(recorded_telemetry_hash(&artifact), hash);
        for dir in [verb, artifact] {
            let _ = std::fs::remove_dir_all(dir.root());
        }
    }

    #[test]
    fn a_sharded_storm_holds_shard_identity() {
        let results = temp_results("sharded");
        let storm = args(&["--campaigns", "1", "--seed", "3", "--engine", "flat"]);
        assert_eq!(
            run(
                &[storm.clone(), args(&["--shards", "4"])].concat(),
                results.clone()
            ),
            0
        );
        let sharded = Json::parse(&read(&results, "chaos.json")).unwrap();
        assert_eq!(
            sharded.get("topology").and_then(Json::as_str),
            Some("figure1")
        );
        assert_eq!(sharded.get("engines").and_then(Json::as_str), Some("flat"));
        assert_eq!(sharded.get("shards").and_then(Json::as_f64), Some(4.0));

        // The audit replays the campaign; it does not change the report.
        assert_eq!(run(&storm, results.clone()), 0);
        let single = Json::parse(&read(&results, "chaos.json")).unwrap();
        assert!(single.get("shards").is_none(), "\"shards\" only when > 1");
        assert_eq!(single.get("reports"), sharded.get("reports"));
        let _ = std::fs::remove_dir_all(results.root());
    }

    #[test]
    fn a_failed_run_is_exit_one() {
        // A file where the results directory should be: the storm holds
        // its invariants, `run_one` cannot write, the verb says 1.
        let base = std::env::temp_dir().join(format!("metro-chaos-block-{}", std::process::id()));
        std::fs::write(&base, "occupied").unwrap();
        let storm = args(&["--campaigns", "1", "--engine", "flat"]);
        assert_eq!(run(&storm, ResultsDir::new(base.join("results"))), 1);
        let _ = std::fs::remove_file(&base);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(main(&args(&["--campaigns"])), 2);
        assert_eq!(main(&args(&["--engine", "warp"])), 2);
        // A real engine name that is not cycle-accurate is rejected too.
        assert_eq!(main(&args(&["--engine", "analytic"])), 2);
        assert_eq!(main(&args(&["--shards", "0"])), 2);
        assert_eq!(main(&args(&["--frobnicate"])), 2);
        assert_eq!(main(&args(&["--help"])), 0);
    }

    #[test]
    fn zero_campaigns_is_a_usage_error_that_writes_nothing() {
        let results = temp_results("zero");
        assert_eq!(run(&args(&["--campaigns", "0"]), results.clone()), 2);
        assert!(!results.root().exists(), "nothing written");
        assert_eq!(
            StormFlags::parse(&args(&["--campaigns", "0"])).unwrap_err(),
            "--campaigns needs a positive count, got \"0\""
        );
    }
}

//! The `metro` CLI: one front door for every registered artifact.
//!
//! ```text
//! metro list
//! metro run <artifact>... [--quick] [--json] [--jobs N] [--inject-panic]
//! metro run --all [--quick] [--json] [--jobs N]
//! ```
//!
//! `run` executes each named artifact, prints its human report (or the
//! JSON document with `--json`), writes `results/<artifact>.json`, and
//! appends a record to `results/manifest.json`. Any other `--flag` is a
//! usage error (exit 2, nothing written): `--inject-panic` is the one
//! flag `run` passes through in [`RunCtx::flags`] (the `metro chaos`
//! verb fills that list with its storm flags itself).

use crate::artifact::{Registry, RunCtx};
use crate::document::hex64;
use crate::json::Json;
use crate::log::{self, Verbosity};
use crate::results::RunRecord;
use crate::supervisor::supervise;
use std::time::Instant;

/// A parsed `metro` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `metro list`
    List,
    /// `metro run ...`
    Run {
        /// Artifact names to run (in registry order when `--all`).
        names: Vec<String>,
        /// Print JSON documents instead of human reports.
        json: bool,
        /// Debug-level harness narration (`--verbose`).
        verbose: bool,
        /// What each of them runs with: `--quick`, `--jobs` (default:
        /// host parallelism), the flags passed through to artifacts, the
        /// standard results directory.
        ctx: RunCtx,
    },
    /// `metro help` / usage errors (with an optional message).
    Help(Option<String>),
}

/// The value following `flag`, or "`{flag}` needs a value" — the one
/// reader every `metro` verb's flag loop shares.
pub fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// [`value`] as a `u64`, decimal or `0x`-prefixed hex (seeds); a value
/// that is neither is "`{flag}`: …" with the integer parser's reason.
pub fn u64<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<u64, String> {
    let v = value(it, flag)?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("{flag}: {e}"))
}

/// [`value`] parsed as a `T`, or "`{flag}` needs `{what}`, got …" —
/// `what` names an acceptable value ("a positive integer").
pub fn parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} needs {what}, got {v:?}"))
}

/// Parses CLI arguments (without the program name) against a registry.
#[must_use]
pub fn parse_args(registry: &Registry, args: &[String]) -> Command {
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Command::Help(None),
        Some("list") => Command::List,
        Some("run") => {
            parse_run(registry, &args[1..]).unwrap_or_else(|msg| Command::Help(Some(msg)))
        }
        Some(other) => Command::Help(Some(format!("unknown command {other:?}"))),
    }
}

/// The arguments after `metro run`; an `Err` is the usage message.
fn parse_run(registry: &Registry, args: &[String]) -> Result<Command, String> {
    let mut names = Vec::new();
    let mut all = false;
    let mut json = false;
    let mut verbose = false;
    let mut ctx = RunCtx {
        jobs: crate::executor::default_jobs(),
        ..RunCtx::new()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--quick" => ctx.quick = true,
            "--json" => json = true,
            "--verbose" => verbose = true,
            "--jobs" => ctx.jobs = parsed(&mut it, "--jobs", "a positive integer")?,
            "--inject-panic" => ctx.flags.push(a.clone()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f:?}")),
            name => {
                if registry.get(name).is_none() {
                    return Err(format!("unknown artifact {name:?} (see `metro list`)"));
                }
                names.push(name.to_string());
            }
        }
    }
    if all {
        names = registry.names().iter().map(ToString::to_string).collect();
    }
    if names.is_empty() {
        return Err("nothing to run: name artifacts or pass --all".to_string());
    }
    Ok(Command::Run {
        names,
        json,
        verbose,
        ctx,
    })
}

/// Renders the `metro list` table.
#[must_use]
pub fn render_list(registry: &Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} artifacts registered:\n", registry.len());
    for a in registry {
        let _ = writeln!(out, "  {:<22} {}", a.name, a.description);
        let _ = writeln!(out, "  {:<22}   quick: {}", "", a.quick_profile);
        let _ = writeln!(out, "  {:<22}   full:  {}", "", a.full_profile);
    }
    let _ = writeln!(
        out,
        "\nrun with: metro run <artifact>... [--quick] [--json] [--jobs N]"
    );
    out
}

/// Usage text: the harness's own `list` and `run`, then one line per
/// `(verb, one-line help)` the binary dispatches before the harness
/// sees the arguments.
#[must_use]
pub fn usage(verbs: &[(&str, &str)]) -> String {
    let verbs: String = verbs
        .iter()
        .map(|(verb, help)| format!("  metro {:<39}{help}\n", format!("{verb} ...")))
        .collect();
    format!(
        "metro — unified METRO experiment harness\n\
     \n\
     usage:\n\
     \x20 metro list                                   show every registered artifact\n\
     \x20 metro run <artifact>... [options]            run named artifacts\n\
     \x20 metro run --all [options]                    run all artifacts in order\n\
     {verbs}\
     \n\
     run options:\n\
     \x20 --quick      scaled-down profile (CI smoke; shorter measurement windows)\n\
     \x20 --json       print the machine-readable document instead of the report\n\
     \x20 --jobs N     worker threads for sweep points (default: host parallelism)\n\
     \x20 --verbose    debug-level harness narration (sidecar paths, hashes)\n\
     \n\
     every run writes results/<artifact>.json and appends to results/manifest.json;\n\
     simulation-backed artifacts add .scenario.json and .telemetry.json sidecars.\n\
     a panicking or failing artifact is quarantined: the sweep\n\
     continues and the manifest records a typed failure entry\n"
    )
}

/// Runs one artifact end to end under supervision: execute (panics
/// caught), print, write `results/<name>.json`, append the manifest
/// record. Returns the artifact's wall-clock seconds.
///
/// A failed artifact is **quarantined**, not fatal: the typed failure
/// (panic payload or error) is appended to the manifest so a
/// `metro run --all` sweep continues past it with an audit trail. The `--inject-panic` flag is the supervision
/// self-test hook: it makes the artifact panic before running, so CI
/// can assert the quarantine path end to end.
///
/// # Errors
///
/// Returns a description if the artifact was quarantined or the
/// results layer cannot write.
pub fn run_one(
    registry: &Registry,
    name: &str,
    ctx: &RunCtx,
    print_json: bool,
) -> Result<f64, String> {
    let artifact = registry
        .get(name)
        .ok_or_else(|| format!("unknown artifact {name:?}"))?;
    let started = Instant::now();
    let outcome = supervise(name, || {
        assert!(
            !ctx.flag("--inject-panic"),
            "injected panicking point (--inject-panic)"
        );
        (artifact.run)(ctx)
    });
    let wall = started.elapsed().as_secs_f64();
    let mut record = RunRecord::new(name, wall);
    record.jobs = ctx.jobs.get();
    record.quick = ctx.quick;
    let output = match outcome {
        Ok(output) => output,
        Err(failure) => {
            let quarantined = format!("artifact {name} quarantined: {failure}");
            record.failure = Some(failure);
            ctx.results
                .append_manifest(&record)
                .map_err(|e| e.to_string())?;
            return Err(quarantined);
        }
    };

    if print_json {
        log::output(&output.json.render());
    } else {
        log::output(&output.human);
    }

    let path = ctx
        .results
        .write_json(name, &output.json)
        .map_err(|e| e.to_string())?;
    record.points = output.points;
    record.params = output.params;
    // A sidecar lands beside the document; the record carries its hash.
    let sidecar = |kind: &str, doc: Option<&Json>| -> Result<Option<String>, String> {
        let Some(doc) = doc else { return Ok(None) };
        let p = ctx
            .results
            .write_json(&format!("{name}.{kind}"), doc)
            .map_err(|e| e.to_string())?;
        let hash = hex64(doc.canonical_hash());
        log::debug(&format!("[metro] wrote {} ({hash})", p.display()));
        Ok(Some(hash))
    };
    record.scenario_hash = sidecar("scenario", output.scenario.as_ref())?;
    record.telemetry_hash = sidecar("telemetry", output.telemetry.as_ref())?;
    ctx.results
        .append_manifest(&record)
        .map_err(|e| e.to_string())?;
    if !print_json {
        log::info(&format!(
            "[metro] wrote {} ({} points, {:.2}s, jobs={})",
            path.display(),
            output.points,
            wall,
            ctx.jobs
        ));
    }
    Ok(wall)
}

/// The harness half of the `metro` binary: runs `args` (without the
/// program name) against `registry`, returns a process exit code
/// (0 success, 1 artifact/results failure, 2 usage error). `verbs` are
/// the binary's other verbs, for [`usage`].
#[must_use]
pub fn main_with(registry: &Registry, args: &[String], verbs: &[(&str, &str)]) -> i32 {
    match parse_args(registry, args) {
        Command::Help(None) => {
            log::output(&usage(verbs));
            0
        }
        Command::Help(Some(msg)) => {
            log::error(&format!("metro: {msg}\n"));
            log::error_text(&usage(verbs));
            2
        }
        Command::List => {
            log::output(&render_list(registry));
            0
        }
        Command::Run {
            names,
            json,
            verbose,
            ctx,
        } => {
            if verbose {
                log::set_verbosity(Verbosity::Verbose);
            }
            let mut failures = 0usize;
            for (i, name) in names.iter().enumerate() {
                if !json {
                    if i > 0 {
                        log::info("");
                    }
                    log::info(&format!(
                        "[metro] running {name} ({}/{})",
                        i + 1,
                        names.len()
                    ));
                }
                if let Err(e) = run_one(registry, name, &ctx, json) {
                    log::error(&format!("metro: {e}"));
                    failures += 1;
                }
            }
            if failures > 0 {
                log::error(&format!(
                    "metro: {failures}/{} artifacts failed",
                    names.len()
                ));
                1
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, ArtifactOutput};
    use crate::json::Json;

    fn ok_run(_: &RunCtx) -> Result<ArtifactOutput, String> {
        Ok(ArtifactOutput {
            human: String::new(),
            json: Json::Null,
            points: 0,
            params: Json::obj::<&str>([]),
            scenario: None,
            telemetry: None,
        })
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        for name in ["fig3", "table3"] {
            r.register(Artifact {
                name,
                description: "",
                quick_profile: "",
                full_profile: "",
                run: ok_run,
            });
        }
        r
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse_args(&registry(), &s(&["run", "fig3", "--quick", "--jobs", "4"]));
        match cmd {
            Command::Run {
                names,
                json,
                verbose,
                ctx,
            } => {
                assert_eq!(names, vec!["fig3"]);
                assert!(ctx.quick && !json && !verbose);
                assert_eq!(ctx.jobs.get(), 4);
                assert!(ctx.flags.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verbose_is_parsed_not_passed_through() {
        let cmd = parse_args(&registry(), &s(&["run", "fig3", "--verbose"]));
        match cmd {
            Command::Run { verbose, ctx, .. } => {
                assert!(verbose);
                assert!(ctx.flags.is_empty(), "--verbose is a harness flag");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_all_expands_in_registry_order() {
        let cmd = parse_args(&registry(), &s(&["run", "--all"]));
        match cmd {
            Command::Run { names, .. } => assert_eq!(names, vec!["fig3", "table3"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_artifact_is_a_usage_error() {
        assert!(matches!(
            parse_args(&registry(), &s(&["run", "fig9"])),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn bad_jobs_is_a_usage_error() {
        for bad in [
            &["run", "fig3", "--jobs", "0"][..],
            &["run", "fig3", "--jobs"],
        ] {
            assert!(matches!(
                parse_args(&registry(), &s(bad)),
                Command::Help(Some(_))
            ));
        }
    }

    #[test]
    fn flag_value_readers_share_one_wording() {
        let args = s(&["0x1F", "31", "x", "0"]);
        let mut it = args.iter();
        assert_eq!(u64(&mut it, "--seed"), Ok(31));
        assert_eq!(u64(&mut it, "--seed"), Ok(31));
        assert!(u64(&mut it, "--seed").unwrap_err().starts_with("--seed: "));
        assert_eq!(
            parsed::<std::num::NonZeroUsize>(&mut it, "--jobs", "a positive integer").unwrap_err(),
            "--jobs needs a positive integer, got \"0\""
        );
        assert_eq!(value(&mut it, "--dir").unwrap_err(), "--dir needs a value");
    }

    #[test]
    fn unknown_flags_are_usage_errors_and_inject_panic_passes_through() {
        // A misspelt `--quick` must not silently run the full profile,
        // and `--dot` has no reader.
        for flag in ["--qiuck", "--dot"] {
            match parse_args(&registry(), &s(&["run", "fig3", flag])) {
                Command::Help(Some(msg)) => assert!(msg.contains(flag), "{msg}"),
                other => panic!("{flag}: {other:?}"),
            }
        }
        match parse_args(&registry(), &s(&["run", "fig3", "--inject-panic"])) {
            Command::Run { ctx, .. } => assert_eq!(ctx.flags, vec!["--inject-panic"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn list_renders_every_artifact() {
        let text = render_list(&registry());
        assert!(text.contains("fig3") && text.contains("table3"));
    }

    fn panicking_run(_: &RunCtx) -> Result<ArtifactOutput, String> {
        panic!("artifact exploded mid-sweep")
    }

    fn temp_ctx(tag: &str) -> RunCtx {
        let mut ctx = RunCtx::new();
        ctx.results = crate::results::ResultsDir::new(
            std::env::temp_dir().join(format!("metro-cli-{tag}-{}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(ctx.results.root());
        ctx
    }

    #[test]
    fn a_panicking_artifact_is_quarantined_in_the_manifest() {
        let mut r = registry();
        r.register(Artifact {
            name: "boom",
            description: "",
            quick_profile: "",
            full_profile: "",
            run: panicking_run,
        });
        let ctx = temp_ctx("quarantine");
        let err = run_one(&r, "boom", &ctx, false).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        let manifest = ctx.results.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        let failure = runs[0].get("failure").expect("typed failure recorded");
        assert_eq!(failure.get("kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(
            failure.get("detail").and_then(Json::as_str),
            Some("artifact exploded mid-sweep")
        );
        assert!(failure.get("attempts").is_none());
        let _ = std::fs::remove_dir_all(ctx.results.root());
    }

    #[test]
    fn inject_panic_exercises_the_quarantine_path() {
        // The CI smoke hook: a healthy artifact plus --inject-panic
        // must land in the manifest as a quarantined panic entry.
        let mut ctx = temp_ctx("inject");
        ctx.flags.push("--inject-panic".to_string());
        let err = run_one(&registry(), "fig3", &ctx, false).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        let manifest = ctx.results.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        let failure = runs[0].get("failure").expect("typed failure recorded");
        assert_eq!(failure.get("kind").and_then(Json::as_str), Some("panic"));
        assert!(failure
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("--inject-panic")));
        let _ = std::fs::remove_dir_all(ctx.results.root());
    }
}

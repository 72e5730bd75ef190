//! The `metro scenario` verb: run, dump, validate, and fuzz
//! declarative scenario files — and `metro resume`, which continues an
//! interrupted checkpointed run bit-identically.
//!
//! ```text
//! metro scenario run scenarios/figure1.json     # replay + record
//! metro scenario run scenarios/figure1.json --checkpoint-every 64 \
//!                                           --checkpoint-dir checkpoints
//! metro resume checkpoints/figure1.ckpt.json   # continue after a crash
//! metro scenario dump edited.json              # print its canonical bytes
//! metro scenario validate scenarios/*.json      # canonical bytes, and it lowers
//! metro scenario fuzz --count 25 --seed 7       # differential Flat vs Reference
//! ```
//!
//! `run` replays the file deterministically, prints the result summary,
//! writes `results/scenario_<name>.json`, and appends a manifest record
//! carrying the scenario's canonical hash — the same reproducibility
//! trail `metro run` leaves for registry artifacts.
//!
//! With `--checkpoint-every K`, the runner additionally snapshots the
//! complete machine state every K cycles to
//! `<checkpoint-dir>/<name>.ckpt.json` (atomic temp+fsync+rename, so a
//! crash can never leave a torn checkpoint). `metro resume <ckpt>`
//! rebuilds the run from the snapshot and finishes it; the resumed
//! result document is byte-identical to the uninterrupted run's.

use metro_harness::results::{ResultsDir, RunRecord};
use metro_harness::{cli, log, Json};
use metro_sim::checkpoint::Checkpoint;
use metro_sim::scenario::fuzz::fuzz_campaign;
use metro_sim::scenario::{codec, run_scenario, Run, Scenario, ScenarioResult};
use metro_sim::EngineKind;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> String {
    "usage: metro scenario <command>\n\
     \n\
     commands:\n\
     \x20 run <file.json> [--shards N] [--checkpoint-every K] [--checkpoint-dir D]\n\
     \x20                           replay a scenario file, record the result\n\
     \x20                           (--shards overrides the file's shard count;\n\
     \x20                           --checkpoint-every K snapshots resumable\n\
     \x20                           state every K cycles into --checkpoint-dir,\n\
     \x20                           default `checkpoints`)\n\
     \x20 dump <file.json>          print the file's canonical encoding\n\
     \x20 validate <file.json>...   check canonical bytes, then lower the scenario\n\
     \x20 fuzz [--count N] [--seed S] [--shards N]\n\
     \x20                           differential campaign: Flat vs Reference,\n\
     \x20                           or (with --shards) sharded vs single-thread\n\
     \n\
     see also: metro resume <file.ckpt.json> — continue an interrupted\n\
     checkpointed run; the finished result is byte-identical to the\n\
     uninterrupted run's\n"
        .to_string()
}

/// Periodic on-disk checkpointing policy for `run`/`resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Snapshot every this many completed cycles.
    pub every: u64,
    /// Directory the checkpoint file lands in
    /// (`<dir>/<scenario-name>.ckpt.json`, overwritten atomically).
    pub dir: PathBuf,
}

/// Entry point for `metro scenario <args…>`; returns the process exit
/// code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let help = args
        .iter()
        .skip(1)
        .any(|a| matches!(a.as_str(), "--help" | "-h"));
    match args.first().map(String::as_str) {
        Some("run" | "dump" | "validate" | "fuzz") if help => {
            log::output(&usage());
            0
        }
        Some("run") => cmd_run(&args[1..], &ResultsDir::standard()),
        Some("dump") => cmd_dump(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            log::output(&usage());
            i32::from(args.is_empty())
        }
        Some(other) => {
            log::error(&format!("metro scenario: unknown command {other:?}\n"));
            log::error_text(&usage());
            2
        }
    }
}

/// Parses the flags shared by `scenario run` and `resume`: `--shards`,
/// `--checkpoint-every`, `--checkpoint-dir`; an `Err` is the usage
/// message.
fn parse_run_flags(args: &[String]) -> Result<(Option<usize>, Option<CheckpointOpts>), String> {
    let mut shards = None;
    let mut every = None;
    let mut dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => shards = Some(cli::parsed(&mut it, a, "a count (0 = host auto)")?),
            "--checkpoint-every" => {
                let k: NonZeroU64 = cli::parsed(&mut it, a, "a positive cycle count")?;
                every = Some(k.get());
            }
            "--checkpoint-dir" => dir = Some(PathBuf::from(cli::value(&mut it, a)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let checkpoint = match (every, dir) {
        (Some(every), dir) => Some(CheckpointOpts {
            every,
            dir: dir.unwrap_or_else(|| PathBuf::from("checkpoints")),
        }),
        (None, Some(_)) => {
            return Err(
                "--checkpoint-dir needs --checkpoint-every to enable checkpointing".to_string(),
            )
        }
        (None, None) => None,
    };
    Ok((shards, checkpoint))
}

fn cmd_run(args: &[String], results: &ResultsDir) -> i32 {
    let Some(path) = args.first() else {
        log::error("metro scenario run: missing scenario file");
        return 2;
    };
    let (shards, checkpoint) = match parse_run_flags(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            log::error(&format!("metro scenario run: {e}"));
            return 2;
        }
    };
    report(
        "metro scenario run",
        run_file_with_options(path, results, shards, checkpoint.as_ref()),
    )
}

/// Prints a finished run's summary, or its failure under `verb`; the
/// exit code.
fn report(verb: &str, outcome: Result<String, String>) -> i32 {
    match outcome {
        Ok(summary) => {
            log::output(&summary);
            0
        }
        Err(e) => {
            log::error(&format!("{verb}: {e}"));
            1
        }
    }
}

/// Entry point for `metro resume <ckpt>`; returns the process exit
/// code.
#[must_use]
pub fn resume_main(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        log::error(
            "metro resume: missing checkpoint file\n\
             usage: metro resume <file.ckpt.json> [--shards N] \
             [--checkpoint-every K] [--checkpoint-dir D]",
        );
        return 2;
    };
    if matches!(path.as_str(), "--help" | "-h" | "help") {
        log::output(
            "usage: metro resume <file.ckpt.json> [--shards N] \
             [--checkpoint-every K] [--checkpoint-dir D]\n\
             \n\
             continues an interrupted `metro scenario run --checkpoint-every`\n\
             run from its latest snapshot; the finished result document is\n\
             byte-identical to the uninterrupted run's\n",
        );
        return 0;
    }
    let (shards, checkpoint) = match parse_run_flags(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            log::error(&format!("metro resume: {e}"));
            return 2;
        }
    };
    let results = ResultsDir::standard();
    report(
        "metro resume",
        resume_file(path, &results, shards, checkpoint.as_ref()),
    )
}

/// Replays one scenario file and records the result; returns the human
/// summary. Split from the arg handling so tests can drive it against a
/// temporary results directory.
///
/// `shards` overrides the file's shard count (`--shards`). The override
/// changes only the execution strategy — the recorded scenario hash is
/// the *file's* hash, and the result document is bit-identical at every
/// shard count, so a sharded replay reproduces the same artifact faster.
/// `checkpoint` asks for periodic snapshots (`--checkpoint-every` /
/// `--checkpoint-dir`).
///
/// # Errors
///
/// Returns a description of the first failure: unreadable file, codec
/// rejection, invalid topology, or a results-directory write error. A
/// checkpoint that cannot be persisted aborts the run (a checkpoint
/// that cannot be written is not crash safety), and an analytic-engine
/// scenario — an estimate, run and recorded like any other — cannot be
/// checkpointed at all.
pub fn run_file_with_options(
    path: &str,
    results: &ResultsDir,
    shards: Option<usize>,
    checkpoint: Option<&CheckpointOpts>,
) -> Result<String, String> {
    let (scenario, _) = read_scenario(path)?;
    let params = Json::obj([("source", Json::from(path))]);
    run_and_record(scenario, None, params, results, shards, checkpoint)
}

/// Continues an interrupted checkpointed run to completion and records
/// the result exactly as [`run_file_with_options`] would have: same
/// results document (byte-identical to the uninterrupted run's), same
/// manifest trail. With `checkpoint` options the resumed run keeps
/// taking periodic snapshots, so a resume can itself be interrupted and
/// resumed.
///
/// The recorded scenario hash is the *embedded* scenario's hash; a
/// `--shards` override here (like on `run`) changes only the execution
/// strategy, not the recorded hash or the result bytes.
///
/// # Errors
///
/// Returns a description of the first failure: unreadable or corrupt
/// checkpoint, state-restore mismatch, or a results write error.
pub fn resume_file(
    path: &str,
    results: &ResultsDir,
    shards: Option<usize>,
    checkpoint: Option<&CheckpointOpts>,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let ckpt = Checkpoint::from_json(&doc).map_err(|e| match e.path.as_str() {
        // A sound file of another build: what a user upgrading mid-run holds.
        "checkpoint.checkpoint_schema" => format!(
            "{e}: a checkpoint is a crash-recovery file of the build that wrote it — a lower \
             schema comes from an older build, a higher one from a newer build — so restart \
             the run with `metro scenario run`"
        ),
        _ => e.to_string(),
    })?;
    let (cycle, phase) = (ckpt.cycle, ckpt.phase.name());
    let params = Json::obj([
        ("source", Json::from(path)),
        ("resumed_at_cycle", Json::from(cycle)),
        ("resumed_phase", Json::from(phase)),
    ]);
    let scenario = ckpt.scenario.clone();
    let summary = run_and_record(scenario, Some(&ckpt), params, results, shards, checkpoint)?;
    Ok(format!(
        "resumed at cycle {cycle} ({phase} phase)\n{summary}"
    ))
}

/// The one body behind `run` and `resume`: steps a [`Run`] of the
/// scenario — from cycle 0, or from `resume` — to its end, writing
/// `<dir>/<name>.ckpt.json` at every multiple of the checkpoint period
/// (atomically: temp + fsync + rename via the results layer, so an
/// interrupted write can never leave a torn checkpoint — the previous
/// complete snapshot survives), then records the result.
fn run_and_record(
    mut scenario: Scenario,
    resume: Option<&Checkpoint>,
    params: Json,
    results: &ResultsDir,
    shards: Option<usize>,
    checkpoint: Option<&CheckpointOpts>,
) -> Result<String, String> {
    let hash = codec::scenario_hash(&scenario);
    if let Some(n) = shards {
        scenario.sim.shards = n;
    }
    let ckpt_file = format!("{}.ckpt.json", scenario.name);

    let started = Instant::now();
    let result = if scenario.sim.engine == EngineKind::Analytic {
        if resume.is_some() || checkpoint.is_some() {
            return Err("the analytic engine keeps no machine state to checkpoint".to_string());
        }
        run_scenario(&scenario).map_err(|e| e.to_string())?
    } else {
        let mut run = Run::of(&scenario, resume).map_err(|e| e.to_string())?;
        while run.step() {
            if let Some(opts) = checkpoint.filter(|o| run.cycle().is_multiple_of(o.every)) {
                let text = run.checkpoint(&scenario).to_json().render();
                ResultsDir::new(opts.dir.clone())
                    .write_text(&ckpt_file, &text)
                    .map_err(|e| e.to_string())?;
            }
        }
        run.finish().0
    };
    let wall = started.elapsed().as_secs_f64();

    let mut summary =
        record_scenario_result(&scenario.name, &hash, &result, results, wall, params)?;
    if let Some(opts) = checkpoint {
        summary.push_str(&format!(
            "  checkpointed every {} cycles to {}\n",
            opts.every,
            opts.dir.join(ckpt_file).display()
        ));
    }
    Ok(summary)
}

/// The tail of [`run_and_record`]: writes
/// `results/scenario_<name>.json`, appends the manifest record, and
/// renders the human summary. The results document depends only on the
/// scenario and its outcome — not on how the run was segmented — which
/// is what makes straight and resumed runs byte-identical on disk.
fn record_scenario_result(
    name: &str,
    hash: &str,
    result: &ScenarioResult,
    results: &ResultsDir,
    wall: f64,
    params: Json,
) -> Result<String, String> {
    let stem = format!("scenario_{name}");
    let doc = Json::obj([
        ("scenario", Json::from(name)),
        ("scenario_hash", Json::from(hash)),
        ("result", result.to_json()),
    ]);
    let out_path = results.write_json(&stem, &doc).map_err(|e| e.to_string())?;
    let mut record = RunRecord::new(&stem, wall);
    record.points = usize::from(result.point.is_some());
    record.params = params;
    record.scenario_hash = Some(hash.to_string());
    results
        .append_manifest(&record)
        .map_err(|e| e.to_string())?;

    let fold = result.outcomes.fold();
    let mut summary = String::new();
    summary.push_str(&format!(
        "scenario {name:?} ({hash})\n  outcomes {}  delivered {}  abandoned {}  payload words {}  fabric idle {}\n",
        fold.count,
        result.delivered,
        result.abandoned,
        result.payload_words,
        result.fabric_idle,
    ));
    if let Some(p) = &result.point {
        summary.push_str(&format!(
            "  load point: offered {:.3}  accepted {:.3}  mean {:.1} cyc  p95 {}  retries/msg {:.3}\n",
            p.offered, p.accepted, p.mean_latency, p.p95_latency, p.retries_per_message
        ));
    }
    summary.push_str(&format!(
        "  outcome digest {:#018x}\n  wrote {}\n",
        fold.digest,
        out_path.display()
    ));
    Ok(summary)
}

/// Reads and decodes one scenario file; the scenario and the file's text.
fn read_scenario(path: &str) -> Result<(Scenario, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let scenario = codec::from_text(&text).map_err(|e| e.to_string())?;
    Ok((scenario, text))
}

/// Prints one scenario file's canonical encoding: the bytes `validate`
/// demands, so a hand-edited file is made canonical by writing this
/// output over it.
fn cmd_dump(args: &[String]) -> i32 {
    let [path] = args else {
        log::error("metro scenario dump: expects one scenario file");
        return 2;
    };
    match read_scenario(path) {
        Ok((scenario, _)) => {
            log::output(&codec::encode(&scenario).render());
            0
        }
        Err(e) => {
            log::error(&format!("metro scenario dump: {e}"));
            1
        }
    }
}

fn cmd_validate(args: &[String]) -> i32 {
    if args.is_empty() {
        log::error("metro scenario validate: no files given");
        return 2;
    }
    let mut failures = 0usize;
    for path in args {
        match validate_file(path) {
            Ok(name) => log::info(&format!("ok  {path} ({name})")),
            Err(e) => {
                log::error(&format!("FAIL {path}: {e}"));
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

/// Validates one scenario file: it must parse, decode under the current
/// schema, and re-encode to the *identical bytes* — so schema drift or
/// hand-edits that lose canonical form fail CI rather than silently
/// re-normalizing — then lower it: a file that passes runs on every engine.
///
/// # Errors
///
/// Returns a description of the first failure.
pub fn validate_file(path: &str) -> Result<String, String> {
    let (scenario, text) = read_scenario(path)?;
    if codec::encode(&scenario).render() != text {
        return Err(format!(
            "file is not in canonical form (re-encoding changes the bytes); \
             `metro scenario dump {path}` prints its canonical bytes"
        ));
    }
    scenario.lower().map_err(|e| e.to_string())?;
    Ok(scenario.name)
}

/// Parses `fuzz`'s `--count`, `--seed` and `--shards`; an `Err` is
/// the usage message.
fn parse_fuzz_flags(args: &[String]) -> Result<(u64, u64, Option<usize>), String> {
    let mut count = 25u64;
    let mut seed = 0xD1FF_5EED_u64;
    let mut shards = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--count" => count = cli::parsed::<NonZeroU64>(&mut it, a, "a positive count")?.get(),
            "--seed" => seed = cli::u64(&mut it, a)?,
            "--shards" => match usize::try_from(cli::u64(&mut it, a)?) {
                Ok(n) if n >= 2 => shards = Some(n),
                _ => return Err("--shards expects a count >= 2".to_string()),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((count, seed, shards))
}

fn cmd_fuzz(args: &[String]) -> i32 {
    let (count, seed, shards) = match parse_fuzz_flags(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            log::error(&format!("metro scenario fuzz: {e}"));
            return 2;
        }
    };
    let started = Instant::now();
    let flat = (EngineKind::Flat, 1);
    let outcome = match shards {
        // Shard-differential mode: every seeded scenario replays on the
        // Flat engine at 1 and N shards instead of Flat and Reference.
        // Either way outcomes, telemetry and machine state must match.
        Some(n) => fuzz_campaign(seed, count, [flat, (EngineKind::Flat, n)]).map(|done| {
            format!(
                "shard-differential fuzz: {done} scenarios, shards={n} == shards=1 on \
                 every one ({:.1}s, base seed {seed:#x})",
                started.elapsed().as_secs_f64()
            )
        }),
        None => fuzz_campaign(seed, count, [flat, (EngineKind::Reference, 1)]).map(|done| {
            format!(
                "differential fuzz: {done} scenarios, Flat == Reference on every one \
                 ({:.1}s, base seed {seed:#x})",
                started.elapsed().as_secs_f64()
            )
        }),
    };
    match outcome {
        Ok(msg) => {
            log::info(&msg);
            0
        }
        Err(e) => {
            log::error(&format!("differential fuzz FAILED: {e}"));
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metro-scenario-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_file_records_result_and_hash() {
        let dir = temp_dir("run");
        let s = crate::scenarios::named("figure1").unwrap();
        let file = dir.join("figure1.json");
        std::fs::write(&file, codec::encode(&s).render()).unwrap();
        let results = ResultsDir::new(dir.join("results"));

        let summary = run_file_with_options(file.to_str().unwrap(), &results, None, None).unwrap();
        assert!(summary.contains("scenario \"figure1\""));
        assert!(summary.contains("outcome digest"));

        // The result document landed and carries the scenario hash.
        let doc = Json::parse(
            &std::fs::read_to_string(results.root().join("scenario_figure1.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            doc.get("scenario_hash").and_then(Json::as_str),
            Some(codec::scenario_hash(&s).as_str())
        );
        // So did the manifest record.
        let manifest = results.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("scenario_hash").and_then(Json::as_str),
            Some(codec::scenario_hash(&s).as_str())
        );

        // Re-running the same file reproduces the identical result doc.
        run_file_with_options(file.to_str().unwrap(), &results, None, None).unwrap();
        let again = Json::parse(
            &std::fs::read_to_string(results.root().join("scenario_figure1.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(again, doc, "scenario replay must be reproducible");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_resumes_to_a_byte_identical_result() {
        let dir = temp_dir("resume");
        let s = crate::scenarios::named("figure1").unwrap();
        let file = dir.join("figure1.json");
        std::fs::write(&file, codec::encode(&s).render()).unwrap();

        // The uninterrupted reference run.
        let straight = ResultsDir::new(dir.join("straight"));
        run_file_with_options(file.to_str().unwrap(), &straight, None, None).unwrap();
        let reference =
            std::fs::read_to_string(straight.root().join("scenario_figure1.json")).unwrap();

        // A checkpointed run: the latest snapshot lands in ckpts/.
        let opts = CheckpointOpts {
            every: 64,
            dir: dir.join("ckpts"),
        };
        let checkpointed = ResultsDir::new(dir.join("checkpointed"));
        let summary =
            run_file_with_options(file.to_str().unwrap(), &checkpointed, None, Some(&opts))
                .unwrap();
        assert!(
            summary.contains("checkpointed every 64 cycles"),
            "{summary}"
        );
        let ckpt_file = opts.dir.join("figure1.ckpt.json");
        assert!(ckpt_file.exists(), "periodic snapshot written");

        // Pretend the checkpointed run crashed after its last snapshot:
        // resume from the file into a fresh results directory. The
        // resumed result document must be byte-identical to the
        // uninterrupted run's.
        let resumed = ResultsDir::new(dir.join("resumed"));
        let summary = resume_file(ckpt_file.to_str().unwrap(), &resumed, None, None).unwrap();
        assert!(summary.starts_with("resumed at cycle"), "{summary}");
        let resumed_doc =
            std::fs::read_to_string(resumed.root().join("scenario_figure1.json")).unwrap();
        assert_eq!(resumed_doc, reference, "resume must be bit-identical");

        // The resumed run's manifest records where it picked up.
        let manifest = resumed.read_manifest().unwrap();
        let runs = manifest.get("runs").and_then(Json::as_arr).unwrap();
        let params = runs[0].get("params").unwrap();
        assert!(params.get("resumed_at_cycle").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_torn_checkpoint() {
        let dir = temp_dir("torn");
        let s = crate::scenarios::named("figure1").unwrap();
        let file = dir.join("figure1.json");
        std::fs::write(&file, codec::encode(&s).render()).unwrap();
        let opts = CheckpointOpts {
            every: 64,
            dir: dir.join("ckpts"),
        };
        let results = ResultsDir::new(dir.join("results"));
        run_file_with_options(file.to_str().unwrap(), &results, None, Some(&opts)).unwrap();
        let ckpt_file = opts.dir.join("figure1.ckpt.json");
        let text = std::fs::read_to_string(&ckpt_file).unwrap();
        std::fs::write(&ckpt_file, &text[..text.len() / 2]).unwrap();
        let err = resume_file(ckpt_file.to_str().unwrap(), &results, None, None).unwrap_err();
        assert!(!err.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_says_a_checkpoint_of_another_build_must_be_restarted() {
        use metro_sim::CHECKPOINT_SCHEMA;
        let dir = temp_dir("schema");
        let s = crate::scenarios::named("figure1").unwrap();
        let file = dir.join("figure1.json");
        std::fs::write(&file, codec::encode(&s).render()).unwrap();
        let opts = CheckpointOpts {
            every: 64,
            dir: dir.join("ckpts"),
        };
        let results = ResultsDir::new(dir.join("results"));
        run_file_with_options(file.to_str().unwrap(), &results, None, Some(&opts)).unwrap();
        let ckpt_file = opts.dir.join("figure1.ckpt.json");
        let ckpt = std::fs::read_to_string(&ckpt_file).unwrap();
        // The file a user upgrading mid-run holds: sealed and sound,
        // one schema back (and, downgrading, one ahead).
        for version in [CHECKPOINT_SCHEMA - 1, CHECKPOINT_SCHEMA + 1] {
            let mut doc = Json::parse(&ckpt).unwrap();
            doc.set("checkpoint_schema", Json::from(version));
            if let Json::Obj(pairs) = &mut doc {
                pairs.retain(|(k, _)| k != "checkpoint_hash");
            }
            metro_harness::document::seal(&mut doc, "checkpoint_hash");
            std::fs::write(&ckpt_file, doc.render()).unwrap();
            let err = resume_file(ckpt_file.to_str().unwrap(), &results, None, None).unwrap_err();
            assert!(
                err.starts_with("checkpoint decode error at checkpoint.checkpoint_schema"),
                "{err}"
            );
            assert!(
                err.contains("an older build") && err.contains("restart the run"),
                "{err}"
            );
        }
        let args = [ckpt_file.to_str().unwrap().to_string()];
        assert_eq!(resume_main(&args), 1, "a refused checkpoint exits 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_analytic_scenario_runs_as_an_estimate_and_refuses_to_checkpoint() {
        let dir = temp_dir("analytic");
        let mut s = crate::scenarios::named("figure1").unwrap();
        s.sim.engine = EngineKind::Analytic;
        let file = dir.join("figure1.json");
        std::fs::write(&file, codec::encode(&s).render()).unwrap();
        let results = ResultsDir::new(dir.join("results"));

        // What README tells scenario files to opt into is recorded like
        // any other run.
        let summary = run_file_with_options(file.to_str().unwrap(), &results, None, None).unwrap();
        assert!(summary.contains("outcomes 12  delivered 12"), "{summary}");
        assert!(results.root().join("scenario_figure1.json").exists());

        // An estimate has no machine to snapshot, on `run` or `resume`.
        let opts = CheckpointOpts {
            every: 64,
            dir: dir.join("ckpts"),
        };
        let refusal = "the analytic engine keeps no machine state to checkpoint";
        let err =
            run_file_with_options(file.to_str().unwrap(), &results, None, Some(&opts)).unwrap_err();
        assert_eq!(err, refusal);
        s.sim.engine = EngineKind::Flat;
        let mut ckpt = Run::of(&s, None).unwrap().checkpoint(&s);
        ckpt.scenario.sim.engine = EngineKind::Analytic;
        let ckpt_file = dir.join("figure1.ckpt.json");
        std::fs::write(&ckpt_file, ckpt.to_json().render()).unwrap();
        let err = resume_file(ckpt_file.to_str().unwrap(), &results, None, None).unwrap_err();
        assert_eq!(err, refusal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fuzz_campaign_of_zero_scenarios_is_a_usage_error() {
        let args = |count: &str| vec!["fuzz".to_string(), "--count".to_string(), count.to_string()];
        assert_eq!(main(&args("0")), 2);
        assert_eq!(
            parse_fuzz_flags(&args("0")[1..]).unwrap_err(),
            "--count needs a positive count, got \"0\""
        );
        assert_eq!(main(&args("1")), 0);
    }

    #[test]
    fn every_command_answers_help() {
        for command in ["run", "dump", "validate", "fuzz"] {
            for flag in ["--help", "-h"] {
                let args = [command, flag].map(String::from);
                assert_eq!(main(&args), 0, "{command} {flag}");
            }
        }
        assert_eq!(main(&["dump".to_string()]), 2, "dump needs a file");
        let missing = ["dump", "no/such/file.json"].map(String::from);
        assert_eq!(main(&missing), 1);
    }

    #[test]
    fn validate_accepts_canonical_and_rejects_edited_files() {
        let dir = temp_dir("validate");
        let s = crate::scenarios::named("cascade_w4").unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, codec::encode(&s).render()).unwrap();
        assert_eq!(validate_file(good.to_str().unwrap()).unwrap(), "cascade_w4");

        // Whitespace-only edits are not canonical.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, codec::encode(&s).render_compact()).unwrap();
        let bad = bad.to_str().unwrap();
        let hint = format!("`metro scenario dump {bad}` prints its canonical bytes");
        assert!(validate_file(bad).unwrap_err().ends_with(&hint));

        // Unknown fields are rejected by the codec itself.
        let mut doc = codec::encode(&s);
        doc.set("surprise", Json::from(1u64));
        let unknown = dir.join("unknown.json");
        std::fs::write(&unknown, doc.render()).unwrap();
        assert!(validate_file(unknown.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

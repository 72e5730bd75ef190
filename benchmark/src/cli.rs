//! The command line: one workload in this process, every workload each
//! in a child process of its own, or `--compare`.

use crate::compare;
use crate::host;
use crate::layers;
use crate::measure::{self, Job};
use crate::report::Report;
use crate::workloads::{self, Workload, DEFAULT_SEED, WORKLOADS};
use metro_harness::results::ResultsDir;
use metro_harness::Json;
use std::path::{Path, PathBuf};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "\
usage: metro-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
                       [--out-dir DIR] [--out FILE]
       metro-benchmark --compare A.json B.json [--bounds BENCHMARK.json]

With --workload: measures that workload in this process, prints every
metric by name with its unit, writes <out-dir>/<name>.trace<0|1>.json,
and ends stdout with one JSON object {correct, attempted, failed,
metrics}. --trace 0 (default) is the end-to-end pass, --trace 1 the
traced per-layer pass (also writes <out-dir>/<name>.trace.json).

Without --workload: runs every workload, both passes, each in a child
process of its own (so peak RSS is per workload), and writes the
combined result file to --out (default <out-dir>/results.json).

--compare: per workload and end-to-end metric, the two medians, the
ratio with its base, the bound, and ok / worse / unresolved.

--out-dir defaults to benchmark/out: run from the repository root.
--seed defaults to 1, the seed the pinned outputs in
benchmark/workloads/ belong to.
Exit status is non-zero if any check failed or any metric is worse or
unresolved.
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u64,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
    help: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => {
                o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            // Divides every cycle count; for the smoke test only —
            // scaled numbers are never recorded.
            "--scale" => {
                o.scale = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .ok_or("--scale needs a whole number >= 1")?;
            }
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--bounds" => o.bounds = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                o.compare = Some((a, PathBuf::from(value()?)));
            }
            "--help" | "-h" => o.help = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Entry point; returns the process exit code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    // A probe child the end-to-end pass starts (not for users).
    if let [flag, probe @ ..] = args {
        if flag == "--probe" {
            return match measure::probe_child(probe) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("metro-benchmark: {e}");
                    2
                }
            };
        }
    }
    let options = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("metro-benchmark: {e}\n\n{USAGE}");
            return 2;
        }
    };
    if options.help {
        print!("{USAGE}");
        return 0;
    }
    let outcome = if let Some((a, b)) = &options.compare {
        run_compare(a, b, &options.bounds)
    } else if let Some(name) = &options.workload {
        match workloads::by_name(name) {
            Some(w) => run_one(w, &options),
            None => Err(format!(
                "unknown workload {name:?} (known: {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    } else {
        run_all(&options)
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("metro-benchmark: {e}");
            2
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

fn run_compare(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let bounds = compare::bounds_from(&read_json(bounds)?)?;
    let (table, all_ok) = compare::compare(&read_json(a)?, &read_json(b)?, &bounds)?;
    print!("{table}");
    Ok(all_ok)
}

fn result_name(workload: &str, trace: bool) -> String {
    format!("{workload}.trace{}.json", u8::from(trace))
}

/// One workload, one pass, in this process.
fn run_one(w: &'static Workload, o: &Options) -> Result<bool, String> {
    // `git describe` (the CLI path records it in the manifest) must
    // not wander above the checkout looking for a repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let job = Job {
        workload: w,
        seed: o.seed,
        seconds: o.seconds,
        scale: o.scale,
        out_dir: o.out_dir.clone(),
    };
    let mut report = Report::new(w.name, o.seed, o.seconds, o.scale, o.trace);
    if host::nproc() < w.shards {
        let warning = format!(
            "THIS HOST OFFERS {} THREAD(S) BUT {} TICKS ON {} SHARDS: its host-time numbers \
             measure oversubscription, not sharding",
            host::nproc(),
            w.name,
            w.shards
        );
        eprintln!("WARNING: {warning}");
        report.warnings.push(warning);
    }
    if o.trace {
        layers::traced(&job, &mut report)?;
    } else {
        measure::end_to_end(&job, &mut report)?;
    }
    for name in report.missing() {
        report
            .warnings
            .push(format!("metric {name} was not measured"));
    }

    print!("{}", report.render_text());
    ResultsDir::new(&o.out_dir)
        .write_text(
            &result_name(w.name, o.trace),
            &report.to_json(host::info()).render(),
        )
        .map_err(|e| e.to_string())?;
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// Every workload, both passes, each in a child process of its own, in
/// the fixed order; then the combined result file.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_ok = true;
    let mut combined = Vec::new();
    for w in &WORKLOADS {
        let mut metrics = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for trace in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--scale", &o.scale.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&o.out_dir)
                .status()
                .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
            all_ok &= status.success();
            let doc = read_json(&o.out_dir.join(result_name(w.name, trace)))?;
            let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += num("ops_attempted");
            failed += num("ops_failed");
            if let Some(Json::Obj(pairs)) = doc.get("metrics") {
                metrics.extend(pairs.iter().cloned());
            }
        }
        combined.push((
            w.name.to_string(),
            Json::obj([
                ("ops_attempted", Json::from(attempted)),
                ("ops_failed", Json::from(failed)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::from(1u64)),
        ("seed", Json::from(o.seed)),
        ("seconds", Json::from(o.seconds)),
        ("scale", Json::from(o.scale)),
        ("host", host::info()),
        ("workloads", Json::Obj(combined)),
    ]);
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| o.out_dir.join("results.json"));
    std::fs::write(&out, doc.render()).map_err(|e| format!("cannot write {out:?}: {e}"))?;
    println!(
        "{}: wrote {}",
        if all_ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        },
        out.display()
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let o = parse(&args(&[
            "--workload",
            "fig3_busy",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("fig3_busy"));
        assert_eq!((o.seed, o.seconds, o.trace, o.scale), (42, 10.0, true, 1));
    }

    #[test]
    fn defaults_are_the_pinned_seed_and_the_recorded_run_length() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (DEFAULT_SEED, 30.0, false));
        assert_eq!(o.out_dir, PathBuf::from("benchmark/out"));
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--seed"],
            &["--scale", "0"],
            &["--compare", "only-one.json"],
            &["--frobnicate"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
        assert_eq!(main(&args(&["--workload", "no-such"])), 2);
    }
}

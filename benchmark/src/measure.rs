//! The end-to-end pass: one workload measured through the same public
//! entry points `metro scenario run` and `metro resume` use, tracing
//! off.
//!
//! First, once, one whole run of the workload: its outputs are the
//! ones checked and reported as the simulated metrics, and it warms the
//! process up. Then timings in rounds, each in the order (1) set-up
//! batches, each in a child process, (2) estimates, (3) timed reps,
//! which run the workload at 1/[`SHORT`] of its length, (4) checkpoint
//! saves, (5) checkpoint loads; then, once, (6) peak memory of one
//! whole run in a child process and (7) the resume check.
//!
//! Every timing is CPU time of the measuring thread
//! ([`host::thread_cpu_s`]), not wall time. A round gives each timing
//! metric one sample, the fastest of its timings in that round; the
//! metric is the fastest sample, and the samples' quartiles, printed
//! beside it, say how steady the host was while it was taken. Every
//! sample is scaled to the reference host's usual speed by the
//! calibration passes made between the operations
//! ([`crate::calibrate`]). `README.md` ("How the bounds were fixed")
//! has the measurements each of these choices rests on.

use crate::calibrate::{Calibrator, REFERENCE_S};
use crate::host;
use crate::pins::Pins;
use crate::report::Report;
use crate::stats::percentile;
use crate::workloads::{Workload, DEFAULT_SEED};
use metro_bench::scenario_cli::run_file_with_options;
use metro_harness::results::ResultsDir;
use metro_harness::Json;
use metro_sim::checkpoint::{resume_scenario, run_scenario_resumable, Checkpoint, CheckpointSink};
use metro_sim::scenario::{codec, run_scenario, Scenario};
use metro_sim::{EngineKind, NetworkSim};
use std::ffi::OsStr;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds the timings of every metric are spread over. The host's
/// noise comes in stretches of seconds to minutes: a metric timed in
/// one short window reads whatever stretch that window fell in, while
/// one timed in every round sees the whole run.
const ROUNDS: usize = 15;
/// The timed reps run the workload at this fraction of its length
/// (warm-up and measured cycles, fault times). On the shared host a
/// timing is clean only if the host leaves the whole of it alone, and
/// the quiet gaps are short: in the noisy sessions the fastest of 20-30
/// timings of 20-200 ms repeated within 5%, the fastest of 5 timings
/// of 2.5 s within 10%. A rep of 130-310 ms, 40-90 times a run, is
/// short enough to fall into a gap and long enough that set-up and the
/// results document stay a few percent of it.
pub const SHORT: u64 = 8;
/// Share of `--seconds` the rounds fill; the one-off runs (outputs,
/// snapshot, memory probe, resume) take about the rest.
const ROUNDS_SHARE: f64 = 0.75;
/// Shares of a round: set-up batches, estimates, timed reps,
/// checkpoint saves, checkpoint loads. Each phase repeats its
/// operation until its share of the round has passed, at least once.
const SETUP_SHARE: f64 = 0.10;
const ESTIMATE_SHARE: f64 = 0.10;
const REP_SHARE: f64 = 0.45;
const SAVE_SHARE: f64 = 0.20;
const LOAD_SHARE: f64 = 0.15;
/// Wall seconds one set-up batch lasts.
const SETUP_BATCH_S: f64 = 0.04;
/// The metrics a round times, in the order it times them.
const TIMED: [&str; 5] = [
    "setup_s",
    "estimate_cpu_s",
    "run_cpu_s",
    "ckpt_save_s",
    "ckpt_load_s",
];
/// Where `run_cpu_s` sits in [`TIMED`].
const RUN: usize = 2;

/// What one run was asked to do, and where it may write.
#[derive(Debug)]
pub struct Job {
    /// The workload.
    pub workload: &'static Workload,
    /// Run seed: derives `scenario.seed` and `sim.seed`.
    pub seed: u64,
    /// Measuring time asked for.
    pub seconds: f64,
    /// Cycle-count divisor (1 = the recorded benchmark).
    pub scale: u64,
    /// Directory for result documents and traces.
    pub out_dir: PathBuf,
}

impl Job {
    /// Whether this run is the one the pinned outputs belong to.
    #[must_use]
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1
    }
}

/// A run's scratch directory (inside `out_dir`, so nothing is written
/// outside the checkout), removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<out_dir>/tmp-<pid>`.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure as text.
    pub fn create(out_dir: &Path) -> Result<Self, String> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
        Ok(Self { root })
    }

    /// A path inside the scratch directory.
    #[must_use]
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Writes a scenario file the way `metro scenario dump` renders it.
///
/// # Errors
///
/// Returns the I/O failure as text.
pub fn write_scenario(path: &Path, scenario: &Scenario) -> Result<(), String> {
    std::fs::write(path, codec::encode(scenario).render())
        .map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str().ok_or(format!("{path:?} is not UTF-8"))
}

/// What one run through the CLI's path produced.
#[derive(Debug)]
pub struct CliRun {
    /// Wall time of the whole run: read, decode, build, tick loop,
    /// results document and manifest on disk.
    pub wall_s: f64,
    /// CPU time the calling thread spent on it.
    pub cpu_s: f64,
    /// The `result` object of the results document it wrote.
    pub result: Json,
}

/// One whole run through `metro scenario run`'s own path, into a fresh
/// results directory (so the manifest it appends to is always empty
/// and that cost is constant).
///
/// # Errors
///
/// Returns the run's own error, or a description of a results document
/// that is missing or malformed.
pub fn cli_run(file: &Path, results_root: &Path, name: &str) -> Result<CliRun, String> {
    let _ = std::fs::remove_dir_all(results_root);
    let results = ResultsDir::new(results_root);
    let file = path_str(file)?;
    let (started, cpu_started) = (Instant::now(), host::thread_cpu_s());
    run_file_with_options(file, &results, None, None)?;
    let cpu_s = host::thread_cpu_s() - cpu_started;
    let wall_s = started.elapsed().as_secs_f64();
    let doc_path = results_root.join(format!("scenario_{name}.json"));
    let text =
        std::fs::read_to_string(&doc_path).map_err(|e| format!("cannot read {doc_path:?}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{doc_path:?}: {e}"))?;
    let result = doc
        .get("result")
        .cloned()
        .ok_or(format!("{doc_path:?} has no result"))?;
    let _ = std::fs::remove_dir_all(results_root);
    Ok(CliRun {
        wall_s,
        cpu_s,
        result,
    })
}

/// The outputs a run is checked by, read off a results document.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// `outcome_digest`, as rendered.
    pub digest: String,
    /// Median latency in simulated cycles.
    pub p50: f64,
    /// 95th-percentile latency in simulated cycles.
    pub p95: f64,
    /// Accepted load, as a fraction of injection capacity.
    pub accepted: f64,
    /// Retries per delivered message.
    pub retries: f64,
}

impl Outputs {
    /// Extracts the checked outputs from a `result` object.
    ///
    /// # Errors
    ///
    /// Names the first missing field.
    pub fn from_result(result: &Json) -> Result<Self, String> {
        let point = result.get("point").ok_or("result has no load point")?;
        let num = |key: &str| {
            point
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("load point has no {key}"))
        };
        Ok(Self {
            digest: result
                .get("outcome_digest")
                .and_then(Json::as_str)
                .ok_or("result has no outcome_digest")?
                .to_string(),
            p50: num("p50_latency")?,
            p95: num("p95_latency")?,
            accepted: num("accepted")?,
            retries: num("retries_per_message")?,
        })
    }
}

/// Checks one rep's outputs: against the pins on the pinned run, and
/// against the first rep always (one seed, one answer).
fn check_outputs(
    report: &mut Report,
    what: &str,
    got: &Outputs,
    first: Option<&Outputs>,
    pins: Option<&Pins>,
) {
    if let Some(pins) = pins {
        if *got != pins.outputs {
            report.ops.fail(
                what,
                &format!("outputs {got:?} differ from the pinned {:?}", pins.outputs),
            );
        }
    }
    if let Some(first) = first {
        if got != first {
            report.ops.fail(
                what,
                &format!(
                    "digest {} differs from the first rep's {}",
                    got.digest, first.digest
                ),
            );
        }
    }
}

/// The estimate's relative error against the cycle-accurate figure,
/// in percent.
#[must_use]
pub fn err_pct(estimate: f64, reference: f64) -> f64 {
    100.0 * (estimate - reference).abs() / reference
}

/// How closely the estimate matches the cycle-accurate figure:
/// `100 − error %`. Reported end to end instead of the error itself
/// because the error is 0 on several workloads, and a metric that sits
/// at 0 has no relative bound.
fn agree_pct(estimate: f64, reference: f64) -> f64 {
    100.0 - err_pct(estimate, reference)
}

/// Checked runs of one scenario file through the CLI path, one at a
/// time.
#[derive(Debug)]
pub struct Reps<'a> {
    job: &'a Job,
    scratch: &'a Scratch,
    file: &'a Path,
    /// What a run is called in the operation tally.
    label: &'static str,
    pins: Option<Pins>,
    /// Wall time of each rep that ran.
    pub walls: Vec<f64>,
    /// CPU time the measuring thread spent on each rep that ran.
    pub cpus: Vec<f64>,
    first: Option<(Outputs, Json)>,
}

impl<'a> Reps<'a> {
    /// Reps of `file`, called `label` in the operation tally; `pinned`
    /// says the file is the run whose outputs `workloads/` pins.
    #[must_use]
    pub fn new(
        job: &'a Job,
        scratch: &'a Scratch,
        file: &'a Path,
        label: &'static str,
        pinned: bool,
    ) -> Self {
        Self {
            job,
            scratch,
            file,
            label,
            pins: pinned.then(|| Pins::of(job.workload.name)),
            walls: Vec::new(),
            cpus: Vec::new(),
            first: None,
        }
    }

    /// Reps of the whole workload, after one discarded warm-up run of
    /// a tenth of the cycles: it pages in the code and the allocator's
    /// arenas.
    pub fn warmed_up(
        job: &'a Job,
        scratch: &'a Scratch,
        report: &mut Report,
        file: &'a Path,
    ) -> Self {
        let w = job.workload;
        let warm_file = scratch.path("warmup.json");
        let warm = write_scenario(&warm_file, &w.scenario(job.seed, job.scale * 10))
            .and_then(|()| cli_run(&warm_file, &scratch.path("warmup"), w.name));
        if let Err(e) = warm {
            report.warnings.push(format!("warm-up run failed: {e}"));
        }
        Self::new(job, scratch, file, "rep", job.pinned())
    }

    /// One timed rep, its outputs checked; `false` if it did not run
    /// (it would fail the same way again, so the caller stops).
    pub fn rep(&mut self, report: &mut Report) -> bool {
        let i = self.walls.len();
        let what = format!("{} {i}", self.label);
        let name = self.job.workload.name;
        let run = report.ops.run(&what, || {
            let run = cli_run(self.file, &self.scratch.path("results"), name)?;
            let outputs = Outputs::from_result(&run.result)?;
            Ok((run, outputs))
        });
        let Some((run, outputs)) = run else {
            return false;
        };
        check_outputs(
            report,
            &what,
            &outputs,
            self.first.as_ref().map(|(o, _)| o),
            self.pins.as_ref(),
        );
        self.walls.push(run.wall_s);
        self.cpus.push(run.cpu_s);
        self.first.get_or_insert((outputs, run.result));
        true
    }

    /// The first rep's result object.
    #[must_use]
    pub fn straight(&self) -> Option<&Json> {
        self.first.as_ref().map(|(_, result)| result)
    }
}

/// The body of a probe child (`--probe KIND ARGS…`, not for users): a
/// measurement that needs a process of its own, printed as one number.
/// `setup FILE BATCH_S` is one set-up batch on a fresh heap, as a run's
/// is; `rss FILE RESULTS_ROOT NAME` is one whole run through the CLI's
/// path, then this process's `VmHWM` in MiB.
///
/// # Errors
///
/// Returns the measured call's error, a malformed argument list, or
/// that `/proc` offers no `VmHWM`.
pub fn probe_child(args: &[String]) -> Result<(), String> {
    let value = match args {
        [kind, file, batch_s] if kind == "setup" => {
            let batch_s = batch_s.parse().map_err(|e| format!("batch length: {e}"))?;
            setup_batch(Path::new(file), batch_s)?
        }
        [kind, file, results_root, name] if kind == "rss" => {
            cli_run(Path::new(file), Path::new(results_root), name)?;
            host::peak_rss_mib().ok_or("this host offers no VmHWM")?
        }
        _ => return Err(format!("unknown probe {args:?}")),
    };
    println!("{value}");
    Ok(())
}

/// Starts this program again as a probe child and reads the number it
/// prints.
fn probe(args: &[&OsStr], env: &[(&str, &str)]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let child = std::process::Command::new(exe)
        .envs(env.iter().copied())
        .arg("--probe")
        .args(args)
        .output()
        .map_err(|e| format!("cannot start the probe {args:?}: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "the probe {args:?} failed: {}",
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&child.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("the probe {args:?} printed no number: {e}"))
}

/// Runs the scenario up to `ckpt_at` and returns the snapshot the CLI's
/// periodic sink would have been handed there. The sink refuses the
/// snapshot to end the run: only the state at `ckpt_at` is wanted.
///
/// # Errors
///
/// Returns the runner's error if it failed before `ckpt_at`.
pub fn snapshot_at(scenario: &Scenario, ckpt_at: u64) -> Result<Checkpoint, String> {
    let mut taken: Option<Checkpoint> = None;
    let mut sink = |c: &Checkpoint| -> Result<(), Box<dyn std::error::Error>> {
        taken = Some(c.clone());
        Err("snapshot taken".into())
    };
    let ended = run_scenario_resumable(
        scenario,
        None,
        Some(CheckpointSink {
            every: ckpt_at,
            sink: &mut sink,
        }),
    );
    match (taken, ended) {
        (Some(c), _) => Ok(c),
        (None, Err(e)) => Err(e.to_string()),
        (None, Ok(_)) => Err(format!("the run ended before cycle {ckpt_at}")),
    }
}

/// One set-up batch: read → decode → build, repeated until `batch_s`
/// has passed; the sample is the mean CPU time per set-up.
fn setup_batch(file: &Path, batch_s: f64) -> Result<f64, String> {
    let (started, cpu_started) = (Instant::now(), host::thread_cpu_s());
    let mut built = 0u32;
    while built == 0 || started.elapsed().as_secs_f64() < batch_s {
        let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
        let decoded = codec::from_text(&text)?;
        black_box(NetworkSim::from_scenario(&decoded).map_err(|e| e.to_string())?);
        built += 1;
    }
    Ok((host::thread_cpu_s() - cpu_started) / f64::from(built))
}

/// One phase of a round: repeats `op` until the phase's end is due —
/// at least once — with calibration passes before the first and after
/// each, and returns the fastest of the timings `op` returned. A failed
/// operation returns none and ends the phase: it would fail the same
/// way again.
///
/// The fastest, because the simulator is deterministic: what the host
/// adds to a timing is only ever a delay.
fn fastest_until(
    due: Instant,
    host_speed: &mut Calibrator,
    mut op: impl FnMut() -> Option<f64>,
) -> Option<f64> {
    host_speed.passes_between_operations();
    let mut fastest = op()?;
    host_speed.passes_between_operations();
    while Instant::now() < due {
        let Some(timing) = op() else { break };
        fastest = fastest.min(timing);
        host_speed.passes_between_operations();
    }
    Some(fastest)
}

/// CPU time `op` took on this thread, beside what it returned.
fn cpu_timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let started = host::thread_cpu_s();
    let out = op();
    (out, host::thread_cpu_s() - started)
}

/// The end-to-end pass of one workload.
///
/// # Errors
///
/// Returns a description of a failure that prevents measuring at all
/// (scratch directory, scenario file, set-up). Failures of measured
/// operations are recorded in the report instead.
pub fn end_to_end(job: &Job, report: &mut Report) -> Result<(), String> {
    let w = job.workload;
    let scratch = Scratch::create(&job.out_dir)?;
    let scenario = w.scenario(job.seed, job.scale);
    let file = scratch.path(&format!("{}.json", w.name));
    write_scenario(&file, &scenario)?;
    let short_scale = job.scale * SHORT;
    let short_file = scratch.path(&format!("{}.short.json", w.name));
    write_scenario(&short_file, &w.scenario(job.seed, short_scale))?;
    let mut analytic = scenario.clone();
    analytic.sim.engine = EngineKind::Analytic;

    // The whole workload, once: the outputs every check and every
    // simulated metric is about. It also warms this process up.
    let mut whole = Reps::new(job, &scratch, &file, "run", job.pinned());
    whole.rep(report);

    let mut samples: [Vec<f64>; TIMED.len()] = Default::default();
    let mut estimate = None;
    let mut estimates = 0;
    let mut reps = Reps::new(job, &scratch, &short_file, "rep", false);
    let mut checkpoint = CheckpointPass::new(job, &scratch);
    let round_s = job.seconds * ROUNDS_SHARE / ROUNDS as f64;
    let mut host_speed = Calibrator::new();
    // When each phase is due to end: a phase that overruns (it makes
    // its operation at least once) takes the time from the next.
    let mut due = Instant::now();
    let mut phase_end = |share: f64| {
        due += Duration::from_secs_f64(round_s * share);
        due
    };
    for _ in 0..ROUNDS {
        // (1) Set-up: everything a run does before its first simulated
        // cycle, each batch in a process of its own (a run's heap is
        // fresh; built after the reps, in this process, a sharded
        // metro1k takes a third longer).
        let mut failed = None;
        let setup = fastest_until(phase_end(SETUP_SHARE), &mut host_speed, || {
            let batch_s = SETUP_BATCH_S.to_string();
            let args = ["setup".as_ref(), file.as_os_str(), batch_s.as_ref()];
            probe(&args, &[]).map_err(|e| failed = Some(e)).ok()
        });
        if let Some(e) = failed {
            return Err(e);
        }

        // (2) The analytic estimate of the same scenario.
        let estimated = fastest_until(phase_end(ESTIMATE_SHARE), &mut host_speed, || {
            let what = format!("estimate {estimates}");
            estimates += 1;
            let (result, cpu_s) = cpu_timed(|| {
                report
                    .ops
                    .run(&what, || run_scenario(&analytic).map_err(|e| e.to_string()))
            });
            estimate = Some(result?);
            Some(cpu_s)
        });

        // (3) Timed reps: the workload at 1/SHORT of its length,
        // through the CLI's path.
        let run = fastest_until(phase_end(REP_SHARE), &mut host_speed, || {
            reps.rep(report).then(|| reps.cpus[reps.cpus.len() - 1])
        });

        // (4) + (5) Checkpoint saves and loads (the first round takes
        // the snapshot).
        let due = (phase_end(SAVE_SHARE), phase_end(LOAD_SHARE));
        let (saved, loaded) = checkpoint.round(report, &scenario, due, &mut host_speed);

        let timed = [setup, estimated, run, saved, loaded];
        for (samples, fastest) in samples.iter_mut().zip(timed) {
            samples.extend(fastest);
        }
    }
    // The samples, scaled to the reference host's speed by the run's
    // calibration passes: by a fast pass, as the metric is its fastest
    // sample (a typical pass, slowed by bursts that the fastest timing
    // escaped, would make that timing read too good). The 10th
    // percentile, not the fastest: there are about a thousand passes,
    // and a pass is so short that the fastest of so many is a fluke.
    let pass_s = percentile(&host_speed.passes, 10.0);
    report.calibration_pass_s = Some((pass_s, host_speed.passes.len()));
    let scale = REFERENCE_S / pass_s;
    for cpu_s in samples.iter_mut().flatten() {
        *cpu_s *= scale;
    }
    for (name, samples) in TIMED.iter().zip(&samples) {
        if !samples.is_empty() {
            report.fastest(name, samples);
        }
    }
    if !samples[RUN].is_empty() {
        let cycles = w.driven_cycles(short_scale) as f64;
        let rates: Vec<f64> = samples[RUN].iter().map(|s| cycles / s).collect();
        report.fastest("sim_cycles_per_s", &rates);
    }
    let straight = whole.straight();
    if let Some(outputs) = straight.and_then(|r| Outputs::from_result(r).ok()) {
        report.exact("sim_p50_latency_cyc", outputs.p50);
        report.exact("sim_p95_latency_cyc", outputs.p95);
        report.exact("sim_accepted_load", outputs.accepted);
        report.exact("sim_retries_per_msg", outputs.retries);
        if let Some(point) = estimate.and_then(|e| e.point) {
            report.exact(
                "estimate_p50_agree_pct",
                agree_pct(point.p50_latency as f64, outputs.p50),
            );
            report.exact(
                "estimate_p95_agree_pct",
                agree_pct(point.p95_latency as f64, outputs.p95),
            );
        }
    }

    // (6) Peak memory of one whole run, in a child process that does
    // nothing else. The child runs with a single malloc arena: with
    // glibc's per-thread arenas the high-water mark of a sharded run
    // moves by 15% from run to run with thread timing, which is the
    // allocator's placement, not the program's demand.
    if let Some(mib) = report.ops.run("memory probe", || {
        let results_root = scratch.path("probe");
        let args = [
            "rss".as_ref(),
            file.as_os_str(),
            results_root.as_os_str(),
            w.name.as_ref(),
        ];
        probe(&args, &[("MALLOC_ARENA_MAX", "1")])
    }) {
        report.exact("peak_rss_mb", mib);
    }
    // (7) Resume identity.
    checkpoint.finish(report, straight);
    Ok(())
}

/// What the CLI's sink does with the snapshot taken at `ckpt_at`, what
/// `metro resume` does to read it back, and whether finishing the run
/// from it reproduces the straight run's result.
struct CheckpointPass {
    ckpt_at: u64,
    dir: ResultsDir,
    name: String,
    file: PathBuf,
    /// The snapshot, once the first round has taken it.
    ckpt: Option<Checkpoint>,
    /// Saves and loads attempted so far.
    attempted: (usize, usize),
    /// The last snapshot loaded back, and its size on disk.
    loaded: Option<(Checkpoint, usize)>,
}

impl CheckpointPass {
    fn new(job: &Job, scratch: &Scratch) -> Self {
        let name = format!("{}.ckpt.json", job.workload.name);
        Self {
            ckpt_at: job.workload.ckpt_at(job.scale),
            dir: ResultsDir::new(scratch.path("ckpt")),
            file: scratch.path("ckpt").join(&name),
            name,
            ckpt: None,
            attempted: (0, 0),
            loaded: None,
        }
    }

    /// One round's saves and loads; returns the fastest of each.
    fn round(
        &mut self,
        report: &mut Report,
        scenario: &Scenario,
        (saves_due, loads_due): (Instant, Instant),
        host_speed: &mut Calibrator,
    ) -> (Option<f64>, Option<f64>) {
        if self.attempted == (0, 0) {
            let ckpt_at = self.ckpt_at;
            self.ckpt = report
                .ops
                .run("snapshot", || snapshot_at(scenario, ckpt_at));
        }
        let Some(ckpt) = &self.ckpt else {
            return (None, None);
        };
        let saved = fastest_until(saves_due, host_speed, || {
            let what = format!("checkpoint save {}", self.attempted.0);
            self.attempted.0 += 1;
            let (saved, cpu_s) = cpu_timed(|| {
                report.ops.run(&what, || {
                    self.dir
                        .write_text(&self.name, &ckpt.to_json().render())
                        .map_err(|e| e.to_string())
                })
            });
            saved.map(|_path| cpu_s)
        });
        if saved.is_none() {
            return (None, None);
        }
        let loaded = fastest_until(loads_due, host_speed, || {
            let what = format!("checkpoint load {}", self.attempted.1);
            self.attempted.1 += 1;
            let (back, cpu_s) = cpu_timed(|| {
                report.ops.run(&what, || {
                    let text = std::fs::read_to_string(&self.file).map_err(|e| e.to_string())?;
                    let back = Checkpoint::from_text(&text)?;
                    Ok((back, text.len()))
                })
            });
            let (back, bytes) = back?;
            if back != *ckpt {
                report.ops.fail(&what, "decoded snapshot differs");
            }
            self.loaded = Some((back, bytes));
            Some(cpu_s)
        });
        (saved, loaded)
    }

    /// Reports the checkpoint's size and makes the resume check:
    /// finishing the run from the loaded snapshot must reproduce the
    /// straight run's result document.
    fn finish(self, report: &mut Report, straight: Option<&Json>) {
        let Some((loaded, bytes)) = self.loaded else {
            return;
        };
        report.exact("ckpt_bytes", bytes as f64);
        let resumed = report.ops.run("resume", || {
            resume_scenario(&loaded)
                .map(|(result, _sim)| result.to_json())
                .map_err(|e| e.to_string())
        });
        if let (Some(resumed), Some(straight)) = (resumed, straight) {
            if resumed != *straight {
                report
                    .ops
                    .fail("resume", "resumed result differs from the straight run's");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_one_hundred_minus_the_relative_error() {
        assert_eq!(err_pct(54.0, 60.0), 10.0);
        assert_eq!(agree_pct(24.0, 24.0), 100.0);
        assert_eq!(agree_pct(54.0, 60.0), 90.0);
        assert_eq!(agree_pct(66.0, 60.0), 90.0);
    }

    #[test]
    fn outputs_are_read_off_a_result_object() {
        let result = Json::obj([
            ("outcome_digest", Json::from("0x01")),
            (
                "point",
                Json::obj([
                    ("p50_latency", Json::from(24u64)),
                    ("p95_latency", Json::from(30u64)),
                    ("accepted", Json::from(0.02)),
                    ("retries_per_message", Json::from(0.01)),
                ]),
            ),
        ]);
        let o = Outputs::from_result(&result).unwrap();
        assert_eq!((o.digest.as_str(), o.p50, o.p95), ("0x01", 24.0, 30.0));
        assert!(Outputs::from_result(&Json::obj([("point", Json::Null)])).is_err());
    }
}

//! The traced pass: the benchmark re-drives one run itself over the
//! crates' public functions, recording a span around each call into a
//! layer, and turns the spans into the per-layer metrics.
//!
//! Nothing here feeds an end-to-end metric. The pass exists to say
//! where `run_wall_s`, `setup_s` and the checkpoint times go; its own
//! cost is reported as `trace.overhead_pct`: traced runs against
//! untraced runs made in the same process, the two kinds alternating so
//! that a noisy minute on the host slows both.
//!
//! The tick loop below mirrors `run_scenario_resumable`'s `Load`
//! branch statement for statement (the traced-loop identity check
//! fails the pass if the two ever drift apart), except that arrivals
//! are buffered between `WorkloadDriver::poll` and `NetworkSim::send`
//! so the workload layer and the NIC enqueue are timed apart.

use crate::measure::{self, err_pct, Job, Reps, Scratch};
use crate::report::Report;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{layer_times, spans_from_json, Span, SpanId, Tracer};
use metro_core::{ArchParams, Router, RouterConfig, Word};
use metro_harness::results::{git_describe, unix_time_now, ResultsDir, RunRecord};
use metro_harness::Json;
use metro_sim::checkpoint::{Checkpoint, RunPhase};
use metro_sim::scenario::{codec, run_scenario, FaultInjection, Scenario, ScenarioResult};
use metro_sim::workload::{Arrival, StreamRecipe, StreamSeeds, WorkloadDriver};
use metro_sim::{EngineKind, LoadPoint, NetworkSim, WorkloadSpec};
use metro_telemetry::RouterCounter;
use metro_topo::fault::FaultSet;
use metro_topo::Multibutterfly;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Chunks the driven cycles are cut into: at least a thousand, so the
/// p99 of the per-chunk tick cost has ten samples beyond it.
const CHUNKS: u64 = 1_024;
/// Chunks between samples of the share of busy routers.
const BUSY_SAMPLE_EVERY: u64 = 8;
/// Fewest pairs of one untraced reference rep and one traced run,
/// however short `--seconds` is.
const MIN_PAIRS: usize = 5;
/// Share of `--seconds` the pairs fill (the passes after them take the
/// rest).
const PAIR_SHARE: f64 = 0.6;
/// `trace.overhead_pct` beyond which, either way, the run warns: the
/// tracing then costs (or the host's noise hides) too much for the
/// per-layer times to stand for an untraced run's.
const OVERHEAD_LIMIT_PCT: f64 = 5.0;
/// Repetitions of each sub-millisecond call (codec, topology build,
/// estimate), so its mean is not one cold sample.
const MICRO_REPS: usize = 20;
/// Rounds of each differential segment and of the checkpoint calls.
const ROUNDS: usize = 3;
/// Standalone router ticks per timing.
const ROUTER_TICKS: u32 = 200_000;

/// Grouping spans: they hold layer spans, and their self time is the
/// loop and clock-reading cost no layer owns.
const GROUPS: [&str; 3] = ["run", "run.chunk", "run.drain"];
/// Work inside the traced run that `metro scenario run` does not do
/// and that is not tracing either (the snapshot the checkpoint metrics
/// need); left out of the wall time the overhead is computed from.
const NOT_IN_A_PLAIN_RUN: [&str; 2] = ["sim.checkpoint.capture", "sim.checkpoint.count_outcomes"];

/// The `Load` parameters the loop needs, borrowed from the scenario.
struct LoadParams<'a> {
    recipe: StreamRecipe<'a>,
    warmup: u64,
    measure: u64,
    drain: u64,
}

fn load_params<'a>(scenario: &'a Scenario, sim: &NetworkSim) -> Result<LoadParams<'a>, String> {
    let WorkloadSpec::Load {
        pattern,
        arrival,
        rates,
        load,
        payload_words,
        warmup,
        measure,
        drain,
    } = &scenario.workload
    else {
        return Err("benchmark workloads are load workloads".to_string());
    };
    Ok(LoadParams {
        recipe: StreamRecipe {
            arrival,
            rates,
            pattern,
            load: *load,
            stream_words: sim.stream_for(0, &vec![0; *payload_words]).len(),
            payload_words: *payload_words,
            endpoints: sim.topology().endpoints(),
            seeds: StreamSeeds::load(scenario.seed),
        },
        warmup: *warmup,
        measure: *measure,
        drain: *drain,
    })
}

fn payload(words: usize) -> Vec<u16> {
    (0..words).map(|k| k as u16).collect()
}

/// The runner's injection bookkeeping, over public calls.
struct Injections {
    pending: Vec<FaultInjection>,
    active: FaultSet,
}

impl Injections {
    fn of(scenario: &Scenario) -> Self {
        let mut pending = scenario.injections.clone();
        pending.sort_by_key(|i| i.at);
        Self {
            pending,
            active: scenario.faults.clone(),
        }
    }

    fn due(&self, now: u64) -> bool {
        self.pending.first().is_some_and(|i| i.at <= now)
    }

    fn apply_due(&mut self, sim: &mut NetworkSim, now: u64) {
        if !self.due(now) {
            return;
        }
        while self.due(now) {
            let injection = self.pending.remove(0);
            self.active.merge(&injection.faults);
            injection.repairs.apply_to(&mut self.active);
        }
        sim.apply_faults(self.active.clone());
    }
}

/// Nanoseconds since `mark`, moving `mark` to now: one clock read per
/// layer boundary. A read costs ~45 ns on the reference host, and a
/// figure3 cycle ~11 µs, so the tick loop affords three per cycle (poll,
/// send, tick: ~1.2% of a figure3 run, ~0.1% of a metro1k one) and
/// reads a fourth only on the cycles where an injection is due.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
    ns
}

/// What a traced run hands to the passes after it.
struct TracedRun {
    scenario: Scenario,
    sim: NetworkSim,
    result: ScenarioResult,
    ckpt: Option<Checkpoint>,
    outcomes_at_ckpt: usize,
    arrivals: u64,
    ticks: u64,
    chunks: u64,
    /// Per chunk: tick busy time per router per cycle, in ns.
    ns_per_router_tick: Vec<f64>,
    /// Per sample: share of routers with any backward port in use.
    busy_share: Vec<f64>,
}

fn busy_router_share(sim: &NetworkSim) -> f64 {
    let topo = sim.topology();
    let mut busy = 0usize;
    for s in 0..topo.stages() {
        for r in 0..topo.routers_in_stage(s) {
            busy += usize::from(sim.router(s, r).in_use_vector().iter().any(|&u| u));
        }
    }
    busy as f64 / topo.total_routers() as f64
}

/// One run, driven from here with a span around every call into a
/// layer: the same read → decode → build → tick loop → results path
/// `metro scenario run` takes.
fn traced_run(
    job: &Job,
    scratch: &Scratch,
    file: &Path,
    t: &mut Tracer,
) -> Result<TracedRun, String> {
    let root = t.open("run", None);
    let at = Some(root);
    let text = t
        .timed("harness.fs.read", at, || std::fs::read_to_string(file))
        .map_err(|e| e.to_string())?;
    let scenario = t.timed("sim.scenario.codec.decode", at, || codec::from_text(&text))?;
    let hash = t.timed("sim.scenario.codec.hash", at, || {
        codec::scenario_hash(&scenario)
    });
    let started = Instant::now();
    let mut sim = t
        .timed("sim.network.build", at, || {
            NetworkSim::from_scenario(&scenario)
        })
        .map_err(|e| e.to_string())?;
    let (params, mut driver) = t.timed("sim.workload.build", at, || {
        load_params(&scenario, &sim).map(|p| {
            let driver = p.recipe.driver();
            (p, driver)
        })
    })?;
    let payload = payload(params.recipe.payload_words);
    let routers = sim.topology().total_routers() as f64;
    let total = params.warmup + params.measure;
    let chunk_cycles = (total / CHUNKS).max(1);
    let ckpt_at = job.workload.ckpt_at(job.scale);

    let mut injections = Injections::of(&scenario);
    let mut due: Vec<Arrival> = Vec::new();
    let mut ckpt = None;
    let mut outcomes_at_ckpt = 0;
    let (mut arrivals, mut ticks, mut chunks) = (0u64, 0u64, 0u64);
    let mut ns_per_router_tick = Vec::new();
    let mut busy_share = Vec::new();

    let mut cycle = 0;
    while cycle < total {
        let end = (cycle + chunk_cycles).min(total);
        let chunk = t.open("run.chunk", at);
        let chunk_start = t.spans()[chunk].start_ns;
        let (mut faults_ns, mut poll_ns, mut send_ns, mut tick_ns) = (0, 0, 0, 0);
        let mut mark = Instant::now();
        for c in cycle..end {
            if c == params.warmup {
                sim.reset_stats();
            }
            if injections.due(c) {
                injections.apply_due(&mut sim, c);
                faults_ns += lap(&mut mark);
            }
            driver.poll(c, |a| due.push(a));
            poll_ns += lap(&mut mark);
            arrivals += due.len() as u64;
            for a in due.drain(..) {
                sim.send(a.src, a.dest, &payload);
            }
            send_ns += lap(&mut mark);
            sim.tick();
            tick_ns += lap(&mut mark);
            if c + 1 == ckpt_at {
                ckpt = Some(t.timed("sim.checkpoint.capture", Some(chunk), || {
                    Checkpoint::capture(&scenario, &sim, Some(&driver), RunPhase::Main, c + 1)
                }));
                // The outcome list is private to the sim; a clone can
                // be drained without disturbing the run.
                outcomes_at_ckpt = t.timed("sim.checkpoint.count_outcomes", Some(chunk), || {
                    sim.clone().drain_outcomes().len()
                });
                mark = Instant::now();
            }
        }
        for (name, ns) in [
            ("sim.network.apply_faults", faults_ns),
            ("sim.workload.poll", poll_ns),
            ("sim.network.send", send_ns),
            ("sim.engine.tick", tick_ns),
        ] {
            t.push(name, Some(chunk), chunk_start, ns);
        }
        t.close(chunk);
        ns_per_router_tick.push(tick_ns as f64 / ((end - cycle) as f64 * routers));
        ticks += end - cycle;
        if chunks % BUSY_SAMPLE_EVERY == 0 {
            busy_share.push(t.timed("trace.sample", at, || busy_router_share(&sim)));
        }
        chunks += 1;
        cycle = end;
    }

    let drain = t.open("run.drain", at);
    let drain_start = t.spans()[drain].start_ns;
    let mut tick_ns = 0;
    let mut mark = Instant::now();
    for c in total..total + params.drain {
        if sim.is_quiescent() {
            break;
        }
        injections.apply_due(&mut sim, c);
        lap(&mut mark);
        sim.tick();
        tick_ns += lap(&mut mark);
        ticks += 1;
    }
    t.push("sim.engine.tick", Some(drain), drain_start, tick_ns);
    t.close(drain);

    let outcomes = t.timed("sim.network.drain_outcomes", at, || sim.drain_outcomes());
    let result = t.timed("sim.stats.summarize", at, || {
        let endpoints = sim.topology().endpoints() as f64;
        let fabric_idle = sim.fabric_idle();
        let telemetry_every = sim.telemetry().interval();
        let stats = sim.stats_mut();
        let delivered = stats.delivered;
        ScenarioResult {
            delivered,
            abandoned: stats.abandoned,
            point: Some(LoadPoint {
                offered: params.recipe.load,
                accepted: delivered as f64 * params.recipe.stream_words as f64
                    / params.measure as f64
                    / endpoints,
                mean_latency: stats.total_latency.mean(),
                p50_latency: stats.total_latency.percentile(50.0),
                p95_latency: stats.total_latency.percentile(95.0),
                mean_network_latency: stats.network_latency.mean(),
                retries_per_message: stats.retries_per_message(),
                delivered,
            }),
            payload_words: outcomes.iter().map(|o| o.payload_words).sum(),
            fabric_idle,
            telemetry_every,
            outcomes,
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let stem = format!("scenario_{}", scenario.name);
    let doc = t.timed("sim.scenario.result_json", at, || {
        Json::obj([
            ("scenario", Json::from(scenario.name.as_str())),
            ("scenario_hash", Json::from(hash.as_str())),
            ("result", result.to_json()),
        ])
    });
    let results = ResultsDir::new(scratch.path("traced"));
    t.timed("harness.results.write_json", at, || {
        results.write_json(&stem, &doc)
    })
    .map_err(|e| e.to_string())?;
    let git = t.timed("harness.results.git_describe", at, git_describe);
    t.timed("harness.results.append_manifest", at, || {
        results.append_manifest(&RunRecord {
            artifact: stem.clone(),
            git,
            unix_time: unix_time_now(),
            wall_seconds: wall,
            points: 1,
            jobs: 1,
            quick: false,
            params: Json::obj([("source", Json::from(file.to_string_lossy().as_ref()))]),
            scenario_hash: Some(hash.clone()),
            telemetry_hash: None,
            failure: None,
        })
    })
    .map_err(|e| e.to_string())?;
    t.close(root);
    Ok(TracedRun {
        scenario,
        sim,
        result,
        ckpt,
        outcomes_at_ckpt,
        arrivals,
        ticks,
        chunks,
        ns_per_router_tick,
        busy_share,
    })
}

/// Figures that come from the checkpoint pass but not from spans.
struct CheckpointSizes {
    bytes: usize,
    base_bytes: usize,
}

/// What the CLI's sink and `metro resume` do with the snapshot, one
/// span per layer call: encode → render → write, read → parse →
/// decode → restore into a freshly built machine.
fn checkpoint_pass(
    run: &TracedRun,
    ckpt: &Checkpoint,
    scratch: &Scratch,
    t: &mut Tracer,
) -> Result<CheckpointSizes, String> {
    let root = t.open("post.checkpoint", None);
    let at = Some(root);
    let dir = ResultsDir::new(scratch.path("traced-ckpt"));
    let name = format!("{}.ckpt.json", run.scenario.name);
    let mut sizes = CheckpointSizes {
        bytes: 0,
        base_bytes: 0,
    };
    for _ in 0..ROUNDS {
        let doc = t.timed("sim.checkpoint.encode", at, || ckpt.to_json());
        let text = t.timed("harness.json.render", at, || doc.render());
        let path = t
            .timed("harness.results.write_text", at, || {
                dir.write_text(&name, &text)
            })
            .map_err(|e| e.to_string())?;
        let text = t
            .timed("harness.fs.read", at, || std::fs::read_to_string(&path))
            .map_err(|e| e.to_string())?;
        let doc = t
            .timed("harness.json.parse", at, || Json::parse(&text))
            .map_err(|e| e.to_string())?;
        let back = t
            .timed("sim.checkpoint.decode", at, || Checkpoint::from_json(&doc))
            .map_err(|e| e.to_string())?;
        let mut sim = t
            .timed("sim.network.build", at, || {
                NetworkSim::from_scenario(&back.scenario)
            })
            .map_err(|e| e.to_string())?;
        let mut driver: WorkloadDriver = load_params(&back.scenario, &sim)?.recipe.driver();
        sizes.bytes = text.len();
        sizes.base_bytes =
            Checkpoint::capture(&back.scenario, &sim, Some(&driver), RunPhase::Main, 0)
                .to_json()
                .render()
                .len();
        t.timed("sim.checkpoint.restore", at, || {
            back.restore_into(&mut sim, Some(&mut driver))
        })
        .map_err(|e| e.to_string())?;
    }
    t.close(root);
    Ok(sizes)
}

/// Wall time of the first `cycles` cycles of a variant of the
/// scenario, on a fresh machine: poll, send and tick only.
fn segment_wall(scenario: &Scenario, cycles: u64) -> Result<f64, String> {
    let mut sim = NetworkSim::from_scenario(scenario).map_err(|e| e.to_string())?;
    let params = load_params(scenario, &sim)?;
    let mut driver = params.recipe.driver();
    let payload = payload(params.recipe.payload_words);
    let started = Instant::now();
    for c in 0..cycles {
        driver.poll(c, |a| sim.send(a.src, a.dest, &payload));
        sim.tick();
    }
    Ok(started.elapsed().as_secs_f64())
}

/// What cannot be split from outside, isolated by difference on the
/// first 5% of the cycles: telemetry sync (every cycle vs never) and
/// sharding (1 shard vs the workload's count).
struct Differential {
    sync_ns_per_router_tick: f64,
    shard_speedup: f64,
}

fn differential_pass(
    run: &TracedRun,
    shards: usize,
    t: &mut Tracer,
) -> Result<Differential, String> {
    let root = t.open("post.diff", None);
    let at = Some(root);
    let WorkloadSpec::Load {
        warmup, measure, ..
    } = &run.scenario.workload
    else {
        return Err("benchmark workloads are load workloads".to_string());
    };
    let cycles = ((warmup + measure) / 20).max(1);
    let variant = |telemetry_every: Option<u64>, shards: usize| {
        let mut s = run.scenario.clone();
        s.sim.shards = shards;
        if let Some(every) = telemetry_every {
            s.sim.telemetry_every = every;
        }
        s
    };
    let mut variants = vec![
        ("post.diff.telemetry_every_cycle", variant(Some(1), 1)),
        ("post.diff.telemetry_never", variant(Some(1 << 32), 1)),
    ];
    if shards > 1 {
        variants.push(("post.diff.one_shard", variant(None, 1)));
        variants.push(("post.diff.workload_shards", variant(None, shards)));
    }
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..ROUNDS {
        for (name, scenario) in &variants {
            let span = t.open(name, at);
            let wall = segment_wall(scenario, cycles)?;
            t.close(span);
            walls.entry(name).or_default().push(wall);
        }
    }
    t.close(root);
    let med = |name: &str| walls.get(name).map(|w| median(w));
    let router_ticks = cycles as f64 * run.sim.topology().total_routers() as f64;
    Ok(Differential {
        sync_ns_per_router_tick: (med("post.diff.telemetry_every_cycle").unwrap_or(0.0)
            - med("post.diff.telemetry_never").unwrap_or(0.0))
            * 1e9
            / router_ticks,
        shard_speedup: match (med("post.diff.one_shard"), med("post.diff.workload_shards")) {
            (Some(one), Some(n)) => one / n,
            _ => 1.0,
        },
    })
}

/// `Router::tick_into` on a radix-8 dilation-2 router, away from any
/// fabric: ns per tick, idle or forwarding on all eight ports.
fn router_tick_ns(busy: bool) -> f64 {
    let params = ArchParams::rn1();
    let config = RouterConfig::new(&params)
        .with_dilation(2)
        .with_swallow_all(true)
        .build()
        .expect("the RN1 configuration is valid");
    let mut router = Router::new(params, config, 1).expect("the RN1 router builds");
    let mut fwd_in = [Word::Empty; 8];
    let (rev_in, bcb_in) = ([Word::Empty; 8], [false; 8]);
    let (mut out_bwd, mut out_fwd, mut out_bcb) = ([Word::Empty; 8], [Word::Empty; 8], [false; 8]);
    if busy {
        // Open a connection on every forward port, then stream data.
        for (f, w) in fwd_in.iter_mut().enumerate() {
            *w = Word::Data(((f % 4) as u16) << 6);
        }
        router.tick_into(
            &fwd_in,
            &rev_in,
            &bcb_in,
            &mut out_bwd,
            &mut out_fwd,
            &mut out_bcb,
        );
        fwd_in = [Word::Data(0x5A); 8];
    }
    let started = Instant::now();
    for _ in 0..ROUTER_TICKS {
        router.tick_into(
            black_box(&fwd_in),
            &rev_in,
            &bcb_in,
            &mut out_bwd,
            &mut out_fwd,
            &mut out_bcb,
        );
        black_box(&out_bwd);
    }
    started.elapsed().as_nanos() as f64 / f64::from(ROUTER_TICKS)
}

/// Counts and sizes from the micro pass.
struct Micro {
    links: usize,
    estimate_arrivals: usize,
    estimate: Option<LoadPoint>,
    idle_tick_ns: f64,
    busy_tick_ns: f64,
}

/// Calls too short to time once, repeated: the scenario codec, the
/// topology build on its own, the analytic estimate, the bare router.
fn micro_pass(run: &TracedRun, t: &mut Tracer) -> Result<Micro, String> {
    let root = t.open("post.micro", None);
    let at = Some(root);
    let scenario = &run.scenario;
    for _ in 0..MICRO_REPS {
        let text = t.timed("sim.scenario.codec.encode", at, || {
            codec::encode(scenario).render()
        });
        t.timed("sim.scenario.codec.decode", at, || codec::from_text(&text))?;
        t.timed("sim.scenario.codec.hash", at, || {
            codec::scenario_hash(scenario)
        });
        t.timed("topo.multibutterfly.build", at, || {
            Multibutterfly::build(&scenario.topology)
        })
        .map_err(|e| e.to_string())?;
    }
    let mut analytic = scenario.clone();
    analytic.sim.engine = EngineKind::Analytic;
    let mut estimate = None;
    for _ in 0..MICRO_REPS / 4 {
        estimate = Some(
            t.timed("sim.engine.analytic.estimate", at, || {
                run_scenario(&analytic)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let micro = Micro {
        links: metro_topo::paths::all_links(run.sim.topology()).len(),
        estimate_arrivals: estimate.as_ref().map_or(0, |e| e.outcomes.len()),
        estimate: estimate.and_then(|e| e.point),
        idle_tick_ns: t.timed("core.router.tick", at, || router_tick_ns(false)),
        busy_tick_ns: t.timed("core.router.tick", at, || router_tick_ns(true)),
    };
    t.close(root);
    Ok(micro)
}

/// Wall time of each traced run in the trace, in seconds: its root
/// span less what a plain run does not do.
fn traced_walls(spans: &[Span]) -> Vec<f64> {
    per_run_ns(spans, |name| NOT_IN_A_PLAIN_RUN.contains(&name))
        .into_iter()
        .map(|(run, extra_ns)| (spans[run].dur_ns - extra_ns) as f64 / 1e9)
        .collect()
}

/// For each traced run in the trace (a root span named `run`): its
/// span, and the summed duration of the spans under it that `pick`
/// chooses by name.
fn per_run_ns(spans: &[Span], pick: impl Fn(&str) -> bool) -> Vec<(SpanId, u64)> {
    // Parents come before their children, so one pass finds every
    // span's root.
    let mut root: Vec<SpanId> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    let mut runs: Vec<(SpanId, u64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == "run")
        .map(|(i, _)| (i, 0))
        .collect();
    for (s, at) in spans.iter().zip(&root) {
        if pick(&s.name) {
            if let Some((_, ns)) = runs.iter_mut().find(|(run, _)| run == at) {
                *ns += s.dur_ns;
            }
        }
    }
    runs
}

/// The per-layer metrics that are pure functions of the spans — the
/// ones a reloaded trace file must reproduce exactly.
fn span_metrics(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let layers = layer_times(spans);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    // Mean seconds per call.
    let mean_s = |name: &str| {
        let l = get(name);
        l.total_ns as f64 / 1e9 / l.spans.max(1) as f64
    };
    // Busy seconds per traced run, median over the runs.
    let busy_s = |layer: &str| {
        let per_run: Vec<f64> = per_run_ns(spans, |name| name == layer)
            .into_iter()
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect();
        median(&per_run)
    };

    let run_ns = get("run").total_ns as f64;
    let unowned_ns: u64 = GROUPS.iter().map(|g| get(g).self_ns).sum();

    let mut m = BTreeMap::new();
    for (metric, layer) in [
        ("harness.json.parse_s", "harness.json.parse"),
        ("harness.json.render_s", "harness.json.render"),
        ("sim.scenario.codec.decode_s", "sim.scenario.codec.decode"),
        ("sim.scenario.codec.encode_s", "sim.scenario.codec.encode"),
        ("sim.scenario.codec.hash_s", "sim.scenario.codec.hash"),
        ("topo.multibutterfly.build_s", "topo.multibutterfly.build"),
        ("sim.network.build_s", "sim.network.build"),
        ("sim.network.drain_outcomes_s", "sim.network.drain_outcomes"),
        ("telemetry.snapshot_s", "telemetry.snapshot"),
        ("telemetry.snapshot_encode_s", "telemetry.snapshot_encode"),
        ("sim.checkpoint.capture_s", "sim.checkpoint.capture"),
        ("sim.checkpoint.encode_s", "sim.checkpoint.encode"),
        ("sim.checkpoint.decode_s", "sim.checkpoint.decode"),
        ("sim.checkpoint.restore_s", "sim.checkpoint.restore"),
        ("harness.results.write_text_s", "harness.results.write_text"),
        ("harness.results.write_json_s", "harness.results.write_json"),
        (
            "harness.results.append_manifest_s",
            "harness.results.append_manifest",
        ),
        (
            "harness.results.git_describe_s",
            "harness.results.git_describe",
        ),
        (
            "sim.engine.analytic.estimate_s",
            "sim.engine.analytic.estimate",
        ),
    ] {
        m.insert(metric, mean_s(layer));
    }
    for (metric, layer) in [
        ("sim.network.send_busy_s", "sim.network.send"),
        ("sim.workload.poll_busy_s", "sim.workload.poll"),
        ("sim.engine.tick_busy_s", "sim.engine.tick"),
    ] {
        m.insert(metric, busy_s(layer));
    }
    m.insert("trace.spans", spans.len() as f64);
    m.insert("trace.traced_wall_s", median(&traced_walls(spans)));
    m.insert(
        "trace.coverage_pct",
        100.0 * (1.0 - unowned_ns as f64 / run_ns),
    );
    m
}

/// Writes the trace, loads it back, and checks that the file yields
/// the per-layer numbers the in-memory spans gave.
fn write_and_reload(
    job: &Job,
    t: &Tracer,
    expect: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = ResultsDir::new(&job.out_dir);
    let path = dir
        .write_text(
            &format!("{}.trace.json", job.workload.name),
            &t.to_json().render(),
        )
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let spans = spans_from_json(&Json::parse(&text).map_err(|e| e.to_string())?)?;
    if span_metrics(&spans) == *expect {
        Ok(())
    } else {
        Err(format!("{path:?} does not reproduce the per-layer numbers"))
    }
}

/// The traced pass of one workload.
///
/// # Errors
///
/// Returns a description of a failure that prevents measuring at all.
/// Failures of measured operations are recorded in the report.
pub fn traced(job: &Job, report: &mut Report) -> Result<(), String> {
    let w = job.workload;
    let scratch = Scratch::create(&job.out_dir)?;
    let file = scratch.path(&format!("{}.json", w.name));
    measure::write_scenario(&file, &w.scenario(job.seed, job.scale))?;

    // Pairs of one untraced reference rep and one traced run, in this
    // same process: the reference is what the traced runs' wall time
    // and result are compared with.
    let mut reps = Reps::warmed_up(job, &scratch, report, &file);
    let mut t = Tracer::new(w.name);
    let mut last = None;
    let mut ns_per_router_tick = Vec::new();
    let phase = Instant::now();
    let mut pairs = 0;
    while pairs < MIN_PAIRS || phase.elapsed().as_secs_f64() < job.seconds * PAIR_SHARE {
        // Every pair starts from the same heap: the last traced run's
        // machine and outcomes go first.
        drop(last.take());
        if !reps.rep(report) {
            return Ok(());
        }
        let what = format!("traced run {pairs}");
        let Some(run) = report
            .ops
            .run(&what, || traced_run(job, &scratch, &file, &mut t))
        else {
            return Ok(());
        };
        if Some(&run.result.to_json()) != reps.straight() {
            report.ops.fail(
                &what,
                "the traced loop's result differs from run_scenario's",
            );
        }
        ns_per_router_tick.extend_from_slice(&run.ns_per_router_tick);
        last = Some(run);
        pairs += 1;
    }
    let mut run = last.expect("at least one pair ran");

    let root = t.open("post.telemetry", None);
    let at = Some(root);
    let snapshot = t.timed("telemetry.snapshot", at, || {
        run.sim.telemetry_snapshot(w.name)
    });
    let snapshot_text = t.timed("telemetry.snapshot_encode", at, || {
        snapshot.to_json().render()
    });
    t.close(root);

    let Some(ckpt) = run.ckpt.take() else {
        return Err(format!(
            "the traced run never reached cycle {}",
            w.ckpt_at(job.scale)
        ));
    };
    let sizes = checkpoint_pass(&run, &ckpt, &scratch, &mut t)?;
    let micro = micro_pass(&run, &mut t)?;
    let diff = differential_pass(&run, w.shards, &mut t)?;

    let from_spans = span_metrics(t.spans());
    report
        .ops
        .run("trace file", || write_and_reload(job, &t, &from_spans));
    for (name, value) in &from_spans {
        if *name != "trace.traced_wall_s" {
            report.exact(name, *value);
        }
    }

    // The overhead is judged pair by pair — a traced run against the
    // reference rep made just before it — so that a slow minute on the
    // host, which slows both, cancels.
    let traced_walls = traced_walls(t.spans());
    let ratios: Vec<f64> = traced_walls
        .iter()
        .zip(&reps.walls)
        .map(|(traced, reference)| traced / reference)
        .collect();
    report.samples("trace.run_wall_s", &reps.walls);
    report.samples("trace.traced_wall_s", &traced_walls);
    let overhead_pct = 100.0 * (median(&ratios) - 1.0);
    report.exact("trace.overhead_pct", overhead_pct);
    if overhead_pct.abs() > OVERHEAD_LIMIT_PCT {
        report.warnings.push(format!(
            "trace.overhead_pct is {overhead_pct:+.1}%, beyond \u{b1}{OVERHEAD_LIMIT_PCT}%: \
             the per-layer times of this run do not stand for an untraced run's"
        ));
    }

    let bytes = sizes.bytes as f64;
    report.exact("harness.json.bytes", bytes);
    report.exact(
        "harness.json.parse_ns_per_byte",
        from_spans["harness.json.parse_s"] * 1e9 / bytes,
    );
    report.exact(
        "harness.json.render_ns_per_byte",
        from_spans["harness.json.render_s"] * 1e9 / bytes,
    );
    report.exact(
        "sim.checkpoint.bytes_per_outcome",
        (sizes.bytes - sizes.base_bytes.min(sizes.bytes)) as f64
            / run.outcomes_at_ckpt.max(1) as f64,
    );

    let topo = run.sim.topology();
    let endpoints = topo.endpoints() as f64;
    report.exact("topo.multibutterfly.routers", topo.total_routers() as f64);
    report.exact("topo.multibutterfly.links", micro.links as f64);
    report.exact("sim.network.send_calls", run.arrivals as f64);
    report.exact("sim.network.outcomes", run.result.outcomes.len() as f64);
    report.exact("sim.workload.arrivals", run.arrivals as f64);
    report.exact(
        "sim.workload.poll_ns_per_endpoint_cycle",
        from_spans["sim.workload.poll_busy_s"] * 1e9
            / (w.driven_cycles(job.scale) as f64 * endpoints),
    );
    report.exact("sim.engine.ticks", run.ticks as f64);
    report.exact("sim.engine.chunks", run.chunks as f64);
    report.exact(
        "sim.engine.ns_per_router_tick_p50",
        median(&ns_per_router_tick),
    );
    let chunks = ns_per_router_tick.len();
    if highest_supported_percentile(chunks) < Some(99.0) {
        report.warnings.push(format!(
            "only {chunks} chunks: ns_per_router_tick_p99 has fewer than ten samples beyond it"
        ));
    }
    report.exact(
        "sim.engine.ns_per_router_tick_p99",
        percentile(&ns_per_router_tick, 99.0),
    );
    report.exact("sim.engine.shards_effective", run.sim.shards() as f64);
    report.exact("sim.engine.shard_speedup", diff.shard_speedup);
    report.exact(
        "telemetry.sync_ns_per_router_tick",
        diff.sync_ns_per_router_tick,
    );
    report.exact("telemetry.syncs", run.sim.telemetry().syncs() as f64);
    report.exact("telemetry.snapshot_bytes", snapshot_text.len() as f64);

    report.exact(
        "sim.engine.analytic.arrivals",
        micro.estimate_arrivals as f64,
    );
    report.exact(
        "sim.engine.analytic.ns_per_arrival",
        from_spans["sim.engine.analytic.estimate_s"] * 1e9 / micro.estimate_arrivals.max(1) as f64,
    );
    if let (Some(est), Some(sim)) = (&micro.estimate, &run.result.point) {
        report.exact(
            "sim.engine.analytic.p50_err_pct",
            err_pct(est.p50_latency as f64, sim.p50_latency as f64),
        );
        report.exact(
            "sim.engine.analytic.p95_err_pct",
            err_pct(est.p95_latency as f64, sim.p95_latency as f64),
        );
    }
    report.exact("core.router.idle_tick_ns", micro.idle_tick_ns);
    report.exact("core.router.busy_tick_ns", micro.busy_tick_ns);

    let total = |c: RouterCounter| snapshot.counters.total(c) as f64;
    for (name, counter) in [
        ("fabric.opens", RouterCounter::Opens),
        ("fabric.grants", RouterCounter::Grants),
        ("fabric.blocks", RouterCounter::Blocks),
        ("fabric.fast_reclaims", RouterCounter::FastReclaims),
        ("fabric.turns", RouterCounter::Turns),
        ("fabric.drops", RouterCounter::Drops),
        ("fabric.words_forwarded", RouterCounter::WordsForwarded),
        (
            "fabric.checksum_mismatches",
            RouterCounter::ChecksumMismatches,
        ),
    ] {
        report.exact(name, total(counter));
    }
    report.exact(
        "fabric.block_rate",
        total(RouterCounter::Blocks) / total(RouterCounter::Opens).max(1.0),
    );
    report.exact(
        "fabric.router_busy_share",
        run.busy_share.iter().sum::<f64>() / run.busy_share.len().max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_times_and_walls_are_per_traced_run() {
        let mut t = Tracer::new("unit");
        // Three runs of 1000, 1400 and 1100 ns; the second also took a
        // snapshot (200 ns), which a plain run does not.
        for (start, dur, tick, capture) in [
            (0, 1_000, 950, None),
            (2_000, 1_400, 1_150, Some(200)),
            (4_000, 1_100, 1_050, None),
        ] {
            let run = t.push("run", None, start, dur);
            let chunk = t.push("run.chunk", Some(run), start, dur - 50);
            t.push("sim.engine.tick", Some(chunk), start, tick);
            if let Some(ns) = capture {
                t.push("sim.checkpoint.capture", Some(chunk), start, ns);
            }
        }
        // A pass after the runs is no traced run.
        let post = t.push("post.micro", None, 6_000, 500);
        t.push("sim.engine.tick", Some(post), 6_000, 77);

        assert_eq!(traced_walls(t.spans()), [1_000e-9, 1_200e-9, 1_100e-9]);
        let ticks = per_run_ns(t.spans(), |name| name == "sim.engine.tick");
        assert_eq!(ticks, [(0, 950), (3, 1_150), (7, 1_050)]);
        let m = span_metrics(t.spans());
        assert_eq!(m["trace.traced_wall_s"], 1_100e-9);
        assert_eq!(m["sim.engine.tick_busy_s"], 1_050e-9);
        // 50 ns of each run belong to no layer.
        assert_eq!(m["trace.coverage_pct"], 100.0 * (1.0 - 150.0 / 3_500.0));
    }
}

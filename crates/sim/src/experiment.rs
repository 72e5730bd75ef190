//! Experiment harnesses: load sweeps (Figure 3) and fault sweeps
//! (§6.2's robust-degradation claim).
//!
//! # Per-point seeding
//!
//! A sweep is a set of *independent* simulations; each point derives
//! its own seed as `point_seed(cfg.seed, point_index)` — a SplitMix64
//! mix of the sweep's master seed and the point's position. This fixes
//! two problems the old scheme (every point reusing `cfg.seed`
//! verbatim) had:
//!
//! 1. **Cross-point correlation**: identical seeds meant every point
//!    saw the same arrival-phase pattern and the same destination
//!    stream prefix, so sampling noise was correlated across the whole
//!    curve instead of averaging out.
//! 2. **Order independence**: because a point's randomness is a pure
//!    function of `(master seed, index)`, points can run on any worker
//!    of [`metro_harness::par_map`] in any order and the sweep is
//!    bit-identical to a sequential run (asserted by
//!    `parallel_sweeps_match_sequential_bitwise`).
//!
//! Single-point entry points (`run_load_point`, `run_fault_point`) are
//! deliberately left on the verbatim seed: ablations compare variants
//! under *common* randomness (paired comparison), and callers that want
//! a derived seed can apply [`point_seed`] themselves.

use crate::network::{NetworkSim, SimConfig};
use crate::scenario::{run::run_scenario_resumable, Run, Scenario, WorkloadSpec};
use crate::workload::{ArrivalProcess, RateMap, StreamSeeds, TrafficPattern};
use metro_core::RandomSource;
use metro_harness::{par_map, Json};
use metro_topo::fault::FaultSet;
use metro_topo::multibutterfly::MultibutterflySpec;
use metro_topo::paths::all_links;
use std::num::NonZeroUsize;

/// Derives the seed for sweep point `point_index` from the sweep's
/// master seed: SplitMix64 over `(seed, point_index)`. See the module
/// docs for why sweeps must not reuse one seed verbatim.
#[must_use]
pub fn point_seed(seed: u64, point_index: u64) -> u64 {
    // SplitMix64 (Steele et al.): one additive step per index keeps
    // distinct indices on distinct streams, and the finalizer decorrelates
    // neighbouring indices.
    let mut z = seed.wrapping_add(
        point_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a measurement run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Network topology.
    pub spec: MultibutterflySpec,
    /// Router/protocol implementation parameters.
    pub sim: SimConfig,
    /// Payload words per message (Figure 3: 20 bytes on an 8-bit
    /// channel → 19 payload words + 1 checksum word).
    pub payload_words: usize,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Arrival process at each endpoint.
    pub arrival: ArrivalProcess,
    /// Per-endpoint offered-load multipliers.
    pub rates: RateMap,
    /// Warmup cycles excluded from statistics.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Drain period after measurement so in-flight messages finish.
    pub drain: u64,
    /// Workload seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's Figure 3 experiment: the 64-endpoint 3-stage
    /// radix-4 network, 20-byte random traffic, parallelism-limited
    /// endpoints.
    #[must_use]
    pub fn figure3() -> Self {
        Self {
            spec: MultibutterflySpec::figure3(),
            sim: SimConfig::default(),
            payload_words: 19,
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::Bernoulli,
            rates: RateMap::Uniform,
            warmup: 2_000,
            measure: 12_000,
            drain: 3_000,
            seed: 0xF163,
        }
    }

    /// A scaled-down variant for quick tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            spec: MultibutterflySpec::figure1(),
            sim: SimConfig::default(),
            payload_words: 19,
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::Bernoulli,
            rates: RateMap::Uniform,
            warmup: 500,
            measure: 3_000,
            drain: 1_000,
            seed: 0x511,
        }
    }

    /// The [`Scenario`] this configuration describes at offered load
    /// `load`. [`run_load_point`] runs exactly this value, so a
    /// `results/<artifact>.scenario.json` sidecar built from it is the
    /// run, not a description held equal to it by a test.
    #[must_use]
    pub fn load_scenario(&self, name: &str, load: f64) -> Scenario {
        Scenario {
            name: name.to_string(),
            topology: self.spec.clone(),
            sim: self.sim.clone(),
            seed: self.seed,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: self.pattern.clone(),
                arrival: self.arrival.clone(),
                rates: self.rates.clone(),
                load,
                payload_words: self.payload_words,
                warmup: self.warmup,
                measure: self.measure,
                drain: self.drain,
            },
        }
    }
}

/// One measured point of a latency-versus-load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load (fraction of injection capacity).
    pub offered: f64,
    /// Accepted throughput (delivered payload words / cycle /
    /// endpoint, normalized to capacity).
    pub accepted: f64,
    /// Mean total latency (request → acknowledgment), cycles.
    pub mean_latency: f64,
    /// Median total latency.
    pub p50_latency: u64,
    /// 95th-percentile total latency.
    pub p95_latency: u64,
    /// Mean network latency (injection → acknowledgment).
    pub mean_network_latency: f64,
    /// Mean retries per delivered message.
    pub retries_per_message: f64,
    /// Messages delivered in the measurement window.
    pub delivered: u64,
}

impl LoadPoint {
    /// The point as every results document spells it (`fig3.json`'s
    /// `points`, a scenario result's `point`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("offered", Json::from(self.offered)),
            ("accepted", Json::from(self.accepted)),
            ("mean_latency", Json::from(self.mean_latency)),
            ("p50_latency", Json::from(self.p50_latency)),
            ("p95_latency", Json::from(self.p95_latency)),
            (
                "mean_network_latency",
                Json::from(self.mean_network_latency),
            ),
            ("retries_per_message", Json::from(self.retries_per_message)),
            ("delivered", Json::from(self.delivered)),
        ])
    }
}

/// One measured point of a fault-degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// Routers killed.
    pub dead_routers: usize,
    /// Links killed.
    pub dead_links: usize,
    /// Mean total latency, cycles.
    pub mean_latency: f64,
    /// 95th-percentile total latency.
    pub p95_latency: u64,
    /// Mean retries per delivered message.
    pub retries_per_message: f64,
    /// Accepted throughput (payload words / cycle / endpoint).
    pub accepted: f64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages abandoned.
    pub abandoned: u64,
}

impl FaultSweepPoint {
    /// The point as `fault_sweep.json`'s `points` spells it.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dead_routers", Json::from(self.dead_routers)),
            ("dead_links", Json::from(self.dead_links)),
            ("mean_latency", Json::from(self.mean_latency)),
            ("p95_latency", Json::from(self.p95_latency)),
            ("retries_per_message", Json::from(self.retries_per_message)),
            ("accepted", Json::from(self.accepted)),
            ("delivered", Json::from(self.delivered)),
            ("abandoned", Json::from(self.abandoned)),
        ])
    }
}

/// Measures the unloaded round-trip latency of the configured network:
/// a single message between distant endpoints with nothing else in
/// flight (the Figure 3 caption's 28-cycle reference point).
#[must_use]
pub fn unloaded_latency(cfg: &SweepConfig) -> u64 {
    let mut sim = NetworkSim::new(&cfg.spec, &cfg.sim).expect("valid spec");
    let payload: Vec<u16> = (0..cfg.payload_words).map(|k| k as u16).collect();
    let n = sim.topology().endpoints();
    let outcome = sim
        .send_and_wait(0, n - 1, &payload, 10_000)
        .expect("unloaded message must deliver");
    outcome.network_latency()
}

/// Runs the scenario [`SweepConfig::load_scenario`] describes on the
/// scenario runner and returns its measured point with the finished sim
/// — whose `telemetry_snapshot` is the `.telemetry.json` sidecar an
/// artifact exports for its representative cell.
///
/// # Panics
///
/// As [`run_load_point`].
#[must_use]
pub fn run_load_sim(cfg: &SweepConfig, load: f64) -> (LoadPoint, NetworkSim) {
    let (result, sim) = run_scenario_resumable(&cfg.load_scenario("load_point", load), None, None)
        .expect("runnable load point");
    (result.point.expect("a Load workload measures a point"), sim)
}

/// Runs one load point: stochastic arrivals at `load` on every endpoint,
/// parallelism-limited sources (one outstanding message each).
///
/// # Panics
///
/// Panics if the configuration is not runnable (invalid topology or
/// workload, or the analytic engine).
#[must_use]
pub fn run_load_point(cfg: &SweepConfig, load: f64) -> LoadPoint {
    run_load_sim(cfg, load).0
}

/// Runs a latency-versus-load sweep with up to `jobs` worker threads.
/// Points are independent simulations seeded by
/// [`point_seed`]`(cfg.seed, index)`; results come back in load order
/// regardless of the worker count.
#[must_use]
pub fn load_sweep_jobs(cfg: &SweepConfig, loads: &[f64], jobs: NonZeroUsize) -> Vec<LoadPoint> {
    par_map(jobs, loads, |i, &load| {
        let point_cfg = SweepConfig {
            seed: point_seed(cfg.seed, i as u64),
            ..cfg.clone()
        };
        run_load_point(&point_cfg, load)
    })
}

/// Runs the fault-point simulation to completion and returns the sim
/// ([`run_fault_point`] summarizes it; an artifact's sidecar is its
/// `telemetry_snapshot`): the
/// load point's [`Run`] on a machine with random kills applied, seeded
/// by [`StreamSeeds::fault`] — its stride and the payload-based
/// `accepted` of [`FaultSweepPoint`] are pinned by
/// `results/fault_sweep.json` and `report_tables.rs`.
#[must_use]
pub fn run_fault_sim(
    cfg: &SweepConfig,
    load: f64,
    dead_routers: usize,
    dead_links: usize,
) -> NetworkSim {
    let mut sim = NetworkSim::new(&cfg.spec, &cfg.sim).expect("valid spec");
    let mut fault_rng = RandomSource::new(cfg.seed ^ 0xFA017);
    let mut faults = FaultSet::new();
    // Restrict router kills to the dilated (multipath) stages: killing
    // a final-stage dilation-1 router in Figure 3's topology removes a
    // destination's only delivery group — the paper's networks place
    // dilation-1 parts there precisely because whole-router loss is
    // then survivable only via the *other* endpoint input; we model
    // endpoint-isolating faults separately in the analysis crate.
    let dilated: Vec<usize> = (0..sim.topology().stages() - 1)
        .map(|s| sim.topology().routers_in_stage(s))
        .collect();
    faults.kill_random_routers(&dilated, dead_routers, &mut fault_rng);
    // Likewise, restrict link kills to the multipath region: a
    // delivery wire is one of only `endpoint_ports` inputs to its
    // destination, so killing both is structural isolation (covered by
    // metro-topo's analysis), not the graceful-degradation regime this
    // sweep measures.
    let last_stage = sim.topology().stages() - 1;
    let links: Vec<_> = all_links(sim.topology())
        .into_iter()
        .filter(|l| l.stage < last_stage)
        .collect();
    faults.kill_random_links(&links, dead_links, &mut fault_rng);
    sim.apply_faults(faults);

    let workload = cfg.load_scenario("fault_point", load).workload;
    let mut run = Run::new(sim, &workload, StreamSeeds::fault(cfg.seed), &[]);
    while run.step() {}
    run.finish().1
}

/// Summarizes a finished fault-point sim into its sweep point.
fn fault_point_from(
    sim: &NetworkSim,
    cfg: &SweepConfig,
    dead_routers: usize,
    dead_links: usize,
) -> FaultSweepPoint {
    let endpoints = sim.topology().endpoints();
    let measure = cfg.measure;
    let payload_words = cfg.payload_words;
    let stats = sim.stats();
    FaultSweepPoint {
        dead_routers,
        dead_links,
        mean_latency: stats.total_latency.mean(),
        p95_latency: stats.total_latency.percentile(95.0),
        retries_per_message: stats.retries_per_message(),
        accepted: stats.delivered as f64 * payload_words as f64 / measure as f64 / endpoints as f64,
        delivered: stats.delivered,
        abandoned: stats.abandoned,
    }
}

/// Runs one fault point: kills `dead_routers` random non-final-stage
/// routers and `dead_links` random links, then measures at `load`.
#[must_use]
pub fn run_fault_point(
    cfg: &SweepConfig,
    load: f64,
    dead_routers: usize,
    dead_links: usize,
) -> FaultSweepPoint {
    let sim = run_fault_sim(cfg, load, dead_routers, dead_links);
    fault_point_from(&sim, cfg, dead_routers, dead_links)
}

/// Runs a fault-degradation sweep over a `(dead_routers, dead_links)`
/// grid with up to `jobs` worker threads. Each grid point is an
/// independent simulation seeded by [`point_seed`]`(cfg.seed, index)`
/// (which also decorrelates the *fault choices* across points);
/// results come back in grid order regardless of the worker count.
#[must_use]
pub fn fault_sweep_jobs(
    cfg: &SweepConfig,
    load: f64,
    grid: &[(usize, usize)],
    jobs: NonZeroUsize,
) -> Vec<FaultSweepPoint> {
    par_map(jobs, grid, |i, &(dead_routers, dead_links)| {
        let point_cfg = SweepConfig {
            seed: point_seed(cfg.seed, i as u64),
            ..cfg.clone()
        };
        run_fault_point(&point_cfg, load, dead_routers, dead_links)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepConfig {
        SweepConfig {
            warmup: 200,
            measure: 1_500,
            drain: 800,
            ..SweepConfig::small()
        }
    }

    #[test]
    fn load_points_keep_the_values_the_hand_rolled_runner_measured() {
        // Recorded from the build before `run_load_point` moved onto the
        // scenario runner (PR 13, its own warmup/measure/drain loop).
        let cfg = SweepConfig {
            warmup: 200,
            measure: 1_000,
            drain: 500,
            ..SweepConfig::small()
        };
        assert_eq!(
            run_load_point(&cfg, 0.2),
            LoadPoint {
                offered: 0.2,
                accepted: 0.165,
                mean_latency: 38.391666666666666,
                p50_latency: 30,
                p95_latency: 67,
                mean_network_latency: 31.033333333333335,
                retries_per_message: 0.1,
                delivered: 120,
            }
        );
        assert_eq!(
            run_load_point(&cfg, 0.6),
            LoadPoint {
                offered: 0.6,
                accepted: 0.570625,
                mean_latency: 188.53493975903615,
                p50_latency: 169,
                p95_latency: 400,
                mean_network_latency: 37.019277108433734,
                retries_per_message: 0.6457831325301204,
                delivered: 415,
            }
        );
    }

    #[test]
    fn a_points_json_mirrors_the_struct_in_field_order() {
        let load = run_load_point(&quick(), 0.2).to_json();
        let Json::Obj(pairs) = &load else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "offered",
                "accepted",
                "mean_latency",
                "p50_latency",
                "p95_latency",
                "mean_network_latency",
                "retries_per_message",
                "delivered"
            ]
        );
        assert_eq!(load.get("offered").and_then(Json::as_f64), Some(0.2));
        assert_eq!(Json::parse(&load.render()).unwrap(), load);

        let fault = run_fault_point(&quick(), 0.2, 1, 2).to_json();
        assert_eq!(fault.get("dead_routers").and_then(Json::as_f64), Some(1.0));
        assert_eq!(fault.get("dead_links").and_then(Json::as_f64), Some(2.0));
        assert_eq!(Json::parse(&fault.render()).unwrap(), fault);
    }

    #[test]
    fn fault_points_keep_the_values_their_own_loop_measured() {
        // Recorded from the build before `run_fault_sim` moved onto
        // `Run` (PR 21, its own warmup/measure and drain loops).
        let cfg = SweepConfig {
            warmup: 200,
            measure: 1_000,
            drain: 500,
            ..SweepConfig::small()
        };
        assert_eq!(
            run_fault_point(&cfg, 0.3, 2, 3),
            FaultSweepPoint {
                dead_routers: 2,
                dead_links: 3,
                mean_latency: 164.76020408163265,
                p95_latency: 526,
                retries_per_message: 0.8775510204081632,
                accepted: 0.23275,
                delivered: 196,
                abandoned: 0,
            }
        );
        assert_eq!(
            run_fault_point(&cfg, 0.5, 0, 4),
            FaultSweepPoint {
                dead_routers: 0,
                dead_links: 4,
                mean_latency: 208.6413043478261,
                p95_latency: 506,
                retries_per_message: 0.7065217391304348,
                accepted: 0.437,
                delivered: 368,
                abandoned: 0,
            }
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let cfg = quick();
        let low = run_load_point(&cfg, 0.05);
        let high = run_load_point(&cfg, 0.7);
        assert!(low.delivered > 0 && high.delivered > 0);
        assert!(
            high.mean_latency > low.mean_latency,
            "latency must rise with load: {} vs {}",
            low.mean_latency,
            high.mean_latency
        );
    }

    #[test]
    fn low_load_latency_near_unloaded() {
        let cfg = quick();
        let base = unloaded_latency(&cfg) as f64;
        let low = run_load_point(&cfg, 0.02);
        assert!(
            low.mean_latency < base * 2.0,
            "low-load latency {} should be near unloaded {base}",
            low.mean_latency
        );
    }

    #[test]
    fn fault_point_still_delivers() {
        let cfg = quick();
        let p = run_fault_point(&cfg, 0.2, 2, 2);
        assert!(p.delivered > 0, "network with faults must keep delivering");
        assert_eq!(p.abandoned, 0, "no message may be lost");
    }

    #[test]
    fn faults_degrade_gracefully_without_loss() {
        // Note: retries/delivered-message can even *drop* under faults —
        // sources stalled behind dead entry ports thin the offered load
        // and with it the contention blocking. The invariants are
        // losslessness and bounded degradation.
        let cfg = quick();
        let clean = run_fault_point(&cfg, 0.3, 0, 0);
        let faulty = run_fault_point(&cfg, 0.3, 3, 4);
        assert_eq!(clean.abandoned, 0);
        assert_eq!(faulty.abandoned, 0, "faults must not lose messages");
        assert!(faulty.delivered > 0);
        assert!(
            faulty.mean_latency < clean.mean_latency * 10.0,
            "degradation not graceful: {} vs {}",
            clean.mean_latency,
            faulty.mean_latency
        );
    }

    #[test]
    fn point_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(point_seed(0xF163, 0), point_seed(0xF163, 0));
        // Distinct indices and distinct master seeds give distinct
        // streams; index 0 must not pass the master seed through.
        let s: Vec<u64> = (0..64).map(|i| point_seed(0xF163, i)).collect();
        for (i, &a) in s.iter().enumerate() {
            assert_ne!(a, 0xF163, "index {i} leaked the master seed");
            for &b in &s[i + 1..] {
                assert_ne!(a, b, "colliding point seeds");
            }
        }
        assert_ne!(point_seed(1, 0), point_seed(2, 0));
    }

    #[test]
    fn parallel_sweeps_match_sequential_bitwise() {
        let cfg = SweepConfig {
            warmup: 100,
            measure: 600,
            drain: 400,
            ..SweepConfig::small()
        };
        let loads = [0.05, 0.2, 0.4, 0.6];
        let jobs4 = NonZeroUsize::new(4).unwrap();
        let seq = load_sweep_jobs(&cfg, &loads, NonZeroUsize::MIN);
        let par = load_sweep_jobs(&cfg, &loads, jobs4);
        assert_eq!(seq, par, "load sweep must not depend on worker count");

        let grid = [(0, 0), (1, 0), (2, 2), (0, 4)];
        let seq = fault_sweep_jobs(&cfg, 0.3, &grid, NonZeroUsize::MIN);
        let par = fault_sweep_jobs(&cfg, 0.3, &grid, jobs4);
        assert_eq!(seq, par, "fault sweep must not depend on worker count");
    }

    #[test]
    fn sweep_points_use_derived_seeds() {
        // Two sweeps over the same load at different positions must
        // differ (per-point seeds), while a single point re-run must
        // not (determinism).
        let cfg = quick();
        let a = load_sweep_jobs(&cfg, &[0.3, 0.3], NonZeroUsize::MIN);
        assert_eq!(a[0], {
            let again = load_sweep_jobs(&cfg, &[0.3, 0.3], NonZeroUsize::MIN);
            again[0].clone()
        });
        assert_ne!(
            a[0], a[1],
            "same load at different sweep positions must draw different seeds"
        );
    }

    #[test]
    fn figure3_unloaded_is_about_28_cycles() {
        let cfg = SweepConfig::figure3();
        let lat = unloaded_latency(&cfg);
        assert!(
            (24..36).contains(&(lat as usize)),
            "figure 3 unloaded latency {lat} should be near the paper's 28"
        );
    }
}

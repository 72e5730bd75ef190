//! Experiment harnesses: load sweeps (Figure 3) and fault sweeps
//! (§6.2's robust-degradation claim).
//!
//! Every entry point takes the [`Scenario`] it runs and builds its
//! machine with [`NetworkSim::from_scenario`]; a sweep varies a base
//! scenario's load with [`Scenario::at_load`] ([`sweep_point`]). Every
//! measured point, simulated or estimated, is [`LoadPoint::measured`].
//!
//! # Per-point seeding
//!
//! A sweep is a set of *independent* simulations; each point derives
//! its own seed as `point_seed(base.seed, point_index)` — a SplitMix64
//! mix of the sweep's master seed and the point's position. This fixes
//! two problems the old scheme (every point reusing `base.seed`
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
//! deliberately left on the scenario's own seed: ablations compare
//! variants under *common* randomness (paired comparison), and callers
//! that want a derived seed can apply [`point_seed`] themselves.

use crate::network::NetworkSim;
use crate::scenario::{run::run_scenario_resumable, Run, Scenario, WorkloadSpec};
use crate::stats::NetworkStats;
use crate::workload::StreamSeeds;
use metro_core::RandomSource;
use metro_harness::{par_map, Json};
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

/// Point `index` of a sweep of `base`: `base` at `load`, seeded by
/// [`point_seed`]`(base.seed, index)` — the value both sweeps run, and
/// so the sidecar of an artifact's representative cell.
///
/// # Panics
///
/// As [`Scenario::at_load`].
#[must_use]
pub fn sweep_point(base: &Scenario, index: usize, load: f64) -> Scenario {
    Scenario {
        seed: point_seed(base.seed, index as u64),
        ..base.at_load(load)
    }
}

/// One measured point of a latency-versus-load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load (fraction of injection capacity).
    pub offered: f64,
    /// Accepted throughput in stream words ([`LoadPoint::measured`]).
    pub accepted: f64,
    /// Mean total latency (request → acknowledgment), cycles.
    pub mean_latency: f64,
    /// Median total latency.
    pub p50_latency: u64,
    /// 95th-percentile total latency.
    pub p95_latency: u64,
    /// Mean network latency (injection → acknowledgment).
    pub mean_network_latency: f64,
    /// Retries of delivered and abandoned messages per delivered
    /// message ([`NetworkStats::retries_per_message`]).
    pub retries_per_message: f64,
    /// Messages delivered in the measurement window.
    pub delivered: u64,
}

impl LoadPoint {
    /// The point `stats` measured over `measure` cycles at `offered`
    /// load on `endpoints` endpoints: the one summary of a [`Run`] and
    /// of the analytic estimator. `accepted` is delivered *stream* words
    /// (header + payload + checksum + TURN, `stream_words` a message) /
    /// cycle / endpoint, unlike [`FaultSweepPoint::accepted`]'s payload.
    #[must_use]
    pub fn measured(
        offered: f64,
        stats: &NetworkStats,
        stream_words: usize,
        measure: u64,
        endpoints: usize,
    ) -> Self {
        Self {
            offered,
            accepted: stats.delivered as f64 * stream_words as f64
                / measure as f64
                / endpoints as f64,
            mean_latency: stats.total_latency.mean(),
            p50_latency: stats.total_latency.percentile(50.0),
            p95_latency: stats.total_latency.percentile(95.0),
            mean_network_latency: stats.network_latency.mean(),
            retries_per_message: stats.retries_per_message(),
            delivered: stats.delivered,
        }
    }

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
    /// Retries of delivered and abandoned messages per delivered
    /// message.
    pub retries_per_message: f64,
    /// Accepted throughput: delivered *payload* words / cycle /
    /// endpoint, unlike [`LoadPoint::accepted`]'s stream words.
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

/// Measures the unloaded round-trip latency of `s`'s network: a single
/// message of its workload's payload between distant endpoints with
/// nothing else in flight (the Figure 3 caption's 28-cycle reference
/// point).
///
/// # Panics
///
/// As [`run_load_point`].
#[must_use]
pub fn unloaded_latency(s: &Scenario) -> u64 {
    let WorkloadSpec::Load { payload_words, .. } = s.workload else {
        panic!("scenario {:?} has a scripted workload, no payload", s.name)
    };
    let mut sim = NetworkSim::from_scenario(s).expect("runnable scenario");
    let payload: Vec<u16> = (0..payload_words).map(|k| k as u16).collect();
    let n = sim.topology().endpoints();
    let outcome = sim
        .send_and_wait(0, n - 1, &payload, 10_000)
        .expect("unloaded message must deliver");
    outcome.network_latency()
}

/// Runs `s` on the scenario runner and returns its measured point with
/// the finished sim — whose `telemetry_snapshot` is the
/// `.telemetry.json` sidecar an artifact exports for its representative
/// cell.
///
/// # Panics
///
/// As [`run_load_point`].
#[must_use]
pub fn run_load_sim(s: &Scenario) -> (LoadPoint, NetworkSim) {
    let (result, sim) = run_scenario_resumable(s, None, None).expect("runnable load point");
    (result.point.expect("a Load workload measures a point"), sim)
}

/// Runs one load point: stochastic arrivals at `s`'s load on every
/// endpoint, parallelism-limited sources (one outstanding message each).
///
/// # Panics
///
/// Panics if the scenario is not runnable: a scripted workload, a
/// refused lowering, or the analytic engine.
#[must_use]
pub fn run_load_point(s: &Scenario) -> LoadPoint {
    run_load_sim(s).0
}

/// Runs a latency-versus-load sweep of `base` with up to `jobs` worker
/// threads, point `i` the [`sweep_point`] at `loads[i]`; results come
/// back in load order regardless of the worker count.
#[must_use]
pub fn load_sweep_jobs(base: &Scenario, loads: &[f64], jobs: NonZeroUsize) -> Vec<LoadPoint> {
    par_map(jobs, loads, |i, &load| {
        run_load_point(&sweep_point(base, i, load))
    })
}

/// Runs the fault-point simulation of `s` to completion and returns the
/// sim ([`run_fault_point`] summarizes it; an artifact's sidecar is its
/// `telemetry_snapshot`): the load point's [`Run`] on a machine with
/// `dead_routers` and `dead_links` random kills added to `s`'s faults,
/// seeded by [`StreamSeeds::fault`] — its stride and the payload-based
/// `accepted` of [`FaultSweepPoint`] are pinned by
/// `results/fault_sweep.json` and `report_tables.rs`.
///
/// # Panics
///
/// If `s` does not lower, or names the analytic engine.
#[must_use]
pub fn run_fault_sim(s: &Scenario, dead_routers: usize, dead_links: usize) -> NetworkSim {
    let mut sim = NetworkSim::from_scenario(s).expect("runnable scenario");
    let mut fault_rng = RandomSource::new(s.seed ^ 0xFA017);
    let mut faults = s.faults.clone();
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

    let mut run = Run::new(sim, &s.workload, StreamSeeds::fault(s.seed), &s.injections);
    while run.step() {}
    run.finish().1
}

/// Runs one fault point of `s`: kills `dead_routers` random
/// non-final-stage routers and `dead_links` random links, then measures.
///
/// # Panics
///
/// As [`run_load_point`].
#[must_use]
pub fn run_fault_point(s: &Scenario, dead_routers: usize, dead_links: usize) -> FaultSweepPoint {
    let WorkloadSpec::Load {
        payload_words,
        measure,
        ..
    } = s.workload
    else {
        panic!("scenario {:?} has a scripted workload, no load", s.name)
    };
    let sim = run_fault_sim(s, dead_routers, dead_links);
    let endpoints = sim.topology().endpoints();
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

/// Runs a fault-degradation sweep of `base` at `load` over a
/// `(dead_routers, dead_links)` grid with up to `jobs` worker threads.
/// Each grid point is an independent simulation of its
/// [`sweep_point`], whose seed also decorrelates the *fault choices*
/// across points; results come back in grid order regardless of the
/// worker count.
#[must_use]
pub fn fault_sweep_jobs(
    base: &Scenario,
    load: f64,
    grid: &[(usize, usize)],
    jobs: NonZeroUsize,
) -> Vec<FaultSweepPoint> {
    par_map(jobs, grid, |i, &(routers, links)| {
        run_fault_point(&sweep_point(base, i, load), routers, links)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_topo::multibutterfly::MultibutterflySpec;

    /// Figure 3's traffic on Figure 1's network, on the given windows.
    fn small(windows: [u64; 3]) -> Scenario {
        let mut s = Scenario {
            topology: MultibutterflySpec::figure1(),
            seed: 0x511,
            ..Scenario::figure3("small", 0.0)
        };
        let WorkloadSpec::Load {
            warmup,
            measure,
            drain,
            ..
        } = &mut s.workload
        else {
            unreachable!("figure 3 offers a load")
        };
        [*warmup, *measure, *drain] = windows;
        s
    }

    fn quick() -> Scenario {
        small([200, 1_500, 800])
    }

    #[test]
    fn load_points_keep_the_values_the_hand_rolled_runner_measured() {
        // Recorded from the build before `run_load_point` moved onto the
        // scenario runner (PR 13, its own warmup/measure/drain loop).
        let s = small([200, 1_000, 500]);
        assert_eq!(
            run_load_point(&s.at_load(0.2)),
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
            run_load_point(&s.at_load(0.6)),
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
        let load = run_load_point(&quick().at_load(0.2)).to_json();
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

        let fault = run_fault_point(&quick().at_load(0.2), 1, 2).to_json();
        assert_eq!(fault.get("dead_routers").and_then(Json::as_f64), Some(1.0));
        assert_eq!(fault.get("dead_links").and_then(Json::as_f64), Some(2.0));
        assert_eq!(Json::parse(&fault.render()).unwrap(), fault);
    }

    #[test]
    fn fault_points_keep_the_values_their_own_loop_measured() {
        // Recorded from the build before `run_fault_sim` moved onto
        // `Run` (PR 21, its own warmup/measure and drain loops).
        let s = small([200, 1_000, 500]);
        assert_eq!(
            run_fault_point(&s.at_load(0.3), 2, 3),
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
            run_fault_point(&s.at_load(0.5), 0, 4),
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
        let s = quick();
        let low = run_load_point(&s.at_load(0.05));
        let high = run_load_point(&s.at_load(0.7));
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
        let s = quick();
        let base = unloaded_latency(&s) as f64;
        let low = run_load_point(&s.at_load(0.02));
        assert!(
            low.mean_latency < base * 2.0,
            "low-load latency {} should be near unloaded {base}",
            low.mean_latency
        );
    }

    #[test]
    fn fault_point_still_delivers() {
        let s = quick();
        let p = run_fault_point(&s.at_load(0.2), 2, 2);
        assert!(p.delivered > 0, "network with faults must keep delivering");
        assert_eq!(p.abandoned, 0, "no message may be lost");
    }

    #[test]
    fn a_fault_points_kills_join_the_scenarios_faults_and_injections() {
        use crate::scenario::{FaultInjection, RepairSet};
        use metro_topo::fault::FaultSet;

        // Random kills fall on the dilated stages 0 and 1 only, so the
        // last-stage routers below are the scenario's own.
        let mut s = quick().at_load(0.2);
        s.faults.kill_router(2, 0);
        let mut later = FaultSet::new();
        later.kill_router(2, 1);
        s.injections.push(FaultInjection {
            at: 100,
            faults: later,
            repairs: RepairSet::default(),
        });
        let sim = run_fault_sim(&s, 1, 2);
        let faults = sim.faults();
        assert!(faults.router_dead(2, 0), "the static fault stays");
        assert!(faults.router_dead(2, 1), "the injection merged");
        assert_eq!(faults.dead_routers().count(), 3);
        assert_eq!(faults.faulty_links().count(), 2);
    }

    #[test]
    fn faults_degrade_gracefully_without_loss() {
        // Note: retries/delivered-message can even *drop* under faults —
        // sources stalled behind dead entry ports thin the offered load
        // and with it the contention blocking. The invariants are
        // losslessness and bounded degradation.
        let s = quick();
        let clean = run_fault_point(&s.at_load(0.3), 0, 0);
        let faulty = run_fault_point(&s.at_load(0.3), 3, 4);
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
        let s = small([100, 600, 400]);
        let loads = [0.05, 0.2, 0.4, 0.6];
        let jobs4 = NonZeroUsize::new(4).unwrap();
        let seq = load_sweep_jobs(&s, &loads, NonZeroUsize::MIN);
        let par = load_sweep_jobs(&s, &loads, jobs4);
        assert_eq!(seq, par, "load sweep must not depend on worker count");

        let grid = [(0, 0), (1, 0), (2, 2), (0, 4)];
        let seq = fault_sweep_jobs(&s, 0.3, &grid, NonZeroUsize::MIN);
        let par = fault_sweep_jobs(&s, 0.3, &grid, jobs4);
        assert_eq!(seq, par, "fault sweep must not depend on worker count");
    }

    #[test]
    fn sweep_points_use_derived_seeds() {
        // Two sweeps over the same load at different positions must
        // differ (per-point seeds), while a single point re-run must
        // not (determinism).
        let s = quick();
        let a = load_sweep_jobs(&s, &[0.3, 0.3], NonZeroUsize::MIN);
        assert_eq!(a[0], {
            let again = load_sweep_jobs(&s, &[0.3, 0.3], NonZeroUsize::MIN);
            again[0].clone()
        });
        assert_ne!(
            a[0], a[1],
            "same load at different sweep positions must draw different seeds"
        );
    }
}

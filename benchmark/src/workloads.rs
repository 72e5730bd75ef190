//! The four benchmark workloads: each is one declarative [`Scenario`]
//! generated from the run's seed. The program under test only ever
//! receives the rendered scenario file.
//!
//! All four are **open loop**: every endpoint's arrival process offers
//! messages on its own schedule whatever the fabric does (NIC queues
//! may grow); offered load stays below saturation, so they do not.

use metro_sim::network::SimConfig;
use metro_sim::scenario::{FaultInjection, RepairSet, Scenario, WorkloadSpec};
use metro_sim::workload::{ArrivalProcess, RateMap};
use metro_sim::TrafficPattern;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::MultibutterflySpec;

/// The seed the pinned digests in `workloads/*.json` belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Which fabric a workload runs on. Wiring seeds are fixed, so every
/// run seed sees the same network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// The paper's Figure 3 network: 64 endpoints, 64 routers, 3 stages.
    Figure3,
    /// The corpus `metro1k` network: 1024 endpoints, 1536 routers, 5 stages.
    Metro1k,
}

/// What the endpoints offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Uniform destinations, Bernoulli arrivals, one rate everywhere.
    UniformBernoulli,
    /// On/off arrivals (burst 60 / idle 120), 4% hotspot to endpoint 9,
    /// per-endpoint rates 0.7…1.3, plus a corrupting link and a dead
    /// router injected at 10% of the run and repaired at 60%.
    FaultyBurst,
}

/// One benchmark workload. Cycle counts are the full-scale values;
/// [`Workload::scenario`] divides them by the run's `scale`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    fabric: Fabric,
    traffic: Traffic,
    load: f64,
    payload_words: usize,
    warmup: u64,
    measure: u64,
    drain: u64,
    /// The cycle whose snapshot the checkpoint metrics use.
    ckpt_at: u64,
    /// Tick shards (threads) the Flat engine runs with.
    pub shards: usize,
    telemetry_every: u64,
}

/// The workloads, in the fixed order every full run uses.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig3_busy",
        why: "small cache-resident fabric, mostly active: router/endpoint FSM work dominates; the no-regression guard for activity-skipping ticks",
        fabric: Fabric::Figure3,
        traffic: Traffic::UniformBernoulli,
        load: 0.40,
        payload_words: 19,
        warmup: 6_000,
        measure: 99_000,
        drain: 3_000,
        ckpt_at: 9_000,
        shards: 1,
        telemetry_every: 64,
    },
    Workload {
        name: "metro1k_sparse",
        why: "large almost idle fabric: walking idle routers, wires and arena lanes is nearly all the work; set-up is topology/arena build",
        fabric: Fabric::Metro1k,
        traffic: Traffic::UniformBernoulli,
        load: 0.02,
        payload_words: 8,
        warmup: 1_200,
        measure: 22_800,
        drain: 600,
        ckpt_at: 18_000,
        shards: 1,
        telemetry_every: 64,
    },
    Workload {
        name: "metro1k_shard2",
        why: "same fabric at the corpus load 0.15 on 2 tick shards: barriers, per-shard scratch and gather; the operating point of the sharding verdict",
        fabric: Fabric::Metro1k,
        traffic: Traffic::UniformBernoulli,
        load: 0.15,
        payload_words: 8,
        warmup: 300,
        measure: 8_100,
        drain: 600,
        ckpt_at: 1_200,
        shards: 2,
        telemetry_every: 64,
    },
    Workload {
        name: "fig3_faulty_burst",
        why: "traffic that leaves the fast path: bursty sources, hotspot, checksum failures, timeouts, retries, apply_faults, per-cycle telemetry sync",
        fabric: Fabric::Figure3,
        traffic: Traffic::FaultyBurst,
        load: 0.2,
        payload_words: 19,
        warmup: 6_000,
        measure: 114_000,
        drain: 3_000,
        ckpt_at: 18_000,
        shards: 1,
        telemetry_every: 1,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives independent scenario/simulator seeds from the
/// one run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    fn topology(&self) -> MultibutterflySpec {
        match self.fabric {
            Fabric::Figure3 => MultibutterflySpec::figure3(),
            Fabric::Metro1k => {
                metro_bench::scenarios::named("metro1k")
                    .expect("metro1k is a corpus scenario")
                    .topology
            }
        }
    }

    /// Warm-up plus measured cycles at this scale — the cycles the
    /// workload driver offers traffic for.
    #[must_use]
    pub fn driven_cycles(&self, scale: u64) -> u64 {
        self.warmup / scale + self.measure / scale
    }

    /// The checkpoint cycle at this scale.
    #[must_use]
    pub fn ckpt_at(&self, scale: u64) -> u64 {
        (self.ckpt_at / scale).max(1)
    }

    /// The scenario for one run seed, with every cycle count divided
    /// by `scale` (1 = the recorded benchmark; the smoke test uses 50).
    #[must_use]
    pub fn scenario(&self, seed: u64, scale: u64) -> Scenario {
        let topology = self.topology();
        let endpoints = topology.endpoints;
        let total = self.driven_cycles(scale);
        let (pattern, arrival, rates, injections) = match self.traffic {
            Traffic::UniformBernoulli => (
                TrafficPattern::Uniform,
                ArrivalProcess::Bernoulli,
                RateMap::Uniform,
                Vec::new(),
            ),
            Traffic::FaultyBurst => {
                let broken = LinkId::new(0, 2, 1);
                let dead = (1, 3);
                let mut faults = FaultSet::new();
                faults.break_link(broken, FaultKind::CorruptData { xor: 0x08 });
                faults.kill_router(dead.0, dead.1);
                let span = (endpoints - 1) as f64;
                (
                    TrafficPattern::Hotspot {
                        target: 9,
                        percent: 4,
                    },
                    ArrivalProcess::OnOff {
                        burst_mean: 60,
                        idle_mean: 120,
                    },
                    RateMap::PerEndpoint(
                        (0..endpoints)
                            .map(|e| 0.7 + 0.6 * e as f64 / span)
                            .collect(),
                    ),
                    vec![
                        FaultInjection {
                            at: total / 10,
                            faults,
                            repairs: RepairSet::default(),
                        },
                        FaultInjection {
                            at: total * 6 / 10,
                            faults: FaultSet::new(),
                            repairs: RepairSet {
                                links: vec![broken],
                                routers: vec![dead],
                                endpoints: vec![],
                            },
                        },
                    ],
                )
            }
        };
        Scenario {
            name: self.name.to_string(),
            topology,
            sim: SimConfig {
                seed: mix(seed, 2),
                telemetry_every: self.telemetry_every,
                shards: self.shards,
                ..SimConfig::default()
            },
            seed: mix(seed, 1),
            faults: FaultSet::new(),
            injections,
            workload: WorkloadSpec::Load {
                pattern,
                arrival,
                rates,
                load: self.load,
                payload_words: self.payload_words,
                warmup: self.warmup / scale,
                measure: self.measure / scale,
                drain: self.drain,
            },
        }
    }
}

//! Declarative scenarios: one typed, serializable value describing an
//! entire simulation run.
//!
//! The paper's evaluation is a space of *configurations* — radix,
//! dilation, stages, fault sets, reclamation policy, traffic pattern
//! (Tables 3–5, Figures 1/3). A [`Scenario`] captures one point of that
//! space end to end: the topology ([`MultibutterflySpec`]), the router
//! and protocol parameters ([`SimConfig`], including the engine kind
//! and the simulator seed), the workload seed, a static [`FaultSet`],
//! timed dynamic [`FaultInjection`]s, and the workload itself
//! ([`WorkloadSpec`]).
//!
//! Scenarios serialize through [`codec`] onto the harness's hand-rolled
//! JSON model (schema-versioned, unknown-field-rejecting, byte-stable),
//! so a checked-in `scenarios/*.json` file, a manifest entry's
//! `scenario_hash`, and a `results/<artifact>.scenario.json` sidecar
//! all name exactly the same run. [`run`] holds the run loop — one
//! [`Run`] stepped a cycle at a time — and [`run_scenario`] replays a
//! scenario on it deterministically; [`fuzz`] generates random
//! scenarios and checks the two tick engines against each other over
//! them.

pub mod codec;
pub mod fuzz;
pub mod run;

pub use run::{run_scenario, Run};

use crate::experiment::LoadPoint;
use crate::message::Outcomes;
use crate::network::{NetworkSim, SimConfig};
use crate::workload::{ArrivalProcess, RateMap, TrafficPattern};
use metro_harness::document::hex64;
use metro_harness::Json;
use metro_topo::fault::FaultSet;
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::MultibutterflySpec;

/// One scheduled message of a scripted workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSpec {
    /// Cycle at which the message is queued at the source NIC.
    pub at: u64,
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dest: usize,
    /// Payload data words.
    pub payload: Vec<u16>,
}

/// What traffic the scenario offers.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Open-loop load: stochastic arrivals at `load` on every endpoint
    /// with destinations drawn from `pattern` — the workload of the
    /// paper's Figure 3 and §6.2 sweeps. All randomness derives from
    /// the scenario's workload seed. A sweep is a base scenario of this
    /// workload varied by [`Scenario::at_load`], and
    /// [`crate::experiment::run_load_point`] runs each point as the
    /// scenario runner does, so a scenario at load `l` is that sweep
    /// point.
    /// The `arrival` process and per-endpoint `rates` generalize the
    /// historical Bernoulli-at-one-rate workload; with
    /// [`ArrivalProcess::Bernoulli`] and [`RateMap::Uniform`] the
    /// streams are bit-identical to every pre-existing recording.
    Load {
        /// Destination pattern (ignored when `arrival` is a trace).
        pattern: TrafficPattern,
        /// Arrival process at each endpoint.
        arrival: ArrivalProcess,
        /// Per-endpoint offered-load multipliers.
        rates: RateMap,
        /// Offered load (fraction of injection capacity).
        load: f64,
        /// Payload words per message.
        payload_words: usize,
        /// Warmup cycles excluded from statistics.
        warmup: u64,
        /// Measured cycles.
        measure: u64,
        /// Drain period after measurement.
        drain: u64,
    },
    /// A fixed, scripted send schedule — the workload shape of the
    /// golden-equivalence tests and the differential fuzzer.
    Sends {
        /// The scheduled messages (any order; replayed by cycle).
        sends: Vec<SendSpec>,
        /// Total cycles to run.
        cycles: u64,
    },
}

/// Timed repairs riding on a fault injection: the named elements are
/// restored to service at the injection's cycle (after that cycle's
/// new faults merge, so an injection that both breaks and repairs one
/// element repairs it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairSet {
    /// Links whose fault clears (`FaultSet::repair_link`).
    pub links: Vec<LinkId>,
    /// Routers revived, as `(stage, router)`
    /// (`FaultSet::revive_router`).
    pub routers: Vec<(usize, usize)>,
    /// Endpoints revived (`FaultSet::revive_endpoint`).
    pub endpoints: Vec<usize>,
}

impl RepairSet {
    /// Whether the set names no repairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.routers.is_empty() && self.endpoints.is_empty()
    }

    /// Applies every repair to the given fault set.
    pub fn apply_to(&self, faults: &mut FaultSet) {
        for &l in &self.links {
            faults.repair_link(l);
        }
        for &(s, r) in &self.routers {
            faults.revive_router(s, r);
        }
        for &e in &self.endpoints {
            faults.revive_endpoint(e);
        }
    }
}

/// A timed dynamic fault injection: at cycle `at`, `faults` merge into
/// the active fault set (cumulatively — earlier injections stay in
/// force) and `repairs` then clear their named elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjection {
    /// Cycle at which the faults appear.
    pub at: u64,
    /// The elements that fail at that cycle.
    pub faults: FaultSet,
    /// The elements restored to service at that cycle.
    pub repairs: RepairSet,
}

/// A complete, self-contained description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name (results file stem for `metro scenario run`).
    pub name: String,
    /// Network topology.
    pub topology: MultibutterflySpec,
    /// Router/protocol/engine parameters (including the simulator's
    /// master seed).
    pub sim: SimConfig,
    /// Workload seed: traffic pattern and arrival randomness, separate
    /// from `sim.seed`. A sweep derives each point's seed from its
    /// base's ([`crate::experiment::point_seed`]).
    pub seed: u64,
    /// Faults present from cycle 0 (masked/static faults).
    pub faults: FaultSet,
    /// Timed dynamic fault injections, applied cumulatively.
    pub injections: Vec<FaultInjection>,
    /// The offered traffic.
    pub workload: WorkloadSpec,
}

impl Scenario {
    /// A minimal scripted scenario on the given topology — a convenient
    /// starting point for tests and hand-written scenario files.
    #[must_use]
    pub fn scripted(
        name: &str,
        topology: MultibutterflySpec,
        sends: Vec<SendSpec>,
        cycles: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            topology,
            sim: SimConfig::default(),
            seed: 0x5CE0,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Sends { sends, cycles },
        }
    }

    /// The paper's Figure 3 experiment at offered load `load`: the
    /// 64-endpoint 3-stage radix-4 network, 20-byte uniform random
    /// traffic (19 payload words + 1 checksum word on an 8-bit
    /// channel), parallelism-limited endpoints.
    #[must_use]
    pub fn figure3(name: &str, load: f64) -> Self {
        Self {
            name: name.to_string(),
            topology: MultibutterflySpec::figure3(),
            sim: SimConfig::default(),
            seed: 0xF163,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Bernoulli,
                rates: RateMap::Uniform,
                load,
                payload_words: 19,
                warmup: 2_000,
                measure: 12_000,
                drain: 3_000,
            },
        }
    }

    /// This scenario at offered load `load`, all else equal — the one
    /// way a sweep varies its load.
    ///
    /// # Panics
    ///
    /// On a [`WorkloadSpec::Sends`] workload, which has no load.
    #[must_use]
    pub fn at_load(&self, load: f64) -> Self {
        let mut s = self.clone();
        let WorkloadSpec::Load { load: l, .. } = &mut s.workload else {
            panic!("scenario {:?} has a scripted workload, no load", self.name)
        };
        *l = load;
        s
    }
}

impl NetworkSim {
    /// Builds the simulator a scenario describes: [`Scenario::lower`],
    /// then [`NetworkSim::build`], with the scenario's static fault set
    /// applied. Timed injections are the run loop's job ([`Run::step`]).
    ///
    /// # Errors
    ///
    /// The scenario's [`ScenarioError`](crate::fabric::ScenarioError),
    /// or [`NotCycleAccurate`](crate::engine::NotCycleAccurate) for the
    /// analytic engine.
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, Box<dyn std::error::Error>> {
        let mut sim = NetworkSim::build(scenario.lower()?)?;
        if !scenario.faults.is_empty() {
            sim.apply_faults(scenario.faults.clone());
        }
        Ok(sim)
    }
}

/// What replaying a scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Every completed message transaction, in completion order: its
    /// fold always, the transactions themselves where the run kept them
    /// ([`Run::keep_outcomes`]; the estimator keeps its own).
    pub outcomes: Outcomes,
    /// Messages delivered (from the statistics window: for `Load`
    /// workloads this counts the measurement window only).
    pub delivered: u64,
    /// Messages abandoned (retry budget exhausted).
    pub abandoned: u64,
    /// The measured load point, for `Load` workloads.
    pub point: Option<LoadPoint>,
    /// Total payload words across all completed transactions.
    pub payload_words: usize,
    /// Whether the fabric was idle when the run ended.
    pub fabric_idle: bool,
    /// Telemetry sync interval the run used (from the scenario's
    /// `sim.telemetry_every`, clamped to at least 1): how often the
    /// registry counted a sync. No result value depends on it.
    pub telemetry_every: u64,
}

impl ScenarioResult {
    /// The 64-bit FNV-1a digest of the complete outcome stream
    /// ([`OutcomeFold::digest`](crate::message::OutcomeFold::digest)) —
    /// a compact determinism witness: two runs of the same scenario (or
    /// of one scenario on the two engines) produced identical outcome
    /// streams iff their digests match.
    #[must_use]
    pub fn outcome_digest(&self) -> u64 {
        self.outcomes.digest()
    }

    /// The machine-readable result summary, suitable for
    /// `results/scenario_<name>.json`. Deterministic: two replays of
    /// one scenario render byte-identical documents.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let point = self.point.as_ref().map_or(Json::Null, LoadPoint::to_json);
        Json::obj([
            ("outcomes", Json::from(self.outcomes.len())),
            ("delivered", Json::from(self.delivered)),
            ("abandoned", Json::from(self.abandoned)),
            ("payload_words", Json::from(self.payload_words)),
            ("fabric_idle", Json::from(self.fabric_idle)),
            ("telemetry_every", Json::from(self.telemetry_every)),
            ("outcome_digest", Json::from(hex64(self.outcome_digest()))),
            ("point", point),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_topo::fault::FaultKind;
    use metro_topo::graph::LinkId;

    fn scripted_sample() -> Scenario {
        let sends = vec![
            SendSpec {
                at: 0,
                src: 1,
                dest: 6,
                payload: vec![1, 2, 3],
            },
            SendSpec {
                at: 40,
                src: 3,
                dest: 0,
                payload: vec![9],
            },
        ];
        Scenario::scripted("sample", MultibutterflySpec::small8(), sends, 1_200)
    }

    /// [`run_scenario`], keeping the outcomes themselves.
    fn run_keeping(s: &Scenario) -> ScenarioResult {
        let mut run = Run::of(s, None).unwrap();
        run.keep_outcomes();
        while run.step() {}
        run.finish().0
    }

    #[test]
    fn from_scenario_applies_static_faults() {
        let mut s = scripted_sample();
        s.faults.kill_router(0, 1);
        let sim = NetworkSim::from_scenario(&s).unwrap();
        assert!(sim.faults().router_dead(0, 1));
    }

    #[test]
    fn scripted_scenario_delivers_and_is_deterministic() {
        let s = scripted_sample();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a, b, "two replays of one scenario must be identical");
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(a.delivered, 2);
        assert_eq!(a.outcome_digest(), b.outcome_digest());
        // Kept or only folded, the stream is the same.
        let kept = run_keeping(&s);
        assert_eq!(kept.outcomes[0].payload_words, 3);
        assert_eq!(kept.outcomes.fold(), a.outcomes.fold());
        assert_eq!(kept.to_json(), a.to_json());
    }

    #[test]
    fn a_200k_send_schedule_drains_in_stable_cycle_order() {
        // Draining the schedule with `Vec::remove(0)` made this run
        // quadratic in the send count (38 s in release at 200k sends).
        // The order it fixed is the contract: by `at`, ties in listing
        // order — replayed here by hand with an index cursor.
        let cycles = 400;
        let sends: Vec<SendSpec> = (0..200_000usize)
            .map(|k| SendSpec {
                at: ((k * 7) % 4) as u64 * 90,
                src: k % 16,
                dest: (k * 5 + 3) % 16,
                payload: vec![(k % 251) as u16],
            })
            .collect();
        let s = Scenario::scripted(
            "flood",
            MultibutterflySpec::figure1(),
            sends.clone(),
            cycles,
        );
        let got = run_scenario(&s).unwrap();
        assert!(got.delivered > 100, "only {} delivered", got.delivered);

        let mut sim = NetworkSim::from_scenario(&s).unwrap();
        let mut sorted = sends;
        sorted.sort_by_key(|s| s.at);
        let mut next = 0;
        for now in 0..cycles {
            while sorted.get(next).is_some_and(|s| s.at <= now) {
                sim.send(sorted[next].src, sorted[next].dest, &sorted[next].payload);
                next += 1;
            }
            sim.tick();
        }
        let by_hand = ScenarioResult {
            outcomes: sim.drain_outcomes(),
            ..got.clone()
        };
        assert_eq!(got.outcome_digest(), by_hand.outcome_digest());
    }

    #[test]
    fn timed_injection_forces_retries() {
        // Corrupt every delivery link of the destination mid-run; the
        // injected fault must be visible in the outcome (retries > 0 or
        // corrupt failures recorded).
        let mut s = scripted_sample();
        s.workload = WorkloadSpec::Sends {
            sends: vec![SendSpec {
                at: 100,
                src: 1,
                dest: 6,
                payload: vec![7; 6],
            }],
            cycles: 2_000,
        };
        let clean = run_keeping(&s);
        assert_eq!(clean.outcomes[0].retries, 0);

        let sim = NetworkSim::from_scenario(&s).unwrap();
        let last = sim.topology().stages() - 1;
        let mut faults = FaultSet::new();
        for l in metro_topo::paths::all_links(sim.topology()) {
            if l.stage == last {
                faults.break_link(l, FaultKind::CorruptData { xor: 0x01 });
            }
        }
        s.injections.push(FaultInjection {
            at: 0,
            faults,
            repairs: RepairSet::default(),
        });
        let faulty = run_keeping(&s);
        assert!(
            faulty.outcomes.is_empty()
                || faulty.outcomes[0].retries > 0
                || !faulty.outcomes[0].failures.is_empty(),
            "an injected corrupting fault must perturb the run"
        );
        assert_ne!(clean.outcome_digest(), faulty.outcome_digest());
    }

    #[test]
    fn injections_accumulate_rather_than_replace() {
        let mut s = scripted_sample();
        let mut f1 = FaultSet::new();
        f1.kill_router(0, 0);
        let mut f2 = FaultSet::new();
        f2.break_link(LinkId::new(0, 1, 0), FaultKind::Dead);
        s.injections = vec![
            FaultInjection {
                at: 10,
                faults: f1,
                repairs: RepairSet::default(),
            },
            FaultInjection {
                at: 20,
                faults: f2,
                repairs: RepairSet::default(),
            },
        ];
        // Step up to cycle 30 and check the live fault set.
        let mut run = Run::of(&s, None).unwrap();
        while run.cycle() < 30 {
            run.step();
        }
        assert!(
            run.sim().faults().router_dead(0, 0),
            "first injection still active"
        );
        assert!(run.sim().faults().link_dead(LinkId::new(0, 1, 0)));
    }

    #[test]
    fn timed_repairs_restore_service() {
        let mut s = scripted_sample();
        // Break a link at cycle 10, then repair it (and revive a
        // router killed by the same schedule) at cycle 20.
        let broken = LinkId::new(0, 1, 0);
        let mut f1 = FaultSet::new();
        f1.break_link(broken, FaultKind::Dead);
        f1.kill_router(1, 0);
        s.injections = vec![
            FaultInjection {
                at: 10,
                faults: f1,
                repairs: RepairSet::default(),
            },
            FaultInjection {
                at: 20,
                faults: FaultSet::new(),
                repairs: RepairSet {
                    links: vec![broken],
                    routers: vec![(1, 0)],
                    endpoints: vec![],
                },
            },
        ];
        let mut run = Run::of(&s, None).unwrap();
        while run.cycle() < 15 {
            run.step();
        }
        assert!(
            run.sim().faults().link_dead(broken),
            "fault active before repair"
        );
        assert!(run.sim().faults().router_dead(1, 0));
        while run.cycle() < 25 {
            run.step();
        }
        assert!(run.sim().faults().is_empty(), "repair cleared every fault");
    }

    #[test]
    fn result_json_is_deterministic_and_round_trips() {
        let s = scripted_sample();
        let a = run_scenario(&s).unwrap().to_json();
        let b = run_scenario(&s).unwrap().to_json();
        assert_eq!(a.render(), b.render());
        assert_eq!(Json::parse(&a.render()).unwrap(), a);
    }
}

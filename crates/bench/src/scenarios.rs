//! The single scenario-construction path for the artifact suite.
//!
//! Every sim-backed artifact builds its [`SweepConfig`] through
//! [`sweep_for`], so the quick and full profiles are two parameter sets
//! of *one* construction path. The same configs convert to declarative
//! [`Scenario`] values ([`SweepConfig::load_scenario`]) for the
//! `results/<artifact>.scenario.json` sidecars and the manifest's
//! `scenario_hash`, and [`named`] builds the checked-in
//! `scenarios/*.json` corpus (`metro scenario dump <name>`).

use metro_harness::Json;
use metro_sim::experiment::SweepConfig;
use metro_sim::network::SimConfig;
use metro_sim::scenario::{codec, FaultInjection, RepairSet, Scenario, SendSpec, WorkloadSpec};
use metro_sim::workload::{ArrivalProcess, RateMap, TraceEntry};
use metro_sim::TrafficPattern;
use metro_topo::fattree::{FatTree, FatTreeSpec};
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

/// Applies a quick profile to a sweep configuration: the shortened
/// warmup/measure/drain windows the historical `--quick` flags used
/// (the exact windows vary slightly per artifact, hence parameters).
pub fn quicken(cfg: &mut SweepConfig, measure: u64, drain: u64) {
    cfg.warmup = 500;
    cfg.measure = measure;
    cfg.drain = drain;
}

/// The per-artifact sweep catalog: one function owns every artifact's
/// quick *and* full windows, so the two profiles measure the same
/// configuration at different lengths by construction.
#[must_use]
pub fn sweep_for(artifact: &str, quick: bool) -> SweepConfig {
    let mut cfg = SweepConfig::figure3();
    match artifact {
        "fig3" if quick => quicken(&mut cfg, 3_000, 1_000),
        "fault_sweep" if quick => quicken(&mut cfg, 3_000, 1_500),
        "ablation_selection"
        | "ablation_reclaim"
        | "ablation_dilation"
        | "ablation_concurrency"
        | "traffic_patterns" => {
            if quick {
                quicken(&mut cfg, 2_500, 1_500);
            } else {
                cfg.measure = 6_000;
            }
        }
        "scaling" if quick => quicken(&mut cfg, 2_500, 1_500),
        // Full-length fig3 / fault_sweep / scaling keep the Figure 3
        // windows; unloaded probes (cascade_sim, ablation_pipelining)
        // use them regardless of profile.
        _ => {}
    }
    cfg
}

/// Encodes a scenario for an [`metro_harness::ArtifactOutput`] sidecar.
#[must_use]
pub fn emit(scenario: &Scenario) -> Json {
    codec::encode(scenario)
}

/// The names of the checked-in corpus scenarios, in `scenarios/` order.
pub const NAMED: [&str; 11] = [
    "figure1",
    "figure3_load",
    "table4_hw0",
    "table4_hw1",
    "cascade_w4",
    "fault_masking",
    "chaos_smoke",
    "fattree",
    "hotspot_burst",
    "metro1k",
    "trace_replay",
];

/// A small deterministic send schedule spreading `count` messages of
/// `words` payload words across the first cycles of a run.
fn spread_sends(endpoints: usize, count: usize, words: usize) -> Vec<SendSpec> {
    (0..count)
        .map(|k| SendSpec {
            at: (k as u64) * 13,
            src: (k * 3) % endpoints,
            dest: (k * 5 + endpoints / 2) % endpoints,
            payload: (0..words).map(|w| (w + k) as u16).collect(),
        })
        .collect()
}

/// Builds one of the named corpus scenarios — the source of truth for
/// the checked-in `scenarios/*.json` files (`metro scenario dump`
/// renders exactly these).
#[must_use]
pub fn named(name: &str) -> Option<Scenario> {
    match name {
        // Figure 1's 16-endpoint multipath network under a scripted
        // all-pairs-ish schedule.
        "figure1" => Some(Scenario::scripted(
            "figure1",
            MultibutterflySpec::figure1(),
            spread_sends(16, 12, 19),
            2_500,
        )),
        // One cell of the Figure 3 curve, shortened for replay: load
        // 0.4 on the 64-endpoint 3-stage radix-4 network.
        "figure3_load" => {
            let mut cfg = SweepConfig::figure3();
            cfg.warmup = 300;
            cfg.measure = 1_200;
            cfg.drain = 600;
            Some(cfg.load_scenario("figure3_load", 0.4))
        }
        // Table 4 cells: the 32-node 4-stage network with serial
        // (`hw = 0`) versus pipelined (`hw = 1`) connection setup.
        "table4_hw0" | "table4_hw1" => {
            let mut s = Scenario::scripted(
                name,
                MultibutterflySpec::paper32(),
                spread_sends(32, 6, 19),
                1_500,
            );
            s.sim.header_words = if name == "table4_hw1" { 1 } else { 0 };
            Some(s)
        }
        // Cascade width 4: 20 bytes over a 4-slice logical channel is
        // ceil(20/4) = 5 words, 4 of payload + 1 checksum.
        "cascade_w4" => {
            let mut s = Scenario::scripted(
                "cascade_w4",
                MultibutterflySpec::paper32(),
                spread_sends(32, 6, 4),
                1_500,
            );
            s.sim.seed = 0xCA5C;
            Some(s)
        }
        // The fault-masking story (§5.1): a corrupting link is present
        // from cycle 0; mid-run, a router dies too. Retry + stochastic
        // re-selection must still deliver.
        "fault_masking" => {
            let mut s = Scenario::scripted(
                "fault_masking",
                MultibutterflySpec::figure1(),
                spread_sends(16, 10, 8),
                3_000,
            );
            s.faults
                .break_link(LinkId::new(0, 1, 0), FaultKind::CorruptData { xor: 0x0040 });
            let mut dyn_faults = FaultSet::new();
            dyn_faults.kill_router(1, 2);
            s.injections.push(FaultInjection {
                at: 120,
                faults: dyn_faults,
                repairs: RepairSet::default(),
            });
            Some(s)
        }
        // The self-healing loop under a declarative schedule: a link
        // corrupts mid-run, the online diagnosis masks it from reply
        // evidence (`sim.self_heal`), and a timed repair later clears
        // the underlying fault — the mask stays, conservatively.
        "chaos_smoke" => {
            let mut s = Scenario::scripted(
                "chaos_smoke",
                MultibutterflySpec::figure1(),
                spread_sends(16, 14, 6),
                4_000,
            );
            s.sim.self_heal = true;
            let broken = LinkId::new(0, 2, 1);
            let mut dyn_faults = FaultSet::new();
            dyn_faults.break_link(broken, FaultKind::CorruptData { xor: 0x0008 });
            s.injections.push(FaultInjection {
                at: 60,
                faults: dyn_faults,
                repairs: RepairSet::default(),
            });
            s.injections.push(FaultInjection {
                at: 1_500,
                faults: FaultSet::new(),
                repairs: RepairSet {
                    links: vec![broken],
                    routers: vec![],
                    endpoints: vec![],
                },
            });
            Some(s)
        }
        // The second network class the paper builds from METRO parts
        // (§2, [7]): a binary fat-tree's routing structure unfolded
        // into uniform radix-2 dilation-2 stages — 8 leaves with two
        // ports each — under a scripted cross-tree schedule.
        "fattree" => {
            let tree = FatTree::build(&FatTreeSpec::binary(3, 2)).expect("valid fat-tree spec");
            Some(Scenario::scripted(
                "fattree",
                tree.to_multibutterfly(WiringStyle::Randomized, 0xFA7),
                spread_sends(8, 10, 8),
                2_500,
            ))
        }
        // The workload subsystem's bursty cell: Figure 1's network
        // under an on/off arrival process (duty cycle 1/3) aimed 15%
        // at a single hotspot, with a mild linear per-endpoint rate
        // skew. Exercises schema-2 workload fields, the burstiness
        // bucket in the analytic estimator, and heterogeneous rates on
        // every engine.
        "hotspot_burst" => Some(Scenario {
            name: "hotspot_burst".to_string(),
            topology: MultibutterflySpec::figure1(),
            sim: SimConfig::default(),
            seed: 0xB0B5,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Hotspot {
                    target: 9,
                    percent: 15,
                },
                arrival: ArrivalProcess::OnOff {
                    burst_mean: 60,
                    idle_mean: 120,
                },
                rates: RateMap::PerEndpoint((0..16).map(|e| 0.7 + 0.04 * f64::from(e)).collect()),
                load: 0.2,
                payload_words: 19,
                warmup: 300,
                measure: 1_200,
                drain: 600,
            },
        }),
        // The sharded-engine workhorse: a 1024-endpoint, 5-stage,
        // 1536-router fabric (radix 4 throughout, dilation 2 in the
        // four wide stages) under a short uniform load window. The
        // corpus file pins `sim.shards = 0` (host auto), so replaying
        // it exercises the partitioned tick by default — and must stay
        // bit-identical to a single-threaded run at any shard count.
        "metro1k" => Some(Scenario {
            name: "metro1k".to_string(),
            topology: MultibutterflySpec {
                endpoints: 1_024,
                endpoint_ports: 2,
                stages: vec![
                    StageSpec::new(8, 8, 2),
                    StageSpec::new(8, 8, 2),
                    StageSpec::new(8, 8, 2),
                    StageSpec::new(8, 8, 2),
                    StageSpec::new(4, 4, 1),
                ],
                wiring: WiringStyle::Randomized,
                seed: 0x1024,
            },
            sim: SimConfig {
                shards: 0,
                ..SimConfig::default()
            },
            seed: 0x1024_5EED,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Bernoulli,
                rates: RateMap::Uniform,
                load: 0.15,
                payload_words: 8,
                warmup: 100,
                measure: 400,
                drain: 300,
            },
        }),
        // A recorded-arrival replay on Figure 1's network: sixty
        // timestamped `(cycle, src, dest, payload)` entries spread over
        // ~900 cycles, replayed identically by the cycle engines and
        // the analytic estimator. The trace is the workload — `load`
        // and `pattern` are carried but unused.
        "trace_replay" => Some(Scenario {
            name: "trace_replay".to_string(),
            topology: MultibutterflySpec::figure1(),
            sim: SimConfig::default(),
            seed: 0x7ACE,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Trace(
                    (0..60)
                        .map(|k| TraceEntry {
                            at: (k as u64) * 15 + (k as u64 % 4),
                            src: (k * 7) % 16,
                            dest: (k * 7 + 3 + k % 5) % 16,
                            payload_words: 1 + k % 19,
                        })
                        .collect(),
                ),
                rates: RateMap::Uniform,
                load: 0.2,
                payload_words: 19,
                warmup: 100,
                measure: 1_000,
                drain: 400,
            },
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_sim::scenario::run_scenario;
    use metro_sim::TrafficPattern;

    #[test]
    fn quick_and_full_share_one_construction_path() {
        for artifact in [
            "fig3",
            "fault_sweep",
            "ablation_selection",
            "ablation_reclaim",
            "ablation_dilation",
            "ablation_concurrency",
            "traffic_patterns",
            "scaling",
            "cascade_sim",
            "ablation_pipelining",
        ] {
            let quick = sweep_for(artifact, true);
            let full = sweep_for(artifact, false);
            // The profiles may differ only in their time windows — same
            // topology, same sim parameters, same pattern, same seed.
            assert_eq!(quick.spec, full.spec, "{artifact}: topology drifted");
            assert_eq!(quick.sim, full.sim, "{artifact}: sim config drifted");
            assert_eq!(quick.pattern, full.pattern, "{artifact}: pattern drifted");
            assert_eq!(quick.seed, full.seed, "{artifact}: seed drifted");
            assert_eq!(
                quick.payload_words, full.payload_words,
                "{artifact}: payload drifted"
            );
        }
    }

    #[test]
    fn load_scenarios_carry_the_sweep_windows() {
        let cfg = sweep_for("fig3", true);
        let s = cfg.load_scenario("fig3", 0.25);
        match &s.workload {
            WorkloadSpec::Load {
                load,
                warmup,
                measure,
                drain,
                payload_words,
                pattern,
                arrival,
                rates,
            } => {
                assert_eq!(*load, 0.25);
                assert_eq!(*warmup, cfg.warmup);
                assert_eq!(*measure, cfg.measure);
                assert_eq!(*drain, cfg.drain);
                assert_eq!(*payload_words, cfg.payload_words);
                assert_eq!(pattern, &TrafficPattern::Uniform);
                assert_eq!(arrival, &ArrivalProcess::Bernoulli);
                assert_eq!(rates, &RateMap::Uniform);
            }
            WorkloadSpec::Sends { .. } => panic!("expected a Load workload"),
        }
        assert_eq!(s.seed, cfg.seed);
        assert_eq!(s.topology, cfg.spec);
    }

    #[test]
    fn every_named_scenario_builds_and_round_trips() {
        for name in NAMED {
            let s = named(name).expect("catalog entry");
            assert_eq!(s.name, name);
            let doc = emit(&s);
            let decoded = codec::decode(&doc).expect("codec round-trip");
            assert_eq!(decoded, s, "{name} changed across encode/decode");
        }
        assert!(named("no_such_scenario").is_none());
    }

    #[test]
    fn chaos_smoke_scenario_heals_and_delivers() {
        let s = named("chaos_smoke").unwrap();
        assert!(s.sim.self_heal, "chaos_smoke must run with healing on");
        let r = run_scenario(&s).expect("runnable");
        assert_eq!(r.abandoned, 0, "healing scenario must lose no messages");
        assert_eq!(r.outcomes.len(), 14);
        assert_eq!(r.delivered, 14);
    }

    #[test]
    fn fattree_scenario_delivers_identically_on_both_engines() {
        use metro_sim::network::EngineKind;

        let base = named("fattree").unwrap();
        let mut flat = base.clone();
        flat.sim.engine = EngineKind::Flat;
        let mut reference = base;
        reference.sim.engine = EngineKind::Reference;

        let f = run_scenario(&flat).expect("runnable on flat");
        let r = run_scenario(&reference).expect("runnable on reference");
        assert_eq!(f.delivered, 10, "all sends must deliver");
        assert_eq!(f.abandoned, 0);
        assert_eq!(
            f.outcome_digest(),
            r.outcome_digest(),
            "fat-tree unfolding must not split the engines"
        );
    }

    #[test]
    fn fault_masking_scenario_survives_its_faults() {
        let s = named("fault_masking").unwrap();
        let r = run_scenario(&s).expect("runnable");
        assert_eq!(r.abandoned, 0, "masking scenario must lose no messages");
        assert_eq!(r.delivered, 10);
        assert_eq!(r.outcomes.len(), 10);
        // (fabric_idle is not asserted: a router killed mid-connection
        // can legitimately leave a half-open path in the fabric.)
    }
}

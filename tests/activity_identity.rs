//! The flat engine's activity step at every shard count against the
//! Reference engine.
//!
//! The flat step visits only hot routers, endpoints and wires, on one
//! thread or — tick pass by shard, carry by lane — on a pool; the
//! Reference engine ticks everything and is the executable spec. All
//! must leave every channel input, every wire, every router and every
//! endpoint in the same state at every tick boundary — compared here as
//! checkpoint state words, which cover all of it and do not name the
//! engine. The second half checks the skip itself, at one shard and at
//! two: a cold fabric visits nothing, one message visits only its path,
//! and every way of creating activity from outside a step (enqueue,
//! restore) is seen.

use metro::sim::checkpoint::{run_scenario_resumable, Checkpoint, CheckpointSink};
use metro::sim::scenario::{FaultInjection, RepairSet, Scenario, WorkloadSpec};
use metro::sim::{ArrivalProcess, EngineKind, NetworkSim, RateMap, SimConfig, TrafficPattern};
use metro::topo::fault::{FaultKind, FaultSet};
use metro::topo::graph::LinkId;
use metro::topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};
use metro_telemetry::{State, StateReader, StateWriter};

/// Figure 3 under load, with a corrupting link and a dead router
/// injected mid-run and both repaired later.
fn faulty_load(
    seed: u64,
    load: f64,
    wire_delay: usize,
    self_heal: bool,
    (engine, shards): (EngineKind, usize),
) -> Scenario {
    let broken = LinkId::new(0, 2, 1);
    let dead = (1, 3);
    let mut faults = FaultSet::new();
    faults.break_link(broken, FaultKind::CorruptData { xor: 0x08 });
    faults.kill_router(dead.0, dead.1);
    Scenario {
        name: "activity-identity".to_string(),
        topology: MultibutterflySpec::figure3(),
        sim: SimConfig {
            seed: seed ^ 0xAC71,
            wire_delay,
            self_heal,
            engine,
            shards,
            telemetry_every: 4,
            ..SimConfig::default()
        },
        seed,
        faults: FaultSet::new(),
        injections: vec![
            FaultInjection {
                at: 50,
                faults,
                repairs: RepairSet::default(),
            },
            FaultInjection {
                at: 120,
                faults: FaultSet::new(),
                repairs: RepairSet {
                    links: vec![broken],
                    routers: vec![dead],
                    endpoints: Vec::new(),
                },
            },
        ],
        workload: WorkloadSpec::Load {
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::Bernoulli,
            rates: RateMap::Uniform,
            load,
            payload_words: 6,
            warmup: 20,
            measure: 130,
            drain: 60,
        },
    }
}

/// Every 7th-cycle checkpoint of one run, as `(cycle, state words)`.
fn states_every_7(scenario: &Scenario) -> Vec<(u64, Vec<u64>)> {
    let mut states = Vec::new();
    let mut sink = |c: &Checkpoint| {
        states.push((c.cycle, c.state.clone()));
        Ok(())
    };
    run_scenario_resumable(
        scenario,
        None,
        Some(CheckpointSink {
            every: 7,
            sink: &mut sink,
        }),
    )
    .unwrap();
    states
}

#[test]
fn activity_step_equals_the_reference_engine_word_for_word() {
    let mut compared = 0;
    for seed in [0x5EED_0001u64, 0xD15C_0BA1] {
        for load in [0.02, 0.1, 0.3, 0.5] {
            for wire_delay in [0, 1, 2] {
                for self_heal in [false, true] {
                    let states = |variant| {
                        states_every_7(&faulty_load(seed, load, wire_delay, self_heal, variant))
                    };
                    let expected = states((EngineKind::Reference, 1));
                    // Warm-up and measurement always run; the drain
                    // ends when the fabric does.
                    assert!(expected.len() >= 150 / 7, "checkpoints must span the run");
                    // Three shards cut figure 3 inside a stage and give
                    // the carry an idle third participant.
                    for variant in [
                        (EngineKind::Flat, 1),
                        (EngineKind::Flat, 2),
                        (EngineKind::Flat, 3),
                    ] {
                        let stepped = states(variant);
                        assert_eq!(stepped.len(), expected.len());
                        for ((cycle, a), (_, b)) in stepped.iter().zip(&expected) {
                            assert!(
                                a == b,
                                "seed {seed:#x} load {load} delay {wire_delay} heal {self_heal}: \
                                 {variant:?} diverged from the Reference engine at cycle {cycle} \
                                 (first differing word {:?})",
                                a.iter().zip(b).position(|(x, y)| x != y)
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(compared >= 3 * 48 * (150 / 7));
}

fn metro1k() -> MultibutterflySpec {
    MultibutterflySpec {
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
    }
}

fn metro1k_sim(shards: usize) -> NetworkSim {
    let config = SimConfig {
        shards,
        ..SimConfig::default()
    };
    let sim = NetworkSim::new(&metro1k(), &config).unwrap();
    assert_eq!(sim.shards(), shards);
    sim
}

#[test]
fn a_drained_fabric_visits_nothing() {
    for shards in [1, 2] {
        let mut sim = metro1k_sim(shards);
        for k in 0..200 {
            sim.send((k * 37) % 1_024, (k * 101 + 5) % 1_024, &[k as u16, 2, 3]);
        }
        while !(sim.is_quiescent() && sim.fabric_idle()) {
            sim.tick();
            assert!(sim.now() < 5_000, "traffic must drain");
        }
        assert_eq!(sim.drain_outcomes().len(), 200);
        // The step that consumed the last live word also revisited its
        // driver, which drove `Empty` over it: nothing trails.
        let before = sim.engine_visits();
        assert!(before > 0, "{shards} shards");
        sim.run(1_000);
        assert_eq!(
            sim.engine_visits(),
            before,
            "{shards} shards: a cold fabric costs nothing"
        );
    }
}

#[test]
fn one_message_visits_only_its_path() {
    for shards in [1, 2] {
        let mut sim = metro1k_sim(shards);
        let path = sim.topology().stages() as u64 + 2;
        sim.send(3, 777, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut outcomes = sim.drain_outcomes();
        let mut visits = 0;
        while outcomes.is_empty() {
            let before = sim.engine_visits();
            sim.tick();
            let visited = sim.engine_visits() - before;
            assert!(
                visited <= path,
                "{shards} shards, cycle {}: visited {visited} components for one {path}-hop circuit",
                sim.now()
            );
            visits += visited;
            assert!(sim.now() < 500);
            outcomes = sim.drain_outcomes();
        }
        assert!(visits > 0, "{shards} shards: the step counts its visits");
        assert_eq!(outcomes[0].retries, 0);
    }
}

#[test]
fn a_message_enqueued_behind_the_networks_back_is_delivered() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
    // Let everything go cold first.
    sim.run(10);
    let payload = [9u16, 8, 7];
    let stream = sim.stream_for(41, &payload);
    let now = sim.now();
    sim.endpoint_mut(6).enqueue(41, payload.len(), stream, now);
    sim.run(200);
    let outcomes = sim.drain_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!((outcomes[0].src, outcomes[0].dest), (6, 41));
    assert_eq!(sim.endpoint_mut(41).take_delivered()[0].payload, payload);
}

fn state_words(sim: &NetworkSim) -> Vec<u64> {
    let mut w = StateWriter::new();
    sim.save_state(&mut w);
    w.into_words()
}

#[test]
fn restoring_into_a_used_engine_resumes_bit_identically() {
    let spec = MultibutterflySpec::figure3();
    let traffic = |sim: &mut NetworkSim, salt: usize| {
        for k in 0..40 {
            sim.send(
                (k * 7 + salt) % 64,
                (k * 11 + 3 * salt + 1) % 64,
                &[k as u16; 5],
            );
        }
    };
    // Behind a transparent wire the carry is the only writer of a slot;
    // behind a delayed one the wire overwrites it.
    for wire_delay in [0, 1] {
        let config = |engine, shards| SimConfig {
            wire_delay,
            engine,
            shards,
            ..SimConfig::default()
        };
        // The machine the snapshot comes from, stopped mid-flight.
        let mut origin = NetworkSim::new(&spec, &config(EngineKind::Flat, 1)).unwrap();
        traffic(&mut origin, 0);
        origin.run(23);
        let snapshot = state_words(&origin);
        // Machines that have been running something else: their buses,
        // hot sets, carry masks and shard marks describe that other run.
        let mut used: Vec<NetworkSim> = [1, 2]
            .into_iter()
            .map(|shards| {
                let mut sim = NetworkSim::new(&spec, &config(EngineKind::Flat, shards)).unwrap();
                traffic(&mut sim, 5);
                sim.run(31);
                sim.restore_state(&mut StateReader::new(&snapshot)).unwrap();
                sim
            })
            .collect();
        // The Reference engine, restored from the same snapshot, as the
        // oracle.
        let mut oracle = NetworkSim::new(&spec, &config(EngineKind::Reference, 1)).unwrap();
        oracle
            .restore_state(&mut StateReader::new(&snapshot))
            .unwrap();
        for cycle in 0..150 {
            let expected = state_words(&oracle);
            let context = format!("delay {wire_delay}, {cycle} cycles after the restore");
            assert!(
                state_words(&origin) == expected,
                "{context}: the origin diverged"
            );
            for sim in &used {
                let shards = sim.shards();
                assert!(
                    state_words(sim) == expected,
                    "{context}: {shards} shards diverged"
                );
            }
            origin.tick();
            oracle.tick();
            used.iter_mut().for_each(NetworkSim::tick);
        }
        assert!(origin.is_quiescent() && origin.fabric_idle());
    }
}

#[test]
fn a_wire_that_turns_opaque_and_back_keeps_the_step_exact() {
    // Zero-delay wires are transparent, so the wire pass runs only
    // after a marked step; a broken link makes one wire opaque (the
    // pass runs every step), and its repair makes every wire transparent
    // again. Compared every cycle through both changes.
    let spec = MultibutterflySpec::figure3();
    let config = |engine, shards| SimConfig {
        wire_delay: 0,
        engine,
        shards,
        ..SimConfig::default()
    };
    let mut broken = FaultSet::new();
    broken.break_link(LinkId::new(0, 2, 1), FaultKind::Dead);
    let mut sims: Vec<NetworkSim> = [
        (EngineKind::Reference, 1),
        (EngineKind::Flat, 1),
        (EngineKind::Flat, 2),
    ]
    .into_iter()
    .map(|(engine, shards)| NetworkSim::new(&spec, &config(engine, shards)).unwrap())
    .collect();
    for cycle in 0..400usize {
        for sim in &mut sims {
            match cycle {
                30 => sim.apply_faults(broken.clone()),
                110 => sim.apply_faults(FaultSet::new()),
                _ => {}
            }
            if cycle < 200 {
                sim.send(cycle % 64, (cycle * 13 + 5) % 64, &[cycle as u16; 6]);
            }
            sim.tick();
        }
        let expected = state_words(&sims[0]);
        for sim in &sims[1..] {
            assert!(
                state_words(sim) == expected,
                "cycle {cycle}: {} shards diverged from the Reference engine",
                sim.shards()
            );
        }
    }
    let outcomes: Vec<_> = sims.iter_mut().map(|s| s.drain_outcomes()).collect();
    assert!(
        outcomes[0].iter().any(|o| o.retries > 0),
        "the dead link was met"
    );
    assert!(outcomes.iter().all(|o| *o == outcomes[0]));
    // Repaired and drained: the skipped wire pass leaves nothing hot,
    // and a marked step still visits every member, transparent wires
    // included.
    for sim in &mut sims[1..] {
        assert!(sim.is_quiescent() && sim.fabric_idle());
        let before = sim.engine_visits();
        sim.run(100);
        assert_eq!(sim.engine_visits(), before);
        let topo = sim.topology();
        let members =
            topo.total_routers() + topo.endpoints() + topo.endpoint_slots() + topo.backward_slots();
        sim.apply_faults(FaultSet::new());
        sim.tick();
        assert_eq!(sim.engine_visits() - before, members as u64);
    }
}

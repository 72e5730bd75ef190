//! Checkpoint/resume bit-identity, proven by property tests: run `N`
//! cycles, checkpoint, restore into a fresh machine, run `M` more —
//! the combined run must equal a straight `N + M` run in every
//! observable: the outcome stream, the statistics, the telemetry
//! snapshot, the healed sets, and the live fault mask. Exercised on
//! the flat engine at shard counts 1, 2, and 4 and on the reference
//! engine, plus the portability claim: a checkpoint taken under one
//! execution variant — Flat at 1, 2 or 4 shards, or Reference — resumes
//! bit-identically under any other, later checkpoints included.

use metro_sim::checkpoint::{
    resume_scenario, run_scenario_resumable, Checkpoint, CheckpointSink, RunPhase,
};
use metro_sim::scenario::{FaultInjection, RepairSet, Scenario, ScenarioResult, WorkloadSpec};
use metro_sim::{ArrivalProcess, EngineKind, NetworkSim, RateMap, SimConfig, TrafficPattern};
use metro_telemetry::{State, StateError, StateReader, StateWriter};
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::MultibutterflySpec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const BERNOULLI: ArrivalProcess = ArrivalProcess::Bernoulli;

/// A randomized load scenario on the small8 topology, with self-heal
/// on and a mid-run corrupting injection so retries, telemetry, and
/// (sometimes) healing all have material to work with, run under the
/// execution variant `(engine, shards)`. `(pipestages, wire_delay)`
/// above `(1, 0)` puts words in router pipes and wire registers, so a
/// checkpoint saves them.
fn loaded_scenario(
    seed: u64,
    load_milli: u64,
    (engine, shards): (EngineKind, usize),
    arrival: ArrivalProcess,
    (pipestages, wire_delay): (usize, usize),
) -> Scenario {
    let mut injected = FaultSet::new();
    injected.break_link(
        LinkId::new(1, (seed % 4) as usize, 0),
        FaultKind::CorruptData {
            xor: 1 + (seed % 0xFF) as u16,
        },
    );
    Scenario {
        name: "ckpt-prop".to_string(),
        topology: MultibutterflySpec::small8(),
        sim: SimConfig {
            seed: seed ^ 0x51AB,
            engine,
            shards,
            self_heal: true,
            telemetry_every: 4,
            pipestages,
            wire_delay,
            ..SimConfig::default()
        },
        seed,
        faults: FaultSet::new(),
        injections: vec![FaultInjection {
            at: 60,
            faults: injected,
            repairs: RepairSet::default(),
        }],
        workload: WorkloadSpec::Load {
            pattern: TrafficPattern::Uniform,
            arrival,
            rates: RateMap::Uniform,
            load: load_milli as f64 / 1000.0,
            payload_words: 5,
            warmup: 40,
            measure: 160,
            drain: 120,
        },
    }
}

/// Runs the scenario straight through, capturing one checkpoint at
/// cycle `at`.
fn run_straight(scenario: &Scenario, at: u64) -> (ScenarioResult, NetworkSim, Checkpoint) {
    let mut taken = None;
    let mut sink = |c: &Checkpoint| {
        if c.cycle == at {
            taken = Some(c.clone());
        }
        Ok(())
    };
    let (result, sim) = run_scenario_resumable(
        scenario,
        None,
        Some(CheckpointSink {
            every: at,
            sink: &mut sink,
        }),
    )
    .unwrap();
    (result, sim, taken.expect("checkpoint at requested cycle"))
}

/// Asserts every observable of the two finished machines matches (the
/// telemetry snapshot's engine name aside: the machines may have been
/// stepped by different engines).
fn assert_machines_equal(straight: &mut NetworkSim, resumed: &mut NetworkSim) {
    let mut snapshot = resumed.telemetry_snapshot("s");
    snapshot.engine = straight.config().engine.name().to_string();
    assert_eq!(
        straight.telemetry_snapshot("s"),
        snapshot,
        "telemetry snapshots diverged"
    );
    assert_eq!(
        straight.healed_links(),
        resumed.healed_links(),
        "healed link sets diverged"
    );
    assert_eq!(
        straight.healed_injections(),
        resumed.healed_injections(),
        "healed injection sets diverged"
    );
    assert_eq!(straight.faults(), resumed.faults(), "fault masks diverged");
    assert_eq!(straight.now(), resumed.now(), "clocks diverged");
}

/// The hostile-word sweep of `tests/document_contract.rs`, over a
/// busier machine than the committed fixture: figure 1 built with
/// `config` and run `cycles` cycles, every endpoint with one message on
/// the wire and one queued behind it, the healer collecting evidence.
/// Every state word, replaced by a small wrong value and by a large
/// one, is refused with a typed error or runs on cleanly. CI runs this
/// in `--release`, where an unchecked timestamp does not panic but
/// wraps into a ~2⁶⁴-cycle latency.
///
/// The verdicts are pinned as `(refused, ran, digest)`: the digest is
/// FNV-1a over every refused mutant's `(word, value, section named)`,
/// so a change to what restore checks, or to where in the stream it
/// refuses, moves it.
fn sweep_a_busy_machine(config: &SimConfig, cycles: u64, verdicts: (u32, u32, u64)) {
    let built = NetworkSim::new(&MultibutterflySpec::figure1(), config).unwrap();
    let mut busy = built.clone();
    let mut faults = FaultSet::new();
    faults.break_link(LinkId::new(0, 2, 1), FaultKind::CorruptData { xor: 0x21 });
    faults.break_link(LinkId::new(1, 5, 3), FaultKind::Dead);
    busy.apply_faults(faults);
    for e in 0..16 {
        busy.send(e, (e + 5) % 16, &[1, 2, 3]);
        busy.send(e, (e + 11) % 16, &[4, 5]);
    }
    busy.run(cycles);
    let mut w = StateWriter::new();
    busy.save_state(&mut w);
    let state = w.into_words();

    let (mut refused, mut ran, mut digest, mut broke) = (0, 0, FNV_BASIS, Vec::new());
    for at in 0..state.len() {
        for value in [999, 1 << 40] {
            let mut mutant = state.clone();
            mutant[at] = value;
            let mut sim = built.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut r = StateReader::new(&mutant);
                if let Err(e) = sim.restore_state(&mut r).and_then(|()| r.finish()) {
                    return Some(e);
                }
                sim.run(64);
                let _ = sim.telemetry_snapshot("mutant");
                let now = sim.now();
                for o in sim.drain_outcomes() {
                    let latency = o.total_latency().max(o.network_latency());
                    assert!(latency <= now, "wrapped latency {latency}");
                }
                None
            }));
            match outcome {
                Ok(Some(e)) => {
                    refused += 1;
                    fold_refusal(&mut digest, at, value, &e);
                }
                Ok(None) => ran += 1,
                Err(_) => broke.push((at, value)),
            }
        }
    }
    assert!(
        broke.is_empty(),
        "{} mutants restored, then broke the run: (word, value) {broke:?}",
        broke.len()
    );
    assert_eq!(
        (refused, ran, digest),
        verdicts,
        "(refused, ran, digest of the refusals)"
    );
}

/// The FNV-1a offset basis: the digest of no refusals.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one refused mutant — the word it replaced, the value it wrote
/// and the section the refusal names — into an FNV-1a digest.
fn fold_refusal(digest: &mut u64, at: usize, value: u64, e: &StateError) {
    let section = match e {
        StateError::BadValue { section, .. } | StateError::UnexpectedEnd { section } => section,
        StateError::TagMismatch { expected, .. } => expected,
    };
    let bytes = (at as u64)
        .to_le_bytes()
        .into_iter()
        .chain(value.to_le_bytes());
    for b in bytes.chain(section.bytes()) {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Nine cycles in at `dp = 1` over combinational wires.
#[test]
fn every_mutated_word_of_a_busy_machine_is_refused_or_runs_clean() {
    let config = SimConfig {
        self_heal: true,
        ..SimConfig::default()
    };
    // 48 of the refusals are a settle count of 2⁴⁰, which a
    // port's `u32` counter does not hold.
    sweep_a_busy_machine(&config, 9, (4499, 2171, 0x9e9e_39a0_7b51_c15a));
}

/// The same sweep where the state holds words in router pipes, reply
/// queues and wire registers: `dp = 2` and wire delays of 1–2 cycles,
/// ten cycles in, when all three hold live words.
#[test]
fn every_mutated_word_of_a_busy_pipelined_machine_is_refused_or_runs_clean() {
    let config = SimConfig {
        self_heal: true,
        pipestages: 2,
        stage_wire_delays: Some(vec![1, 2, 1, 1]),
        ..SimConfig::default()
    };
    // 48 of the refusals are a settle count of 2⁴⁰.
    sweep_a_busy_machine(&config, 10, (5011, 2427, 0x83a1_dcdd_6e50_1dd7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N → checkpoint → resume → M ≡ straight N+M, on the flat engine
    /// at every supported shard count.
    #[test]
    fn flat_engine_resumes_bit_identically_at_every_shard_count(
        seed in any::<u64>(),
        load_milli in 100u64..450,
        at in 1u64..200,
        pipelining in (1usize..=3, 0usize..=2),
    ) {
        for shards in [1usize, 2, 4] {
            let s = loaded_scenario(seed, load_milli, (EngineKind::Flat, shards), BERNOULLI, pipelining);
            let (straight, mut straight_sim, ckpt) = run_straight(&s, at);
            let (resumed, mut resumed_sim) = resume_scenario(&ckpt).unwrap();
            prop_assert_eq!(
                &resumed, &straight,
                "shards={} at={} diverged", shards, at
            );
            assert_machines_equal(&mut straight_sim, &mut resumed_sim);
        }
    }

    /// The same contract on the reference engine — the independent
    /// implementation both sides of the differential fuzzer trust.
    #[test]
    fn reference_engine_resumes_bit_identically(
        seed in any::<u64>(),
        load_milli in 100u64..450,
        at in 1u64..200,
        pipelining in (1usize..=3, 0usize..=2),
    ) {
        let s = loaded_scenario(seed, load_milli, (EngineKind::Reference, 1), BERNOULLI, pipelining);
        let (straight, mut straight_sim, ckpt) = run_straight(&s, at);
        let (resumed, mut resumed_sim) = resume_scenario(&ckpt).unwrap();
        prop_assert_eq!(&resumed, &straight);
        assert_machines_equal(&mut straight_sim, &mut resumed_sim);
    }

    /// A checkpoint does not name what took it: taken every `at` cycles
    /// under one execution variant, the first resumes under any other
    /// to the same result document, the same final machine and the
    /// same later checkpoints — on Bernoulli and on bursty traffic,
    /// across the mid-run fault injection.
    #[test]
    fn checkpoints_resume_across_execution_variants(
        seed in any::<u64>(),
        load_milli in 100u64..450,
        at in 1u64..200,
        from_idx in 0usize..4,
        to_idx in 0usize..4,
        bursty in any::<bool>(),
        pipelining in (1usize..=3, 0usize..=2),
    ) {
        let variants = [
            (EngineKind::Flat, 1),
            (EngineKind::Flat, 2),
            (EngineKind::Flat, 4),
            (EngineKind::Reference, 1),
        ];
        let (from, to) = (variants[from_idx], variants[to_idx]);
        let arrival = if bursty {
            ArrivalProcess::OnOff { burst_mean: 12, idle_mean: 30 }
        } else {
            BERNOULLI
        };
        let s = loaded_scenario(seed, load_milli, from, arrival, pipelining);
        type Taken = Vec<(RunPhase, u64, Vec<u64>)>;
        let (mut first, mut straight_ckpts, mut resumed_ckpts) = (None, Taken::new(), Taken::new());
        let mut sink = |c: &Checkpoint| {
            first.get_or_insert_with(|| c.clone());
            straight_ckpts.push((c.phase, c.cycle, c.state.clone()));
            Ok(())
        };
        let hook = CheckpointSink { every: at, sink: &mut sink };
        let (straight, mut straight_sim) = run_scenario_resumable(&s, None, Some(hook)).unwrap();
        // Re-target the embedded scenario and resume.
        let mut ckpt = first.expect("a checkpoint at the requested cycle");
        (ckpt.scenario.sim.engine, ckpt.scenario.sim.shards) = to;
        let mut sink = |c: &Checkpoint| {
            resumed_ckpts.push((c.phase, c.cycle, c.state.clone()));
            Ok(())
        };
        let hook = CheckpointSink { every: at, sink: &mut sink };
        let (resumed, mut resumed_sim) = run_scenario_resumable(&ckpt.scenario, Some(&ckpt), Some(hook)).unwrap();
        prop_assert_eq!(
            resumed.to_json().render(), straight.to_json().render(),
            "resume {:?}→{:?} at={} diverged", from, to, at
        );
        assert_machines_equal(&mut straight_sim, &mut resumed_sim);
        prop_assert!(
            resumed_ckpts == straight_ckpts[1..],
            "later checkpoints diverged after resuming {:?}→{:?} at={}", from, to, at
        );
    }

    /// The round trip through the JSON envelope changes nothing: a
    /// checkpoint decoded from its own rendering resumes to the same
    /// run as the in-memory original.
    #[test]
    fn envelope_round_trip_preserves_the_resume(
        seed in any::<u64>(),
        at in 1u64..200,
        pipelining in (1usize..=3, 0usize..=2),
    ) {
        let s = loaded_scenario(seed, 300, (EngineKind::Flat, 2), BERNOULLI, pipelining);
        let (straight, _sim, ckpt) = run_straight(&s, at);
        let text = ckpt.to_json().render();
        let back = Checkpoint::from_text(&text).unwrap();
        prop_assert_eq!(&back, &ckpt);
        let (resumed, _sim) = resume_scenario(&back).unwrap();
        prop_assert_eq!(&resumed, &straight);
    }
}

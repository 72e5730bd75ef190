//! Differential scenario fuzzing: seeded random scenarios, each run
//! under two execution variants.
//!
//! PR 1's golden-trace tests proved [`EngineKind::Flat`] equivalent to
//! [`EngineKind::Reference`] over hand-picked workload shapes. This
//! module turns that into scenario-space tooling: [`random_scenario`]
//! derives a complete [`Scenario`] from a single `u64` (pure function —
//! the same seed always builds the same scenario, so a CI failure
//! reproduces from its seed alone), and [`differential_check`] replays
//! it under a pair of `(engine, shards)` variants and demands identical
//! [`MessageOutcome`] streams (compared by their fold, and re-run one
//! by one only to name the first that differs), delivery counters,
//! telemetry and machine state.
//!
//! [`MessageOutcome`]: crate::message::MessageOutcome

use super::{codec, FaultInjection, RepairSet, Run, Scenario, SendSpec, WorkloadSpec};
use crate::message::Outcomes;
use crate::network::{EngineKind, SimConfig};
use crate::workload::{ArrivalProcess, RateMap, TraceEntry, TrafficPattern};
use metro_core::RandomSource;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

/// The topology shapes the fuzzer draws from — the same span as the
/// golden-equivalence tests (radix, dilation, depth, and a radix-1
/// randomizer front stage), kept small so a fuzz campaign stays fast.
fn shape_for(rng: &mut RandomSource) -> MultibutterflySpec {
    let spec = match rng.index(4) {
        0 => MultibutterflySpec::small8(),
        1 => MultibutterflySpec::figure1(),
        2 => MultibutterflySpec::paper32(),
        _ => MultibutterflySpec {
            endpoints: 8,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(4, 4, 4), // radix 1: pure randomizer
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(2, 2, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 8,
        },
    };
    spec.with_seed(rng.bits(64))
}

/// A random fault set over the non-final stages of `spec` (final-stage
/// faults can structurally isolate a destination; the fuzzer's job is
/// engine agreement, and both engines still agree on isolating faults —
/// but bounded shapes keep runs from degenerating into pure retry
/// storms).
fn random_faults(spec: &MultibutterflySpec, rng: &mut RandomSource) -> FaultSet {
    let mut faults = FaultSet::new();
    let stages = spec.stages.len();
    for _ in 0..rng.index(3) {
        let s = rng.index(stages.saturating_sub(1).max(1));
        let routers = spec.endpoints * spec.endpoint_ports / spec.stages[s].forward_ports;
        faults.kill_router(s, rng.index(routers));
    }
    for _ in 0..rng.index(3) {
        let s = rng.index(stages.saturating_sub(1).max(1));
        let routers = spec.endpoints * spec.endpoint_ports / spec.stages[s].forward_ports;
        let link = LinkId::new(
            s,
            rng.index(routers),
            rng.index(spec.stages[s].backward_ports),
        );
        let kind = match rng.index(3) {
            0 => FaultKind::Dead,
            1 => FaultKind::CorruptData {
                xor: (rng.bits(8) as u16).max(1),
            },
            _ => FaultKind::Intermittent {
                xor: (rng.bits(8) as u16).max(1),
                period: rng.index(5) as u32 + 1,
            },
        };
        faults.break_link(link, kind);
    }
    faults
}

/// Derives a complete scenario from `seed` — a pure function, so any
/// failing seed reproduces its scenario exactly. The generated space
/// spans topology shape and wiring, sim seed, protocol knobs
/// (`fast_reclaim`, `wire_delay`, `pipestages`), static faults, one
/// optional timed injection, and a scripted send schedule.
#[must_use]
pub fn random_scenario(seed: u64) -> Scenario {
    let mut rng = RandomSource::new(seed ^ 0xF0_22ED);
    let topology = shape_for(&mut rng);
    let n = topology.endpoints;

    let sim = SimConfig {
        seed: rng.bits(64),
        wire_delay: rng.index(3),
        fast_reclaim: rng.bit(),
        ..SimConfig::default()
    };

    let faults = if rng.index(4) == 0 {
        random_faults(&topology, &mut rng)
    } else {
        FaultSet::new()
    };

    let cycles = 1_200 + rng.bits(10); // 1200..2224
    let injections = if rng.index(4) == 0 {
        vec![FaultInjection {
            at: rng.bits(8), // within the active window
            faults: random_faults(&topology, &mut rng),
            repairs: RepairSet::default(),
        }]
    } else {
        Vec::new()
    };

    let workload = random_workload(&mut rng, n, cycles);
    // Drawn after the workload, so the draws before it — and the CI
    // seeds' coverage of arrival processes — are what they were.
    let sim = SimConfig {
        pipestages: 1 + rng.index(3),
        ..sim
    };

    Scenario {
        name: format!("fuzz-{seed:#x}"),
        topology,
        sim,
        seed: rng.bits(64),
        faults,
        injections,
        workload,
    }
}

/// Draws one workload for a fuzz scenario. Scripted sends remain the
/// bulk of the space (they exercise exact payload contents and tight
/// schedules), but all three open-loop arrival processes — Bernoulli,
/// OnOff, Trace — are generated often enough that a 25-case CI campaign
/// differentially exercises every process on every engine
/// (`fuzz_covers_every_arrival_process` pins this).
fn random_workload(rng: &mut RandomSource, n: usize, cycles: u64) -> WorkloadSpec {
    match rng.index(8) {
        kind @ (0 | 1) => {
            let arrival = if kind == 0 {
                ArrivalProcess::Bernoulli
            } else {
                ArrivalProcess::OnOff {
                    burst_mean: 1 + rng.index(64) as u64,
                    idle_mean: 1 + rng.index(128) as u64,
                }
            };
            let pattern = match rng.index(4) {
                0 => TrafficPattern::Hotspot {
                    target: rng.index(n),
                    percent: rng.index(40),
                },
                1 => {
                    // A rotation is always a valid self-target-free
                    // permutation.
                    let k = 1 + rng.index(n - 1);
                    TrafficPattern::Permutation((0..n).map(|s| (s + k) % n).collect())
                }
                _ => TrafficPattern::Uniform,
            };
            let rates = if rng.index(3) == 0 {
                RateMap::PerEndpoint((0..n).map(|_| rng.index(200) as f64 / 100.0).collect())
            } else {
                RateMap::Uniform
            };
            WorkloadSpec::Load {
                pattern,
                arrival,
                rates,
                load: 0.05 + rng.index(31) as f64 / 100.0,
                payload_words: 1 + rng.index(10),
                warmup: 64 + rng.bits(6),
                measure: 256 + rng.bits(8),
                drain: 256 + rng.bits(7),
            }
        }
        2 => {
            let entries = (0..1 + rng.index(11))
                .map(|_| {
                    let src = rng.index(n);
                    TraceEntry {
                        at: rng.index(600) as u64,
                        src,
                        // Offset by 1..n modulo n: never self-targeting.
                        dest: (src + 1 + rng.index(n - 1)) % n,
                        payload_words: 1 + rng.index(10),
                    }
                })
                .collect();
            WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Trace(entries),
                rates: RateMap::Uniform,
                load: 0.2,
                payload_words: 4,
                warmup: 64,
                measure: 600 + rng.bits(8),
                drain: 256,
            }
        }
        _ => {
            let n_sends = 1 + rng.index(7);
            let sends = (0..n_sends)
                .map(|_| {
                    let words = rng.index(10);
                    SendSpec {
                        at: rng.bits(8), // 0..256
                        src: rng.index(n),
                        dest: rng.index(n),
                        payload: (0..words).map(|_| rng.bits(8) as u16).collect(),
                    }
                })
                .collect();
            WorkloadSpec::Sends { sends, cycles }
        }
    }
}

/// Replays `scenario` under two execution variants — `(engine, shards)`
/// each — and checks full agreement: identical outcome streams (their
/// folds; on a mismatch both variants run again keeping the outcomes,
/// and the error names the first that differs), run summaries,
/// telemetry snapshots (the engine's name aside) and final machine
/// state ([`NetworkSim`](crate::NetworkSim)'s state walk
/// words: every channel input, wire and component). Flat against
/// Reference checks the implementation against the spec; Flat at 1
/// shard against `N` checks the pool's split of the one activity step:
/// the tick pass by shard, the carry by lane.
/// The replayed scenario is the one *decoded* from its own encoding, so
/// a pass certifies the serialization path too, and the analytic
/// estimator must accept the scenario and estimate it deterministically.
///
/// # Errors
///
/// Returns a description of the first divergence (or codec failure).
pub fn differential_check(
    scenario: &Scenario,
    variants: [(EngineKind, usize); 2],
) -> Result<(), String> {
    let name = &scenario.name;
    let decoded = codec::decode(&codec::encode(scenario))
        .map_err(|e| format!("scenario {name:?} did not round-trip: {e}"))?;
    if &decoded != scenario {
        return Err(format!("scenario {name:?} changed across encode/decode"));
    }
    let [la, lb] = variants.map(|(engine, shards)| format!("{engine} shards={shards}"));
    let run = |(engine, shards), keep: bool| {
        let mut variant = decoded.clone();
        (variant.sim.engine, variant.sim.shards) = (engine, shards);
        let mut run = Run::of(&variant, None).map_err(|e| e.to_string())?;
        if keep {
            run.keep_outcomes();
        }
        while run.step() {}
        Ok::<_, String>(run.finish())
    };
    let (a, sim_a) = run(variants[0], false)?;
    let (b, sim_b) = run(variants[1], false)?;
    if a.outcomes != b.outcomes {
        let (fa, fb) = (a.outcomes.fold(), b.outcomes.fold());
        let first = first_difference(
            &run(variants[0], true)?.0.outcomes,
            &run(variants[1], true)?.0.outcomes,
        );
        return Err(format!(
            "MessageOutcome streams diverged on {name:?}: {la} produced {} outcomes (digest {:#x}), \
             {lb} {} (digest {:#x}); first difference {first}",
            fa.count, fa.digest, fb.count, fb.digest,
        ));
    }
    let summary =
        |r: &super::ScenarioResult| (r.delivered, r.abandoned, r.payload_words, r.fabric_idle);
    if summary(&a) != summary(&b) {
        return Err(format!(
            "run summaries diverged on {name:?}: {la} {:?} vs {lb} {:?}",
            summary(&a),
            summary(&b),
        ));
    }
    let snap_a = sim_a.telemetry_snapshot(name);
    let mut snap_b = sim_b.telemetry_snapshot(name);
    snap_b.engine.clone_from(&snap_a.engine);
    if snap_a != snap_b {
        return Err(format!(
            "telemetry snapshots diverged on {name:?} between {la} and {lb}"
        ));
    }
    let state = |sim: &crate::NetworkSim| {
        let mut w = metro_telemetry::StateWriter::new();
        metro_telemetry::State::save_state(sim, &mut w);
        w.into_words()
    };
    if state(&sim_a) != state(&sim_b) {
        return Err(format!(
            "machine state (channels, wires, components) diverged on {name:?} between {la} and {lb}"
        ));
    }
    let estimate =
        || crate::engine::analytic::estimate_scenario(&decoded).map_err(|e| e.to_string());
    if estimate()? != estimate()? {
        return Err(format!(
            "analytic estimates diverged across two runs of {name:?}"
        ));
    }
    Ok(())
}

/// Where two kept outcome streams first differ: the index, and each
/// side's outcome there (`None` past its end).
fn first_difference(a: &Outcomes, b: &Outcomes) -> String {
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    format!(
        "at outcome {at}: {:?} vs {:?}",
        a.iter().nth(at),
        b.iter().nth(at)
    )
}

/// Runs `count` seeded scenarios starting at `base_seed` through
/// [`differential_check`] on `variants`, stopping at the first
/// divergence. Returns the number of scenarios checked.
///
/// # Errors
///
/// Returns the failing seed and the divergence description.
pub fn fuzz_campaign(
    base_seed: u64,
    count: u64,
    variants: [(EngineKind, usize); 2],
) -> Result<u64, String> {
    for i in 0..count {
        let seed = crate::experiment::point_seed(base_seed, i);
        differential_check(&random_scenario(seed), variants)
            .map_err(|e| format!("seed {seed:#x} (case {i}/{count}): {e}"))?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scenarios_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 0xDEAD, u64::MAX] {
            assert_eq!(random_scenario(seed), random_scenario(seed));
        }
        assert_ne!(random_scenario(1), random_scenario(2));
    }

    #[test]
    fn generated_scenarios_are_buildable_and_codec_clean() {
        for seed in 0..12u64 {
            let s = random_scenario(seed);
            let decoded = codec::decode(&codec::encode(&s)).expect("codec round-trip");
            assert_eq!(decoded, s, "seed {seed}");
            crate::network::NetworkSim::from_scenario(&s).expect("buildable topology");
        }
    }

    #[test]
    fn small_campaign_passes() {
        // The full >= 100-case campaign lives in the integration test
        // suite (tests/scenario_differential.rs); this is the unit-level
        // smoke.
        let pair = [(EngineKind::Flat, 1), (EngineKind::Reference, 1)];
        assert_eq!(fuzz_campaign(0x5EED, 4, pair).unwrap(), 4);
    }

    #[test]
    fn fuzz_covers_every_arrival_process() {
        // The CI scenario job runs `fuzz --count 25 --seed 0xC1`; those
        // exact 25 cases must differentially exercise scripted sends
        // and all three open-loop arrival processes.
        let (mut sends, mut bernoulli, mut on_off, mut trace) = (0, 0, 0, 0);
        for i in 0..25u64 {
            let seed = crate::experiment::point_seed(0xC1, i);
            match random_scenario(seed).workload {
                WorkloadSpec::Sends { .. } => sends += 1,
                WorkloadSpec::Load { arrival, .. } => match arrival {
                    ArrivalProcess::Bernoulli => bernoulli += 1,
                    ArrivalProcess::OnOff { .. } => on_off += 1,
                    ArrivalProcess::Trace(_) => trace += 1,
                },
            }
        }
        assert!(
            sends > 0 && bernoulli > 0 && on_off > 0 && trace > 0,
            "CI fuzz coverage hole: sends={sends} bernoulli={bernoulli} on_off={on_off} trace={trace}"
        );
    }

    #[test]
    fn ci_fuzz_covers_router_pipes_and_wire_registers() {
        // The CI fuzz runs (`--seed 0xC1`, and `0x54A2D` at shards 3
        // and 4) must put words in router pipes and wire registers:
        // each draws every pipestage count and wire delay in 1..=3 and
        // 0..=2 at least once.
        for ci_seed in [0xC1, 0x54A2D] {
            let (mut dp, mut delay) = ([0; 4], [0; 3]);
            for i in 0..25u64 {
                let s = random_scenario(crate::experiment::point_seed(ci_seed, i));
                dp[s.sim.pipestages] += 1;
                delay[s.sim.wire_delay] += 1;
            }
            assert!(
                dp[1..].iter().all(|&n| n > 0) && delay.iter().all(|&n| n > 0),
                "seed {ci_seed:#x}: pipestages {dp:?}, wire delays {delay:?}"
            );
        }
    }

    #[test]
    fn a_divergence_names_the_first_outcome_that_differs() {
        let s = random_scenario(0x5EED);
        let mut run = Run::of(&s, None).unwrap();
        run.keep_outcomes();
        while run.step() {}
        let kept = run.finish().0.outcomes;
        assert!(kept.len() > 1, "{} outcomes", kept.len());
        let mut changed: Vec<_> = kept.clone().into_iter().collect();
        changed[1].completed_at += 1;
        let got = first_difference(&kept, &changed.into());
        assert!(got.starts_with("at outcome 1: Some("), "{got}");
        let shorter: Vec<_> = kept.iter().take(1).cloned().collect();
        let got = first_difference(&kept, &shorter.into());
        assert!(
            got.starts_with("at outcome 1: Some(") && got.ends_with("vs None"),
            "{got}"
        );
    }

    #[test]
    fn small_shard_campaign_passes() {
        // Full-corpus shard identity lives in the bench crate's
        // integration suite; this unit smoke keeps the sharded tick and
        // telemetry comparison wired into `cargo test -p metro-sim`.
        let pair = [(EngineKind::Flat, 1), (EngineKind::Flat, 4)];
        assert_eq!(fuzz_campaign(0x5EED, 2, pair).unwrap(), 2);
    }
}

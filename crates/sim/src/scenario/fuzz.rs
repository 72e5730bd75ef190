//! Differential scenario fuzzing: seeded random scenarios, each run
//! through both tick engines.
//!
//! PR 1's golden-trace tests proved [`EngineKind::Flat`] equivalent to
//! [`EngineKind::Reference`] over hand-picked workload shapes. This
//! module turns that into scenario-space tooling: [`random_scenario`]
//! derives a complete [`Scenario`] from a single `u64` (pure function —
//! the same seed always builds the same scenario, so a CI failure
//! reproduces from its seed alone), and [`differential_check`] replays
//! it on both engines and demands identical [`MessageOutcome`] streams,
//! delivery counters, and fabric state.
//!
//! [`MessageOutcome`]: crate::message::MessageOutcome

use super::{codec, run_scenario, FaultInjection, RepairSet, Scenario, SendSpec, WorkloadSpec};
use crate::network::{EngineKind, SimConfig};
use crate::traffic::TrafficPattern;
use crate::workload::{ArrivalProcess, RateMap, TraceEntry};
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
/// (`fast_reclaim`, `wire_delay`), static faults, one optional timed
/// injection, and a scripted send schedule.
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

/// Replays `scenario` on both engines and checks full agreement:
/// identical outcome streams, delivery/abandon counters, payload word
/// totals, and fabric idleness. Also round-trips the scenario through
/// the codec first — the replayed scenario is the *decoded* one, so a
/// fuzz pass certifies the serialization path too.
///
/// # Errors
///
/// Returns a description of the first divergence (or codec failure).
pub fn differential_check(scenario: &Scenario) -> Result<(), String> {
    let decoded = codec::decode(&codec::encode(scenario))
        .map_err(|e| format!("scenario {:?} did not round-trip: {e}", scenario.name))?;
    if &decoded != scenario {
        return Err(format!(
            "scenario {:?} changed across encode/decode",
            scenario.name
        ));
    }
    let mut flat = decoded.clone();
    flat.sim.engine = EngineKind::Flat;
    let mut reference = decoded;
    reference.sim.engine = EngineKind::Reference;
    let a = run_scenario(&flat).map_err(|e| e.to_string())?;
    let b = run_scenario(&reference).map_err(|e| e.to_string())?;
    if a.outcomes != b.outcomes {
        return Err(format!(
            "MessageOutcome streams diverged on {:?}: flat produced {} outcomes (digest {:#x}), reference {} (digest {:#x})",
            scenario.name,
            a.outcomes.len(),
            a.outcome_digest(),
            b.outcomes.len(),
            b.outcome_digest(),
        ));
    }
    if (a.delivered, a.abandoned, a.payload_words, a.fabric_idle)
        != (b.delivered, b.abandoned, b.payload_words, b.fabric_idle)
    {
        return Err(format!(
            "run summaries diverged on {:?}: flat {:?} vs reference {:?}",
            scenario.name,
            (a.delivered, a.abandoned, a.payload_words, a.fabric_idle),
            (b.delivered, b.abandoned, b.payload_words, b.fabric_idle),
        ));
    }
    // The analytic engine is exercised differentially too: it must
    // accept every fuzzed workload (all three arrival processes) and
    // estimate it deterministically.
    let e1 = crate::engine::analytic::estimate_scenario(&flat).map_err(|e| e.to_string())?;
    let e2 = crate::engine::analytic::estimate_scenario(&flat).map_err(|e| e.to_string())?;
    if e1 != e2 {
        return Err(format!(
            "analytic estimates diverged across two runs of {:?}",
            scenario.name
        ));
    }
    Ok(())
}

/// Replays `scenario` on the Flat engine twice — single-threaded (the
/// activity-driven step) and sharded into `shards` shards (the full
/// walk) — and checks full bit-identity: identical outcome streams,
/// run summaries, telemetry snapshots, and final machine state (both
/// arenas, every wire). The shard knob must be pure execution strategy;
/// any divergence here is a skipped-component or partitioning bug, not
/// a protocol difference.
///
/// # Errors
///
/// Returns a description of the first divergence (or codec failure).
pub fn shard_differential_check(scenario: &Scenario, shards: usize) -> Result<(), String> {
    let decoded = codec::decode(&codec::encode(scenario))
        .map_err(|e| format!("scenario {:?} did not round-trip: {e}", scenario.name))?;
    let mut single = decoded.clone();
    single.sim.engine = EngineKind::Flat;
    single.sim.shards = 1;
    let mut sharded = decoded;
    sharded.sim.engine = EngineKind::Flat;
    sharded.sim.shards = shards;
    let (a, mut sim_a) = super::run_scenario_with_sim(&single).map_err(|e| e.to_string())?;
    let (b, mut sim_b) = super::run_scenario_with_sim(&sharded).map_err(|e| e.to_string())?;
    if a.outcomes != b.outcomes {
        return Err(format!(
            "MessageOutcome streams diverged on {:?}: shards=1 produced {} outcomes (digest {:#x}), shards={shards} {} (digest {:#x})",
            scenario.name,
            a.outcomes.len(),
            a.outcome_digest(),
            b.outcomes.len(),
            b.outcome_digest(),
        ));
    }
    if (a.delivered, a.abandoned, a.payload_words, a.fabric_idle)
        != (b.delivered, b.abandoned, b.payload_words, b.fabric_idle)
    {
        return Err(format!(
            "run summaries diverged on {:?}: shards=1 {:?} vs shards={shards} {:?}",
            scenario.name,
            (a.delivered, a.abandoned, a.payload_words, a.fabric_idle),
            (b.delivered, b.abandoned, b.payload_words, b.fabric_idle),
        ));
    }
    let snap_a = sim_a.telemetry_snapshot(&scenario.name).to_json();
    let snap_b = sim_b.telemetry_snapshot(&scenario.name).to_json();
    if snap_a != snap_b {
        return Err(format!(
            "telemetry snapshots diverged on {:?} between shards=1 and shards={shards}",
            scenario.name,
        ));
    }
    let state = |sim: &crate::NetworkSim| {
        let mut w = metro_telemetry::StateWriter::new();
        sim.save_state(&mut w);
        w.into_words()
    };
    if state(&sim_a) != state(&sim_b) {
        return Err(format!(
            "machine state (arenas, wires, components) diverged on {:?} between shards=1 and shards={shards}",
            scenario.name,
        ));
    }
    Ok(())
}

/// Runs `count` seeded scenarios starting at `base_seed`, stopping at
/// the first divergence. Returns the number of scenarios checked.
///
/// # Errors
///
/// Returns the failing seed and the divergence description.
pub fn fuzz_campaign(base_seed: u64, count: u64) -> Result<u64, String> {
    for i in 0..count {
        let seed = crate::experiment::point_seed(base_seed, i);
        let scenario = random_scenario(seed);
        differential_check(&scenario)
            .map_err(|e| format!("seed {seed:#x} (case {i}/{count}): {e}"))?;
    }
    Ok(count)
}

/// Runs `count` seeded scenarios starting at `base_seed`, each checked
/// for shard bit-identity at `shards` shards (see
/// [`shard_differential_check`]). Returns the number checked.
///
/// # Errors
///
/// Returns the failing seed and the divergence description.
pub fn shard_fuzz_campaign(base_seed: u64, count: u64, shards: usize) -> Result<u64, String> {
    for i in 0..count {
        let seed = crate::experiment::point_seed(base_seed, i);
        let scenario = random_scenario(seed);
        shard_differential_check(&scenario, shards)
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
        assert_eq!(fuzz_campaign(0x5EED, 4).unwrap(), 4);
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
    fn small_shard_campaign_passes() {
        // Full-corpus shard identity lives in the bench crate's
        // integration suite; this unit smoke keeps the sharded tick and
        // telemetry comparison wired into `cargo test -p metro-sim`.
        assert_eq!(shard_fuzz_campaign(0x5EED, 2, 4).unwrap(), 2);
    }
}

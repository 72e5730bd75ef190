//! Differential scenario fuzzing at campaign scale: ≥ 100 seeded
//! random scenarios, each decoded from its own encoding and replayed
//! through both tick engines, demanding identical outcome streams,
//! telemetry and machine state.
//!
//! This is the scenario-space generalization of the golden-equivalence
//! suite: instead of hand-picked workload shapes, the whole
//! [`Scenario`] — topology, wiring seed, sim seed, protocol knobs,
//! static faults, timed injections, send schedule — is drawn from a
//! seeded generator, so every run of this test covers the same 100
//! points and any failure names the seed that reproduces it.

use metro_sim::scenario::fuzz::{differential_check, fuzz_campaign, random_scenario};
use metro_sim::scenario::{codec, run_scenario};
use metro_sim::EngineKind;

const FLAT_VS_REFERENCE: [(EngineKind, usize); 2] =
    [(EngineKind::Flat, 1), (EngineKind::Reference, 1)];

/// The acceptance-criteria campaign: 100 seeded scenarios, Flat vs
/// Reference, full outcome-stream and machine-state equality.
#[test]
fn differential_fuzz_100_scenarios() {
    let checked = fuzz_campaign(0xD1FF_5EED, 100, FLAT_VS_REFERENCE)
        .expect("engines must agree on every scenario");
    assert_eq!(checked, 100);
}

/// Replaying one scenario twice is bit-identical — the scenario-level
/// statement of the harness's per-point seed discipline (satellite:
/// seed plumbed fully through `SimConfig`/`Scenario`).
#[test]
fn scenario_reruns_are_bit_identical() {
    for seed in [3u64, 0xAB, 0xF00D] {
        let scenario = random_scenario(seed);
        let a = run_scenario(&scenario).expect("runnable");
        let b = run_scenario(&scenario).expect("runnable");
        assert_eq!(a, b, "seed {seed:#x}: reruns diverged");
        assert_eq!(a.outcome_digest(), b.outcome_digest());
        // And through a full JSON round-trip: parse(render(encode)) →
        // run must match the in-memory scenario's run.
        let text = codec::encode(&scenario).render();
        let decoded = codec::from_text(&text).expect("decodes");
        let c = run_scenario(&decoded).expect("runnable");
        assert_eq!(a, c, "seed {seed:#x}: JSON round-trip changed the run");
    }
}

/// A scenario that injects faults mid-run still keeps both engines in
/// lockstep (directed complement to the random campaign).
#[test]
fn injection_heavy_scenarios_stay_in_lockstep() {
    let mut found = 0;
    for seed in 0..64u64 {
        let scenario = random_scenario(seed);
        if scenario.injections.is_empty() && scenario.faults.is_empty() {
            continue;
        }
        found += 1;
        differential_check(&scenario, FLAT_VS_REFERENCE).expect("faulted scenario diverged");
        if found >= 8 {
            return;
        }
    }
    assert!(found > 0, "generator never produced a faulted scenario");
}

//! Golden-trace equivalence: the flat arena engine must be
//! cycle-for-cycle indistinguishable from the reference (nested-`Vec`)
//! engine it replaced — and the *sharded* flat engine must be
//! bit-identical to the single-threaded flat tick at every shard
//! count.
//!
//! Every case builds the *same* network several times — once per
//! [`EngineKind`], plus flat runs at `shards ∈ {2, 4, auto}` — drives
//! all of them in lockstep with an identical workload (including
//! mid-run dynamic faults), and asserts that the complete
//! [`MessageOutcome`] sequences, the per-router counter totals, and the
//! end-of-run fabric state all match exactly.

use metro_sim::message::Outcomes;
use metro_sim::{EngineKind, NetworkSim, SimConfig};
use metro_telemetry::CounterCell;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec};
use metro_topo::paths::all_links;
use proptest::prelude::*;

/// A workload script applied identically to both engines.
#[derive(Debug, Clone)]
struct Workload {
    /// `(send_at_cycle, src, dest, payload)` triples, sorted by cycle.
    sends: Vec<(u64, usize, usize, Vec<u16>)>,
    /// Cycle at which to inject the fault set, if any.
    fault_at: Option<(u64, FaultPlan)>,
    /// Total cycles to run.
    cycles: u64,
}

#[derive(Debug, Clone)]
enum FaultPlan {
    KillRouter {
        stage_seed: usize,
        router_seed: usize,
    },
    BreakLink {
        link_seed: usize,
        xor: u16,
    },
}

/// Network shapes spanning the radix / dilation / stage-count space the
/// simulator supports; the wiring seed then varies the inter-stage
/// permutations within each shape.
fn spec_for(shape: usize, wiring_seed: u64) -> MultibutterflySpec {
    let spec = match shape % 4 {
        0 => MultibutterflySpec::small8(),
        1 => MultibutterflySpec::figure1(),
        // Four radix-2 stages (deeper network, more settle windows).
        2 => MultibutterflySpec::paper32(),
        // Radix-1 randomizer front stage (dilation 8).
        _ => MultibutterflySpec {
            endpoints: 8,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(4, 4, 4), // radix 1: pure randomizer
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(2, 2, 1),
            ],
            wiring: metro_topo::multibutterfly::WiringStyle::Randomized,
            seed: 8,
        },
    };
    spec.with_seed(wiring_seed)
}

fn run_engine(
    kind: EngineKind,
    shards: usize,
    spec: &MultibutterflySpec,
    base: &SimConfig,
    load: &Workload,
) -> (Outcomes, Vec<Vec<CounterCell>>, bool, usize) {
    let config = SimConfig {
        engine: kind,
        shards,
        ..base.clone()
    };
    let mut sim = NetworkSim::new(spec, &config).expect("valid spec");
    let n = sim.topology().endpoints();
    let mut pending = load.sends.clone();
    for now in 0..load.cycles {
        while let Some((at, src, dest, payload)) = pending.first().cloned() {
            if at > now {
                break;
            }
            sim.send(src % n, dest % n, &payload);
            pending.remove(0);
        }
        if let Some((at, plan)) = &load.fault_at {
            if *at == now {
                let mut faults = FaultSet::new();
                match plan {
                    FaultPlan::KillRouter {
                        stage_seed,
                        router_seed,
                    } => {
                        let s = stage_seed % sim.topology().stages();
                        let r = router_seed % sim.topology().routers_in_stage(s);
                        faults.kill_router(s, r);
                    }
                    FaultPlan::BreakLink { link_seed, xor } => {
                        let links = all_links(sim.topology());
                        let victim = links[link_seed % links.len()];
                        faults.break_link(victim, FaultKind::CorruptData { xor: *xor });
                    }
                }
                sim.apply_faults(faults);
            }
        }
        sim.tick();
    }
    let outcomes = sim.drain_outcomes();
    let stats: Vec<Vec<CounterCell>> = (0..sim.topology().stages())
        .map(|s| {
            (0..sim.topology().routers_in_stage(s))
                .map(|r| *sim.router(s, r).counters())
                .collect()
        })
        .collect();
    let delivered_words: usize = outcomes.iter().map(|o| o.payload_words).sum();
    (outcomes, stats, sim.fabric_idle(), delivered_words)
}

fn assert_equivalent(spec: &MultibutterflySpec, base: &SimConfig, load: &Workload) {
    let (flat_out, flat_stats, flat_idle, flat_words) =
        run_engine(EngineKind::Flat, 1, spec, base, load);
    let (ref_out, ref_stats, ref_idle, ref_words) =
        run_engine(EngineKind::Reference, 1, spec, base, load);
    assert_eq!(
        flat_out, ref_out,
        "MessageOutcome sequences diverged between engines"
    );
    assert_eq!(
        flat_stats, ref_stats,
        "per-router counter totals diverged between engines"
    );
    assert_eq!(flat_idle, ref_idle, "fabric idleness diverged");
    assert_eq!(flat_words, ref_words, "payload word accounting diverged");
    // The sharded flat tick is an execution strategy, not a semantic
    // change: every shard count (including 0 = host auto) must be
    // bit-identical to the single-threaded flat run.
    for shards in [2usize, 4, 0] {
        let (out, stats, idle, words) = run_engine(EngineKind::Flat, shards, spec, base, load);
        assert_eq!(
            out, flat_out,
            "MessageOutcome sequences diverged at shards={shards}"
        );
        assert_eq!(
            stats, flat_stats,
            "per-router counter totals diverged at shards={shards}"
        );
        assert_eq!(
            idle, flat_idle,
            "fabric idleness diverged at shards={shards}"
        );
        assert_eq!(
            words, flat_words,
            "payload word accounting diverged at shards={shards}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free traffic: any shape, seed, and send schedule produces
    /// identical outcome streams and router counters on both engines.
    #[test]
    fn engines_agree_without_faults(
        shape in 0usize..4,
        wiring_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        raw_sends in proptest::collection::vec(
            (0u64..300, any::<usize>(), any::<usize>(),
             proptest::collection::vec(0u16..256, 0..10)),
            1..8,
        ),
    ) {
        let spec = spec_for(shape, wiring_seed);
        let base = SimConfig { seed: sim_seed, ..SimConfig::default() };
        let mut sends = raw_sends;
        sends.sort_by_key(|(at, ..)| *at);
        let load = Workload { sends, fault_at: None, cycles: 2_500 };
        assert_equivalent(&spec, &base, &load);
    }

    /// Mid-run dynamic faults (dead router or corrupting link) inject
    /// identically through both engines' fault paths.
    #[test]
    fn engines_agree_under_dynamic_faults(
        shape in 0usize..4,
        sim_seed in any::<u64>(),
        fault_at in 0u64..200,
        kill in any::<bool>(),
        stage_seed in any::<usize>(),
        victim_seed in any::<usize>(),
        xor in 1u16..256,
        raw_sends in proptest::collection::vec(
            (0u64..250, any::<usize>(), any::<usize>(),
             proptest::collection::vec(0u16..256, 0..6)),
            1..6,
        ),
    ) {
        let spec = spec_for(shape, 0xD1CE);
        let base = SimConfig { seed: sim_seed, ..SimConfig::default() };
        let plan = if kill {
            FaultPlan::KillRouter { stage_seed, router_seed: victim_seed }
        } else {
            FaultPlan::BreakLink { link_seed: victim_seed, xor: xor & 0xFF }
        };
        let mut sends = raw_sends;
        sends.sort_by_key(|(at, ..)| *at);
        let load = Workload { sends, fault_at: Some((fault_at, plan)), cycles: 3_000 };
        assert_equivalent(&spec, &base, &load);
    }

    /// Detailed-reclamation mode (no BCB fast path) and pipelined wires
    /// exercise the settle-window logic; both engines must still agree.
    #[test]
    fn engines_agree_with_detailed_reclamation_and_deep_wires(
        sim_seed in any::<u64>(),
        wire_delay in 0usize..3,
        fast_reclaim in any::<bool>(),
        raw_sends in proptest::collection::vec(
            (0u64..150, any::<usize>(), any::<usize>(),
             proptest::collection::vec(0u16..256, 0..8)),
            1..6,
        ),
    ) {
        let spec = MultibutterflySpec::small8();
        let base = SimConfig {
            seed: sim_seed,
            wire_delay,
            fast_reclaim,
            ..SimConfig::default()
        };
        let mut sends = raw_sends;
        sends.sort_by_key(|(at, ..)| *at);
        let load = Workload { sends, fault_at: None, cycles: 3_000 };
        assert_equivalent(&spec, &base, &load);
    }
}

/// A deterministic hotspot run — every endpoint hammers endpoint 0 —
/// as a fixed regression anchor alongside the randomized cases.
#[test]
fn hotspot_congestion_golden_run() {
    let spec = MultibutterflySpec::figure1();
    let base = SimConfig::default();
    let sends = (1..16)
        .map(|src| (0u64, src, 0usize, vec![src as u16; 4]))
        .collect();
    let load = Workload {
        sends,
        fault_at: None,
        cycles: 20_000,
    };
    assert_equivalent(&spec, &base, &load);
}

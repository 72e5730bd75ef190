//! A network stage's routers share one configuration, copy-on-write:
//! the build hands every router of a stage the same one, and only a
//! write — a self-heal mask, a restore of port modes that differ —
//! gives the written router its own. Sharing is seen through
//! `std::ptr::eq` on [`Router::config`], so no `Arc` is exposed.

use metro_core::Router;
use metro_sim::checkpoint::Checkpoint;
use metro_sim::scenario::{FaultInjection, RepairSet, Run, Scenario, WorkloadSpec};
use metro_sim::{ArrivalProcess, NetworkSim, RateMap, SimConfig, TrafficPattern};
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::{LinkId, LinkTarget};
use metro_topo::multibutterfly::MultibutterflySpec;
use std::collections::BTreeSet;

/// Cycle the corrupting link is injected at.
const INJECT_AT: u64 = 60;

/// The self-healing corrupting-link load scenario of
/// `checkpoint_identity.rs` on small8, at one fixed seed and load.
fn healing_scenario() -> Scenario {
    let seed = 3;
    let mut injected = FaultSet::new();
    injected.break_link(
        LinkId::new(1, (seed % 4) as usize, 0),
        FaultKind::CorruptData {
            xor: 1 + (seed % 0xFF) as u16,
        },
    );
    Scenario {
        name: "shared-config".to_string(),
        topology: MultibutterflySpec::small8(),
        sim: SimConfig {
            seed: seed ^ 0x51AB,
            self_heal: true,
            telemetry_every: 4,
            ..SimConfig::default()
        },
        seed,
        faults: FaultSet::new(),
        injections: vec![FaultInjection {
            at: INJECT_AT,
            faults: injected,
            repairs: RepairSet::default(),
        }],
        workload: WorkloadSpec::Load {
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::Bernoulli,
            rates: RateMap::Uniform,
            load: 0.3,
            payload_words: 5,
            warmup: 40,
            measure: 160,
            drain: 120,
        },
    }
}

fn shares(a: &Router, b: &Router) -> bool {
    std::ptr::eq(a.config(), b.config())
}

/// Each stage's routers, grouped by the configuration they hold.
fn holders(sim: &NetworkSim) -> BTreeSet<(usize, BTreeSet<usize>)> {
    let topo = sim.topology();
    let mut groups = BTreeSet::new();
    for s in 0..topo.stages() {
        let n = topo.routers_in_stage(s);
        for r in 0..n {
            let group: BTreeSet<usize> = (0..n)
                .filter(|&q| shares(sim.router(s, r), sim.router(s, q)))
                .collect();
            groups.insert((s, group));
        }
    }
    groups
}

/// What [`holders`] must read: every router at either end of a link the
/// healer masked holds a configuration of its own, and the rest of its
/// stage shares one.
fn expected_holders(sim: &NetworkSim) -> BTreeSet<(usize, BTreeSet<usize>)> {
    let topo = sim.topology();
    let mut masked = BTreeSet::new();
    for link in sim.healed_links() {
        masked.insert((link.stage, link.router));
        if let LinkTarget::Router { router, .. } = topo.link(link.stage, link.router, link.port) {
            masked.insert((link.stage + 1, router));
        }
    }
    let mut groups: BTreeSet<_> = masked
        .iter()
        .map(|&(s, r)| (s, BTreeSet::from([r])))
        .collect();
    for s in 0..topo.stages() {
        let shared: BTreeSet<usize> = (0..topo.routers_in_stage(s))
            .filter(|&r| !masked.contains(&(s, r)))
            .collect();
        if !shared.is_empty() {
            groups.insert((s, shared));
        }
    }
    groups
}

#[test]
fn a_stages_routers_share_one_configuration_until_a_write_forks_one() {
    let scenario = healing_scenario();
    let mut run = Run::of(&scenario, None).unwrap();
    let sim = run.sim();
    for s in 0..sim.topology().stages() {
        for r in 1..sim.topology().routers_in_stage(s) {
            assert!(
                shares(sim.router(s, 0), sim.router(s, r)),
                "stage {s} router {r}"
            );
        }
    }

    let (mut unhealed, mut healed): (Option<Checkpoint>, Option<Checkpoint>) = (None, None);
    while run.step() {
        let sim = run.sim();
        assert_eq!(holders(sim), expected_holders(sim), "cycle {}", run.cycle());
        if run.cycle() == INJECT_AT / 2 {
            unhealed = Some(run.checkpoint(&scenario));
        }
        if healed.is_none() && !sim.healed_links().is_empty() {
            healed = Some(run.checkpoint(&scenario));
        }
    }
    let straight = run.finish().0;
    let healed = healed.expect("the corrupting link was masked");

    // Restored into a freshly built machine, the healed checkpoint's
    // masks fork exactly the routers they name, and the run goes on
    // bit-identically.
    let mut resumed = Run::of(&scenario, Some(&healed)).unwrap();
    let sim = resumed.sim();
    assert!(!sim.healed_links().is_empty());
    assert_eq!(holders(sim), expected_holders(sim));
    while resumed.step() {}
    assert_eq!(resumed.finish().0, straight);

    // An unhealed checkpoint's port modes are the build's: no fork.
    let unhealed = unhealed.expect("a checkpoint before the injection");
    let resumed = Run::of(&scenario, Some(&unhealed)).unwrap();
    assert!(resumed.sim().healed_links().is_empty());
    assert_eq!(holders(resumed.sim()), expected_holders(resumed.sim()));
}

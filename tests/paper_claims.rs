//! The paper's quantitative claims, asserted end to end:
//! Table 3's printed cells, Figure 3's 28-cycle unloaded latency and
//! curve shape, Figure 1's path structure, and the §6.2 robustness
//! claim.

use metro::sim::experiment::{run_fault_point, run_load_point, unloaded_latency};
use metro::sim::scenario::Scenario;
use metro::timing::catalog::table3;
use metro::timing::contemporary::{routers_slower_than, table5};
use metro::topo::analysis::{path_profile, single_router_tolerance};
use metro::topo::fault::FaultSet;
use metro::topo::multibutterfly::{Multibutterfly, MultibutterflySpec};
use metro_bench::scenarios::set_windows;

#[test]
fn table3_reproduces_every_printed_cell() {
    for row in table3() {
        assert_eq!(
            row.t20_32_ns(),
            row.expected_t20_32_ns,
            "{} [{}]",
            row.name,
            row.technology
        );
        assert_eq!(row.t_stg_ns(), row.expected_t_stg_ns, "{}", row.name);
    }
}

#[test]
fn table5_estimates_are_close_to_published() {
    for r in table5() {
        let (lo, hi) = r.estimate_t20_32_ns();
        let (plo, phi) = r.published_t20_32_ns;
        assert!((lo - plo).abs() / plo < 0.2, "{}", r.name);
        assert!((hi - phi).abs() / phi < 0.2, "{}", r.name);
    }
}

#[test]
fn section7_comparison_holds() {
    // "even the minimal gate-array implementation of METRO compares
    // favorably with the existing field of routing technologies."
    let orbit = table3()[0].t20_32_ns();
    assert_eq!(orbit, 1250.0);
    let slower = routers_slower_than(orbit);
    assert!(slower.len() >= 4, "most of Table 5 is slower: {slower:?}");
}

#[test]
fn figure3_unloaded_latency_near_28_cycles() {
    // "The unloaded message latency is 28 clock cycles from message
    // injection to acknowledgment receipt." Our protocol realization
    // measures 30 cycles — same regime, small constant differences in
    // turnaround accounting (see EXPERIMENTS.md).
    let lat = unloaded_latency(&Scenario::figure3("figure3", 0.0));
    assert!(
        (26..=33).contains(&(lat as usize)),
        "unloaded latency {lat} not near 28"
    );
}

#[test]
fn figure3_curve_shape_low_flat_then_knee() {
    let mut s = Scenario::figure3("figure3", 0.0);
    set_windows(&mut s, [500, 3_000, 1_500]);
    let base = unloaded_latency(&s) as f64;
    let low = run_load_point(&s.at_load(0.1));
    let mid = run_load_point(&s.at_load(0.4));
    let high = run_load_point(&s.at_load(0.8));
    // Low load sits near the unloaded latency.
    assert!(low.mean_latency < base * 1.5, "low {}", low.mean_latency);
    // Latency rises monotonically with load and blows past the knee.
    assert!(mid.mean_latency > low.mean_latency);
    assert!(
        high.mean_latency > mid.mean_latency * 2.0,
        "no congestion knee"
    );
    // Accepted throughput tracks offered load before saturation (the
    // short measurement window truncates in-flight completions, so the
    // mid-load point reads a little low; the full-window fig3 binary
    // tracks within 1%).
    assert!((low.accepted - 0.1).abs() < 0.03);
    assert!((mid.accepted - 0.4).abs() < 0.1);
}

#[test]
fn figure1_multipath_structure() {
    let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
    // "there are many paths between each pair of network endpoints"
    let p = path_profile(&net, &FaultSet::new());
    assert_eq!(p.min_paths, 8);
    assert_eq!(p.max_paths, 8);
    // "tolerate the complete loss of any router in the final stage
    // without isolating any endpoints"
    assert!(single_router_tolerance(&net)[2]);
}

#[test]
fn section62_robust_degradation() {
    // "performance degrades robustly in the face of faults": with 10%
    // of the dilated-stage routers dead, latency grows moderately and
    // nothing is lost.
    let mut s = Scenario::figure3("section62", 0.3);
    set_windows(&mut s, [500, 3_000, 2_000]);
    let clean = run_fault_point(&s, 0, 0);
    let faulty = run_fault_point(&s, 3, 0);
    assert_eq!(clean.abandoned, 0);
    assert_eq!(faulty.abandoned, 0, "faults must not lose messages");
    assert!(
        faulty.delivered > clean.delivered / 2,
        "throughput collapse"
    );
    assert!(
        faulty.mean_latency < clean.mean_latency * 6.0,
        "degradation not graceful: {} vs {}",
        faulty.mean_latency,
        clean.mean_latency
    );
}

#[test]
fn stateless_network_claim() {
    // §2, circuit-switching advantage 3: "No messages ever exist solely
    // in the network. Consequently, it is possible to stop network
    // operation at any point in time without losing or duplicating
    // messages" — gang-scheduled context switches need no network
    // snapshot. Operationally: once the endpoints quiesce, the fabric
    // holds zero state.
    use metro::sim::{NetworkSim, SimConfig};
    use metro::topo::MultibutterflySpec;
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
    // A burst of traffic; stop offering at an arbitrary point.
    for src in 0..64 {
        sim.send(src, (src + 17) % 64, &[src as u16; 10]);
    }
    sim.run(40); // mid-flight "context switch request"
    assert!(!sim.fabric_idle(), "traffic is in flight");
    // Stop injecting; the circuits drain on their own.
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 60_000 {
        sim.tick();
        cycles += 1;
    }
    // A few more ticks flush the last wires.
    sim.run(8);
    assert!(
        sim.fabric_idle(),
        "a quiescent network must hold zero state"
    );
    // Nothing was lost across the drain.
    assert_eq!(sim.drain_outcomes().len(), 64);
}

#[test]
fn retries_in_practice_are_small() {
    // §4: "The number of retries required, in practice, is small."
    let mut s = Scenario::figure3("retries", 0.3);
    set_windows(&mut s, [500, 3_000, 1_500]);
    let p = run_load_point(&s);
    assert!(
        p.retries_per_message < 1.0,
        "retries/message {} not small at moderate load",
        p.retries_per_message
    );
}

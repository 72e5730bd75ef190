//! The offline fault loop end to end: inject a fault, run real
//! traffic, and let `NetworkSim::diagnose` name the faulty element
//! from nothing but the source-visible reply evidence — then mask it
//! through the scan chains.

use metro::scan_harness::ScanHarness;
use metro::sim::{NetworkSim, SimConfig, Suspect};
use metro::topo::fault::{FaultKind, FaultSet};
use metro::topo::graph::LinkId;
use metro::topo::MultibutterflySpec;

const SRC: usize = 4;
const DEST: usize = 9;
const PAYLOAD: [u16; 4] = [0x11, 0x22, 0x33, 0x44];

/// Figure 1 with a corrupting fault on the first dilated copy of
/// `SRC`'s stage-0 output toward `DEST`; attempts that happen to use it
/// are NACKed and retried.
fn corrupted() -> (NetworkSim, LinkId) {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    let digits = sim.topology().route_digits(DEST);
    let (entry, _) = sim.topology().injection(SRC, 0);
    let victim = LinkId::new(0, entry, digits[0] * sim.topology().stage_spec(0).dilation);
    let mut faults = FaultSet::new();
    faults.break_link(victim, FaultKind::CorruptData { xor: 0x05 });
    sim.apply_faults(faults);
    sim.endpoint_mut(SRC).set_collect_evidence(true);
    (sim, victim)
}

#[test]
fn doctor_localizes_a_real_corrupting_link() {
    let (mut sim, victim) = corrupted();

    // Keep sending until some failed attempt yields a diagnosis.
    let mut suspect = None;
    for _ in 0..40 {
        let outcome = sim.send_and_wait(SRC, DEST, &PAYLOAD, 20_000).unwrap();
        assert_eq!(outcome.payload_delivered, PAYLOAD, "no silent corruption");
        for ev in sim.endpoint_mut(SRC).take_evidence() {
            suspect = suspect.or(sim.diagnose(&ev).map(|d| d.suspect));
        }
        if suspect.is_some() {
            break;
        }
    }
    let suspect = suspect.expect("a corrupt attempt must eventually be recorded");
    assert_eq!(suspect, Suspect::Link(victim), "names the injected fault");

    // Masked through the scan chains, the fault costs nothing more.
    let mut scan = ScanHarness::new(&sim);
    assert!(scan.mask(&mut sim, suspect));
    for _ in 0..10 {
        let outcome = sim.send_and_wait(SRC, DEST, &PAYLOAD, 20_000).unwrap();
        assert_eq!(outcome.retries, 0);
    }
    assert!(sim.endpoint_mut(SRC).take_evidence().is_empty());
}

#[test]
fn a_fault_free_send_leaves_no_evidence_and_no_suspect() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    for e in 0..16 {
        sim.endpoint_mut(e).set_collect_evidence(true);
    }
    let outcome = sim.send_and_wait(1, 14, &[5, 6], 5_000).expect("delivers");
    assert_eq!(outcome.retries, 0);
    for e in 0..16 {
        assert!(sim.endpoint_mut(e).take_evidence().is_empty(), "ep {e}");
    }
}

/// The healer's guard, reached through the scan master: whoever
/// disabled the first delivery link into an endpoint, the last one is
/// refused.
#[test]
fn the_scan_master_refuses_an_endpoints_last_delivery_link() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    let mut scan = ScanHarness::new(&sim);
    let links: Vec<LinkId> = (0..sim.topology().endpoint_ports())
        .map(|p| sim.topology().delivery(DEST, p))
        .map(|(r, b)| LinkId::new(2, r, b))
        .collect();
    assert_eq!(links.len(), 2, "figure 1 delivers to each endpoint twice");
    assert!(scan.mask(&mut sim, Suspect::Link(links[0])));
    assert!(!sim.may_mask(links[1]));
    assert!(!scan.mask(&mut sim, Suspect::Link(links[1])));
    assert!(sim
        .router(2, links[1].router)
        .config()
        .backward_enabled(links[1].port));
    assert!(sim.send_and_wait(0, DEST, &PAYLOAD, 20_000).is_some());
}

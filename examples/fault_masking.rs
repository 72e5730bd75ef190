//! The full fault story of §5.1, offline: a link starts corrupting
//! data words mid-operation; the end-to-end checksums catch it and
//! retries deliver anyway; `NetworkSim::diagnose` names the link from
//! nothing but the reply evidence the source collected; a scan master
//! disables the two ports at its ends bit-serially through the TAPs;
//! and traffic continues, retry-free, over the redundant paths. The
//! self-healing layer (`SimConfig::self_heal`) closes the same loop
//! online, through the same `diagnose`.
//!
//! ```sh
//! cargo run --example fault_masking
//! ```

use metro::scan_harness::ScanHarness;
use metro::sim::{NetworkSim, SimConfig, Suspect};
use metro::topo::fault::{FaultKind, FaultSet};
use metro::topo::graph::LinkId;
use metro::topo::MultibutterflySpec;

fn main() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default())
        .expect("valid network");
    let (src, dest) = (4, 9);
    let payload = [0x11u16, 0x22, 0x33, 0x44];

    let clean = sim
        .send_and_wait(src, dest, &payload, 2_000)
        .expect("delivers");
    println!(
        "healthy transaction: {} cycles, {} retries",
        clean.network_latency(),
        clean.retries
    );

    // A stage-0 link on src's route develops a silent data-corrupting
    // fault.
    let digits = sim.topology().route_digits(dest);
    let (entry, _) = sim.topology().injection(src, 0);
    let dilation = sim.topology().stage_spec(0).dilation;
    let victim = LinkId::new(0, entry, digits[0] * dilation);
    let mut faults = FaultSet::new();
    faults.break_link(victim, FaultKind::CorruptData { xor: 0x05 });
    sim.apply_faults(faults);
    println!("injected corrupting fault on {victim} (invisible to the fabric)");

    // Normal traffic, with the source keeping its failed-attempt
    // evidence: the destination NACKs corrupted attempts and random
    // path selection steers the retries around, so every transaction
    // still delivers — and each failure is a diagnosis waiting to be
    // read.
    sim.endpoint_mut(src).set_collect_evidence(true);
    let mut suspect = None;
    let mut transactions = 0;
    while suspect.is_none() && transactions < 50 {
        transactions += 1;
        let outcome = sim
            .send_and_wait(src, dest, &payload, 20_000)
            .expect("delivers despite the fault");
        assert_eq!(outcome.payload_delivered, payload, "never silently corrupt");
        for ev in sim.endpoint_mut(src).take_evidence() {
            if let Some(d) = sim.diagnose(&ev) {
                let (s, r) = d.caught_at.expect("a checksum caught it");
                println!("{:?} attempt: r{s}.{r}'s checksum disagreed", ev.kind);
                suspect = Some(d.suspect);
            }
        }
    }
    let suspect = suspect.expect("evidence must surface");
    println!("after {transactions} transactions the diagnosis is {suspect:?}");
    assert_eq!(suspect, Suspect::Link(victim), "names the injected link");

    // Masking through the scan subsystem: both port ends, serially,
    // through each stage's scan chain.
    let mut scan = ScanHarness::new(&sim);
    assert!(scan.mask(&mut sim, suspect));
    println!("masked both ends of {victim} through the scan chains");

    // With the faulty link masked the allocator never selects it, so
    // no retries are spent rediscovering the fault.
    let retries: usize = (0..10)
        .map(|_| {
            sim.send_and_wait(src, dest, &payload, 20_000)
                .expect("delivers")
                .retries
        })
        .sum();
    println!("10 transactions after masking: {retries} retries");
    assert_eq!(retries, 0, "a masked fault must not cost retries");
}

//! A multi-round conversation over one circuit — the paper's "any
//! number of data transmission reversals may occur during a single
//! connection" (§5.1), exercised end to end.
//!
//! A write-then-verify exchange: the source streams a block, the
//! destination acknowledges and hands the line back (TURN), the source
//! streams the next block — three rounds over one locked-down path,
//! with no re-arbitration between rounds. Compare the router grant
//! counts: one circuit total, three reversals per router.
//!
//! ```sh
//! cargo run --example conversation
//! ```

use metro::sim::endpoint::{EndpointConfig, ReplyPolicy};
use metro::sim::{NetworkSim, SimConfig};
use metro::topo::MultibutterflySpec;
use metro_telemetry::RouterCounter;

fn main() {
    let config = SimConfig {
        endpoint: EndpointConfig {
            reply: ReplyPolicy::Conversation,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure3(), &config).expect("valid network");

    let blocks: [&[u16]; 3] = [
        &[0xDE, 0xAD, 0xBE, 0xEF],
        &[0xCA, 0xFE],
        &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06],
    ];
    println!(
        "conversation: node 7 -> node 42, {} segments over one circuit",
        blocks.len()
    );
    sim.send_conversation(7, 42, &blocks);

    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 5_000 {
        sim.tick();
        cycles += 1;
    }
    let outcome = sim
        .drain_outcomes()
        .into_iter()
        .next_back()
        .expect("conversation completes");
    println!(
        "completed in {} cycles, {} retries",
        outcome.total_latency(),
        outcome.retries
    );

    let delivered = sim.endpoint_mut(42).take_delivered();
    for (k, d) in delivered.iter().enumerate() {
        println!("segment {k}: {:02X?} (cycle {})", d.payload, d.at);
    }
    assert_eq!(delivered.len(), 3);

    let totals = sim.telemetry_snapshot("conversation").counters;
    let grants = totals.total(RouterCounter::Grants);
    let turns = totals.total(RouterCounter::Turns);
    println!("\nrouter totals: {grants} connection grants, {turns} forward reversals");
    println!("one circuit carried all three segments — connection setup paid once;");
    println!("each round-trip reversal cost only the pipeline flush/fill (§5.1).");

    // Contrast: the same three blocks as independent messages pay
    // arbitration (and risk blocking) three times.
    let mut separate =
        NetworkSim::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
    for b in blocks {
        separate.send(7, 42, b);
    }
    let mut cycles = 0;
    while !separate.is_quiescent() && cycles < 5_000 {
        separate.tick();
        cycles += 1;
    }
    let grants3 = separate
        .telemetry_snapshot("separate")
        .counters
        .total(RouterCounter::Grants);
    println!("as three separate messages the routers granted {grants3} connections (3 circuits)");
}

//! Two METRO routers wired back to back, driven cycle by cycle —
//! cross-router protocol scenarios at the core level, independent of
//! the network simulator: status ordering at turns, BCB propagation
//! through a stage, and detailed blocked replies traversing an upstream
//! router.

use metro_core::{
    ArchParams, BwdIn, FwdIn, PortStatus, Router, RouterConfig, StatusWord, StreamChecksum,
    TickOutput, Word,
};
use metro_telemetry::RouterCounter;

/// Two RN1-class routers (dilation 2, radix 4) with router A's backward
/// ports feeding router B's forward ports 1:1 (a single "stage
/// boundary" with zero-delay wires plus the standard one-cycle register
/// transfer).
struct Chain {
    a: Router,
    b: Router,
    /// Last outputs (for the transfer boundary).
    a_out: TickOutput,
    b_out: TickOutput,
}

impl Chain {
    fn new(fast_reclaim: bool, b_disabled_group: Option<usize>) -> Self {
        let params = ArchParams::rn1();
        let config_a = RouterConfig::new(&params)
            .with_dilation(2)
            .with_fast_reclaim_all(fast_reclaim)
            .build()
            .unwrap();
        let mut config_b = RouterConfig::new(&params)
            .with_dilation(2)
            .with_fast_reclaim_all(fast_reclaim)
            .with_swallow_all(true);
        if let Some(dir) = b_disabled_group {
            // Disable the whole direction group on B so any request
            // there blocks.
            for b in dir * 2..(dir + 1) * 2 {
                config_b =
                    config_b.with_backward_port_mode(b, metro_core::PortMode::DisabledDriven);
            }
        }
        let a = Router::new(params, config_a, 11).unwrap();
        let b = Router::new(params, config_b.build().unwrap(), 22).unwrap();
        let empty = TickOutput {
            bwd: vec![Word::Empty; 8],
            fwd: vec![Word::Empty; 8],
            bcb: vec![false; 8],
        };
        Self {
            a,
            b,
            a_out: empty.clone(),
            b_out: empty,
        }
    }

    /// One synchronous cycle: feed `src_word` into A's forward port 0,
    /// feed `dest_rev` into B's backward ports (the far endpoint), and
    /// return `(reverse word to source, BCB to source, B's backward
    /// outputs)`.
    fn tick(&mut self, src_word: Word, dest_rev: Word) -> (Word, bool, Vec<Word>) {
        // A's forward inputs: the source on port 0.
        let a_fwd = FwdIn::idle(8).with(0, src_word);
        // A's backward inputs: B's reverse-lane outputs (1:1 wiring).
        let a_bwd = BwdIn::new(&self.b_out.fwd, &self.b_out.bcb);
        // B's forward inputs: A's backward outputs.
        let b_fwd = FwdIn::data(&self.a_out.bwd);
        // B's backward inputs: the destination endpoint's reverse lane
        // on every port (it only answers on the connected one).
        let words = vec![dest_rev; 8];
        let b_bwd = BwdIn::new(&words, &[false; 8]);

        let a_out = self.a.tick(&a_fwd, &a_bwd);
        let b_out = self.b.tick(&b_fwd, &b_bwd);
        self.a_out = a_out;
        self.b_out = b_out;
        (self.a_out.fwd[0], self.a_out.bcb[0], self.b_out.bwd.clone())
    }
}

/// Header for direction 1 at A then direction 2 at B, packed for w = 8
/// radix-4 stages: digits in the top bits.
fn header() -> u16 {
    0b0110_0000 // digit 1 (01), then digit 2 (10)
}

#[test]
fn stream_crosses_both_routers_and_statuses_return_in_path_order() {
    let mut chain = Chain::new(true, None);
    let script = [
        Word::Data(header()),
        Word::Data(0x11),
        Word::Data(0x22),
        Word::Turn,
    ];
    let mut to_source = Vec::new();
    let mut delivered = Vec::new();
    for cycle in 0..24 {
        let w = script.get(cycle).copied().unwrap_or(Word::DataIdle);
        let (rev, _bcb, b_out) = chain.tick(w, Word::DataIdle);
        to_source.push(rev);
        for word in b_out {
            if word.is_payload() {
                delivered.push(word);
            }
        }
    }
    // B swallowed the (shifted) header: only payload emerges.
    assert_eq!(delivered, vec![Word::Data(0x11), Word::Data(0x22)]);
    // Statuses arrive nearest-router-first: A's then B's.
    let significant: Vec<Word> = to_source
        .into_iter()
        .filter(|w| matches!(w, Word::Status(_) | Word::Checksum(_)))
        .collect();
    assert!(
        significant.len() >= 4,
        "two status/checksum pairs: {significant:?}"
    );
    assert!(matches!(significant[0], Word::Status(s) if !s.is_blocked()));
    assert!(matches!(significant[1], Word::Checksum(_)));
    assert!(matches!(significant[2], Word::Status(s) if !s.is_blocked()));
    // A's transit checksum covers what it received (header + payload).
    let expected_a = StreamChecksum::over_values([header(), 0x11, 0x22]);
    assert_eq!(significant[1], Word::Checksum(expected_a));
    // B received the shifted header (digit 1 consumed).
    let shifted = (header() << 2) & 0xFF;
    let expected_b = StreamChecksum::over_values([shifted, 0x11, 0x22]);
    assert_eq!(significant[3], Word::Checksum(expected_b));
}

#[test]
fn blocked_at_downstream_asserts_bcb_through_to_source() {
    // B's direction-2 group is disabled, so the connection blocks at B;
    // fast reclamation must BCB back through A to the source.
    let mut chain = Chain::new(true, Some(2));
    let script = [Word::Data(header()), Word::Data(0x33)];
    let mut saw_bcb = false;
    for cycle in 0..10 {
        let w = script.get(cycle).copied().unwrap_or(Word::DataIdle);
        let (_, bcb, _) = chain.tick(w, Word::DataIdle);
        saw_bcb |= bcb;
    }
    assert!(saw_bcb, "BCB must propagate across the stage boundary");
    assert_eq!(chain.b.counters().get(RouterCounter::Blocks), 1);
    assert_eq!(chain.a.counters().get(RouterCounter::Grants), 1);
    // A's connection was torn down and its port drained.
    let mut freed = false;
    for _ in 0..6 {
        chain.tick(Word::Empty, Word::DataIdle);
        freed = chain.a.in_use_vector().iter().all(|&u| !u);
        if freed {
            break;
        }
    }
    assert!(freed, "A must release its backward port after the BCB");
}

#[test]
fn blocked_detailed_reply_reports_a_ok_then_b_blocked() {
    let mut chain = Chain::new(false, Some(2));
    let script = [Word::Data(header()), Word::Data(0x44), Word::Turn];
    let mut to_source = Vec::new();
    for cycle in 0..20 {
        let w = script.get(cycle).copied().unwrap_or(Word::DataIdle);
        let (rev, _, _) = chain.tick(w, Word::DataIdle);
        to_source.push(rev);
    }
    let statuses: Vec<StatusWord> = to_source
        .iter()
        .filter_map(|w| match w {
            Word::Status(s) => Some(*s),
            _ => None,
        })
        .collect();
    assert_eq!(statuses.len(), 2, "{statuses:?}");
    assert!(!statuses[0].is_blocked(), "A switched the connection");
    assert!(statuses[1].is_blocked(), "B reports the block");
    // The detailed reply ends with a drop releasing the path.
    assert!(to_source.contains(&Word::Drop));
}

#[test]
fn reply_data_flows_source_ward_after_both_statuses() {
    let mut chain = Chain::new(true, None);
    let script = [Word::Data(header()), Word::Data(0x55), Word::Turn];
    let mut reply_data = Vec::new();
    for cycle in 0..24 {
        let w = script.get(cycle).copied().unwrap_or(Word::DataIdle);
        // Once B reverses (drives DataIdle on its backward port), the
        // destination endpoint answers with data.
        let dest_word = if chain.b_out.bwd.contains(&Word::DataIdle) {
            Word::Data(0x7E)
        } else {
            Word::DataIdle
        };
        let (rev, _, _) = chain.tick(w, dest_word);
        if let Word::Data(v) = rev {
            reply_data.push(v);
        }
    }
    assert!(
        !reply_data.is_empty(),
        "destination data must reach the source"
    );
    assert!(reply_data.iter().all(|&v| v == 0x7E));
}

#[test]
fn drop_releases_both_routers() {
    let mut chain = Chain::new(true, None);
    let script = [Word::Data(header()), Word::Data(0x66), Word::Drop];
    for cycle in 0..12 {
        let w = script.get(cycle).copied().unwrap_or(Word::Empty);
        chain.tick(w, Word::DataIdle);
    }
    assert!(chain.a.in_use_vector().iter().all(|&u| !u));
    assert!(chain.b.in_use_vector().iter().all(|&u| !u));
    assert_eq!(chain.a.port_status(0), PortStatus::Idle);
    assert_eq!(chain.a.counters().get(RouterCounter::Drops), 1);
    assert_eq!(chain.b.counters().get(RouterCounter::Drops), 1);
}

#[test]
fn back_to_back_messages_reuse_the_chain() {
    let mut chain = Chain::new(true, None);
    for round in 0..3 {
        let payload = 0x10 + round;
        let script = [Word::Data(header()), Word::Data(payload), Word::Drop];
        let mut delivered = Vec::new();
        for cycle in 0..12 {
            let w = script.get(cycle).copied().unwrap_or(Word::Empty);
            let (_, _, b_out) = chain.tick(w, Word::DataIdle);
            delivered.extend(b_out.into_iter().filter(Word::is_payload));
        }
        assert_eq!(delivered, vec![Word::Data(payload)], "round {round}");
    }
    assert_eq!(chain.a.counters().get(RouterCounter::Grants), 3);
    assert_eq!(chain.b.counters().get(RouterCounter::Grants), 3);
}

mod cascaded_chain {
    //! Two width-cascade groups wired in series: an 8-bit logical
    //! datapath (two 4-bit METROJR slices) crossing two routing stages,
    //! with the header replicated per slice and the payload split.

    use metro_core::cascade::{join_words, split_word};
    use metro_core::{ArchParams, BwdIn, CascadeGroup, FwdIn, RouterConfig, Word};

    #[test]
    fn wide_stream_crosses_two_cascaded_stages() {
        let params = ArchParams::metrojr(); // w = 4
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_swallow_all(true)
            .build()
            .unwrap();
        let mut stage_a = CascadeGroup::new(params, config.clone(), 2, 0xA).unwrap();
        let mut stage_b = CascadeGroup::new(params, config, 2, 0xB).unwrap();

        // Direction 1 at both stages: header nibble 0b1100 gives digit 1
        // at stage A (top bit), shifted to 0b1000 -> digit 1 at stage B.
        // Swallow-all strips the nibble at A... so B needs its own
        // header word: send two header nibbles (one per stage), each
        // replicated on both slices.
        let headers = [Word::Data(0b1000), Word::Data(0b1000)];
        let payload: [u64; 2] = [0xAB, 0x3C]; // 8-bit logical words

        // Transfer registers between the stages (1:1 wiring, 4 ports).
        let mut a_out = vec![Word::Empty; 4];
        let mut a_out2 = vec![Word::Empty; 4];
        let idle = [BwdIn::idle(4), BwdIn::idle(4)];
        let mut delivered: Vec<u64> = Vec::new();

        for cycle in 0..12 {
            // Source word for this cycle, per slice.
            let slice_words: Vec<Word> = if cycle < 2 {
                vec![headers[cycle], headers[cycle]]
            } else if cycle - 2 < payload.len() {
                split_word(payload[cycle - 2], 4, 2)
            } else {
                vec![Word::DataIdle, Word::DataIdle]
            };
            let a_fwd: Vec<FwdIn> = slice_words
                .iter()
                .map(|w| FwdIn::idle(4).with(0, *w))
                .collect();
            let outs_a = stage_a.tick(&a_fwd, &idle);

            // Stage B's forward inputs are stage A's backward outputs.
            let b_fwd: Vec<FwdIn> = [&a_out, &a_out2]
                .iter()
                .map(|prev| FwdIn::data(prev))
                .collect();
            let outs_b = stage_b.tick(&b_fwd, &idle);

            a_out = outs_a[0].bwd.clone();
            a_out2 = outs_a[1].bwd.clone();

            // Collect wide words emerging from stage B (both slices must
            // agree on the port thanks to shared randomness).
            for port in 0..4 {
                let pair = [outs_b[0].bwd[port], outs_b[1].bwd[port]];
                if pair.iter().all(|w| matches!(w, Word::Data(_))) {
                    delivered.push(join_words(&pair, 4).unwrap());
                }
            }
            assert_eq!(
                stage_a.slice(0).in_use_vector(),
                stage_a.slice(1).in_use_vector(),
                "stage A slices in lockstep (cycle {cycle})"
            );
            assert_eq!(
                stage_b.slice(0).in_use_vector(),
                stage_b.slice(1).in_use_vector(),
                "stage B slices in lockstep (cycle {cycle})"
            );
        }
        assert!(stage_a.faults().is_empty());
        assert!(stage_b.faults().is_empty());
        assert_eq!(
            delivered,
            vec![0xAB, 0x3C],
            "wide payload intact across stages"
        );
    }
}

//! `NetworkSim::diagnose` on hand-built evidence: each shape of reply
//! record names the element it should, and STATUS / checksum words —
//! data off the wire — are never trusted as indices.

use metro::core::StatusWord;
use metro::scan::diagnosis::expected_stage_checksums;
use metro::sim::{
    AttemptEvidence, DeliveryRecord, Diagnosis, FailureKind, NetworkSim, SimConfig, Suspect,
};
use metro::topo::fault::{FaultKind, FaultSet};
use metro::topo::graph::{LinkId, LinkTarget};
use metro::topo::MultibutterflySpec;

fn figure1(config: &SimConfig) -> NetworkSim {
    NetworkSim::new(&MultibutterflySpec::figure1(), config).unwrap()
}

/// The evidence an attempt from `src`'s port 0 along dilated copy
/// `lane` (modulo each stage's dilation) would leave: a full STATUS
/// trail and the transit checksums of a clean transmission, garbled
/// from `bad_stage` on. Returns the routers the trail visits beside it.
fn evidence(
    sim: &NetworkSim,
    (src, dest): (usize, usize),
    payload: &[u16],
    kind: FailureKind,
    bad_stage: Option<usize>,
    lane: usize,
) -> (AttemptEvidence, Vec<usize>) {
    let net = sim.topology();
    let digits = net.route_digits(dest);
    let mut record = DeliveryRecord::default();
    let (mut router, _) = net.injection(src, 0);
    let mut routers = Vec::new();
    for (s, &digit) in digits.iter().enumerate() {
        let dilation = net.stage_spec(s).dilation;
        let taken = digit * dilation + lane % dilation;
        record.statuses.push(StatusWord::connected(taken));
        routers.push(router);
        if let LinkTarget::Router { router: next, .. } = net.link(s, router, taken) {
            router = next;
        }
    }
    let (w, hw) = (sim.config().width, sim.config().header_words);
    record.checksums = expected_stage_checksums(sim.header_plan(), &digits, payload, w, hw);
    for c in record
        .checksums
        .iter_mut()
        .skip(bad_stage.unwrap_or(usize::MAX))
    {
        *c ^= 0x0101;
    }
    let ev = AttemptEvidence {
        src,
        dest,
        port: 0,
        kind,
        record,
        stream: sim.stream_for(dest, payload),
        entry_alive: true,
    };
    (ev, routers)
}

#[test]
fn clean_record_blames_the_delivery_link_only_when_delivery_failed() {
    let sim = figure1(&SimConfig::default());
    let (ev, routers) = evidence(&sim, (2, 13), &[1, 2, 3], FailureKind::NoAck, None, 0);
    let taken = ev.record.statuses[2].port().unwrap();
    assert_eq!(
        sim.diagnose(&ev),
        Some(Diagnosis {
            suspect: Suspect::Link(LinkId::new(2, routers[2], taken)),
            caught_at: Some((2, routers[2])),
        })
    );
    // A clean trail that went cold after stage 0 blames the link out
    // of the last STATUS-reporting stage, even when fewer checksums
    // than STATUS words came back.
    let cold = |statuses: usize, checksums: usize| {
        let mut ev = ev.clone();
        ev.record.statuses.truncate(statuses);
        ev.record.checksums.truncate(checksums);
        sim.diagnose(&ev)
    };
    let out_of_0 = ev.record.statuses[0].port().unwrap();
    assert_eq!(
        cold(1, 1),
        Some(Diagnosis {
            suspect: Suspect::Link(LinkId::new(0, routers[0], out_of_0)),
            caught_at: Some((0, routers[0])),
        })
    );
    assert_eq!(cold(3, 1), sim.diagnose(&ev));
    // The same clean trails under a watchdog expiry implicate nothing.
    let (mut ev, _) = evidence(&sim, (2, 13), &[1, 2, 3], FailureKind::Timeout, None, 0);
    assert_eq!(sim.diagnose(&ev), None);
    ev.record.statuses.truncate(1);
    assert_eq!(sim.diagnose(&ev), None);
}

#[test]
fn corruption_at_stage_zero_blames_the_injection_wire() {
    let sim = figure1(&SimConfig::default());
    let (ev, routers) = evidence(&sim, (4, 11), &[7], FailureKind::Corrupt, Some(0), 0);
    assert_eq!(
        sim.diagnose(&ev),
        Some(Diagnosis {
            suspect: Suspect::Injection {
                endpoint: 4,
                port: 0
            },
            caught_at: Some((0, routers[0])),
        })
    );
}

#[test]
fn mid_path_corruption_names_the_exact_link() {
    let sim = figure1(&SimConfig::default());
    // Lane 1 is the dilated sibling of `digit·d` wherever a stage has
    // two copies: the suspect is the port the STATUS word named, not
    // its direction's base port.
    let (clean, routers) = evidence(&sim, (0, 15), &[9, 9], FailureKind::Corrupt, None, 1);
    let taken: Vec<usize> = clean
        .record
        .statuses
        .iter()
        .map(|w| w.port().unwrap())
        .collect();
    assert!(taken[..2].iter().all(|p| p % 2 == 1), "{taken:?}");
    // Stage `s` caught it, so the link out of the port stage `s - 1`'s
    // STATUS word named is the suspect; stage 0 blames the injection.
    let blamed = |s: usize| Diagnosis {
        suspect: match s {
            0 => Suspect::Injection {
                endpoint: 0,
                port: 0,
            },
            _ => Suspect::Link(LinkId::new(s - 1, routers[s - 1], taken[s - 1])),
        },
        caught_at: Some((s, routers[s])),
    };
    for bad in 0..3 {
        let (ev, _) = evidence(&sim, (0, 15), &[9, 9], FailureKind::Corrupt, Some(bad), 1);
        assert_eq!(sim.diagnose(&ev), Some(blamed(bad)), "bad from stage {bad}");
    }
    // Two corrupting links, into stages 1 and 2: the first mismatch
    // wins, whether the second adds to the garbling or undoes it.
    let (mut ev, _) = evidence(&sim, (0, 15), &[9, 9], FailureKind::Corrupt, Some(1), 1);
    ev.record.checksums[2] ^= 0x2000;
    assert_eq!(sim.diagnose(&ev), Some(blamed(1)));
    ev.record.checksums[2] = clean.record.checksums[2];
    assert_eq!(sim.diagnose(&ev), Some(blamed(1)));
}

#[test]
fn an_empty_record_is_a_silent_suspect() {
    let sim = figure1(&SimConfig::default());
    let (full, _) = evidence(&sim, (0, 9), &[1], FailureKind::Timeout, None, 0);
    // No record at all, STATUS words without checksums, checksums
    // without STATUS words: nothing on the trail to compare.
    for (statuses, checksums) in [
        (Vec::new(), Vec::new()),
        (full.record.statuses.clone(), Vec::new()),
        (Vec::new(), full.record.checksums.clone()),
    ] {
        let mut ev = full.clone();
        ev.record = DeliveryRecord {
            statuses,
            checksums,
            ..DeliveryRecord::default()
        };
        assert_eq!(
            sim.diagnose(&ev),
            Some(Diagnosis {
                suspect: Suspect::Silent,
                caught_at: None,
            })
        );
    }
}

#[test]
fn congestion_implicates_nothing() {
    let sim = figure1(&SimConfig::default());
    for kind in [
        FailureKind::Blocked { stage: 1 },
        FailureKind::FastReclaimed,
    ] {
        // Even with checksums that would otherwise read as corruption.
        let (ev, _) = evidence(&sim, (0, 9), &[1], kind, Some(1), 0);
        assert_eq!(sim.diagnose(&ev), None, "{kind:?}");
    }
}

#[test]
fn hostile_evidence_is_a_diagnosis_or_none_never_a_panic() {
    let sim = figure1(&SimConfig::default());
    let (clean, _) = evidence(&sim, (0, 3), &[1, 2], FailureKind::NoAck, None, 0);
    let hostile = |statuses: Vec<StatusWord>, checksums: Vec<u16>| AttemptEvidence {
        record: DeliveryRecord {
            statuses,
            checksums,
            ..DeliveryRecord::default()
        },
        ..clean.clone()
    };
    // A backward port no figure-1 stage has, first and mid-trail.
    for at in 0..3 {
        let mut statuses = clean.record.statuses.clone();
        statuses[at] = StatusWord::connected(100);
        let d = sim.diagnose(&hostile(statuses, clean.record.checksums.clone()));
        // The trail ends where the impossible port is named: nothing
        // at or past it can be the suspect.
        match d.map(|d| d.suspect) {
            Some(Suspect::Link(l)) => assert!(l.stage < at, "{l} from a trail cut at {at}"),
            Some(Suspect::Silent) => assert_eq!(at, 0),
            other => panic!("cut at {at}: {other:?}"),
        }
    }
    // Six hops on a three-stage fabric; more checksums than hops;
    // both, with checksums that mismatch everywhere.
    let six = vec![StatusWord::connected(1); 6];
    for ev in [
        hostile(six.clone(), clean.record.checksums.clone()),
        hostile(clean.record.statuses[..1].to_vec(), vec![0xBAD; 9]),
        hostile(six, vec![0xBAD; 9]),
    ] {
        if let Some(Suspect::Link(l)) = sim.diagnose(&ev).map(|d| d.suspect) {
            assert!(l.stage < 3 && l.port < 4, "{l} is not a figure-1 link");
        }
    }
    // Addresses this network does not have, and a stream shorter than
    // its own header.
    for ev in [
        AttemptEvidence {
            src: 16,
            ..clean.clone()
        },
        AttemptEvidence {
            dest: 1 << 40,
            ..clean.clone()
        },
        AttemptEvidence {
            port: 2,
            ..clean.clone()
        },
    ] {
        assert_eq!(sim.diagnose(&ev), None);
    }
    let _ = sim.diagnose(&AttemptEvidence {
        stream: Vec::new(),
        ..clean
    });
}

/// `diagnose` recomputes the expected transit checksums from the
/// network's own `(width, header_words)`. Every link out of stage 1
/// corrupts here, so stage 2 is the first to see garbled words on any
/// path: a diagnosis that expected the wrong header image at stage 1
/// would blame a stage-0 link instead.
#[test]
fn real_corruption_is_localized_in_every_header_regime() {
    for (width, header_words) in [(4, 0), (8, 1), (8, 2)] {
        let mut sim = figure1(&SimConfig {
            width,
            header_words,
            ..SimConfig::default()
        });
        let (src, dest) = (4, 9);
        let stage1 = sim.topology().stage_spec(1);
        let mut faults = FaultSet::new();
        for r in 0..sim.topology().routers_in_stage(1) {
            for b in 0..stage1.backward_ports {
                faults.break_link(LinkId::new(1, r, b), FaultKind::CorruptData { xor: 0x05 });
            }
        }
        sim.apply_faults(faults);

        sim.endpoint_mut(src).set_collect_evidence(true);
        sim.send(src, dest, &[1, 2, 3, 4]);
        sim.run(1_000);
        let evidence = sim.endpoint_mut(src).take_evidence();
        assert!(!evidence.is_empty(), "w={width} hw={header_words}");
        let toward_dest = sim.topology().route_digits(dest)[1];
        for ev in evidence {
            let d = sim.diagnose(&ev).expect("a lone message is never blocked");
            let Suspect::Link(l) = d.suspect else {
                panic!("w={width} hw={header_words}: {d:?}");
            };
            assert_eq!(l.stage, 1, "w={width} hw={header_words}: {l}");
            assert_eq!(l.port / stage1.dilation, toward_dest, "{l}");
            assert!(matches!(d.caught_at, Some((2, _))), "{d:?}");
        }
    }
}

//! The fault loop: evidence-driven diagnosis and port masking (paper
//! §5.1/§5.3, detect → localize → disable).
//!
//! This is an orchestration concern layered on [`NetworkSim`]: the
//! endpoints capture [`AttemptEvidence`] on failed deliveries,
//! [`NetworkSim::diagnose`] compares its transit checksums with what a
//! clean stream reports (`metro_scan::diagnosis`) and names the
//! [`Suspect`] on this network's topology, and the implicated ports
//! are disabled — never by reading the injected fault set. Online
//! ([`SimConfig::self_heal`](crate::SimConfig)) the network drains the
//! evidence itself every tick and masks in the live router
//! configurations; an offline scan master drains it, asks the same
//! `diagnose`, and writes the same mask through the TAPs. Engine access
//! is limited to [`Engine::probe_wire`](crate::engine::Engine::probe_wire)
//! clones for the behavioral boundary-scan sweep.

use crate::endpoint::AttemptEvidence;
use crate::message::FailureKind;
use crate::network::NetworkSim;
use metro_core::{PortMode, Word};
use metro_scan::boundary::test_wire;
use metro_scan::diagnosis::expected_stage_checksums;
use metro_telemetry::RouterCounter;
use metro_topo::graph::{LinkId, LinkTarget};

/// The element one failed attempt's reply evidence implicates — what
/// to disable, whichever transport (live `apply_config`, bit-serial
/// scan chain) carries the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suspect {
    /// The link out of this backward port, inter-stage or delivery:
    /// corruption entered on it, or the reply trail went cold on it.
    /// Masked by disabling the port ends on both routers.
    Link(LinkId),
    /// The wire from a source endpoint's output port into stage 0.
    /// Masked at the NIC, which stops injecting there.
    Injection {
        /// Source endpoint.
        endpoint: usize,
        /// Source output port.
        port: usize,
    },
    /// No reversal evidence at all: a dead element ate the stream
    /// without replying. Localizing it takes a boundary-scan sweep.
    Silent,
}

/// What [`NetworkSim::diagnose`] concluded from one failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagnosis {
    /// The element to mask.
    pub suspect: Suspect,
    /// The `(stage, router)` that caught the fault: the first whose
    /// transit checksum mismatched, or the last that reported when the
    /// failure lay past every transit checksum (the destination's
    /// end-to-end checksum, or silence, caught it). `None` for a
    /// [`Suspect::Silent`] stream, which nothing caught.
    pub caught_at: Option<(usize, usize)>,
}

impl NetworkSim {
    /// Links the self-healing layer has masked so far (both port ends
    /// disabled), in masking order. Diagnosis-driven: derived from
    /// reply evidence and behavioral wire probes, never from the
    /// injected fault set.
    #[must_use]
    pub fn healed_links(&self) -> &[LinkId] {
        &self.healed_links
    }

    /// Injection ports the self-healing layer has masked at their
    /// endpoints, as `(endpoint, output_port)` pairs.
    #[must_use]
    pub fn healed_injections(&self) -> &[(usize, usize)] {
        &self.healed_injections
    }

    /// Drains the endpoints' failed-attempt evidence and runs each item
    /// through diagnosis and masking.
    pub(crate) fn process_evidence(&mut self) {
        let mut evidence: Vec<AttemptEvidence> = Vec::new();
        for e in &mut self.endpoints {
            evidence.extend(e.take_evidence());
        }
        for ev in &evidence {
            self.heal_from(ev);
        }
    }

    /// Localizes one failed attempt from its reply evidence — the
    /// paper's §5.1 diagnosis, and the one entry for it: the online
    /// healer ([`SimConfig::self_heal`](crate::SimConfig)) applies what
    /// this returns, and an offline caller turns on
    /// [`Endpoint::set_collect_evidence`](crate::endpoint::Endpoint::set_collect_evidence),
    /// drains [`take_evidence`](crate::endpoint::Endpoint::take_evidence)
    /// and asks the same question. Pure: reads the topology, the
    /// configuration and the evidence, never the injected fault set.
    ///
    /// `None` when the evidence implicates nothing: blocking and fast
    /// reclamation are congestion, clean evidence without a failed
    /// delivery is an ordinary reversal, and evidence naming an
    /// endpoint or port this network does not have is not about it.
    #[must_use]
    pub fn diagnose(&self, ev: &AttemptEvidence) -> Option<Diagnosis> {
        let (topo, plan, config) = (&self.fabric.topo, &self.fabric.plan, &self.fabric.config);
        let congestion = matches!(
            ev.kind,
            FailureKind::Blocked { .. } | FailureKind::FastReclaimed
        );
        let addressed = ev.src.max(ev.dest) < topo.endpoints() && ev.port < topo.endpoint_ports();
        if congestion || !addressed {
            return None;
        }

        // Reconstruct the path the attempt switched: entry router from
        // the injection map, then one hop per STATUS-reported backward
        // port. STATUS and checksum words are data off the wire (a
        // restored wire may hold any): a port its stage does not have
        // ends the trail like a blocked one, and checksums past the
        // trail are not evidence about it.
        let mut ports_taken = Vec::with_capacity(ev.record.statuses.len());
        for (s, status) in ev.record.statuses.iter().enumerate() {
            match status.port() {
                Some(p) if s < topo.stages() && p < topo.stage_spec(s).backward_ports => {
                    ports_taken.push(p);
                }
                _ => break,
            }
        }
        let reported = &ev.record.checksums[..ev.record.checksums.len().min(ports_taken.len())];
        if reported.is_empty() {
            return Some(Diagnosis {
                suspect: Suspect::Silent,
                caught_at: None,
            });
        }
        let (entry, _) = topo.injection(ev.src, ev.port);
        let mut routers_on_path = vec![entry];
        for (s, &b) in ports_taken.iter().enumerate() {
            match topo.link(s, routers_on_path[s], b) {
                LinkTarget::Router { router, .. } => routers_on_path.push(router),
                LinkTarget::Endpoint { .. } => break,
            }
        }
        let on_path = |s: usize| routers_on_path.get(s).map(|&r| (s, r));

        // Expected transit checksums, recomputed from what the NIC
        // actually sent (the source knows its own stream).
        let digits = topo.route_digits(ev.dest);
        let header_len = plan.pack(&digits).len().min(ev.stream.len());
        let payload: Vec<u16> = ev.stream[header_len..]
            .iter()
            .filter_map(|w| match w {
                Word::Data(v) => Some(*v),
                _ => None,
            })
            .collect();
        let expected =
            expected_stage_checksums(plan, &digits, &payload, config.width, config.header_words);

        // The first stage whose transit checksum mismatched caught the
        // corruption, which entered on the link into it: out of the
        // previous stage's STATUS-named port, or off the injection wire.
        if let Some(s) = expected.iter().zip(reported).position(|(e, r)| e != r) {
            let caught_at = on_path(s)?;
            let suspect = match s.checked_sub(1) {
                Some(up) => Suspect::Link(LinkId::new(up, routers_on_path[up], ports_taken[up])),
                None => Suspect::Injection {
                    endpoint: ev.src,
                    port: ev.port,
                },
            };
            return Some(Diagnosis {
                suspect,
                caught_at: Some(caught_at),
            });
        }
        // A clean trail with a failed delivery: the element past the
        // last reporting router swallowed the stream (a dead
        // inter-stage link leaves the trail cold mid-path; a dead or
        // corrupting delivery link leaves a full, clean trail whose
        // ACK_CORRUPT the destination's end-to-end checksum raised).
        if matches!(ev.kind, FailureKind::Corrupt | FailureKind::NoAck) {
            let (s, r) = on_path(ports_taken.len() - 1)?;
            return Some(Diagnosis {
                suspect: Suspect::Link(LinkId::new(s, r, ports_taken[s])),
                caught_at: Some((s, r)),
            });
        }
        None
    }

    /// Applies one piece of failed-attempt evidence: the accounting,
    /// then whatever mask [`NetworkSim::diagnose`] calls for, in the
    /// live router configurations — the paper's §5.3 loop (detect →
    /// localize → disable) closed online, while the network carries
    /// traffic. No judgement of its own.
    fn heal_from(&mut self, ev: &AttemptEvidence) {
        // Any failed attempt arriving after the first mask counts as a
        // post-masking retry, attributed to the entry router.
        if !self.healed_links.is_empty() || !self.healed_injections.is_empty() {
            let (r0, _) = self.fabric.topo.injection(ev.src, ev.port);
            self.routers[0][r0].note_event(RouterCounter::RetriesAfterMask);
        }
        let Some(diagnosis) = self.diagnose(ev) else {
            return;
        };
        if let Some((s, r)) = diagnosis.caught_at {
            self.routers[s][r].note_event(RouterCounter::ChecksumMismatches);
        }
        match diagnosis.suspect {
            Suspect::Link(link) => self.mask_link_ends(link),
            Suspect::Injection { endpoint, port } => self.mask_injection(endpoint, port),
            Suspect::Silent => self.sweep_and_mask(ev),
        }
    }

    /// Whether `link` may be masked without severing an endpoint's
    /// last delivery link — redundancy, not reachability, is what
    /// masking spends. Read from the live router configurations, so
    /// every masker (the healer's `apply_config`, a scan master
    /// writing through the TAPs) is refused the same last link
    /// whoever disabled the others.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a link of this network.
    #[must_use]
    pub fn may_mask(&self, link: LinkId) -> bool {
        let LinkTarget::Endpoint { endpoint, .. } =
            self.fabric.topo.link(link.stage, link.router, link.port)
        else {
            return true;
        };
        let left = (0..self.fabric.topo.endpoint_ports())
            .map(|p| self.fabric.topo.delivery(endpoint, p))
            .filter(|&(r, b)| self.routers[link.stage][r].config().backward_enabled(b))
            .count();
        left > 1
    }

    /// Disables both port ends of `link` in the live configurations
    /// (paper §5.1: "Disabled faults are masked"), unless
    /// [`NetworkSim::may_mask`] refuses it. Idempotent per link.
    fn mask_link_ends(&mut self, link: LinkId) {
        if self.healed_links.contains(&link) || !self.may_mask(link) {
            return;
        }
        let (stage, router, b) = (link.stage, link.router, link.port);
        let mut cfg = self.routers[stage][router].config().clone();
        cfg.set_backward_mode(b, PortMode::DisabledDriven);
        self.routers[stage][router].apply_config(cfg);
        if let LinkTarget::Router { router: dr, port } = self.fabric.topo.link(stage, router, b) {
            let mut cfg = self.routers[stage + 1][dr].config().clone();
            cfg.set_forward_mode(port, PortMode::DisabledDriven);
            self.routers[stage + 1][dr].apply_config(cfg);
        }
        self.healed_links.push(link);
    }

    /// Masks one endpoint injection port (the endpoint refuses to mask
    /// its last unmasked port).
    fn mask_injection(&mut self, endpoint: usize, port: usize) {
        if self.endpoints[endpoint].mask_out_port(port)
            && !self.healed_injections.contains(&(endpoint, port))
        {
            self.healed_injections.push((endpoint, port));
        }
    }

    /// No reversal evidence at all: a dead element ate the stream.
    /// Sweeps every inter-stage wire with the boundary-scan test
    /// vectors (paper §5.1 — vectors across the suspect wires while the
    /// rest of the network carries traffic) and masks the links that
    /// fail. When every wire passes and the entry port itself never
    /// showed life, the silent element is the first hop: the endpoint
    /// stops injecting there.
    fn sweep_and_mask(&mut self, ev: &AttemptEvidence) {
        let mut found = Vec::new();
        for s in 0..self.fabric.topo.stages() {
            for r in 0..self.fabric.topo.routers_in_stage(s) {
                for b in 0..self.fabric.topo.stage_spec(s).backward_ports {
                    let link = LinkId::new(s, r, b);
                    if !self.healed_links.contains(&link) && !self.probe_wire_passes(s, r, b) {
                        found.push(link);
                    }
                }
            }
        }
        if found.is_empty() {
            if !ev.entry_alive {
                self.mask_injection(ev.src, ev.port);
            }
            return;
        }
        for link in found {
            self.mask_link_ends(link);
        }
    }

    /// Behaviorally probes one inter-stage wire with the boundary-scan
    /// test vectors (paper §5.1 EXTEST): each vector is driven through
    /// a clone of the wire as a data word and the emerging word
    /// compared against what was driven. The clone leaves live traffic
    /// untouched; the flush models the port pair being quiesced before
    /// the test. No oracle: the verdict comes from the wire's observed
    /// behavior, not the fault set.
    fn probe_wire_passes(&self, s: usize, r: usize, b: usize) -> bool {
        let mut probe = self.engine.probe_wire(&self.fabric.topo, s, r, b);
        probe.flush();
        let w = self.fabric.config.width.min(16);
        test_wire(w, |bits| {
            let value = bits
                .iter()
                .enumerate()
                .fold(0u16, |acc, (i, &bit)| acc | (u16::from(bit) << i));
            let (mut out, _, _) = probe.advance(Word::Data(value), Word::Empty, false);
            for _ in 0..probe.delay() {
                if out != Word::Empty {
                    break;
                }
                out = probe.advance(Word::Empty, Word::Empty, false).0;
            }
            match out {
                Word::Data(v) => (0..w).map(|i| (v >> i) & 1 == 1).collect(),
                _ => vec![false; w],
            }
        })
        .passed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DeliveryRecord;
    use crate::network::SimConfig;
    use metro_core::StatusWord;
    use metro_topo::multibutterfly::MultibutterflySpec;

    #[test]
    fn status_words_off_the_wire_are_not_trusted_as_indices() {
        let config = SimConfig {
            self_heal: true,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
        let stream = sim.stream_for(3, &[1, 2]);
        // A port no figure-1 stage has; more hops than the fabric has
        // stages; more checksums than hops.
        for statuses in [
            vec![StatusWord::connected(127)],
            vec![StatusWord::connected(1); 5],
            vec![StatusWord::connected(1)],
        ] {
            sim.heal_from(&AttemptEvidence {
                src: 0,
                dest: 3,
                port: 0,
                kind: FailureKind::NoAck,
                record: DeliveryRecord {
                    statuses,
                    checksums: vec![0xBAD; 4],
                    ack: None,
                    reply_words: Vec::new(),
                },
                stream: stream.clone(),
                entry_alive: true,
            });
        }
    }

    /// The apply step adds no judgement of its own: whatever evidence
    /// comes in, the masks `heal_from` leaves on a fresh network are
    /// exactly the suspect `diagnose` named.
    #[test]
    fn heal_from_masks_exactly_what_diagnose_names() {
        let config = SimConfig {
            self_heal: true,
            ..SimConfig::default()
        };
        let fresh = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
        let digits = fresh.fabric.topo.route_digits(13);
        let payload = [1u16, 2, 3];
        let clean = expected_stage_checksums(&fresh.fabric.plan, &digits, &payload, 8, 0);
        let garbled_from = |stage: usize| {
            let mut c = clean.clone();
            c.iter_mut().skip(stage).for_each(|c| *c ^= 0x0101);
            c
        };
        let mut named = Vec::new();
        for (kind, checksums) in [
            (FailureKind::NoAck, clean.clone()),
            (FailureKind::Corrupt, garbled_from(0)),
            (FailureKind::Corrupt, garbled_from(2)),
            (FailureKind::Timeout, Vec::new()),
            (FailureKind::Blocked { stage: 1 }, garbled_from(1)),
            (FailureKind::FastReclaimed, garbled_from(1)),
        ] {
            let ev = AttemptEvidence {
                src: 2,
                dest: 13,
                port: 0,
                kind,
                record: DeliveryRecord {
                    statuses: digits
                        .iter()
                        .take(checksums.len())
                        .map(|d| StatusWord::connected(d * 2))
                        .collect(),
                    checksums,
                    ack: None,
                    reply_words: Vec::new(),
                },
                stream: fresh.stream_for(13, &payload),
                entry_alive: true,
            };
            let mut sim = fresh.clone();
            let suspect = sim.diagnose(&ev).map(|d| d.suspect);
            sim.heal_from(&ev);
            let (links, injections) = match suspect {
                Some(Suspect::Link(l)) => (vec![l], vec![]),
                Some(Suspect::Injection { endpoint, port }) => (vec![], vec![(endpoint, port)]),
                Some(Suspect::Silent) | None => (vec![], vec![]),
            };
            assert_eq!(sim.healed_links(), links, "{kind:?}");
            assert_eq!(sim.healed_injections(), injections, "{kind:?}");
            named.push(suspect);
        }
        // Every arm of the apply step was reached.
        assert!(matches!(
            named[..],
            [
                Some(Suspect::Link(LinkId { stage: 2, .. })),
                Some(Suspect::Injection { .. }),
                Some(Suspect::Link(LinkId { stage: 1, .. })),
                Some(Suspect::Silent),
                None,
                None
            ]
        ));
    }
}

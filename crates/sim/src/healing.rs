//! The self-healing loop: evidence-driven diagnosis and live port
//! masking (paper §5.3, detect → localize → disable, closed online).
//!
//! This is an orchestration concern layered on [`NetworkSim`]: the
//! endpoints capture [`AttemptEvidence`] on failed deliveries, the
//! network runs each item through `metro-scan` diagnosis, and the
//! implicated ports are disabled in the live router configurations —
//! never by reading the injected fault set. Engine access is limited
//! to [`Engine::probe_wire`](crate::engine::Engine::probe_wire) clones
//! for the behavioral boundary-scan sweep.

use crate::endpoint::AttemptEvidence;
use crate::message::FailureKind;
use crate::network::NetworkSim;
use metro_core::{PortMode, Word};
use metro_scan::boundary::test_wire;
use metro_scan::diagnosis::{diagnose_attempt, expected_stage_checksums, AttemptDiagnosis};
use metro_telemetry::RouterCounter;
use metro_topo::graph::{LinkId, LinkTarget};

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

    /// Runs one piece of failed-attempt evidence through the scan
    /// diagnosis ([`diagnose_attempt`]) and applies any resulting mask
    /// to the live router configurations — the paper's §5.3 loop
    /// (detect → localize → disable) closed online, while the network
    /// carries traffic.
    fn heal_from(&mut self, ev: &AttemptEvidence) {
        // Any failed attempt arriving after the first mask counts as a
        // post-masking retry, attributed to the entry router.
        if !self.healed_links.is_empty() || !self.healed_injections.is_empty() {
            let (r0, _) = self.topo.injection(ev.src, ev.port);
            self.routers[0][r0].note_event(RouterCounter::RetriesAfterMask);
        }
        // Blocking and fast reclamation are congestion, not faults.
        if matches!(
            ev.kind,
            FailureKind::Blocked { .. } | FailureKind::FastReclaimed
        ) {
            return;
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
                Some(p) if s < self.topo.stages() && p < self.topo.stage_spec(s).backward_ports => {
                    ports_taken.push(p);
                }
                _ => break,
            }
        }
        let reported = &ev.record.checksums[..ev.record.checksums.len().min(ports_taken.len())];
        let (entry, f0) = self.topo.injection(ev.src, ev.port);
        let mut routers_on_path = vec![entry];
        let mut fwd_ports = vec![f0];
        for (s, &b) in ports_taken.iter().enumerate() {
            match self.topo.link(s, routers_on_path[s], b) {
                LinkTarget::Router { router, port } => {
                    routers_on_path.push(router);
                    fwd_ports.push(port);
                }
                LinkTarget::Endpoint { .. } => break,
            }
        }

        // Expected transit checksums, recomputed from what the NIC
        // actually sent (the source knows its own stream).
        let digits = self.topo.route_digits(ev.dest);
        let header_len = self.plan.pack(&digits).len().min(ev.stream.len());
        let payload: Vec<u16> = ev.stream[header_len..]
            .iter()
            .filter_map(|w| match w {
                Word::Data(v) => Some(*v),
                _ => None,
            })
            .collect();
        let expected = expected_stage_checksums(
            &self.plan,
            &digits,
            &payload,
            self.config.width,
            self.config.header_words,
        );
        let delivery_failed = matches!(ev.kind, FailureKind::Corrupt | FailureKind::NoAck);
        match diagnose_attempt(
            &expected,
            reported,
            &ports_taken,
            &fwd_ports,
            delivery_failed,
        ) {
            AttemptDiagnosis::Corruption(plan) => {
                let ds = plan.downstream_stage;
                if ds < routers_on_path.len() {
                    let dr = routers_on_path[ds];
                    self.routers[ds][dr].note_event(RouterCounter::ChecksumMismatches);
                    match (plan.upstream_stage, plan.upstream_backward_port) {
                        (Some(us), Some(ub)) => {
                            self.mask_link_ends(us, routers_on_path[us], ub);
                        }
                        _ => self.mask_injection(ev.src, ev.port),
                    }
                }
            }
            AttemptDiagnosis::DeliveryBoundary {
                stage,
                backward_port,
            } => {
                // ACK_CORRUPT is the destination's end-to-end checksum
                // catching the corruption past the last transit
                // checksum — count it where it was detected.
                if stage < routers_on_path.len() {
                    let r = routers_on_path[stage];
                    self.routers[stage][r].note_event(RouterCounter::ChecksumMismatches);
                    self.mask_link_ends(stage, r, backward_port);
                }
            }
            AttemptDiagnosis::NeedsSweep => self.sweep_and_mask(ev),
            AttemptDiagnosis::Inconclusive => {}
        }
    }

    /// Disables both port ends of the link out of `(stage, router)`'s
    /// backward port `b` in the live configurations (paper §5.1:
    /// "Disabled faults are masked"). Refuses to sever an endpoint's
    /// last unmasked delivery link — redundancy, not reachability, is
    /// what masking spends. Idempotent per link.
    fn mask_link_ends(&mut self, stage: usize, router: usize, b: usize) {
        let link = LinkId::new(stage, router, b);
        if self.healed_links.contains(&link) {
            return;
        }
        if let LinkTarget::Endpoint { endpoint, .. } = self.topo.link(stage, router, b) {
            if self.delivery_links_left(endpoint) <= 1 {
                return;
            }
        }
        let mut cfg = self.routers[stage][router].config().clone();
        cfg.set_backward_mode(b, PortMode::DisabledDriven);
        self.routers[stage][router].apply_config(cfg);
        if let LinkTarget::Router { router: dr, port } = self.topo.link(stage, router, b) {
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

    /// How many delivery links into `endpoint` the healer has not yet
    /// masked.
    fn delivery_links_left(&self, endpoint: usize) -> usize {
        let s = self.topo.stages() - 1;
        let mut left = 0;
        for r in 0..self.topo.routers_in_stage(s) {
            for b in 0..self.topo.stage_spec(s).backward_ports {
                let to_endpoint = matches!(
                    self.topo.link(s, r, b),
                    LinkTarget::Endpoint { endpoint: e, .. } if e == endpoint
                );
                if to_endpoint && !self.healed_links.contains(&LinkId::new(s, r, b)) {
                    left += 1;
                }
            }
        }
        left
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
        for s in 0..self.topo.stages() {
            for r in 0..self.topo.routers_in_stage(s) {
                for b in 0..self.topo.stage_spec(s).backward_ports {
                    if self.healed_links.contains(&LinkId::new(s, r, b)) {
                        continue;
                    }
                    if !self.probe_wire_passes(s, r, b) {
                        found.push((s, r, b));
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
        for (s, r, b) in found {
            self.mask_link_ends(s, r, b);
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
        let mut probe = self.engine.probe_wire(s, r, b);
        probe.flush();
        let w = self.config.width.min(16);
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
}

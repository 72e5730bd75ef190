//! Chaos campaigns: randomized fault storms against the self-healing
//! simulator, checked against hard invariants.
//!
//! A [`ChaosCampaign`] is generated deterministically from a seed: a
//! handful of storm events, each naming a link on the walked route of a
//! source/destination pair, a fault behaviour
//! ([`FaultKind`]), and whether the
//! element is repaired once the self-healing layer has masked it. The
//! runner ([`run_campaign`]) drives the network through three phases —
//! clean baseline, storm (faults injected mid-run, traffic hammered
//! through until diagnosis masks them), recovery probes — and enforces
//! the invariants the architecture promises:
//!
//! 1. **Conservation** — no message to a live endpoint is silently lost
//!    or duplicated: every send completes, every completion was
//!    physically delivered with an intact payload, and a message whose
//!    outcome records no failure was delivered *exactly* once. (A
//!    corrupted acknowledgment legitimately forces a retry after a
//!    successful delivery — at-least-once, never silently.)
//! 2. **Convergence** — the masked set grows to a superset of the
//!    truly-faulty links, online, from reply evidence alone
//!    ([`SimConfig::self_heal`]); the injected [`FaultSet`] is consulted
//!    only *here*, by the checker, as the audit oracle.
//! 3. **Recovery** — once every storm link is masked, traffic completes
//!    failure-free at baseline latency (within a small slack), because
//!    masked ports are never selected again.
//!
//! [`run_campaign_paired`] additionally replays the identical campaign
//! under two execution variants — `(engine, shards)` each — and
//! requires bit-identical outcome streams, healed sets and telemetry:
//! the healing layer lives in shared code, so the engines'
//! cycle-for-cycle equivalence must survive it.

use crate::message::MessageOutcome;
use crate::network::{EngineKind, NetworkSim, SimConfig};
use metro_core::RandomSource;
use metro_harness::Json;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::{LinkId, LinkTarget};
use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec};

/// Latency slack (cycles) allowed on recovery probes over the clean
/// baseline's worst observation.
pub const RECOVERY_SLACK: u64 = 32;

/// One storm event: a link on the walked route of `src → dest` fails
/// mid-run with the given behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormEvent {
    /// Source endpoint whose traffic exercises the link.
    pub src: usize,
    /// Destination endpoint of that traffic.
    pub dest: usize,
    /// The link that fails (on a route from `src` to `dest`).
    pub link: LinkId,
    /// How the link misbehaves.
    pub kind: FaultKind,
    /// Whether the link is repaired once masked (the mask must stay —
    /// healing is one-way; re-enabling is a scan-chain operation, not
    /// an online one).
    pub repair: bool,
}

/// A deterministic chaos campaign: topology, storm schedule, and
/// probing parameters, all derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaign {
    /// The seed everything derives from (also the simulator seed).
    pub seed: u64,
    /// Network topology under test.
    pub spec: MultibutterflySpec,
    /// The storm schedule, applied one event at a time mid-run.
    pub events: Vec<StormEvent>,
    /// Payload sent on every probe.
    pub payload: Vec<u16>,
    /// Clean probes per pair before the storm (baseline latency).
    pub baseline_probes: usize,
    /// Probes per pair after the storm has been fully masked.
    pub recovery_probes: usize,
    /// Sends allowed per event before giving up on convergence.
    pub max_storm_sends: usize,
    /// Cycle budget for any single probe.
    pub probe_budget: u64,
}

impl ChaosCampaign {
    /// Generates the campaign for `seed` on the given topology: 1–2
    /// storm events on walked routes (distinct routers, inter-router
    /// stages only, so the network always retains an unmasked path),
    /// random fault kinds, random repair decisions.
    ///
    /// # Errors
    ///
    /// Propagates topology validation errors.
    pub fn generate(
        spec: &MultibutterflySpec,
        seed: u64,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let topo = Multibutterfly::build(spec)?;
        let mut rng = RandomSource::new(seed ^ 0xC4A0_55ED);
        let n = topo.endpoints();
        let last = topo.stages() - 1;
        let n_events = 1 + rng.index(2);
        let mut events: Vec<StormEvent> = Vec::new();
        'events: for _ in 0..n_events {
            // Rejection-sample a site on a distinct router so two storms
            // can never sever a whole dilation group between them.
            for _ in 0..32 {
                let src = rng.index(n);
                let mut dest = rng.index(n);
                if dest == src {
                    dest = (dest + 1) % n;
                }
                let stage = rng.index(last.max(1));
                let Some(link) = walk_route(&topo, src, dest, stage, &mut rng) else {
                    continue;
                };
                if events
                    .iter()
                    .any(|e| (e.link.stage, e.link.router) == (link.stage, link.router))
                {
                    continue;
                }
                let xor = 1u16 << rng.index(8);
                let kind = match rng.index(3) {
                    0 => FaultKind::Dead,
                    1 => FaultKind::CorruptData { xor },
                    _ => FaultKind::Intermittent { xor, period: 2 },
                };
                let repair = rng.bit();
                events.push(StormEvent {
                    src,
                    dest,
                    link,
                    kind,
                    repair,
                });
                continue 'events;
            }
        }
        let payload: Vec<u16> = (0..3 + rng.index(6)).map(|_| rng.bits(8) as u16).collect();
        Ok(Self {
            seed,
            spec: spec.clone(),
            events,
            payload,
            baseline_probes: 2,
            recovery_probes: 3,
            max_storm_sends: 200,
            probe_budget: 6_000,
        })
    }
}

/// Walks a concrete route from `src` toward `dest` down to `stage` and
/// returns the link the walk would take out of that stage (a random
/// dilated sibling at every hop).
fn walk_route(
    topo: &Multibutterfly,
    src: usize,
    dest: usize,
    stage: usize,
    rng: &mut RandomSource,
) -> Option<LinkId> {
    let digits = topo.route_digits(dest);
    let (mut r, _) = topo.injection(src, rng.index(topo.endpoint_ports()));
    for (s, &digit) in digits.iter().enumerate().take(stage) {
        let d = topo.stage_spec(s).dilation;
        match topo.link(s, r, digit * d + rng.index(d)) {
            LinkTarget::Router { router, .. } => r = router,
            LinkTarget::Endpoint { .. } => return None,
        }
    }
    let d = topo.stage_spec(stage).dilation;
    Some(LinkId::new(stage, r, digits[stage] * d + rng.index(d)))
}

/// A hard-invariant violation found while running a campaign. Any of
/// these failing is a bug in the routing protocol, the self-healing
/// layer, or an engine divergence — never an acceptable outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosViolation {
    /// A probe to a live endpoint never completed within its budget.
    Lost {
        /// Source endpoint of the lost probe.
        src: usize,
        /// Destination endpoint of the lost probe.
        dest: usize,
        /// Which campaign phase the probe belonged to.
        phase: &'static str,
    },
    /// A completed probe's delivered payload differs from what was sent
    /// (silent corruption past the end-to-end checksum).
    WrongPayload {
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dest: usize,
    },
    /// A failure-free probe was physically delivered other than exactly
    /// once (silent loss or duplication).
    NotExactlyOnce {
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dest: usize,
        /// Physical deliveries observed at the destination.
        deliveries: usize,
    },
    /// The NIC gave up on a message to a live endpoint.
    Abandoned {
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dest: usize,
    },
    /// Diagnosis never masked a truly-faulty link within the send
    /// budget.
    NotMasked {
        /// The faulty link that escaped masking.
        link: LinkId,
        /// Sends spent trying to provoke and diagnose it.
        sends: usize,
    },
    /// A post-masking probe still failed or exceeded the bounded
    /// recovery latency.
    SlowRecovery {
        /// Observed network latency of the probe.
        latency: u64,
        /// The bound it had to meet (baseline worst + slack).
        bound: u64,
        /// Retries the probe recorded (must be 0 after masking).
        retries: usize,
    },
    /// Two execution variants disagreed on the same campaign.
    EngineDivergence {
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lost { src, dest, phase } => {
                write!(f, "{phase} probe {src} -> {dest} never completed")
            }
            Self::WrongPayload { src, dest } => {
                write!(f, "probe {src} -> {dest} delivered a corrupted payload")
            }
            Self::NotExactlyOnce {
                src,
                dest,
                deliveries,
            } => write!(
                f,
                "failure-free probe {src} -> {dest} delivered {deliveries} times"
            ),
            Self::Abandoned { src, dest } => {
                write!(
                    f,
                    "message {src} -> {dest} abandoned with the endpoint alive"
                )
            }
            Self::NotMasked { link, sends } => {
                write!(f, "faulty link {link:?} still unmasked after {sends} sends")
            }
            Self::SlowRecovery {
                latency,
                bound,
                retries,
            } => write!(
                f,
                "post-masking probe took {latency} cycles / {retries} retries (bound {bound})"
            ),
            Self::EngineDivergence { detail } => {
                write!(f, "execution variants diverged: {detail}")
            }
        }
    }
}

impl std::error::Error for ChaosViolation {}

/// What one campaign run produced (returned only when every invariant
/// held).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The campaign seed.
    pub seed: u64,
    /// The engine that ran it.
    pub engine: EngineKind,
    /// Storm events the campaign injected.
    pub events: usize,
    /// Total probes sent across all phases.
    pub sends: usize,
    /// Retries summed over every probe.
    pub total_retries: usize,
    /// Worst clean-phase network latency (cycles).
    pub baseline_worst: u64,
    /// Worst post-masking network latency (cycles).
    pub recovery_worst: u64,
    /// Sends needed per event before its mask landed.
    pub storm_sends: Vec<usize>,
    /// Links diagnosis masked (audited ⊇ the injected faults).
    pub masked_links: Vec<LinkId>,
    /// Injection ports masked at endpoints.
    pub masked_injections: Vec<(usize, usize)>,
    /// Telemetry: checksum mismatches routers observed.
    pub checksum_mismatches: u64,
    /// Telemetry: port masks applied to live configs.
    pub masks_applied: u64,
    /// Telemetry: attempts entering the fabric after a mask existed.
    pub retries_after_mask: u64,
    /// The complete outcome stream, for engine-equivalence checks.
    pub outcomes: Vec<MessageOutcome>,
}

impl ChaosReport {
    /// The machine-readable summary (outcome stream elided; two equal
    /// reports render byte-identically).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("engine", Json::from(self.engine.name())),
            ("events", Json::from(self.events)),
            ("sends", Json::from(self.sends)),
            ("total_retries", Json::from(self.total_retries)),
            ("baseline_worst", Json::from(self.baseline_worst)),
            ("recovery_worst", Json::from(self.recovery_worst)),
            (
                "storm_sends",
                Json::arr(self.storm_sends.iter().map(|&s| Json::from(s))),
            ),
            (
                "masked_links",
                Json::arr(self.masked_links.iter().map(|l| {
                    Json::obj([
                        ("stage", Json::from(l.stage)),
                        ("router", Json::from(l.router)),
                        ("port", Json::from(l.port)),
                    ])
                })),
            ),
            (
                "masked_injections",
                Json::arr(self.masked_injections.iter().map(|&(e, p)| {
                    Json::obj([("endpoint", Json::from(e)), ("port", Json::from(p))])
                })),
            ),
            ("checksum_mismatches", Json::from(self.checksum_mismatches)),
            ("masks_applied", Json::from(self.masks_applied)),
            ("retries_after_mask", Json::from(self.retries_after_mask)),
        ])
    }
}

/// One probe: sends, waits for the outcome ([`NetworkSim::wait_for`]),
/// and enforces the conservation invariant against the destination's
/// physical delivery log.
fn probe(
    sim: &mut NetworkSim,
    src: usize,
    dest: usize,
    payload: &[u16],
    budget: u64,
    phase: &'static str,
) -> Result<MessageOutcome, ChaosViolation> {
    sim.send(src, dest, payload);
    let Some(out) = sim.wait_for(src, dest, budget) else {
        return Err(ChaosViolation::Lost { src, dest, phase });
    };
    if !out.status.is_delivered() {
        return Err(ChaosViolation::Abandoned { src, dest });
    }
    let deliveries = sim.endpoint_mut(dest).take_delivered();
    if deliveries.iter().any(|d| d.payload != payload) {
        return Err(ChaosViolation::WrongPayload { src, dest });
    }
    // Failure-free completion must be exactly-once; a recorded
    // failure (e.g. a corrupted acknowledgment after a successful
    // delivery) legitimately retries — at-least-once, not silent.
    if deliveries.len() != 1 && out.failures.is_empty() {
        return Err(ChaosViolation::NotExactlyOnce {
            src,
            dest,
            deliveries: deliveries.len(),
        });
    }
    if deliveries.is_empty() {
        return Err(ChaosViolation::Lost { src, dest, phase });
    }
    Ok(out)
}

/// Runs one campaign on the given engine — for Flat, on `shards` tick
/// shards ([`SimConfig::shards`]; Reference ignores it) — and checks
/// every invariant. Returns the report and the run's full telemetry
/// snapshot (for `results/<artifact>.telemetry.json` sidecars).
///
/// The injected fault set is used *only* by this checker (to audit that
/// the masked set covers it); the healing layer inside the simulator
/// sees reply evidence alone.
///
/// # Errors
///
/// Returns the first [`ChaosViolation`], or a boxed error for topology
/// failures. Chaos invariants are cycle-exact, so a
/// non-cycle-accurate engine ([`EngineKind::Analytic`]) is rejected
/// with [`crate::engine::NotCycleAccurate`] before any event runs.
pub fn run_campaign(
    campaign: &ChaosCampaign,
    engine: EngineKind,
    shards: usize,
) -> Result<(ChaosReport, metro_telemetry::TelemetrySnapshot), Box<dyn std::error::Error>> {
    let config = SimConfig {
        self_heal: true,
        seed: campaign.seed,
        engine,
        shards,
        endpoint: crate::endpoint::EndpointConfig {
            timeout: 240,
            ..crate::endpoint::EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&campaign.spec, &config)?;
    let mut outcomes: Vec<MessageOutcome> = Vec::new();
    let mut active = FaultSet::new();

    // Phase 1 — clean baseline: worst-case fault-free latency.
    let mut baseline_worst = 0u64;
    for ev in &campaign.events {
        for _ in 0..campaign.baseline_probes {
            let o = probe(
                &mut sim,
                ev.src,
                ev.dest,
                &campaign.payload,
                campaign.probe_budget,
                "baseline",
            )?;
            baseline_worst = baseline_worst.max(o.network_latency());
            outcomes.push(o);
        }
    }

    // Phase 2 — storm: inject each fault mid-run, hammer its route
    // until the evidence-driven mask lands.
    let mut storm_sends = Vec::new();
    for ev in &campaign.events {
        active.break_link(ev.link, ev.kind);
        sim.apply_faults(active.clone());
        let mut sends = 0usize;
        while !sim.healed_links().contains(&ev.link) {
            if sends >= campaign.max_storm_sends {
                return Err(Box::new(ChaosViolation::NotMasked {
                    link: ev.link,
                    sends,
                }));
            }
            let o = probe(
                &mut sim,
                ev.src,
                ev.dest,
                &campaign.payload,
                campaign.probe_budget,
                "storm",
            )?;
            outcomes.push(o);
            sends += 1;
        }
        storm_sends.push(sends);
        if ev.repair {
            active.repair_link(ev.link);
            sim.apply_faults(active.clone());
        }
    }

    // Convergence audit: the masked set must cover every link that is
    // (or was) truly faulty — the only place the oracle is consulted.
    for ev in &campaign.events {
        if !sim.healed_links().contains(&ev.link) {
            return Err(Box::new(ChaosViolation::NotMasked {
                link: ev.link,
                sends: 0,
            }));
        }
    }

    // Phase 3 — recovery: masked ports are never selected again, so
    // probes complete failure-free at baseline latency.
    let bound = baseline_worst + RECOVERY_SLACK;
    let mut recovery_worst = 0u64;
    for ev in &campaign.events {
        for _ in 0..campaign.recovery_probes {
            let o = probe(
                &mut sim,
                ev.src,
                ev.dest,
                &campaign.payload,
                campaign.probe_budget,
                "recovery",
            )?;
            if o.retries != 0 || o.network_latency() > bound {
                return Err(Box::new(ChaosViolation::SlowRecovery {
                    latency: o.network_latency(),
                    bound,
                    retries: o.retries,
                }));
            }
            recovery_worst = recovery_worst.max(o.network_latency());
            outcomes.push(o);
        }
    }

    let snap = sim.telemetry_snapshot("chaos");
    use metro_telemetry::RouterCounter;
    let report = ChaosReport {
        seed: campaign.seed,
        engine,
        events: campaign.events.len(),
        sends: outcomes.len(),
        total_retries: outcomes.iter().map(|o| o.retries).sum(),
        baseline_worst,
        recovery_worst,
        storm_sends,
        masked_links: sim.healed_links().to_vec(),
        masked_injections: sim.healed_injections().to_vec(),
        checksum_mismatches: snap.counters.total(RouterCounter::ChecksumMismatches),
        masks_applied: snap.counters.total(RouterCounter::MasksApplied),
        retries_after_mask: snap.counters.total(RouterCounter::RetriesAfterMask),
        outcomes,
    };
    Ok((report, snap))
}

/// Runs one campaign under two execution variants — `(engine, shards)`
/// each — and requires bit-identical outcome streams, healed sets and
/// telemetry snapshots (the engine's name aside). The chaos runner
/// exercises mid-run fault injection, self-healing masks and
/// sequential probing, so this is the harshest identity check in the
/// suite. Returns the first variant's report and snapshot.
///
/// # Errors
///
/// Returns the first violation on either run, or
/// [`ChaosViolation::EngineDivergence`] when the runs disagree.
pub fn run_campaign_paired(
    campaign: &ChaosCampaign,
    variants: [(EngineKind, usize); 2],
) -> Result<(ChaosReport, metro_telemetry::TelemetrySnapshot), Box<dyn std::error::Error>> {
    let [la, lb] = variants.map(|(engine, shards)| format!("{engine} shards={shards}"));
    let (a, snap_a) = run_campaign(campaign, variants[0].0, variants[0].1)?;
    let (b, mut snap_b) = run_campaign(campaign, variants[1].0, variants[1].1)?;
    snap_b.engine.clone_from(&snap_a.engine);
    let detail = if a.outcomes != b.outcomes {
        format!(
            "outcome streams differ between {la} and {lb} ({} vs {} outcomes)",
            a.outcomes.len(),
            b.outcomes.len()
        )
    } else if (&a.masked_links, &a.masked_injections) != (&b.masked_links, &b.masked_injections) {
        format!(
            "healed sets differ between {la} and {lb} ({:?} vs {:?})",
            a.masked_links, b.masked_links
        )
    } else if snap_a != snap_b {
        format!("telemetry snapshots differ between {la} and {lb}")
    } else {
        return Ok((a, snap_a));
    };
    Err(Box::new(ChaosViolation::EngineDivergence { detail }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_generation_is_deterministic() {
        let spec = MultibutterflySpec::figure1();
        let a = ChaosCampaign::generate(&spec, 7).unwrap();
        let b = ChaosCampaign::generate(&spec, 7).unwrap();
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = ChaosCampaign::generate(&spec, 8).unwrap();
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn the_analytic_engine_is_rejected_with_a_typed_error() {
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 7).unwrap();
        let err = run_campaign(&campaign, EngineKind::Analytic, 1).unwrap_err();
        let typed = err
            .downcast_ref::<crate::engine::NotCycleAccurate>()
            .expect("NotCycleAccurate, not a panic or stringly error");
        assert_eq!(typed.engine, EngineKind::Analytic);
    }

    #[test]
    fn generated_events_sit_on_distinct_inter_router_links() {
        let spec = MultibutterflySpec::figure1();
        for seed in 0..12 {
            let c = ChaosCampaign::generate(&spec, seed).unwrap();
            let last = 2; // figure1 has 3 stages; stage 2 links deliver.
            for (i, e) in c.events.iter().enumerate() {
                assert!(e.link.stage < last, "seed {seed}: delivery link faulted");
                for other in &c.events[..i] {
                    assert_ne!(
                        (e.link.stage, e.link.router),
                        (other.link.stage, other.link.router),
                        "seed {seed}: two events share a router"
                    );
                }
            }
        }
    }

    #[test]
    fn a_campaign_heals_and_recovers_on_the_flat_engine() {
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 3).unwrap();
        let (report, _) = run_campaign(&campaign, EngineKind::Flat, 1).expect("invariants hold");
        assert_eq!(report.events, campaign.events.len());
        for ev in &campaign.events {
            assert!(report.masked_links.contains(&ev.link));
        }
        assert!(report.masks_applied >= 2 * report.events as u64);
        assert!(report.recovery_worst <= report.baseline_worst + RECOVERY_SLACK);
    }

    #[test]
    fn a_campaign_is_engine_equivalent() {
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 11).unwrap();
        run_campaign_paired(
            &campaign,
            [(EngineKind::Flat, 1), (EngineKind::Reference, 1)],
        )
        .expect("Flat == Reference under chaos");
    }

    #[test]
    fn a_campaign_is_shard_equivalent() {
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 11).unwrap();
        run_campaign_paired(&campaign, [(EngineKind::Flat, 1), (EngineKind::Flat, 4)])
            .expect("shards=4 == shards=1 under chaos");
    }

    #[test]
    fn seed_0x57b0_checksum_aliasing_regression() {
        // This campaign injects `CorruptData { xor: 0x10 }` on a link
        // whose probe payload flips bit 4 in balanced directions — a
        // pattern the old Fletcher-16 end-to-end checksum could not
        // see (the deltas cancel mod 255), so the corrupted payload
        // was acknowledged and delivered silently. The CRC-16 stream
        // checksum detects it, the probe retries, and every invariant
        // holds on both engines.
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 0x57b0).unwrap();
        assert!(campaign
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CorruptData { xor: 0x10 })));
        run_campaign_paired(
            &campaign,
            [(EngineKind::Flat, 1), (EngineKind::Reference, 1)],
        )
        .expect("seed 0x57b0 must not deliver silent corruption");
    }

    #[test]
    fn consecutive_seeds_hold_on_both_engines() {
        let spec = MultibutterflySpec::figure1();
        for seed in [0x57AB, 0x57AC] {
            let campaign = ChaosCampaign::generate(&spec, seed).unwrap();
            let engines = [(EngineKind::Flat, 1), (EngineKind::Reference, 1)];
            let (r, _) = run_campaign_paired(&campaign, engines).expect("the campaign holds");
            assert!(r.sends > 0);
            assert!(!r.masked_links.is_empty());
        }
    }

    #[test]
    fn report_json_is_deterministic() {
        let spec = MultibutterflySpec::figure1();
        let campaign = ChaosCampaign::generate(&spec, 3).unwrap();
        let a = run_campaign(&campaign, EngineKind::Flat, 1)
            .unwrap()
            .0
            .to_json();
        let b = run_campaign(&campaign, EngineKind::Flat, 1)
            .unwrap()
            .0
            .to_json();
        assert_eq!(a.render(), b.render());
        assert_eq!(Json::parse(&a.render()).unwrap(), a);
    }
}

//! The assembled, tickable network.
//!
//! [`NetworkSim`] instantiates one [`metro_core::Router`] per topology
//! position, one [`crate::wire::Wire`] per port-level link, and
//! one [`crate::endpoint::Endpoint`] per network endpoint, and
//! advances everything synchronously from a central clock — pipelined
//! circuit switching exactly as the paper's §3 describes. The
//! per-cycle dataflow itself lives behind the sealed
//! [`Engine`] seam ([`crate::engine`]); this
//! module owns orchestration only: construction, workload injection,
//! the clock, telemetry sync, outcome harvest, and fault application.
//! The self-healing loop is a sibling orchestration concern in
//! [`crate::healing`].
//!
//! Components are Moore machines with respect to the data lanes (their
//! outputs depend on registered state), so the per-cycle order —
//! endpoints, routers, then wires — is free of combinational races; the
//! BCB, which *is* combinational in hardware, gains at most one cycle of
//! latency, which only makes fast reclamation marginally slower than
//! silicon (conservative).

use crate::endpoint::{Endpoint, EndpointConfig};
use crate::engine::flat::FlatEngine;
use crate::engine::reference::ReferenceEngine;
use crate::engine::{Engine, NotCycleAccurate, StepCtx};
use crate::fabric::Fabric;
use crate::message::{MachineExtent, MessageOutcome, Outcomes};
use crate::stats::NetworkStats;
use metro_core::header::HeaderPlan;
use metro_core::{RandomSource, Router, SelectionPolicy, StreamChecksum, Word};
use metro_telemetry::{CounterCell, TelemetryRegistry, TelemetrySnapshot};
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec};
use std::sync::Arc;

pub use crate::engine::EngineKind;

/// Simulator configuration: the implementation parameters shared by
/// every router in the network plus protocol knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Channel width `w` in bits.
    pub width: usize,
    /// Header words consumed per router, `hw` (0 = RN1-style bit
    /// consumption with swallow).
    pub header_words: usize,
    /// Data pipestages inside each router, `dp`.
    pub pipestages: usize,
    /// Pipeline delay of every inter-component wire (the uniform
    /// variable-turn-delay setting; 0 = single pipeline stage per
    /// routing stage, the RN1/Figure 3 operating point).
    pub wire_delay: usize,
    /// Per-boundary wire delays overriding `wire_delay`: entry 0 is the
    /// injection boundary (endpoints → stage 0), entry `s + 1` the
    /// boundary out of stage `s` (the last entry is the delivery
    /// boundary). "It is generally not possible or desirable to make
    /// all the connections between routers equally long … closer
    /// routers should be able to take advantage" (paper §5.1, Variable
    /// Turn Delay). Must have `stages + 1` entries when present.
    pub stage_wire_delays: Option<Vec<usize>>,
    /// Whether forward ports use fast path reclamation (BCB) on
    /// blocking; `false` holds blocked connections for a detailed
    /// turn-time reply (paper §5.1).
    pub fast_reclaim: bool,
    /// Backward-port selection policy (the architecture mandates
    /// random; others are for ablation).
    pub selection: SelectionPolicy,
    /// Endpoint NIC configuration.
    pub endpoint: EndpointConfig,
    /// Master seed: router randomness, endpoint port choice, backoff.
    pub seed: u64,
    /// Which engine drives the fabric. The cycle engines ([`Flat`] and
    /// [`Reference`]) are cycle-for-cycle equivalent (see the
    /// golden-equivalence tests); [`EngineKind::Flat`] is simply
    /// faster. [`EngineKind::Analytic`] is not a cycle engine: its one
    /// refusal site is the engine match in [`NetworkSim::build`] —
    /// scenario replay dispatches it to the estimator instead.
    ///
    /// [`Flat`]: EngineKind::Flat
    /// [`Reference`]: EngineKind::Reference
    pub engine: EngineKind,
    /// Cycles between telemetry syncs (clamped to ≥ 1): how often the
    /// registry's sync count goes up. Counter values do not depend on
    /// it: they live in the routers.
    pub telemetry_every: u64,
    /// Closes the fault loop online (paper §5.3): endpoints hand every
    /// failed attempt's reply evidence to the network, which localizes
    /// corruption through the transit checksums
    /// ([`NetworkSim::diagnose`]), confirms silent path losses with a
    /// behavioral boundary-scan wire sweep, and disables the implicated
    /// ports in the live router configurations — no oracle access to
    /// the injected fault set. Off by default: evidence capture clones
    /// a record per failed attempt, which congested fault-free runs
    /// should not pay for.
    pub self_heal: bool,
    /// Tick-parallelism shard count for the [`EngineKind::Flat`]
    /// engine. `1` (the default) steps on the calling thread; `N > 1`
    /// cuts routers and endpoints into `N` weight-balanced shards: each
    /// cycle their tick passes run as one round on a persistent worker
    /// pool and the carry's two lanes as a second; `0` asks for the
    /// host's available parallelism. The effective count is capped at
    /// the router count.
    /// Sharding is a pure execution strategy: every shard count
    /// produces **bit-identical** results (outcome streams, telemetry)
    /// because components only read last-tick state and write disjoint
    /// next-tick slots. Ignored by the Reference engine.
    pub shards: usize,
}

impl Default for SimConfig {
    /// The Figure 3 operating point: 8-bit channels, `hw = 0`,
    /// `dp = 1`, single pipeline stage per routing stage, fast
    /// reclamation on.
    fn default() -> Self {
        Self {
            width: 8,
            header_words: 0,
            pipestages: 1,
            wire_delay: 0,
            stage_wire_delays: None,
            fast_reclaim: true,
            selection: SelectionPolicy::Random,
            endpoint: EndpointConfig::default(),
            seed: 0xC0FFEE,
            engine: EngineKind::default(),
            telemetry_every: 1,
            self_heal: false,
            shards: 1,
        }
    }
}

/// A complete METRO network under simulation.
#[derive(Debug, Clone)]
pub struct NetworkSim {
    /// The machine lowering accepted.
    pub(crate) fabric: Fabric,
    pub(crate) routers: Vec<Vec<Router>>,
    pub(crate) endpoints: Vec<Endpoint>,
    pub(crate) engine: Box<dyn Engine>,
    pub(crate) faults: FaultSet,
    /// The NICs holding finished outcomes, one bit each: marked by the
    /// step ([`StepCtx::finished`]), drained by the harvest.
    finished: Vec<u64>,
    now: u64,
    /// Every outcome harvested since the last drain: its fold, and the
    /// outcomes themselves while [`NetworkSim::set_keep_outcomes`] is on.
    outcomes: Outcomes,
    stats: NetworkStats,
    stats_from: u64,
    /// The telemetry spine: the routers' readings at the last stats
    /// reset and the sync count. The counts themselves live in the
    /// routers.
    registry: TelemetryRegistry,
    /// Links the self-healing layer has masked (both port ends
    /// disabled), diagnosis-driven — never read from the fault set.
    pub(crate) healed_links: Vec<LinkId>,
    /// Injection ports the self-healing layer has masked at their
    /// endpoints, as `(endpoint, output_port)`.
    pub(crate) healed_injections: Vec<(usize, usize)>,
}

impl NetworkSim {
    /// Builds a simulation of the network `spec` with implementation
    /// parameters `config`: [`Fabric::new`], then [`NetworkSim::build`].
    ///
    /// # Errors
    ///
    /// As [`Fabric::new`] and [`NetworkSim::build`].
    pub fn new(
        spec: &MultibutterflySpec,
        config: &SimConfig,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(Self::build(Fabric::new(spec, config)?)?)
    }

    /// Builds the machine `fabric` describes: routers on their stage's
    /// shared configuration, NICs, and the engine's wires.
    ///
    /// # Errors
    ///
    /// [`NotCycleAccurate`] for [`EngineKind::Analytic`], the one
    /// refusal: there is no network to tick; use
    /// [`crate::engine::analytic::estimate_scenario`].
    pub fn build(fabric: Fabric) -> Result<Self, NotCycleAccurate> {
        // Refused here, built last: wires allocated after the routers and
        // NICs measure ~4 % cheaper to set up on metro1k than before them.
        let engine: fn(&Fabric) -> Box<dyn Engine> = match fabric.config.engine {
            EngineKind::Flat => |f| Box::new(FlatEngine::build(f)),
            EngineKind::Reference => |f| Box::new(ReferenceEngine::build(f)),
            engine @ EngineKind::Analytic => return Err(NotCycleAccurate { engine }),
        };
        let (topo, config) = (&fabric.topo, &fabric.config);
        let master = RandomSource::new(config.seed);
        // One configuration per stage, shared until a router's own is
        // written (a heal or scan mask, a restore).
        let routers: Vec<Vec<Router>> = fabric
            .stages
            .iter()
            .enumerate()
            .map(|(s, (params, shared))| {
                (0..topo.routers_in_stage(s))
                    .map(|r| {
                        let seed = master.derive((s as u64) << 32 | r as u64).bits(64);
                        Router::with_policy(*params, Arc::clone(shared), seed, config.selection)
                            .expect("a router builds from any lowered stage")
                    })
                    .collect()
            })
            .collect();

        let ep = topo.endpoint_ports();
        let endpoints = (0..topo.endpoints())
            .map(|e| {
                let seed = master.derive(0xEE00_0000 + e as u64).bits(64);
                let mut endpoint = Endpoint::new(e, ep, ep, config.endpoint, seed);
                endpoint.set_collect_evidence(config.self_heal);
                endpoint
            })
            .collect();

        let per_stage: Vec<usize> = routers.iter().map(Vec::len).collect();
        let registry = TelemetryRegistry::new(&per_stage, config.telemetry_every);
        let finished = vec![0; topo.endpoints().div_ceil(64)];
        Ok(Self {
            engine: engine(&fabric),
            fabric,
            routers,
            finished,
            endpoints,
            faults: FaultSet::new(),
            now: 0,
            outcomes: Outcomes::new(true),
            stats: NetworkStats::new(),
            stats_from: 0,
            registry,
            healed_links: Vec::new(),
            healed_injections: Vec::new(),
        })
    }

    /// The telemetry registry: sync cadence and count. Counter values
    /// are read through [`NetworkSim::telemetry_snapshot`].
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.registry
    }

    /// The topology under simulation.
    #[must_use]
    pub fn topology(&self) -> &Multibutterfly {
        &self.fabric.topo
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.fabric.config
    }

    /// The current clock cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The header plan messages in this network use.
    #[must_use]
    pub fn header_plan(&self) -> &HeaderPlan {
        &self.fabric.plan
    }

    /// Builds the complete word stream for a message: header + payload
    /// (masked to `w` bits) + end-to-end checksum + TURN.
    #[must_use]
    pub fn stream_for(&self, dest: usize, payload: &[u16]) -> Vec<Word> {
        let mut stream = Vec::with_capacity(self.fabric.stream_words(payload.len()));
        self.fabric.plan.push_header(dest, &mut stream);
        self.segment_onto(stream, payload)
    }

    /// Builds a continuation segment (no header — the circuit is
    /// already established): payload + checksum + TURN.
    #[must_use]
    pub fn segment_for(&self, payload: &[u16]) -> Vec<Word> {
        self.segment_onto(Vec::with_capacity(payload.len() + 2), payload)
    }

    /// Appends one segment's words to `stream` (a header, or nothing).
    fn segment_onto(&self, mut stream: Vec<Word>, payload: &[u16]) -> Vec<Word> {
        let mask = if self.fabric.config.width >= 16 {
            u16::MAX
        } else {
            (1u16 << self.fabric.config.width) - 1
        };
        let mut ck = StreamChecksum::new();
        for &v in payload {
            let v = v & mask;
            ck.absorb_value(v);
            stream.push(Word::Data(v));
        }
        stream.push(Word::Checksum(ck.value()));
        stream.push(Word::Turn);
        stream
    }

    /// Queues a multi-round conversation from `src` to `dest`: each
    /// entry of `payloads` travels as one segment over a *single*
    /// circuit, with the connection reversing between segments (the
    /// paper's "any number of data transmission reversals", §5.1).
    /// The destination endpoints must be configured with
    /// [`crate::endpoint::ReplyPolicy::Conversation`].
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty or an endpoint is out of range.
    pub fn send_conversation(&mut self, src: usize, dest: usize, payloads: &[&[u16]]) {
        assert!(!payloads.is_empty(), "a conversation needs segments");
        assert!(src < self.fabric.topo.endpoints() && dest < self.fabric.topo.endpoints());
        let mut segments = Vec::with_capacity(payloads.len());
        segments.push(self.stream_for(dest, payloads[0]));
        for p in &payloads[1..] {
            segments.push(self.segment_for(p));
        }
        let payload_words = payloads.iter().map(|p| p.len()).sum();
        self.engine.wake_endpoint(&self.fabric.topo, src);
        self.endpoints[src].enqueue_conversation(dest, segments, payload_words, self.now);
    }

    /// Queues a message from `src` to `dest` with the given payload.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dest` is out of range.
    pub fn send(&mut self, src: usize, dest: usize, payload: &[u16]) {
        self.send_conversation(src, dest, &[payload]);
    }

    /// Sends one message and runs the clock until it completes (or
    /// `max_cycles` elapse). Returns the outcome with
    /// `payload_delivered` filled in from the destination's log.
    pub fn send_and_wait(
        &mut self,
        src: usize,
        dest: usize,
        payload: &[u16],
        max_cycles: u64,
    ) -> Option<MessageOutcome> {
        self.send(src, dest, payload);
        let mut outcome = self.wait_for(src, dest, max_cycles)?;
        if let Some(d) = self.endpoints[dest]
            .take_delivered()
            .into_iter()
            .next_back()
        {
            outcome.payload_delivered = d.payload;
        }
        Some(outcome)
    }

    /// Runs the clock until a transaction from `src` to `dest`
    /// completes (or `max_cycles` elapse) and takes its outcome out of
    /// the harvested stream — the closed-loop wait of one probe, as
    /// [`Run::step`](crate::scenario::Run::step) is the open-loop cycle.
    /// The outcomes harvested meanwhile are kept while it waits, so it
    /// finds its own whether or not the sim keeps them.
    pub fn wait_for(&mut self, src: usize, dest: usize, max_cycles: u64) -> Option<MessageOutcome> {
        let keep = self.outcomes.keeps();
        self.outcomes.set_keep(true);
        let deadline = self.now + max_cycles;
        let mut found = None;
        while found.is_none() && self.now < deadline {
            self.tick();
            found = self.outcomes.take_first(|o| o.src == src && o.dest == dest);
        }
        self.outcomes.set_keep(keep);
        found
    }

    /// Advances the whole network one clock cycle: the engine steps
    /// the dataflow, then the orchestrator syncs telemetry and
    /// harvests outcomes.
    pub fn tick(&mut self) {
        self.engine.step(StepCtx {
            now: self.now,
            topo: &self.fabric.topo,
            faults: &self.faults,
            routers: &mut self.routers,
            endpoints: &mut self.endpoints,
            finished: &mut self.finished,
        });
        self.after_tick();
    }

    /// The effective shard count the tick runs with (1 when the
    /// single-threaded path — either engine — is active).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Sync telemetry, then harvest completed transactions (shared by
    /// both engines).
    fn after_tick(&mut self) {
        let every = self.registry.interval();
        if every <= 1 || self.now.is_multiple_of(every) {
            self.registry.sync();
        }
        self.now += 1;
        // The marked NICs in ascending order: the order a scan of every
        // NIC would harvest them in.
        for (w, word) in self.finished.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let e = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (completed, abandoned) = self.endpoints[e].drain_finished();
                for o in completed {
                    if o.requested_at >= self.stats_from {
                        self.stats.record(&o);
                    }
                    self.outcomes.push(o);
                }
                for o in abandoned {
                    if o.requested_at >= self.stats_from {
                        self.stats.record_abandoned(&o);
                    }
                    self.outcomes.push(o);
                }
            }
        }
        if self.fabric.config.self_heal {
            self.process_evidence();
        }
    }

    /// Runs the clock for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Drains all completed (and abandoned) outcomes harvested so far:
    /// their fold, and the outcomes themselves where kept.
    pub fn drain_outcomes(&mut self) -> Outcomes {
        let fresh = Outcomes::new(self.outcomes.keeps());
        std::mem::replace(&mut self.outcomes, fresh)
    }

    /// Whether the outcomes harvested from now on are kept for
    /// [`NetworkSim::drain_outcomes`], or only folded into its digest,
    /// count and payload words. On for a sim built here; a
    /// [`Run`](crate::scenario::Run) turns it off.
    pub fn set_keep_outcomes(&mut self, on: bool) {
        self.outcomes.set_keep(on);
    }

    /// Whether every endpoint is idle (no queued or in-flight
    /// messages).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.endpoints.iter().all(|e| !e.is_busy())
    }

    /// Whether the fabric itself holds **zero** state: every router
    /// port idle with no backward port allocated, every wire quiet.
    /// This is the paper's §2 "stateless network" property — "no
    /// messages ever exist solely in the network", so a gang-scheduled
    /// machine can context-switch without snapshotting network state.
    #[must_use]
    pub fn fabric_idle(&self) -> bool {
        self.routers.iter().flatten().all(Router::is_quiescent) && self.engine.wires_quiet()
    }

    /// Direct access to an endpoint (for workload injection and
    /// delivery inspection). Handing out `&mut` tells the engine the
    /// endpoint may stop being quiescent (a direct `enqueue`).
    pub fn endpoint_mut(&mut self, e: usize) -> &mut Endpoint {
        self.engine.wake_endpoint(&self.fabric.topo, e);
        &mut self.endpoints[e]
    }

    /// Direct access to a router (for scan operations and fault
    /// experiments); wakes it like [`NetworkSim::endpoint_mut`].
    pub fn router_mut(&mut self, stage: usize, index: usize) -> &mut Router {
        self.engine.wake_router(&self.fabric.topo, stage, index);
        &mut self.routers[stage][index]
    }

    /// [`Engine::visits`]: components and wires stepped so far.
    #[must_use]
    pub fn engine_visits(&self) -> u64 {
        self.engine.visits()
    }

    /// [`Endpoint::set_keep_delivered`] on every endpoint, waking none:
    /// for a run that never drains a destination's log.
    pub fn set_keep_delivered(&mut self, on: bool) {
        for endpoint in &mut self.endpoints {
            endpoint.set_keep_delivered(on);
        }
    }

    /// Shared access to a router.
    #[must_use]
    pub fn router(&self, stage: usize, index: usize) -> &Router {
        &self.routers[stage][index]
    }

    /// Applies a fault set: dead routers stop switching, faulty links
    /// die or corrupt, dead endpoints fall silent. Takes effect from
    /// the next tick (dynamic fault injection).
    pub fn apply_faults(&mut self, faults: FaultSet) {
        for e in 0..self.endpoints.len() {
            self.endpoints[e].set_dead(faults.endpoint_dead(e));
        }
        self.faults = faults;
        self.engine.apply_faults(&self.fabric.topo, &self.faults);
    }

    /// The active fault set.
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Statistics accumulated since the last [`NetworkSim::reset_stats`].
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Mutable statistics access.
    pub fn stats_mut(&mut self) -> &mut NetworkStats {
        &mut self.stats
    }

    /// Clears statistics; only messages *requested* from now on are
    /// counted (warmup exclusion). The telemetry registry is rebased on
    /// the routers' readings as of this call, at any sync interval:
    /// snapshots measure post-reset activity only, while the routers
    /// keep their cumulative counters.
    pub fn reset_stats(&mut self) {
        self.stats = NetworkStats::new();
        self.stats_from = self.now;
        self.registry.rebase(counter_cells(&self.routers));
    }

    /// Freezes the current telemetry into a schema-versioned snapshot:
    /// the live router counters since the last reset and the
    /// total-latency summary. The sync cadence is not disturbed.
    #[must_use]
    pub fn telemetry_snapshot(&self, name: &str) -> TelemetrySnapshot {
        TelemetrySnapshot::from_registry(
            name,
            self.fabric.config.engine.name(),
            self.now,
            &self.registry,
            counter_cells(&self.routers),
            self.stats.total_latency.summary(),
        )
    }
}

/// Every router's live counter cell, in the registry's slot order.
fn counter_cells(routers: &[Vec<Router>]) -> impl Iterator<Item = &CounterCell> {
    routers.iter().flatten().map(Router::counters)
}

/// Blank fault kinds, by checkpoint tag.
const FAULT_KINDS: [FaultKind; 3] = [
    FaultKind::Dead,
    FaultKind::CorruptData { xor: 0 },
    FaultKind::Intermittent { xor: 0, period: 0 },
];

/// A link's `(stage, router, port)`, walked with the cursor `$s`.
macro_rules! link {
    ($s:ident, $link:expr) => {{
        let LinkId {
            stage,
            router,
            port,
        } = $link;
        $s.usize(stage)?;
        $s.usize(router)?;
        $s.usize(port)
    }};
}

// The complete mutable simulation state: the clock, the active fault
// set, healing decisions, every router and endpoint, the engine's
// channel inputs and wires, accumulated statistics, the undrained
// outcomes (their fold, and those kept), and the telemetry registry.
// Construction-derived state (topology, header plan, configuration) is
// not written — a resumed run rebuilds it from the scenario, on either
// cycle engine at any shard count.
//
// At a tick boundary the words do not depend on which cycle engine
// stepped the machine or on how many shards: every engine keeps one
// buffer of channel inputs and writes it in the same order, and nothing
// else the flat step keeps — its hot set, carry masks and shard marks —
// is live between ticks.
metro_telemetry::state_walk! {
    impl State for NetworkSim => |this, s| {
        let NetworkSim { now, stats_from, faults, .. } = this;
        s.section("network")?;
        s.u64(now)?;
        s.u64(stats_from)?;
        // The fault set in sorted order — its hash containers iterate
        // nondeterministically, and checkpoints are byte-stable — and
        // re-applied before the components are restored, so engine
        // fault tables and endpoint dead flags are consistent by the
        // time wire contents land.
        let mut routers: Vec<(usize, usize)> = faults.dead_routers().collect();
        let mut links: Vec<(LinkId, FaultKind)> = faults.faulty_links().collect();
        let mut endpoints: Vec<usize> = faults.dead_endpoints().collect();
        routers.sort_unstable();
        links.sort_unstable_by_key(|&(link, _)| link);
        endpoints.sort_unstable();
        s.section("faults")?;
        s.seq(&mut routers, |s, (stage, router)| {
            s.usize(stage)?;
            s.usize(router)
        })?;
        s.seq(&mut links, |s, (l, kind)| {
            link!(s, l)?;
            s.tag(kind, &FAULT_KINDS, "fault kind")?;
            match kind {
                FaultKind::Dead => Ok(()),
                FaultKind::CorruptData { xor } => s.u16(xor),
                FaultKind::Intermittent { xor, period } => {
                    s.u16(xor)?;
                    s.u32(period)
                }
            }
        })?;
        s.seq(&mut endpoints, |s, e| s.usize(e))?;
        s.on_restore(this, |sim| {
            let mut faults = FaultSet::new();
            routers.into_iter().for_each(|(s, r)| faults.kill_router(s, r));
            links.into_iter().for_each(|(l, kind)| faults.break_link(l, kind));
            endpoints.into_iter().for_each(|e| faults.kill_endpoint(e));
            sim.apply_faults(faults);
        });

        let NetworkSim {
            fabric, routers, endpoints, engine, finished, now, outcomes, stats, registry,
            healed_links, healed_injections, ..
        } = this;
        s.seq(healed_links, |s, l| link!(s, l))?;
        s.seq(healed_injections, |s, (e, p)| {
            s.usize(e)?;
            s.usize(p)
        })?;
        s.lane(routers.into_iter(), "router stages", |s, stage| {
            s.lane(stage, "routers in a stage", |s, router| s.state(router))
        })?;
        let within = MachineExtent {
            now: *now,
            endpoints: endpoints.len(),
            stages: routers.len(),
        };
        s.lane(endpoints.into_iter().enumerate(), "endpoints", |s, (e, endpoint)| {
            s.state_within(endpoint, within)?;
            let has = endpoint.has_outcomes();
            s.on_restore(finished, |f| f[e / 64] |= u64::from(has) << (e % 64));
            Ok(())
        })?;
        s.state(engine)?;
        s.state(stats)?;
        // A NIC runs at most one transmit engine per injection port.
        let engines = endpoints.len() * fabric.topo.endpoint_ports();
        s.state_within(outcomes, (within, engines as u64))?;
        s.state(registry)
    }
}

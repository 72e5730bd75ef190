//! The engine seam: every way the simulator can advance (or predict)
//! a network lives behind one interface.
//!
//! [`NetworkSim`](crate::network::NetworkSim) is an orchestrator — it
//! owns the routers, endpoints, telemetry, and healing state, and
//! delegates the per-cycle dataflow to an [`Engine`]: [`flat`] (the
//! allocation-free arena engine, which steps only what is active, on
//! one thread or by shard on [`shard`]'s worker pool), or
//! [`reference`](mod@reference) (the scalar executable spec). The
//! third [`EngineKind`], [`analytic`], is not a cycle engine at all:
//! it predicts latency distributions from per-stage models instead of
//! ticking, so it is dispatched by
//! [`run_scenario`](crate::scenario::run_scenario) to the estimator.
//! All three build from the [`Fabric`](crate::fabric::Fabric) lowering
//! accepted.
//!
//! The trait is **sealed**: the engine set is a closed, tested family
//! (bit-identical cycle engines plus the estimator), not an extension
//! point. Everything that used to match on engine strings — the
//! scenario codec, the CLI flags, the result emitters — now goes
//! through [`EngineKind::name`] / [`EngineKind::from_name`].

pub mod analytic;
pub mod flat;
pub mod reference;
pub mod shard;

use crate::endpoint::Endpoint;
use crate::wire::Wire;
use metro_core::Router;
use metro_telemetry::State;
use metro_topo::fault::FaultSet;
use metro_topo::multibutterfly::Multibutterfly;

/// Which engine drives (or estimates) the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// One flat channel arena indexed by the topology's [slot
    /// numbering](metro_topo::multibutterfly#slot-numbering); the
    /// steady-state tick path performs no heap allocation. The default.
    #[default]
    Flat,
    /// The original nested-`Vec` engine, rebuilt buffers each tick.
    /// Retained as the golden reference: the differential fuzzer, the
    /// chaos campaigns and the state-word identity tests hold Flat
    /// equal to it. Nothing times it (`benchmark/` runs Flat and the
    /// estimator only).
    Reference,
    /// The analytic latency estimator: per-stage models clustered by
    /// (dilation, load, fault state) predict latency distributions
    /// without ticking a single cycle ([`analytic`]). Not
    /// cycle-accurate — [`NetworkSim::build`](crate::NetworkSim::build)
    /// refuses it with a typed error; scenario replay routes it to the
    /// estimator.
    Analytic,
}

impl EngineKind {
    /// Every engine kind, in canonical order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Flat,
        EngineKind::Reference,
        EngineKind::Analytic,
    ];

    /// The canonical lowercase name — the single spelling used by the
    /// scenario codec, the `--engine` CLI flags, result/manifest
    /// emitters, and telemetry snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Flat => "flat",
            EngineKind::Reference => "reference",
            EngineKind::Analytic => "analytic",
        }
    }

    /// Parses a canonical engine name ([`Self::name`]'s inverse).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A context that requires a cycle-accurate engine was handed
/// [`EngineKind::Analytic`]. Returned (never panicked) from one place,
/// [`NetworkSim::build`](crate::NetworkSim::build); callers that want an
/// estimate go through
/// [`estimate_scenario`](analytic::estimate_scenario) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotCycleAccurate {
    /// The rejected engine.
    pub engine: EngineKind,
}

impl std::fmt::Display for NotCycleAccurate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine {:?} is not cycle-accurate: it cannot tick a network \
             (use the analytic estimator via scenario replay, or pick flat/reference)",
            self.engine.name()
        )
    }
}

impl std::error::Error for NotCycleAccurate {}

mod sealed {
    /// The engine family is closed: only this crate's engines implement
    /// [`super::Engine`].
    pub trait Sealed {}
    impl Sealed for super::flat::FlatEngine {}
    impl Sealed for super::reference::ReferenceEngine {}
}

/// Everything a cycle engine may touch during one step: the shared
/// component state owned by the orchestrator. Engines read last-tick
/// channel state from their own buffers and drive components through
/// this borrow bundle; they never see telemetry, stats, or healing
/// state.
#[derive(Debug)]
pub struct StepCtx<'a> {
    /// The current clock cycle.
    pub now: u64,
    /// The topology under simulation.
    pub topo: &'a Multibutterfly,
    /// The active fault set (the reference engine queries it per tick;
    /// the flat engine resolves it into tables in
    /// [`Engine::apply_faults`] instead).
    pub faults: &'a FaultSet,
    /// Every router, by `[stage][index]`.
    pub routers: &'a mut [Vec<Router>],
    /// Every endpoint NIC.
    pub endpoints: &'a mut [Endpoint],
    /// One bit per NIC, set by the step for every NIC it ticked that
    /// then held finished outcomes: a NIC gains one only when ticked,
    /// so the harvest drains these and no other.
    pub finished: &'a mut [u64],
}

/// The sealed cycle-engine interface: step the network one clock,
/// report wire quiescence, hand out wire probes for boundary scan, and
/// resolve fault sets. Implemented by [`flat::FlatEngine`] and
/// [`reference::ReferenceEngine`] only (the trait is sealed); the
/// analytic estimator deliberately does **not** implement it — it has
/// no cycles to step.
///
/// Its [`State`] is the machine's channel state, one `channels`
/// section: the six channel-input lanes (`fwd_in`, `rev_in`, `bcb_in`,
/// `ep_out_rev`, `ep_out_bcb`, `ep_in_fwd`), then the injection and the
/// stage wires, each one lane in the topology's [slot
/// order](metro_topo::multibutterfly#slot-numbering). At a
/// tick boundary every cycle engine writes the same words at any shard
/// count, so a checkpoint does not name the engine that took it, and
/// restores one written by any. Scratch that is rewritten before it is
/// next read (drive buses, worker pools and their marks, the flat
/// step's hot set and carry masks — restoring marks everything) is not
/// state and is not written. Callers re-apply the active fault set via
/// [`Engine::apply_faults`] *before* restoring, so wire fault fields and
/// transparency caches are already consistent.
pub trait Engine: sealed::Sealed + State + std::fmt::Debug + Send {
    /// Advances the network one clock cycle: endpoints and routers
    /// compute outputs from last-cycle inputs, wires advance, and the
    /// engine's channel state rolls over.
    fn step(&mut self, ctx: StepCtx<'_>);

    /// Whether every wire is quiet (holds no in-flight words) — the
    /// engine's half of the fabric-idle quiesce check.
    fn wires_quiet(&self) -> bool;

    /// A clone of the inter-stage wire out of `(stage, router)`'s
    /// backward port `b`, for behavioral boundary-scan probing. The
    /// clone leaves live traffic untouched.
    fn probe_wire(&self, topo: &Multibutterfly, stage: usize, router: usize, b: usize) -> Wire;

    /// Resolves a newly applied fault set into engine state (the flat
    /// engine refreshes its dead-router table, wire faults, and
    /// transparency cache; the reference engine queries the fault set
    /// per tick and does nothing here).
    fn apply_faults(&mut self, topo: &Multibutterfly, faults: &FaultSet);

    /// Endpoint `e` may have been changed from outside a step (a
    /// message enqueued): an engine that skips quiescent components
    /// steps it next cycle. Waking a quiescent one is harmless.
    fn wake_endpoint(&mut self, _topo: &Multibutterfly, _e: usize) {}

    /// [`Engine::wake_endpoint`] for router `(stage, router)`.
    fn wake_router(&mut self, _topo: &Multibutterfly, _stage: usize, _router: usize) {}

    /// Components and wires the step visited so far, at any shard
    /// count, for tests of the skip; 0 from the Reference engine, which
    /// ticks everything every cycle.
    fn visits(&self) -> u64 {
        0
    }

    /// The effective shard count the step runs with (1 for every
    /// single-threaded path).
    fn shards(&self) -> usize;

    /// Clones the engine behind the trait object ([`NetworkSim`] is
    /// `Clone`).
    ///
    /// [`NetworkSim`]: crate::network::NetworkSim
    fn clone_box(&self) -> Box<dyn Engine>;
}

impl Clone for Box<dyn Engine> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_every_kind() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EngineKind::from_name("warp"), None);
    }

    #[test]
    fn not_cycle_accurate_error_names_the_engine() {
        let e = NotCycleAccurate {
            engine: EngineKind::Analytic,
        };
        assert!(e.to_string().contains("analytic"));
    }
}

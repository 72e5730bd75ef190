//! # metro-sim — cycle-accurate METRO network simulator
//!
//! Assembles [`metro_core::Router`]s according to a
//! [`metro_topo::Multibutterfly`] topology, connects them with pipelined
//! wires, attaches **source-responsible network interfaces**, and runs
//! the whole network synchronously from a central clock — the paper's
//! operating model (§3, §4).
//!
//! The endpoints implement the full reliability protocol: route headers,
//! end-to-end checksums, connection reversal (TURN), per-router status
//! collection, acknowledgments, and retry with stochastic path
//! re-selection on blocking, corruption, or dynamic faults.
//!
//! ```
//! use metro_sim::{NetworkSim, SimConfig};
//! use metro_topo::MultibutterflySpec;
//!
//! // One message across the paper's Figure 1 network.
//! let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
//! let outcome = sim.send_and_wait(3, 12, &[0xA, 0xB, 0xC], 200).expect("delivered");
//! assert_eq!(outcome.payload_delivered, vec![0xA, 0xB, 0xC]);
//! ```
//!
//! | module | contents |
//! |--------|----------|
//! | [`wire`] | pipelined inter-component links (variable turn delay) |
//! | [`message`] | messages, delivery records, outcome classification, the folded outcome stream |
//! | [`endpoint`] | the source-responsible NIC state machines |
//! | [`engine`] | the sealed engine seam: flat, sharded, reference, analytic |
//! | [`fabric`] | lowering: the one place a scenario is checked, into the machine every engine builds from |
//! | [`network`] | the assembled, tickable network (orchestration) |
//! | [`healing`] | the fault loop: `NetworkSim::diagnose` (online and offline) → masking |
//! | [`workload`] | destination patterns, arrival processes, rate maps, and the shared workload driver |
//! | [`stats`] | latency/throughput/retry statistics |
//! | [`experiment`] | load sweeps and fault sweeps (Figure 3 and §6.2) |
//! | [`scenario`] | declarative, serializable run descriptions, the run loop ([`scenario::Run`]) + differential fuzzing |
//! | [`checkpoint`] | crash-safe checkpoint envelopes |
//! | [`chaos`] | randomized fault-storm campaigns with hard self-healing invariants |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The engine seam exists because network.rs once grew into a
// 2000-line monolith; this lint (threshold in clippy.toml, denied in
// CI via -D warnings) keeps any single function from regrowing one.
#![warn(clippy::too_many_lines)]

pub mod chaos;
pub mod checkpoint;
pub mod endpoint;
pub mod engine;
pub mod experiment;
pub mod fabric;
pub mod healing;
pub mod message;
pub mod network;
pub mod scenario;
pub mod shard;
pub mod stats;
pub mod wire;
pub mod workload;

pub use chaos::{ChaosCampaign, ChaosReport, ChaosViolation, StormEvent};
pub use checkpoint::{
    resume_scenario, run_scenario_resumable, Checkpoint, CheckpointSink, RunPhase,
    CHECKPOINT_SCHEMA,
};
pub use endpoint::{AttemptEvidence, EndpointConfig, ReplyPolicy};
pub use experiment::{FaultSweepPoint, LoadPoint};
pub use fabric::{Fabric, ScenarioError};
pub use healing::{Diagnosis, Suspect};
pub use message::{
    DeliveryRecord, DeliveryStatus, FailureKind, MessageOutcome, OutcomeFold, Outcomes,
};
pub use network::{EngineKind, NetworkSim, SimConfig};
pub use scenario::{
    run_scenario, FaultInjection, RepairSet, Scenario, ScenarioResult, SendSpec, WorkloadSpec,
};
pub use stats::{LatencyStats, NetworkStats};
pub use workload::{
    ArrivalProcess, RateMap, TraceEntry, TrafficPattern, WorkloadDriver, WorkloadError,
};

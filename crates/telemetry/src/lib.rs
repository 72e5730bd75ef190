//! Telemetry spine for the METRO reproduction.
//!
//! Every layer of the repo observes the network through this crate:
//!
//! * [`RouterCounter`] — typed metric IDs; the discriminants are slot
//!   indices, so registries and snapshots share one layout.
//! * [`CounterCell`] / [`CounterBlock`] — fixed-size per-router cells
//!   and flat (stage × router) registries, zero-alloc on the hot path.
//!   `metro_core::Router` increments a `CounterCell` directly.
//! * [`Histogram`] — latencies as a sorted `(value, count)` multiset
//!   with exact nearest-rank percentiles (the simulator's former
//!   `LatencyStats`, re-exported there).
//! * [`TelemetryRegistry`] — owned by the simulator; the reset
//!   baseline, read against the routers' live cells, and the sync
//!   cadence and count.
//! * [`TelemetrySnapshot`] + [`snapshot`] codec — schema-versioned,
//!   byte-stable JSON on the harness [`metro_harness::Json`] model; the
//!   `results/<name>.telemetry.json` sidecar format.
//! * [`report`] — per-stage utilization / block-rate / latency tables,
//!   the engine behind `metro report`.
//! * [`StateWriter`] / [`StateReader`] — the tagged word-stream codec
//!   every checkpointable component serializes its mutable state
//!   through, one [`state_walk!`] body per type
//!   (`metro_sim::checkpoint` assembles the full snapshot).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod histogram;
pub mod metric;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod state;

pub use counters::{CounterBlock, CounterCell};
pub use histogram::{Histogram, HistogramSummary};
pub use metric::RouterCounter;
pub use registry::TelemetryRegistry;
pub use snapshot::{telemetry_hash, TelemetrySnapshot, TELEMETRY_SCHEMA};
pub use state::{State, StateError, StateReader, StateWithin, StateWriter};

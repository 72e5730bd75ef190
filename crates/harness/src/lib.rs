//! # metro-harness — the unified experiment harness
//!
//! Every paper artifact (figure, table, ablation, sweep) in this
//! workspace is reproduced by a deterministic experiment. This crate is
//! the shared machinery those experiments run on:
//!
//! * [`artifact`] — a registry of named artifacts (description,
//!   quick/full profiles, run function) that the `metro` CLI fronts:
//!   `metro list`, `metro run fig3 --quick --json --jobs 8`,
//!   `metro run --all`.
//! * [`executor`] — a `std::thread::scope` worker pool mapping a
//!   function over independent sweep points. Results come back in input
//!   order, so a parallel sweep is bit-identical to a sequential one as
//!   long as each point's randomness is derived from the point itself
//!   (see `metro_sim::experiment::point_seed`). Also home of
//!   [`TickPool`], the persistent barrier-synchronised worker pool the
//!   sharded Flat engine drives its per-phase tick fan-out through.
//! * [`json`] — a dependency-free JSON document model: a writer that
//!   every artifact emits through, and a small parser used to
//!   round-trip-validate everything written and to update the results
//!   manifest in place.
//! * [`document`] — the decode discipline every document shares: a
//!   path-tracking cursor with typed leaf readers and unknown-field
//!   rejection, one `DecodeError`, one digest seal.
//! * [`results`] — the results layer: one `results/<artifact>.json`
//!   per run plus `results/manifest.json` recording artifact name, git
//!   revision, wall-clock, point count, worker count, and parameters.
//! * [`supervisor`] — crash-safe artifact execution: panics and error
//!   returns quarantined as typed manifest failures.
//! * [`cli`] — argument parsing and the runner behind the `metro`
//!   binary.
//!
//! The crate depends only on `std`; it sits below `metro-sim` and
//! `metro-timing` in the workspace graph so their sweep functions can
//! be rebuilt on the executor.

// `deny` rather than `forbid`: the one sanctioned exception is the
// lifetime-erased job slot inside `executor::TickPool` (see the SAFETY
// comments there), which carries a narrowly-scoped `#[allow]`. All
// other code in this crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cli;
pub mod document;
pub mod executor;
pub mod json;
pub mod log;
pub mod results;
pub mod supervisor;

pub use artifact::{Artifact, ArtifactOutput, Registry, RunCtx};
pub use executor::{default_jobs, panic_payload, par_map, TickPool};
pub use json::Json;
pub use log::Verbosity;
pub use results::{ResultsDir, ResultsError, RunRecord};
pub use supervisor::{supervise, FailureKind, PointFailure};

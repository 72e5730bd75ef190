//! # metro — a reproduction of the METRO router architecture (ISCA 1994)
//!
//! This facade crate re-exports the full METRO workspace:
//!
//! * [`core`] — the routing component itself: dilated crossbars,
//!   pipelined circuit switching, stochastic path selection, connection
//!   reversal, width cascading.
//! * [`topo`] — multipath multistage topologies: multibutterflies and
//!   fat-trees, wiring, path analysis, fault injection.
//! * [`sim`] — a cycle-accurate network simulator with source-responsible
//!   network interfaces and workload generation.
//! * [`timing`] — the analytic latency model behind the paper's
//!   Tables 3–5.
//! * [`scan`] — the IEEE 1149.1 scan subsystem (TAP, MultiTAP, boundary
//!   scan, on-line fault diagnosis).
//! * [`harness`] — the experiment harness: the artifact registry behind
//!   the `metro` CLI, the deterministic parallel point executor, and
//!   the machine-readable results layer (`results/*.json` + manifest).
//!
//! and adds one module of its own, [`scan_harness`]: a scan master for
//! a whole simulated network, which masks what
//! [`sim::NetworkSim::diagnose`] names bit-serially through the TAPs —
//! the offline transport of the fault loop the simulator's
//! self-healing layer closes online.
//!
//! See `README.md` for a guided tour and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use metro_core as core;
pub use metro_harness as harness;
pub use metro_scan as scan;
pub use metro_sim as sim;
pub use metro_timing as timing;
pub use metro_topo as topo;

pub mod scan_harness;

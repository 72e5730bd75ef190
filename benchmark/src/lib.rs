//! The METRO simulator's benchmark: end-to-end metrics measured
//! through the CLI's own entry points, per-layer metrics from a
//! separate traced pass, outputs checked on every run. `README.md`
//! has the metric and workload tables and how to run it.

// `deny`, not `forbid`: `host::thread_cpu_s` makes the one sanctioned
// exception, a call to `clock_gettime`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod host;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod pins;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

//! The 19 paper artifacts, as registry entries.
//!
//! Each module holds one [`metro_harness::Artifact`]: the run function
//! builds the human report into a string, returns the machine-readable
//! JSON document, and reports its point count and parameters for the
//! results manifest. An artifact is the only writer of its
//! `results/<name>.*` files, and it writes them through
//! `metro_harness::cli::run_one` — `metro run <name>` for all of them,
//! plus the `metro chaos` verb, which runs [`chaos`] with the storm's
//! flags in `RunCtx::flags` (the one artifact that reads them).
//!
//! Simulation artifacts honour `RunCtx::quick` by shortening their
//! measurement windows and `RunCtx::jobs` by running independent sweep
//! points on the shared worker pool ([`metro_harness::par_map`]). Both
//! profiles of a
//! sweep come from one construction path ([`crate::scenarios`]), and
//! sim-backed artifacts emit the declarative [`Scenario`] describing
//! their configuration for the `results/<name>.scenario.json` sidecar
//! and the manifest's `scenario_hash`.
//!
//! The five variant-by-load artifacts — [`ablation_selection`],
//! [`ablation_reclaim`], [`ablation_dilation`], [`ablation_concurrency`]
//! and [`traffic_patterns`] — are data: each names its variants, loads,
//! optional fault point and closing reading, and the private `grid`
//! runner measures the cells and writes everything they emit.
//!
//! [`Scenario`]: metro_sim::Scenario

use metro_harness::Registry;

pub mod ablation_concurrency;
pub mod ablation_dilation;
pub mod ablation_pipelining;
pub mod ablation_reclaim;
pub mod ablation_selection;
pub mod cascade_sim;
pub mod chaos;
pub mod fattree_budget;
pub mod fault_sweep;
pub mod fig1;
pub mod fig3;
mod grid;
pub mod message_sizes;
pub mod occupancy;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod traffic_patterns;

/// Builds the registry of every paper artifact, in the order the
/// paper presents them (figures, tables, robustness, ablations,
/// workload/scale studies).
#[must_use]
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(fig1::artifact());
    r.register(fig3::artifact());
    r.register(table2::artifact());
    r.register(table3::artifact());
    r.register(table4::artifact());
    r.register(table5::artifact());
    r.register(fault_sweep::artifact());
    r.register(chaos::artifact());
    r.register(ablation_selection::artifact());
    r.register(ablation_reclaim::artifact());
    r.register(ablation_dilation::artifact());
    r.register(ablation_pipelining::artifact());
    r.register(ablation_concurrency::artifact());
    r.register(traffic_patterns::artifact());
    r.register(scaling::artifact());
    r.register(cascade_sim::artifact());
    r.register(occupancy::artifact());
    r.register(fattree_budget::artifact());
    r.register(message_sizes::artifact());
    r
}

//! Ablation: fast path reclamation (BCB teardown) versus detailed
//! turn-time replies on blocked connections (paper §5.1, "Path
//! Reclamation — Fast and Detailed").

use super::grid::{vary, Grid};
use metro_harness::{Artifact, ArtifactOutput, RunCtx};

const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_reclaim",
        description: "fast vs detailed path reclamation under rising load",
        quick_profile: "2 modes × 3 loads, 2.5k measured cycles",
        full_profile: "2 modes × 3 loads, 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let base = crate::scenarios::sweep_for("ablation_reclaim", ctx.quick);
    Ok(Grid {
        name: "ablation_reclaim",
        title: "Ablation: fast vs detailed path reclamation",
        key: "mode",
        variants: vec![
            vary(&base, "fast", |s| s.sim.fast_reclaim = true),
            vary(&base, "detailed", |s| s.sim.fast_reclaim = false),
        ],
        loads: &LOADS,
        fault: None,
        sidecar_load: LOADS[1],
        reading: "expected shape: identical at low load (nothing blocks); as load grows,\n\
                  fast reclamation frees blocked paths sooner — lower latency and higher\n\
                  delivered throughput near saturation (\"Fast path reclamation allows\n\
                  stochastic search for non-faulty, uncongested paths to proceed rapidly\").",
        base,
    }
    .run(ctx.jobs))
}

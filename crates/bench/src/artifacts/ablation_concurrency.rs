//! Ablation: one transmit engine versus two. The Figure 3 caption
//! restricts each endpoint "to only use one of its entering network
//! ports at a time" — the parallelism-limited model; this experiment
//! measures what the restriction costs.

use super::grid::{vary, Grid};
use metro_harness::{Artifact, ArtifactOutput, RunCtx};

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_concurrency",
        description: "one vs two transmit engines per endpoint",
        quick_profile: "2 engine counts × 3 loads, 2.5k measured cycles",
        full_profile: "2 engine counts × 3 loads, 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let base = crate::scenarios::sweep_for("ablation_concurrency", ctx.quick);
    Ok(Grid {
        name: "ablation_concurrency",
        title: "Ablation: transmit engines per endpoint",
        key: "engines",
        variants: [1usize, 2]
            .map(|n| vary(&base, n, |c| c.sim.endpoint.max_concurrent = n))
            .into(),
        loads: &[0.3, 0.6, 0.9],
        fault: None,
        // The saturated end, where the second engine matters.
        sidecar_load: 0.9,
        reading: "expected shape: identical until a single engine saturates (~0.55 of\n\
                  capacity); past that, the second engine converts queueing delay into\n\
                  delivered throughput — at the cost of more in-network contention.",
        base,
    }
    .run(ctx.jobs))
}

//! Ablation: stochastic output selection (the METRO architecture)
//! versus round-robin and fixed-priority selection, under load and
//! under faults (§4: random selection is "the key to making the
//! protocol robust against dynamic faults").

use super::grid::{vary, Fault, FaultField, Grid};
use metro_core::SelectionPolicy;
use metro_harness::{Artifact, ArtifactOutput, RunCtx};

const LOADS: [f64; 2] = [0.2, 0.5];

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_selection",
        description: "random vs round-robin vs fixed backward-port selection",
        quick_profile: "3 policies × (2 loads + 1 fault point), 2.5k measured cycles",
        full_profile: "3 policies × (2 loads + 1 fault point), 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let base = crate::scenarios::sweep_for("ablation_selection", ctx.quick);
    let policies = [
        SelectionPolicy::Random,
        SelectionPolicy::RoundRobin,
        SelectionPolicy::Fixed,
    ];
    Ok(Grid {
        name: "ablation_selection",
        title: "Ablation: backward-port selection policy",
        key: "policy",
        variants: policies
            .map(|p| vary(&base, format!("{p:?}"), |c| c.sim.selection = p))
            .into(),
        loads: &LOADS,
        // Under faults the difference matters most: fixed selection
        // retries down the same path.
        fault: Some(Fault {
            routers: 3,
            links: 6,
            field: FaultField::DeadLinks,
        }),
        sidecar_load: LOADS[1],
        reading: "expected shape: random ≈ round-robin when healthy; under faults and\n\
                  contention, fixed priority concentrates traffic, raising retries/latency.",
        base,
    }
    .run(ctx.jobs))
}

//! Ablation: the multipath (dilated) network of Figure 3 versus a
//! non-dilated network of the same parts, and deterministic versus
//! randomized wiring. Dilation is METRO's source of path redundancy
//! (§2): it should buy both congestion relief under load and survival
//! under router faults.

use super::grid::{vary, Fault, FaultField, Grid};
use metro_harness::{Artifact, ArtifactOutput, RunCtx};
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

const LOADS: [f64; 2] = [0.2, 0.5];

/// A 64-endpoint network from the same 8x8 parts with dilation 1
/// everywhere: two stages of radix 8, no redundant paths inside the
/// network (only the two endpoint ports).
fn non_dilated() -> MultibutterflySpec {
    MultibutterflySpec {
        endpoints: 64,
        endpoint_ports: 2,
        stages: vec![StageSpec::new(8, 8, 1), StageSpec::new(8, 8, 1)],
        wiring: WiringStyle::Randomized,
        seed: 0x1994,
    }
}

/// Registry entry.
#[must_use]
pub fn artifact() -> Artifact {
    Artifact {
        name: "ablation_dilation",
        description: "dilated multipath vs non-dilated network, and wiring styles",
        quick_profile: "3 variants × (2 loads + 1 fault point), 2.5k measured cycles",
        full_profile: "3 variants × (2 loads + 1 fault point), 6k measured cycles",
        run,
    }
}

fn run(ctx: &RunCtx) -> Result<ArtifactOutput, String> {
    let base = crate::scenarios::sweep_for("ablation_dilation", ctx.quick);
    let deterministic = MultibutterflySpec::figure3().with_wiring(WiringStyle::Deterministic);
    Ok(Grid {
        name: "ablation_dilation",
        title: "Ablation: dilation and wiring style",
        key: "variant",
        variants: vec![
            vary(&base, "dilated 2/2/1 (paper)", |_| {}),
            vary(&base, "non-dilated radix-8 x2", |s| {
                s.topology = non_dilated();
            }),
            vary(&base, "dilated, deterministic wiring", |s| {
                s.topology = deterministic;
            }),
        ],
        loads: &LOADS,
        fault: Some(Fault {
            routers: 2,
            links: 0,
            field: FaultField::Load,
        }),
        sidecar_load: LOADS[1],
        reading: "expected shape: the dilated network rides through contention and router\n\
                  loss with modest retry counts; the non-dilated network concentrates\n\
                  blocking on its unique internal paths.",
        base,
    }
    .run(ctx.jobs))
}

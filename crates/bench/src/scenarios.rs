//! The single scenario-construction path for the artifact suite.
//!
//! Every sim-backed artifact starts from the base [`Scenario`]
//! [`sweep_for`] returns, so the quick and full profiles are two window
//! sets of *one* construction path. A sweep point is that base
//! [`at_load`](Scenario::at_load) its offered load, so the
//! `results/<artifact>.scenario.json` sidecars and the manifest's
//! `scenario_hash` name the very value the sweep runs. [`named`]
//! decodes the checked-in `scenarios/*.json` corpus, which is written
//! only as those files.

use metro_harness::Json;
use metro_sim::scenario::{codec, Scenario, WorkloadSpec};
use metro_sim::TrafficPattern;

/// Sets a load scenario's warmup, measure and drain windows, all that
/// tells one profile of an artifact from the other (a panic on a
/// scripted workload).
pub fn set_windows(s: &mut Scenario, windows: [u64; 3]) {
    let WorkloadSpec::Load {
        warmup,
        measure,
        drain,
        ..
    } = &mut s.workload
    else {
        panic!("scenario {:?} has a scripted workload, no windows", s.name)
    };
    [*warmup, *measure, *drain] = windows;
}

/// Sets a load scenario's destination pattern (a panic on a scripted
/// workload).
pub fn set_pattern(s: &mut Scenario, to: TrafficPattern) {
    let WorkloadSpec::Load { pattern, .. } = &mut s.workload else {
        panic!("scenario {:?} has a scripted workload, no pattern", s.name)
    };
    *pattern = to;
}

/// The per-artifact sweep catalog: `artifact`'s base scenario, named
/// after it, at load 0 until a sweep sets one ([`Scenario::at_load`]).
/// One function owns every artifact's quick *and* full windows, so the
/// two profiles measure the same configuration at different lengths by
/// construction.
#[must_use]
pub fn sweep_for(artifact: &str, quick: bool) -> Scenario {
    let mut base = Scenario::figure3(artifact, 0.0);
    match artifact {
        "fig3" if quick => set_windows(&mut base, [500, 3_000, 1_000]),
        "fault_sweep" if quick => set_windows(&mut base, [500, 3_000, 1_500]),
        "ablation_selection"
        | "ablation_reclaim"
        | "ablation_dilation"
        | "ablation_concurrency"
        | "traffic_patterns" => {
            let windows = if quick {
                [500, 2_500, 1_500]
            } else {
                [2_000, 6_000, 3_000]
            };
            set_windows(&mut base, windows);
        }
        "scaling" if quick => set_windows(&mut base, [500, 2_500, 1_500]),
        // Full-length fig3 / fault_sweep / scaling keep the Figure 3
        // windows; unloaded probes (cascade_sim, ablation_pipelining)
        // use them regardless of profile.
        _ => {}
    }
    base
}

/// Encodes a scenario for an [`metro_harness::ArtifactOutput`] sidecar.
#[must_use]
pub fn emit(scenario: &Scenario) -> Json {
    codec::encode(scenario)
}

/// One corpus entry: `name` and the embedded `scenarios/<name>.json`.
macro_rules! corpus_file {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../scenarios/", $name, ".json")),
        )
    };
}

/// The checked-in corpus, `(name, file text)` in file-name order. Each
/// file is the only definition of its scenario; DESIGN.md §10 gives the
/// reason each one exists.
pub const CORPUS: [(&str, &str); 11] = [
    corpus_file!("cascade_w4"),
    corpus_file!("chaos_smoke"),
    corpus_file!("fattree"),
    corpus_file!("fault_masking"),
    corpus_file!("figure1"),
    corpus_file!("figure3_load"),
    corpus_file!("hotspot_burst"),
    corpus_file!("metro1k"),
    corpus_file!("table4_hw0"),
    corpus_file!("table4_hw1"),
    corpus_file!("trace_replay"),
];

/// Decodes the corpus scenario `name`, or `None` if the corpus has no
/// such file.
///
/// # Panics
///
/// If the embedded file does not decode, which the corpus test refuses.
#[must_use]
pub fn named(name: &str) -> Option<Scenario> {
    let (_, text) = CORPUS.iter().find(|(n, _)| *n == name)?;
    Some(codec::from_text(text).unwrap_or_else(|e| panic!("scenarios/{name}.json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_sim::scenario::run_scenario;

    #[test]
    fn quick_and_full_share_one_construction_path() {
        for artifact in [
            "fig3",
            "fault_sweep",
            "ablation_selection",
            "ablation_reclaim",
            "ablation_dilation",
            "ablation_concurrency",
            "traffic_patterns",
            "scaling",
            "cascade_sim",
            "ablation_pipelining",
        ] {
            let mut quick = sweep_for(artifact, true);
            let full = sweep_for(artifact, false);
            // The profiles may differ only in their time windows: with
            // those equalised, the whole scenarios are equal.
            let WorkloadSpec::Load {
                warmup,
                measure,
                drain,
                ..
            } = full.workload
            else {
                panic!("{artifact}: a sweep offers a load")
            };
            set_windows(&mut quick, [warmup, measure, drain]);
            assert_eq!(quick, full, "{artifact}: profiles drifted apart");
            assert_eq!(full.name, artifact);
        }
    }

    #[test]
    fn at_load_changes_only_the_load() {
        let base = sweep_for("fig3", true);
        let s = base.at_load(0.25);
        let WorkloadSpec::Load { load, .. } = s.workload else {
            panic!("a sweep offers a load")
        };
        assert_eq!(load, 0.25);
        assert_eq!(s.at_load(0.0), base, "the base offers load 0");
    }

    #[test]
    fn chaos_smoke_scenario_heals_and_delivers() {
        let s = named("chaos_smoke").unwrap();
        assert!(s.sim.self_heal, "chaos_smoke must run with healing on");
        let r = run_scenario(&s).expect("runnable");
        assert_eq!(r.abandoned, 0, "healing scenario must lose no messages");
        assert_eq!(r.outcomes.len(), 14);
        assert_eq!(r.delivered, 14);
    }

    #[test]
    fn fattree_scenario_is_the_unfolded_binary_fat_tree() {
        use metro_topo::fattree::{FatTree, FatTreeSpec};
        use metro_topo::multibutterfly::WiringStyle;

        // The second network class the paper builds from METRO parts
        // (§2): a binary fat-tree unfolded into radix-2 dilation-2 stages.
        let tree = FatTree::build(&FatTreeSpec::binary(3, 2)).unwrap();
        assert_eq!(
            named("fattree").unwrap().topology,
            tree.to_multibutterfly(WiringStyle::Randomized, 0xFA7)
        );
    }

    #[test]
    fn fattree_scenario_delivers_identically_on_both_engines() {
        use metro_sim::network::EngineKind;

        let base = named("fattree").unwrap();
        let mut flat = base.clone();
        flat.sim.engine = EngineKind::Flat;
        let mut reference = base;
        reference.sim.engine = EngineKind::Reference;

        let f = run_scenario(&flat).expect("runnable on flat");
        let r = run_scenario(&reference).expect("runnable on reference");
        assert_eq!(f.delivered, 10, "all sends must deliver");
        assert_eq!(f.abandoned, 0);
        assert_eq!(
            f.outcome_digest(),
            r.outcome_digest(),
            "fat-tree unfolding must not split the engines"
        );
    }

    #[test]
    fn fault_masking_scenario_survives_its_faults() {
        let s = named("fault_masking").unwrap();
        let r = run_scenario(&s).expect("runnable");
        assert_eq!(r.abandoned, 0, "masking scenario must lose no messages");
        assert_eq!(r.delivered, 10);
        assert_eq!(r.outcomes.len(), 10);
        // (fabric_idle is not asserted: a router killed mid-connection
        // can legitimately leave a half-open path in the fabric.)
    }
}

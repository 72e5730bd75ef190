//! "One run loop" as a Tier-1 fact: outside `network.rs` the only
//! non-test code that advances the clock is `scenario::Run::step`, and
//! the only non-test code that spells a driver's `StreamRecipe` is
//! `Run::new` (the estimator spells the `schedule()` side). "One
//! measured point": a `LoadPoint` is built in `experiment.rs` alone
//! (`LoadPoint::measured`, which the run and the estimator both call).
//! "One lowering" likewise: the simulator checks a scenario in
//! `fabric.rs` alone.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            rust_files(&entry, out);
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

/// Files under `src` and `crates/*/src` whose non-test, non-comment
/// code (up to the first `#[cfg(test)]`) contains `needle`.
fn files_with(needle: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        let count = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//") && l.contains(needle))
            .count();
        let name = file.strip_prefix(root).unwrap().display().to_string();
        hits.extend(std::iter::repeat_n(name, count));
    }
    hits.sort();
    hits
}

#[test]
fn the_clock_has_one_caller_outside_the_network() {
    let mut ticks = files_with(".tick()");
    ticks.retain(|f| f != "crates/sim/src/network.rs");
    assert_eq!(ticks, ["crates/sim/src/scenario/run.rs"]);
}

#[test]
fn a_workload_driver_is_built_in_one_place() {
    assert_eq!(
        files_with("StreamRecipe {"),
        [
            "crates/sim/src/engine/analytic.rs",
            "crates/sim/src/scenario/run.rs"
        ]
    );
}

#[test]
fn a_load_point_is_built_in_one_place() {
    let mut hits = files_with("LoadPoint {");
    hits.dedup();
    assert_eq!(hits, ["crates/sim/src/experiment.rs"]);
}

#[test]
fn a_scenario_is_checked_in_one_place() {
    // Router parameters, the header plan (which asserts what they
    // refuse) and the workload's checks against the endpoint count.
    for needle in ["ArchParams::new(", ".header_plan(", ".validate("] {
        let mut hits = files_with(needle);
        hits.retain(|f| f.starts_with("crates/sim/src/"));
        hits.dedup();
        assert_eq!(hits, ["crates/sim/src/fabric.rs"], "{needle}");
    }
}

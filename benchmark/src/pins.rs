//! Pinned outputs: each workload's `outcome_digest` and exact
//! simulated metrics for the default seed at full scale, kept in
//! `workloads/<name>.json`. A simulator-only change must leave them
//! identical; a change to the modelled design pastes in the outputs
//! the failed reps print, and says so.

use crate::measure::Outputs;
use crate::workloads::DEFAULT_SEED;
use metro_harness::Json;

/// One workload's pinned outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    /// The outputs every default-seed rep must reproduce.
    pub outputs: Outputs,
}

fn pin_text(workload: &str) -> &'static str {
    match workload {
        "fig3_busy" => include_str!("../workloads/fig3_busy.json"),
        "metro1k_sparse" => include_str!("../workloads/metro1k_sparse.json"),
        "metro1k_shard2" => include_str!("../workloads/metro1k_shard2.json"),
        "fig3_faulty_burst" => include_str!("../workloads/fig3_faulty_burst.json"),
        other => panic!("no pins for workload {other:?}"),
    }
}

impl Pins {
    /// The pins compiled in for a workload.
    ///
    /// # Panics
    ///
    /// Panics if the checked-in pin file is malformed — a defect in
    /// this package, not in the program under test.
    #[must_use]
    pub fn of(workload: &str) -> Self {
        let doc = Json::parse(pin_text(workload)).expect("pin file is JSON");
        assert_eq!(
            doc.get("seed").and_then(Json::as_f64),
            Some(DEFAULT_SEED as f64),
            "pins belong to the default seed"
        );
        let outputs = Outputs::from_result(doc.get("result").expect("pin file has a result"))
            .expect("pin file holds every checked output");
        Self { outputs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_workload_has_well_formed_pins() {
        for w in &WORKLOADS {
            let pins = Pins::of(w.name);
            assert!(pins.outputs.digest.starts_with("0x"), "{}", w.name);
            assert!(pins.outputs.retries > 0.0, "{}", w.name);
        }
    }
}

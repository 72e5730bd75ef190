//! A scenario no machine can be built from is refused alike by every
//! engine and by `metro scenario validate`: one message naming the
//! refused field's path, exit 1 — never a panic (exit 101) — whether the
//! file asks for a cycle engine or the analytic estimator. Lowering
//! (`Scenario::lower`) is the one place any of them is checked.

use metro_bench::scenario_cli::{run_file_with_options, validate_file};
use metro_harness::results::ResultsDir;
use metro_sim::scenario::{codec, Scenario, WorkloadSpec};
use metro_sim::{ArrivalProcess, EngineKind, RateMap, TraceEntry, TrafficPattern};
use std::path::Path;

/// One refused edit of a corpus scenario and the message it must get.
struct Case {
    what: &'static str,
    base: &'static str,
    edit: fn(&mut Scenario),
    message: &'static str,
}

/// The load workload's fields of a `figure3_load` edit.
fn load(s: &mut Scenario) -> (&mut TrafficPattern, &mut ArrivalProcess, &mut RateMap) {
    match &mut s.workload {
        WorkloadSpec::Load {
            pattern,
            arrival,
            rates,
            ..
        } => (pattern, arrival, rates),
        WorkloadSpec::Sends { .. } => unreachable!("figure3_load is a load workload"),
    }
}

const CASES: [Case; 10] = [
    Case {
        what: "a zero-width channel",
        base: "figure3_load",
        edit: |s| s.sim.width = 0,
        message: "scenario error at scenario.sim.width: \
                  channel width 0 cannot address 8 backward ports",
    },
    Case {
        what: "no endpoint ports",
        base: "figure1",
        edit: |s| s.topology.endpoint_ports = 0,
        message: "scenario error at scenario.topology.endpoint_ports: \
                  endpoint_ports must be at least 1",
    },
    Case {
        what: "endpoints the radices do not address",
        base: "figure1",
        edit: |s| s.topology.endpoints = 12,
        message: "scenario error at scenario.topology.endpoints: \
                  stage radices multiply to 16 but the network has 12 endpoints",
    },
    Case {
        what: "one wire delay for four boundaries",
        base: "figure1",
        edit: |s| s.sim.stage_wire_delays = Some(vec![0]),
        message: "scenario error at scenario.sim.stage_wire_delays: \
                  1 entries for 4 wire boundaries (stages + 1)",
    },
    Case {
        what: "no pipestages",
        base: "figure1",
        edit: |s| s.sim.pipestages = 0,
        message: "scenario error at scenario.sim.pipestages: \
                  at least one internal data pipeline stage is required",
    },
    Case {
        what: "a send from an endpoint the fabric lacks",
        base: "figure1",
        edit: |s| match &mut s.workload {
            WorkloadSpec::Sends { sends, .. } => sends[3].src = 99,
            WorkloadSpec::Load { .. } => unreachable!("figure1 is a scripted workload"),
        },
        message: "scenario error at scenario.workload.sends[3]: \
                  send names endpoint 99 -> 7 outside 0..16",
    },
    Case {
        what: "a permutation entry outside the fabric",
        base: "figure3_load",
        edit: |s| {
            let mut perm: Vec<usize> = (0..64).map(|i| (i + 1) % 64).collect();
            perm[3] = 69;
            *load(s).0 = TrafficPattern::Permutation(perm);
        },
        message: "scenario error at scenario.workload.pattern: \
                  permutation maps 3 -> 69 outside 0..64",
    },
    Case {
        what: "a self-targeting trace entry",
        base: "figure3_load",
        edit: |s| {
            *load(s).1 = ArrivalProcess::Trace(vec![TraceEntry {
                at: 0,
                src: 2,
                dest: 2,
                payload_words: 1,
            }]);
        },
        message: "scenario error at scenario.workload.arrival: \
                  trace entry 0 sends endpoint 2 to itself",
    },
    Case {
        what: "a short rate map",
        base: "figure3_load",
        edit: |s| *load(s).2 = RateMap::PerEndpoint(vec![1.0; 3]),
        message: "scenario error at scenario.workload.rates: \
                  rate map has 3 entries for 64 endpoints",
    },
    Case {
        what: "an empty measurement window",
        base: "figure3_load",
        edit: |s| match &mut s.workload {
            WorkloadSpec::Load { measure, .. } => *measure = 0,
            WorkloadSpec::Sends { .. } => unreachable!("figure3_load is a load workload"),
        },
        message: "scenario error at scenario.workload.measure: \
                  the measurement window must be at least 1 cycle",
    },
];

#[test]
fn a_refused_scenario_reads_alike_on_every_engine_and_validate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("metro-refused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let results = ResultsDir::new(dir.join("results"));
    for (k, case) in CASES.iter().enumerate() {
        let text = std::fs::read_to_string(root.join(format!("scenarios/{}.json", case.base)));
        let mut scenario = codec::from_text(&text.unwrap()).unwrap();
        (case.edit)(&mut scenario);
        for engine in EngineKind::ALL {
            scenario.sim.engine = engine;
            let file = dir.join(format!("case{k}_{}.json", engine.name()));
            std::fs::write(&file, codec::encode(&scenario).render()).unwrap();
            let file = file.to_str().unwrap();
            let what = format!("{} on {engine}", case.what);
            let run = run_file_with_options(file, &results, None, None);
            assert_eq!(run.unwrap_err(), case.message, "run: {what}");
            assert_eq!(
                validate_file(file).unwrap_err(),
                case.message,
                "validate: {what}"
            );
            for verb in ["run", "validate"] {
                let args = ["scenario", verb, file].map(String::from);
                assert_eq!(metro_bench::main(&args), 1, "{verb}: {what}");
            }
        }
    }
    assert!(!results.root().exists(), "a refused run records nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

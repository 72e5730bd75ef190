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

/// The load workload's fields of a `figure3_load` or `hotspot_burst` edit.
fn load(s: &mut Scenario) -> (&mut TrafficPattern, &mut ArrivalProcess, &mut RateMap) {
    match &mut s.workload {
        WorkloadSpec::Load {
            pattern,
            arrival,
            rates,
            ..
        } => (pattern, arrival, rates),
        WorkloadSpec::Sends { .. } => unreachable!("the base is a load workload"),
    }
}

const CASES: [Case; 20] = [
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
        what: "no stages",
        base: "figure1",
        edit: |s| {
            // One endpoint is the product of no radices.
            s.topology.stages.clear();
            s.topology.endpoints = 1;
        },
        message: "scenario error at scenario.topology.stages: \
                  a network needs at least one stage",
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
    Case {
        what: "a message stream longer than the measurement window",
        base: "figure3_load",
        edit: |s| match &mut s.workload {
            WorkloadSpec::Load { payload_words, .. } => *payload_words = 1_000_000_000,
            WorkloadSpec::Sends { .. } => unreachable!("figure3_load is a load workload"),
        },
        message: "scenario error at scenario.workload.payload_words: \
                  a 1000000003-word message stream outlasts the 1200-cycle measurement window",
    },
    Case {
        what: "a trace entry longer than the measurement window",
        base: "figure3_load",
        edit: |s| {
            *load(s).1 = ArrivalProcess::Trace(vec![
                TraceEntry {
                    at: 0,
                    src: 2,
                    dest: 5,
                    payload_words: 1,
                },
                TraceEntry {
                    at: 3,
                    src: 4,
                    dest: 7,
                    payload_words: 2_000,
                },
            ]);
        },
        message: "scenario error at scenario.workload.arrival.entries[1].payload_words: \
                  a 2003-word message stream outlasts the 1200-cycle measurement window",
    },
    Case {
        what: "a negative offered load",
        base: "figure3_load",
        edit: |s| match &mut s.workload {
            WorkloadSpec::Load { load, .. } => *load = -0.5,
            WorkloadSpec::Sends { .. } => unreachable!("figure3_load is a load workload"),
        },
        message: "scenario error at scenario.workload.load: \
                  offered load -0.5 (must be finite and >= 0)",
    },
    Case {
        what: "a hotspot share above 100 percent",
        base: "hotspot_burst",
        edit: |s| {
            *load(s).0 = TrafficPattern::Hotspot {
                target: 9,
                percent: 101,
            };
        },
        message: "scenario error at scenario.workload.pattern: \
                  hotspot percent 101 outside 0..=100",
    },
    Case {
        what: "wire rings past the ceiling",
        base: "figure1",
        edit: |s| s.sim.wire_delay = 100_000_000,
        message: "scenario error at scenario.sim.wire_delay: \
                  wires 100000000 cycles deep need 128000000000 bytes of pipeline registers, \
                  over the 1073741824-byte ceiling",
    },
    Case {
        what: "one boundary's wire rings past the ceiling",
        base: "figure3_load",
        edit: |s| s.sim.stage_wire_delays = Some(vec![0, 0, 0, 10_000_000]),
        message: "scenario error at scenario.sim.stage_wire_delays[3]: \
                  wires 10000000 cycles deep need 12800000000 bytes of pipeline registers, \
                  over the 1073741824-byte ceiling",
    },
    Case {
        what: "pipe buffers past the ceiling",
        base: "figure1",
        edit: |s| s.sim.pipestages = 1_000_000_000,
        message: "scenario error at scenario.sim.pipestages: \
                  routers 1000000000 pipestages deep need 767999999232 bytes of pipe buffers, \
                  over the 1073741824-byte ceiling",
    },
    Case {
        what: "a route header past the ceiling",
        base: "figure1",
        edit: |s| s.sim.header_words = 1_000_000_000,
        message: "scenario error at scenario.sim.header_words: \
                  1000000000 header words per router make a 3000000000-word route header, \
                  over the 65536-word ceiling",
    },
    Case {
        what: "more transmit engines than endpoint ports",
        base: "figure1",
        edit: |s| s.sim.endpoint.max_concurrent = 5,
        message: "scenario error at scenario.sim.endpoint.max_concurrent: \
                  5 transmit engines outside 1..=2 (one per output port)",
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

//! A scenario no machine can be built from is refused alike by every
//! engine: `metro scenario run` exits 1 with one typed message, never a
//! panic (exit 101), whether the file asks for a cycle engine or the
//! analytic estimator.

use metro_bench::scenario_cli::run_file_with_options;
use metro_harness::results::ResultsDir;
use metro_sim::scenario::codec;
use metro_sim::EngineKind;
use std::path::Path;

#[test]
fn a_zero_width_channel_is_refused_alike_by_every_engine() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/figure3_load.json"),
    )
    .unwrap();
    let mut scenario = codec::from_text(&text).unwrap();
    scenario.sim.width = 0;
    let dir = std::env::temp_dir().join(format!("metro-refused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut refusals = Vec::new();
    for engine in EngineKind::ALL {
        scenario.sim.engine = engine;
        let file = dir.join(format!("width0_{}.json", engine.name()));
        std::fs::write(&file, codec::encode(&scenario).render()).unwrap();
        let file = file.to_str().unwrap();
        let results = ResultsDir::new(dir.join("results"));
        let refusal = run_file_with_options(file, &results, None, None).unwrap_err();
        refusals.push((engine, refusal));
        let args = ["scenario", "run", file].map(String::from);
        assert_eq!(metro_bench::main(&args), 1, "{engine}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (engine, refusal) in &refusals {
        assert_eq!(
            refusal, "channel width 0 cannot address 8 backward ports",
            "{engine}"
        );
    }
}

//! Shard identity over the whole checked-in corpus: every
//! `scenarios/*.json` file must replay bit-identically on the sharded
//! Flat engine at shards ∈ {2, 4} versus the single-threaded tick —
//! outcome streams, run summaries, *and* telemetry snapshots.
//!
//! The unit-level shard checks (golden-equivalence proptests, the
//! shard fuzzer) cover randomized small fabrics; this suite pins the
//! real corpus, including the 1024-endpoint `metro1k` fabric the
//! sharded engine exists for.

use metro_sim::checkpoint::run_scenario_resumable;
use metro_sim::network::EngineKind;
use metro_sim::scenario::codec;
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_replays_bit_identically_at_every_shard_count() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let base = codec::from_text(&text).unwrap();

        let mut single = base.clone();
        single.sim.engine = EngineKind::Flat;
        single.sim.shards = 1;
        let (expect, sim1) = run_scenario_resumable(&single, None, None).expect("runnable");
        let snap1 = sim1.telemetry_snapshot(&base.name).to_json().render();

        for shards in [2usize, 4] {
            let mut sharded = base.clone();
            sharded.sim.engine = EngineKind::Flat;
            sharded.sim.shards = shards;
            let (got, sim_n) = run_scenario_resumable(&sharded, None, None).expect("runnable");
            assert_eq!(
                got,
                expect,
                "{}: result diverged at shards={shards}",
                path.display()
            );
            let snap_n = sim_n.telemetry_snapshot(&base.name).to_json().render();
            assert_eq!(
                snap_n,
                snap1,
                "{}: telemetry snapshot diverged at shards={shards}",
                path.display()
            );
        }
    }
}

//! The checked-in scenario corpus (`scenarios/*.json`) is the only
//! definition of its scenarios: embedded whole by `scenarios::CORPUS`,
//! canonical, and deterministic to replay.

use metro_bench::scenarios;
use metro_sim::scenario::{codec, run_scenario};
use std::path::PathBuf;
use std::process::Command;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("scenarios/ directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn the_corpus_table_is_the_directory() {
    let stems: Vec<String> = corpus_files()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let names: Vec<&str> = scenarios::CORPUS.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names, stems,
        "scenarios::CORPUS must list every scenarios/*.json, in file-name order"
    );
    for (name, _) in scenarios::CORPUS {
        let scenario = scenarios::named(name).expect("a corpus entry decodes");
        assert_eq!(scenario.name, name, "scenarios/{name}.json names another");
    }
    assert!(scenarios::named("no_such_scenario").is_none());
}

#[test]
fn corpus_files_are_canonical() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario =
            codec::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Byte-stable: re-encoding reproduces the file exactly.
        assert_eq!(
            codec::encode(&scenario).render(),
            text,
            "{0} is not canonical — `metro scenario dump {0}` prints its canonical bytes",
            path.display()
        );
    }
}

#[test]
fn dump_prints_each_corpus_file_byte_for_byte() {
    for path in corpus_files() {
        let out = Command::new(env!("CARGO_BIN_EXE_metro"))
            .args(["scenario", "dump"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}: {out:?}", path.display());
        assert!(
            out.stdout == std::fs::read(&path).unwrap(),
            "{}: dump changed the bytes",
            path.display()
        );
    }
}

#[test]
fn corpus_scenarios_replay_deterministically() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario = codec::from_text(&text).unwrap();
        let a = run_scenario(&scenario).expect("runnable");
        let b = run_scenario(&scenario).expect("runnable");
        assert_eq!(a, b, "{}: replay diverged", path.display());
        assert!(
            !a.outcomes.is_empty(),
            "{}: scenario produced no outcomes",
            path.display()
        );
    }
}

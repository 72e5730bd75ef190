//! A checkpoint is outside input: a sealed file whose state text names
//! more zero words than any machine could hold is refused by `metro
//! resume` with a typed error and exit 1 — never a panic (exit 101) or
//! an aborted allocation (exit 134).

use metro_bench::scenarios;
use metro_harness::document::seal;
use metro_harness::Json;
use metro_sim::scenario::Run;
use std::process::Command;

#[test]
fn resume_refuses_a_run_of_two_to_the_sixty_four_zeros_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("metro-hostile-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let s = scenarios::named("figure1").unwrap();
    let mut doc = Run::of(&s, None).unwrap().checkpoint(&s).to_json();
    doc.set("state", Json::arr([Json::from("*ffffffffffffffff")]));
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "checkpoint_hash");
    }
    seal(&mut doc, "checkpoint_hash");
    let file = dir.join("figure1.ckpt.json");
    std::fs::write(&file, doc.render()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_metro"))
        .arg("resume")
        .arg(&file)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("checkpoint decode error at checkpoint.state[0]")
            && stderr.contains("past 16 words a character"),
        "{stderr}"
    );
    assert!(
        !dir.join("results").exists(),
        "a refused resume wrote results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

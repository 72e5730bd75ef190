//! The unified experiment CLI: `metro list`, `metro run <artifact>...`,
//! `metro run --all --quick --json --jobs N`, `metro scenario
//! run|dump|validate|fuzz` for declarative scenario files (with
//! `--checkpoint-every`/`--checkpoint-dir` for crash-safe periodic
//! snapshots), `metro resume <ckpt>` to continue an interrupted
//! checkpointed run bit-identically, `metro chaos` for fault-storm
//! campaigns against the self-healing loop, and `metro report` to
//! render telemetry sidecars as per-stage tables. Every paper artifact
//! in the registry is reachable from here, and every run writes
//! `results/<artifact>.json` plus a `results/manifest.json` record
//! (with the scenario and telemetry hashes when the artifact emits
//! them).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(metro_bench::main(&args));
}

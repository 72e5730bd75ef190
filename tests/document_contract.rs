//! The document contract, where Tier-1 can see it: every committed
//! scenario, sidecar and checkpoint decodes and re-encodes to its exact
//! bytes, and every structurally mutated document is rejected with an
//! error that names the mutated place.

use metro_harness::document::{seal, DecodeError};
use metro_harness::Json;
use metro_sim::checkpoint::{resume_scenario, run_scenario_resumable, Checkpoint, CheckpointSink};
use metro_sim::scenario::{codec, run_scenario, Run, ScenarioResult, WorkloadSpec};
use metro_sim::NetworkSim;
use metro_telemetry::{snapshot, RouterCounter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The files in `dir` (repo-relative) whose names end in `suffix`.
fn files(dir: &str, suffix: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(repo(dir))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(suffix))
        .map(|n| format!("{dir}/{n}"))
        .collect();
    out.sort();
    out
}

#[test]
fn committed_scenarios_and_sidecars_re_encode_to_their_bytes() {
    let mut scenarios = files("scenarios", ".json");
    assert_eq!(scenarios.len(), 11, "{scenarios:?}");
    scenarios.extend(files("results", ".scenario.json"));
    for file in &scenarios {
        let text = read(file);
        let scenario = codec::from_text(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(codec::encode(&scenario).render(), text, "{file}");
    }
    let telemetry = files("results", ".telemetry.json");
    assert_eq!(scenarios.len() - 11 + telemetry.len(), 14, "sidecars");
    for file in &telemetry {
        let text = read(file);
        let snap = snapshot::from_text(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(snapshot::encode(&snap).render(), text, "{file}");
    }
}

const CKPT_FIXTURE: &str = "tests/fixtures/figure1.ckpt.json";

#[test]
fn the_checkpoint_fixture_keeps_its_bytes_and_resumes_to_the_straight_run() {
    // Written at cycle 100 of scenarios/figure1.json — mid-traffic — by
    // the build that introduced checkpoint schema 6.
    let text = read(CKPT_FIXTURE);
    let ckpt = Checkpoint::from_text(&text).unwrap();
    assert_eq!((ckpt.scenario.name.as_str(), ckpt.cycle), ("figure1", 100));
    let doc = ckpt.to_json();
    assert_eq!(doc.render(), text);
    assert_eq!(
        doc.get("checkpoint_hash").unwrap().as_str().unwrap(),
        "0x9999f841aa9064cb"
    );
    let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
    let straight = run_scenario(&ckpt.scenario).unwrap();
    assert_eq!(resumed.to_json().render(), straight.to_json().render());
}

/// Most state words are a counter at zero or an idle register, and the
/// document spells a word at its own width: the fixture's `"state"`
/// text — digits and separators — stays within 5 bytes a word (it was
/// 16 when every word was written at full width).
#[test]
fn the_fixtures_state_text_is_at_most_five_bytes_a_word() {
    let text = read(CKPT_FIXTURE);
    let words = Checkpoint::from_text(&text).unwrap().state.len();
    let doc = Json::parse(&text).unwrap();
    let chunks = doc.get("state").unwrap().as_arr().unwrap();
    let bytes: usize = chunks.iter().map(|c| c.as_str().unwrap().len()).sum();
    assert!(
        words > 3000 && bytes <= 5 * words,
        "{bytes} bytes of state text for {words} words"
    );
}

/// `scenarios/figure3_load.json` run straight, and its snapshots at
/// cycles 600 and 1500: 300 and 1200 cycles of measured deliveries.
fn figure3_load_snapshots() -> (ScenarioResult, [Checkpoint; 2]) {
    let scenario = codec::from_text(&read("scenarios/figure3_load.json")).unwrap();
    let mut taken = Vec::new();
    let mut sink = |c: &Checkpoint| {
        if c.cycle == 600 || c.cycle == 1500 {
            taken.push(c.clone());
        }
        Ok(())
    };
    let hook = CheckpointSink {
        every: 300,
        sink: &mut sink,
    };
    let (straight, _sim) = run_scenario_resumable(&scenario, None, Some(hook)).unwrap();
    (straight, taken.try_into().expect("two snapshots"))
}

/// Where the first section tagged `tag` starts in a snapshot's words.
fn section_at(c: &Checkpoint, tag: &str) -> usize {
    let mut word = [0; 8];
    word[..tag.len()].copy_from_slice(tag.as_bytes());
    let word = u64::from_le_bytes(word);
    c.state.iter().position(|&w| w == word).unwrap()
}

/// A snapshot is the machine and its results: the fabric is stateless,
/// so what the NICs hold is the messages in flight — not a log of every
/// payload delivered since cycle 0, which a scenario run cannot read.
#[test]
fn a_scenario_runs_snapshot_does_not_grow_with_its_deliveries() {
    let (straight, taken) = figure3_load_snapshots();
    // The words under the `endpoint` tags: from the first of them to the
    // section that follows the last. With the outcome history folded,
    // the stream is little more than the machine, so the NICs are held
    // to the routers' size rather than to a share of the whole.
    let endpoint_words = |c: &Checkpoint| section_at(c, "channels") - section_at(c, "endpoint");
    let [early, late] = [&taken[0], &taken[1]].map(endpoint_words);
    let routers = section_at(&taken[1], "endpoint") - section_at(&taken[1], "router");
    assert!(
        late < 2 * early && late < routers,
        "endpoint sections hold {early} words at cycle 600 and {late} at cycle 1500, \
         the routers {routers}"
    );
    let (resumed, _sim) = resume_scenario(&taken[1]).unwrap();
    assert_eq!(resumed.to_json().render(), straight.to_json().render());
}

/// A snapshot is the machine plus a fold of what it completed, so the
/// whole stream stops growing: figure 3 at load 0.4, snapshotted at
/// cycles 9,000 and 90,000, is the same size within 10 % in words, and
/// the results (`netstats` and the `outcomes` fold) stay under a quarter
/// of it — they were most of it while every outcome since cycle 0 was
/// written.
#[test]
fn a_scenario_runs_whole_snapshot_stops_growing() {
    let mut scenario = codec::from_text(&read("scenarios/figure3_load.json")).unwrap();
    let WorkloadSpec::Load {
        warmup, measure, ..
    } = &mut scenario.workload
    else {
        panic!("figure3_load is a load workload");
    };
    *measure = 90_000 - *warmup;
    let mut taken = Vec::new();
    let mut sink = |c: &Checkpoint| {
        if c.cycle == 9_000 || c.cycle == 90_000 {
            taken.push(c.clone());
        }
        Ok(())
    };
    let hook = CheckpointSink {
        every: 9_000,
        sink: &mut sink,
    };
    let (straight, _sim) = run_scenario_resumable(&scenario, None, Some(hook)).unwrap();
    let [early, late]: [Checkpoint; 2] = taken.try_into().expect("two snapshots");
    let (before, words) = (early.state.len(), late.state.len());
    assert!(
        10 * words.abs_diff(before) <= before,
        "{before} state words at cycle 9,000, {words} at cycle 90,000"
    );
    let results = section_at(&late, "telreg") - section_at(&late, "netstats");
    assert!(
        4 * results < words,
        "netstats and the fold hold {results} of {words} words at cycle 90,000"
    );
    assert_eq!(
        section_at(&late, "telreg") - section_at(&late, "outcomes"),
        5
    );
    let (resumed, _sim) = resume_scenario(&late).unwrap();
    assert_eq!(resumed.to_json().render(), straight.to_json().render());
}

/// A count lives once, in the routers: what a snapshot adds for
/// telemetry is a reset baseline per router and ten bounded series, and
/// a latency collector is its distinct values — neither grows with the
/// cycles run or the messages delivered.
#[test]
fn a_snapshots_telemetry_is_sized_by_routers_and_distinct_latencies() {
    let (_, taken) = figure3_load_snapshots();
    let mut delivered = Vec::new();
    for c in &taken {
        let run = Run::of(&c.scenario, Some(c)).unwrap();
        let (sim, stats) = (run.sim(), run.sim().stats());
        delivered.push(stats.delivered);

        // `telreg` is the stream's last section but for the driver's:
        // tag, interval, syncs, the synced total, the counted baseline,
        // and the counted series of (stride, pending ×2, counted samples).
        let telreg = section_at(c, "workload") - section_at(c, "telreg");
        let routers = sim.topology().total_routers();
        let series =
            RouterCounter::COUNT * (4 + sim.telemetry().series(RouterCounter::Opens).capacity());
        assert!(
            telreg <= RouterCounter::COUNT * (routers + 1) + series + 5,
            "cycle {}: {telreg} telreg words for {routers} routers",
            c.cycle
        );

        // `netstats` opens with the two collectors, each a run count and
        // its `(value, count)` pairs.
        let mut at = section_at(c, "netstats") + 1;
        for h in [&stats.total_latency, &stats.network_latency] {
            let distinct = h.histogram(1).iter().filter(|(_, n)| *n > 0).count();
            assert_eq!(c.state[at], distinct as u64, "cycle {}", c.cycle);
            assert!(
                distinct < h.count(),
                "latencies repeat by cycle {}",
                c.cycle
            );
            at += 1 + 2 * distinct;
        }
        assert_eq!(
            c.state[at], stats.delivered,
            "the collectors end where the counts begin"
        );
    }
    assert!(delivered[1] > 3 * delivered[0], "{delivered:?} delivered");
}

/// The state stream is the one part of a checkpoint the document
/// cursor cannot see into, and a valid seal is one FNV-1a away: every
/// word of the fixture's state, replaced by a small wrong value and by
/// a large one, must be refused by the restore with a typed error or
/// run on cleanly — never restore into a machine that a later tick
/// indexes out of range with, or whose latencies it underflows.
#[test]
fn every_mutated_state_word_is_refused_or_runs_clean() {
    let mut ckpt = Checkpoint::from_text(&read(CKPT_FIXTURE)).unwrap();
    let built = NetworkSim::from_scenario(&ckpt.scenario).unwrap();
    let (mut refused, mut ran, mut broke) = (0, 0, Vec::new());
    for at in 0..ckpt.state.len() {
        for value in [999, 1 << 40] {
            let saved = std::mem::replace(&mut ckpt.state[at], value);
            let mut sim = built.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if ckpt.restore_into(&mut sim, None).is_err() {
                    return false;
                }
                sim.run(48);
                let _ = sim.telemetry_snapshot("mutant");
                let now = sim.now();
                for o in sim.drain_outcomes() {
                    let latency = o.total_latency().max(o.network_latency());
                    assert!(latency <= now, "wrapped latency {latency}");
                }
                true
            }));
            ckpt.state[at] = saved;
            match outcome {
                Ok(false) => refused += 1,
                Ok(true) => ran += 1,
                Err(_) => broke.push((at, value)),
            }
        }
    }
    assert!(
        broke.is_empty(),
        "{} mutants restored, then broke the run: (word, value) {broke:?}",
        broke.len()
    );
    // The sweep saw both verdicts, so it is looking at a live machine.
    assert!(refused > 1000 && ran > 1000, "{refused} refused, {ran} ran");
}

/// One document kind under mutation: how its paths start, how it
/// decodes, and the seal to re-stamp after each mutation (if any).
struct Kind {
    root: &'static str,
    seal: Option<&'static str>,
    decode: fn(&Json) -> Option<DecodeError>,
}

/// Keys a decoder defaults when absent; removing one is not an error.
const OPTIONAL: [&str; 6] = [
    "telemetry_every",
    "self_heal",
    "shards",
    "repairs",
    "arrival",
    "rates",
];

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Decodes `doc` with the value at `at` (a trail of object keys and
/// array indices from the root) replaced by `mutate`'s result, and
/// demands an error at `want`.
fn expect_rejection(
    kind: &Kind,
    doc: &Json,
    at: &[String],
    mutate: &dyn Fn(&mut Json),
    want: &str,
    what: &str,
) {
    let mut mutant = doc.clone();
    let mut target = &mut mutant;
    for step in at {
        target = match target {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => unreachable!(),
        };
    }
    mutate(target);
    if let (Some(key), Json::Obj(pairs)) = (kind.seal, &mut mutant) {
        pairs.retain(|(k, _)| k != key);
        seal(&mut mutant, key);
    }
    match (kind.decode)(&mutant) {
        Some(e) => assert_eq!(e.path, want, "{what}: {e}"),
        None => panic!("{what} at {want:?} was accepted"),
    }
}

/// Walks `node` (found at `trail` / `path` inside `doc`) and, at every
/// object level, removes each key, adds an unknown key, and swaps each
/// scalar — array elements included — for a value of another type.
/// Returns the number of mutants tried.
fn mutate_everywhere(
    kind: &Kind,
    doc: &Json,
    node: &Json,
    trail: &mut Vec<String>,
    path: &str,
) -> usize {
    let mut tried = 0;
    let mut children: Vec<(String, String, &Json)> = Vec::new();
    match node {
        Json::Obj(pairs) => {
            expect_rejection(
                kind,
                doc,
                trail,
                &|o| o.set("zz_unknown", Json::Null),
                path,
                "an unknown key",
            );
            tried += 1;
            for (k, v) in pairs {
                if trail.is_empty() && kind.seal == Some(k.as_str()) {
                    continue;
                }
                if !OPTIONAL.contains(&k.as_str()) {
                    let remove = |o: &mut Json| {
                        let Json::Obj(pairs) = o else { unreachable!() };
                        pairs.retain(|(name, _)| name != k);
                    };
                    expect_rejection(kind, doc, trail, &remove, path, &format!("removing {k:?}"));
                    tried += 1;
                }
                children.push((k.clone(), join(path, k), v));
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                children.push((i.to_string(), format!("{path}[{i}]"), v));
            }
        }
        scalar => {
            let other = match scalar {
                Json::Bool(_) => Json::from("x"),
                _ => Json::Bool(true),
            };
            expect_rejection(
                kind,
                doc,
                trail,
                &|v| *v = other.clone(),
                path,
                "a retyped scalar",
            );
            return 1;
        }
    }
    for (step, child_path, child) in children {
        trail.push(step);
        tried += mutate_everywhere(kind, doc, child, trail, &child_path);
        trail.pop();
    }
    tried
}

#[test]
fn every_structural_mutant_is_rejected_at_the_mutated_path() {
    let scenario = Kind {
        root: "scenario",
        seal: None,
        decode: |d| codec::decode(d).err(),
    };
    let telemetry = Kind {
        root: "",
        seal: None,
        decode: |d| snapshot::decode(d).err(),
    };
    let checkpoint = Kind {
        root: "checkpoint",
        seal: Some("checkpoint_hash"),
        decode: |d| Checkpoint::from_json(d).err(),
    };
    for (kind, file, at_least) in [
        (&scenario, "scenarios/hotspot_burst.json", 100),
        (&scenario, "scenarios/chaos_smoke.json", 300),
        (&telemetry, "results/chaos.telemetry.json", 400),
        (&checkpoint, CKPT_FIXTURE, 400),
    ] {
        let doc = Json::parse(&read(file)).unwrap();
        assert!(
            (kind.decode)(&doc).is_none(),
            "{file} must decode unmutated"
        );
        let tried = mutate_everywhere(kind, &doc, &doc, &mut Vec::new(), kind.root);
        assert!(tried >= at_least, "{file}: only {tried} mutants");
    }
}

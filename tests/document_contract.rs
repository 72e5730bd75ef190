//! The document contract, where Tier-1 can see it: every committed
//! scenario, sidecar and checkpoint decodes and re-encodes to its exact
//! bytes, and every structurally mutated document is rejected with an
//! error that names the mutated place.

use metro_core::Word;
use metro_harness::document::{seal, DecodeError};
use metro_harness::Json;
use metro_sim::checkpoint::{resume_scenario, run_scenario_resumable, Checkpoint, CheckpointSink};
use metro_sim::scenario::{codec, run_scenario, Run, ScenarioResult, WorkloadSpec};
use metro_sim::NetworkSim;
use metro_telemetry::{snapshot, RouterCounter, State, StateError, StateWriter};
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
    // the build that introduced checkpoint schema 6, which kept the
    // destinations' delivery log, then brought to schema 7 by deleting
    // exactly the words schema 7 dropped, and respelled as schema 8.
    let text = read(CKPT_FIXTURE);
    let ckpt = Checkpoint::from_text(&text).unwrap();
    assert_eq!((ckpt.scenario.name.as_str(), ckpt.cycle), ("figure1", 100));
    let doc = ckpt.to_json();
    assert_eq!(doc.render(), text);
    assert_eq!(
        doc.get("checkpoint_hash").unwrap().as_str().unwrap(),
        "0x5e0c4cfc30bea1c2"
    );
    let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
    let straight = run_scenario(&ckpt.scenario).unwrap();
    assert_eq!(resumed.to_json().render(), straight.to_json().render());
}

const PIPELINED_FIXTURE: &str = "tests/fixtures/pipelined.ckpt.json";

/// FNV-1a over the words as little-endian bytes.
fn words_digest(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Schema 8 changed how the state words are spelled, not the words: the
/// fixtures were respelled from the words the schema-7 build decoded
/// from them, and these are that build's count and digest of those
/// words.
#[test]
fn the_fixtures_decode_to_the_words_their_schema_7_spelling_held() {
    for (fixture, words, digest) in [
        (CKPT_FIXTURE, 2592, 0x818c_3855_8ef9_c4dd),
        (PIPELINED_FIXTURE, 3116, 0x12ba_d81f_d2c4_c473),
    ] {
        let state = Checkpoint::from_text(&read(fixture)).unwrap().state;
        assert_eq!(
            (state.len(), words_digest(&state)),
            (words, digest),
            "{fixture}"
        );
    }
}

/// The outcome digest of `tests/fixtures/pipelined.json` run straight,
/// as the build that wrote the pipelined fixture reported it.
const PIPELINED_DIGEST: u64 = 0x491d_389c_bdd1_1869;

/// A port's three queues, in the order a router saves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queue {
    Fwd,
    Rev,
    Reply,
}

/// A read position in a snapshot's state words.
struct Cursor<'a> {
    state: &'a [u64],
    at: usize,
}

impl Cursor<'_> {
    fn next(&mut self) -> u64 {
        self.at += 1;
        self.state[self.at - 1]
    }

    fn count(&mut self) -> usize {
        self.next() as usize
    }

    fn skip(&mut self, words: usize) {
        self.at += words;
    }

    /// Skips a sequence of one-word items: its count, then the items.
    fn skip_seq(&mut self) {
        let n = self.count();
        self.skip(n);
    }
}

/// The word `word` is saved as.
fn packed(word: Word) -> u64 {
    let mut w = StateWriter::new();
    word.save_state(&mut w);
    w.into_words()[0]
}

/// Walks a snapshot's state words by the layout the router's and the
/// engines' `channels` walks write, and returns every port
/// queue as `(queue, index of its count word, count)` and the number of
/// words wire registers hold that are not `Empty`.
fn port_queues_and_wire_words(state: &[u64]) -> (Vec<(Queue, usize, usize)>, usize) {
    let tag = |name: &str| {
        let mut word = [0; 8];
        word[..name.len()].copy_from_slice(name.as_bytes());
        u64::from_le_bytes(word)
    };
    let (mut queues, mut wire_words) = (Vec::new(), 0);
    let mut c = Cursor { state, at: 0 };
    while c.at < state.len() {
        let word = c.next();
        if word == tag("router") {
            c.skip(1); // the random stream
            for _ in 0..c.count() {
                if c.next() == 1 {
                    c.skip(1); // the owning forward port
                }
            }
            c.skip(1); // IN-USE
            c.skip_seq(); // round-robin pointers
            c.skip(1 + RouterCounter::COUNT); // the activity bitplane, counters
            c.skip_seq(); // forward port modes
            c.skip_seq(); // backward port modes
            for _ in 0..c.count() {
                // FSM tag, then 0, 2 or 1 fields by `State` variant.
                let fields = [0, 2, 2, 2, 0, 0, 1, 0][c.count()];
                c.skip(fields);
                for queue in [Queue::Fwd, Queue::Rev, Queue::Reply] {
                    queues.push((queue, c.at, state[c.at] as usize));
                    c.skip_seq();
                }
                c.skip(1); // the checksum
            }
        } else if word == tag("channels") {
            (0..6).for_each(|_| c.skip_seq()); // the arena's lanes
            for _ in 0..2 {
                for _ in 0..c.count() {
                    let delay = c.count();
                    for _ in 0..2 * delay {
                        wire_words += usize::from(c.next() != packed(Word::Empty));
                    }
                    c.skip(delay + 1); // BCBs, words seen
                }
            }
        }
    }
    (queues, wire_words)
}

/// The cross-version fixture: written at cycle 142 of
/// `tests/fixtures/pipelined.json` (figure 1 at `dp = 2`, wire delays of
/// 1–2 cycles) by the build that still held a router's pipes and reply
/// queue and a wire's registers in growable queues, then brought to
/// schema 7 by deleting exactly the words schema 7 dropped, and
/// respelled as schema 8. Router
/// pipes, reply queues and wire registers all hold live words in it.
/// Both cycle engines share those types, so the Flat == Reference
/// differential cannot see a changed save order; this fixture does.
#[test]
fn the_pipelined_fixture_keeps_its_bytes_and_resumes_to_its_writers_digest() {
    let text = read(PIPELINED_FIXTURE);
    let ckpt = Checkpoint::from_text(&text).unwrap();
    assert_eq!(
        (ckpt.scenario.name.as_str(), ckpt.cycle),
        ("pipelined", 142)
    );
    assert_eq!(
        codec::encode(&ckpt.scenario).render(),
        read("tests/fixtures/pipelined.json")
    );
    let doc = ckpt.to_json();
    assert_eq!(doc.render(), text);
    assert_eq!(
        doc.get("checkpoint_hash").unwrap().as_str().unwrap(),
        "0xcb47e904cfa51671"
    );

    let (queues, wire_words) = port_queues_and_wire_words(&ckpt.state);
    assert!(
        queues
            .iter()
            .all(|&(q, _, held)| held <= [1, 1, 3][q as usize]),
        "the walk lost its place: {queues:?}"
    );
    for queue in [Queue::Fwd, Queue::Rev, Queue::Reply] {
        assert!(
            queues.iter().any(|&(q, _, held)| q == queue && held > 0),
            "no {queue:?} queue holds a word"
        );
    }
    assert!(wire_words > 0, "no wire register holds a word");

    let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
    let straight = run_scenario(&ckpt.scenario).unwrap();
    assert_eq!(straight.outcomes.digest(), PIPELINED_DIGEST);
    assert_eq!(resumed.to_json().render(), straight.to_json().render());
}

/// A restore refuses what no tick leaves behind: a pipe that is neither
/// empty nor `dp - 1` words long (it would run the port as a longer
/// pipeline until a teardown) and a reply queue longer than 3 words (it
/// would inject its words toward the source). Each mutant is otherwise
/// well formed — the count and as many words — and is refused at its
/// count word, in section `router`. Both fixtures: `dp = 1` and `dp = 2`.
#[test]
fn a_restore_refuses_pipes_and_reply_queues_no_tick_leaves() {
    let idle = packed(Word::DataIdle);
    for (fixture, cases) in [
        (
            CKPT_FIXTURE,
            [(Queue::Fwd, 3), (Queue::Rev, 1), (Queue::Reply, 4)],
        ),
        (
            PIPELINED_FIXTURE,
            [(Queue::Fwd, 3), (Queue::Rev, 2), (Queue::Reply, 8)],
        ),
    ] {
        let ckpt = Checkpoint::from_text(&read(fixture)).unwrap();
        let built = NetworkSim::from_scenario(&ckpt.scenario).unwrap();
        let (queues, _) = port_queues_and_wire_words(&ckpt.state);
        for (queue, len) in cases {
            let &(_, at, held) = queues.iter().find(|q| q.0 == queue).unwrap();
            let mut mutant = ckpt.clone();
            let words = std::iter::once(len as u64).chain(std::iter::repeat_n(idle, len));
            mutant.state.splice(at..=at + held, words);
            let err = mutant.restore_into(&mut built.clone(), None).unwrap_err();
            assert!(
                matches!(&err, StateError::BadValue { section, at: word, .. }
                    if section == "router" && *word == at),
                "{fixture}: a {len}-word {queue:?} queue at word {at}: {err}"
            );
        }
    }
}

/// Most state words are a counter at zero or an idle register, and the
/// document spells a word at its own width and a run of zeros as one
/// token: the fixture's `"state"` text — digits, run tokens and
/// separators — stays within 2 bytes a word (16 when every word was
/// written at full width, 2.58 with every zero spelled on its own) over
/// all 2,592 of its words.
#[test]
fn the_fixtures_state_text_is_at_most_two_bytes_a_word() {
    let text = read(CKPT_FIXTURE);
    let words = Checkpoint::from_text(&text).unwrap().state.len();
    let doc = Json::parse(&text).unwrap();
    let chunks = doc.get("state").unwrap().as_arr().unwrap();
    let bytes: usize = chunks.iter().map(|c| c.as_str().unwrap().len()).sum();
    assert!(
        words == 2592 && bytes <= 2 * words,
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
/// telemetry is a reset baseline per router, and a latency collector is
/// its distinct values — neither grows with the cycles run or the
/// messages delivered.
#[test]
fn a_snapshots_telemetry_is_sized_by_routers_and_distinct_latencies() {
    let (_, taken) = figure3_load_snapshots();
    let mut delivered = Vec::new();
    for c in &taken {
        let run = Run::of(&c.scenario, Some(c)).unwrap();
        let (sim, stats) = (run.sim(), run.sim().stats());
        delivered.push(stats.delivered);

        // `telreg` is the stream's last section but for the driver's:
        // tag, interval, syncs, and the counted baseline.
        let telreg = section_at(c, "workload") - section_at(c, "telreg");
        let routers = sim.topology().total_routers();
        assert_eq!(
            telreg,
            4 + RouterCounter::COUNT * routers,
            "cycle {}: telreg words for {routers} routers",
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
///
/// The verdicts are pinned: how many mutants are refused and how many
/// run, and an FNV-1a digest of every refused mutant's `(word, value,
/// section named)`. A change to what restore checks, or to where in the
/// stream it refuses, moves them.
#[test]
fn every_mutated_state_word_is_refused_or_runs_clean() {
    let mut ckpt = Checkpoint::from_text(&read(CKPT_FIXTURE)).unwrap();
    let built = NetworkSim::from_scenario(&ckpt.scenario).unwrap();
    let (mut refused, mut ran, mut digest, mut broke) = (0, 0, FNV_BASIS, Vec::new());
    for at in 0..ckpt.state.len() {
        for value in [999, 1 << 40] {
            let saved = std::mem::replace(&mut ckpt.state[at], value);
            let mut sim = built.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Err(e) = ckpt.restore_into(&mut sim, None) {
                    return Some(e);
                }
                sim.run(48);
                let _ = sim.telemetry_snapshot("mutant");
                let now = sim.now();
                for o in sim.drain_outcomes() {
                    let latency = o.total_latency().max(o.network_latency());
                    assert!(latency <= now, "wrapped latency {latency}");
                }
                None
            }));
            ckpt.state[at] = saved;
            match outcome {
                Ok(Some(e)) => {
                    refused += 1;
                    fold_refusal(&mut digest, at, value, &e);
                }
                Ok(None) => ran += 1,
                Err(_) => broke.push((at, value)),
            }
        }
    }
    assert!(
        broke.is_empty(),
        "{} mutants restored, then broke the run: (word, value) {broke:?}",
        broke.len()
    );
    // Six of the refusals are a settle count of 2⁴⁰ (words 53, 65, 488,
    // 867, 1036 and 1189), which a port's `u32` counter does not hold.
    assert_eq!(
        (refused, ran, digest),
        (3396, 1788, 0xa0dc_47f1_6f7e_9d4f),
        "(refused, ran, digest of the refusals)"
    );
}

/// The FNV-1a offset basis: the digest of no refusals.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one refused mutant — the word it replaced, the value it wrote
/// and the section the refusal names — into an FNV-1a digest.
fn fold_refusal(digest: &mut u64, at: usize, value: u64, e: &StateError) {
    let section = match e {
        StateError::BadValue { section, .. } | StateError::UnexpectedEnd { section } => section,
        StateError::TagMismatch { expected, .. } => expected,
    };
    let bytes = (at as u64)
        .to_le_bytes()
        .into_iter()
        .chain(value.to_le_bytes());
    for b in bytes.chain(section.bytes()) {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
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
        (&telemetry, "results/fig3.telemetry.json", 400),
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

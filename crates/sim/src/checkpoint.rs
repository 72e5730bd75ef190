//! Crash-safe checkpoints: a schema-versioned envelope capturing a
//! scenario run mid-flight, from which [`Run::of`] continues it
//! bit-identically.
//!
//! A checkpoint is taken at a **tick boundary** — after `sim.tick()`
//! for some cycle `c`, before anything of cycle `c + 1` happens — and
//! records three things:
//!
//! 1. the **scenario** itself (embedded verbatim, plus its
//!    `scenario_hash`), so a checkpoint file is self-contained: resume
//!    needs no side channel to the original `scenarios/*.json`;
//! 2. the **runner position** (`phase`, `cycle`): how many cycles had
//!    completed, and — derived from that count by [`Run::checkpoint`],
//!    spelled out for a reader of the file — whether the run was still
//!    offering traffic or draining;
//! 3. the **machine state** as one flat word stream
//!    ([`NetworkSim::save_state`] followed, for `Load` workloads, by
//!    the [`WorkloadDriver`]'s stream positions), hex-chunked into the
//!    JSON document.
//!
//! The envelope follows the scenario codec's conventions exactly (one
//! cursor, [`metro_harness::document`], reads both): unknown fields
//! are rejected at every object level, the schema version is checked
//! first, and `checkpoint_hash` is the FNV-1a digest of the rest of
//! the document — a corrupt or truncated file fails loudly at decode,
//! never as a silently divergent resume.
//!
//! That cursor stops at the `state` array. The words inside are read
//! by the second cursor, [`metro_telemetry::state`], and a valid seal
//! is one FNV-1a away, so they are outside input too:
//! [`Checkpoint::restore_into`] returns a [`StateError`] — naming the
//! section and the word — for any word that does not fit the machine
//! the scenario builds, including every index a later tick would use
//! and every timestamp it would subtract from the clock
//! ([`NetworkSim::restore_state`]).
//!
//! Every cycle engine keeps one buffer of channel inputs and writes it
//! in the same slot order ([`Engine::save_state`]), so at a tick
//! boundary the state words do not depend on what stepped the machine:
//! a run checkpointed under Flat at `shards = 4` resumes bit-identically
//! under `shards = 1` or under Reference, and vice versa (re-target the
//! embedded scenario's `sim.engine` / `sim.shards`). The bit-identity
//! contract — run `N` cycles, checkpoint, restore, run `M` more ≡ run
//! `N + M` straight — is proven by the `checkpoint_identity` proptest
//! suite in `tests/`.
//!
//! [`Engine::save_state`]: crate::engine::Engine::save_state
//! [`Run::of`]: crate::scenario::Run::of
//! [`Run::checkpoint`]: crate::scenario::Run::checkpoint

#![deny(clippy::cast_possible_truncation)]

use crate::network::NetworkSim;
use crate::scenario::codec::{self, dec_schema, CodecError};
use crate::scenario::{Scenario, WorkloadSpec};
use crate::workload::WorkloadDriver;
use metro_harness::document::{seal, Fields, Node};
use metro_harness::Json;
use metro_telemetry::{StateError, StateReader, StateWriter};

pub use crate::scenario::run::{resume_scenario, run_scenario_resumable, CheckpointSink, SinkFn};

/// The checkpoint schema version this build writes, and the only one it
/// reads: a checkpoint is a crash-recovery file of the build that wrote
/// it, so no reader for older layouts is kept.
///
/// Version history:
/// * **1** — original schema: embedded scenario, `(phase, cycle)`
///   runner position, hex-chunked state words; the engine's part of the
///   stream was an engine-named section (`flateng` with two arenas, or
///   nested `refeng`).
/// * **2** — the engine's part is one engine-neutral `channels`
///   section. Same envelope, so a version-1 file is refused here, at
///   `checkpoint.checkpoint_schema`, not deep in the state restore.
/// * **3** — a message in flight is one `segments` sequence and a
///   cursor (was three sequences), nothing carries a second record of
///   each failed attempt, and a scenario run keeps no destination-side
///   delivery log. Same envelope; versions 1 and 2 are refused.
/// * **4** — a count is saved once: `telreg` is the sync bookkeeping,
///   the last-synced network total, the reset baseline and the series
///   (was three per-router blocks), and each `netstats` histogram is
///   its `(value, count)` runs (was one word per sample, in sample
///   order, plus a sorted flag). Same envelope; versions 1–3 are
///   refused.
pub const CHECKPOINT_SCHEMA: u64 = 4;

/// Hex characters per `"state"` array entry. Chunking keeps lines
/// editor- and diff-friendly; the chunk boundaries carry no meaning.
const HEX_CHUNK: usize = 4096;

/// Which part of a run a checkpoint was taken in, as the envelope
/// spells it: a function of the cycle
/// ([`Run::checkpoint`](crate::scenario::Run::checkpoint)), never a
/// cursor of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// The driven portion: warmup + measurement for `Load` workloads,
    /// the whole scripted schedule for `Sends`.
    Main,
    /// The post-measurement drain (`Load` workloads only).
    Drain,
}

impl RunPhase {
    /// The canonical document spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Main => "main",
            RunPhase::Drain => "drain",
        }
    }

    /// Parses the canonical spelling back.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "main" => Some(RunPhase::Main),
            "drain" => Some(RunPhase::Drain),
            _ => None,
        }
    }
}

/// A complete, self-contained snapshot of one scenario run at a tick
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The scenario being run, embedded verbatim.
    pub scenario: Scenario,
    /// Whether the run was driven or draining (derived from `cycle`).
    pub phase: RunPhase,
    /// Cycles completed — equivalently, the next cycle index to run.
    pub cycle: u64,
    /// The flat state words: [`NetworkSim::save_state`], then (for
    /// `Load` workloads) [`WorkloadDriver::save_state`].
    pub state: Vec<u64>,
}

impl Checkpoint {
    /// Snapshots a live run. `driver` must be given exactly when the
    /// scenario's workload is [`WorkloadSpec::Load`].
    #[must_use]
    pub fn capture(
        scenario: &Scenario,
        sim: &NetworkSim,
        driver: Option<&WorkloadDriver>,
        phase: RunPhase,
        cycle: u64,
    ) -> Self {
        let mut w = StateWriter::new();
        sim.save_state(&mut w);
        if let Some(d) = driver {
            d.save_state(&mut w);
        }
        Self {
            scenario: scenario.clone(),
            phase,
            cycle,
            state: w.into_words(),
        }
    }

    /// Restores the captured machine state into a freshly built sim
    /// (and driver, for `Load` workloads). The sim must come from
    /// [`NetworkSim::from_scenario`] on this checkpoint's scenario.
    ///
    /// # Errors
    ///
    /// [`StateError`] on a corrupt or mismatched state stream.
    pub fn restore_into(
        &self,
        sim: &mut NetworkSim,
        driver: Option<&mut WorkloadDriver>,
    ) -> Result<(), StateError> {
        let mut r = StateReader::new(&self.state);
        sim.restore_state(&mut r)?;
        if let Some(d) = driver {
            d.restore_state(&mut r)?;
        }
        r.finish()
    }

    /// Encodes the checkpoint as a schema-versioned JSON document. Key
    /// order, hex chunking, and the trailing `checkpoint_hash` are all
    /// fixed, so equal checkpoints render byte-identically — a resumed
    /// run's later checkpoints match the straight run's byte for byte.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("checkpoint_schema", Json::from(CHECKPOINT_SCHEMA)),
            ("scenario", codec::encode(&self.scenario)),
            (
                "scenario_hash",
                Json::from(codec::scenario_hash(&self.scenario)),
            ),
            (
                "runner",
                Json::obj([
                    ("phase", Json::from(self.phase.name())),
                    ("cycle", Json::from(self.cycle)),
                ]),
            ),
            (
                "state",
                Json::arr(state_chunks(&self.state).into_iter().map(Json::from)),
            ),
        ]);
        // The digest covers everything above it; appending it last
        // keeps "hash the document minus this field" well-defined.
        seal(&mut doc, "checkpoint_hash");
        doc
    }

    /// Decodes a checkpoint document: schema gate, digest check,
    /// embedded-scenario decode (with its own hash cross-checked),
    /// runner-position sanity, state words.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming the offending field.
    pub fn from_json(doc: &Json) -> Result<Self, CodecError> {
        Node::root("checkpoint", "checkpoint", doc).object(|f| {
            dec_schema(
                f,
                "checkpoint_schema",
                CHECKPOINT_SCHEMA..=CHECKPOINT_SCHEMA,
            )?;
            // Integrity first: a flipped bit anywhere in the document
            // is a digest mismatch, not a subtly different restored
            // machine.
            f.verify_seal("checkpoint_hash")?;
            let scenario = codec::decode_node(&f.req("scenario")?)?;
            let header = f.req("scenario_hash")?;
            let (declared, actual) = (header.str()?, codec::scenario_hash(&scenario));
            if declared != actual {
                return header.err(format!(
                    "embedded scenario hashes to {actual}, header says {declared}"
                ));
            }
            let (phase, cycle) = f.req("runner")?.object(|f| dec_position(&scenario, f))?;
            Ok(Self {
                scenario,
                phase,
                cycle,
                state: dec_state(&f.req("state")?)?,
            })
        })
    }

    /// Parses and decodes a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse diagnostic or the decode error as a
    /// string.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc).map_err(|e| e.to_string())
    }
}

/// Reads the runner position, rejecting one a run of the scenario
/// could never have produced — a mislabelled or hand-mangled file,
/// caught at decode.
fn dec_position(
    scenario: &Scenario,
    f: &mut Fields<'_, '_>,
) -> Result<(RunPhase, u64), CodecError> {
    let phase_node = f.req("phase")?;
    let phase = phase_node.variant("run phase", RunPhase::from_name)?;
    let cycle_node = f.req("cycle")?;
    let cycle = cycle_node.u64()?;
    match &scenario.workload {
        WorkloadSpec::Load {
            warmup,
            measure,
            drain,
            ..
        } => {
            let total = warmup + measure;
            let ok = match phase {
                RunPhase::Main => cycle <= total,
                RunPhase::Drain => cycle >= total && cycle <= total + drain,
            };
            if !ok {
                return cycle_node.err(format!(
                    "cycle {cycle} is outside the {} phase of a \
                     warmup={warmup} measure={measure} drain={drain} workload",
                    phase.name()
                ));
            }
        }
        WorkloadSpec::Sends { cycles, .. } => {
            if phase == RunPhase::Drain {
                return phase_node.err("a scripted workload has no drain phase");
            }
            if cycle > *cycles {
                return cycle_node.err(format!(
                    "cycle {cycle} is beyond the schedule's {cycles} cycles"
                ));
            }
        }
    }
    Ok((phase, cycle))
}

/// Renders the state words as fixed-width hex, split into chunks.
fn state_chunks(words: &[u64]) -> Vec<String> {
    let mut hex = String::with_capacity(words.len() * 16);
    for &w in words {
        for byte in w.to_be_bytes() {
            for nibble in [byte >> 4, byte & 0xF] {
                hex.push(char::from(b"0123456789abcdef"[usize::from(nibble)]));
            }
        }
    }
    if hex.is_empty() {
        return Vec::new();
    }
    hex.as_bytes()
        .chunks(HEX_CHUNK)
        // Chunk boundaries land on ASCII hex digits, never mid-UTF-8.
        .map(|c| String::from_utf8(c.to_vec()).expect("hex is ASCII"))
        .collect()
}

/// Reassembles the state words from the document's hex chunks. A word
/// may straddle two chunks: the boundaries carry no meaning.
fn dec_state(node: &Node<'_>) -> Result<Vec<u64>, CodecError> {
    let mut words = Vec::new();
    let (mut word, mut digits) = (0u64, 0usize);
    node.list(|chunk| {
        for b in chunk.str()?.bytes() {
            let Some(digit) = char::from(b).to_digit(16) else {
                return chunk.err("expected a string of hex digits");
            };
            word = word << 4 | u64::from(digit);
            digits += 1;
            if digits.is_multiple_of(16) {
                words.push(word);
            }
        }
        Ok(())
    })?;
    if !digits.is_multiple_of(16) {
        return node.err(format!(
            "{digits} hex digits is not a whole number of 64-bit words"
        ));
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EngineKind;
    use crate::scenario::{run_scenario, FaultInjection, RepairSet, Run, ScenarioResult, SendSpec};
    use crate::traffic::TrafficPattern;
    use crate::workload::{ArrivalProcess, RateMap};
    use metro_topo::fault::{FaultKind, FaultSet};
    use metro_topo::graph::LinkId;
    use metro_topo::multibutterfly::MultibutterflySpec;

    fn load_scenario() -> Scenario {
        let mut faults = FaultSet::new();
        faults.break_link(LinkId::new(0, 1, 0), FaultKind::CorruptData { xor: 0x10 });
        let mut injected = FaultSet::new();
        injected.kill_router(1, 2);
        Scenario {
            name: "ckpt-load".to_string(),
            topology: MultibutterflySpec::figure1(),
            sim: crate::network::SimConfig::default(),
            seed: 0xC4A7,
            faults,
            injections: vec![FaultInjection {
                at: 150,
                faults: injected,
                repairs: RepairSet::default(),
            }],
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Bernoulli,
                rates: RateMap::Uniform,
                load: 0.3,
                payload_words: 7,
                warmup: 100,
                measure: 300,
                drain: 200,
            },
        }
    }

    /// Runs with a single mid-run checkpoint at `at` and returns
    /// (straight result, checkpoint).
    fn checkpoint_at(scenario: &Scenario, at: u64) -> (ScenarioResult, Checkpoint) {
        let mut taken = None;
        let mut sink = |c: &Checkpoint| {
            if c.cycle == at {
                taken = Some(c.clone());
            }
            Ok(())
        };
        let (result, _sim) = run_scenario_resumable(
            scenario,
            None,
            Some(CheckpointSink {
                every: at,
                sink: &mut sink,
            }),
        )
        .unwrap();
        (result, taken.expect("checkpoint at requested cycle"))
    }

    #[test]
    fn resumed_run_matches_the_straight_run_exactly() {
        let s = load_scenario();
        // Checkpoint mid-warmup, mid-measure (after the injection), and
        // straddling the stats reset.
        for at in [60, 100, 250] {
            let (straight, ckpt) = checkpoint_at(&s, at);
            assert_eq!(ckpt.phase, RunPhase::Main);
            let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
            assert_eq!(resumed, straight, "resume at cycle {at} diverged");
        }
    }

    #[test]
    fn resume_crosses_the_drain_boundary() {
        let s = load_scenario();
        // every=401 fires first at cycle 401 — inside the drain loop
        // (total = 400) unless the fabric went quiescent immediately.
        let mut taken = None;
        let mut sink = |c: &Checkpoint| {
            taken.get_or_insert_with(|| c.clone());
            Ok(())
        };
        let (straight, _sim) = run_scenario_resumable(
            &s,
            None,
            Some(CheckpointSink {
                every: 401,
                sink: &mut sink,
            }),
        )
        .unwrap();
        let ckpt = taken.expect("drain-phase checkpoint");
        assert_eq!(ckpt.phase, RunPhase::Drain);
        let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
        assert_eq!(resumed, straight);
    }

    #[test]
    fn scripted_runs_resume_identically() {
        let sends = vec![
            SendSpec {
                at: 0,
                src: 1,
                dest: 6,
                payload: vec![1, 2, 3],
            },
            SendSpec {
                at: 90,
                src: 3,
                dest: 0,
                payload: vec![9; 5],
            },
            SendSpec {
                at: 400,
                src: 5,
                dest: 2,
                payload: vec![4],
            },
        ];
        let s = Scenario::scripted("ckpt-sends", MultibutterflySpec::small8(), sends, 1_200);
        for at in [50, 100, 600] {
            let (straight, ckpt) = checkpoint_at(&s, at);
            let (resumed, _sim) = resume_scenario(&ckpt).unwrap();
            assert_eq!(resumed, straight, "resume at cycle {at} diverged");
        }
    }

    #[test]
    fn a_resumed_runs_later_checkpoints_match_the_straight_runs() {
        let s = load_scenario();
        let mut straight_ckpts = Vec::new();
        let mut sink = |c: &Checkpoint| {
            straight_ckpts.push(c.to_json().render());
            Ok(())
        };
        let (_r, _sim) = run_scenario_resumable(
            &s,
            None,
            Some(CheckpointSink {
                every: 100,
                sink: &mut sink,
            }),
        )
        .unwrap();
        assert!(straight_ckpts.len() >= 4, "{}", straight_ckpts.len());
        // Resume from the first checkpoint and compare every later one
        // byte for byte.
        let first = Checkpoint::from_text(&straight_ckpts[0]).unwrap();
        let mut resumed_ckpts = Vec::new();
        let mut sink = |c: &Checkpoint| {
            resumed_ckpts.push(c.to_json().render());
            Ok(())
        };
        let (_r, _sim) = run_scenario_resumable(
            &first.scenario,
            Some(&first),
            Some(CheckpointSink {
                every: 100,
                sink: &mut sink,
            }),
        )
        .unwrap();
        assert_eq!(resumed_ckpts, straight_ckpts[1..].to_vec());
    }

    #[test]
    fn envelope_round_trips_byte_stably() {
        let s = load_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 120);
        let doc = ckpt.to_json();
        let back = Checkpoint::from_json(&doc).unwrap();
        assert_eq!(back, ckpt);
        let text = doc.render();
        assert_eq!(back.to_json().render(), text);
        assert_eq!(Checkpoint::from_text(&text).unwrap(), ckpt);
    }

    #[test]
    fn corrupt_documents_fail_the_digest_check() {
        let s = load_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        let text = ckpt.to_json().render();
        // Flip one state digit (the first chunk's first hex char that
        // has a distinct flip partner).
        let tag = "\"state\": [";
        let i = text.find(tag).unwrap() + tag.len() + 6;
        let orig = text.as_bytes()[i] as char;
        let flipped = if orig == '0' { '1' } else { '0' };
        let mut bytes = text.clone().into_bytes();
        bytes[i] = flipped as u8;
        let corrupt = String::from_utf8(bytes).unwrap();
        let e = Checkpoint::from_text(&corrupt).unwrap_err();
        assert!(e.contains("digest mismatch"), "{e}");
    }

    #[test]
    fn unknown_fields_and_bad_positions_are_rejected() {
        let s = load_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        let mut doc = ckpt.to_json();
        doc.set("surprise", Json::from(1u64));
        // Re-stamp the digest so the unknown field itself is reached.
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "checkpoint_hash");
        }
        let h = format!("{:#018x}", doc.canonical_hash());
        doc.set("checkpoint_hash", Json::from(h));
        let e = Checkpoint::from_json(&doc).unwrap_err();
        assert!(e.message.contains("surprise"), "{e:?}");

        // A runner position the workload could never produce.
        let mut bad = ckpt.clone();
        bad.cycle = 10_000;
        let e = Checkpoint::from_json(&bad.to_json()).unwrap_err();
        assert_eq!(e.path, "checkpoint.runner.cycle");

        // Drain phase on a scripted workload.
        let scripted = Scenario::scripted("x", MultibutterflySpec::small8(), vec![], 100);
        let (_r, mut sc) = checkpoint_at(&scripted, 50);
        sc.phase = RunPhase::Drain;
        let e = Checkpoint::from_json(&sc.to_json()).unwrap_err();
        assert_eq!(e.path, "checkpoint.runner.phase");
    }

    #[test]
    fn a_non_hex_state_chunk_is_a_typed_error_not_a_panic() {
        // 32 bytes — a whole number of words by length — whose byte 16
        // is inside the two-byte `é`: slicing words out by byte offset
        // used to panic on the char boundary.
        let s = load_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        let mut doc = ckpt.to_json();
        let chunk = format!("{0}é{0}", "a".repeat(15));
        assert_eq!(chunk.len(), 32);
        doc.set("state", Json::arr([Json::from(chunk)]));
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "checkpoint_hash");
        }
        seal(&mut doc, "checkpoint_hash");
        let e = Checkpoint::from_json(&doc).unwrap_err();
        assert_eq!(e.path, "checkpoint.state[0]");
        assert_eq!(
            e.to_string(),
            "checkpoint decode error at checkpoint.state[0]: expected a string of hex digits"
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let s = load_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        // Re-sealed, so the gate itself is what refuses: the older
        // layout (same envelope, different state stream) and a newer one.
        for version in [CHECKPOINT_SCHEMA - 1, CHECKPOINT_SCHEMA + 1] {
            let mut doc = ckpt.to_json();
            doc.set("checkpoint_schema", Json::from(version));
            if let Json::Obj(pairs) = &mut doc {
                pairs.retain(|(k, _)| k != "checkpoint_hash");
            }
            seal(&mut doc, "checkpoint_hash");
            let e = Checkpoint::from_json(&doc).unwrap_err();
            assert_eq!(e.path, "checkpoint.checkpoint_schema");
            assert!(e.message.contains("unsupported schema version"), "{e:?}");
        }
    }

    #[test]
    fn a_run_stepped_by_hand_checkpoints_and_resumes_at_every_boundary() {
        let s = load_scenario();
        let straight = run_scenario(&s).unwrap();
        let mut run = Run::of(&s, None).unwrap();
        let mut resume_from = Vec::new();
        while run.step() {
            let c = run.checkpoint(&s);
            assert_eq!(c.cycle, run.cycle());
            // The driven window is [0, 400): the boundary after its last
            // cycle is still `main`, everything later is `drain`.
            let phase = if c.cycle <= 400 {
                RunPhase::Main
            } else {
                RunPhase::Drain
            };
            assert_eq!(c.phase, phase, "cycle {}", c.cycle);
            if [250, 400, 401].contains(&c.cycle) {
                resume_from.push(c.clone());
            }
            // `dec_position` accepts it; decoding never reads the words.
            let position = Checkpoint {
                state: Vec::new(),
                ..c
            };
            assert_eq!(
                Checkpoint::from_json(&position.to_json()).unwrap(),
                position
            );
        }
        assert!(run.cycle() > 401, "the drain ran: {}", run.cycle());
        assert_eq!(run.finish().0, straight);
        assert_eq!(resume_from.len(), 3);
        for c in &resume_from {
            let (resumed, _sim) = resume_scenario(c).unwrap();
            assert_eq!(resumed, straight, "resume at cycle {} diverged", c.cycle);
        }
    }

    #[test]
    fn a_send_and_a_kill_of_its_source_on_one_cycle_keep_the_historical_order() {
        // Cycle 20 queues two messages and kills the source of one of
        // them (with an earlier message of its in flight); cycle 200
        // revives it. `Run::step` merges the injection before it offers
        // the sends; the scripted runner used to offer first. The two
        // commute — a send lands on a NIC queue `apply_faults` does not
        // read — so a by-hand replay in the old order sees every outcome.
        let send = |at, src, dest| SendSpec {
            at,
            src,
            dest,
            payload: vec![5; 6],
        };
        let sends = vec![send(0, 1, 6), send(20, 1, 6), send(20, 3, 1)];
        let mut s = Scenario::scripted("same-cycle", MultibutterflySpec::small8(), sends, 1_500);
        let mut killed = FaultSet::new();
        killed.kill_endpoint(1);
        s.injections = vec![
            FaultInjection {
                at: 20,
                faults: killed.clone(),
                repairs: RepairSet::default(),
            },
            FaultInjection {
                at: 200,
                faults: FaultSet::new(),
                repairs: RepairSet {
                    endpoints: vec![1],
                    ..RepairSet::default()
                },
            },
        ];
        let flat = run_scenario(&s).unwrap();
        assert_eq!(flat.outcomes.len(), 3, "{:?}", flat.outcomes);

        let mut sim = NetworkSim::from_scenario(&s).unwrap();
        for now in 0..1_500 {
            match now {
                0 => sim.send(1, 6, &[5; 6]),
                20 => {
                    sim.send(1, 6, &[5; 6]);
                    sim.send(3, 1, &[5; 6]);
                    sim.apply_faults(killed.clone());
                }
                200 => sim.apply_faults(FaultSet::new()),
                _ => {}
            }
            sim.tick();
        }
        let by_hand = ScenarioResult {
            outcomes: sim.drain_outcomes(),
            ..flat.clone()
        };
        assert_eq!(flat.outcome_digest(), by_hand.outcome_digest());

        s.sim.engine = EngineKind::Reference;
        let reference = run_scenario(&s).unwrap();
        assert_eq!(flat.outcome_digest(), reference.outcome_digest());
    }

    #[test]
    fn run_scenario_is_the_unresumed_runner() {
        let s = load_scenario();
        let plain = run_scenario(&s).unwrap();
        let (via_resumable, _sim) = run_scenario_resumable(&s, None, None).unwrap();
        assert_eq!(plain, via_resumable);
    }
}

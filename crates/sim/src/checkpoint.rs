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
//! 3. the **machine state** — the machine plus a fold of the outcomes
//!    it has completed, not the outcomes themselves — as one flat word
//!    stream ([`NetworkSim`]'s [`State`] walk followed, for `Load` workloads, by
//!    the [`WorkloadDriver`]'s stream positions), written into the JSON
//!    document as chunks of space-separated hex words, each word at its
//!    own width and each run of zeros as one `*` token with its length
//!    (`"0 1 6b726f7774656e *1f 2f"`: most state words are one digit and
//!    most of those are zeros in runs, so the text is about 1.1 bytes a
//!    word on a nearly idle metro1k and 2.8 on a busy figure 3).
//!
//! The envelope follows the scenario codec's conventions exactly (one
//! cursor, [`metro_harness::document`], reads both): unknown fields
//! are rejected at every object level, the schema version is checked
//! first, and `checkpoint_hash` is the FNV-1a digest of the rest of
//! the document — a corrupt or truncated file fails loudly at decode,
//! never as a silently divergent resume.
//!
//! Each side crosses the state text once, and the seal rides along:
//!
//! * **save** — [`Checkpoint::to_json`] seals with
//!   [`seal_streamed`]: the digest covers the fields before the state,
//!   then `state_chunks` folds each byte of the text into FNV-1a as it
//!   writes it;
//! * **load** — [`Json::parse`] finds each chunk's closing quote eight
//!   bytes at a time and copies the chunk once; then
//!   [`Fields::verify_seal_streamed`] hands the state to `dec_state`,
//!   which reads it a token at a time (an optional `*`, the digits
//!   through a 256-entry table, then the byte that ends them, where the
//!   one-spelling grammar is checked) and folds each byte in as it
//!   reads it. A chunk it refuses, and every one after it, is folded in
//!   whole through the string writer, so the digest is always over the
//!   real compact rendering.
//!
//! The verdicts keep their order: the seal's first, then the scenario,
//! its hash and the runner position, then the state's, which the
//! decoder holds until the seal is known. The seal is FNV-1a's chain of
//! one dependent multiply a byte; in the decoder's loop it runs
//! alongside the decode instead of after it. Best of five runs of
//! 200–300 calls on the benchmark's seed-1 snapshots (2-vCPU host,
//! release build), parent → this layout:
//!
//! | call | `metro1k_sparse` (232,636 B) | `metro1k_shard2` (326,866 B) | `fig3_busy` (42,645 B) |
//! |------|-----------------------------:|-----------------------------:|-----------------------:|
//! | `to_json` | 0.776 → 0.445 ms | 1.197 → 0.768 ms | 0.134 → 0.080 ms |
//! | `from_json` | 0.761 → 0.456 ms | 1.179 → 0.725 ms | 0.137 → 0.080 ms |
//! | `from_text` | 0.800 → 0.523 ms | 1.291 → 0.794 ms | 0.151 → 0.098 ms |
//!
//! Decoding before the seal is known loosens no allocation bound: a
//! state may decode to at most `WORDS_PER_CHAR` (16) words a character
//! of its text, which already bounded what a sealed hostile file could
//! ask for, and a valid seal is one FNV-1a away.
//!
//! The document cursor stops at the `state` array. The words inside are read
//! by the second cursor, [`metro_telemetry::state`], and they are
//! outside input too:
//! [`Checkpoint::restore_into`] returns a [`StateError`] — naming the
//! section and the word — for any word that does not fit the machine
//! the scenario builds, including every index a later tick would use
//! and every timestamp it would subtract from the clock
//! (the walk's checks, DESIGN.md §17).
//!
//! Every cycle engine keeps one buffer of channel inputs and writes it
//! in the same slot order (the [`Engine`] trait's state walk), so at a tick
//! boundary the state words do not depend on what stepped the machine:
//! a run checkpointed under Flat at `shards = 4` resumes bit-identically
//! under `shards = 1` or under Reference, and vice versa (re-target the
//! embedded scenario's `sim.engine` / `sim.shards`). The bit-identity
//! contract — run `N` cycles, checkpoint, restore, run `M` more ≡ run
//! `N + M` straight — is proven by the `checkpoint_identity` proptest
//! suite in `tests/`.
//!
//! [`Engine`]: crate::engine::Engine
//! [`Run::of`]: crate::scenario::Run::of
//! [`Run::checkpoint`]: crate::scenario::Run::checkpoint

#![deny(clippy::cast_possible_truncation)]

use crate::network::NetworkSim;
use crate::scenario::codec::{self, dec_schema, CodecError};
use crate::scenario::{Scenario, WorkloadSpec};
use crate::workload::WorkloadDriver;
use metro_harness::document::{seal_streamed, Fields, Node};
use metro_harness::json::Fnv1a;
use metro_harness::Json;
use metro_telemetry::{State, StateError, StateReader, StateWriter};

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
/// * **5** — the same state words, spelled at their own width: each is
///   its shortest lower-case hex (`0` for zero), one space apart (was
///   16 digits a word, no separator — most words are one digit, so the
///   file was five times its content). Same envelope; versions 1–4 are
///   refused.
/// * **6** — the undrained outcomes are their own `outcomes` section:
///   the stream's fold (FNV-1a digest, count, payload words) and the
///   outcomes kept one by one, which a scenario run does not keep (was
///   every outcome since cycle 0, at the end of `netstats`). Same
///   envelope; versions 1–5 are refused.
/// * **7** — `telreg` is the sync interval and count and the reset
///   baseline (the last-synced network total and the per-counter series
///   are gone), and `netstats` ends at the retries (the failure counts
///   by kind, the payload words and the blocks by stage are gone). Same
///   envelope; versions 1–6 are refused.
/// * **8** — the same state words, with each maximal run of two or more
///   zeros spelled as one token, `*` and its length in hex (`*1f` for 31
///   zeros; a lone zero stays `0`). Same envelope; versions 1–7 are
///   refused.
pub const CHECKPOINT_SCHEMA: u64 = 8;

/// Characters at which a `"state"` array entry is cut: the token that
/// takes a chunk to this length or past it is the chunk's last, so an
/// entry is under `HEX_CHUNK + 18` characters (a token is up to 17).
/// Chunking keeps lines editor- and diff-friendly; the cuts are the
/// encoder's and the decoder holds a file to them, like every other
/// byte of the grammar.
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
    /// The flat state words: [`NetworkSim`]'s state walk, then (for
    /// `Load` workloads) the [`WorkloadDriver`]'s.
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
        ]);
        // The digest covers everything above it and the state, which
        // the encoder folds in as it writes it; appending the digest
        // last keeps "hash the document minus this field" well-defined.
        let mut state =
            |h: &mut Fnv1a| Json::arr(state_chunks(&self.state, h).into_iter().map(Json::from));
        seal_streamed(&mut doc, "checkpoint_hash", Some(("state", &mut state)));
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
            // machine. The state is decoded as the digest reads it, and
            // its verdict held until the seal's and the fields' before
            // it are known.
            let mut state = None;
            let mut read = |h: &mut Fnv1a, node: Node<'_>| state = Some(dec_state(&node, h));
            f.verify_seal_streamed("checkpoint_hash", Some(("state", &mut read)))?;
            let scenario = codec::decode_node(&f.req("scenario")?)?;
            let header = f.req("scenario_hash")?;
            let (declared, actual) = (header.str()?, codec::scenario_hash(&scenario));
            if declared != actual {
                return header.err(format!(
                    "embedded scenario hashes to {actual}, header says {declared}"
                ));
            }
            let (phase, cycle) = f.req("runner")?.object(|f| dec_position(&scenario, f))?;
            let Some(state) = state else {
                // No `state` to hand out: refused here, in its place.
                f.req("state")?;
                unreachable!("the seal hands out a present state");
            };
            Ok(Self {
                scenario,
                phase,
                cycle,
                state: state?,
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

/// Renders the state words as the document spells them: each word its
/// shortest lower-case hex (`0` for zero, never a leading zero), except
/// that a maximal run of two or more zeros is one token, `*` and the
/// run's length spelled the same way (31 zeros are `*1f`); one space
/// between tokens, a new chunk after the token that takes one to
/// [`HEX_CHUNK`] characters. No words, no chunks. Folds the chunks'
/// compact rendering (`["…","…"]`: no byte of the text needs an
/// escape) into `h` as it writes them.
fn state_chunks(words: &[u64], h: &mut Fnv1a) -> Vec<String> {
    /// Writes `b` into the chunk and folds it into the digest.
    #[inline(always)]
    fn put(chunk: &mut String, d: &mut Fnv1a, b: u8) {
        chunk.push(char::from(b));
        d.byte(b);
    }
    // A local copy, so the digest stays in a register.
    let mut d = *h;
    d.byte(b'[');
    let mut chunks = Vec::new();
    let mut chunk = String::new();
    let mut rest = words;
    while let Some(&w) = rest.first() {
        let zeros = rest.iter().take_while(|&&w| w == 0).count();
        if chunk.len() >= HEX_CHUNK {
            chunks.push(std::mem::take(&mut chunk));
            d.byte(b'"');
            d.byte(b',');
        }
        if chunk.is_empty() {
            chunk.reserve(HEX_CHUNK + 18);
            d.byte(b'"');
        } else {
            put(&mut chunk, &mut d, b' ');
        }
        let token = if zeros > 1 {
            put(&mut chunk, &mut d, b'*');
            zeros as u64
        } else {
            w
        };
        let digits = (64 - token.leading_zeros()).div_ceil(4).max(1);
        for shift in (0..digits).rev() {
            let nibble = (token >> (4 * shift)).to_le_bytes()[0] & 0xF;
            put(&mut chunk, &mut d, b"0123456789abcdef"[usize::from(nibble)]);
        }
        rest = &rest[zeros.max(1)..];
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
        d.byte(b'"');
    }
    d.byte(b']');
    *h = d;
    chunks
}

/// Words a state may decode to per character of its text. A run token
/// names up to 2^64 words in 17 characters, so this is what keeps a
/// hostile count from allocating: the encoder's densest stream (a
/// machine at cycle 1, nearly all zeros) is about 1.4.
const WORDS_PER_CHAR: usize = 16;

/// The three kinds of token the one-spelling rule tells apart.
#[derive(Clone, Copy)]
enum Token {
    Word,
    Zero,
    Run,
}

/// The words a state text has decoded to so far, and what they may
/// still become.
struct Decoded {
    words: Vec<u64>,
    /// The kind of the token before the next one.
    last: Token,
    /// [`WORDS_PER_CHAR`] times the characters of the whole text.
    limit: usize,
}

impl Decoded {
    /// Appends one token's words — `word`, or `word` zeros if `run` — or
    /// says why the spelling is not the encoder's. Inlined into the token
    /// loop: as a closure it made decoding a busy figure 3 snapshot's
    /// state about 1.5 times slower.
    #[inline(always)]
    fn token(&mut self, word: u64, run: bool) -> Result<(), &'static str> {
        let token = match (run, word) {
            (true, _) => Token::Run,
            (false, 0) => Token::Zero,
            (false, _) => Token::Word,
        };
        match (self.last, token) {
            (Token::Zero, Token::Zero) => return Err("two zeros in a row, not a run"),
            (Token::Zero, Token::Run) | (Token::Run, Token::Zero) => {
                return Err("a zero next to a run of zeros")
            }
            (Token::Run, Token::Run) => return Err("two runs of zeros side by side"),
            _ => {}
        }
        self.last = token;
        if !run {
            self.words.push(word);
            return Ok(());
        }
        if word < 2 {
            return Err("a run of fewer than two zeros");
        }
        match usize::try_from(word) {
            Ok(zeros) if zeros <= self.limit - self.words.len() => {
                // Grow to a power of two, as pushing the zeros one by one
                // would: a bare `resize` to an odd length leaves metro1k's
                // 214,488 words in room for 294,912, not 262,144.
                let len = self.words.len() + zeros;
                self.words
                    .reserve(len.next_power_of_two() - self.words.len());
                self.words.resize(len, 0);
                Ok(())
            }
            _ => Err("a run that takes the state past 16 words a character of its text"),
        }
    }
}

/// A byte's value as a lower-case hex digit, or [`NOT_HEX`]: the one
/// lookup the state decoder's digit scan makes per byte.
const HEX_DIGIT: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0u8;
    while d < 16 {
        table[b"0123456789abcdef"[d as usize] as usize] = d;
        d += 1;
    }
    table
};

/// [`HEX_DIGIT`]'s entry for every byte that is not a digit.
const NOT_HEX: u8 = 0xFF;

/// Reads the state words back, accepting exactly what [`state_chunks`]
/// writes — so a checkpoint has one spelling, and the text re-encodes
/// to its own bytes. Anything else (upper case, a leading zero, a 17th
/// digit, a space that does not separate two tokens, an empty chunk, a
/// chunk cut early or late, a run of fewer than two zeros, two zeros or
/// a zero and a run or two runs side by side, in one chunk or across a
/// cut) is an error at that chunk, and so is a run that takes the state
/// past [`WORDS_PER_CHAR`] words per character of its text.
///
/// The text is read a token at a time: an optional `*`, the digits (a
/// [`HEX_DIGIT`] lookup and a shift each), then the byte that ends
/// them. The token's spelling is checked there, once. A refusal is the
/// first one in the text, as a reading one byte after another would
/// meet it.
///
/// Folds the value's compact rendering into `h` whatever the verdict:
/// each byte of an accepted chunk as the token loop reads it, and a
/// refused chunk and every one after it whole, through the string
/// writer, escapes and all.
fn dec_state(node: &Node<'_>, h: &mut Fnv1a) -> Result<Vec<u64>, CodecError> {
    let Json::Arr(chunks) = node.json() else {
        h.json(node.json());
        return node.err("expected an array");
    };
    let chars: usize = chunks.iter().filter_map(Json::as_str).map(str::len).sum();
    let mut decoded = Decoded {
        words: Vec::new(),
        last: Token::Word,
        limit: chars.saturating_mul(WORDS_PER_CHAR),
    };
    // Only the last chunk may stop short of the cut.
    let mut short = false;
    let mut verdict = Ok(());
    h.byte(b'[');
    let mut first = true;
    node.list(|chunk| {
        if !std::mem::take(&mut first) {
            h.byte(b',');
        }
        if verdict.is_ok() {
            verdict = dec_chunk(&chunk, &mut decoded, &mut short, h);
            if verdict.is_ok() {
                return Ok(());
            }
        }
        h.json(chunk.json());
        Ok(())
    })?;
    h.byte(b']');
    verdict.map(|()| decoded.words)
}

/// [`dec_state`]'s token loop over one chunk. Folds the chunk, quoted,
/// into `h` only if it accepts it; a refused chunk leaves `h` as it
/// was.
fn dec_chunk(
    chunk: &Node<'_>,
    decoded: &mut Decoded,
    short: &mut bool,
    h: &mut Fnv1a,
) -> Result<(), CodecError> {
    let text = chunk.str()?.as_bytes();
    if text.is_empty() {
        return chunk.err("an empty chunk");
    }
    // A local copy, so the digest stays in a register.
    let mut d = *h;
    d.byte(b'"');
    let mut at = 0;
    loop {
        let token_at = at;
        let run = text.get(at) == Some(&b'*');
        if run {
            d.byte(b'*');
            at += 1;
        }
        let digits_at = at;
        let mut word = 0u64;
        while let Some(&b) = text.get(at) {
            let digit = HEX_DIGIT[usize::from(b)];
            if digit == NOT_HEX {
                break;
            }
            word = word << 4 | u64::from(digit);
            d.byte(b);
            at += 1;
        }
        let digits = at - digits_at;
        if digits > 1 && text[digits_at] == b'0' {
            return chunk.err("a word with a leading zero");
        }
        if digits > 16 {
            return chunk.err("a word of more than 16 hex digits");
        }
        match text.get(at) {
            Some(b' ') if digits > 0 => {
                decoded.token(word, run).or_else(|why| chunk.err(why))?;
                d.byte(b' ');
                at += 1;
            }
            Some(b' ') | None if run && digits == 0 => return chunk.err("a `*` with no count"),
            Some(b' ') | None if digits == 0 => {
                return chunk.err("a space that does not separate two words")
            }
            Some(b'*') => return chunk.err("a `*` that does not start a run"),
            Some(_) => {
                return chunk.err("expected lower-case hex words separated by single spaces")
            }
            None => {
                if token_at > HEX_CHUNK {
                    return chunk.err(format!(
                        "the chunk runs on past its cut at {HEX_CHUNK} characters"
                    ));
                }
                if *short {
                    return chunk.err(format!(
                        "the chunk before this one was cut short of {HEX_CHUNK} characters"
                    ));
                }
                *short = text.len() < HEX_CHUNK;
                decoded.token(word, run).or_else(|why| chunk.err(why))?;
                d.byte(b'"');
                *h = d;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EngineKind;
    use crate::scenario::{run_scenario, FaultInjection, RepairSet, Run, ScenarioResult, SendSpec};
    use crate::workload::{ArrivalProcess, RateMap, TrafficPattern};
    use metro_harness::document::{hex64, seal};
    use metro_topo::fault::{FaultKind, FaultSet};
    use metro_topo::graph::LinkId;
    use metro_topo::multibutterfly::MultibutterflySpec;

    /// [`super::state_chunks`] with a fresh digest, which must come out
    /// as the canonical hash of the chunks' compact rendering.
    fn state_chunks(words: &[u64]) -> Vec<String> {
        let mut h = Fnv1a::new();
        let chunks = super::state_chunks(words, &mut h);
        let doc = Json::arr(chunks.iter().map(|c| Json::from(c.as_str())));
        assert_eq!(h.finish(), doc.canonical_hash(), "{} chunks", chunks.len());
        chunks
    }

    /// [`super::dec_state`] with a fresh digest, which must come out as
    /// the canonical hash of the value, whether it is accepted or not.
    fn dec_state(node: &Node<'_>) -> Result<Vec<u64>, CodecError> {
        let mut h = Fnv1a::new();
        let decoded = super::dec_state(node, &mut h);
        assert_eq!(h.finish(), node.json().canonical_hash(), "{decoded:?}");
        decoded
    }

    fn loaded_scenario() -> Scenario {
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
        let s = loaded_scenario();
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
        let s = loaded_scenario();
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
        let s = loaded_scenario();
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
        let s = loaded_scenario();
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
        let s = loaded_scenario();
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
        let s = loaded_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        let mut doc = ckpt.to_json();
        doc.set("surprise", Json::from(1u64));
        reseal(&mut doc);
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

    /// Decodes a re-sealed checkpoint document whose `"state"` is
    /// `chunks`, so the state text is what refuses or is accepted.
    fn decode_with_state(chunks: &[&str]) -> Result<Checkpoint, CodecError> {
        Checkpoint::from_json(&decode_doc(chunks))
    }

    /// The re-sealed document [`decode_with_state`] decodes.
    fn decode_doc(chunks: &[&str]) -> Json {
        let empty = Checkpoint {
            scenario: loaded_scenario(),
            phase: RunPhase::Main,
            cycle: 0,
            state: Vec::new(),
        };
        let mut doc = empty.to_json();
        doc.set("state", Json::arr(chunks.iter().copied().map(Json::from)));
        reseal(&mut doc);
        doc
    }

    /// Re-stamps the digest after an edit, so the edit itself is what
    /// the decoder meets.
    fn reseal(doc: &mut Json) {
        if let Json::Obj(pairs) = doc {
            pairs.retain(|(k, _)| k != "checkpoint_hash");
        }
        seal(doc, "checkpoint_hash");
    }

    #[track_caller]
    fn assert_refused(chunks: &[&str], at: usize, message: &str) {
        let e = decode_with_state(chunks).unwrap_err();
        assert_eq!(e.path, format!("checkpoint.state[{at}]"), "{e}");
        assert!(e.message.contains(message), "{e}");
    }

    /// `words` one-digit words and their separators: `2 * words - 1`
    /// characters.
    fn ones(words: usize) -> String {
        vec!["1"; words].join(" ")
    }

    #[test]
    fn the_state_text_is_each_word_at_its_own_width() {
        let words = [0, 1, 0xf, 0x10, 0xdead_beef, u64::MAX];
        assert_eq!(state_chunks(&words), ["0 1 f 10 deadbeef ffffffffffffffff"]);
        let back = decode_with_state(&["0 1 f 10 deadbeef ffffffffffffffff"]).unwrap();
        assert_eq!(back.state, words);
        // No words, no chunks.
        assert!(state_chunks(&[]).is_empty());
        assert_eq!(decode_with_state(&[]).unwrap().state, []);
    }

    #[test]
    fn a_non_hex_state_chunk_is_a_typed_error_not_a_panic() {
        // Byte 16 is inside the two-byte `é`: slicing words out by byte
        // offset used to panic on the char boundary.
        let chunk = format!("{0}é{0}", "a".repeat(15));
        let e = decode_with_state(&["1 2", &chunk]).unwrap_err();
        assert_eq!(e.path, "checkpoint.state[1]");
        assert_eq!(
            e.to_string(),
            "checkpoint decode error at checkpoint.state[1]: \
             expected lower-case hex words separated by single spaces"
        );
        assert_refused(&["12 3g"], 0, "expected lower-case hex");
        assert_refused(&["0x1f"], 0, "expected lower-case hex");
        assert_refused(&["1\t2"], 0, "expected lower-case hex");
    }

    #[test]
    fn upper_case_hex_is_refused() {
        assert_eq!(decode_with_state(&["6e 1f"]).unwrap().state, [0x6e, 0x1f]);
        assert_refused(&["6E 1f"], 0, "expected lower-case hex");
        assert_refused(&["6e 1F"], 0, "expected lower-case hex");
    }

    #[test]
    fn a_leading_zero_is_refused() {
        assert_eq!(decode_with_state(&["0 10"]).unwrap().state, [0, 0x10]);
        assert_refused(&["01"], 0, "leading zero");
        assert_refused(&["5 00"], 0, "leading zero");
        assert_refused(&["0000000000000001"], 0, "leading zero");
    }

    #[test]
    fn a_seventeenth_digit_is_refused() {
        let max = "f".repeat(16);
        assert_eq!(decode_with_state(&[&max]).unwrap().state, [u64::MAX]);
        assert_refused(&[&format!("{max}f")], 0, "more than 16 hex digits");
        assert_refused(&[&format!("1 1{}", "0".repeat(16))], 0, "more than 16");
    }

    #[test]
    fn a_doubled_space_is_refused() {
        assert_refused(&["1  2"], 0, "does not separate two words");
    }

    #[test]
    fn a_leading_space_is_refused() {
        assert_refused(&[" 1 2"], 0, "does not separate two words");
        assert_refused(&["1 2", " 3"], 1, "does not separate two words");
    }

    #[test]
    fn a_trailing_space_is_refused() {
        assert_refused(&["1 2 "], 0, "does not separate two words");
        assert_refused(&[" "], 0, "does not separate two words");
    }

    #[test]
    fn an_empty_chunk_is_refused() {
        assert_refused(&[""], 0, "an empty chunk");
        assert_refused(&["1 2", ""], 1, "an empty chunk");
    }

    #[test]
    fn a_chunk_cut_early_or_late_is_refused() {
        // 2048 one-digit words are 4095 characters: the 2049th still
        // belongs to the chunk, the 2050th opens the next.
        let full = ones(HEX_CHUNK / 2 + 1);
        assert_eq!(state_chunks(&vec![1; HEX_CHUNK / 2 + 2]), [&full[..], "1"]);
        let back = decode_with_state(&[&full, "1"]).unwrap();
        assert_eq!(back.state.len(), HEX_CHUNK / 2 + 2);
        // Early: a chunk short of the cut that is not the last.
        assert_refused(&[&ones(HEX_CHUNK / 2), "1 1"], 1, "cut short");
        assert_refused(&["1", "1"], 1, "cut short");
        // Late: a word after the one that reached the cut.
        assert_refused(&[&ones(HEX_CHUNK / 2 + 2)], 0, "past its cut");
        assert_refused(&[&full, &ones(HEX_CHUNK / 2 + 2)], 1, "past its cut");
    }

    /// `ones(HEX_CHUNK / 2)` and then `token`: a chunk that `token`
    /// closes, so what follows it opens the next chunk.
    fn closed_by(token: &str) -> String {
        format!("{} {token}", ones(HEX_CHUNK / 2))
    }

    #[test]
    fn a_run_of_zeros_is_one_token() {
        let mut words = vec![0; 31];
        words.extend([1, 0, 2, 0, 0]);
        assert_eq!(state_chunks(&words), ["*1f 1 0 2 *2"]);
        assert_eq!(decode_with_state(&["*1f 1 0 2 *2"]).unwrap().state, words);
        assert_eq!(state_chunks(&[0]), ["0"]);
        assert_eq!(state_chunks(&[0; 0x1_0000]), ["*10000"]);
        // The run that closes a chunk is whole in it, however long.
        let mut words = vec![1; HEX_CHUNK / 2];
        words.resize(HEX_CHUNK / 2 + 20_480, 0);
        words.push(7);
        assert_eq!(state_chunks(&words), [&closed_by("*5000")[..], "7"]);
        assert_eq!(
            decode_with_state(&[&closed_by("*5000"), "7"])
                .unwrap()
                .state,
            words
        );
    }

    #[test]
    fn two_zeros_in_a_row_are_refused() {
        assert_refused(&["0 0"], 0, "two zeros in a row");
        assert_refused(&["1 0 0 1"], 0, "two zeros in a row");
        assert_refused(&[&closed_by("0"), "0"], 1, "two zeros in a row");
    }

    #[test]
    fn a_zero_next_to_a_run_is_refused() {
        assert_refused(&["0 *2"], 0, "a zero next to a run");
        assert_refused(&["1 *2 0"], 0, "a zero next to a run");
        assert_refused(&[&closed_by("0"), "*2"], 1, "a zero next to a run");
        assert_refused(&[&closed_by("*2"), "0"], 1, "a zero next to a run");
    }

    #[test]
    fn two_adjacent_runs_are_refused() {
        assert_refused(&["*2 *3"], 0, "two runs of zeros side by side");
        assert_refused(
            &[&closed_by("*2"), "*2 1"],
            1,
            "two runs of zeros side by side",
        );
    }

    #[test]
    fn a_run_of_fewer_than_two_zeros_is_refused() {
        assert_refused(&["*0"], 0, "fewer than two zeros");
        assert_refused(&["1 *1 1"], 0, "fewer than two zeros");
    }

    #[test]
    fn a_star_that_does_not_start_a_count_is_refused() {
        assert_refused(&["*"], 0, "a `*` with no count");
        assert_refused(&["1 * 1"], 0, "a `*` with no count");
        assert_refused(&["**2"], 0, "a `*` that does not start a run");
        assert_refused(&["1*2"], 0, "a `*` that does not start a run");
    }

    #[test]
    fn a_run_count_with_a_leading_zero_is_refused() {
        assert_refused(&["*02"], 0, "leading zero");
        assert_refused(&["1 *00"], 0, "leading zero");
        assert_refused(&[&format!("*1{}", "0".repeat(16))], 0, "more than 16");
    }

    #[test]
    fn a_run_past_sixteen_words_a_character_is_refused_before_it_is_allocated() {
        assert_refused(&["*ffffffffffffffff"], 0, "past 16 words a character");
        // Three characters: 48 words and no more.
        assert_eq!(decode_with_state(&["*30"]).unwrap().state, [0; 0x30]);
        assert_refused(&["*31"], 0, "past 16 words a character");
        // The limit counts every chunk's characters, and the words
        // decoded before the run.
        let first = closed_by("1");
        let limit = 16 * (first.len() + "*ffff".len());
        let room = limit - (HEX_CHUNK / 2 + 1);
        let (fits, past) = (format!("*{room:x}"), format!("*{:x}", room + 1));
        assert_eq!([fits.len(), past.len()], ["*ffff".len(); 2]);
        assert_eq!(
            decode_with_state(&[&first, &fits]).unwrap().state.len(),
            limit
        );
        assert_refused(&[&first, &past], 1, "past 16 words");
    }

    /// The nine section tags of a scenario run's stream, as words.
    fn section_tags() -> Vec<u64> {
        let mut w = StateWriter::new();
        for tag in [
            "network", "faults", "router", "endpoint", "channels", "netstats", "outcomes",
            "telreg", "workload",
        ] {
            w.section(tag).unwrap();
        }
        w.into_words()
    }

    /// `state_chunks` → `dec_state`, the chunks held to their cut, and
    /// the decoded words re-encoded to the same text.
    fn assert_state_round_trips(words: &[u64]) {
        let chunks = state_chunks(words);
        for (i, c) in chunks.iter().enumerate() {
            // Every chunk but the last reaches the cut; none passes it
            // by more than one token.
            let least = if i + 1 < chunks.len() { HEX_CHUNK } else { 1 };
            assert!((least..HEX_CHUNK + 18).contains(&c.len()), "{}", c.len());
        }
        let doc = Json::arr(chunks.iter().cloned().map(Json::from));
        let back = dec_state(&Node::root("checkpoint", "checkpoint.state", &doc)).unwrap();
        assert_eq!(back, words);
        assert_eq!(state_chunks(&back), chunks);
    }

    #[test]
    fn a_word_lands_on_each_side_of_every_chunk_cut() {
        assert_state_round_trips(&[]);
        // A first word of each width, then one-digit words up to and
        // across the cut: every remainder of 4096 is hit from both
        // parities, with a wide word on either side of it.
        for width in 1..=16u32 {
            let first = u64::MAX >> (64 - 4 * width);
            for tail in (HEX_CHUNK / 2 - 12)..(HEX_CHUNK / 2 + 4) {
                let mut words = vec![first];
                words.resize(tail, 1);
                words.extend([u64::MAX, 0, first]);
                assert_state_round_trips(&words);
            }
        }
    }

    /// Every single-byte substitution from `0 9 a f g A * space` and
    /// every single-byte deletion of `chunks[at]` at the byte offsets
    /// `offsets`: each mutant is refused at a chunk, or decodes to words
    /// whose text is exactly the mutant. Returns (refused, accepted).
    fn sweep_mutants(chunks: &[String], at: usize, offsets: std::ops::Range<usize>) -> [usize; 2] {
        let mut seen = [0; 2];
        for i in offsets {
            let text = chunks[at].as_bytes();
            let substitutions = b"09afgA* ".iter().filter(|&&b| b != text[i]).map(|&b| {
                let mut m = text.to_vec();
                m[i] = b;
                m
            });
            let deletion = [text[..i].iter().chain(&text[i + 1..]).copied().collect()];
            for mutant in substitutions.chain(deletion) {
                let mut mutated = chunks.to_vec();
                mutated[at] = String::from_utf8(mutant).expect("ASCII");
                let doc = Json::arr(mutated.iter().map(|c| Json::from(c.as_str())));
                match dec_state(&Node::root("checkpoint", "checkpoint.state", &doc)) {
                    Ok(words) => {
                        assert_eq!(state_chunks(&words), mutated, "{words:?}");
                        seen[1] += 1;
                    }
                    Err(e) => {
                        assert!(e.path.starts_with("checkpoint.state["), "{e}");
                        seen[0] += 1;
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn every_one_byte_mutant_of_a_state_text_is_refused_or_its_own_spelling() {
        // A run, a zero, and words of 1 and 16 digits, each next to
        // each kind (a deleted space after a 16-digit word is a 17th
        // digit).
        let text = "*1f 1 0 ffffffffffffffff 7 *2 2a 1000000000000000 0 f *10".to_string();
        assert!(decode_with_state(&[&text]).is_ok());
        let [refused, accepted] = sweep_mutants(std::slice::from_ref(&text), 0, 0..text.len());
        // Eight substitutions and a deletion a byte, less the
        // substitution that would keep the byte as it is.
        let mutants = text
            .bytes()
            .map(|b| 9 - usize::from(b"09afgA* ".contains(&b)));
        assert_eq!(refused + accepted, mutants.sum());
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} accepted"
        );
        // The same across a cut: the bytes either side of it, and the
        // next chunk's first tokens.
        let chunks = [closed_by("*2"), "1 ffffffffffffffff 0".to_string()];
        assert!(decode_with_state(&[&chunks[0], &chunks[1]]).is_ok());
        for (at, offsets) in [(0, HEX_CHUNK - 8..chunks[0].len()), (1, 0..6)] {
            let [refused, accepted] = sweep_mutants(&chunks, at, offsets);
            assert!(
                refused > 0 && accepted > 0,
                "{refused} refused, {accepted} accepted"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn any_state_round_trips_through_its_text(
            // One-digit words up to either side of the first cut, then a
            // run of zeros: the run closes the first chunk or opens the
            // second.
            lead in (HEX_CHUNK / 2 - 4)..(HEX_CHUNK / 2 + 4),
            run in 1usize..25_001,
            // Every width equally often: random bits, shifted down; after
            // one word in 128, a run of zeros of any length up to 25,000
            // (rare enough to keep a state near 10 words a character, under
            // the decoder's limit).
            body in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 0u32..64, 0u32..128, 1usize..25_001),
                0..3000,
            ),
        ) {
            let mut words = vec![1; lead];
            words.resize(lead + run, 0);
            // The forced values: the width boundaries and the tags.
            words.extend([1, 0, 1, 0xf, 0x10, u64::MAX]);
            words.extend(section_tags());
            for (bits, shift, pick, zeros) in body {
                words.push(bits >> shift);
                if pick == 0 {
                    words.resize(words.len() + zeros, 0);
                }
            }
            assert_state_round_trips(&words);
        }
    }

    /// The seal in two passes — the document with its state text, then
    /// its canonical hash — which the one pass of `to_json` must match
    /// byte for byte.
    fn sealed_in_two_passes(c: &Checkpoint) -> Json {
        let mut doc = c.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "checkpoint_hash" && k != "state");
        }
        let chunks = state_chunks(&c.state);
        doc.set("state", Json::arr(chunks.into_iter().map(Json::from)));
        let hash = doc.canonical_hash();
        doc.set("checkpoint_hash", Json::from(hex64(hash)));
        doc
    }

    #[track_caller]
    fn assert_sealed_in_one_pass(words: Vec<u64>) {
        let c = Checkpoint {
            scenario: loaded_scenario(),
            phase: RunPhase::Main,
            cycle: 0,
            state: words,
        };
        let text = c.to_json().render();
        assert_eq!(text, sealed_in_two_passes(&c).render());
        assert_eq!(Checkpoint::from_text(&text).unwrap(), c);
    }

    #[test]
    fn the_one_pass_seal_holds_on_each_side_of_every_chunk_cut() {
        assert_sealed_in_one_pass(Vec::new());
        for first in [1, u64::MAX] {
            for tail in (HEX_CHUNK / 2 - 12)..(HEX_CHUNK / 2 + 4) {
                let mut words = vec![first];
                words.resize(tail, 1);
                words.extend([u64::MAX, 0, 0, 0, first, 0]);
                assert_sealed_in_one_pass(words);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn the_one_pass_seal_is_the_two_pass_one(
            // One-digit words up to anywhere in the first chunk, then
            // lone zeros, runs, and words of 1, 16 and any digits.
            lead in 0usize..(HEX_CHUNK / 2 + 8),
            body in proptest::collection::vec(
                (0u32..5, proptest::prelude::any::<u64>(), 2usize..40),
                0..2500,
            ),
        ) {
            let mut words = vec![1; lead];
            for (kind, bits, run) in body {
                match kind {
                    0 => words.push(0),
                    1 => words.resize(words.len() + run, 0),
                    2 => words.push(1 + bits % 15),
                    3 => words.push(bits | 1 << 63),
                    _ => words.push(bits >> (bits % 64)),
                }
            }
            assert_sealed_in_one_pass(words);
        }
    }

    #[test]
    fn the_seal_is_judged_first_and_the_state_last() {
        let empty = Checkpoint {
            scenario: loaded_scenario(),
            phase: RunPhase::Main,
            cycle: 0,
            state: Vec::new(),
        };
        let with_bad_state = || {
            let mut doc = empty.to_json();
            doc.set("state", Json::arr([Json::from("01")]));
            doc
        };
        // A bad state under a bad seal: the seal.
        let e = Checkpoint::from_json(&with_bad_state()).unwrap_err();
        assert_eq!(e.path, "checkpoint.checkpoint_hash");
        assert!(e.message.starts_with("digest mismatch"), "{e}");
        // A valid seal, and a bad state after a bad field: the field.
        let bad_fields = [
            ("scenario", Json::from(7u64), "checkpoint.scenario"),
            (
                "scenario_hash",
                Json::from(hex64(1)),
                "checkpoint.scenario_hash",
            ),
            (
                "runner",
                Json::obj([
                    ("phase", Json::from("main")),
                    ("cycle", Json::from(1u64 << 40)),
                ]),
                "checkpoint.runner.cycle",
            ),
        ];
        for (key, value, path) in bad_fields {
            let mut doc = with_bad_state();
            doc.set(key, value);
            reseal(&mut doc);
            assert_eq!(Checkpoint::from_json(&doc).unwrap_err().path, path);
        }
        // And with nothing else wrong, the state.
        let mut doc = with_bad_state();
        reseal(&mut doc);
        let e = Checkpoint::from_json(&doc).unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("checkpoint.state[0]", "a word with a leading zero")
        );
        // A missing state is refused in its place, after the runner.
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "state");
        reseal(&mut doc);
        let e = Checkpoint::from_json(&doc).unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("checkpoint", "missing field \"state\"")
        );
    }

    #[test]
    fn a_chunk_that_needs_an_escape_is_refused_under_a_valid_seal() {
        // Never valid state, but hashed as the compact rendering spells
        // it, escapes and all: the seal holds and the text refuses.
        let escaped = ["1 \"2", "1 \\ 2", "1\n2", "\u{1}", "12 \u{1f}", "1 é", "😀"];
        for bad in escaped {
            assert_refused(&[bad], 0, "expected lower-case hex");
            assert_refused(&[&closed_by("1"), bad, "3"], 1, "expected lower-case hex");
            // A chunk after the refused one is sealed whole too.
            assert_refused(&["1 g", bad], 0, "expected lower-case hex");
        }
        // Through the text as well, where the parser undoes the escapes.
        let mut doc = decode_doc(&["1 \"2\\"]);
        let text = doc.render();
        assert!(text.contains(r#""1 \"2\\""#), "{text}");
        let e = Checkpoint::from_text(&text).unwrap_err();
        assert!(
            e.ends_with(
                "checkpoint.state[0]: expected lower-case hex words separated by single spaces"
            ),
            "{e}"
        );
        doc.set("state", Json::arr([Json::from("1 2")]));
        assert!(
            Checkpoint::from_text(&doc.render()).is_err(),
            "the edit unseals it"
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let s = loaded_scenario();
        let (_straight, ckpt) = checkpoint_at(&s, 80);
        // Re-sealed, so the gate itself is what refuses: the older
        // layout (same envelope, different state stream) and a newer one.
        for version in [CHECKPOINT_SCHEMA - 1, CHECKPOINT_SCHEMA + 1] {
            let mut doc = ckpt.to_json();
            doc.set("checkpoint_schema", Json::from(version));
            reseal(&mut doc);
            let e = Checkpoint::from_json(&doc).unwrap_err();
            assert_eq!(e.path, "checkpoint.checkpoint_schema");
            assert!(e.message.contains("unsupported schema version"), "{e:?}");
        }
    }

    #[test]
    fn a_run_stepped_by_hand_checkpoints_and_resumes_at_every_boundary() {
        let s = loaded_scenario();
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
        let s = loaded_scenario();
        let plain = run_scenario(&s).unwrap();
        let (via_resumable, _sim) = run_scenario_resumable(&s, None, None).unwrap();
        assert_eq!(plain, via_resumable);
    }
}

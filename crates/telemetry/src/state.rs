//! The state cursor: the one word-stream vocabulary every
//! checkpointable layer saves and restores itself with.
//!
//! A checkpoint is ultimately a flat sequence of `u64` words. Each
//! subsystem (router, endpoint, engine, telemetry registry, …) appends
//! its mutable state behind an 8-byte ASCII section tag via
//! [`StateWriter`] and reads it back — tag-checked, in the same order —
//! via [`StateReader`]. Keeping the primitives here, at the bottom of
//! the crate graph, lets `metro_core` components serialize themselves
//! without the sim layer having to reach into private fields.
//!
//! The format is deliberately dumb: no varints, no alignment games,
//! just tagged spans of words. Byte-stability falls out of the fact
//! that every encoder walks its state in a fixed order.
//!
//! Everything above a single word is spelled once, here, so that no
//! `restore_state` has to remember a guard:
//!
//! | written | words | what the reader checks |
//! |---------|-------|------------------------|
//! | `section(tag)` | the tag | [`StateReader::section`]: the same tag |
//! | `u64` / `usize` / `u32` / `u16` / `bool` | one | the value fits the type |
//! | `opt(v, put)` | presence, then the value | [`StateReader::opt`]: presence is 0/1 |
//! | `seq(items, put)` | count, then each item | [`StateReader::seq`]: count ≤ words remaining; [`StateReader::lane`] / [`StateReader::shape`]: count = what the machine holds |
//! | `usize` | one | [`StateReader::index`]: value < bound |
//!
//! A restored value that fits its type but not the machine — a tag of
//! an enum, two fields that must agree — is refused by the codec that
//! knows, through [`StateReader::bad`], which names the section the
//! stream is really in and the word it stopped at.

use std::any::type_name;
use std::fmt;

/// A typed decode failure naming the offending section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The stream ended before the expected word.
    UnexpectedEnd {
        /// Section being decoded when the stream ran out.
        section: String,
    },
    /// A section tag did not match what the decoder expected.
    TagMismatch {
        /// Section tag the decoder expected.
        expected: String,
        /// Tag actually found in the stream.
        found: String,
    },
    /// A word decoded to a value that is out of range for its field.
    BadValue {
        /// The last section tag read before the value.
        section: String,
        /// Offset, in words from the start of the stream, of the last
        /// word read.
        at: usize,
        /// What was wrong with the value.
        detail: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd { section } => {
                write!(f, "state stream ended inside section `{section}`")
            }
            Self::TagMismatch { expected, found } => {
                write!(f, "expected section `{expected}`, found `{found}`")
            }
            Self::BadValue {
                section,
                at,
                detail,
            } => {
                write!(f, "bad value in section `{section}` at word {at}: {detail}")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Packs an up-to-8-byte ASCII tag into one word (zero-padded).
fn tag_word(tag: &str) -> u64 {
    debug_assert!(tag.len() <= 8, "section tags are at most 8 bytes");
    let mut bytes = [0u8; 8];
    bytes[..tag.len()].copy_from_slice(tag.as_bytes());
    u64::from_le_bytes(bytes)
}

/// Unpacks a tag word back to its ASCII form (for error messages).
fn tag_name(word: u64) -> String {
    let bytes = word.to_le_bytes();
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(8);
    match std::str::from_utf8(&bytes[..end]) {
        Ok(s) if !s.is_empty() => s.to_string(),
        _ => format!("{word:#018x}"),
    }
}

/// Appends state as a flat word stream with tagged sections.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    words: Vec<u64>,
}

impl StateWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a tagged section (tags are at most 8 ASCII bytes).
    pub fn section(&mut self, tag: &str) {
        self.words.push(tag_word(tag));
    }

    /// Appends one raw word.
    pub fn u64(&mut self, v: u64) {
        self.words.push(v);
    }

    /// Appends a `usize` (always encoded as a full word).
    pub fn usize(&mut self, v: usize) {
        self.words.push(v as u64);
    }

    /// Appends a `u32` as a full word.
    pub fn u32(&mut self, v: u32) {
        self.words.push(u64::from(v));
    }

    /// Appends a `u16` as a full word.
    pub fn u16(&mut self, v: u16) {
        self.words.push(u64::from(v));
    }

    /// Appends a bool as 0/1.
    pub fn bool(&mut self, v: bool) {
        self.words.push(u64::from(v));
    }

    /// Appends `Some`/`None` as a presence word followed, when present,
    /// by whatever `put` writes for the value.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(x) = v {
            put(self, x);
        }
    }

    /// Appends a sequence: its item count, then whatever `put` writes
    /// for each item in order. The count is taken by walking a clone of
    /// the iterator, so a flattened nest of `Vec`s can be written as
    /// the one lane it is.
    pub fn seq<T>(
        &mut self,
        items: impl IntoIterator<Item = T, IntoIter: Clone>,
        mut put: impl FnMut(&mut Self, T),
    ) {
        let items = items.into_iter();
        self.usize(items.clone().count());
        for item in items {
            put(self, item);
        }
    }

    /// [`StateWriter::seq`] of raw words, appended in one copy.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        self.words.extend_from_slice(vs);
    }

    /// The accumulated words.
    #[must_use]
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// Reads a word stream back, validating section tags as it goes.
#[derive(Debug)]
pub struct StateReader<'a> {
    words: &'a [u64],
    pos: usize,
    /// Most recently opened section, for error context.
    current: String,
}

impl<'a> StateReader<'a> {
    /// A reader over `words`, positioned at the start.
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        Self {
            words,
            pos: 0,
            current: String::from("<start>"),
        }
    }

    fn next_word(&mut self) -> Result<u64, StateError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| StateError::UnexpectedEnd {
                section: self.current.clone(),
            })?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads one word into a narrower integer type.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Result<T, StateError> {
        let w = self.next_word()?;
        T::try_from(w).map_err(|_| self.bad(format!("{w} overflows {}", type_name::<T>())))
    }

    /// A refusal of the value just read: [`StateError::BadValue`]
    /// naming the last section tag read and the offset of the last
    /// word read. Every codec's out-of-range error goes through here,
    /// so the section named is always one the stream holds.
    #[must_use]
    pub fn bad(&self, detail: impl Into<String>) -> StateError {
        StateError::BadValue {
            section: self.current.clone(),
            at: self.pos.saturating_sub(1),
            detail: detail.into(),
        }
    }

    /// Consumes and checks a section tag.
    ///
    /// # Errors
    ///
    /// [`StateError::TagMismatch`] when the stream holds a different
    /// tag, [`StateError::UnexpectedEnd`] when it holds nothing.
    pub fn section(&mut self, tag: &str) -> Result<(), StateError> {
        let w = self.next_word()?;
        if w != tag_word(tag) {
            return Err(StateError::TagMismatch {
                expected: tag.to_string(),
                found: tag_name(w),
            });
        }
        self.current = tag.to_string();
        Ok(())
    }

    /// Reads one raw word.
    ///
    /// # Errors
    ///
    /// [`StateError::UnexpectedEnd`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        self.next_word()
    }

    /// Reads a `usize`, rejecting values that overflow the platform.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when the word exceeds `usize::MAX`.
    pub fn usize(&mut self) -> Result<usize, StateError> {
        self.narrow()
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when the word exceeds `u32::MAX`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        self.narrow()
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when the word exceeds `u16::MAX`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        self.narrow()
    }

    /// Reads a bool, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] for words other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.next_word()? {
            0 => Ok(false),
            1 => Ok(true),
            w => Err(self.bad(format!("{w} is not a bool"))),
        }
    }

    /// Reads a `usize` that must index something `bound` long.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] naming `what` when the value is not
    /// below `bound`.
    pub fn index(&mut self, bound: usize, what: &str) -> Result<usize, StateError> {
        let v = self.usize()?;
        if v < bound {
            Ok(v)
        } else {
            Err(self.bad(format!("{what} {v} is out of range (below {bound})")))
        }
    }

    /// Reads an optional value written by [`StateWriter::opt`].
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] for a presence word other than 0/1;
    /// whatever `get` refuses.
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, StateError>,
    ) -> Result<Option<T>, StateError> {
        self.bool()?.then(|| get(self)).transpose()
    }

    /// Reads the count that opens a [`StateWriter::seq`], bounded by
    /// the words remaining: every item is at least one word, so a
    /// larger count is corrupt and is refused before anything is
    /// allocated for it.
    fn count(&mut self) -> Result<usize, StateError> {
        let n = self.usize()?;
        let left = self.words.len() - self.pos;
        if n > left {
            return Err(self.bad(format!("{n} items exceed the {left} words remaining")));
        }
        Ok(n)
    }

    /// Reads a sequence written by [`StateWriter::seq`] into any
    /// collection, one `get` per item.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when the count exceeds the words
    /// remaining; whatever `get` refuses.
    pub fn seq<T, C: FromIterator<T>>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, StateError>,
    ) -> Result<C, StateError> {
        let n = self.count()?;
        (0..n).map(|_| get(self)).collect()
    }

    /// [`StateReader::seq`] of raw words, in one copy.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when the count exceeds the words
    /// remaining.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, StateError> {
        let n = self.count()?;
        let out = self.words[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    /// Reads the count that opens a [`StateWriter::seq`] whose length
    /// the machine fixes — `held` of `what` — and refuses any other.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] naming both counts.
    pub fn shape(&mut self, held: usize, what: &str) -> Result<(), StateError> {
        let saved = self.usize()?;
        self.same_shape(saved, held, what)
    }

    /// Reads a fixed-shape sequence in place: the saved count, then one
    /// `get` into each cell the machine holds — never more, so a
    /// corrupt count cannot grow the machine.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] naming both counts when they differ;
    /// whatever `get` refuses.
    pub fn lane<'c, T: 'c>(
        &mut self,
        cells: impl IntoIterator<Item = &'c mut T>,
        what: &str,
        mut get: impl FnMut(&mut Self) -> Result<T, StateError>,
    ) -> Result<(), StateError> {
        let saved = self.usize()?;
        let mut held = 0;
        for cell in cells {
            *cell = get(self)?;
            held += 1;
        }
        self.same_shape(saved, held, what)
    }

    fn same_shape(&self, saved: usize, held: usize, what: &str) -> Result<(), StateError> {
        if saved == held {
            return Ok(());
        }
        Err(self.bad(format!("saved {saved} {what}, machine holds {held}")))
    }

    /// Checks that the stream has been fully consumed.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] when trailing words remain.
    pub fn finish(&self) -> Result<(), StateError> {
        match self.words.len() - self.pos {
            0 => Ok(()),
            n => Err(self.bad(format!("{n} trailing words"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The error a read is refused with, as (section, word offset, detail).
    fn refusal<T: fmt::Debug>(got: Result<T, StateError>) -> (String, usize, String) {
        match got {
            Err(StateError::BadValue {
                section,
                at,
                detail,
            }) => (section, at, detail),
            other => panic!("expected a bad value, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_every_primitive() {
        let mut w = StateWriter::new();
        w.section("hdr");
        w.u64(u64::MAX);
        w.usize(42);
        w.u32(u32::MAX);
        w.u16(u16::MAX);
        w.bool(true);
        w.bool(false);
        w.opt(Some(7), StateWriter::u64);
        w.opt(None, StateWriter::u16);
        w.u64_slice(&[1, 2, 3]);
        w.seq([[4u16, 5], [6, 7]], |w, pair| w.seq(pair, StateWriter::u16));
        w.seq([8usize, 9], StateWriter::usize);
        w.usize(3);
        let words = w.into_words();

        let mut r = StateReader::new(&words);
        r.section("hdr").unwrap();
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u16().unwrap(), u16::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.opt(StateReader::u64).unwrap(), Some(7));
        assert_eq!(r.opt(StateReader::u16).unwrap(), None);
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        let nested: VecDeque<Vec<u16>> = r.seq(|r| r.seq(StateReader::u16)).unwrap();
        assert_eq!(nested, [vec![4, 5], vec![6, 7]]);
        let mut held = [0usize; 2];
        r.lane(&mut held, "cells", StateReader::usize).unwrap();
        assert_eq!(held, [8, 9]);
        assert_eq!(r.index(4, "port").unwrap(), 3);
        r.finish().unwrap();
    }

    #[test]
    fn tag_mismatch_names_both_sections() {
        let mut w = StateWriter::new();
        w.section("alpha");
        let words = w.into_words();
        let mut r = StateReader::new(&words);
        match r.section("beta") {
            Err(StateError::TagMismatch { expected, found }) => {
                assert_eq!(expected, "beta");
                assert_eq!(found, "alpha");
            }
            other => panic!("expected tag mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_names_the_section() {
        let mut w = StateWriter::new();
        w.section("routers");
        let words = w.into_words();
        let mut r = StateReader::new(&words);
        r.section("routers").unwrap();
        match r.u64() {
            Err(StateError::UnexpectedEnd { section }) => assert_eq!(section, "routers"),
            other => panic!("expected unexpected-end, got {other:?}"),
        }
    }

    #[test]
    fn a_count_above_the_words_remaining_is_refused_before_any_item_is_read() {
        // Two words follow the count; three items cannot fit in them.
        let words = vec![3, 0, 0];
        let mut reads = 0;
        let got: Result<Vec<u64>, _> = StateReader::new(&words).seq(|r| {
            reads += 1;
            r.u64()
        });
        let (_, at, detail) = refusal(got);
        assert_eq!((at, reads), (0, 0));
        assert!(
            detail.contains("3 items") && detail.contains("2 words"),
            "{detail}"
        );
        assert!(StateReader::new(&[u64::MAX]).u64_vec().is_err());
    }

    #[test]
    fn an_index_must_be_below_its_bound() {
        let words = vec![4, 3];
        let mut r = StateReader::new(&words);
        let (_, _, detail) = refusal(r.index(4, "output port"));
        assert!(detail.contains("output port 4"), "{detail}");
        assert_eq!(r.index(4, "output port").unwrap(), 3);
    }

    #[test]
    fn a_shape_mismatch_names_both_counts() {
        let words = vec![3, 1, 1];
        let (_, _, detail) = refusal(StateReader::new(&words).shape(2, "receive engines"));
        assert_eq!(detail, "saved 3 receive engines, machine holds 2");
        // A lane fills the cells the machine holds, no more, then
        // refuses the same way.
        let mut held = [false; 2];
        let got = StateReader::new(&words).lane(&mut held, "BCB flags", StateReader::bool);
        assert_eq!(refusal(got).2, "saved 3 BCB flags, machine holds 2");
        assert_eq!(held, [true; 2]);
    }

    #[test]
    fn narrow_reads_refuse_what_does_not_fit() {
        assert!(StateReader::new(&[65_536]).u16().is_err());
        assert_eq!(StateReader::new(&[65_535]).u16().unwrap(), u16::MAX);
        assert!(StateReader::new(&[1 << 32]).u32().is_err());
        assert!(StateReader::new(&[2]).bool().is_err());
        assert!(StateReader::new(&[2, 9]).opt(StateReader::u64).is_err());
    }

    #[test]
    fn bad_names_the_section_read_last_and_the_word_offset() {
        let mut w = StateWriter::new();
        w.section("network");
        w.u64(1);
        w.section("endpoint");
        w.u64(2);
        w.u64(70_000);
        let words = w.into_words();
        let mut r = StateReader::new(&words);
        assert_eq!(refusal::<()>(Err(r.bad("nothing read"))).0, "<start>");
        r.section("network").unwrap();
        r.u64().unwrap();
        r.section("endpoint").unwrap();
        r.u64().unwrap();
        let (section, at, _) = refusal(r.u16());
        assert_eq!((section.as_str(), at), ("endpoint", 4));
        let shown = r.bad("out of range").to_string();
        assert_eq!(
            shown,
            "bad value in section `endpoint` at word 4: out of range"
        );
    }

    #[test]
    fn trailing_words_fail_finish() {
        let words = vec![1, 2];
        let mut r = StateReader::new(&words);
        r.u64().unwrap();
        assert_eq!(refusal(r.finish()).2, "1 trailing words");
    }
}

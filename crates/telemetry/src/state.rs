//! The state cursor: the one word-stream vocabulary every
//! checkpointable layer saves and restores itself with.
//!
//! A checkpoint is ultimately a flat sequence of `u64` words. Each
//! subsystem (router, endpoint, engine, telemetry registry, …) walks
//! its mutable state behind an 8-byte ASCII section tag. Keeping the
//! primitives here, at the bottom of the crate graph, lets `metro_core`
//! components serialize themselves without the sim layer having to
//! reach into private fields.
//!
//! The format is deliberately dumb: no varints, no alignment games,
//! just tagged spans of words. Byte-stability falls out of the fact
//! that every encoder walks its state in a fixed order.
//!
//! ## One walk, both directions
//!
//! A type's state is **one body**, written once with
//! [`state_walk!`](crate::state_walk), which emits both
//! [`State::save_state`] and [`State::restore_state`] from it.
//! [`StateWriter`] and [`StateReader`] have the same methods: the
//! writer takes `&T` and writes the word, the reader takes `&mut T`,
//! reads the word, checks it and stores it. The body reaches its fields
//! by destructuring, so match ergonomics hand the writer `&` and the
//! reader `&mut`. A field is one line in one body; a check is a
//! [`StateReader::check`] at the word it reads. A one-sided change of
//! a field's order, width or check cannot be written.
//!
//! | primitive | words | what restore checks |
//! |-----------|-------|---------------------|
//! | `section(tag)` | the tag | the same tag |
//! | `u64` / `usize` / `u32` / `u16` / `bool` | one | the value fits the type |
//! | `index(v, bound, what)` | one | value < bound |
//! | `tag(v, blanks, what)` | an enum's variant `k` | `k` names a blank; the value becomes `blanks[k]` |
//! | `code(v, encode, decode, what)` | `encode(v)` | `decode` accepts it |
//! | `opt(v, f)` | presence, then the value | presence is 0/1 |
//! | `seq(v, f)` | count, then each item | count ≤ words remaining |
//! | `lane(cells, what, f)` | count, then each cell | count = what the machine holds |
//! | `each(cells, f)` | each cell, no count | — |
//! | `ring(regs, oldest, f)` | each register, oldest first | — |
//! | `state(v)` / `state_within(v, w)` | the nested type's walk | whatever it checks |
//! | `check(ok, why)` | none | `ok()`, refused at the word just read |
//! | `on_restore(v, fix)` | none | — (restore only: `fix(v)`) |
//!
//! A refusal is a [`StateError::BadValue`] naming the section the
//! stream is really in and the word it stopped at.
//!
//! Saving takes `&self`: a checkpoint is taken from a live run, and a
//! walk that needed `&mut self` would make the caller clone the whole
//! machine — twice its heap at every checkpoint — to save it.

use std::any::type_name;
use std::fmt;
use std::mem::discriminant;

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

/// A value whose mutable state is one walk of the word stream.
/// Implemented by [`state_walk!`](crate::state_walk), never by hand.
pub trait State {
    /// Appends the state to a checkpoint stream.
    fn save_state(&self, w: &mut StateWriter);

    /// Overwrites the state from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// [`StateError`] for a word the walk refuses.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;
}

/// [`State`] for a value whose restore is checked against what it does
/// not hold itself — `within`: the clock, the machine's sizes.
pub trait StateWithin<W> {
    /// Appends the state to a checkpoint stream.
    fn save_state(&self, w: &mut StateWriter, within: W);

    /// Overwrites the state from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// [`StateError`] for a word the walk refuses.
    fn restore_state(&mut self, r: &mut StateReader<'_>, within: W) -> Result<(), StateError>;
}

impl<T: State + ?Sized> State for Box<T> {
    fn save_state(&self, w: &mut StateWriter) {
        (**self).save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        (**self).restore_state(r)
    }
}

impl<W, T: StateWithin<W> + ?Sized> StateWithin<W> for Box<T> {
    fn save_state(&self, w: &mut StateWriter, within: W) {
        (**self).save_state(w, within);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>, within: W) -> Result<(), StateError> {
        (**self).restore_state(r, within)
    }
}

/// Emits a type's [`State`] (or [`StateWithin`]) from one body. The body
/// sees the value as `this` — `&Self` when saving, `&mut Self` when
/// restoring — and the cursor as `s`, and returns
/// `Result<(), StateError>`:
///
/// ```
/// use metro_telemetry::state::{State, StateReader, StateWriter};
///
/// #[derive(Default)]
/// struct Clock {
///     now: u64,
///     ticks: Vec<u16>,
/// }
///
/// metro_telemetry::state_walk! {
///     impl State for Clock => |this, s| {
///         let Clock { now, ticks } = this;
///         s.section("clock")?;
///         s.u64(now)?;
///         s.seq(ticks, |s, t| s.u16(t))
///     }
/// }
///
/// let mut w = StateWriter::new();
/// Clock { now: 7, ticks: vec![1, 2] }.save_state(&mut w);
/// let words = w.into_words();
/// let mut back = Clock::default();
/// back.restore_state(&mut StateReader::new(&words)).unwrap();
/// assert_eq!((back.now, back.ticks), (7, vec![1, 2]));
/// ```
#[macro_export]
macro_rules! state_walk {
    (impl State for $ty:ty => |$this:ident, $s:ident| $body:block) => {
        $crate::state_walk!(@ $crate::state::State, $ty, $this, $s, [], $body);
    };
    (impl StateWithin<$w:ty> for $ty:ty =>
        |$this:ident, $s:ident, $within:pat_param| $body:block) => {
        $crate::state_walk!(
            @ $crate::state::StateWithin<$w>, $ty, $this, $s, [, $within: $w], $body
        );
    };
    (@ $trait:path, $ty:ty, $this:ident, $s:ident, [$($within:tt)*], $body:block) => {
        // A two-way body passes `&mut` locals and `.into_iter()`s fields
        // that are `&` on the saving side.
        #[allow(clippy::into_iter_on_ref, clippy::unnecessary_mut_passed)]
        impl $trait for $ty {
            #[inline]
            #[allow(clippy::redundant_closure_call)]
            fn save_state(&self, $s: &mut $crate::state::StateWriter $($within)*) {
                let $this = self;
                $crate::state::saved((|| $body)());
            }

            #[inline]
            fn restore_state(
                &mut self,
                $s: &mut $crate::state::StateReader<'_> $($within)*
            ) -> ::core::result::Result<(), $crate::state::StateError> {
                let $this = self;
                $body
            }
        }
    };
}

/// The end of a save: a writer refuses nothing.
#[doc(hidden)]
#[inline]
pub fn saved(walk: Result<(), StateError>) {
    if let Err(e) = walk {
        unreachable!("a state writer refused a word: {e}");
    }
}

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

/// The outcome of every primitive: a writer's is always `Ok`.
type Walked = Result<(), StateError>;

/// The position of `v`'s variant among `blanks`.
fn variant<T>(v: &T, blanks: &[T], what: &str) -> u64 {
    let at = blanks
        .iter()
        .position(|b| discriminant(b) == discriminant(v));
    at.unwrap_or_else(|| panic!("no blank {what} has this variant")) as u64
}

/// Appends state as a flat word stream with tagged sections. Each
/// method writes what the [`StateReader`] method of the same name reads
/// (see the [module documentation](self)).
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

    /// The accumulated words.
    #[must_use]
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Opens a tagged section (tags are at most 8 ASCII bytes).
    #[inline]
    pub fn section(&mut self, tag: &str) -> Walked {
        self.u64(&tag_word(tag))
    }

    /// One raw word.
    #[inline]
    pub fn u64(&mut self, v: &u64) -> Walked {
        self.words.push(*v);
        Ok(())
    }

    /// A `usize`, as a full word.
    #[inline]
    pub fn usize(&mut self, v: &usize) -> Walked {
        self.u64(&(*v as u64))
    }

    /// A `u32`, as a full word.
    #[inline]
    pub fn u32(&mut self, v: &u32) -> Walked {
        self.u64(&u64::from(*v))
    }

    /// A `u16`, as a full word.
    #[inline]
    pub fn u16(&mut self, v: &u16) -> Walked {
        self.u64(&u64::from(*v))
    }

    /// A bool, as 0/1.
    #[inline]
    pub fn bool(&mut self, v: &bool) -> Walked {
        self.u64(&u64::from(*v))
    }

    /// A `usize` that indexes something `bound` long.
    #[inline]
    pub fn index(&mut self, v: &usize, _bound: usize, _what: &str) -> Walked {
        self.usize(v)
    }

    /// An enum's variant: its position among `blanks`, the one table
    /// both directions read.
    ///
    /// # Panics
    ///
    /// If no blank has `v`'s variant.
    #[inline]
    pub fn tag<T: Clone>(&mut self, v: &T, blanks: &[T], what: &str) -> Walked {
        self.u64(&variant(v, blanks, what))
    }

    /// A value as the one word `encode` makes of it.
    #[inline]
    pub fn code<T>(
        &mut self,
        v: &T,
        encode: impl FnOnce(&T) -> u64,
        _decode: impl FnOnce(u64) -> Option<T>,
        _what: &str,
    ) -> Walked {
        self.u64(&encode(v))
    }

    /// A presence word, then what `f` writes for the value.
    #[inline]
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T) -> Walked) -> Walked {
        self.bool(&v.is_some())?;
        v.as_ref().map_or(Ok(()), |x| f(self, x))
    }

    /// The item count, then what `f` writes for each item.
    #[inline]
    pub fn seq<I>(&mut self, items: I, f: impl FnMut(&mut Self, I::Item) -> Walked) -> Walked
    where
        I: IntoIterator<IntoIter: ExactSizeIterator>,
    {
        self.lane(items, "", f)
    }

    /// The cell count, then what `f` writes for each cell.
    #[inline]
    pub fn lane<I>(
        &mut self,
        cells: I,
        _: &str,
        f: impl FnMut(&mut Self, I::Item) -> Walked,
    ) -> Walked
    where
        I: IntoIterator<IntoIter: ExactSizeIterator>,
    {
        let cells = cells.into_iter();
        self.usize(&cells.len())?;
        self.each(cells, f)
    }

    /// What `f` writes for each cell, with no count.
    #[inline]
    pub fn each<I: IntoIterator>(
        &mut self,
        cells: I,
        mut f: impl FnMut(&mut Self, I::Item) -> Walked,
    ) -> Walked {
        cells.into_iter().try_for_each(|c| f(self, c))
    }

    /// What `f` writes for each register, oldest first: `regs[oldest..]`,
    /// then `regs[..oldest]`.
    #[inline]
    pub fn ring<T>(
        &mut self,
        regs: &[T],
        oldest: usize,
        f: impl FnMut(&mut Self, &T) -> Walked,
    ) -> Walked {
        let (newer, older) = regs.split_at(oldest);
        self.each(older.iter().chain(newer), f)
    }

    /// A nested type's walk.
    #[inline]
    pub fn state<T: State + ?Sized>(&mut self, v: &T) -> Walked {
        v.save_state(self);
        Ok(())
    }

    /// A nested type's walk, checked against `within` on restore.
    #[inline]
    pub fn state_within<W, T: StateWithin<W> + ?Sized>(&mut self, v: &T, within: W) -> Walked {
        v.save_state(self, within);
        Ok(())
    }

    /// A restore-time check: nothing to write.
    #[inline]
    pub fn check(&mut self, _ok: impl FnOnce() -> bool, _why: impl fmt::Display) -> Walked {
        Ok(())
    }

    /// A restore-time fix-up: nothing to do.
    #[inline]
    pub fn on_restore<T: ?Sized>(&mut self, _v: &T, _fix: impl FnOnce(&mut T)) {}
}

/// Reads a word stream back. Each method reads what the
/// [`StateWriter`] method of the same name writes, refuses what the
/// [module documentation](self)'s table says, and stores the value.
/// Every refusal is a [`StateError`] naming the section the stream is
/// in.
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

    #[inline]
    fn next_word(&mut self) -> Result<u64, StateError> {
        let w = self.words.get(self.pos).copied();
        let w = w.ok_or_else(|| StateError::UnexpectedEnd {
            section: self.current.clone(),
        })?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads one word into a narrower integer type.
    #[inline]
    fn narrow<T: TryFrom<u64>>(&mut self, v: &mut T) -> Walked {
        let w = self.next_word()?;
        *v = T::try_from(w).map_err(|_| self.bad(format!("{w} overflows {}", type_name::<T>())))?;
        Ok(())
    }

    /// A refusal of the value just read: [`StateError::BadValue`]
    /// naming the last section tag read and the offset of the last
    /// word read. Every refusal goes through here, so the section named
    /// is always one the stream holds.
    #[must_use]
    pub fn bad(&self, detail: impl Into<String>) -> StateError {
        StateError::BadValue {
            section: self.current.clone(),
            at: self.pos.saturating_sub(1),
            detail: detail.into(),
        }
    }

    /// Refuses the trailing words of a stream not fully consumed.
    pub fn finish(&self) -> Walked {
        match self.words.len() - self.pos {
            0 => Ok(()),
            n => Err(self.bad(format!("{n} trailing words"))),
        }
    }

    /// Reads a section tag; [`StateError::TagMismatch`] names both tags.
    pub fn section(&mut self, tag: &str) -> Walked {
        let w = self.next_word()?;
        if w != tag_word(tag) {
            let (expected, found) = (tag.to_string(), tag_name(w));
            return Err(StateError::TagMismatch { expected, found });
        }
        self.current = tag.to_string();
        Ok(())
    }

    /// Reads one raw word.
    #[inline]
    pub fn u64(&mut self, v: &mut u64) -> Walked {
        *v = self.next_word()?;
        Ok(())
    }

    /// Reads a `usize`, refusing a word above `usize::MAX`.
    #[inline]
    pub fn usize(&mut self, v: &mut usize) -> Walked {
        self.narrow(v)
    }

    /// Reads a `u32`, refusing a word above `u32::MAX`.
    #[inline]
    pub fn u32(&mut self, v: &mut u32) -> Walked {
        self.narrow(v)
    }

    /// Reads a `u16`, refusing a word above `u16::MAX`.
    #[inline]
    pub fn u16(&mut self, v: &mut u16) -> Walked {
        self.narrow(v)
    }

    /// Reads a bool, refusing a word other than 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: &mut bool) -> Walked {
        let mut w = 0;
        self.u64(&mut w)?;
        *v = w == 1;
        self.check(|| w <= 1, format_args!("{w} is not a bool"))
    }

    /// Reads a `usize` that indexes something `bound` long, refusing
    /// one that does not.
    #[inline]
    pub fn index(&mut self, v: &mut usize, bound: usize, what: &str) -> Walked {
        self.usize(v)?;
        let v = *v;
        self.check(
            || v < bound,
            format_args!("{what} {v} is out of range (below {bound})"),
        )
    }

    /// Reads an enum's variant `k`, refusing one past `blanks`, and
    /// makes the value `blanks[k]`; the walk then fills its fields.
    #[inline]
    pub fn tag<T: Clone>(&mut self, v: &mut T, blanks: &[T], what: &str) -> Walked {
        let blank = |k| blanks.get(usize::try_from(k).ok()?).cloned();
        self.code(v, |_| 0, blank, what)
    }

    /// Reads a word and makes the value what `decode` makes of it,
    /// refusing a word it refuses.
    #[inline]
    pub fn code<T>(
        &mut self,
        v: &mut T,
        _encode: impl FnOnce(&T) -> u64,
        decode: impl FnOnce(u64) -> Option<T>,
        what: &str,
    ) -> Walked {
        let k = self.next_word()?;
        *v = decode(k).ok_or_else(|| self.bad(format!("{k} is not a {what}")))?;
        Ok(())
    }

    /// Reads a presence word, then what `f` reads into a blank value.
    #[inline]
    pub fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        f: impl FnOnce(&mut Self, &mut T) -> Walked,
    ) -> Walked {
        let mut present = false;
        self.bool(&mut present)?;
        *v = None;
        if present {
            f(self, v.insert(T::default()))?;
        }
        Ok(())
    }

    /// Reads a sequence into a fresh collection, one blank item per
    /// count, each filled by `f`. Every item is at least one word, so a
    /// count above the words remaining is refused before anything is
    /// allocated for it.
    pub fn seq<C, T>(
        &mut self,
        items: &mut C,
        mut f: impl FnMut(&mut Self, &mut T) -> Walked,
    ) -> Walked
    where
        C: FromIterator<T> + IntoIterator<Item = T>,
        T: Default,
    {
        let mut n = 0;
        self.usize(&mut n)?;
        let left = self.words.len() - self.pos;
        self.check(
            || n <= left,
            format_args!("{n} items exceed the {left} words remaining"),
        )?;
        let mut item = |_| {
            let mut item = T::default();
            f(self, &mut item).map(|()| item)
        };
        *items = (0..n).map(&mut item).collect::<Result<C, _>>()?;
        Ok(())
    }

    /// Reads a sequence whose length the machine fixes into the cells it
    /// holds, refusing another count at the count word — so a corrupt
    /// count cannot grow the machine.
    #[inline]
    pub fn lane<I>(
        &mut self,
        cells: I,
        what: &str,
        f: impl FnMut(&mut Self, I::Item) -> Walked,
    ) -> Walked
    where
        I: IntoIterator<IntoIter: ExactSizeIterator>,
    {
        let cells = cells.into_iter();
        let (mut saved, held) = (0, cells.len());
        self.usize(&mut saved)?;
        self.check(
            || saved == held,
            format_args!("saved {saved} {what}, machine holds {held}"),
        )?;
        self.each(cells, f)
    }

    /// Reads each cell, with no count.
    #[inline]
    pub fn each<I: IntoIterator>(
        &mut self,
        cells: I,
        mut f: impl FnMut(&mut Self, I::Item) -> Walked,
    ) -> Walked {
        cells.into_iter().try_for_each(|c| f(self, c))
    }

    /// Reads each register, oldest first: `regs[oldest..]`, then
    /// `regs[..oldest]`.
    #[inline]
    pub fn ring<T>(
        &mut self,
        regs: &mut [T],
        oldest: usize,
        f: impl FnMut(&mut Self, &mut T) -> Walked,
    ) -> Walked {
        let (newer, older) = regs.split_at_mut(oldest);
        self.each(older.iter_mut().chain(newer), f)
    }

    /// Reads a nested type's walk.
    #[inline]
    pub fn state<T: State + ?Sized>(&mut self, v: &mut T) -> Walked {
        v.restore_state(self)
    }

    /// Reads a nested type's walk, checked against `within`.
    #[inline]
    pub fn state_within<W, T: StateWithin<W> + ?Sized>(&mut self, v: &mut T, within: W) -> Walked {
        v.restore_state(self, within)
    }

    /// Refuses the word just read unless `ok()`.
    #[inline]
    pub fn check(&mut self, ok: impl FnOnce() -> bool, why: impl fmt::Display) -> Walked {
        if ok() {
            return Ok(());
        }
        Err(self.bad(why.to_string()))
    }

    /// Runs a restore-only fix-up of `v`.
    #[inline]
    pub fn on_restore<T: ?Sized>(&mut self, v: &mut T, fix: impl FnOnce(&mut T)) {
        fix(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The error a read is refused with, as (section, word offset, detail).
    fn refusal(got: Walked) -> (String, usize, String) {
        match got {
            Err(StateError::BadValue {
                section,
                at,
                detail,
            }) => (section, at, detail),
            other => panic!("expected a bad value, got {other:?}"),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    enum Shape {
        #[default]
        Dot,
        Line {
            len: u16,
        },
    }

    const SHAPES: [Shape; 2] = [Shape::Dot, Shape::Line { len: 0 }];

    /// Every primitive, in one walk.
    #[derive(Debug, Default, PartialEq)]
    struct Everything {
        word: u64,
        size: usize,
        wide: u32,
        narrow: u16,
        flags: [bool; 2],
        some: Option<u64>,
        none: Option<u16>,
        nested: VecDeque<Vec<u16>>,
        cells: [usize; 2],
        port: usize,
        shapes: Vec<Shape>,
        ring: [u16; 3],
        oldest: usize,
    }

    state_walk! {
        impl State for Everything => |this, s| {
            let Everything {
                word, size, wide, narrow, flags, some, none, nested, cells, port, shapes, ring,
                oldest,
            } = this;
            s.section("hdr")?;
            s.u64(word)?;
            s.usize(size)?;
            s.u32(wide)?;
            s.u16(narrow)?;
            s.each(flags, |s, f| s.bool(f))?;
            s.opt(some, |s, v| s.u64(v))?;
            s.opt(none, |s, v| s.u16(v))?;
            s.seq(nested, |s, v| s.seq(v, |s, x| s.u16(x)))?;
            s.lane(cells, "cells", |s, c| s.usize(c))?;
            s.index(port, 4, "port")?;
            s.seq(shapes, |s, v| {
                s.tag(v, &SHAPES, "shape")?;
                match v {
                    Shape::Dot => Ok(()),
                    Shape::Line { len } => s.u16(len),
                }
            })?;
            s.ring(ring, *oldest, |s, v| s.u16(v))
        }
    }

    #[test]
    fn one_walk_round_trips_every_primitive() {
        let full = Everything {
            word: u64::MAX,
            size: 42,
            wide: u32::MAX,
            narrow: u16::MAX,
            flags: [true, false],
            some: Some(7),
            none: None,
            nested: VecDeque::from([vec![4, 5], vec![6, 7]]),
            cells: [8, 9],
            port: 3,
            shapes: vec![Shape::Line { len: 5 }, Shape::Dot],
            ring: [1, 2, 3],
            oldest: 1,
        };
        let mut w = StateWriter::new();
        full.save_state(&mut w);
        let words = w.into_words();
        // The ring is written oldest first.
        assert_eq!(words[words.len() - 3..], [2, 3, 1]);

        // Restored into a ring whose cursor stands at 1 too, it reads
        // back to the same registers.
        let mut back = Everything {
            oldest: 1,
            ..Everything::default()
        };
        let mut r = StateReader::new(&words);
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn tag_mismatch_names_both_sections() {
        let mut w = StateWriter::new();
        w.section("alpha").unwrap();
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
        w.section("routers").unwrap();
        let words = w.into_words();
        let mut r = StateReader::new(&words);
        r.section("routers").unwrap();
        match r.u64(&mut 0) {
            Err(StateError::UnexpectedEnd { section }) => assert_eq!(section, "routers"),
            other => panic!("expected unexpected-end, got {other:?}"),
        }
    }

    #[test]
    fn a_count_above_the_words_remaining_is_refused_before_any_item_is_read() {
        // Two words follow the count; three items cannot fit in them.
        let words = vec![3, 0, 0];
        let mut reads = 0;
        let mut items: Vec<u64> = Vec::new();
        let got = StateReader::new(&words).seq(&mut items, |r, v| {
            reads += 1;
            r.u64(v)
        });
        let (_, at, detail) = refusal(got);
        assert_eq!((at, reads), (0, 0));
        assert!(
            detail.contains("3 items") && detail.contains("2 words"),
            "{detail}"
        );
    }

    #[test]
    fn an_index_must_be_below_its_bound() {
        let words = vec![4, 3];
        let mut r = StateReader::new(&words);
        let mut port = 0;
        let (_, _, detail) = refusal(r.index(&mut port, 4, "output port"));
        assert!(detail.contains("output port 4"), "{detail}");
        r.index(&mut port, 4, "output port").unwrap();
        assert_eq!(port, 3);
    }

    #[test]
    fn a_lane_refuses_another_count_at_the_count_word() {
        let words = vec![3, 1, 1];
        let mut held = [false; 2];
        let got = StateReader::new(&words).lane(&mut held, "BCB flags", |r, b| r.bool(b));
        let (_, at, detail) = refusal(got);
        assert_eq!(
            (at, detail.as_str()),
            (0, "saved 3 BCB flags, machine holds 2")
        );
        assert_eq!(held, [false; 2], "no cell is read");
    }

    #[test]
    fn a_tag_or_code_outside_the_table_is_refused() {
        let mut v = Shape::Dot;
        let (_, _, detail) = refusal(StateReader::new(&[2]).tag(&mut v, &SHAPES, "shape"));
        assert_eq!(detail, "2 is not a shape");
        StateReader::new(&[1])
            .tag(&mut v, &SHAPES, "shape")
            .unwrap();
        assert_eq!(v, Shape::Line { len: 0 });
        let decode = |k: u64| (k < 10).then_some(k as u8);
        let got = StateReader::new(&[10]).code(&mut 0u8, |&v| u64::from(v), decode, "digit");
        assert_eq!(refusal(got).2, "10 is not a digit");
    }

    #[test]
    fn check_refuses_at_the_word_just_read_and_on_restore_runs_only_there() {
        let words = vec![1, 0];
        let mut r = StateReader::new(&words);
        let mut v = 0;
        r.u64(&mut v).unwrap();
        r.check(|| v == 1, "one").unwrap();
        r.u64(&mut v).unwrap();
        let (_, at, detail) = refusal(r.check(|| v == 1, format_args!("{v} is not one")));
        assert_eq!((at, detail.as_str()), (1, "0 is not one"));

        let mut fixed = 0;
        StateWriter::new().on_restore(&fixed, |f| *f = 1);
        assert_eq!(fixed, 0);
        r.on_restore(&mut fixed, |f| *f = 1);
        assert_eq!(fixed, 1);
    }

    #[test]
    fn narrow_reads_refuse_what_does_not_fit() {
        assert!(StateReader::new(&[65_536]).u16(&mut 0).is_err());
        let mut v = 0;
        StateReader::new(&[65_535]).u16(&mut v).unwrap();
        assert_eq!(v, u16::MAX);
        assert!(StateReader::new(&[1 << 32]).u32(&mut 0).is_err());
        assert!(StateReader::new(&[2]).bool(&mut false).is_err());
        let mut opt = None;
        assert!(StateReader::new(&[2, 9])
            .opt(&mut opt, |r, v| r.u64(v))
            .is_err());
    }

    #[test]
    fn bad_names_the_section_read_last_and_the_word_offset() {
        let mut w = StateWriter::new();
        w.section("network").unwrap();
        w.u64(&1).unwrap();
        w.section("endpoint").unwrap();
        w.u64(&2).unwrap();
        w.u64(&70_000).unwrap();
        let words = w.into_words();
        let mut r = StateReader::new(&words);
        assert_eq!(refusal(Err(r.bad("nothing read"))).0, "<start>");
        r.section("network").unwrap();
        r.u64(&mut 0).unwrap();
        r.section("endpoint").unwrap();
        r.u64(&mut 0).unwrap();
        let (section, at, _) = refusal(r.u16(&mut 0));
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
        r.u64(&mut 0).unwrap();
        assert_eq!(refusal(r.finish()).2, "1 trailing words");
    }
}

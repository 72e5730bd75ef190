//! Pipelined inter-component wires.
//!
//! METRO "pipelines data across the wires interconnecting routers …
//! the wire will look, for the most part, like a time-delay. The
//! necessary trick is to make the time-delay approximate an integral
//! number of clock cycles so that it does look like a number of pipeline
//! registers" (paper §5.1, Variable Turn Delay). A [`Wire`] is exactly
//! that: a shift register of configurable depth in each direction, plus
//! the backward control bit (BCB) used by fast path reclamation.
//!
//! A wire with delay 0 is combinational — the RN1 style where each
//! routing stage contributes a single pipeline register and the
//! interconnect adds none.

use metro_core::word::phit;
use metro_core::Word;
use metro_telemetry::state::{StateError, StateReader, StateWriter};
use metro_topo::fault::FaultKind;
use std::collections::VecDeque;

/// A bidirectional, pipelined link between two components.
///
/// The *forward* lane carries words away from the sources (toward
/// higher stages); the *reverse* lane carries words back; the BCB lane
/// carries fast-reclamation requests toward the sources (opposite the
/// forward lane).
#[derive(Debug, Clone)]
pub struct Wire {
    delay: usize,
    fwd: VecDeque<Word>,
    rev: VecDeque<Word>,
    bcb: VecDeque<bool>,
    fault: Option<FaultKind>,
    /// Data words seen since the fault was injected (drives the
    /// intermittent fault's period).
    words_seen: u32,
}

impl Wire {
    /// Creates a wire with the given pipeline delay in cycles (0 =
    /// combinational).
    #[must_use]
    pub fn new(delay: usize) -> Self {
        Self {
            delay,
            fwd: std::iter::repeat_n(Word::Empty, delay).collect(),
            rev: std::iter::repeat_n(Word::Empty, delay).collect(),
            bcb: std::iter::repeat_n(false, delay).collect(),
            fault: None,
            words_seen: 0,
        }
    }

    /// The wire's pipeline delay.
    #[must_use]
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Injects a fault into the wire (dead or corrupting).
    pub fn set_fault(&mut self, fault: Option<FaultKind>) {
        self.fault = fault;
    }

    /// The wire's current fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<FaultKind> {
        self.fault
    }

    /// Advances the wire one clock cycle: pushes this cycle's words in
    /// at each end and returns the words emerging at the far ends,
    /// `(forward_out, reverse_out, bcb_out)`.
    pub fn advance(&mut self, fwd_in: Word, rev_in: Word, bcb_in: bool) -> (Word, Word, bool) {
        let (fwd_in, rev_in, bcb_in) = match self.fault {
            Some(FaultKind::Dead) => (Word::Empty, Word::Empty, false),
            Some(FaultKind::CorruptData { xor }) => {
                (corrupt(fwd_in, xor), corrupt(rev_in, xor), bcb_in)
            }
            Some(FaultKind::Intermittent { xor, period }) => {
                let mut strike = |w: Word| match w {
                    Word::Data(v) => {
                        self.words_seen = self.words_seen.wrapping_add(1);
                        if period > 0 && self.words_seen.is_multiple_of(period) {
                            Word::Data(v ^ xor)
                        } else {
                            Word::Data(v)
                        }
                    }
                    other => other,
                };
                let f = strike(fwd_in);
                let r = strike(rev_in);
                (f, r, bcb_in)
            }
            None => (fwd_in, rev_in, bcb_in),
        };
        if self.delay == 0 {
            return (fwd_in, rev_in, bcb_in);
        }
        self.fwd.push_back(fwd_in);
        self.rev.push_back(rev_in);
        self.bcb.push_back(bcb_in);
        (
            self.fwd.pop_front().unwrap_or(Word::Empty),
            self.rev.pop_front().unwrap_or(Word::Empty),
            self.bcb.pop_front().unwrap_or(false),
        )
    }

    /// Whether [`Wire::advance`] is the identity function: zero pipeline
    /// delay and no fault. Transparency only changes when a fault is
    /// injected or cleared, so an engine may cache it between fault
    /// applications and skip `advance` entirely for transparent wires.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.delay == 0 && self.fault.is_none()
    }

    /// Whether no word is in flight on either lane (and no BCB).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.fwd.iter().all(|w| *w == Word::Empty)
            && self.rev.iter().all(|w| *w == Word::Empty)
            && self.bcb.iter().all(|b| !b)
    }

    /// Clears any in-flight words (used when re-arming a repaired wire).
    pub fn flush(&mut self) {
        for w in self.fwd.iter_mut().chain(self.rev.iter_mut()) {
            *w = Word::Empty;
        }
        for b in self.bcb.iter_mut() {
            *b = false;
        }
    }

    /// Appends the in-flight words on every lane plus the intermittent
    /// fault's word counter to a checkpoint stream. The delay is
    /// construction-fixed and the fault field is owned by the fault
    /// set (re-applied by the engine on restore), so neither is
    /// written.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.fwd.len());
        for &word in self.fwd.iter().chain(&self.rev) {
            phit::put(w, word);
        }
        for &b in &self.bcb {
            w.bool(b);
        }
        w.u32(self.words_seen);
    }

    /// Overwrites the in-flight state from a checkpoint stream. Never
    /// touches the fault field — restore order is: rebuild, re-apply
    /// faults, then restore wire contents.
    ///
    /// # Errors
    ///
    /// [`StateError::BadValue`] on a delay mismatch or a corrupt packed
    /// word.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.shape(self.delay, "wire pipeline registers")?;
        for word in self.fwd.iter_mut().chain(&mut self.rev) {
            *word = phit::get(r)?;
        }
        for b in &mut self.bcb {
            *b = r.bool()?;
        }
        self.words_seen = r.u32()?;
        Ok(())
    }
}

fn corrupt(word: Word, xor: u16) -> Word {
    match word {
        Word::Data(v) => Word::Data(v ^ xor),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_is_combinational() {
        let mut w = Wire::new(0);
        let (f, r, b) = w.advance(Word::Data(5), Word::Turn, true);
        assert_eq!(f, Word::Data(5));
        assert_eq!(r, Word::Turn);
        assert!(b);
    }

    #[test]
    fn delay_k_shifts_k_cycles() {
        for k in 1..4 {
            let mut w = Wire::new(k);
            let mut outs = Vec::new();
            for c in 0..k + 2 {
                let (f, _, _) = w.advance(Word::Data(c as u16), Word::Empty, false);
                outs.push(f);
            }
            for (c, out) in outs.iter().enumerate() {
                if c < k {
                    assert_eq!(*out, Word::Empty, "delay {k} cycle {c}");
                } else {
                    assert_eq!(*out, Word::Data((c - k) as u16));
                }
            }
        }
    }

    #[test]
    fn both_lanes_are_independent() {
        let mut w = Wire::new(1);
        w.advance(Word::Data(1), Word::Data(2), true);
        let (f, r, b) = w.advance(Word::Empty, Word::Empty, false);
        assert_eq!(f, Word::Data(1));
        assert_eq!(r, Word::Data(2));
        assert!(b);
    }

    #[test]
    fn dead_wire_reads_empty() {
        let mut w = Wire::new(0);
        w.set_fault(Some(FaultKind::Dead));
        let (f, r, b) = w.advance(Word::Data(9), Word::Turn, true);
        assert_eq!(f, Word::Empty);
        assert_eq!(r, Word::Empty);
        assert!(!b);
    }

    #[test]
    fn corrupting_wire_flips_data_bits_only() {
        let mut w = Wire::new(0);
        w.set_fault(Some(FaultKind::CorruptData { xor: 0x01 }));
        let (f, r, _) = w.advance(Word::Data(0x10), Word::Turn, false);
        assert_eq!(f, Word::Data(0x11));
        assert_eq!(r, Word::Turn, "control words pass unharmed");
    }

    #[test]
    fn intermittent_fault_strikes_periodically() {
        let mut w = Wire::new(0);
        w.set_fault(Some(FaultKind::Intermittent {
            xor: 0x01,
            period: 3,
        }));
        let mut corrupted = 0;
        for k in 0..9u16 {
            let (f, _, _) = w.advance(Word::Data(k), Word::Empty, false);
            if f != Word::Data(k) {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 3, "one strike per period");
        // Control words never counted nor corrupted.
        let (f, _, _) = w.advance(Word::Turn, Word::Empty, false);
        assert_eq!(f, Word::Turn);
    }

    #[test]
    fn fault_can_be_repaired() {
        let mut w = Wire::new(0);
        w.set_fault(Some(FaultKind::Dead));
        w.set_fault(None);
        let (f, _, _) = w.advance(Word::Data(3), Word::Empty, false);
        assert_eq!(f, Word::Data(3));
    }

    #[test]
    fn flush_clears_in_flight_words() {
        let mut w = Wire::new(2);
        w.advance(Word::Data(1), Word::Data(2), true);
        w.flush();
        let (f, r, b) = w.advance(Word::Empty, Word::Empty, false);
        assert_eq!((f, r, b), (Word::Empty, Word::Empty, false));
    }
}

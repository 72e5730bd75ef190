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
//!
//! ## Storage: one ring of registers
//!
//! The three lanes move in lockstep — every cycle each takes one value
//! in and gives one out — so a wire of delay `d` is one ring of `d`
//! `(forward, reverse, BCB)` registers and a cursor at the oldest.
//! [`Wire::advance`] reads the oldest entry out, writes the entering
//! values into its slot and moves the cursor on. A delay-0 wire holds an
//! empty ring: no heap, and `advance` passes its inputs straight
//! through. A wire is 32 bytes (pinned by a unit test); a checkpoint
//! still spells it lane by lane, oldest register first.

use metro_core::Word;
use metro_topo::fault::FaultKind;

/// One pipeline register of a wire: the forward word, the reverse word
/// and the BCB latched in the same cycle.
type Register = (Word, Word, bool);

/// A register holding nothing.
const QUIET: Register = (Word::Empty, Word::Empty, false);

/// Bytes a wire holds per cycle of delay: one register.
pub(crate) const REGISTER_BYTES: usize = std::mem::size_of::<Register>();

/// A bidirectional, pipelined link between two components.
///
/// The *forward* lane carries words away from the sources (toward
/// higher stages); the *reverse* lane carries words back; the BCB lane
/// carries fast-reclamation requests toward the sources (opposite the
/// forward lane).
#[derive(Debug, Clone)]
pub struct Wire {
    /// The pipeline registers, one per cycle of delay.
    regs: Box<[Register]>,
    /// Index of the oldest register: the next to leave the wire.
    oldest: u32,
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
            regs: vec![QUIET; delay].into_boxed_slice(),
            oldest: 0,
            fault: None,
            words_seen: 0,
        }
    }

    /// The wire's pipeline delay.
    #[must_use]
    pub fn delay(&self) -> usize {
        self.regs.len()
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
        let at = self.oldest as usize;
        let Some(slot) = self.regs.get_mut(at) else {
            return (fwd_in, rev_in, bcb_in);
        };
        let out = std::mem::replace(slot, (fwd_in, rev_in, bcb_in));
        // A ring longer than u32::MAX registers is tens of gigabytes.
        self.oldest = if at + 1 == self.regs.len() {
            0
        } else {
            self.oldest + 1
        };
        out
    }

    /// Whether [`Wire::advance`] is the identity function: zero pipeline
    /// delay and no fault. Transparency only changes when a fault is
    /// injected or cleared, so an engine may cache it between fault
    /// applications and skip `advance` entirely for transparent wires.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.regs.is_empty() && self.fault.is_none()
    }

    /// Whether no word is in flight on either lane (and no BCB).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.regs.iter().all(|&r| r == QUIET)
    }

    /// Clears any in-flight words (used when re-arming a repaired wire).
    pub fn flush(&mut self) {
        self.regs.fill(QUIET);
    }
}

// The in-flight words on every lane plus the intermittent fault's word
// counter: the delay, the forward lane oldest first, then the reverse
// lane, then the BCB lane. A restore fills the ring oldest first from
// its own cursor. The delay is construction-fixed and the fault field is
// owned by the fault set (re-applied by the engine before restore), so
// neither is restored from the stream.
metro_telemetry::state_walk! {
    impl State for Wire => |this, s| {
        let Wire { regs, oldest, fault: _, words_seen } = this;
        let (oldest, held) = (*oldest as usize, regs.len());
        let mut delay = held;
        s.usize(&mut delay)?;
        s.check(
            || delay == held,
            format_args!("saved {delay} wire pipeline registers, machine holds {held}"),
        )?;
        s.ring(regs, oldest, |s, (fwd, _, _)| s.state(fwd))?;
        s.ring(regs, oldest, |s, (_, rev, _)| s.state(rev))?;
        s.ring(regs, oldest, |s, (_, _, bcb)| s.bool(bcb))?;
        s.u32(words_seen)
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
    use metro_core::word::phit;
    use metro_telemetry::{State, StateReader, StateWriter};

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

    /// A field that regrows the wire fails here rather than drifting the
    /// machine's resident size: metro1k holds 14,336 wires.
    #[test]
    fn a_wire_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Wire>() <= 32);
        assert!(
            Wire::new(0).regs.is_empty(),
            "a combinational wire holds no heap"
        );
        // The figure `fabric::MAX_WIRE_RING_BYTES` documents.
        assert_eq!(REGISTER_BYTES, 10, "bytes per cycle of delay");
    }

    /// The stream spells each lane oldest register first wherever the
    /// ring's cursor stands, and a restore reads it back into a ring that
    /// emits the same words.
    #[test]
    fn save_writes_each_lane_oldest_first_and_restores() {
        let mut w = Wire::new(3);
        for v in 1..=4u16 {
            w.advance(Word::Data(v), Word::Data(10 + v), v % 2 == 0);
        }
        let mut out = StateWriter::new();
        w.save_state(&mut out);
        let words = out.into_words();
        let mut lanes = vec![3];
        lanes.extend((2..=4u16).map(|v| phit::pack(Word::Data(v))));
        lanes.extend((2..=4u16).map(|v| phit::pack(Word::Data(10 + v))));
        lanes.extend((2..=4u16).map(|v| u64::from(v % 2 == 0)));
        lanes.push(0);
        assert_eq!(words, lanes);

        let mut back = Wire::new(3);
        back.advance(Word::Turn, Word::Turn, true);
        back.restore_state(&mut StateReader::new(&words)).unwrap();
        for _ in 0..4 {
            let (f, r, b) = QUIET;
            assert_eq!(w.advance(f, r, b), back.advance(f, r, b));
        }
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

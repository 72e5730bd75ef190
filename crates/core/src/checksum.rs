//! Stream checksums.
//!
//! METRO relies on end-to-end checksums for reliable delivery (paper §4),
//! and each router additionally reports a checksum of the words it
//! forwarded when the connection is turned, letting the source localize
//! where corruption entered the stream (paper §5.1, "Connection
//! Reversal").
//!
//! The model uses a CRC-16 (XMODEM polynomial `0x1021`) over the
//! `w`-bit data words of a stream. Position sensitivity matters: a
//! plain sum would miss word-swap faults. A Fletcher-16 (mod 255) sum
//! is not enough either — it is linear in the byte deltas, so a stuck
//! link XORing the *same* bit into every word aliases whenever the
//! flip directions balance: corrupting `[0x9C, 0x4E, 0xEB, 0xF0]`
//! with `xor = 0x10` yields deltas −16, +16, +16, −16, which cancel
//! in both Fletcher sums and deliver silently (chaos campaign seed
//! `0x57b0` found exactly this). The CRC's polynomial division spreads
//! each delta across the register, so constant-XOR patterns cannot
//! cancel positionally.

use crate::word::Word;

/// A running checksum over the data words of a connection stream.
///
/// Feed every forwarded word with [`StreamChecksum::absorb`]; only
/// payload-bearing words ([`Word::Data`]) affect the sum, so routers and
/// endpoints converge on the same value regardless of how many
/// DATA-IDLE fill words the pipeline inserted.
///
/// # Examples
///
/// ```
/// use metro_core::{StreamChecksum, Word};
///
/// let mut a = StreamChecksum::new();
/// let mut b = StreamChecksum::new();
/// for w in [Word::Data(1), Word::DataIdle, Word::Data(2)] {
///     a.absorb(&w);
/// }
/// for w in [Word::Data(1), Word::Data(2), Word::DataIdle] {
///     b.absorb(&w);
/// }
/// assert_eq!(a.value(), b.value()); // DATA-IDLE is transparent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StreamChecksum {
    crc: u16,
}

/// The CRC-16/XMODEM polynomial (x¹⁶ + x¹² + x⁵ + 1).
const POLY: u16 = 0x1021;

/// Per-byte CRC step table, built at compile time. This runs once per
/// forwarded data word in every router — the single most frequent
/// arithmetic in the simulator — so the division is precomputed.
const CRC_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = (byte as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

impl StreamChecksum {
    /// Creates an empty checksum.
    #[must_use]
    pub const fn new() -> Self {
        Self { crc: 0 }
    }

    /// Absorbs one channel word. Only [`Word::Data`] words contribute;
    /// control words (DATA-IDLE, TURN, status, …) are transparent.
    #[inline]
    pub fn absorb(&mut self, word: &Word) {
        if let Word::Data(v) = word {
            self.absorb_value(*v);
        }
    }

    /// Absorbs a raw data value (low byte first, then high byte).
    #[inline]
    pub fn absorb_value(&mut self, v: u16) {
        for byte in [(v & 0xFF) as u8, (v >> 8) as u8] {
            self.crc = (self.crc << 8) ^ CRC_TABLE[usize::from((self.crc >> 8) as u8 ^ byte)];
        }
    }

    /// The current checksum value.
    #[must_use]
    pub fn value(&self) -> u16 {
        self.crc
    }

    /// Checksums an entire slice of words in one call.
    #[must_use]
    pub fn over<'a, I: IntoIterator<Item = &'a Word>>(words: I) -> u16 {
        let mut c = Self::new();
        for w in words {
            c.absorb(w);
        }
        c.value()
    }

    /// Checksums a slice of raw data values.
    #[must_use]
    pub fn over_values<I: IntoIterator<Item = u16>>(values: I) -> u16 {
        let mut c = Self::new();
        for v in values {
            c.absorb_value(v);
        }
        c.value()
    }

    /// Resets the checksum to its initial state.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

// The CRC register is the whole running state.
metro_telemetry::state_walk! {
    impl State for StreamChecksum => |this, s| {
        let StreamChecksum { crc } = this;
        s.u16(crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_checksums_to_zero() {
        assert_eq!(StreamChecksum::new().value(), 0);
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        // The table-driven step must compute the same CRC-16/XMODEM
        // remainder as the straightforward bit-at-a-time division, over
        // a stride of the word space and across accumulated state.
        fn bitwise(crc: u16, byte: u8) -> u16 {
            let mut crc = crc ^ (u16::from(byte) << 8);
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                };
            }
            crc
        }
        let mut table_driven = StreamChecksum::new();
        let mut reference = 0u16;
        for v in (0..=u16::MAX).step_by(97) {
            table_driven.absorb_value(v);
            reference = bitwise(reference, (v & 0xFF) as u8);
            reference = bitwise(reference, (v >> 8) as u8);
            assert_eq!(table_driven.value(), reference, "diverged at word {v}");
        }
    }

    #[test]
    fn detects_balanced_constant_xor_corruption() {
        // Chaos seed 0x57b0: a stuck link XORed 0x10 into every word of
        // this payload. The bit-4 flip directions balance (−16, +16,
        // +16, −16), which cancels in a Fletcher-16 (mod 255) sum — the
        // corruption delivered silently. The CRC must tell them apart.
        let clean = StreamChecksum::over_values([0x9C, 0x4E, 0xEB, 0xF0]);
        let corrupted = StreamChecksum::over_values([0x8C, 0x5E, 0xFB, 0xE0]);
        assert_ne!(clean, corrupted, "balanced constant-XOR pattern aliased");
    }

    #[test]
    fn detects_single_word_corruption() {
        let clean = StreamChecksum::over_values([1, 2, 3, 4]);
        let dirty = StreamChecksum::over_values([1, 2, 7, 4]);
        assert_ne!(clean, dirty);
    }

    #[test]
    fn detects_word_swap() {
        let clean = StreamChecksum::over_values([0xA, 0xB]);
        let swapped = StreamChecksum::over_values([0xB, 0xA]);
        assert_ne!(clean, swapped, "checksum must be position sensitive");
    }

    #[test]
    fn control_words_are_transparent() {
        let with_idle = StreamChecksum::over(&[
            Word::Data(9),
            Word::DataIdle,
            Word::Turn,
            Word::Data(4),
            Word::Checksum(0xFFFF),
        ]);
        let without = StreamChecksum::over(&[Word::Data(9), Word::Data(4)]);
        assert_eq!(with_idle, without);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = StreamChecksum::new();
        c.absorb_value(42);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn incremental_equals_batch() {
        let values = [3u16, 1, 4, 1, 5, 9, 2, 6];
        let mut inc = StreamChecksum::new();
        for v in values {
            inc.absorb_value(v);
        }
        assert_eq!(inc.value(), StreamChecksum::over_values(values));
    }

    #[test]
    fn detects_dropped_word() {
        let full = StreamChecksum::over_values([5, 5, 5]);
        let short = StreamChecksum::over_values([5, 5]);
        assert_ne!(full, short);
    }
}

//! The channel alphabet.
//!
//! A METRO channel transfers one word per clock cycle. Besides ordinary
//! `w`-bit data, the protocol needs a handful of out-of-band control
//! tokens — DATA-IDLE, TURN, DROP, and the status/checksum words routers
//! inject at connection reversal. Real METRO implementations encode these
//! with extra control lines alongside the data lines; this model carries
//! them as enum variants.

use crate::status::StatusWord;
use core::fmt;

/// One symbol on a METRO channel during one clock cycle.
///
/// `Empty` means the channel is not driven — no connection is open (or the
/// connection was just torn down). Every other variant holds a connection
/// open. Mid-stream gaps are filled with [`Word::DataIdle`], never
/// `Empty`; the router state machines treat an unexpected `Empty` on a
/// live connection as the upstream having released the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Word {
    /// Channel not driven; no connection.
    #[default]
    Empty,
    /// A `w`-bit data (or route header) word.
    Data(u16),
    /// DATA-IDLE: hold the connection open with nothing to say
    /// (paper §5.1). Used by endpoints awaiting slow replies and by the
    /// routers themselves to fill pipeline delays around turns.
    DataIdle,
    /// TURN: reverse the direction of data transmission over the open
    /// connection (paper §5.1, "Connection Reversal").
    Turn,
    /// DROP: tear the connection down; propagates in the current
    /// direction of flow, releasing each router as it passes.
    Drop,
    /// Connection status injected by a router during reversal.
    Status(StatusWord),
    /// A stream checksum — either a router's transit checksum (follows
    /// its [`Word::Status`]) or an endpoint's end-to-end checksum.
    Checksum(u16),
}

impl Word {
    /// Whether this word holds a connection open (anything but `Empty`).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, Word::Empty)
    }

    /// Whether this word carries payload content an endpoint would
    /// deliver (data or checksum; not idle/control).
    #[must_use]
    pub fn is_payload(&self) -> bool {
        matches!(self, Word::Data(_) | Word::Checksum(_))
    }

    /// The data value if this is a [`Word::Data`].
    #[must_use]
    pub fn data(&self) -> Option<u16> {
        match self {
            Word::Data(v) => Some(*v),
            _ => None,
        }
    }

    /// Masks a data word to `w` bits, leaving other variants untouched.
    #[must_use]
    pub fn masked(self, word_mask: u16) -> Self {
        match self {
            Word::Data(v) => Word::Data(v & word_mask),
            other => other,
        }
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Empty => write!(f, "·"),
            Word::Data(v) => write!(f, "D:{v:04x}"),
            Word::DataIdle => write!(f, "IDLE"),
            Word::Turn => write!(f, "TURN"),
            Word::Drop => write!(f, "DROP"),
            Word::Status(s) => write!(f, "STAT:{s}"),
            Word::Checksum(c) => write!(f, "CKSM:{c:04x}"),
        }
    }
}

impl From<u16> for Word {
    fn from(v: u16) -> Self {
        Word::Data(v)
    }
}

/// Physical phit encoding: how the [`Word`] alphabet maps onto real
/// wires — `w` data lines plus a 3-bit control field, the "extra
/// control lines" a METRO implementation runs alongside the datapath.
///
/// | control | meaning | data lines |
/// |---------|---------|------------|
/// | `0b000` | not driven (Empty) | — |
/// | `0b001` | data word | payload |
/// | `0b010` | DATA-IDLE | — |
/// | `0b011` | TURN | — |
/// | `0b100` | DROP | — |
/// | `0b101` | STATUS | packed [`StatusWord`] |
/// | `0b110` | checksum | checksum value |
pub mod phit {
    use super::Word;
    use crate::status::StatusWord;

    /// Encodes a word as `(control, data)` line values. Data is masked
    /// to `word_mask` for the `Data` variant (checksum and status use
    /// the full field, as a real implementation would widen or split
    /// them over multiple transfers).
    #[must_use]
    pub fn encode(word: Word, word_mask: u16) -> (u8, u16) {
        match word {
            Word::Empty => (0b000, 0),
            Word::Data(v) => (0b001, v & word_mask),
            Word::DataIdle => (0b010, 0),
            Word::Turn => (0b011, 0),
            Word::Drop => (0b100, 0),
            Word::Status(s) => (0b101, s.encode()),
            Word::Checksum(c) => (0b110, c),
        }
    }

    /// Decodes control + data line values back into a [`Word`];
    /// `None` for the reserved control code `0b111`.
    #[must_use]
    pub fn decode(control: u8, data: u16) -> Option<Word> {
        Some(match control & 0b111 {
            0b000 => Word::Empty,
            0b001 => Word::Data(data),
            0b010 => Word::DataIdle,
            0b011 => Word::Turn,
            0b100 => Word::Drop,
            0b101 => Word::Status(StatusWord::decode(data)),
            0b110 => Word::Checksum(data),
            _ => return None,
        })
    }

    /// Packs a word into one checkpoint cell: the control field in bits
    /// 16..19 above the full 16-bit data field. Unlike [`encode`], the
    /// data is not masked — a checkpoint must preserve the word exactly
    /// as it sits in a pipeline register.
    #[must_use]
    pub fn pack(word: Word) -> u64 {
        let (c, d) = encode(word, 0xFFFF);
        (u64::from(c) << 16) | u64::from(d)
    }

    /// Inverts [`pack`]; `None` for cells with stray high bits or the
    /// reserved control code.
    #[must_use]
    pub fn unpack(cell: u64) -> Option<Word> {
        if cell >> 19 != 0 {
            return None;
        }
        decode((cell >> 16) as u8, cell as u16)
    }
}

// A word in a checkpoint: one `phit::pack`ed cell, refused when
// `phit::unpack` refuses it.
metro_telemetry::state_walk! {
    impl State for Word => |this, s| {
        s.code(this, |&w| phit::pack(w), phit::unpack, "packed channel word")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{ConnectionState, StatusWord};

    #[test]
    fn empty_is_inactive_everything_else_active() {
        assert!(!Word::Empty.is_active());
        for w in [
            Word::Data(3),
            Word::DataIdle,
            Word::Turn,
            Word::Drop,
            Word::Checksum(9),
            Word::Status(StatusWord::new(ConnectionState::Connected, 0)),
        ] {
            assert!(w.is_active(), "{w} should be active");
        }
    }

    #[test]
    fn payload_distinguishes_data_from_control() {
        assert!(Word::Data(1).is_payload());
        assert!(Word::Checksum(1).is_payload());
        assert!(!Word::DataIdle.is_payload());
        assert!(!Word::Turn.is_payload());
        assert!(!Word::Empty.is_payload());
    }

    #[test]
    fn masking_truncates_data_only() {
        assert_eq!(Word::Data(0x1F).masked(0x0F), Word::Data(0x0F));
        assert_eq!(Word::Checksum(0x1F).masked(0x0F), Word::Checksum(0x1F));
        assert_eq!(Word::Turn.masked(0x0F), Word::Turn);
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Word::default(), Word::Empty);
    }

    #[test]
    fn from_u16_builds_data() {
        assert_eq!(Word::from(7u16), Word::Data(7));
    }

    #[test]
    fn phit_roundtrip_for_every_variant() {
        use crate::status::StatusWord;
        for w in [
            Word::Empty,
            Word::Data(0x5A),
            Word::DataIdle,
            Word::Turn,
            Word::Drop,
            Word::Status(StatusWord::connected(3)),
            Word::Status(StatusWord::blocked()),
            Word::Checksum(0x1234),
        ] {
            let (c, d) = phit::encode(w, 0xFF);
            assert_eq!(phit::decode(c, d), Some(w), "{w}");
        }
    }

    #[test]
    fn phit_reserved_code_is_rejected() {
        assert_eq!(phit::decode(0b111, 0), None);
    }

    #[test]
    fn pack_roundtrip_preserves_full_width_data() {
        for w in [
            Word::Empty,
            Word::Data(0xFFFF),
            Word::DataIdle,
            Word::Turn,
            Word::Drop,
            Word::Status(StatusWord::connected(5)),
            Word::Checksum(0xBEEF),
        ] {
            assert_eq!(phit::unpack(phit::pack(w)), Some(w), "{w}");
        }
    }

    #[test]
    fn unpack_rejects_stray_high_bits() {
        assert_eq!(phit::unpack(1u64 << 19), None);
        assert_eq!(phit::unpack(0b111 << 16), None);
    }

    #[test]
    fn phit_masks_data_to_channel_width() {
        let (c, d) = phit::encode(Word::Data(0x1FF), 0x0F);
        assert_eq!((c, d), (0b001, 0x0F));
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        for w in [
            Word::Empty,
            Word::Data(3),
            Word::DataIdle,
            Word::Turn,
            Word::Drop,
            Word::Checksum(9),
        ] {
            assert!(!w.to_string().is_empty());
        }
    }
}

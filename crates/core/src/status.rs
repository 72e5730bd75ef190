//! Router status words.
//!
//! When a connection is reversed (TURN), each router along the path
//! injects information about the open connection into the return stream:
//! a [`StatusWord`] describing the connection's state at that router,
//! followed by a checksum of the data the router forwarded. The source
//! uses the sequence of status words — which arrive ordered
//! nearest-router-first — to determine exactly where a connection blocked
//! and whether the data stream was corrupted in transit (paper §4, §5.1).

use core::fmt;

/// The state of a connection as reported by one router at turn time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConnectionState {
    /// The connection was switched through to a backward port; data was
    /// forwarded downstream.
    #[default]
    Connected,
    /// No logically appropriate backward port was available; the stream
    /// was discarded at this router (paper §3, "blocked").
    Blocked,
}

/// One router's connection report, injected into the reverse stream
/// during connection reversal.
///
/// In hardware the status occupies a `w`-bit word; this model keeps the
/// fields symbolic and provides [`StatusWord::encode`]/
/// [`StatusWord::decode`] for the packed form used by width cascading
/// tests and the scan registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StatusWord {
    state: ConnectionState,
    /// The backward port the connection used (meaningful when
    /// `state == Connected`), as a small integer.
    port: u8,
}

impl StatusWord {
    /// Creates a status word reporting `state` via backward port `port`.
    #[must_use]
    pub fn new(state: ConnectionState, port: u8) -> Self {
        Self { state, port }
    }

    /// A status word reporting a successfully switched connection
    /// through backward port `port`.
    #[must_use]
    pub fn connected(port: usize) -> Self {
        Self::new(ConnectionState::Connected, port as u8)
    }

    /// A status word reporting a blocked connection.
    #[must_use]
    pub fn blocked() -> Self {
        Self::new(ConnectionState::Blocked, 0)
    }

    /// The reported connection state.
    #[must_use]
    pub fn state(&self) -> ConnectionState {
        self.state
    }

    /// Whether the router reports the connection as blocked.
    #[must_use]
    pub fn is_blocked(&self) -> bool {
        self.state == ConnectionState::Blocked
    }

    /// The backward port the connection used, when connected.
    #[must_use]
    pub fn port(&self) -> Option<usize> {
        match self.state {
            ConnectionState::Connected => Some(self.port as usize),
            ConnectionState::Blocked => None,
        }
    }

    /// Packs the status into a word: bit 7 = blocked flag, low bits =
    /// backward port index.
    #[must_use]
    pub fn encode(&self) -> u16 {
        let blocked = match self.state {
            ConnectionState::Blocked => 0x80,
            ConnectionState::Connected => 0,
        };
        blocked | u16::from(self.port & 0x7F)
    }

    /// Unpacks a status word encoded by [`StatusWord::encode`].
    #[must_use]
    pub fn decode(bits: u16) -> Self {
        let state = if bits & 0x80 != 0 {
            ConnectionState::Blocked
        } else {
            ConnectionState::Connected
        };
        Self {
            state,
            port: (bits & 0x7F) as u8,
        }
    }
}

// A status word in a checkpoint: its `encode`d form, refused unless it
// fits a `u16`.
metro_telemetry::state_walk! {
    impl State for StatusWord => |this, s| {
        let decode = |k| u16::try_from(k).ok().map(StatusWord::decode);
        s.code(this, |w| u64::from(w.encode()), decode, "status word")
    }
}

impl fmt::Display for StatusWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.state {
            ConnectionState::Connected => write!(f, "ok@{}", self.port),
            ConnectionState::Blocked => write!(f, "BLOCKED"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_reports_port() {
        let s = StatusWord::connected(5);
        assert_eq!(s.state(), ConnectionState::Connected);
        assert_eq!(s.port(), Some(5));
        assert!(!s.is_blocked());
    }

    #[test]
    fn blocked_has_no_port() {
        let s = StatusWord::blocked();
        assert!(s.is_blocked());
        assert_eq!(s.port(), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for port in 0..64usize {
            let s = StatusWord::connected(port);
            assert_eq!(StatusWord::decode(s.encode()), s);
        }
        let b = StatusWord::blocked();
        assert_eq!(StatusWord::decode(b.encode()), b);
    }

    #[test]
    fn encoding_separates_blocked_bit() {
        assert_eq!(StatusWord::connected(3).encode(), 0x03);
        assert_eq!(StatusWord::blocked().encode(), 0x80);
    }

    #[test]
    fn display_shows_state() {
        assert_eq!(StatusWord::connected(2).to_string(), "ok@2");
        assert_eq!(StatusWord::blocked().to_string(), "BLOCKED");
    }
}

//! Typed metric identifiers.
//!
//! Every per-router observable the simulator exports is named here,
//! once. The enum discriminants are the slot indices inside a
//! [`crate::CounterCell`], so adding a metric is a one-line change that
//! automatically flows through registries, snapshots, and reports.

/// The per-router event counters a METRO router maintains.
///
/// The discriminant order is load-bearing: it is the in-memory slot
/// order of [`crate::CounterCell`] *and* the array order of the
/// snapshot JSON schema, so it must never be reordered — append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum RouterCounter {
    /// Connection-open requests that arrived at the router.
    Opens = 0,
    /// Open requests granted a forward port.
    Grants = 1,
    /// Open requests blocked (all candidate ports busy).
    Blocks = 2,
    /// Blocked channels reclaimed by the fast BCB path.
    FastReclaims = 3,
    /// TURN reversals executed.
    Turns = 4,
    /// Connections dropped (teardown completed).
    Drops = 5,
    /// Payload words forwarded through the crossbar.
    WordsForwarded = 6,
    /// Return-stream checksum mismatches the self-healing layer
    /// attributed to this router's downstream side.
    ChecksumMismatches = 7,
    /// Port-mask applications: enabled ports flipped to disabled by a
    /// live reconfiguration (`Router::apply_config`-level diff).
    MasksApplied = 8,
    /// Retries routed through this router's stage-0 entry after at
    /// least one mask was in effect for the sending endpoint.
    RetriesAfterMask = 9,
}

impl RouterCounter {
    /// Number of counters — the width of a [`crate::CounterCell`].
    pub const COUNT: usize = 10;

    /// Every counter, in slot order.
    pub const ALL: [RouterCounter; RouterCounter::COUNT] = [
        RouterCounter::Opens,
        RouterCounter::Grants,
        RouterCounter::Blocks,
        RouterCounter::FastReclaims,
        RouterCounter::Turns,
        RouterCounter::Drops,
        RouterCounter::WordsForwarded,
        RouterCounter::ChecksumMismatches,
        RouterCounter::MasksApplied,
        RouterCounter::RetriesAfterMask,
    ];

    /// The stable snake_case name used in snapshot JSON and reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            RouterCounter::Opens => "opens",
            RouterCounter::Grants => "grants",
            RouterCounter::Blocks => "blocks",
            RouterCounter::FastReclaims => "fast_reclaims",
            RouterCounter::Turns => "turns",
            RouterCounter::Drops => "drops",
            RouterCounter::WordsForwarded => "words_forwarded",
            RouterCounter::ChecksumMismatches => "checksum_mismatches",
            RouterCounter::MasksApplied => "masks_applied",
            RouterCounter::RetriesAfterMask => "retries_after_mask",
        }
    }

    /// Inverse of [`RouterCounter::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<RouterCounter> {
        RouterCounter::ALL.into_iter().find(|c| c.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_are_dense_slot_indices() {
        for (i, c) in RouterCounter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        assert_eq!(RouterCounter::ALL.len(), RouterCounter::COUNT);
    }

    #[test]
    fn names_round_trip() {
        for c in RouterCounter::ALL {
            assert_eq!(RouterCounter::from_name(c.name()), Some(c));
        }
        assert_eq!(RouterCounter::from_name("no_such_metric"), None);
    }
}

//! Messages and delivery records. An outcome carries each failed
//! attempt's *kind*; its record leaves the NIC only inside an
//! `AttemptEvidence` (`crate::endpoint`), the one per-attempt capture.

use metro_core::StatusWord;
use metro_harness::json::Fnv1a;

/// The acknowledgment code a destination returns for an intact message.
pub const ACK_OK: u16 = 0x5A;
/// The acknowledgment code for a message whose end-to-end checksum
/// failed (the source must retry).
pub const ACK_CORRUPT: u16 = 0x66;

/// The machine a restored NIC must fit: the saved clock and the sizes
/// its messages refer to. Restore refuses a timestamp past `now`, a
/// destination not below `endpoints`, a blocked stage not below
/// `stages` — whatever a later tick would index or subtract with.
#[derive(Debug, Clone, Copy)]
pub struct MachineExtent {
    /// The clock cycle the state was saved at.
    pub now: u64,
    /// Endpoints in the network.
    pub endpoints: usize,
    /// Routing stages in the network.
    pub stages: usize,
}

/// Why a transmission attempt failed. The default is the blank a
/// checkpoint restore fills in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureKind {
    /// A router reported the connection blocked (detailed reclamation),
    /// at the given 0-indexed stage.
    Blocked {
        /// The stage at which blocking occurred.
        stage: usize,
    },
    /// Fast path reclamation: a BCB reached the source.
    FastReclaimed,
    /// The destination NACKed (end-to-end checksum mismatch).
    Corrupt,
    /// The reply stream ended without an acknowledgment.
    NoAck,
    /// The source watchdog expired with no reply at all.
    #[default]
    Timeout,
}

/// Blank failure kinds, by checkpoint tag.
const FAILURE_KINDS: [FailureKind; 5] = [
    FailureKind::Blocked { stage: 0 },
    FailureKind::FastReclaimed,
    FailureKind::Corrupt,
    FailureKind::NoAck,
    FailureKind::Timeout,
];

// A failure kind of a machine with `stages` stages.
metro_telemetry::state_walk! {
    impl StateWithin<usize> for FailureKind => |this, s, stages| {
        s.tag(this, &FAILURE_KINDS, "failure kind")?;
        match this {
            FailureKind::Blocked { stage } => s.index(stage, stages, "blocked stage"),
            _ => Ok(()),
        }
    }
}

/// How a message transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DeliveryStatus {
    /// The acknowledgment arrived: delivered exactly once.
    #[default]
    Delivered,
    /// The NIC exhausted its configured attempt budget
    /// (`EndpointConfig::max_retries`, 0 = never give up) and
    /// surrendered the message after `attempts` tries.
    Undeliverable {
        /// Transmission attempts made before giving up.
        attempts: usize,
    },
}

impl DeliveryStatus {
    /// Whether the message was delivered (vs. given up on).
    #[must_use]
    pub fn is_delivered(self) -> bool {
        matches!(self, DeliveryStatus::Delivered)
    }
}

metro_telemetry::state_walk! {
    impl State for DeliveryStatus => |this, s| {
        let statuses = [DeliveryStatus::Delivered, DeliveryStatus::Undeliverable { attempts: 0 }];
        s.tag(this, &statuses, "delivery status")?;
        match this {
            DeliveryStatus::Delivered => Ok(()),
            DeliveryStatus::Undeliverable { attempts } => s.usize(attempts),
        }
    }
}

/// The result of one complete message transaction (possibly after
/// several attempts).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageOutcome {
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dest: usize,
    /// Cycle at which the message was requested (queued at the NIC).
    pub requested_at: u64,
    /// Cycle at which the first word of the first attempt entered the
    /// network.
    pub first_injection_at: u64,
    /// Cycle at which the acknowledgment was received.
    pub completed_at: u64,
    /// Number of failed attempts before success.
    pub retries: usize,
    /// Failures encountered along the way, in order.
    pub failures: Vec<FailureKind>,
    /// Number of payload data words the source transmitted (summed over
    /// all segments of a conversation). Unlike `payload_delivered`,
    /// this is always recorded, so throughput accounting does not
    /// depend on destination-side capture.
    pub payload_words: usize,
    /// The payload as the destination delivered it (filled in by
    /// `NetworkSim::send_and_wait` from its delivery log; else empty).
    pub payload_delivered: Vec<u16>,
    /// Reply payload received by the source (read-reply workloads).
    pub reply_received: Vec<u16>,
    /// How the transaction ended: delivered, or given up as
    /// undeliverable after exhausting the attempt budget.
    pub status: DeliveryStatus,
}

impl MessageOutcome {
    /// Total latency: request to acknowledgment, in cycles — the metric
    /// of the paper's Figure 3 ("from message injection to
    /// acknowledgment receipt", including any stall awaiting the NIC).
    #[must_use]
    pub fn total_latency(&self) -> u64 {
        self.completed_at - self.requested_at
    }

    /// Network latency: first word injected to acknowledgment, in
    /// cycles (excludes NIC queueing).
    #[must_use]
    pub fn network_latency(&self) -> u64 {
        self.completed_at - self.first_injection_at
    }
}

// The full outcome; restore refuses one whose latencies would underflow.
metro_telemetry::state_walk! {
    impl StateWithin<MachineExtent> for MessageOutcome => |this, s, within| {
        let MessageOutcome {
            src, dest, requested_at, first_injection_at, completed_at, retries, failures,
            payload_words, payload_delivered, reply_received, status,
        } = this;
        s.usize(src)?;
        s.usize(dest)?;
        s.u64(requested_at)?;
        s.u64(first_injection_at)?;
        s.u64(completed_at)?;
        s.check(
            || [*requested_at, *first_injection_at, *completed_at, within.now].is_sorted(),
            "outcome timestamps run backwards or past the clock",
        )?;
        s.usize(retries)?;
        s.seq(failures, |s, f| s.state_within(f, within.stages))?;
        s.usize(payload_words)?;
        s.seq(payload_delivered, |s, w| s.u16(w))?;
        s.seq(reply_received, |s, w| s.u16(w))?;
        s.state(status)
    }
}

/// The FNV-1a offset basis: the digest of no outcomes.
const FNV_BASIS: u64 = Fnv1a::new().finish();

/// The most payload words one message can name: every word of its
/// streams is in memory at once.
const MESSAGE_WORDS_MAX: u64 = (usize::MAX / std::mem::size_of::<metro_core::Word>()) as u64;

/// An outcome stream folded to three words. Two runs produced the same
/// stream iff their folds match (up to a 64-bit digest collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeFold {
    /// 64-bit FNV-1a over the stream in completion order: per outcome,
    /// source, destination, the three timestamps, retries, the failure
    /// count, the status (0 delivered, `1 + attempts` undeliverable),
    /// payload words and each delivered payload word, each as its eight
    /// little-endian bytes.
    pub digest: u64,
    /// Outcomes folded.
    pub count: u64,
    /// Their payload words, summed.
    pub payload_words: u64,
}

impl OutcomeFold {
    /// The fold of no outcomes.
    pub(crate) const EMPTY: Self = Self {
        digest: FNV_BASIS,
        count: 0,
        payload_words: 0,
    };

    /// Folds in the stream's next outcome.
    pub(crate) fn absorb(&mut self, o: &MessageOutcome) {
        let mut h = Fnv1a::resume(self.digest);
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h.byte(b);
            }
        };
        put(o.src as u64);
        put(o.dest as u64);
        put(o.requested_at);
        put(o.first_injection_at);
        put(o.completed_at);
        put(o.retries as u64);
        put(o.failures.len() as u64);
        put(match o.status {
            DeliveryStatus::Delivered => 0,
            DeliveryStatus::Undeliverable { attempts } => 1 + attempts as u64,
        });
        put(o.payload_words as u64);
        for &w in &o.payload_delivered {
            put(u64::from(w));
        }
        self.digest = h.finish();
        self.count += 1;
        self.payload_words += o.payload_words as u64;
    }
}

/// Every outcome a machine harvested, in completion order: the fold of
/// all of them, and the outcomes themselves from the point the holder
/// chose to keep them. The folded prefix always precedes the kept
/// suffix, so [`Outcomes::fold`] continues the prefix's fold over the
/// suffix.
///
/// [`len`](Outcomes::len) counts every outcome; iteration and indexing
/// see the kept ones.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// The fold of the outcomes before `kept`.
    folded: OutcomeFold,
    kept: Vec<MessageOutcome>,
    /// Whether the next outcome is kept, or folded.
    keep: bool,
}

impl Outcomes {
    /// No outcomes yet; the ones to come are kept or only folded.
    pub(crate) fn new(keep: bool) -> Self {
        Self {
            folded: OutcomeFold::EMPTY,
            kept: Vec::new(),
            keep,
        }
    }

    /// Appends the next outcome of the stream.
    pub(crate) fn push(&mut self, o: MessageOutcome) {
        if self.keep {
            self.kept.push(o);
        } else {
            self.folded.absorb(&o);
        }
    }

    /// Whether outcomes to come are kept.
    pub(crate) fn keeps(&self) -> bool {
        self.keep
    }

    /// Keeps the outcomes to come, or only folds them — folding the
    /// ones kept so far, as nothing may follow the prefix but the kept
    /// suffix.
    pub(crate) fn set_keep(&mut self, on: bool) {
        if !on {
            for o in std::mem::take(&mut self.kept) {
                self.folded.absorb(&o);
            }
        }
        self.keep = on;
    }

    /// Removes and returns the first kept outcome `pick` chooses.
    pub(crate) fn take_first(
        &mut self,
        pick: impl Fn(&MessageOutcome) -> bool,
    ) -> Option<MessageOutcome> {
        let at = self.kept.iter().position(pick)?;
        Some(self.kept.remove(at))
    }

    /// Every outcome harvested, kept or folded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.folded.count as usize + self.kept.len()
    }

    /// Whether no outcome was harvested.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kept outcomes, in completion order.
    pub fn iter(&self) -> std::slice::Iter<'_, MessageOutcome> {
        self.kept.iter()
    }

    /// The fold of the whole stream.
    #[must_use]
    pub fn fold(&self) -> OutcomeFold {
        let mut fold = self.folded;
        for o in &self.kept {
            fold.absorb(o);
        }
        fold
    }

    /// [`OutcomeFold::digest`] of the whole stream.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.fold().digest
    }

    /// Payload words summed over the whole stream.
    #[must_use]
    pub fn payload_words(&self) -> usize {
        self.fold().payload_words as usize
    }
}

// The fold and the kept outcomes of a machine whose `engines` transmit
// engines ran `within.now` cycles — each completes at most one
// transaction a cycle. Restore refuses a stream that machine could not
// have harvested, or whose next outcome would overflow the fold, and
// folds the kept outcomes if this holder does not keep them.
metro_telemetry::state_walk! {
    impl StateWithin<(MachineExtent, u64)> for Outcomes => |this, s, (within, engines)| {
        let Outcomes { folded, kept, keep: _ } = this;
        let OutcomeFold { digest, count, payload_words } = folded;
        s.section("outcomes")?;
        s.u64(digest)?;
        s.u64(count)?;
        s.u64(payload_words)?;
        s.check(
            || *count != 0 || (*digest == FNV_BASIS && *payload_words == 0),
            "a fold of no outcomes with a digest or payload words",
        )?;
        s.check(
            || *payload_words <= count.saturating_mul(MESSAGE_WORDS_MAX),
            format_args!("{payload_words} payload words in {count} outcomes"),
        )?;
        s.seq(kept, |s, o| s.state_within(o, within))?;
        // One short of `u64::MAX`, so the next outcome still counts.
        let harvestable = within.now.saturating_mul(engines).min(u64::MAX - 1);
        s.check(
            || count.checked_add(kept.len() as u64).is_some_and(|n| n <= harvestable),
            format_args!(
                "{count} + {} outcomes, but {engines} transmit engines complete at most \
                 {harvestable} in {} cycles",
                kept.len(),
                within.now
            ),
        )?;
        let words = || {
            let mut each = kept.iter().map(|o| o.payload_words as u64);
            each.try_fold(*payload_words, u64::checked_add)
        };
        s.check(
            || words().is_some_and(|n| n.checked_add(MESSAGE_WORDS_MAX).is_some()),
            "the next outcome's payload words would overflow the fold",
        )?;
        s.on_restore(this, |o| o.set_keep(o.keep));
        Ok(())
    }
}

impl PartialEq for Outcomes {
    /// The same folded prefix and the same kept suffix: two holders
    /// that kept from the same point compare outcome by outcome, two
    /// that kept nothing by their folds.
    fn eq(&self, other: &Self) -> bool {
        self.folded == other.folded && self.kept == other.kept
    }
}

impl From<Vec<MessageOutcome>> for Outcomes {
    /// A stream kept whole.
    fn from(kept: Vec<MessageOutcome>) -> Self {
        Self {
            folded: OutcomeFold::EMPTY,
            kept,
            keep: true,
        }
    }
}

impl std::ops::Index<usize> for Outcomes {
    type Output = MessageOutcome;

    /// The `i`-th kept outcome.
    fn index(&self, i: usize) -> &MessageOutcome {
        &self.kept[i]
    }
}

impl IntoIterator for Outcomes {
    type Item = MessageOutcome;
    type IntoIter = std::vec::IntoIter<MessageOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.kept.into_iter()
    }
}

impl<'a> IntoIterator for &'a Outcomes {
    type Item = &'a MessageOutcome;
    type IntoIter = std::slice::Iter<'a, MessageOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.kept.iter()
    }
}

/// A record of one *attempt*'s reply as collected by the source: the
/// per-router status and transit checksum words, in path order
/// (nearest router first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Status words, nearest router first.
    pub statuses: Vec<StatusWord>,
    /// Transit checksums, paired with `statuses`.
    pub checksums: Vec<u16>,
    /// Acknowledgment code received, if any.
    pub ack: Option<u16>,
    /// Reply data words (for read replies).
    pub reply_words: Vec<u16>,
}

impl DeliveryRecord {
    /// Whether any router reported the connection blocked, and at which
    /// position along the path.
    #[must_use]
    pub fn blocked_stage(&self) -> Option<usize> {
        self.statuses.iter().position(StatusWord::is_blocked)
    }

    /// Clears the record for the next attempt.
    pub fn reset(&mut self) {
        self.statuses.clear();
        self.checksums.clear();
        self.ack = None;
        self.reply_words.clear();
    }
}

metro_telemetry::state_walk! {
    impl State for DeliveryRecord => |this, s| {
        let DeliveryRecord { statuses, checksums, ack, reply_words } = this;
        s.seq(statuses, |s, w| s.state(w))?;
        s.seq(checksums, |s, c| s.u16(c))?;
        s.opt(ack, |s, a| s.u16(a))?;
        s.seq(reply_words, |s, w| s.u16(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_core::StatusWord;
    use metro_telemetry::{StateError, StateReader, StateWithin, StateWriter};

    #[test]
    fn latencies_subtract_correctly() {
        let o = MessageOutcome {
            src: 0,
            dest: 1,
            requested_at: 10,
            first_injection_at: 14,
            completed_at: 50,
            retries: 1,
            failures: vec![FailureKind::FastReclaimed],
            payload_words: 0,
            payload_delivered: vec![],
            reply_received: vec![],
            status: DeliveryStatus::Delivered,
        };
        assert_eq!(o.total_latency(), 40);
        assert_eq!(o.network_latency(), 36);
    }

    /// The `i`-th outcome of a made-up stream over four endpoints,
    /// every other one given up on.
    fn nth(i: u64) -> MessageOutcome {
        MessageOutcome {
            src: i as usize % 4,
            dest: 3 - i as usize % 4,
            requested_at: i,
            first_injection_at: i + 2,
            completed_at: i + 30,
            retries: i as usize % 3,
            failures: vec![FailureKind::Corrupt; i as usize % 3],
            payload_words: 5 + i as usize,
            payload_delivered: vec![i as u16; 2],
            reply_received: vec![],
            status: if i.is_multiple_of(2) {
                DeliveryStatus::Delivered
            } else {
                DeliveryStatus::Undeliverable { attempts: 3 }
            },
        }
    }

    #[test]
    fn a_stream_folds_alike_kept_or_not_and_counts_every_outcome() {
        let mut whole = OutcomeFold::EMPTY;
        let (mut folded, mut kept, mut switched) = (
            Outcomes::new(false),
            Outcomes::new(true),
            Outcomes::new(false),
        );
        for i in 0..6 {
            whole.absorb(&nth(i));
            folded.push(nth(i));
            kept.push(nth(i));
            // Kept from the third outcome on, folded again from the fifth.
            switched.set_keep((2..4).contains(&i));
            switched.push(nth(i));
        }
        assert_eq!(whole.count, 6);
        assert_eq!(whole.payload_words, (5..11).sum::<u64>());
        for s in [&folded, &kept, &switched] {
            assert_eq!((s.fold(), s.len(), s.payload_words()), (whole, 6, 45));
        }
        assert_eq!((folded.iter().count(), kept.iter().count()), (0, 6));
        assert_eq!(kept[5], nth(5));
        // Split alike, equal streams compare equal; split differently,
        // they do not, though their folds agree (above).
        assert_eq!(folded, folded.clone());
        assert_ne!(folded, kept);
        let mut later = kept.clone();
        later.set_keep(false);
        assert_eq!(later, folded);
    }

    /// Saves `s`, lets `mutate` edit the words, and restores them into a
    /// holder that keeps (or not) for a machine of 2 transmit engines at
    /// cycle 100.
    fn restored(
        s: &Outcomes,
        keep: bool,
        mutate: impl FnOnce(&mut Vec<u64>),
    ) -> Result<Outcomes, StateError> {
        let within = MachineExtent {
            now: 100,
            endpoints: 4,
            stages: 3,
        };
        let mut w = StateWriter::new();
        s.save_state(&mut w, (within, 2));
        let mut words = w.into_words();
        mutate(&mut words);
        let mut back = Outcomes::new(keep);
        let mut r = StateReader::new(&words);
        back.restore_state(&mut r, (within, 2))?;
        r.finish()?;
        Ok(back)
    }

    #[test]
    fn the_fold_and_the_kept_outcomes_round_trip() {
        let mut s = Outcomes::new(false);
        for i in 0..4 {
            s.set_keep(i >= 2);
            s.push(nth(i));
        }
        // Tag, the three fold words, the kept count, the kept outcomes.
        let back = restored(&s, true, |w| {
            assert_eq!(w[1..5], [s.folded.digest, 2, 11, 2])
        })
        .unwrap();
        assert_eq!(back, s);
        // A holder that does not keep folds what was kept.
        let folded = restored(&s, false, |_| {}).unwrap();
        assert_eq!((folded.iter().count(), folded.fold()), (0, s.fold()));
    }

    #[test]
    fn a_fold_the_machine_could_not_have_made_is_refused() {
        let mut s = Outcomes::new(false);
        for i in 0..3 {
            s.push(nth(i));
        }
        let refusal = |keep_last: bool, word: usize, value: u64| {
            let mut s = s.clone();
            s.set_keep(keep_last);
            s.push(nth(3));
            match restored(&s, false, |w| w[word] = value) {
                Err(StateError::BadValue {
                    section, detail, ..
                }) => {
                    assert_eq!(section, "outcomes");
                    detail
                }
                other => panic!("word {word} = {value} restored: {other:?}"),
            }
        };
        let empty = |word: usize, value: u64| match restored(&Outcomes::new(false), false, |w| {
            w[word] = value
        }) {
            Err(StateError::BadValue { detail, .. }) => detail,
            other => panic!("empty fold with word {word} = {value}: {other:?}"),
        };
        // No outcomes, yet a digest or payload words.
        assert!(empty(1, 999).contains("a fold of no outcomes"));
        assert!(empty(3, 1).contains("a fold of no outcomes"));
        // Past what 2 engines complete in 100 cycles, folded or kept.
        assert!(refusal(false, 2, 201).contains("complete at most 200"));
        assert!(refusal(true, 2, 200).contains("200 + 1 outcomes"));
        assert!(refusal(false, 2, u64::MAX).contains("complete at most"));
        // Payload words no message stream could hold, or that leave no
        // room for the next message's.
        assert!(refusal(false, 3, u64::MAX).contains("payload words"));
        assert!(refusal(true, 3, 3 * MESSAGE_WORDS_MAX).contains("would overflow"));
        // What a machine could have made restores.
        let mut s = s.clone();
        s.push(nth(3));
        assert!(restored(&s, false, |w| w[2] = 200).is_ok());
        assert!(restored(&s, false, |w| w[3] = 1 << 40).is_ok());
    }

    #[test]
    fn undeliverable_status_carries_the_attempt_count() {
        let s = DeliveryStatus::Undeliverable { attempts: 4 };
        assert!(!s.is_delivered());
        assert!(DeliveryStatus::default().is_delivered());
        match s {
            DeliveryStatus::Undeliverable { attempts } => assert_eq!(attempts, 4),
            DeliveryStatus::Delivered => unreachable!(),
        }
    }

    #[test]
    fn blocked_stage_finds_first_blocked_status() {
        let mut r = DeliveryRecord::default();
        r.statuses.push(StatusWord::connected(1));
        r.statuses.push(StatusWord::blocked());
        assert_eq!(r.blocked_stage(), Some(1));
        r.reset();
        assert_eq!(r.blocked_stage(), None);
        assert!(r.statuses.is_empty());
    }
}

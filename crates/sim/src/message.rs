//! Messages and delivery records. An outcome carries each failed
//! attempt's *kind*; its record leaves the NIC only inside an
//! `AttemptEvidence` (`crate::endpoint`), the one per-attempt capture.

use metro_core::StatusWord;
use metro_telemetry::{StateError, StateReader, StateWriter};

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

/// Why a transmission attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    Timeout,
}

impl FailureKind {
    /// Appends the failure kind to a checkpoint stream.
    pub(crate) fn save_state(self, w: &mut StateWriter) {
        match self {
            FailureKind::Blocked { stage } => {
                w.u64(0);
                w.usize(stage);
            }
            FailureKind::FastReclaimed => w.u64(1),
            FailureKind::Corrupt => w.u64(2),
            FailureKind::NoAck => w.u64(3),
            FailureKind::Timeout => w.u64(4),
        }
    }

    /// Reads a failure kind back from a checkpoint stream of a machine
    /// with `stages` stages.
    pub(crate) fn restore_state(
        r: &mut StateReader<'_>,
        stages: usize,
    ) -> Result<Self, StateError> {
        Ok(match r.u64()? {
            0 => FailureKind::Blocked {
                stage: r.index(stages, "blocked stage")?,
            },
            1 => FailureKind::FastReclaimed,
            2 => FailureKind::Corrupt,
            3 => FailureKind::NoAck,
            4 => FailureKind::Timeout,
            k => return Err(r.bad(format!("{k} is not a failure kind"))),
        })
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

impl DeliveryStatus {
    pub(crate) fn save_state(self, w: &mut StateWriter) {
        match self {
            DeliveryStatus::Delivered => w.u64(0),
            DeliveryStatus::Undeliverable { attempts } => {
                w.u64(1);
                w.usize(attempts);
            }
        }
    }

    pub(crate) fn restore_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(match r.u64()? {
            0 => DeliveryStatus::Delivered,
            1 => DeliveryStatus::Undeliverable {
                attempts: r.usize()?,
            },
            k => return Err(r.bad(format!("{k} is not a delivery status"))),
        })
    }
}

/// The result of one complete message transaction (possibly after
/// several attempts).
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Appends the full outcome to a checkpoint stream.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.src);
        w.usize(self.dest);
        w.u64(self.requested_at);
        w.u64(self.first_injection_at);
        w.u64(self.completed_at);
        w.usize(self.retries);
        w.seq(&self.failures, |w, f| f.save_state(w));
        w.usize(self.payload_words);
        w.seq(self.payload_delivered.iter().copied(), StateWriter::u16);
        w.seq(self.reply_received.iter().copied(), StateWriter::u16);
        self.status.save_state(w);
    }

    /// Reads an outcome back from a checkpoint stream, refusing one
    /// whose latencies would underflow.
    pub(crate) fn restore_state(
        r: &mut StateReader<'_>,
        within: MachineExtent,
    ) -> Result<Self, StateError> {
        let src = r.usize()?;
        let dest = r.usize()?;
        let requested_at = r.u64()?;
        let first_injection_at = r.u64()?;
        let completed_at = r.u64()?;
        if ![requested_at, first_injection_at, completed_at, within.now].is_sorted() {
            return Err(r.bad("outcome timestamps run backwards or past the clock"));
        }
        Ok(Self {
            src,
            dest,
            requested_at,
            first_injection_at,
            completed_at,
            retries: r.usize()?,
            failures: r.seq(|r| FailureKind::restore_state(r, within.stages))?,
            payload_words: r.usize()?,
            payload_delivered: r.seq(StateReader::u16)?,
            reply_received: r.seq(StateReader::u16)?,
            status: DeliveryStatus::restore_state(r)?,
        })
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

    /// Appends the record to a checkpoint stream.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.seq(&self.statuses, |w, s| w.u16(s.encode()));
        w.seq(self.checksums.iter().copied(), StateWriter::u16);
        w.opt(self.ack, StateWriter::u16);
        w.seq(self.reply_words.iter().copied(), StateWriter::u16);
    }

    /// Reads a record back from a checkpoint stream.
    pub(crate) fn restore_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            statuses: r.seq(|r| Ok(StatusWord::decode(r.u16()?)))?,
            checksums: r.seq(StateReader::u16)?,
            ack: r.opt(StateReader::u16)?,
            reply_words: r.seq(StateReader::u16)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_core::StatusWord;

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

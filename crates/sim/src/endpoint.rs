//! Source-responsible network interfaces.
//!
//! "The routers work in conjunction with source-responsible network
//! interfaces to achieve reliable end-to-end data transmission in the
//! presence of heavy network congestion and dynamic faults" (paper §1).
//!
//! The transmit engine streams `header + payload + checksum + TURN`,
//! then holds the connection with DATA-IDLE while collecting the reply:
//! per-router STATUS/checksum words (nearest router first), then the
//! destination's acknowledgment. Any blocked status, BCB arrival, NACK,
//! or watchdog expiry triggers a retry; stochastic path selection inside
//! the network makes the retry overwhelmingly likely to take a different
//! path (paper §4).
//!
//! The receive engines (one per endpoint input port — endpoints "can
//! handle simultaneous traffic on both network output ports", Figure 3
//! caption) verify the end-to-end checksum and answer the TURN with an
//! acknowledgment or, for read-style workloads, a reply burst prefixed
//! by the acknowledgment and padded with DATA-IDLE to model memory
//! latency (paper §5.1, DATA-IDLE use 1).
//!
//! "No messages ever exist solely in the network" (paper §2), so the
//! source NIC is where a message lives until it is acknowledged — once:
//! the words handed to [`Endpoint::enqueue`] stay one `segments` value
//! from the queue through every attempt (a cursor walks them, a retry
//! rewinds it); the only copy taken is an [`AttemptEvidence`]'s.

use crate::message::{
    DeliveryRecord, DeliveryStatus, FailureKind, MachineExtent, MessageOutcome, ACK_CORRUPT, ACK_OK,
};
use metro_core::{RandomSource, StreamChecksum, Word};
use std::collections::VecDeque;

/// How a destination responds once a message has fully arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyPolicy {
    /// Acknowledge and close: `ACK`, `DROP`.
    Ack,
    /// Read-reply: hold the line with DATA-IDLE for `latency` cycles
    /// (cache/memory access time), then `ACK`, `words` reply data
    /// words, `DROP`.
    ReadReply {
        /// Cycles of DATA-IDLE before the reply (memory latency).
        latency: usize,
        /// Number of reply data words.
        words: usize,
    },
    /// Multi-round conversation: acknowledge each received segment and
    /// hand transmission back (`ACK`, `TURN`); the *source* closes the
    /// circuit after its final segment. Exercises the paper's "any
    /// number of data transmission reversals may occur during a single
    /// connection" (§5.1).
    Conversation,
}

/// Configuration of an endpoint's NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointConfig {
    /// Destination reply behaviour.
    pub reply: ReplyPolicy,
    /// Source watchdog: cycles without completion before an attempt is
    /// aborted and retried.
    pub timeout: usize,
    /// Fast connection-open watchdog: if the reverse lane shows no
    /// activity at all (not even the first-hop router's DATA-IDLE hold)
    /// this many cycles into an attempt, the entry port leads nowhere —
    /// a dead first-hop router or wire — and the attempt is abandoned
    /// immediately rather than waiting out the full `timeout`.
    pub open_timeout: usize,
    /// Maximum random backoff (cycles) between attempts.
    pub retry_backoff_max: usize,
    /// Give up after this many failed attempts (0 = never).
    pub max_retries: usize,
    /// Concurrent outgoing messages, one transmit engine each (1 to the
    /// endpoint's output port count). Figure 3 restricts sources to one
    /// entering port at a time — the paper's parallelism-limited model —
    /// but the hardware supports a transmit engine per port.
    pub max_concurrent: usize,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            reply: ReplyPolicy::Ack,
            timeout: 600,
            open_timeout: 32,
            retry_backoff_max: 3,
            max_retries: 0,
            max_concurrent: 1,
        }
    }
}

/// Evidence from one failed delivery attempt — the only per-attempt
/// capture the NIC makes — drained by the network's self-healing layer
/// for online diagnosis (paper §5.3: reconfiguration happens while the
/// network carries traffic, driven by the same checksum/STATUS words
/// the retry protocol already collects).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttemptEvidence {
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint of the failed attempt.
    pub dest: usize,
    /// Injection (output) port the attempt used.
    pub port: usize,
    /// How the attempt failed.
    pub kind: FailureKind,
    /// The return-stream record (statuses, checksums, ack) collected
    /// during the attempt, nearest router first.
    pub record: DeliveryRecord,
    /// The opening segment's word stream (header + payload + checksum +
    /// TURN) — the diagnoser recomputes expected per-stage checksums
    /// from it.
    pub stream: Vec<Word>,
    /// Whether the reverse lane showed any life during the attempt (a
    /// live first-hop router holds DATA-IDLE). `false` means the entry
    /// port leads nowhere.
    pub entry_alive: bool,
}

/// A message delivered at a destination endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delivered {
    /// The payload data words, in order.
    pub payload: Vec<u16>,
    /// Completion cycle (when the TURN arrived).
    pub at: u64,
}

/// Per-cycle inputs to an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointIo {
    /// Reverse-lane word arriving on each output (injection) port.
    pub out_rev_in: Vec<Word>,
    /// BCB arriving on each output port.
    pub out_bcb_in: Vec<bool>,
    /// Forward-lane word arriving on each input (delivery) port.
    pub in_fwd_in: Vec<Word>,
}

impl EndpointIo {
    /// All-idle inputs for an endpoint with `out` output and `inp`
    /// input ports.
    #[must_use]
    pub fn idle(out: usize, inp: usize) -> Self {
        Self {
            out_rev_in: vec![Word::Empty; out],
            out_bcb_in: vec![false; out],
            in_fwd_in: vec![Word::Empty; inp],
        }
    }
}

/// Per-cycle outputs of an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointDrive {
    /// Forward-lane word driven on each output port.
    pub out_fwd: Vec<Word>,
    /// Reverse-lane word driven on each input port (replies).
    pub in_rev: Vec<Word>,
}

/// A message in flight: the queued message itself, a cursor into its
/// segments, and the current attempt's bookkeeping.
#[derive(Debug, Clone, Default)]
struct ActiveMessage {
    msg: QueuedMessage,
    /// The segment being sent or awaiting its reply. A retry rewinds to
    /// 0; `segments.len()` is the closing DROP of a conversation whose
    /// last segment has been acknowledged.
    seg: usize,
    first_injection_at: Option<u64>,
    attempt_started_at: u64,
    retries: usize,
    failures: Vec<FailureKind>,
    record: DeliveryRecord,
    port: usize,
    success_at: Option<u64>,
    /// Whether the reverse lane showed any life this attempt (the
    /// first-hop router's DATA-IDLE hold counts).
    saw_reverse_activity: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Idle,
    Backoff { until: u64 },
    Sending { idx: usize },
    Awaiting,
    Aborting { step: usize },
}

/// One transmit engine: drives one output port's connection at a time.
#[derive(Debug, Clone)]
struct TxEngine {
    state: TxState,
    /// Boxed so an idle engine is a handful of bytes: the tick path
    /// swaps engines in and out of `self` by value, and an inline
    /// `ActiveMessage` (several Vecs deep) would make that swap the
    /// single hottest memcpy in the simulator.
    active: Option<Box<ActiveMessage>>,
    /// Earliest cycle at which this engine's next stream may start.
    /// Streams must be separated by at least one undriven (Empty) cycle
    /// so the first-hop router can finish draining the previous
    /// connection — the NIC's output turnaround time.
    gap_until: u64,
}

impl TxEngine {
    fn idle() -> Self {
        Self {
            state: TxState::Idle,
            active: None,
            gap_until: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum RxState {
    Idle,
    Receiving {
        /// The payload so far, for the delivered log; empty while the
        /// log is off (the checksum alone judges the message).
        payload: Vec<u16>,
        expected: Option<u16>,
        cksum: StreamChecksum,
    },
    Replying {
        queue: VecDeque<Word>,
    },
}

/// A message as the NIC holds it: waiting for a free transmit engine,
/// then inside [`ActiveMessage`] until its outcome.
#[derive(Debug, Clone, Default)]
struct QueuedMessage {
    dest: usize,
    payload_words: usize,
    segments: Vec<Vec<Word>>,
    requested_at: u64,
}

/// A network endpoint: one transmit engine (a processor stalls on its
/// outstanding message — the Figure 3 "parallelism limited" model) plus
/// one receive engine per input port.
#[derive(Debug, Clone)]
pub struct Endpoint {
    id: usize,
    out_ports: usize,
    config: EndpointConfig,
    rng: RandomSource,
    engines: Vec<TxEngine>,
    queue: VecDeque<QueuedMessage>,
    rx: Vec<RxState>,
    completed: Vec<MessageOutcome>,
    abandoned: Vec<MessageOutcome>,
    delivered: Vec<Delivered>,
    evidence: Vec<AttemptEvidence>,
    collect_evidence: bool,
    keep_delivered: bool,
    port_masked: Vec<bool>,
    dead: bool,
}

impl Endpoint {
    /// Creates endpoint `id` with the given port counts.
    #[must_use]
    pub fn new(
        id: usize,
        out_ports: usize,
        in_ports: usize,
        config: EndpointConfig,
        seed: u64,
    ) -> Self {
        Self {
            id,
            out_ports,
            config,
            rng: RandomSource::new(seed),
            engines: (0..config.max_concurrent)
                .map(|_| TxEngine::idle())
                .collect(),
            queue: VecDeque::new(),
            rx: vec![RxState::Idle; in_ports],
            completed: Vec::new(),
            abandoned: Vec::new(),
            delivered: Vec::new(),
            evidence: Vec::new(),
            collect_evidence: false,
            keep_delivered: true,
            port_masked: vec![false; out_ports],
            dead: false,
        }
    }

    /// The endpoint's index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Marks the endpoint dead (it stops driving and responding) — a
    /// dynamic endpoint fault.
    pub fn set_dead(&mut self, dead: bool) {
        self.dead = dead;
    }

    /// Queues a message for transmission. `stream` is the complete word
    /// stream (header + payload + checksum + TURN) the NIC will inject;
    /// the network builder constructs it from the topology's header
    /// plan. `payload_words` is the number of payload data words in it,
    /// recorded in the final [`MessageOutcome`].
    pub fn enqueue(&mut self, dest: usize, payload_words: usize, stream: Vec<Word>, now: u64) {
        self.enqueue_conversation(dest, vec![stream], payload_words, now);
    }

    /// Queues a multi-round conversation: `segments[0]` opens the
    /// circuit (header + payload + checksum + TURN); each further
    /// segment is sent after the destination hands transmission back
    /// (payload + checksum + TURN, no header — the circuit is already
    /// established). The NIC closes the circuit with a DROP after the
    /// final segment is acknowledged. The destination must run
    /// [`ReplyPolicy::Conversation`]. `payload_words` is the total
    /// number of payload data words across all segments, recorded in
    /// the final [`MessageOutcome`].
    pub fn enqueue_conversation(
        &mut self,
        dest: usize,
        segments: Vec<Vec<Word>>,
        payload_words: usize,
        now: u64,
    ) {
        assert!(
            !segments.is_empty(),
            "a conversation needs at least one segment"
        );
        self.queue.push_back(QueuedMessage {
            dest,
            payload_words,
            segments,
            requested_at: now,
        });
    }

    /// Whether a message is in flight or queued.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.engines.iter().any(|e| e.active.is_some()) || !self.queue.is_empty()
    }

    /// Whether ticking this endpoint with all-`Empty` inputs is a
    /// no-op an engine may skip: nothing queued, in flight or being
    /// received, or dead (which ignores its inputs outright).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.dead || (!self.is_busy() && self.rx.iter().all(|s| matches!(s, RxState::Idle)))
    }

    /// Messages waiting behind the in-flight one.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drains the outcomes of finished transactions: `(completed,
    /// abandoned)`, the second those whose retry budget ran out. The
    /// buffers go with them, so a NIC holds none between harvests:
    /// most of a large fabric's NICs finish a message only now and then.
    pub fn drain_finished(&mut self) -> (Vec<MessageOutcome>, Vec<MessageOutcome>) {
        (
            std::mem::take(&mut self.completed),
            std::mem::take(&mut self.abandoned),
        )
    }

    /// Whether any completed or abandoned outcomes await harvesting —
    /// asked after each tick, so the harvest visits only the NICs that
    /// have something to drain.
    #[must_use]
    pub fn has_outcomes(&self) -> bool {
        !self.completed.is_empty() || !self.abandoned.is_empty()
    }

    /// Messages delivered *to* this endpoint.
    #[must_use]
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// Drains the delivered-message log.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Turns failed-attempt evidence collection on or off. Off by
    /// default: under sustained congested load every blocked attempt
    /// would clone its record, so only the self-healing layer enables
    /// this.
    pub fn set_collect_evidence(&mut self, on: bool) {
        self.collect_evidence = on;
        if !on {
            self.evidence.clear();
        }
    }

    /// Drains the failed-attempt evidence collected since the last
    /// drain (empty unless [`Endpoint::set_collect_evidence`] is on).
    pub fn take_evidence(&mut self) -> Vec<AttemptEvidence> {
        std::mem::take(&mut self.evidence)
    }

    /// Turns the delivered-message log on or off. On by default; a
    /// caller that never drains it ([`Endpoint::take_delivered`]) turns
    /// it off, or every payload since cycle 0 stays in memory and in
    /// every checkpoint. Off, a receiver does not buffer payload words
    /// either. What the receiver does on the wire is the same.
    pub fn set_keep_delivered(&mut self, on: bool) {
        self.keep_delivered = on;
        if !on {
            self.delivered.clear();
        }
    }

    /// Masks an output (injection) port: new attempts and retries avoid
    /// it while any unmasked port remains. Refuses (returning `false`)
    /// to mask the last unmasked port — a source must always keep one
    /// way into the network. Masking is advisory, not a hard disable:
    /// if every unmasked port is held by a sibling engine, a masked
    /// port may still be used rather than stalling forever.
    pub fn mask_out_port(&mut self, p: usize) -> bool {
        assert!(p < self.out_ports, "output port {p} out of range");
        if self.port_masked[p] {
            return true;
        }
        if self.port_masked.iter().filter(|&&m| !m).count() <= 1 {
            return false;
        }
        self.port_masked[p] = true;
        true
    }

    /// Advances the endpoint one clock cycle.
    ///
    /// Compatibility wrapper over [`Endpoint::tick_into`] that allocates
    /// a fresh [`EndpointDrive`] per call.
    pub fn tick(&mut self, now: u64, io: &EndpointIo) -> EndpointDrive {
        let mut drive = EndpointDrive {
            out_fwd: vec![Word::Empty; self.out_ports],
            in_rev: vec![Word::Empty; self.rx.len()],
        };
        self.tick_into(
            now,
            &io.out_rev_in,
            &io.out_bcb_in,
            &io.in_fwd_in,
            &mut drive.out_fwd,
            &mut drive.in_rev,
        );
        drive
    }

    /// Advances the endpoint one clock cycle, reading inputs from and
    /// writing outputs to caller-provided slices. The steady-state path
    /// performs no heap allocation.
    ///
    /// `out_rev_in`/`out_bcb_in` are the reverse-lane word and BCB
    /// arriving on each output (injection) port; `in_fwd_in` is the
    /// forward-lane word arriving on each input (delivery) port.
    /// `out_fwd` and `in_rev` are overwritten in full.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the port counts.
    pub fn tick_into(
        &mut self,
        now: u64,
        out_rev_in: &[Word],
        out_bcb_in: &[bool],
        in_fwd_in: &[Word],
        out_fwd: &mut [Word],
        in_rev: &mut [Word],
    ) {
        assert_eq!(out_rev_in.len(), self.out_ports);
        assert_eq!(out_bcb_in.len(), self.out_ports);
        assert_eq!(in_fwd_in.len(), self.rx.len());
        assert_eq!(out_fwd.len(), self.out_ports);
        assert_eq!(in_rev.len(), self.rx.len());
        out_fwd.fill(Word::Empty);
        in_rev.fill(Word::Empty);
        if self.dead {
            return;
        }
        for k in 0..self.engines.len() {
            self.tick_engine(k, now, out_rev_in, out_bcb_in, out_fwd);
        }
        self.tick_rx(now, in_fwd_in, in_rev);
    }

    /// Whether output port `p` is owned by no engine other than `k`.
    fn port_free_for(&self, k: usize, p: usize) -> bool {
        self.engines
            .iter()
            .enumerate()
            .all(|(j, e)| j == k || e.active.as_ref().map(|m| m.port) != Some(p))
    }

    /// Number of output ports engine `k` may start or retry on.
    fn count_free_ports(&self, k: usize) -> usize {
        (0..self.out_ports)
            .filter(|&p| self.port_free_for(k, p))
            .count()
    }

    /// Number of output ports engine `k` should choose among: unmasked
    /// free ports when any exist, otherwise all free ports (masking is
    /// advisory — see [`Endpoint::mask_out_port`]).
    fn count_usable_ports(&self, k: usize) -> usize {
        let unmasked = (0..self.out_ports)
            .filter(|&p| !self.port_masked[p] && self.port_free_for(k, p))
            .count();
        if unmasked > 0 {
            unmasked
        } else {
            self.count_free_ports(k)
        }
    }

    /// The `n`-th (in port order) usable output port for engine `k`.
    fn nth_usable_port(&self, k: usize, n: usize) -> usize {
        let any_unmasked =
            (0..self.out_ports).any(|p| !self.port_masked[p] && self.port_free_for(k, p));
        (0..self.out_ports)
            .filter(|&p| self.port_free_for(k, p) && !(any_unmasked && self.port_masked[p]))
            .nth(n)
            .expect("n < count_usable_ports")
    }

    fn tick_engine(
        &mut self,
        k: usize,
        now: u64,
        out_rev_in: &[Word],
        out_bcb_in: &[bool],
        out_fwd: &mut [Word],
    ) {
        let mut eng = std::mem::replace(&mut self.engines[k], TxEngine::idle());
        // Start the next message if idle (and the inter-stream gap has
        // elapsed).
        if eng.active.is_none() && now >= eng.gap_until && !self.queue.is_empty() {
            let nfree = self.count_usable_ports(k);
            if nfree > 0 {
                let msg = self.queue.pop_front().expect("queue checked non-empty");
                let n = self.rng.index(nfree);
                let port = self.nth_usable_port(k, n);
                eng.active = Some(Box::new(ActiveMessage {
                    msg,
                    seg: 0,
                    first_injection_at: None,
                    attempt_started_at: now,
                    retries: 0,
                    failures: Vec::new(),
                    record: DeliveryRecord::default(),
                    port,
                    success_at: None,
                    saw_reverse_activity: false,
                }));
                eng.state = TxState::Sending { idx: 0 };
            }
        }
        let Some(mut msg) = eng.active.take() else {
            self.engines[k] = eng;
            return;
        };

        // Watch the reverse lane and BCB of the active port.
        let rev = out_rev_in[msg.port];
        let bcb = out_bcb_in[msg.port];
        if rev != Word::Empty || bcb {
            msg.saw_reverse_activity = true;
        }
        let mut failure: Option<FailureKind> = None;
        let mut finished = false;

        match eng.state {
            TxState::Idle => unreachable!("active message implies non-idle tx"),
            TxState::Backoff { until } => {
                if now >= until {
                    // Restart the attempt clock *now*: the watchdog
                    // below runs this same tick, and the previous
                    // attempt's start time would trip it immediately.
                    msg.attempt_started_at = now;
                    eng.state = TxState::Sending { idx: 0 };
                }
            }
            TxState::Sending { idx } => {
                if bcb {
                    failure = Some(FailureKind::FastReclaimed);
                } else {
                    if idx == 0 {
                        msg.attempt_started_at = now;
                        if msg.first_injection_at.is_none() {
                            msg.first_injection_at = Some(now);
                        }
                    }
                    let stream = msg.stream();
                    out_fwd[msg.port] = stream[idx];
                    if idx + 1 < stream.len() {
                        eng.state = TxState::Sending { idx: idx + 1 };
                    } else if msg.seg == msg.msg.segments.len() {
                        // The closing DROP of a completed conversation
                        // has gone out; the transaction is done.
                        finished = true;
                    } else {
                        eng.state = TxState::Awaiting;
                    }
                }
            }
            TxState::Awaiting => {
                out_fwd[msg.port] = Word::DataIdle;
                if bcb {
                    failure = Some(FailureKind::FastReclaimed);
                } else {
                    match rev {
                        Word::Status(s) => msg.record.statuses.push(s),
                        Word::Checksum(c) => msg.record.checksums.push(c),
                        Word::Data(v) => {
                            if msg.record.ack.is_none() {
                                msg.record.ack = Some(v);
                                if v == ACK_OK && msg.seg + 1 == msg.msg.segments.len() {
                                    // Final segment acknowledged.
                                    msg.success_at = Some(now);
                                } else if v == ACK_OK {
                                    // Mid-conversation segment acknowledged;
                                    // clear the slot for the next round's ack.
                                    msg.record.ack = None;
                                }
                            } else {
                                msg.record.reply_words.push(v);
                            }
                        }
                        Word::Turn => {
                            // The destination handed transmission back:
                            // send the next conversation segment (the
                            // closing DROP after the last).
                            if msg.seg + 1 < msg.msg.segments.len() {
                                msg.seg += 1;
                                msg.attempt_started_at = now;
                                eng.state = TxState::Sending { idx: 0 };
                            } else if msg.success_at.is_some() {
                                msg.seg = msg.msg.segments.len();
                                eng.state = TxState::Sending { idx: 0 };
                            }
                        }
                        Word::Drop | Word::Empty
                            if rev == Word::Drop
                                || msg.success_at.is_some()
                                || !msg.record.statuses.is_empty() =>
                        {
                            // Stream over: classify.
                            if msg.success_at.is_some() {
                                finished = true;
                            } else if let Some(stage) = msg.record.blocked_stage() {
                                failure = Some(FailureKind::Blocked { stage });
                            } else if msg.record.ack == Some(ACK_CORRUPT) {
                                failure = Some(FailureKind::Corrupt);
                            } else {
                                failure = Some(FailureKind::NoAck);
                            }
                        }
                        _ => {}
                    }
                }
            }
            TxState::Aborting { step } => {
                // Force the connection down: one DROP, then release.
                out_fwd[msg.port] = if step == 0 { Word::Drop } else { Word::Empty };
                if step >= 2 {
                    failure = Some(FailureKind::Timeout);
                } else {
                    eng.state = TxState::Aborting { step: step + 1 };
                }
            }
        }

        // Watchdogs: the full completion timeout, and the fast
        // connection-open check — a live first hop shows DATA-IDLE on
        // the reverse lane within a handful of cycles.
        if failure.is_none()
            && !finished
            && !matches!(
                eng.state,
                TxState::Aborting { .. } | TxState::Backoff { .. }
            )
        {
            let elapsed = now.saturating_sub(msg.attempt_started_at);
            let dead_entry = !msg.saw_reverse_activity && elapsed > self.config.open_timeout as u64;
            if elapsed > self.config.timeout as u64 || dead_entry {
                eng.state = TxState::Aborting { step: 0 };
            }
        }

        if let Some(kind) = failure {
            msg.failures.push(kind);
            msg.retries += 1;
            if self.collect_evidence {
                self.evidence.push(AttemptEvidence {
                    src: self.id,
                    dest: msg.msg.dest,
                    port: msg.port,
                    kind,
                    record: msg.record.clone(),
                    stream: msg.msg.segments[0].clone(),
                    entry_alive: msg.saw_reverse_activity,
                });
            }
            msg.record.reset();
            msg.success_at = None;
            msg.saw_reverse_activity = false;
            msg.seg = 0;
            if self.config.max_retries > 0 && msg.retries >= self.config.max_retries {
                let status = DeliveryStatus::Undeliverable {
                    attempts: msg.retries,
                };
                self.abandoned.push(msg.outcome(self.id, now, status));
                eng.state = TxState::Idle;
                eng.gap_until = now + 2;
            } else {
                let backoff = if self.config.retry_backoff_max == 0 {
                    0
                } else {
                    self.rng.index(self.config.retry_backoff_max + 1)
                };
                // Spread retries over the redundant entry ports too (but
                // never onto a port a sibling engine is using, and
                // avoiding masked ports while unmasked ones are free).
                let nfree = self.count_usable_ports(k);
                if nfree > 0 {
                    let n = self.rng.index(nfree);
                    msg.port = self.nth_usable_port(k, n);
                }
                // +2 guarantees at least one fully undriven cycle reaches
                // the first-hop router so it can drain the old connection.
                eng.state = TxState::Backoff {
                    until: now + 2 + backoff as u64,
                };
                eng.active = Some(msg);
            }
        } else if finished {
            let completed_at = msg.success_at.unwrap_or(now);
            self.completed
                .push(msg.outcome(self.id, completed_at, DeliveryStatus::Delivered));
            eng.state = TxState::Idle;
            eng.gap_until = now + 2;
        } else {
            eng.active = Some(msg);
        }
        self.engines[k] = eng;
    }

    fn tick_rx(&mut self, now: u64, in_fwd_in: &[Word], in_rev: &mut [Word]) {
        for (p, state) in self.rx.iter_mut().enumerate() {
            let word = in_fwd_in[p];
            match state {
                RxState::Idle => match word {
                    Word::Data(v) => {
                        // Hold the reverse lane from the very first word:
                        // the upstream router may reverse on the next
                        // cycle (zero-payload messages), and an Empty
                        // here would read as a teardown.
                        in_rev[p] = Word::DataIdle;
                        let mut cksum = StreamChecksum::new();
                        cksum.absorb_value(v);
                        *state = RxState::Receiving {
                            payload: if self.keep_delivered {
                                vec![v]
                            } else {
                                Vec::new()
                            },
                            expected: None,
                            cksum,
                        };
                    }
                    Word::Checksum(c) => {
                        in_rev[p] = Word::DataIdle;
                        *state = RxState::Receiving {
                            payload: Vec::new(),
                            expected: Some(c),
                            cksum: StreamChecksum::new(),
                        };
                    }
                    _ => {}
                },
                RxState::Receiving {
                    payload,
                    expected,
                    cksum,
                } => {
                    // Hold the open connection: the upstream router is in
                    // the forward direction and expects DATA-IDLE (not
                    // Empty) on the reverse lane of a live circuit.
                    in_rev[p] = Word::DataIdle;
                    match word {
                        Word::Data(v) => {
                            if self.keep_delivered {
                                payload.push(v);
                            }
                            cksum.absorb_value(v);
                        }
                        Word::Checksum(c) => *expected = Some(c),
                        Word::DataIdle => {}
                        Word::Turn => {
                            let ok = *expected == Some(cksum.value());
                            let mut queue = VecDeque::new();
                            if ok {
                                if self.keep_delivered {
                                    self.delivered.push(Delivered {
                                        payload: std::mem::take(payload),
                                        at: now,
                                    });
                                }
                                match self.config.reply {
                                    ReplyPolicy::Ack => {
                                        queue.push_back(Word::Data(ACK_OK));
                                        queue.push_back(Word::Drop);
                                    }
                                    ReplyPolicy::ReadReply { latency, words } => {
                                        for _ in 0..latency {
                                            queue.push_back(Word::DataIdle);
                                        }
                                        queue.push_back(Word::Data(ACK_OK));
                                        for k in 0..words {
                                            queue.push_back(Word::Data((k as u16) & 0xFF));
                                        }
                                        queue.push_back(Word::Drop);
                                    }
                                    ReplyPolicy::Conversation => {
                                        // Acknowledge and hand transmission
                                        // back; the source closes the circuit.
                                        queue.push_back(Word::Data(ACK_OK));
                                        queue.push_back(Word::Turn);
                                    }
                                }
                            } else {
                                queue.push_back(Word::Data(ACK_CORRUPT));
                                queue.push_back(Word::Drop);
                            }
                            *state = RxState::Replying { queue };
                        }
                        Word::Drop | Word::Empty => {
                            in_rev[p] = Word::Empty;
                            *state = RxState::Idle;
                        }
                        Word::Status(_) => {}
                    }
                }
                RxState::Replying { queue } => {
                    if word == Word::Empty {
                        // Path torn down under us.
                        *state = RxState::Idle;
                        continue;
                    }
                    let out = queue.pop_front().unwrap_or(Word::Drop);
                    in_rev[p] = out;
                    if out == Word::Drop {
                        *state = RxState::Idle;
                    } else if out == Word::Turn {
                        // Receiver again: await the next segment of the
                        // conversation on the still-open circuit.
                        *state = RxState::Receiving {
                            payload: Vec::new(),
                            expected: None,
                            cksum: StreamChecksum::new(),
                        };
                    }
                }
            }
        }
    }
}

// A message, queued or in flight; restore refuses an unknown
// destination, a missing or empty segment, a request past the clock.
metro_telemetry::state_walk! {
    impl StateWithin<MachineExtent> for QueuedMessage => |this, s, within| {
        let QueuedMessage { dest, payload_words, segments, requested_at } = this;
        s.index(dest, within.endpoints, "destination")?;
        s.usize(payload_words)?;
        s.seq(segments, |s, segment| s.seq(segment, |s, w| s.state(w)))?;
        s.u64(requested_at)?;
        s.check(
            || !segments.is_empty() && !segments.iter().any(Vec::is_empty),
            "a message has a missing or empty segment",
        )?;
        s.check(|| *requested_at <= within.now, "a message was requested past the clock")
    }
}

impl ActiveMessage {
    /// The words at the cursor: segment `seg`, or the closing DROP.
    fn stream(&self) -> &[Word] {
        self.msg
            .segments
            .get(self.seg)
            .map_or(&[Word::Drop], Vec::as_slice)
    }

    /// Ends the transaction: the one place an outcome is built.
    fn outcome(self, src: usize, completed_at: u64, status: DeliveryStatus) -> MessageOutcome {
        MessageOutcome {
            src,
            dest: self.msg.dest,
            requested_at: self.msg.requested_at,
            first_injection_at: self.first_injection_at.unwrap_or(self.msg.requested_at),
            completed_at,
            retries: self.retries,
            failures: self.failures,
            payload_words: self.msg.payload_words,
            payload_delivered: Vec::new(),
            reply_received: self.record.reply_words,
            status,
        }
    }
}

// A message in flight on one of `out_ports` output ports; restore
// refuses whatever the transmit engine would index or subtract with: a
// port the machine does not have, a cursor past the closing position or
// on it before the final acknowledgment, a timestamp out of order or
// past the saved clock.
metro_telemetry::state_walk! {
    impl StateWithin<(usize, MachineExtent)> for ActiveMessage => |this, s, (out_ports, within)| {
        let ActiveMessage {
            msg, seg, first_injection_at, attempt_started_at, retries, failures, record, port,
            success_at, saw_reverse_activity,
        } = this;
        s.state_within(msg, within)?;
        s.index(seg, msg.segments.len() + 1, "segment")?;
        s.opt(first_injection_at, |s, t| s.u64(t))?;
        s.u64(attempt_started_at)?;
        s.usize(retries)?;
        s.seq(failures, |s, f| s.state_within(f, within.stages))?;
        s.state(record)?;
        s.index(port, out_ports, "output port")?;
        s.opt(success_at, |s, t| s.u64(t))?;
        s.bool(saw_reverse_activity)?;
        s.check(
            || *seg < msg.segments.len() || success_at.is_some(),
            "the closing DROP comes only after the final acknowledgment",
        )?;
        let stamps = || {
            let at = [Some(msg.requested_at), *first_injection_at, Some(*attempt_started_at)];
            at.into_iter().chain([*success_at, Some(within.now)]).flatten().is_sorted()
        };
        s.check(stamps, "message timestamps run backwards or past the clock")
    }
}

/// Blank transmit states, by checkpoint tag.
const TX_STATES: [TxState; 5] = [
    TxState::Idle,
    TxState::Backoff { until: 0 },
    TxState::Sending { idx: 0 },
    TxState::Awaiting,
    TxState::Aborting { step: 0 },
];

// A transmit engine driving one of `out_ports` output ports; restore
// refuses an engine that is non-idle without a message, or idle with
// one, and a send index past its stream.
metro_telemetry::state_walk! {
    impl StateWithin<(usize, MachineExtent)> for TxEngine => |this, s, within| {
        let TxEngine { state, active, gap_until } = this;
        s.tag(state, &TX_STATES, "transmit state")?;
        match state {
            TxState::Backoff { until } => s.u64(until)?,
            TxState::Sending { idx: n } | TxState::Aborting { step: n } => s.usize(n)?,
            TxState::Idle | TxState::Awaiting => {}
        }
        s.u64(gap_until)?;
        s.opt(active, |s, msg| s.state_within(msg, within))?;
        s.check(
            || matches!(state, TxState::Idle) == active.is_none(),
            "a transmit engine is non-idle exactly when it holds a message",
        )?;
        if let (TxState::Sending { idx }, Some(msg)) = (state, active.as_deref()) {
            let n = msg.stream().len();
            s.check(|| *idx < n, format_args!("send index {idx} is past a {n}-word stream"))?;
        }
        Ok(())
    }
}

/// Blank receive states, by checkpoint tag.
const RX_STATES: [RxState; 3] = [
    RxState::Idle,
    RxState::Receiving {
        payload: Vec::new(),
        expected: None,
        cksum: StreamChecksum::new(),
    },
    RxState::Replying {
        queue: VecDeque::new(),
    },
];

metro_telemetry::state_walk! {
    impl State for RxState => |this, s| {
        s.tag(this, &RX_STATES, "receive state")?;
        match this {
            RxState::Idle => Ok(()),
            RxState::Receiving { payload, expected, cksum } => {
                s.seq(payload, |s, w| s.u16(w))?;
                s.opt(expected, |s, c| s.u16(c))?;
                s.state(cksum)
            }
            RxState::Replying { queue } => s.seq(queue, |s, w| s.state(w)),
        }
    }
}

// The endpoint's complete mutable state at cycle `within.now` of a
// machine of `within.endpoints` endpoints and `within.stages` stages:
// the RNG, every transmit engine (including in-flight messages and
// retry budgets), the waiting queue, the receive engines, unharvested
// outcome/delivery/evidence logs, and the healing port masks. Identity
// and configuration (`id`, port counts, `EndpointConfig`) are rebuilt
// from the scenario; the `dead` flag is owned by the fault set,
// re-applied before restore. Restore refuses a shape that differs from
// the scenario-built endpoint's and any value `tick_into` would index
// out of range or subtract below zero with.
metro_telemetry::state_walk! {
    impl StateWithin<MachineExtent> for Endpoint => |this, s, within| {
        let Endpoint {
            out_ports, rng, engines, queue, rx, completed, abandoned, delivered, evidence,
            port_masked, ..
        } = this;
        let out_ports = *out_ports;
        s.section("endpoint")?;
        s.state(rng)?;
        s.lane(engines, "transmit engines", |s, e| s.state_within(e, (out_ports, within)))?;
        s.seq(queue, |s, q| s.state_within(q, within))?;
        s.lane(rx, "receive engines", |s, rx| s.state(rx))?;
        s.seq(completed, |s, o| s.state_within(o, within))?;
        s.seq(abandoned, |s, o| s.state_within(o, within))?;
        s.seq(delivered, |s, d| {
            let Delivered { payload, at } = d;
            s.seq(payload, |s, w| s.u16(w))?;
            s.u64(at)
        })?;
        s.seq(evidence, |s, ev| {
            let AttemptEvidence { src, dest, port, kind, record, stream, entry_alive } = ev;
            s.index(src, within.endpoints, "source")?;
            s.index(dest, within.endpoints, "destination")?;
            s.index(port, out_ports, "output port")?;
            s.state_within(kind, within.stages)?;
            s.state(record)?;
            s.seq(stream, |s, w| s.state(w))?;
            s.bool(entry_alive)
        })?;
        s.each(port_masked, |s, m| s.bool(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_telemetry::{StateError, StateReader, StateWithin, StateWriter};

    fn stream_for(payload: &[u16]) -> Vec<Word> {
        let mut s = vec![Word::Data(0x00)]; // header word
        let mut ck = StreamChecksum::new();
        for &v in payload {
            s.push(Word::Data(v));
            ck.absorb_value(v);
        }
        s.push(Word::Checksum(ck.value()));
        s.push(Word::Turn);
        s
    }

    #[test]
    fn tx_streams_words_in_order_then_idles() {
        let mut e = Endpoint::new(0, 2, 2, EndpointConfig::default(), 7);
        let payload = vec![1, 2, 3];
        e.enqueue(5, payload.len(), stream_for(&payload), 0);
        let io = EndpointIo::idle(2, 2);
        let mut sent = Vec::new();
        for now in 0..8 {
            let d = e.tick(now, &io);
            for p in 0..2 {
                if d.out_fwd[p] != Word::Empty {
                    sent.push(d.out_fwd[p]);
                }
            }
        }
        assert_eq!(&sent[..6], &stream_for(&payload)[..]);
        assert!(sent[6..].iter().all(|w| *w == Word::DataIdle));
    }

    #[test]
    fn rx_acks_intact_message_and_records_delivery() {
        let mut e = Endpoint::new(1, 1, 1, EndpointConfig::default(), 3);
        let payload = [7u16, 8, 9];
        let ck = StreamChecksum::over_values(payload);
        let feed = [
            Word::Data(7),
            Word::Data(8),
            Word::Data(9),
            Word::Checksum(ck),
            Word::Turn,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
        ];
        let mut replies = Vec::new();
        for (now, w) in feed.iter().enumerate() {
            let io = EndpointIo {
                out_rev_in: vec![Word::Empty],
                out_bcb_in: vec![false],
                in_fwd_in: vec![*w],
            };
            let d = e.tick(now as u64, &io);
            if !matches!(d.in_rev[0], Word::Empty | Word::DataIdle) {
                replies.push(d.in_rev[0]);
            }
        }
        assert_eq!(replies, vec![Word::Data(ACK_OK), Word::Drop]);
        assert_eq!(e.delivered().len(), 1);
        assert_eq!(e.delivered()[0].payload, vec![7, 8, 9]);
    }

    #[test]
    fn rx_nacks_corrupt_message() {
        let mut e = Endpoint::new(1, 1, 1, EndpointConfig::default(), 3);
        let feed = [
            Word::Data(7),
            Word::Data(8),
            Word::Checksum(0xBAD), // wrong
            Word::Turn,
            Word::DataIdle,
            Word::DataIdle,
        ];
        let mut replies = Vec::new();
        for (now, w) in feed.iter().enumerate() {
            let io = EndpointIo {
                out_rev_in: vec![Word::Empty],
                out_bcb_in: vec![false],
                in_fwd_in: vec![*w],
            };
            let d = e.tick(now as u64, &io);
            if !matches!(d.in_rev[0], Word::Empty | Word::DataIdle) {
                replies.push(d.in_rev[0]);
            }
        }
        assert_eq!(replies, vec![Word::Data(ACK_CORRUPT), Word::Drop]);
        assert!(e.delivered().is_empty());
    }

    #[test]
    fn bcb_triggers_retry_on_another_random_port() {
        let mut e = Endpoint::new(0, 2, 2, EndpointConfig::default(), 11);
        e.enqueue(5, 1, stream_for(&[1]), 0);
        // First cycle: header goes out.
        let d = e.tick(0, &EndpointIo::idle(2, 2));
        let port = d.out_fwd.iter().position(|w| *w != Word::Empty).unwrap();
        // BCB comes back on that port.
        let mut io = EndpointIo::idle(2, 2);
        io.out_bcb_in[port] = true;
        e.tick(1, &io);
        assert!(e.is_busy(), "message must be retried, not dropped");
        // Eventually it starts sending again from word 0.
        let mut resent = false;
        for now in 2..12 {
            let d = e.tick(now, &EndpointIo::idle(2, 2));
            if d.out_fwd.iter().any(|w| matches!(w, Word::Data(_))) {
                resent = true;
                break;
            }
        }
        assert!(resent);
    }

    #[test]
    fn successful_ack_completes_with_outcome() {
        let mut e = Endpoint::new(0, 1, 1, EndpointConfig::default(), 5);
        e.enqueue(2, 1, stream_for(&[4]), 0);
        // Stream: 4 words (H, 4, CK, TURN) on cycles 0..3.
        for now in 0..4 {
            e.tick(now, &EndpointIo::idle(1, 1));
        }
        // Reply arrives: status, checksum, ack, drop.
        let reply = [
            Word::Status(metro_core::StatusWord::connected(0)),
            Word::Checksum(0x1234),
            Word::Data(ACK_OK),
            Word::Drop,
        ];
        for (k, w) in reply.iter().enumerate() {
            let io = EndpointIo {
                out_rev_in: vec![*w],
                out_bcb_in: vec![false],
                in_fwd_in: vec![Word::Empty],
            };
            e.tick(4 + k as u64, &io);
        }
        let done = e.drain_finished().0;
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].dest, 2);
        assert_eq!(done[0].retries, 0);
        assert_eq!(done[0].completed_at, 6);
        assert!(!e.is_busy());
        // The harvest took the buffers, whose capacity metro1k's 1,024
        // NICs used to keep: 0.59 MB.
        let held = e.completed.capacity() + e.abandoned.capacity();
        assert_eq!(held, 0, "a NIC holds no outcome buffer between harvests");
    }

    #[test]
    fn blocked_status_triggers_retry_with_stage() {
        let mut e = Endpoint::new(0, 1, 1, EndpointConfig::default(), 5);
        e.enqueue(2, 1, stream_for(&[4]), 0);
        for now in 0..4 {
            e.tick(now, &EndpointIo::idle(1, 1));
        }
        let reply = [
            Word::Status(metro_core::StatusWord::connected(1)),
            Word::Checksum(0),
            Word::Status(metro_core::StatusWord::blocked()),
            Word::Checksum(0),
            Word::Drop,
        ];
        for (k, w) in reply.iter().enumerate() {
            let io = EndpointIo {
                out_rev_in: vec![*w],
                out_bcb_in: vec![false],
                in_fwd_in: vec![Word::Empty],
            };
            e.tick(4 + k as u64, &io);
        }
        assert!(e.is_busy(), "blocked message must retry");
        assert!(e.drain_finished().0.is_empty());
    }

    #[test]
    fn timeout_aborts_and_retries() {
        let cfg = EndpointConfig {
            timeout: 10,
            ..EndpointConfig::default()
        };
        let mut e = Endpoint::new(0, 1, 1, cfg, 5);
        e.enqueue(2, 1, stream_for(&[4]), 0);
        let mut saw_drop = false;
        for now in 0..25 {
            let d = e.tick(now, &EndpointIo::idle(1, 1));
            if d.out_fwd[0] == Word::Drop {
                saw_drop = true;
            }
        }
        assert!(saw_drop, "watchdog must force the connection down");
        assert!(e.is_busy(), "and the message must be retried");
    }

    #[test]
    fn max_retries_abandons() {
        let cfg = EndpointConfig {
            timeout: 5,
            max_retries: 2,
            retry_backoff_max: 0,
            ..EndpointConfig::default()
        };
        let mut e = Endpoint::new(0, 1, 1, cfg, 5);
        e.enqueue(2, 1, stream_for(&[4]), 0);
        for now in 0..60 {
            e.tick(now, &EndpointIo::idle(1, 1));
        }
        let lost = e.drain_finished().1;
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].retries, 2);
        assert_eq!(e.abandoned.capacity(), 0, "the harvest took the buffer");
        assert!(!e.is_busy());
    }

    #[test]
    fn dead_endpoint_is_silent() {
        let mut e = Endpoint::new(0, 1, 1, EndpointConfig::default(), 5);
        e.enqueue(2, 1, stream_for(&[4]), 0);
        e.set_dead(true);
        let d = e.tick(0, &EndpointIo::idle(1, 1));
        assert!(d.out_fwd.iter().all(|w| *w == Word::Empty));
    }

    #[test]
    fn two_engines_transmit_concurrently_on_distinct_ports() {
        let cfg = EndpointConfig {
            max_concurrent: 2,
            ..EndpointConfig::default()
        };
        let mut e = Endpoint::new(0, 2, 2, cfg, 9);
        e.enqueue(3, 1, stream_for(&[1]), 0);
        e.enqueue(5, 1, stream_for(&[2]), 0);
        let d = e.tick(0, &EndpointIo::idle(2, 2));
        let active: Vec<usize> = (0..2).filter(|&p| d.out_fwd[p] != Word::Empty).collect();
        assert_eq!(
            active.len(),
            2,
            "both ports must carry streams: {:?}",
            d.out_fwd
        );
    }

    #[test]
    fn single_engine_uses_one_port_at_a_time() {
        let mut e = Endpoint::new(0, 2, 2, EndpointConfig::default(), 9);
        e.enqueue(3, 1, stream_for(&[1]), 0);
        e.enqueue(5, 1, stream_for(&[2]), 0);
        let d = e.tick(0, &EndpointIo::idle(2, 2));
        let active = (0..2).filter(|&p| d.out_fwd[p] != Word::Empty).count();
        assert_eq!(
            active, 1,
            "figure 3 restriction: one entering port at a time"
        );
        assert_eq!(e.queue_len(), 1);
    }

    /// The machine the save/restore tests below stop in: 20 cycles run.
    const WITHIN: MachineExtent = MachineExtent {
        now: 20,
        endpoints: 16,
        stages: 3,
    };

    #[test]
    fn save_restore_resumes_mid_message_bit_identically() {
        let cfg = EndpointConfig {
            timeout: 9,
            retry_backoff_max: 3,
            ..EndpointConfig::default()
        };
        // Drive an endpoint mid-retry-storm (idle inputs: every attempt
        // times out, exercising the RNG, backoff, and abort paths),
        // checkpoint, restore into a fresh twin, and lock-step both.
        let mut live = Endpoint::new(0, 2, 2, cfg, 77);
        live.enqueue(3, 2, stream_for(&[1, 2]), 0);
        live.enqueue(5, 1, stream_for(&[9]), 4);
        for now in 0..20 {
            live.tick(now, &EndpointIo::idle(2, 2));
        }
        let mut w = StateWriter::new();
        live.save_state(&mut w, WITHIN);
        let words = w.into_words();

        let mut twin = Endpoint::new(0, 2, 2, cfg, 77);
        let mut r = StateReader::new(&words);
        twin.restore_state(&mut r, WITHIN).expect("restore");
        r.finish().expect("no trailing state");

        for now in 20..80 {
            let io = EndpointIo::idle(2, 2);
            assert_eq!(live.tick(now, &io), twin.tick(now, &io), "cycle {now}");
        }
        assert_eq!(live.drain_finished(), twin.drain_finished());
        assert_eq!(live.queue_len(), twin.queue_len());
    }

    /// A continuation segment: payload + checksum + TURN, no header.
    fn segment_for(payload: &[u16]) -> Vec<Word> {
        stream_for(payload)[1..].to_vec()
    }

    /// One tick of a one-port endpoint with `rev` on its reverse lane;
    /// returns what it drove forward.
    fn step(e: &mut Endpoint, now: &mut u64, rev: Word) -> Word {
        let io = EndpointIo {
            out_rev_in: vec![rev],
            out_bcb_in: vec![false],
            in_fwd_in: vec![Word::Empty],
        };
        *now += 1;
        e.tick(*now - 1, &io).out_fwd[0]
    }

    fn steps(e: &mut Endpoint, now: &mut u64, rev: &[Word]) -> Vec<Word> {
        rev.iter().map(|&w| step(e, now, w)).collect()
    }

    /// A three-segment conversation with its opening segment
    /// acknowledged and two words of the second sent.
    fn mid_conversation() -> (Endpoint, u64, Vec<Vec<Word>>) {
        let segments = vec![stream_for(&[1]), segment_for(&[2, 3]), segment_for(&[4])];
        let mut e = Endpoint::new(0, 1, 1, EndpointConfig::default(), 5);
        e.enqueue_conversation(2, segments.clone(), 4, 0);
        let mut now = 0;
        assert_eq!(steps(&mut e, &mut now, &[Word::DataIdle; 4]), segments[0]);
        steps(&mut e, &mut now, &[Word::Data(ACK_OK), Word::Turn]);
        assert_eq!(
            steps(&mut e, &mut now, &[Word::DataIdle; 2]),
            segments[1][..2]
        );
        (e, now, segments)
    }

    #[test]
    fn a_nacked_later_segment_retries_from_the_opening_segment() {
        let (mut e, mut now, segments) = mid_conversation();
        steps(&mut e, &mut now, &[Word::DataIdle; 2]);
        steps(&mut e, &mut now, &[Word::Data(ACK_CORRUPT), Word::Drop]);
        assert!(e.is_busy() && e.drain_finished().0.is_empty());
        // Backoff drives nothing; then the whole conversation again,
        // header first, every segment acknowledged.
        let mut first = Word::Empty;
        while first == Word::Empty {
            assert!(now < 40, "the retry never started");
            first = step(&mut e, &mut now, Word::Empty);
        }
        let mut resent = vec![first];
        for segment in &segments {
            let rest = vec![Word::DataIdle; segment.len() - resent.len()];
            resent.extend(steps(&mut e, &mut now, &rest));
            assert_eq!(&resent, segment);
            resent.clear();
            steps(&mut e, &mut now, &[Word::Data(ACK_OK), Word::Turn]);
        }
        assert_eq!(
            step(&mut e, &mut now, Word::DataIdle),
            Word::Drop,
            "closing DROP"
        );
        let done = e.drain_finished().0;
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].failures, vec![FailureKind::Corrupt]);
        assert_eq!((done[0].retries, done[0].payload_words), (1, 4));
        assert!(done[0].status.is_delivered() && !e.is_busy());
    }

    #[test]
    fn restore_refuses_a_cursor_the_transmit_engine_would_index_with() {
        let (e, now, _) = mid_conversation();
        let mut w = StateWriter::new();
        e.save_state(&mut w, WITHIN);
        let words = w.into_words();
        // tag, rng, engine count; then Sending { idx }, gap, presence,
        // dest, payload words, 3 segments of 4 + 4 + 3 words (each
        // behind its count), requested_at, the cursor.
        const IDX: usize = 4;
        const SEG: usize = 25;
        assert_eq!((words[IDX - 1], words[IDX], words[SEG]), (2, 2, 1));
        let within = MachineExtent { now, ..WITHIN };
        let restore = |edits: &[(usize, u64)]| {
            let mut words = words.clone();
            for &(at, v) in edits {
                words[at] = v;
            }
            let mut twin = Endpoint::new(0, 1, 1, EndpointConfig::default(), 5);
            twin.restore_state(&mut StateReader::new(&words), within)
        };
        restore(&[]).expect("unmutated");
        restore(&[(SEG, 2)]).expect("index 2 is inside the 3-word third segment");
        for (edits, why) in [
            (&[(SEG, 4)][..], "is out of range"),
            (&[(SEG, 3)][..], "closing DROP"),
            (
                &[(SEG, 2), (IDX, 3)][..],
                "send index 3 is past a 3-word stream",
            ),
        ] {
            match restore(edits) {
                Err(StateError::BadValue {
                    section, detail, ..
                }) => {
                    assert_eq!(section, "endpoint");
                    assert!(detail.contains(why), "{detail}");
                }
                other => panic!("{edits:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn restore_rejects_an_engine_count_mismatch() {
        let mut one = Endpoint::new(0, 2, 2, EndpointConfig::default(), 7);
        let mut w = StateWriter::new();
        one.save_state(&mut w, WITHIN);
        let words = w.into_words();
        let two = EndpointConfig {
            max_concurrent: 2,
            ..EndpointConfig::default()
        };
        let mut other = Endpoint::new(0, 2, 2, two, 7);
        let mut r = StateReader::new(&words);
        assert!(other.restore_state(&mut r, WITHIN).is_err());
        // And the original still restores cleanly.
        let mut r = StateReader::new(&words);
        one.restore_state(&mut r, WITHIN).expect("self-restore");
    }

    #[test]
    fn read_reply_sends_idle_then_ack_then_words() {
        let cfg = EndpointConfig {
            reply: ReplyPolicy::ReadReply {
                latency: 2,
                words: 3,
            },
            ..EndpointConfig::default()
        };
        let mut e = Endpoint::new(1, 1, 1, cfg, 3);
        let ck = StreamChecksum::over_values([5u16]);
        let feed = [
            Word::Data(5),
            Word::Checksum(ck),
            Word::Turn,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
        ];
        let mut replies = Vec::new();
        for (now, w) in feed.iter().enumerate() {
            let io = EndpointIo {
                out_rev_in: vec![Word::Empty],
                out_bcb_in: vec![false],
                in_fwd_in: vec![*w],
            };
            let d = e.tick(now as u64, &io);
            if !matches!(d.in_rev[0], Word::Empty | Word::DataIdle) {
                replies.push(d.in_rev[0]);
            }
        }
        assert_eq!(
            replies,
            vec![
                Word::Data(ACK_OK),
                Word::Data(0),
                Word::Data(1),
                Word::Data(2),
                Word::Drop
            ],
            "memory-latency DATA-IDLE fill is filtered by the collector"
        );
    }
}

//! The METRO routing component, modeled at clock-cycle granularity.
//!
//! A [`Router`] has `i` forward ports and `o` backward ports. Data
//! initially flows from forward to backward ports; an open connection can
//! be *turned* any number of times (paper §4). Internally each connection
//! traverses `dp` pipeline stages in whichever direction it currently
//! flows.
//!
//! ## Channel model
//!
//! Every port pair is connected by two logical lanes plus a backward
//! control bit (BCB):
//!
//! * the **forward lane** carries words toward the destination,
//! * the **reverse lane** carries words toward the source,
//! * the **BCB** carries fast path-reclamation requests toward the
//!   source (paper §5.1).
//!
//! Half-duplex operation means only one lane carries the live stream at a
//! time; the other lane is held at [`Word::DataIdle`] while the
//! connection is open (a real implementation shares one set of wires —
//! the two-lane model is the standard simulator idiom for it). A lane
//! showing [`Word::Empty`] carries no connection.
//!
//! ## Per-cycle operation
//!
//! [`Router::tick`] consumes the words arriving on every forward-lane
//! input (one per forward port) and reverse-lane input (one per backward
//! port, plus BCB), and produces the words driven on every output for
//! that cycle. New connection requests arriving in the same cycle are
//! arbitrated in an order drawn from the shared random stream, then each
//! port's state machine advances one step.
//!
//! ## Port storage
//!
//! A port holds what the hardware holds (paper §5.1): its connection
//! state, `dp` pipeline registers in each direction and a checksum, plus
//! the few words it injects toward the source on a turn. None of them is
//! a growable queue.
//!
//! * **Pipes.** The final pipeline stage is the output register, which
//!   the network model accounts for at the transfer boundary, so a pipe
//!   holds `dp − 1` words. A pipe is either empty — it passes its input
//!   straight through — or holds exactly `dp − 1` words: a fill writes
//!   all of them, an advance moves one in and one out, and a teardown
//!   empties it. At `dp == 1` a pipe is always empty and the router has
//!   no pipe storage; at `dp > 1` every port's two pipes share one
//!   router-level allocation, made at the router's first fill and kept
//!   for its life.
//! * **Reply queue.** A turn clears the queue and queues two words
//!   (STATUS, checksum), or three when the port is blocked (plus DROP).
//!   A `Reverse` tick queues at most one word and sends one. Between
//!   ticks the queue therefore holds at most 3 words, and at most 4
//!   within a tick, so it is an inline array of 4. A restore refuses a
//!   longer queue, and a pipe of any other length than `0` or `dp − 1`.
//!
//! * **Counters.** A state's backward port is a `u8` (a router has at
//!   most 64) and its settle or setup count a `u32`: lowering refuses a
//!   wire delay whose settle window `2·(delay + 1) + 1` would not fit.
//!
//! A port is 32 bytes, pinned by a unit test, and a router's only heap
//! is its ports, its allocator's owners and cursors, and its pipes:
//! the arbitration of one tick runs in stack arrays bounded by the 64
//! ports a bitplane holds.

use crate::allocator::{Allocator, SelectionPolicy, MAX_REQUESTS};
use crate::checksum::StreamChecksum;
use crate::config::{PortMode, RouterConfig};
use crate::header::consume_digit;
use crate::params::ArchParams;
use crate::rng::RandomSource;
use crate::status::StatusWord;
use crate::word::Word;
use metro_telemetry::{CounterCell, RouterCounter};
use std::sync::Arc;

/// Forward-lane inputs to one [`Router::tick`] call: the word arriving
/// on each forward port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FwdIn {
    words: Vec<Word>,
}

impl FwdIn {
    /// Inputs from an explicit word per forward port.
    #[must_use]
    pub fn data(words: &[Word]) -> Self {
        Self {
            words: words.to_vec(),
        }
    }

    /// All-idle (undriven) inputs for a router with `i` forward ports.
    #[must_use]
    pub fn idle(i: usize) -> Self {
        Self {
            words: vec![Word::Empty; i],
        }
    }

    /// The word arriving on forward port `f`.
    #[must_use]
    pub fn word(&self, f: usize) -> Word {
        self.words[f]
    }

    /// Replaces the word on forward port `f` (builder-style).
    #[must_use]
    pub fn with(mut self, f: usize, w: Word) -> Self {
        self.words[f] = w;
        self
    }
}

/// Reverse-lane inputs to one [`Router::tick`] call: the word and BCB
/// arriving on each backward port (from the downstream neighbor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BwdIn {
    words: Vec<Word>,
    bcb: Vec<bool>,
}

impl BwdIn {
    /// Inputs from explicit words and BCB lines.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn new(words: &[Word], bcb: &[bool]) -> Self {
        assert_eq!(words.len(), bcb.len(), "word and BCB lanes must match");
        Self {
            words: words.to_vec(),
            bcb: bcb.to_vec(),
        }
    }

    /// All-idle inputs for a router with `o` backward ports.
    #[must_use]
    pub fn idle(o: usize) -> Self {
        Self {
            words: vec![Word::Empty; o],
            bcb: vec![false; o],
        }
    }

    /// The word arriving on backward port `b`.
    #[must_use]
    pub fn word(&self, b: usize) -> Word {
        self.words[b]
    }

    /// Replaces the word on backward port `b` (builder-style).
    #[must_use]
    pub fn with(mut self, b: usize, w: Word) -> Self {
        self.words[b] = w;
        self
    }

    /// Asserts the BCB on backward port `b` (builder-style).
    #[must_use]
    pub fn with_bcb(mut self, b: usize) -> Self {
        self.bcb[b] = true;
        self
    }
}

/// The outputs driven by a router during one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickOutput {
    /// Forward-lane outputs: the word driven out of each backward port,
    /// toward downstream.
    pub bwd: Vec<Word>,
    /// Reverse-lane outputs: the word driven out of each forward port,
    /// toward upstream.
    pub fwd: Vec<Word>,
    /// BCB asserted toward upstream, per forward port.
    pub bcb: Vec<bool>,
}

/// A summary of one forward port's connection state, for introspection
/// and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortStatus {
    /// No connection.
    Idle,
    /// Consuming header words during pipelined connection setup.
    Setup,
    /// Connected; data flowing forward.
    Forward,
    /// Connected; data flowing in reverse (toward the source).
    Reverse,
    /// Blocked in detailed mode, awaiting the turn.
    Blocked,
    /// Discarding residual words after a teardown.
    Draining,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Idle,
    Setup {
        bwd: u8,
        remaining: u32,
    },
    /// Connected, data flowing forward. `settle` is nonzero right after
    /// a reverse→forward turn: the upstream's forward data is still in
    /// flight across the wire pipeline (one round trip of the port's
    /// variable turn delay), so an undriven input is not yet a
    /// teardown (paper §5.1, Variable Turn Delay).
    Forward {
        bwd: u8,
        settle: u32,
    },
    /// Connected, data flowing in reverse. `settle` covers the wire
    /// round trip after a forward→reverse turn, during which the
    /// downstream's hold has not yet arrived.
    Reverse {
        bwd: u8,
        settle: u32,
    },
    BlockedDetailed,
    BlockedReply,
    ClosingFwd {
        bwd: u8,
    },
    Draining,
}

/// One of a port's two internal pipelines; the discriminant is the
/// pipe's bit in [`Port::full`].
#[derive(Debug, Clone, Copy)]
enum Pipe {
    /// Carries the forward stream toward the backward port.
    Fwd = 1,
    /// Carries the reverse stream toward the source.
    Rev = 2,
}

/// Where port `f`'s `pipe` starts in its router's pipe buffer, for
/// pipes `depth` words deep: each forward port holds its forward pipe
/// then its reverse pipe, oldest word first.
fn pipe_start(f: usize, pipe: Pipe, depth: usize) -> usize {
    (2 * f + pipe as usize / 2) * depth
}

/// Allocates a router's pipe buffer if it has none yet: two pipes of
/// `dp - 1` words per forward port.
fn reserve_pipes(pipes: &mut Box<[Word]>, params: &ArchParams) {
    if pipes.is_empty() {
        let words = 2 * (params.pipestages() - 1) * params.forward_ports();
        *pipes = vec![Word::Empty; words].into_boxed_slice();
    }
}

/// The words a port injects toward the source ahead of the reverse
/// stream, oldest first: at most 4 (see the module documentation).
#[derive(Debug, Clone, Copy, Default)]
struct ReplyQueue {
    words: [Word; 4],
    len: u8,
}

impl ReplyQueue {
    /// Words a queue can hold between ticks.
    const MAX_SAVED: usize = 3;

    fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, word: Word) {
        self.words[usize::from(self.len)] = word;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Word> {
        let front = self.as_slice().first().copied()?;
        self.words.copy_within(1.., 0);
        self.len -= 1;
        Some(front)
    }

    fn as_slice(&self) -> &[Word] {
        &self.words[..usize::from(self.len)]
    }
}

#[derive(Debug, Clone)]
struct Port {
    state: State,
    /// Which pipes hold their words (a [`Pipe`] per bit); a pipe whose
    /// bit is clear is empty whatever its registers read.
    full: u8,
    rq: ReplyQueue,
    cksum: StreamChecksum,
}

impl Port {
    fn new() -> Self {
        Self {
            state: State::Idle,
            full: 0,
            rq: ReplyQueue::default(),
            cksum: StreamChecksum::new(),
        }
    }

    fn reset(&mut self) {
        self.state = State::Idle;
        self.full = 0;
        self.rq.clear();
        self.cksum.reset();
    }

    /// (Re)fills `pipe` of this port — forward port `f` of a router
    /// with `params` and pipe buffer `pipes` — with `dp - 1` copies of
    /// `with`. The pipe holds `dp - 1` words: the final pipeline stage
    /// is the output register, whose one-cycle propagation to the
    /// neighboring component the network model accounts for at the
    /// transfer boundary, so total router transit is exactly `dp`
    /// cycles. At `dp == 1` there is nothing to fill.
    fn fill(
        &mut self,
        pipes: &mut Box<[Word]>,
        params: &ArchParams,
        f: usize,
        pipe: Pipe,
        with: Word,
    ) {
        let depth = params.pipestages() - 1;
        if depth == 0 {
            return;
        }
        reserve_pipes(pipes, params);
        let at = pipe_start(f, pipe, depth);
        pipes[at..at + depth].fill(with);
        self.full |= pipe as u8;
    }

    /// Advances `pipe` of this port — forward port `f`, its pipes
    /// `depth` words deep in `pipes` — by one word: pushes `word` in and
    /// returns the word that falls out. An empty pipe — always, at
    /// `dp == 1` — passes the input straight through.
    #[inline]
    fn advance(
        &mut self,
        pipes: &mut [Word],
        f: usize,
        depth: usize,
        pipe: Pipe,
        word: Word,
    ) -> Word {
        if self.full & pipe as u8 == 0 {
            return word;
        }
        let at = pipe_start(f, pipe, depth);
        let regs = &mut pipes[at..at + depth];
        let out = regs[0];
        regs.copy_within(1.., 0);
        regs[depth - 1] = word;
        out
    }
}

/// The bitplane of forward ports not `Idle`: what a router's `active`
/// word holds.
fn activity(ports: &[Port]) -> u64 {
    let busy = ports.iter().enumerate();
    busy.fold(0, |m, (f, p)| {
        m | u64::from(!matches!(p.state, State::Idle)) << f
    })
}

/// The settle window of a wire `delay` cycles deep: its round trip,
/// `2·(delay + 1)`, plus one cycle of turnaround at the far component.
/// Lowering refuses a delay whose window exceeds `u32::MAX`; a router
/// built around it saturates there, some four billion cycles on.
fn settle_window(delay: usize) -> u32 {
    let window = delay.saturating_add(1).saturating_mul(2).saturating_add(1);
    u32::try_from(window).unwrap_or(u32::MAX)
}

/// Blank port FSM states, by checkpoint tag; the walk fills the fields.
const PORT_STATES: [State; 8] = [
    State::Idle,
    State::Setup {
        bwd: 0,
        remaining: 0,
    },
    State::Forward { bwd: 0, settle: 0 },
    State::Reverse { bwd: 0, settle: 0 },
    State::BlockedDetailed,
    State::BlockedReply,
    State::ClosingFwd { bwd: 0 },
    State::Draining,
];

/// Port modes — the one piece of [`RouterConfig`] the self-healing
/// layer mutates at runtime — by checkpoint tag.
const PORT_MODES: [PortMode; 3] = [
    PortMode::Enabled,
    PortMode::DisabledDriven,
    PortMode::DisabledTristate,
];

// The router's complete mutable state: random stream, allocator,
// activity bitplane, counters, the runtime-maskable port modes, and
// each port's FSM, pipes, reply queue and checksum. Everything else
// (`params` and the rest of the config) is
// construction-derived and rebuilt on restore.
//
// A restored port mode differing from the current one is set through
// `RouterConfig::set_*_mode` directly — not via `apply_config`, whose
// `MasksApplied` accounting would double-count healing masks already
// folded into the saved counter cell — so a router whose modes match
// keeps sharing its configuration. Restore refuses an out-of-range
// backward port in an FSM state, a pipe or reply queue no tick leaves,
// and an activity bitplane that disagrees with the FSM states.
metro_telemetry::state_walk! {
    impl State for Router => |this, s| {
        let Router { params, config, rng, alloc, ports, pipes, active, counters } = this;
        let (i, o, dp) = (params.forward_ports(), params.backward_ports(), params.pipestages());
        s.section("router")?;
        s.state(rng)?;
        s.state_within(alloc, i)?;
        s.u64(active)?;
        s.state(counters)?;
        let mut modes = [[PortMode::Enabled; 64]; 2];
        modes[0][..i].iter_mut().enumerate().for_each(|(f, m)| *m = config.forward_mode(f));
        modes[1][..o].iter_mut().enumerate().for_each(|(b, m)| *m = config.backward_mode(b));
        s.lane(&mut modes[0][..i], "forward port modes", |s, m| {
            s.tag(m, &PORT_MODES, "port mode")
        })?;
        s.lane(&mut modes[1][..o], "backward port modes", |s, m| {
            s.tag(m, &PORT_MODES, "port mode")
        })?;
        s.on_restore(config, |config| {
            for (f, &mode) in modes[0][..i].iter().enumerate() {
                if config.forward_mode(f) != mode {
                    Arc::make_mut(config).set_forward_mode(f, mode);
                }
            }
            for (b, &mode) in modes[1][..o].iter().enumerate() {
                if config.backward_mode(b) != mode {
                    Arc::make_mut(config).set_backward_mode(b, mode);
                }
            }
        });
        s.lane(ports.into_iter().enumerate(), "forward ports", |s, (f, port)| {
            let Port { state, .. } = port;
            s.tag(state, &PORT_STATES, "port FSM state")?;
            match state {
                State::Setup { bwd, remaining: n }
                | State::Forward { bwd, settle: n }
                | State::Reverse { bwd, settle: n } => {
                    let mut b = usize::from(*bwd);
                    s.index(&mut b, o, "backward port")?;
                    s.on_restore(bwd, |bwd| *bwd = b as u8);
                    s.u32(n)?;
                }
                State::ClosingFwd { bwd } => {
                    let mut b = usize::from(*bwd);
                    s.index(&mut b, o, "backward port")?;
                    s.on_restore(bwd, |bwd| *bwd = b as u8);
                }
                _ => {}
            }
            for pipe in [Pipe::Fwd, Pipe::Rev] {
                let mut n = if port.full & pipe as u8 == 0 { 0 } else { dp - 1 };
                s.usize(&mut n)?;
                s.check(
                    || n == 0 || n == dp - 1,
                    format_args!(
                        "a {n}-word {pipe:?} pipe: a pipe holds 0 or dp - 1 = {} words",
                        dp - 1
                    ),
                )?;
                s.on_restore(port, |p| match n {
                    0 => p.full &= !(pipe as u8),
                    _ => p.full |= pipe as u8,
                });
                s.on_restore(pipes, |pipes| {
                    if n > 0 {
                        reserve_pipes(pipes, params);
                    }
                });
                let at = pipe_start(f, pipe, dp - 1);
                s.each(pipes.into_iter().skip(at).take(n), |s, w| s.state(w))?;
            }
            let Port { rq: ReplyQueue { words, len }, cksum, .. } = port;
            let mut n = usize::from(*len);
            s.usize(&mut n)?;
            s.check(
                || n <= ReplyQueue::MAX_SAVED,
                format_args!(
                    "a {n}-word reply queue: no tick leaves more than {}",
                    ReplyQueue::MAX_SAVED
                ),
            )?;
            s.on_restore(len, |len| *len = n as u8);
            s.each(words.into_iter().take(n), |s, w| s.state(w))?;
            s.state(cksum)
        })?;
        s.check(
            || *active == activity(ports),
            "activity bitplane disagrees with the restored FSM states",
        )
    }
}

/// A cycle-accurate METRO router.
///
/// See the [module documentation](self) for the channel model. The
/// router owns its allocator, random stream, and per-port state; calling
/// [`Router::tick`] once per clock cycle drives everything.
///
/// The configuration is shared copy-on-write: routers built from one
/// `Arc` (a network stage's) hold one copy until a write — a scan
/// [`Router::apply_config`], or a restore of port modes that differ —
/// gives the written router its own.
#[derive(Debug, Clone)]
pub struct Router {
    params: ArchParams,
    config: Arc<RouterConfig>,
    rng: RandomSource,
    alloc: Allocator,
    ports: Vec<Port>,
    /// Every port's pipe registers: see [`pipe_start`].
    pipes: Box<[Word]>,
    /// Bitplane over forward ports: bit `f` set iff `ports[f]` is in any
    /// non-`Idle` state. Ports become active only through the `Idle` arm
    /// of `step_port` (or a forced teardown) and return to idle only
    /// through the `Draining` arm, so those choke points keep this word
    /// exact. The tick loop selects request candidates with
    /// `!active & fwd_enabled_mask` and steps only `active | requested`
    /// ports — quiescent ports cost nothing.
    active: u64,
    counters: CounterCell,
}

impl Router {
    /// Creates a router with the given parameters and configuration,
    /// seeding its shared-randomness stream with `seed`. `config` is a
    /// [`RouterConfig`] of its own or an `Arc` shared with other routers.
    ///
    /// # Errors
    ///
    /// Currently infallible for validated inputs; returns `Result` for
    /// forward compatibility with cross-validation of `params` and
    /// `config`.
    pub fn new(
        params: ArchParams,
        config: impl Into<Arc<RouterConfig>>,
        seed: u64,
    ) -> Result<Self, crate::error::ConfigError> {
        Self::with_policy(params, config, seed, SelectionPolicy::Random)
    }

    /// Creates a router with a non-default selection policy (ablation
    /// experiments; the METRO architecture itself mandates random
    /// selection).
    ///
    /// # Errors
    ///
    /// See [`Router::new`].
    pub fn with_policy(
        params: ArchParams,
        config: impl Into<Arc<RouterConfig>>,
        seed: u64,
        policy: SelectionPolicy,
    ) -> Result<Self, crate::error::ConfigError> {
        let config = config.into();
        assert!(
            params.forward_ports() <= 64,
            "port bitplanes hold at most 64 ports per side"
        );
        Ok(Self {
            alloc: Allocator::with_policy(&config, params.backward_ports(), policy),
            ports: (0..params.forward_ports()).map(|_| Port::new()).collect(),
            pipes: Box::default(),
            rng: RandomSource::new(seed),
            params,
            config,
            active: 0,
            counters: CounterCell::new(),
        })
    }

    /// The router's architectural parameters.
    #[must_use]
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// The router's current configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Applies a new configuration, as a scan operation would
    /// (paper §5.3: port enables and fast reclamation may change during
    /// operation). Connections in flight are unaffected except that
    /// newly disabled backward ports are no longer granted. Every port
    /// flipped enabled → disabled counts as one applied mask in the
    /// telemetry ([`RouterCounter::MasksApplied`]). The router stops
    /// sharing its old configuration with any other.
    pub fn apply_config(&mut self, config: RouterConfig) {
        for f in 0..self.params.forward_ports() {
            if self.config.forward_enabled(f) && !config.forward_enabled(f) {
                self.counters.inc(RouterCounter::MasksApplied);
            }
        }
        for b in 0..self.params.backward_ports() {
            if self.config.backward_enabled(b) && !config.backward_enabled(b) {
                self.counters.inc(RouterCounter::MasksApplied);
            }
        }
        self.config = Arc::new(config);
    }

    /// Records an externally observed event against this router's
    /// counter cell — the self-healing layer attributes checksum
    /// mismatches and post-mask retries to the routers they implicate.
    pub fn note_event(&mut self, counter: RouterCounter) {
        self.counters.inc(counter);
    }

    /// Replaces the router's random stream — used by
    /// [`CascadeGroup`](crate::CascadeGroup) to share randomness across
    /// cascaded routers.
    pub fn set_random_source(&mut self, rng: RandomSource) {
        self.rng = rng;
    }

    /// The event counters accumulated across the router's lifetime —
    /// the one place they are held; the telemetry registry reads this
    /// cell and keeps no copy.
    #[must_use]
    pub fn counters(&self) -> &CounterCell {
        &self.counters
    }

    /// The IN-USE signal of each backward port (the wired-AND input for
    /// width cascading, paper §5.1).
    #[must_use]
    pub fn in_use_vector(&self) -> Vec<bool> {
        self.alloc.in_use_vector()
    }

    /// Whether the router holds no connection state: every forward
    /// port idle, no backward port allocated — "stateless between
    /// messages" (paper §2, §5.1). Ticking it without a header word
    /// arriving is a no-op (the fast path of [`Router::tick_into`]).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.active == 0 && self.alloc.in_use_mask() == 0
    }

    /// The ports a tick can drive, as bitplanes: `(forward ports not
    /// idle, backward ports allocated)`. A tick writes a word or a BCB
    /// only on a port in this pair as read before or after it: a
    /// forward port steps only while active or when its request makes
    /// it so, and a backward port carries only its owner's words.
    #[must_use]
    pub fn busy_ports(&self) -> (u64, u64) {
        (self.active, self.alloc.in_use_mask())
    }

    /// A summary of forward port `f`'s state.
    #[must_use]
    pub fn port_status(&self, f: usize) -> PortStatus {
        match self.ports[f].state {
            State::Idle => PortStatus::Idle,
            State::Setup { .. } => PortStatus::Setup,
            State::Forward { .. } => PortStatus::Forward,
            State::Reverse { .. } => PortStatus::Reverse,
            State::BlockedDetailed | State::BlockedReply => PortStatus::Blocked,
            State::ClosingFwd { .. } | State::Draining => PortStatus::Draining,
        }
    }

    /// The backward port forward port `f` is connected through, if any.
    #[must_use]
    pub fn connected_backward_port(&self, f: usize) -> Option<usize> {
        match self.ports[f].state {
            State::Setup { bwd, .. }
            | State::Forward { bwd, .. }
            | State::Reverse { bwd, .. }
            | State::ClosingFwd { bwd } => Some(usize::from(bwd)),
            _ => None,
        }
    }

    /// The post-reversal settle window for a connection through
    /// backward port `b`: one round trip across the attached wire's
    /// pipeline registers, plus one cycle of turnaround at the far
    /// component.
    fn reverse_settle(&self, b: usize) -> u32 {
        settle_window(self.config.backward_turn_delay(b))
    }

    /// The settle window after a reverse→forward turn on forward port
    /// `f` (the upstream wire's round trip).
    fn forward_settle(&self, f: usize) -> u32 {
        settle_window(self.config.forward_turn_delay(f))
    }

    /// Forcibly shuts down the connection using backward port `b`, as
    /// the cascade consistency check does when the wired-AND detects
    /// disagreement (paper §5.1). The owning forward port asserts BCB
    /// toward the source on the next tick.
    pub fn force_release(&mut self, b: usize) -> bool {
        let Some(owner) = self.alloc.owner(b) else {
            return false;
        };
        self.alloc.release(b);
        self.ports[owner].reset();
        self.ports[owner].state = State::Draining;
        self.active |= 1u64 << owner;
        true
    }

    /// Advances the router one clock cycle.
    ///
    /// `fwd_in` carries the forward-lane word arriving on each forward
    /// port; `bwd_in` carries the reverse-lane word and BCB arriving on
    /// each backward port. Returns the outputs driven during this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the input sizes do not match the router's port counts.
    pub fn tick(&mut self, fwd_in: &FwdIn, bwd_in: &BwdIn) -> TickOutput {
        let i = self.params.forward_ports();
        let o = self.params.backward_ports();
        let mut out = TickOutput {
            bwd: vec![Word::Empty; o],
            fwd: vec![Word::Empty; i],
            bcb: vec![false; i],
        };
        self.tick_into(
            &fwd_in.words,
            &bwd_in.words,
            &bwd_in.bcb,
            &mut out.bwd,
            &mut out.fwd,
            &mut out.bcb,
        );
        out
    }

    /// Advances the router one clock cycle, reading inputs from and
    /// writing outputs into caller-provided slices — the zero-allocation
    /// tick API the flat channel fabric drives.
    ///
    /// `fwd_in[f]` is the forward-lane word arriving on forward port
    /// `f`; `rev_in[b]`/`bcb_in[b]` are the reverse-lane word and BCB
    /// arriving on backward port `b`. `out_bwd[b]` receives the word
    /// driven downstream out of backward port `b`; `out_fwd[f]` and
    /// `out_bcb[f]` receive the reverse-lane word and BCB driven
    /// upstream out of forward port `f`. Output slices are fully
    /// overwritten. Semantically identical to [`Router::tick`].
    ///
    /// # Panics
    ///
    /// Panics if any slice length does not match the router's port
    /// counts.
    pub fn tick_into(
        &mut self,
        fwd_in: &[Word],
        rev_in: &[Word],
        bcb_in: &[bool],
        out_bwd: &mut [Word],
        out_fwd: &mut [Word],
        out_bcb: &mut [bool],
    ) {
        let i = self.params.forward_ports();
        let o = self.params.backward_ports();
        assert_eq!(fwd_in.len(), i, "forward input size mismatch");
        assert_eq!(rev_in.len(), o, "backward input size mismatch");
        assert_eq!(bcb_in.len(), o, "BCB input size mismatch");
        assert_eq!(out_bwd.len(), o, "backward output size mismatch");
        assert_eq!(out_fwd.len(), i, "forward output size mismatch");
        assert_eq!(out_bcb.len(), i, "BCB output size mismatch");
        out_bwd.fill(Word::Empty);
        out_fwd.fill(Word::Empty);
        out_bcb.fill(false);
        debug_assert!(
            {
                let m = activity(&self.ports);
                let unowned = self.alloc.in_use_vector().iter().all(|&u| !u);
                m == self.active && self.is_quiescent() == (m == 0 && unowned)
            },
            "activity bitplane or is_quiescent out of sync with port FSM states"
        );

        // Fully quiescent fast path: no port mid-connection, no
        // backward port allocated, and no header word arriving. Nothing
        // below could fire — no BCB release (nothing owned), no request
        // (no DATA on an idle port), no FSM step, no counter change,
        // and, critically, no random draw (empty arbitration consumes
        // none) — so the stream stays in lockstep with the slow path.
        if self.is_quiescent() && !fwd_in.iter().any(|w| matches!(w, Word::Data(_))) {
            return;
        }

        // Phase 0: BCB arrivals tear down connections immediately. A
        // BCB only has effect on an *owned* backward port, so the scan
        // is skipped outright when nothing is allocated.
        if self.alloc.in_use_mask() != 0 {
            for (b, &bcb) in bcb_in.iter().enumerate() {
                if bcb {
                    if let Some(owner) = self.alloc.owner(b) {
                        self.alloc.release(b);
                        self.ports[owner].reset();
                        self.ports[owner].state = State::Draining;
                        self.active |= 1u64 << owner;
                        out_bcb[owner] = true;
                    }
                }
            }
        }

        // Phase 1: the new connection requests — idle, enabled ports
        // with a header word arriving. One AND over the activity and
        // enabled bitplanes picks the candidates.
        let mut req_mask = 0u64;
        let mut idle = !self.active & self.config.forward_enabled_mask();
        while idle != 0 {
            let f = idle.trailing_zeros() as usize;
            idle &= idle - 1;
            if matches!(fwd_in[f], Word::Data(_)) {
                req_mask |= 1u64 << f;
            }
        }
        // Most ticks open nothing: the grant table exists only when one
        // does.
        let granted;
        let grants: &[Option<u8>] = if req_mask == 0 {
            &[]
        } else {
            granted = self.arbitrate(req_mask, fwd_in);
            &granted
        };

        // Phase 2: advance every active or newly requesting port one
        // step. Idle ports without a request are provable no-ops (their
        // outputs are pre-filled and `step_port` would return
        // immediately), so the bit scan skips them. Grants are in
        // ascending port order and this scan ascends too, so a single
        // cursor pairs each requesting port with its grant.
        let mut cursor = 0usize;
        let mut step = self.active | req_mask;
        while step != 0 {
            let f = step.trailing_zeros() as usize;
            step &= step - 1;
            let grant = if req_mask & (1u64 << f) != 0 {
                let g = grants[cursor];
                cursor += 1;
                Some(g)
            } else {
                None
            };
            self.step_port(f, fwd_in[f], rev_in, grant, out_bwd, out_fwd, out_bcb);
        }
    }

    /// Arbitrates the tick's connection requests — the ports of
    /// `req_mask`, each with a header word arriving — in one batch that
    /// consumes all of the tick's randomness: the shuffle plus one draw
    /// per grant. Returns each request's backward port, or `None` where
    /// it blocked, in ascending port order.
    fn arbitrate(&mut self, req_mask: u64, fwd_in: &[Word]) -> [Option<u8>; MAX_REQUESTS] {
        let digit_bits = self.config.digit_bits();
        let w = self.params.width();
        let mut requests = [(0u8, 0u8); MAX_REQUESTS];
        let mut n = 0;
        let mut bits = req_mask;
        while bits != 0 {
            let f = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let Word::Data(v) = fwd_in[f] else {
                unreachable!("a request is a data word")
            };
            // A digit names one of at most 64 directions.
            let dir = if digit_bits == 0 {
                0
            } else {
                (v >> (w - digit_bits)) as u8 & ((1 << digit_bits) - 1)
            };
            requests[n] = (f as u8, dir);
            n += 1;
        }
        let mut grants = [None; MAX_REQUESTS];
        self.alloc.arbitrate_into(
            &requests[..n],
            &self.config,
            &mut self.rng,
            &mut grants[..n],
        );
        // Opens/Grants/Blocks fall straight out of the arbitration
        // batch — counted with batch adds instead of per-port
        // increments (identical totals at every tick boundary).
        let opens = n as u64;
        let granted = grants[..n].iter().filter(|g| g.is_some()).count() as u64;
        self.counters.add(RouterCounter::Opens, opens);
        self.counters.add(RouterCounter::Grants, granted);
        self.counters.add(RouterCounter::Blocks, opens - granted);
        grants
    }

    #[allow(clippy::too_many_arguments)]
    fn step_port(
        &mut self,
        f: usize,
        in_w: Word,
        rev_in: &[Word],
        grant: Option<Option<u8>>,
        out_bwd: &mut [Word],
        out_fwd: &mut [Word],
        out_bcb: &mut [bool],
    ) {
        let depth = self.params.pipestages() - 1;
        let hw = self.params.header_words();
        let mask = self.params.word_mask();
        let state = self.ports[f].state;
        match state {
            State::Idle => {
                let Some(grant) = grant else {
                    // No request this cycle (input empty, disabled, or a
                    // stray control word after teardown) — stay idle.
                    return;
                };
                // Opens/Grants/Blocks were batch-counted at arbitration;
                // every outcome below leaves the port non-idle.
                self.active |= 1u64 << f;
                let Word::Data(v) = in_w else { unreachable!() };
                match grant {
                    Some(bwd) => {
                        let port = &mut self.ports[f];
                        port.cksum.reset();
                        port.cksum.absorb_value(v);
                        if hw == 0 {
                            let (_, forwarded) = consume_digit(
                                v,
                                self.config.digit_bits(),
                                self.params.width(),
                                self.config.swallow(f),
                            );
                            port.fill(&mut self.pipes, &self.params, f, Pipe::Fwd, Word::Empty);
                            let push = match forwarded {
                                Some(head) => Word::Data(head & mask),
                                None => Word::Empty,
                            };
                            let popped = port.advance(&mut self.pipes, f, depth, Pipe::Fwd, push);
                            if matches!(push, Word::Data(_)) {
                                self.counters.inc(RouterCounter::WordsForwarded);
                            }
                            port.state = State::Forward { bwd, settle: 0 };
                            out_bwd[usize::from(bwd)] = popped;
                            out_fwd[f] = Word::DataIdle;
                        } else {
                            // Pipelined setup: this and the next hw-1
                            // words are consumed, not forwarded.
                            port.fill(&mut self.pipes, &self.params, f, Pipe::Fwd, Word::Empty);
                            if hw == 1 {
                                port.state = State::Forward { bwd, settle: 0 };
                            } else {
                                // A header of 2³² words would not fit
                                // in memory as a stream to send.
                                let remaining = u32::try_from(hw - 1).unwrap_or(u32::MAX);
                                port.state = State::Setup { bwd, remaining };
                            }
                            out_fwd[f] = Word::DataIdle;
                        }
                    }
                    None => {
                        let port = &mut self.ports[f];
                        port.cksum.reset();
                        port.cksum.absorb_value(v);
                        if self.config.fast_reclaim(f) {
                            self.counters.inc(RouterCounter::FastReclaims);
                            port.state = State::Draining;
                            out_bcb[f] = true;
                        } else {
                            port.state = State::BlockedDetailed;
                            out_fwd[f] = Word::DataIdle;
                        }
                    }
                }
            }

            State::Setup { bwd, remaining } => {
                out_fwd[f] = Word::DataIdle;
                match in_w {
                    Word::Data(v) => {
                        let port = &mut self.ports[f];
                        port.cksum.absorb_value(v);
                        if remaining <= 1 {
                            port.state = State::Forward { bwd, settle: 0 };
                        } else {
                            port.state = State::Setup {
                                bwd,
                                remaining: remaining - 1,
                            };
                        }
                    }
                    Word::Empty | Word::Drop => {
                        // Source released mid-setup.
                        self.alloc.release(usize::from(bwd));
                        self.ports[f].reset();
                        self.ports[f].state = State::Draining;
                        out_fwd[f] = Word::Empty;
                    }
                    _ => {
                        // Corrupt header stream: tear down; the
                        // source-responsible protocol will retry.
                        self.alloc.release(usize::from(bwd));
                        self.ports[f].reset();
                        self.ports[f].state = State::Draining;
                        out_fwd[f] = Word::Empty;
                    }
                }
            }

            State::Forward { bwd, settle } => {
                out_fwd[f] = Word::DataIdle;
                let rev_settle = self.reverse_settle(usize::from(bwd));
                let port = &mut self.ports[f];
                let mut closing = false;
                let mut settle = settle;
                let push = match in_w {
                    Word::Empty if settle > 0 => {
                        // Right after a reverse->forward turn the
                        // upstream's data is still crossing the wire
                        // pipeline; an undriven input is not yet a
                        // teardown (variable turn delay, paper §5.1).
                        settle -= 1;
                        Word::DataIdle
                    }
                    Word::Empty | Word::Drop => {
                        closing = true;
                        Word::Drop
                    }
                    Word::Data(v) => {
                        settle = 0;
                        port.cksum.absorb_value(v);
                        self.counters.inc(RouterCounter::WordsForwarded);
                        Word::Data(v & mask)
                    }
                    other => {
                        settle = 0;
                        other
                    }
                };
                let popped = port.advance(&mut self.pipes, f, depth, Pipe::Fwd, push);
                out_bwd[usize::from(bwd)] = popped;
                port.state = if closing {
                    State::ClosingFwd { bwd }
                } else {
                    State::Forward { bwd, settle }
                };
                match popped {
                    Word::Turn => {
                        // The reversal request has flushed through our
                        // forward pipeline; reverse the connection and
                        // queue our status report (paper §4, §5.1).
                        self.counters.inc(RouterCounter::Turns);
                        let cksum = port.cksum.value();
                        port.fill(&mut self.pipes, &self.params, f, Pipe::Rev, Word::DataIdle);
                        port.rq.clear();
                        port.rq
                            .push(Word::Status(StatusWord::connected(usize::from(bwd))));
                        port.rq.push(Word::Checksum(cksum));
                        port.state = State::Reverse {
                            bwd,
                            settle: rev_settle,
                        };
                    }
                    Word::Drop => {
                        // Drop fully propagated downstream; free the path.
                        self.counters.inc(RouterCounter::Drops);
                        self.alloc.release(usize::from(bwd));
                        port.reset();
                        port.state = State::Draining;
                        out_fwd[f] = Word::Empty;
                    }
                    _ => {}
                }
            }

            State::Reverse { bwd, settle } => {
                out_bwd[usize::from(bwd)] = Word::DataIdle;
                let fwd_settle = self.forward_settle(f);
                let port = &mut self.ports[f];
                let mut settle = settle;
                match rev_in[usize::from(bwd)] {
                    Word::Empty if settle > 0 => {
                        // The downstream's hold is still in flight
                        // across the wire pipeline (variable turn
                        // delay); not a teardown yet.
                        settle -= 1;
                    }
                    Word::Empty => {
                        // Downstream released; convert to a drop toward
                        // the source unless one is already queued.
                        if !port.rq.as_slice().contains(&Word::Drop) {
                            port.rq.push(Word::Drop);
                        }
                    }
                    Word::DataIdle => settle = 0,
                    other => {
                        settle = 0;
                        port.rq.push(other);
                    }
                }
                port.state = State::Reverse { bwd, settle };
                let inject = port.rq.pop().unwrap_or(Word::DataIdle);
                let popped = port.advance(&mut self.pipes, f, depth, Pipe::Rev, inject);
                out_fwd[f] = popped;
                match popped {
                    Word::Turn => {
                        // Turned back toward the forward direction.
                        port.fill(&mut self.pipes, &self.params, f, Pipe::Fwd, Word::DataIdle);
                        port.state = State::Forward {
                            bwd,
                            settle: fwd_settle,
                        };
                    }
                    Word::Drop => {
                        self.counters.inc(RouterCounter::Drops);
                        self.alloc.release(usize::from(bwd));
                        port.reset();
                        port.state = State::Draining;
                    }
                    _ => {}
                }
            }

            State::BlockedDetailed => {
                out_fwd[f] = Word::DataIdle;
                let port = &mut self.ports[f];
                match in_w {
                    Word::Turn => {
                        let cksum = port.cksum.value();
                        port.fill(&mut self.pipes, &self.params, f, Pipe::Rev, Word::DataIdle);
                        port.rq.clear();
                        port.rq.push(Word::Status(StatusWord::blocked()));
                        port.rq.push(Word::Checksum(cksum));
                        port.rq.push(Word::Drop);
                        port.state = State::BlockedReply;
                    }
                    Word::Empty | Word::Drop => {
                        port.reset();
                        port.state = State::Draining;
                        out_fwd[f] = Word::Empty;
                    }
                    Word::Data(v) => {
                        port.cksum.absorb_value(v);
                    }
                    _ => {}
                }
            }

            State::BlockedReply => {
                let port = &mut self.ports[f];
                let inject = port.rq.pop().unwrap_or(Word::DataIdle);
                let popped = port.advance(&mut self.pipes, f, depth, Pipe::Rev, inject);
                out_fwd[f] = popped;
                if popped == Word::Drop {
                    port.reset();
                    port.state = State::Draining;
                }
            }

            State::ClosingFwd { bwd } => {
                // Drain the forward pipeline until the DROP exits.
                let port = &mut self.ports[f];
                let popped = port.advance(&mut self.pipes, f, depth, Pipe::Fwd, Word::Empty);
                out_bwd[usize::from(bwd)] = popped;
                if popped == Word::Drop {
                    self.counters.inc(RouterCounter::Drops);
                    self.alloc.release(usize::from(bwd));
                    port.reset();
                    port.state = State::Draining;
                }
            }

            State::Draining => {
                if in_w == Word::Empty {
                    self.ports[f].reset();
                    self.active &= !(1u64 << f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PortMode;

    /// An RN1-like router at dilation 2 (radix 4, 2-bit digits, w = 8),
    /// swallow enabled so payload comes out clean after one stage.
    fn router(dp: usize) -> Router {
        let params = ArchParams::rn1().with_pipestages(dp).unwrap();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_swallow_all(true)
            .build()
            .unwrap();
        Router::new(params, config, 99).unwrap()
    }

    fn idle8() -> BwdIn {
        BwdIn::idle(8)
    }

    /// Drives a full message through forward port 0 and returns
    /// (words seen on each backward port, words seen on fwd port 0's
    /// reverse lane, bcb history).
    fn drive(
        r: &mut Router,
        stream: &[Word],
        cycles_after: usize,
        bwd_feed: impl Fn(usize, &TickOutput) -> BwdIn,
    ) -> (Vec<Vec<Word>>, Vec<Word>) {
        let o = r.params().backward_ports();
        let mut bwd_hist = vec![Vec::new(); o];
        let mut rev_hist = Vec::new();
        let mut last = TickOutput {
            bwd: vec![Word::Empty; o],
            fwd: vec![Word::Empty; r.params().forward_ports()],
            bcb: vec![false; r.params().forward_ports()],
        };
        for cycle in 0..stream.len() + cycles_after {
            let w = stream.get(cycle).copied().unwrap_or(Word::Empty);
            let fwd = FwdIn::idle(8).with(0, w);
            let bwd = bwd_feed(cycle, &last);
            last = r.tick(&fwd, &bwd);
            for (b, word) in last.bwd.iter().enumerate() {
                bwd_hist[b].push(*word);
            }
            rev_hist.push(last.fwd[0]);
        }
        (bwd_hist, rev_hist)
    }

    #[test]
    fn routes_to_requested_direction_group() {
        let mut r = router(1);
        // Direction 2 (binary 10) in top bits of the 8-bit head word.
        let stream = [Word::Data(0b1000_0000), Word::Data(0xAB), Word::Data(0xCD)];
        let (bwd_hist, _) = drive(&mut r, &stream, 4, |_, _| idle8());
        // Direction 2 group at dilation 2 = ports 4..6.
        let active: Vec<usize> = (0..8)
            .filter(|&b| bwd_hist[b].iter().any(|w| w.is_payload()))
            .collect();
        assert_eq!(active.len(), 1);
        assert!(active[0] == 4 || active[0] == 5);
    }

    #[test]
    fn swallow_strips_head_word() {
        let mut r = router(1);
        let stream = [Word::Data(0b0100_0000), Word::Data(0x11), Word::Data(0x22)];
        let (bwd_hist, _) = drive(&mut r, &stream, 4, |_, _| idle8());
        let data: Vec<u16> = (0..8)
            .flat_map(|b| bwd_hist[b].iter().filter_map(Word::data))
            .collect();
        assert_eq!(data, vec![0x11, 0x22], "head word must be swallowed");
    }

    #[test]
    fn without_swallow_forwards_shifted_head() {
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
        let mut r = Router::new(params, config, 1).unwrap();
        let stream = [Word::Data(0b0111_0100), Word::Data(0x11)];
        let (bwd_hist, _) = drive(&mut r, &stream, 4, |_, _| idle8());
        let data: Vec<u16> = (0..8)
            .flat_map(|b| bwd_hist[b].iter().filter_map(Word::data))
            .collect();
        // Head shifted left 2: 0b0111_0100 -> 0b1101_0000.
        assert_eq!(data, vec![0b1101_0000, 0x11]);
    }

    #[test]
    fn dp_delay_matches_pipestages() {
        for dp in 1..=3 {
            let mut r = router(dp);
            let stream = [Word::Data(0), Word::Data(0x55)];
            let (bwd_hist, _) = drive(&mut r, &stream, 6, |_, _| idle8());
            let first_active = bwd_hist
                .iter()
                .flat_map(|h| h.iter().enumerate())
                .find(|(_, w)| w.is_payload())
                .map(|(c, _)| c)
                .unwrap();
            // Head word swallowed; 0x55 enters at cycle 1 and exits the
            // router's output register dp - 1 cycles later (the final
            // register-to-wire transfer is the dp-th stage).
            assert_eq!(first_active, dp, "dp = {dp}");
        }
    }

    #[test]
    fn turn_reverses_and_injects_status_then_checksum() {
        let mut r = router(1);
        let stream = [
            Word::Data(0),
            Word::Data(0x0A),
            Word::Data(0x0B),
            Word::Turn,
        ];
        let (_, rev_hist) = drive(&mut r, &stream, 10, |_, _| idle8());
        let significant: Vec<Word> = rev_hist
            .iter()
            .copied()
            .filter(|w| !matches!(w, Word::Empty | Word::DataIdle))
            .collect();
        assert!(matches!(significant[0], Word::Status(s) if !s.is_blocked()));
        let expected = StreamChecksum::over_values([0, 0x0A, 0x0B]);
        assert_eq!(significant[1], Word::Checksum(expected));
    }

    #[test]
    fn reverse_data_flows_back_after_statuses() {
        let mut r = router(1);
        let stream = [Word::Data(0), Word::Data(0x0A), Word::Turn];
        // After the Turn exits downstream, feed reply data in on the
        // connected backward port.
        let (bwd_hist, rev_hist) = drive(&mut r, &stream, 12, |_, last| {
            let mut bwd = idle8();
            for b in 0..8 {
                // A healthy downstream always holds its lane with
                // DATA-IDLE; once the router reverses (DataIdle on its
                // backward output), the downstream replies with data.
                bwd = bwd.with(
                    b,
                    if last.bwd[b] == Word::DataIdle {
                        Word::Data(0x3C)
                    } else {
                        Word::DataIdle
                    },
                );
            }
            bwd
        });
        let _ = bwd_hist;
        let replies: Vec<u16> = rev_hist.iter().filter_map(Word::data).collect();
        assert!(
            replies.iter().all(|&v| v == 0x3C) && !replies.is_empty(),
            "reply data must flow to the source: {rev_hist:?}"
        );
    }

    #[test]
    fn blocked_fast_reclaim_asserts_bcb() {
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_fast_reclaim_all(true)
            .build()
            .unwrap();
        let mut r = Router::new(params, config, 7).unwrap();
        // Saturate direction 0 (ports 0..2) from fwd ports 0 and 1.
        let open = FwdIn::idle(8).with(0, Word::Data(0)).with(1, Word::Data(0));
        r.tick(&open, &idle8());
        // Third request for direction 0 must block and assert BCB.
        let open2 = FwdIn::idle(8)
            .with(2, Word::Data(0))
            .with(0, Word::Data(0x99).masked(0xFF)) // continuation on port 0
            .with(1, Word::DataIdle);
        let out = r.tick(&open2, &idle8());
        assert!(out.bcb[2], "blocked port must assert BCB upstream");
        assert_eq!(r.counters().get(RouterCounter::Blocks), 1);
        assert_eq!(r.counters().get(RouterCounter::FastReclaims), 1);
    }

    #[test]
    fn blocked_detailed_replies_status_checksum_drop_on_turn() {
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_fast_reclaim_all(false)
            .with_swallow_all(true)
            .build()
            .unwrap();
        let mut r = Router::new(params, config, 7).unwrap();
        // Fill direction 0.
        let open = FwdIn::idle(8).with(0, Word::Data(0)).with(1, Word::Data(0));
        r.tick(&open, &idle8());
        // Blocked stream on port 2: header, one data word, then turn.
        let mut seen = Vec::new();
        let streams = [
            Word::Data(0),
            Word::Data(0x42),
            Word::Turn,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
            Word::DataIdle,
        ];
        for w in streams {
            let fwd = FwdIn::idle(8)
                .with(2, w)
                .with(0, Word::DataIdle)
                .with(1, Word::DataIdle);
            let out = r.tick(&fwd, &idle8());
            seen.push(out.fwd[2]);
        }
        let significant: Vec<Word> = seen
            .into_iter()
            .filter(|w| !matches!(w, Word::Empty | Word::DataIdle))
            .collect();
        assert!(matches!(significant[0], Word::Status(s) if s.is_blocked()));
        let expected = StreamChecksum::over_values([0, 0x42]);
        assert_eq!(significant[1], Word::Checksum(expected));
        assert_eq!(significant[2], Word::Drop);
    }

    #[test]
    fn drop_releases_the_backward_port() {
        let mut r = router(1);
        let stream = [Word::Data(0), Word::Data(1), Word::Drop];
        drive(&mut r, &stream, 6, |_, _| idle8());
        assert_eq!(r.in_use_vector(), vec![false; 8]);
        assert_eq!(r.counters().get(RouterCounter::Drops), 1);
        assert_eq!(r.port_status(0), PortStatus::Idle);
    }

    #[test]
    fn bcb_arrival_tears_down_and_propagates() {
        let mut r = router(1);
        // Open a connection on port 0 toward direction 0.
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        // Downstream asserts BCB.
        let out = r.tick(
            &FwdIn::idle(8).with(0, Word::Data(1)),
            &idle8().with_bcb(bwd),
        );
        assert!(out.bcb[0], "BCB must propagate toward the source");
        assert!(!r.in_use_vector()[bwd]);
        assert_eq!(r.port_status(0), PortStatus::Draining);
        // After the source goes quiet the port returns to idle.
        r.tick(&FwdIn::idle(8), &idle8());
        assert_eq!(r.port_status(0), PortStatus::Idle);
    }

    #[test]
    fn disabled_forward_port_ignores_traffic() {
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_forward_port_mode(0, PortMode::DisabledDriven)
            .build()
            .unwrap();
        let mut r = Router::new(params, config, 3).unwrap();
        let out = r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        assert!(out.bwd.iter().all(|w| *w == Word::Empty));
        assert_eq!(r.counters().get(RouterCounter::Opens), 0);
    }

    #[test]
    fn contending_requests_one_blocks() {
        let mut r = router(1);
        // Three simultaneous requests for direction 0 (2 ports).
        let fwd = FwdIn::idle(8)
            .with(0, Word::Data(0))
            .with(1, Word::Data(0))
            .with(2, Word::Data(0));
        r.tick(&fwd, &idle8());
        assert_eq!(r.counters().get(RouterCounter::Grants), 2);
        assert_eq!(r.counters().get(RouterCounter::Blocks), 1);
        let in_use = r.in_use_vector();
        assert!(in_use[0] && in_use[1]);
    }

    #[test]
    fn hw1_consumes_one_header_word_per_stage() {
        let params = ArchParams::rn1().with_header_words(1).unwrap();
        let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
        let mut r = Router::new(params, config, 5).unwrap();
        let stream = [Word::Data(0b0100_0000), Word::Data(0x77)];
        let (bwd_hist, _) = drive(&mut r, &stream, 4, |_, _| idle8());
        let data: Vec<u16> = (0..8)
            .flat_map(|b| bwd_hist[b].iter().filter_map(Word::data))
            .collect();
        assert_eq!(
            data,
            vec![0x77],
            "header word must be consumed, not forwarded"
        );
    }

    #[test]
    fn hw2_consumes_two_words() {
        let params = ArchParams::rn1().with_header_words(2).unwrap();
        let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
        let mut r = Router::new(params, config, 5).unwrap();
        let stream = [
            Word::Data(0b0100_0000),
            Word::Data(0x00), // setup padding
            Word::Data(0x77),
        ];
        let (bwd_hist, _) = drive(&mut r, &stream, 5, |_, _| idle8());
        let data: Vec<u16> = (0..8)
            .flat_map(|b| bwd_hist[b].iter().filter_map(Word::data))
            .collect();
        assert_eq!(data, vec![0x77]);
    }

    #[test]
    fn force_release_frees_and_drains() {
        let mut r = router(1);
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        assert!(r.force_release(bwd));
        assert!(!r.in_use_vector()[bwd]);
        assert_eq!(r.port_status(0), PortStatus::Draining);
        assert!(!r.force_release(bwd), "already free");
    }

    #[test]
    fn upstream_release_propagates_drop_downstream() {
        let mut r = router(1);
        let stream = [Word::Data(0), Word::Data(1)];
        // After the stream, input goes Empty (upstream vanished).
        let (bwd_hist, _) = drive(&mut r, &stream, 5, |_, _| idle8());
        let dropped = bwd_hist.iter().any(|h| h.contains(&Word::Drop));
        assert!(
            dropped,
            "drop must propagate downstream on upstream release"
        );
        assert_eq!(r.in_use_vector(), vec![false; 8]);
    }

    #[test]
    fn turn_then_turn_back_restores_forward_flow() {
        let mut r = router(1);
        // Open, turn, let downstream turn it back, then source data again.
        // A healthy downstream always holds its reverse lane at DataIdle.
        let held = |bwd: usize, w: Word| idle8().with(bwd, w);
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        r.tick(
            &FwdIn::idle(8).with(0, Word::Turn),
            &held(bwd, Word::DataIdle),
        );
        // Turn has flushed through; the port reverses.
        r.tick(
            &FwdIn::idle(8).with(0, Word::DataIdle),
            &held(bwd, Word::DataIdle),
        );
        assert_eq!(r.port_status(0), PortStatus::Reverse);
        // Downstream sends a reply word then turns it back forward.
        r.tick(
            &FwdIn::idle(8).with(0, Word::DataIdle),
            &idle8().with(bwd, Word::Data(0x5A)),
        );
        r.tick(
            &FwdIn::idle(8).with(0, Word::DataIdle),
            &idle8().with(bwd, Word::Turn),
        );
        // Let the turn flush through the reverse pipeline and queue.
        for _ in 0..4 {
            r.tick(
                &FwdIn::idle(8).with(0, Word::DataIdle),
                &idle8().with(bwd, Word::DataIdle),
            );
            if r.port_status(0) == PortStatus::Forward {
                break;
            }
        }
        assert_eq!(r.port_status(0), PortStatus::Forward);
        // Forward data flows again.
        let before = r.counters().get(RouterCounter::WordsForwarded);
        let out = r.tick(
            &FwdIn::idle(8).with(0, Word::Data(0x66)),
            &held(bwd, Word::DataIdle),
        );
        assert!(
            out.bwd[bwd] == Word::Data(0x66)
                || r.counters().get(RouterCounter::WordsForwarded) > before
        );
    }

    #[test]
    fn reverse_tolerates_empty_during_settle_window() {
        // After a turn, the downstream hold takes one wire round trip to
        // arrive; Empty during that window must not tear the connection
        // down (paper §5.1, variable turn delay).
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_swallow_all(true)
            .with_backward_turn_delay(0, 2)
            .with_backward_turn_delay(1, 2)
            .build()
            .unwrap();
        let mut r = Router::new(params, config, 3).unwrap();
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        r.tick(&FwdIn::idle(8).with(0, Word::Turn), &idle8());
        assert_eq!(r.port_status(0), PortStatus::Reverse);
        // Empty on the backward input for the whole settle window
        // (2·(vtd+1)+1 = 7 cycles): connection must survive.
        for _ in 0..7 {
            r.tick(&FwdIn::idle(8).with(0, Word::DataIdle), &idle8());
            assert_eq!(r.port_status(0), PortStatus::Reverse);
        }
        // After the window, persistent Empty is a teardown.
        let mut released = false;
        for _ in 0..6 {
            r.tick(&FwdIn::idle(8).with(0, Word::DataIdle), &idle8());
            if !r.in_use_vector()[bwd] {
                released = true;
                break;
            }
        }
        assert!(released, "post-settle Empty must tear the connection down");
    }

    #[test]
    fn settle_cancels_on_first_real_word() {
        let params = ArchParams::rn1();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_swallow_all(true)
            .with_backward_turn_delay(0, 3)
            .with_backward_turn_delay(1, 3)
            .build()
            .unwrap();
        let mut r = Router::new(params, config, 3).unwrap();
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        r.tick(&FwdIn::idle(8).with(0, Word::Turn), &idle8());
        // DataIdle arrives: the hold is established, settle cancels.
        r.tick(
            &FwdIn::idle(8).with(0, Word::DataIdle),
            &idle8().with(bwd, Word::DataIdle),
        );
        // Now Empty means teardown immediately (within a few cycles for
        // the drop to flush through the queue and pipe).
        let mut released = false;
        for _ in 0..5 {
            r.tick(&FwdIn::idle(8).with(0, Word::DataIdle), &idle8());
            if !r.in_use_vector()[bwd] {
                released = true;
                break;
            }
        }
        assert!(released);
    }

    #[test]
    fn bcb_during_setup_releases_the_allocation() {
        let params = ArchParams::rn1().with_header_words(2).unwrap();
        let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
        let mut r = Router::new(params, config, 5).unwrap();
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let bwd = r.connected_backward_port(0).unwrap();
        assert_eq!(r.port_status(0), PortStatus::Setup);
        let out = r.tick(
            &FwdIn::idle(8).with(0, Word::Data(0)),
            &idle8().with_bcb(bwd),
        );
        assert!(out.bcb[0], "BCB propagates even during setup");
        assert!(!r.in_use_vector()[bwd]);
    }

    /// Runs a mixed traffic pattern, checkpoints mid-connection, and
    /// proves the restored router ticks bit-identically to the
    /// original for many further cycles.
    #[test]
    fn save_restore_resumes_bit_identically_mid_connection() {
        use metro_telemetry::state::{State, StateReader, StateWriter};
        for dp in [1usize, 3] {
            let mut live = router(dp);
            // Open two connections, block a third, and turn one —
            // leaves ports in Forward, Reverse/Blocked, and Draining
            // flavors with non-trivial pipes and checksums.
            let open = FwdIn::idle(8)
                .with(0, Word::Data(0))
                .with(1, Word::Data(0))
                .with(2, Word::Data(0b0100_0000));
            live.tick(&open, &idle8());
            let follow = FwdIn::idle(8)
                .with(0, Word::Data(0x31))
                .with(1, Word::Turn)
                .with(2, Word::Data(0x17));
            live.tick(&follow, &idle8());

            let mut w = StateWriter::new();
            live.save_state(&mut w);
            let words = w.into_words();

            // A fresh router built identically, then restored.
            let mut resumed = router(dp);
            let mut r = StateReader::new(&words);
            resumed.restore_state(&mut r).unwrap();
            r.finish().unwrap();

            for cycle in 0..64u16 {
                let fwd = FwdIn::idle(8)
                    .with(0, Word::Data(cycle & 0xFF))
                    .with(2, Word::DataIdle);
                let bwd = idle8();
                assert_eq!(
                    live.tick(&fwd, &bwd),
                    resumed.tick(&fwd, &bwd),
                    "outputs diverged at post-restore cycle {cycle} (dp {dp})"
                );
            }
            assert_eq!(live.counters(), resumed.counters());
            assert_eq!(live.in_use_vector(), resumed.in_use_vector());
        }
    }

    /// A field that regrows a port fails here rather than drifting the
    /// machine's resident size: metro1k holds 12,288 ports.
    #[test]
    fn a_port_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Port>() <= 32);
        let r = router(1);
        assert!(r.pipes.is_empty(), "no pipe storage at dp = 1");
    }

    /// An 8×8 router — metro1k builds 1,536 — struct and heap: its
    /// ports, its allocator's owners and cursors, and nothing a tick
    /// grows. Pipes are one buffer, allocated at the first fill.
    #[test]
    fn an_8x8_router_holds_at_most_800_bytes() {
        let held = |r: &Router| {
            let ports = r.ports.capacity() * std::mem::size_of::<Port>();
            let pipes = r.pipes.len() * std::mem::size_of::<Word>();
            std::mem::size_of::<Router>() + ports + pipes + r.alloc.heap_bytes()
        };
        for dp in [1, 2] {
            let mut r = router(dp);
            let built = held(&r);
            let stream = [Word::Data(0), Word::Data(1), Word::Turn];
            drive(&mut r, &stream, 8, |_, _| idle8());
            let pipes = 16 * (dp - 1) * std::mem::size_of::<Word>();
            assert_eq!(held(&r), built + pipes, "dp {dp}: a tick grew the router");
            assert!(built <= 800, "an 8x8 router holds {built} bytes");
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_activity_bitplane() {
        use metro_telemetry::state::{State, StateReader, StateWriter};
        let mut r = router(1);
        r.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let mut w = StateWriter::new();
        r.save_state(&mut w);
        let mut words = w.into_words();
        // Word 0 is the section tag, word 1 the RNG state; the activity
        // bitplane sits after the allocator block. Flip a state
        // discriminant instead: corrupt the last checksum word's high
        // bits to verify *some* typed rejection fires.
        let last = words.len() - 1;
        words[last] = u64::MAX;
        let mut fresh = router(1);
        let mut rd = StateReader::new(&words);
        assert!(fresh.restore_state(&mut rd).is_err());
    }

    /// A backward port's owner is one of the router's forward ports: a
    /// saved owner of 999 is refused at its word, not restored into a
    /// router whose BCB teardown would then index past its ports.
    #[test]
    fn restore_refuses_an_owner_that_is_not_a_forward_port() {
        use metro_telemetry::state::{State, StateError, StateReader, StateWriter};
        let mut live = router(1);
        live.tick(&FwdIn::idle(8).with(0, Word::Data(0)), &idle8());
        let b = live.connected_backward_port(0).unwrap();
        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let mut words = w.into_words();
        // The tag, the random stream, the owner count; then per backward
        // port a presence word and, when present, the owner. Only port
        // `b` is owned, so each port before it is one word.
        let at = 3 + b + 1;
        assert_eq!(
            (words[at - 1], words[at]),
            (1, 0),
            "port {b} owned by port 0"
        );
        router(1)
            .restore_state(&mut StateReader::new(&words))
            .unwrap();
        words[at] = 999;
        match router(1).restore_state(&mut StateReader::new(&words)) {
            Err(StateError::BadValue {
                section,
                at: word,
                detail,
            }) => {
                assert_eq!((section.as_str(), word), ("router", at), "{detail}");
            }
            other => panic!("an owner of 999 restored: {other:?}"),
        }
    }
}

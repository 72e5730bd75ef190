//! The offered-traffic subsystem: destination patterns, arrival
//! processes, per-endpoint rate maps, seed derivation, and the
//! [`WorkloadDriver`] every engine draws its workload from.
//!
//! The paper evaluates METRO under "randomly distributed, 20-byte
//! message traffic" (Figure 3); multistage-network studies also lean on
//! adversarial workloads — hotspots, permutations, bursty sources.
//! Before this module existed, Bernoulli stream construction was
//! copy-pasted across four layers (the scenario runner, both experiment
//! sweeps, and the occupancy bench) with divergent seed constants, and
//! the analytic estimator had to replay those streams *exactly* — so
//! every new generator meant five coordinated edits or a silently
//! broken estimator. Now there is exactly one construction path:
//!
//! * [`StreamRecipe`] bundles everything needed to rebuild a workload's
//!   per-endpoint arrival sources bit-identically — process, rate map,
//!   pattern, load, stream length, and [`StreamSeeds`].
//! * The recipe's arrival bank holds every endpoint's source as
//!   parallel vectors; one kernel advances them all and writes one
//!   arrival bitmap row per cycle.
//! * [`StreamRecipe::driver`] yields the cycle engines' view: a
//!   [`WorkloadDriver`] polled once per cycle for [`Arrival`]s, each
//!   poll one row — built and polled by [`Run`](crate::scenario::Run),
//!   the one run loop.
//! * The analytic estimator's view: the same bank, drawn a block of
//!   rows at a time and read in cycle order.
//!
//! ## Arrival-process semantics
//!
//! * [`ArrivalProcess::Bernoulli`] — an independent coin per endpoint
//!   per cycle at `p = load / stream_words`; the memoryless source of
//!   every paper sweep.
//! * [`ArrivalProcess::OnOff`] — a two-state Markov-modulated source:
//!   geometric dwell in a burst state (arrivals at an elevated rate)
//!   and an idle state (no arrivals), calibrated so the *mean* rate
//!   still equals `load / stream_words`.
//! * [`ArrivalProcess::Trace`] — replay of a recorded
//!   `(cycle, src, dest, payload_words)` stream, for workloads no
//!   stochastic model reproduces.
//!
//! Destinations come from a [`TrafficPattern`]: Figure 3's uniform
//! traffic, or the standard multistage-network adversaries (hotspot,
//! transpose, bit-reversal, a fixed permutation).

use metro_core::RandomSource;
use std::array::{from_mut, from_ref};

/// Per-endpoint seed stride for load workloads: endpoint `e` of a run
/// seeded `s` draws arrivals from `s + e * 7919` (the 1000th prime).
/// Committed results replay byte-identically from this constant.
pub const LOAD_STREAM_STRIDE: u64 = 7919;

/// Per-endpoint seed stride for fault-sweep workloads (the 10000th
/// prime) — historically distinct from [`LOAD_STREAM_STRIDE`] so a
/// fault point and a load point at one master seed stay decorrelated.
pub const FAULT_STREAM_STRIDE: u64 = 104_729;

/// The salt XORed into a workload seed to derive the destination-
/// pattern stream (shared by all endpoints of a run).
pub const PATTERN_SALT: u64 = 0xABCD;

/// Derives the arrival-stream seed for one endpoint:
/// `base + endpoint * stride` (wrapping). This is the single derivation
/// site for every per-endpoint stream in the codebase; the per-site
/// constants
/// ([`LOAD_STREAM_STRIDE`], [`FAULT_STREAM_STRIDE`]) are pinned by
/// regression test so committed results keep replaying byte-for-byte.
#[must_use]
pub fn derive_stream_seed(base: u64, stride: u64, endpoint: usize) -> u64 {
    base.wrapping_add((endpoint as u64).wrapping_mul(stride))
}

/// The seed plan of one workload: where the destination-pattern stream
/// and each endpoint's arrival stream come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeeds {
    /// Seed of the shared destination-pattern stream.
    pub pattern_seed: u64,
    /// Base of the per-endpoint arrival streams.
    pub stream_base: u64,
    /// Per-endpoint stride added onto `stream_base`.
    pub stream_stride: u64,
}

impl StreamSeeds {
    /// The scenario/load-sweep plan: pattern from `seed ^`
    /// [`PATTERN_SALT`], arrival streams at [`LOAD_STREAM_STRIDE`].
    #[must_use]
    pub fn load(seed: u64) -> Self {
        Self {
            pattern_seed: seed ^ PATTERN_SALT,
            stream_base: seed,
            stream_stride: LOAD_STREAM_STRIDE,
        }
    }

    /// The fault-sweep plan: same pattern salt, arrival streams at
    /// [`FAULT_STREAM_STRIDE`].
    #[must_use]
    pub fn fault(seed: u64) -> Self {
        Self {
            pattern_seed: seed ^ PATTERN_SALT,
            stream_base: seed,
            stream_stride: FAULT_STREAM_STRIDE,
        }
    }

    /// The arrival-stream seed for one endpoint.
    #[must_use]
    pub fn stream_seed(&self, endpoint: usize) -> u64 {
        derive_stream_seed(self.stream_base, self.stream_stride, endpoint)
    }
}

/// How destinations are chosen for generated messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniformly random destinations (excluding self) — the Figure 3
    /// workload.
    Uniform,
    /// A fraction (percent) of traffic targets one hot endpoint; the
    /// rest is uniform.
    Hotspot {
        /// The hot destination.
        target: usize,
        /// Percent of messages aimed at it (0–100).
        percent: usize,
    },
    /// Destination = source with high and low halves of the index
    /// swapped (matrix transpose).
    Transpose,
    /// Destination = bit-reversed source index.
    BitReversal,
    /// A fixed permutation: destination = `perm[src]`.
    Permutation(Vec<usize>),
}

impl TrafficPattern {
    /// Validates the pattern against an endpoint count — rejecting the
    /// combinations whose [`Self::destination`] arithmetic would
    /// silently mis-map (transpose/bit-reversal on non-power-of-two
    /// counts) or address outside the topology.
    ///
    /// # Errors
    ///
    /// See [`WorkloadError`].
    pub fn validate(&self, endpoints: usize) -> Result<(), WorkloadError> {
        match self {
            Self::Uniform => Ok(()),
            Self::Hotspot { target, percent } => {
                if *target >= endpoints {
                    return Err(WorkloadError::HotspotTargetOutOfRange {
                        target: *target,
                        endpoints,
                    });
                }
                if *percent > 100 {
                    return Err(WorkloadError::HotspotPercent { percent: *percent });
                }
                Ok(())
            }
            Self::Transpose | Self::BitReversal => {
                if !endpoints.is_power_of_two() {
                    return Err(WorkloadError::NonPowerOfTwoEndpoints { endpoints });
                }
                Ok(())
            }
            Self::Permutation(p) => {
                if p.len() != endpoints {
                    return Err(WorkloadError::PermutationLength {
                        expected: endpoints,
                        got: p.len(),
                    });
                }
                for (src, &dest) in p.iter().enumerate() {
                    if dest >= endpoints {
                        return Err(WorkloadError::PermutationOutOfRange {
                            src,
                            dest,
                            endpoints,
                        });
                    }
                    if dest == src {
                        return Err(WorkloadError::PermutationSelfTarget { src });
                    }
                }
                Ok(())
            }
        }
    }

    /// Chooses a destination for a message from `src` among
    /// `endpoints`, using `rng` for the stochastic patterns.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints < 2` (no valid non-self destination) for
    /// the stochastic patterns.
    pub fn destination(&self, src: usize, endpoints: usize, rng: &mut RandomSource) -> usize {
        match self {
            Self::Uniform => {
                assert!(endpoints >= 2, "uniform traffic needs at least 2 endpoints");
                let mut d = rng.index(endpoints - 1);
                if d >= src {
                    d += 1;
                }
                d
            }
            Self::Hotspot { target, percent } => {
                if rng.index(100) < *percent && *target != src {
                    *target
                } else {
                    Self::Uniform.destination(src, endpoints, rng)
                }
            }
            Self::Transpose => {
                let bits = endpoints.trailing_zeros() as usize;
                let half = bits / 2;
                let low = src & ((1 << half) - 1);
                let high = src >> (bits - half);
                let mid = (src >> half) & ((1 << (bits - 2 * half)) - 1);
                (low << (bits - half)) | (mid << half) | high
            }
            Self::BitReversal => {
                let bits = endpoints.trailing_zeros() as usize;
                let mut v = src;
                let mut out = 0;
                for _ in 0..bits {
                    out = (out << 1) | (v & 1);
                    v >>= 1;
                }
                out
            }
            Self::Permutation(p) => p[src],
        }
    }
}

/// One recorded message of a [`ArrivalProcess::Trace`] workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle at which the message is requested at the source NIC.
    pub at: u64,
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dest: usize,
    /// Payload words carried.
    pub payload_words: usize,
}

/// How message arrivals are generated at each endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Independent per-cycle coin at `p = load / stream_words` — the
    /// memoryless source of the paper's sweeps.
    Bernoulli,
    /// Two-state bursty source: geometric dwells of the given mean
    /// lengths, arrivals only while bursting, mean rate calibrated to
    /// the workload's `load`.
    OnOff {
        /// Mean cycles per burst (ON dwell), ≥ 1.
        burst_mean: u64,
        /// Mean cycles per idle gap (OFF dwell), ≥ 1.
        idle_mean: u64,
    },
    /// Replay of a recorded arrival stream; the workload's `pattern`,
    /// `load`, and rate map are ignored — the trace *is* the traffic.
    Trace(Vec<TraceEntry>),
}

impl ArrivalProcess {
    /// Peak-to-mean arrival-rate ratio: 1.0 for the memoryless and
    /// replayed processes, `(burst + idle) / burst` for the bursty one
    /// (while ON, the source runs that much hotter than its mean).
    /// Feeds the analytic estimator's burstiness cluster bucket.
    #[must_use]
    pub fn burstiness(&self) -> f64 {
        match self {
            Self::Bernoulli | Self::Trace(_) => 1.0,
            Self::OnOff {
                burst_mean,
                idle_mean,
            } => {
                let burst = (*burst_mean).max(1) as f64;
                (burst + *idle_mean as f64) / burst
            }
        }
    }

    /// Validates the process against an endpoint count.
    ///
    /// # Errors
    ///
    /// Zero dwell means for `OnOff`; out-of-range or self-targeting
    /// entries for `Trace`.
    pub fn validate(&self, endpoints: usize) -> Result<(), WorkloadError> {
        match self {
            Self::Bernoulli => Ok(()),
            Self::OnOff {
                burst_mean,
                idle_mean,
            } => {
                if *burst_mean == 0 || *idle_mean == 0 {
                    return Err(WorkloadError::OnOffDwell {
                        burst_mean: *burst_mean,
                        idle_mean: *idle_mean,
                    });
                }
                Ok(())
            }
            Self::Trace(entries) => {
                for (index, e) in entries.iter().enumerate() {
                    if e.src >= endpoints || e.dest >= endpoints {
                        return Err(WorkloadError::TraceEndpoint {
                            index,
                            src: e.src,
                            dest: e.dest,
                            endpoints,
                        });
                    }
                    if e.src == e.dest {
                        return Err(WorkloadError::TraceSelfTarget { index, src: e.src });
                    }
                }
                Ok(())
            }
        }
    }
}

/// Per-endpoint offered-load multipliers — geo-style `vtd` skew, so
/// endpoints need not share one rate.
#[derive(Debug, Clone, PartialEq)]
pub enum RateMap {
    /// Every endpoint offers the workload's `load` unchanged.
    Uniform,
    /// Endpoint `e` offers `load * rates[e]`; the vector length must
    /// equal the endpoint count.
    PerEndpoint(Vec<f64>),
}

impl RateMap {
    /// The multiplier for one endpoint.
    #[must_use]
    pub fn rate(&self, endpoint: usize) -> f64 {
        match self {
            Self::Uniform => 1.0,
            Self::PerEndpoint(v) => v[endpoint],
        }
    }

    /// Validates the map against an endpoint count.
    ///
    /// # Errors
    ///
    /// Length mismatch, or a non-finite / negative multiplier.
    pub fn validate(&self, endpoints: usize) -> Result<(), WorkloadError> {
        if let Self::PerEndpoint(v) = self {
            if v.len() != endpoints {
                return Err(WorkloadError::RateCount {
                    expected: endpoints,
                    got: v.len(),
                });
            }
            for (endpoint, &rate) in v.iter().enumerate() {
                if !rate.is_finite() || rate < 0.0 {
                    return Err(WorkloadError::RateValue { endpoint, rate });
                }
            }
        }
        Ok(())
    }
}

/// A workload that cannot be constructed: the typed rejection
/// [`Scenario::lower`](crate::scenario::Scenario::lower) raises instead
/// of silently mis-mapping traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Transpose/bit-reversal index arithmetic only permutes correctly
    /// when the endpoint count is a power of two.
    NonPowerOfTwoEndpoints {
        /// The offending endpoint count.
        endpoints: usize,
    },
    /// A hotspot aimed outside the topology.
    HotspotTargetOutOfRange {
        /// The configured hot destination.
        target: usize,
        /// Endpoints in the topology.
        endpoints: usize,
    },
    /// A hotspot share above 100 percent.
    HotspotPercent {
        /// The configured share.
        percent: usize,
    },
    /// A permutation vector of the wrong length.
    PermutationLength {
        /// Endpoints in the topology.
        expected: usize,
        /// Entries in the vector.
        got: usize,
    },
    /// A permutation entry naming a destination outside the topology.
    PermutationOutOfRange {
        /// The offending source index.
        src: usize,
        /// Its mapped destination.
        dest: usize,
        /// Endpoints in the topology.
        endpoints: usize,
    },
    /// A permutation entry mapping a source to itself — the NIC
    /// protocol has no self-delivery path.
    PermutationSelfTarget {
        /// The self-mapping source index.
        src: usize,
    },
    /// A per-endpoint rate map of the wrong length.
    RateCount {
        /// Endpoints in the topology.
        expected: usize,
        /// Entries in the map.
        got: usize,
    },
    /// A non-finite or negative rate multiplier.
    RateValue {
        /// The offending endpoint.
        endpoint: usize,
        /// The offending multiplier.
        rate: f64,
    },
    /// An `OnOff` process with a zero mean dwell.
    OnOffDwell {
        /// Configured mean burst length.
        burst_mean: u64,
        /// Configured mean idle length.
        idle_mean: u64,
    },
    /// A trace entry naming an endpoint outside the topology.
    TraceEndpoint {
        /// Index of the offending entry.
        index: usize,
        /// Its source endpoint.
        src: usize,
        /// Its destination endpoint.
        dest: usize,
        /// Endpoints in the topology.
        endpoints: usize,
    },
    /// A trace entry sending a message to its own source.
    TraceSelfTarget {
        /// Index of the offending entry.
        index: usize,
        /// The self-targeting endpoint.
        src: usize,
    },
    /// A non-finite or negative offered load.
    LoadValue {
        /// The offending load.
        load: f64,
    },
    /// A load workload measuring no cycles: its rates would be 0/0.
    EmptyMeasureWindow,
    /// A message stream longer than the measurement window: it cannot
    /// be delivered inside it.
    StreamPastMeasure {
        /// Words on the wire for one message.
        stream_words: usize,
        /// Measured cycles.
        measure: u64,
    },
    /// A scripted send naming an endpoint outside the topology.
    SendEndpoint {
        /// Its source endpoint.
        src: usize,
        /// Its destination endpoint.
        dest: usize,
        /// Endpoints in the topology.
        endpoints: usize,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPowerOfTwoEndpoints { endpoints } => write!(
                f,
                "transpose/bit-reversal patterns need a power-of-two endpoint count, got {endpoints}"
            ),
            Self::HotspotTargetOutOfRange { target, endpoints } => {
                write!(f, "hotspot target {target} outside 0..{endpoints}")
            }
            Self::HotspotPercent { percent } => {
                write!(f, "hotspot percent {percent} outside 0..=100")
            }
            Self::PermutationLength { expected, got } => {
                write!(f, "permutation has {got} entries for {expected} endpoints")
            }
            Self::PermutationOutOfRange {
                src,
                dest,
                endpoints,
            } => write!(
                f,
                "permutation maps {src} -> {dest} outside 0..{endpoints}"
            ),
            Self::PermutationSelfTarget { src } => {
                write!(f, "permutation maps {src} to itself")
            }
            Self::RateCount { expected, got } => {
                write!(f, "rate map has {got} entries for {expected} endpoints")
            }
            Self::RateValue { endpoint, rate } => {
                write!(
                    f,
                    "rate map entry {endpoint} is {rate} (must be finite and >= 0)"
                )
            }
            Self::OnOffDwell {
                burst_mean,
                idle_mean,
            } => write!(
                f,
                "on/off dwell means must be >= 1 (burst {burst_mean}, idle {idle_mean})"
            ),
            Self::TraceEndpoint {
                index,
                src,
                dest,
                endpoints,
            } => write!(
                f,
                "trace entry {index} names endpoint {src} -> {dest} outside 0..{endpoints}"
            ),
            Self::TraceSelfTarget { index, src } => {
                write!(f, "trace entry {index} sends endpoint {src} to itself")
            }
            Self::LoadValue { load } => {
                write!(f, "offered load {load} (must be finite and >= 0)")
            }
            Self::EmptyMeasureWindow => write!(f, "the measurement window must be at least 1 cycle"),
            Self::StreamPastMeasure {
                stream_words,
                measure,
            } => write!(
                f,
                "a {stream_words}-word message stream outlasts the {measure}-cycle measurement window"
            ),
            Self::SendEndpoint {
                src,
                dest,
                endpoints,
            } => write!(f, "send names endpoint {src} -> {dest} outside 0..{endpoints}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The arrival threshold of a per-cycle probability `p`: a 32-bit draw
/// below it arrives.
fn threshold(p: f64) -> u64 {
    (p * (u32::MAX as f64 + 1.0)) as u64
}

/// Sources the kernel steps abreast. One source's draws are a serial
/// xorshift dependency chain (~7 cycles of pure latency per draw), but
/// the sources are mutually independent, so stepping several per loop
/// iteration lets the CPU overlap their chains.
const LANES: usize = 4;

/// Every open-loop arrival source of one workload, as parallel vectors:
/// source `e`'s stream, its arrival threshold and whether it is ON.
///
/// Offered load is a fraction of a source's injection capacity: at load
/// 1.0 it would stream messages back to back, so with `stream_words`
/// words per message (header + payload + checksum + TURN) a Bernoulli
/// source arrives with probability `load / stream_words` per cycle, one
/// `bits(32)` draw a cycle, and is ON for ever. An on/off source
/// dwells geometrically in ON (arrivals at the mean rate over the duty
/// cycle, capped at 1) and OFF (silence), so its long-run mean equals
/// the Bernoulli rate at the same load. It draws an arrival word, then
/// a dwell word, every cycle in both states, so a source's stream
/// position is a pure function of its cycle count.
#[derive(Debug)]
pub(crate) struct ArrivalBank {
    rngs: Vec<RandomSource>,
    /// A draw below a source's threshold arrives while it is ON.
    thresholds: Vec<u64>,
    on: Vec<bool>,
    /// The on/off exit thresholds `(out of ON, out of OFF)`; `None` for
    /// Bernoulli sources, which draw no dwell word.
    dwell: Option<(u64, u64)>,
}

impl ArrivalBank {
    /// Words in one arrival row: a bit per source.
    pub(crate) fn row_words(&self) -> usize {
        self.rngs.len().div_ceil(64)
    }

    /// Advances every source one cycle per row of `rows` (each
    /// [`Self::row_words`] long), setting bit `e % 64` of word `e / 64`
    /// of a cycle's row when source `e` arrives in it.
    pub(crate) fn draw(&mut self, rows: &mut [u64]) {
        rows.fill(0);
        let words = self.row_words();
        let ArrivalBank {
            rngs,
            thresholds,
            on,
            dwell,
        } = self;
        let (rngs, rngs_tail) = rngs.as_chunks_mut::<LANES>();
        let (thresholds, thresholds_tail) = thresholds.as_chunks::<LANES>();
        let (on, on_tail) = on.as_chunks_mut::<LANES>();
        let sources = rngs.iter_mut().zip(thresholds).zip(on);
        for (group, ((rng, threshold), on)) in sources.enumerate() {
            lanes(rng, threshold, on, *dwell, group * LANES, rows, words);
        }
        let bulk = rngs.len() * LANES;
        let tail = rngs_tail.iter_mut().zip(thresholds_tail).zip(on_tail);
        for (j, ((rng, threshold), on)) in tail.enumerate() {
            let (rng, threshold, on) = (from_mut(rng), from_ref(threshold), from_mut(on));
            lanes(rng, threshold, on, *dwell, bulk + j, rows, words);
        }
    }
}

/// [`ArrivalBank::draw`] for the `L` sources from `first` on, which
/// share one row word.
#[inline]
fn lanes<const L: usize>(
    rngs: &mut [RandomSource; L],
    thresholds: &[u64; L],
    on: &mut [bool; L],
    dwell: Option<(u64, u64)>,
    first: usize,
    rows: &mut [u64],
    words: usize,
) {
    let shift = first % 64;
    let slots = rows.iter_mut().skip(first / 64).step_by(words);
    match dwell {
        None => {
            for slot in slots {
                let mut bits = 0;
                for (j, (rng, threshold)) in rngs.iter_mut().zip(thresholds).enumerate() {
                    bits |= u64::from(rng.bits(32) < *threshold) << j;
                }
                *slot |= bits << shift;
            }
        }
        Some((exit_on, exit_off)) => {
            for slot in slots {
                let mut bits = 0;
                let sources = rngs.iter_mut().zip(thresholds).zip(on.iter_mut());
                for (j, ((rng, threshold), on)) in sources.enumerate() {
                    let arrival = rng.bits(32);
                    let dwell = rng.bits(32);
                    bits |= u64::from(*on && arrival < *threshold) << j;
                    *on ^= dwell < if *on { exit_on } else { exit_off };
                }
                *slot |= bits << shift;
            }
        }
    }
}

/// Calls `f` with each source set in `row`, ascending.
pub(crate) fn each_arrival(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

// Per source, as one source wrote itself: its process kind (0
// Bernoulli, 1 on/off, which must match the scenario's), its stream
// position and, if on/off, its dwell state. Thresholds are rebuilt from
// the scenario.
metro_telemetry::state_walk! {
    impl State for ArrivalBank => |this, s| {
        let ArrivalBank { rngs, on, dwell, .. } = this;
        let bursty = dwell.is_some();
        let held = u64::from(bursty);
        s.lane(rngs.into_iter().zip(on), "arrival sources", |s, (rng, on)| {
            let mut kind = held;
            s.u64(&mut kind)?;
            s.check(
                || kind == held,
                format_args!("saved arrival process {kind} does not match the scenario's"),
            )?;
            s.state(rng)?;
            if bursty {
                s.bool(on)?;
            }
            Ok(())
        })
    }
}

/// One message the workload offers this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dest: usize,
    /// Payload words to send.
    pub payload_words: usize,
}

/// Everything needed to rebuild one workload's arrival streams
/// bit-identically — the single construction recipe shared by the
/// cycle engines ([`Self::driver`]) and the analytic estimator, which
/// draws the same arrival bank.
#[derive(Debug, Clone)]
pub struct StreamRecipe<'a> {
    /// The arrival process.
    pub arrival: &'a ArrivalProcess,
    /// Per-endpoint rate multipliers.
    pub rates: &'a RateMap,
    /// Destination pattern (ignored by `Trace`).
    pub pattern: &'a TrafficPattern,
    /// Mean offered load (fraction of injection capacity).
    pub load: f64,
    /// Words per message stream (header + payload + checksum + TURN).
    pub stream_words: usize,
    /// Payload words per generated message (ignored by `Trace`).
    pub payload_words: usize,
    /// Endpoints in the topology.
    pub endpoints: usize,
    /// The seed plan.
    pub seeds: StreamSeeds,
}

impl StreamRecipe<'_> {
    /// Every endpoint's arrival source, seeded from the recipe's plan,
    /// all ON. Open-loop processes only — `Trace` has no stochastic
    /// source.
    pub(crate) fn bank(&self) -> ArrivalBank {
        // The duty cycle of the ON state boosts an on/off source's ON
        // rate; a Bernoulli source is ON at duty 1.
        let (duty, dwell) = match self.arrival {
            ArrivalProcess::OnOff {
                burst_mean,
                idle_mean,
            } => {
                let burst = (*burst_mean).max(1) as f64;
                let idle = (*idle_mean).max(1) as f64;
                let exits = (threshold(1.0 / burst), threshold(1.0 / idle));
                (Some(burst / (burst + idle)), Some(exits))
            }
            _ => (None, None),
        };
        let thresholds = (0..self.endpoints)
            .map(|e| {
                let load = self.load * self.rates.rate(e);
                let p = (load / self.stream_words.max(1) as f64).clamp(0.0, 1.0);
                threshold(duty.map_or(p, |duty| (p / duty).clamp(0.0, 1.0)))
            })
            .collect();
        ArrivalBank {
            rngs: (0..self.endpoints)
                .map(|e| RandomSource::new(self.seeds.stream_seed(e)))
                .collect(),
            thresholds,
            on: vec![true; self.endpoints],
            dwell,
        }
    }

    /// The cycle engines' view: a driver polled once per cycle.
    #[must_use]
    pub fn driver(&self) -> WorkloadDriver {
        if let ArrivalProcess::Trace(entries) = self.arrival {
            return WorkloadDriver::replay(entries);
        }
        let bank = self.bank();
        WorkloadDriver {
            kind: DriverKind::Open {
                pattern: self.pattern.clone(),
                pattern_rng: RandomSource::new(self.seeds.pattern_seed),
                row: vec![0; bank.row_words()],
                bank,
                payload_words: self.payload_words,
                endpoints: self.endpoints,
            },
        }
    }
}

/// A trace's entries in replay order: by cycle, same-cycle entries in
/// recorded order.
pub(crate) fn trace_order(entries: &[TraceEntry]) -> Vec<TraceEntry> {
    let mut entries = entries.to_vec();
    entries.sort_by_key(|e| e.at);
    entries
}

#[derive(Debug)]
enum DriverKind {
    /// Open-loop stochastic arrivals: the sources, one row of their
    /// arrivals, and the shared destination-pattern stream.
    Open {
        pattern: TrafficPattern,
        pattern_rng: RandomSource,
        bank: ArrivalBank,
        row: Vec<u64>,
        payload_words: usize,
        endpoints: usize,
    },
    /// Trace replay: entries in [`trace_order`].
    Replay {
        entries: Vec<TraceEntry>,
        cursor: usize,
    },
}

/// The per-cycle arrival feed of a running workload. Built from a
/// [`StreamRecipe`]; polled once per cycle, in cycle order, by every
/// cycle engine's run loop.
#[derive(Debug)]
pub struct WorkloadDriver {
    kind: DriverKind,
}

impl WorkloadDriver {
    /// A driver replaying a recorded arrival stream.
    #[must_use]
    pub fn replay(entries: &[TraceEntry]) -> Self {
        Self {
            kind: DriverKind::Replay {
                entries: trace_order(entries),
                cursor: 0,
            },
        }
    }

    /// Yields every arrival due at `cycle`, in endpoint order (open
    /// loop) or recorded order (trace). Must be called with
    /// monotonically non-decreasing cycles. Each call advances every
    /// open-loop source exactly one cycle — one draw for a Bernoulli
    /// source, two for an on/off one — and draws one destination per
    /// arrival, so nothing is drawn ahead of the cycle and a driver poll
    /// is bit-identical to the historical inline loops.
    pub fn poll(&mut self, cycle: u64, mut deliver: impl FnMut(Arrival)) {
        match &mut self.kind {
            DriverKind::Open {
                pattern,
                pattern_rng,
                bank,
                row,
                payload_words,
                endpoints,
            } => {
                bank.draw(row);
                each_arrival(row, |src| {
                    deliver(Arrival {
                        src,
                        dest: pattern.destination(src, *endpoints, pattern_rng),
                        payload_words: *payload_words,
                    });
                });
            }
            DriverKind::Replay { entries, cursor } => {
                while let Some(e) = entries.get(*cursor) {
                    if e.at > cycle {
                        break;
                    }
                    deliver(Arrival {
                        src: e.src,
                        dest: e.dest,
                        payload_words: e.payload_words,
                    });
                    *cursor += 1;
                }
            }
        }
    }
}

// The driver's stream position: the pattern RNG and the sources'
// positions (open loop) or the replay cursor (trace), into a driver
// rebuilt from the same recipe. Everything else — thresholds, the
// pattern, the trace entries — is rebuilt from the scenario's recipe.
metro_telemetry::state_walk! {
    impl State for WorkloadDriver => |this, s| {
        let WorkloadDriver { kind } = this;
        let held = match kind {
            DriverKind::Open { .. } => 0,
            DriverKind::Replay { .. } => 1,
        };
        let mut saved = held;
        s.section("workload")?;
        s.u64(&mut saved)?;
        s.check(
            || saved == held,
            format_args!("saved driver kind {saved} does not match the scenario's workload"),
        )?;
        match kind {
            DriverKind::Open { pattern_rng, bank, .. } => {
                s.state(pattern_rng)?;
                s.state(bank)
            }
            // One past the last entry is a finished replay.
            DriverKind::Replay { entries, cursor } => {
                s.index(cursor, entries.len() + 1, "replay cursor")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_telemetry::{State, StateReader, StateWriter};

    /// Whether endpoint 0 of a two-endpoint driver offers a message,
    /// cycle by cycle: its stream seeded `seed`, its messages 25 words.
    fn endpoint_0_arrivals(
        arrival: &ArrivalProcess,
        load: f64,
        seed: u64,
        cycles: u64,
    ) -> Vec<bool> {
        let pattern = TrafficPattern::Uniform;
        let recipe = StreamRecipe {
            arrival,
            rates: &RateMap::Uniform,
            pattern: &pattern,
            load,
            stream_words: 25,
            payload_words: 4,
            endpoints: 2,
            seeds: StreamSeeds {
                pattern_seed: seed,
                stream_base: seed,
                stream_stride: 1,
            },
        };
        let mut driver = recipe.driver();
        (0..cycles)
            .map(|cycle| {
                let mut arrived = false;
                driver.poll(cycle, |a| arrived |= a.src == 0);
                arrived
            })
            .collect()
    }

    fn count(arrivals: &[bool]) -> usize {
        arrivals.iter().filter(|&&a| a).count()
    }

    #[test]
    fn bernoulli_rate_is_calibrated() {
        let arrivals = count(&endpoint_0_arrivals(
            &ArrivalProcess::Bernoulli,
            0.5,
            7,
            100_000,
        ));
        // Expected p = 0.02 -> ~2000 arrivals.
        assert!((1700..2300).contains(&arrivals), "got {arrivals}");
    }

    #[test]
    fn zero_load_never_arrives() {
        assert_eq!(
            count(&endpoint_0_arrivals(
                &ArrivalProcess::Bernoulli,
                0.0,
                7,
                10_000
            )),
            0
        );
    }

    #[test]
    fn stream_seed_constants_are_pinned() {
        // Committed results replay from these exact constants; changing
        // either rewrites every recorded arrival stream.
        assert_eq!(LOAD_STREAM_STRIDE, 7919);
        assert_eq!(FAULT_STREAM_STRIDE, 104_729);
        assert_eq!(PATTERN_SALT, 0xABCD);
        assert_eq!(
            derive_stream_seed(0x5EED, LOAD_STREAM_STRIDE, 3),
            0x5EED + 3 * 7919
        );
        assert_eq!(
            derive_stream_seed(0x5EED, FAULT_STREAM_STRIDE, 5),
            0x5EED + 5 * 104_729
        );
        // Wrapping, not panicking, at the top of the seed space.
        let _ = derive_stream_seed(u64::MAX, FAULT_STREAM_STRIDE, usize::MAX);
        let seeds = StreamSeeds::load(0xF163);
        assert_eq!(seeds.pattern_seed, 0xF163 ^ 0xABCD);
        assert_eq!(seeds.stream_seed(2), 0xF163 + 2 * 7919);
        assert_eq!(
            StreamSeeds::fault(0xF163).stream_seed(2),
            0xF163 + 2 * 104_729
        );
    }

    #[test]
    fn on_off_mean_rate_matches_bernoulli_mean() {
        // The bursty source must offer the same long-run rate as a
        // Bernoulli source at the same load — bursts concentrate, not
        // inflate, the traffic.
        let cycles = 400_000;
        let bursty = ArrivalProcess::OnOff {
            burst_mean: 40,
            idle_mean: 60,
        };
        let got = count(&endpoint_0_arrivals(&bursty, 0.4, 11, cycles)) as f64;
        let expected = 0.4 / 25.0 * cycles as f64;
        assert!(
            (got - expected).abs() / expected < 0.15,
            "bursty mean rate {got} vs expected {expected}"
        );
    }

    #[test]
    fn on_off_concentrates_arrivals() {
        // Windowed arrival counts must be burstier than Bernoulli's:
        // compare the variance-to-mean ratio (index of dispersion) of
        // 100-cycle window counts.
        fn dispersion(arrivals: &[bool]) -> f64 {
            let counts: Vec<usize> = arrivals.chunks(100).map(count).collect();
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var / mean
        }
        let cycles = 2_000 * 100;
        let b = endpoint_0_arrivals(&ArrivalProcess::Bernoulli, 0.5, 3, cycles);
        let bursty = ArrivalProcess::OnOff {
            burst_mean: 50,
            idle_mean: 150,
        };
        let o = endpoint_0_arrivals(&bursty, 0.5, 3, cycles);
        assert!(
            dispersion(&o) > 2.0 * dispersion(&b),
            "on/off dispersion {} must exceed bernoulli {}",
            dispersion(&o),
            dispersion(&b)
        );
    }

    #[test]
    fn burstiness_is_peak_to_mean() {
        assert_eq!(ArrivalProcess::Bernoulli.burstiness(), 1.0);
        assert_eq!(ArrivalProcess::Trace(Vec::new()).burstiness(), 1.0);
        let p = ArrivalProcess::OnOff {
            burst_mean: 50,
            idle_mean: 150,
        };
        assert_eq!(p.burstiness(), 4.0);
    }

    #[test]
    fn driver_poll_matches_the_historical_inline_loop() {
        // The open-loop driver must reproduce the exact pre-refactor
        // loop: endpoint e's stream at seed + e * 7919 arriving when a
        // 32-bit draw falls below the load's threshold, the shared
        // pattern stream at seed ^ 0xABCD, endpoint-order draws. 70
        // endpoints fill two row words and leave a partial lane group.
        let (seed, stream_words, load) = (0x5EED_u64, 25_usize, 0.6_f64);
        let pattern = TrafficPattern::Uniform;
        for n in [8_usize, 70] {
            let recipe = StreamRecipe {
                arrival: &ArrivalProcess::Bernoulli,
                rates: &RateMap::Uniform,
                pattern: &pattern,
                load,
                stream_words,
                payload_words: 4,
                endpoints: n,
                seeds: StreamSeeds::load(seed),
            };
            let mut driver = recipe.driver();
            let mut got = Vec::new();
            for cycle in 0..500u64 {
                driver.poll(cycle, |a| got.push((cycle, a.src, a.dest)));
            }

            let threshold = (load / stream_words as f64 * (u32::MAX as f64 + 1.0)) as u64;
            let mut pattern_rng = RandomSource::new(seed ^ 0xABCD);
            let mut streams: Vec<RandomSource> = (0..n)
                .map(|e| RandomSource::new(seed.wrapping_add(e as u64 * 7919)))
                .collect();
            let mut expect = Vec::new();
            for cycle in 0..500u64 {
                for (e, stream) in streams.iter_mut().enumerate() {
                    if stream.bits(32) < threshold {
                        let dest = pattern.destination(e, n, &mut pattern_rng);
                        expect.push((cycle, e, dest));
                    }
                }
            }
            assert!(!expect.is_empty());
            assert_eq!(got, expect, "driver diverged from the historical loop");
        }
    }

    #[test]
    fn rate_map_scales_per_endpoint_rates() {
        let rates = RateMap::PerEndpoint(vec![2.0, 0.0]);
        let pattern = TrafficPattern::Uniform;
        let recipe = StreamRecipe {
            arrival: &ArrivalProcess::Bernoulli,
            rates: &rates,
            pattern: &pattern,
            load: 0.4,
            stream_words: 25,
            payload_words: 4,
            endpoints: 2,
            seeds: StreamSeeds::load(0x11),
        };
        let mut driver = recipe.driver();
        let mut counts = [0usize; 2];
        for cycle in 0..20_000 {
            driver.poll(cycle, |a| counts[a.src] += 1);
        }
        assert!(counts[0] > 400, "hot endpoint starved: {counts:?}");
        assert_eq!(counts[1], 0, "zero-rate endpoint must stay silent");
    }

    #[test]
    fn validation_rejects_malformed_workload_parts() {
        assert!(ArrivalProcess::Bernoulli.validate(8).is_ok());
        assert_eq!(
            ArrivalProcess::OnOff {
                burst_mean: 0,
                idle_mean: 5
            }
            .validate(8),
            Err(WorkloadError::OnOffDwell {
                burst_mean: 0,
                idle_mean: 5
            })
        );
        let oob = ArrivalProcess::Trace(vec![TraceEntry {
            at: 0,
            src: 9,
            dest: 1,
            payload_words: 1,
        }]);
        assert!(matches!(
            oob.validate(8),
            Err(WorkloadError::TraceEndpoint { index: 0, .. })
        ));
        let selfie = ArrivalProcess::Trace(vec![TraceEntry {
            at: 0,
            src: 3,
            dest: 3,
            payload_words: 1,
        }]);
        assert_eq!(
            selfie.validate(8),
            Err(WorkloadError::TraceSelfTarget { index: 0, src: 3 })
        );
        assert!(RateMap::Uniform.validate(8).is_ok());
        assert_eq!(
            RateMap::PerEndpoint(vec![1.0; 3]).validate(8),
            Err(WorkloadError::RateCount {
                expected: 8,
                got: 3
            })
        );
        assert!(matches!(
            RateMap::PerEndpoint(vec![1.0, f64::NAN]).validate(2),
            Err(WorkloadError::RateValue { endpoint: 1, .. })
        ));
    }

    /// The eight-endpoint recipe the checkpoint tests drive.
    fn ckpt_recipe<'a>(
        arrival: &'a ArrivalProcess,
        pattern: &'a TrafficPattern,
    ) -> StreamRecipe<'a> {
        StreamRecipe {
            arrival,
            rates: &RateMap::Uniform,
            pattern,
            load: 0.6,
            stream_words: 25,
            payload_words: 4,
            endpoints: 8,
            seeds: StreamSeeds::load(0x1CE),
        }
    }

    /// A driver's state words.
    fn saved_words(driver: &WorkloadDriver) -> Vec<u64> {
        let mut w = StateWriter::new();
        driver.save_state(&mut w);
        w.into_words()
    }

    #[test]
    fn driver_save_restore_resumes_every_process_exactly() {
        // A run polls its driver for the driven window only; a
        // checkpoint in the drain holds the driver as the window left it.
        const DRIVEN: u64 = 600;
        let trace = ArrivalProcess::Trace(vec![
            TraceEntry {
                at: 100,
                src: 0,
                dest: 1,
                payload_words: 2,
            },
            TraceEntry {
                at: 400,
                src: 2,
                dest: 3,
                payload_words: 2,
            },
        ]);
        let pattern = TrafficPattern::Uniform;
        for arrival in [
            ArrivalProcess::Bernoulli,
            ArrivalProcess::OnOff {
                burst_mean: 20,
                idle_mean: 30,
            },
            trace,
        ] {
            let recipe = ckpt_recipe(&arrival, &pattern);
            for at in [0, 1, 63, 64, 65, 300, DRIVEN + 1] {
                // One driver runs straight through; a twin is rebuilt
                // from the recipe at cycle `at` and restored from a
                // checkpoint of the first.
                let mut straight = recipe.driver();
                for cycle in 0..at.min(DRIVEN) {
                    straight.poll(cycle, |_| {});
                }
                let words = saved_words(&straight);
                let mut resumed = recipe.driver();
                let mut r = StateReader::new(&words);
                resumed.restore_state(&mut r).expect("restore");
                r.finish().expect("no trailing state");
                for cycle in at.min(DRIVEN)..DRIVEN + 300 {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    straight.poll(cycle, |x| a.push(x));
                    resumed.poll(cycle, |x| b.push(x));
                    assert_eq!(a, b, "cycle {cycle} resumed at {at} under {arrival:?}");
                }
            }
        }
    }

    #[test]
    fn driver_checkpoint_words_are_pinned() {
        // The exact `workload` section the enum-per-source driver wrote
        // at cycle 300: the tag, the driver kind, the pattern stream,
        // the source count, then per source its process kind, its
        // stream and (on/off) whether it is ON. The committed checkpoint
        // fixtures are scripted workloads, so nothing else pins these.
        let pattern = TrafficPattern::Uniform;
        let bursty = ArrivalProcess::OnOff {
            burst_mean: 20,
            idle_mean: 30,
        };
        let pinned: [(&ArrivalProcess, &[u64]); 2] = [
            (
                &ArrivalProcess::Bernoulli,
                &[
                    0x6461_6f6c_6b72_6f77,
                    0x0,
                    0x3aba_0604_aa01_497c,
                    0x8,
                    0x0,
                    0x9181_02f1_db95_0a11,
                    0x0,
                    0xe32f_b13e_67dc_4b26,
                    0x0,
                    0x7751_25cb_21cb_6043,
                    0x0,
                    0xfdba_dc9c_0e3a_210f,
                    0x0,
                    0xe387_ba2a_d210_b110,
                    0x0,
                    0x86a0_f9c7_4dba_3ef8,
                    0x0,
                    0xed88_074b_b498_0f24,
                    0x0,
                    0x0cdd_0460_61c3_5d99,
                ],
            ),
            (
                &bursty,
                &[
                    0x6461_6f6c_6b72_6f77,
                    0x0,
                    0x5852_d2e1_13c6_9317,
                    0x8,
                    0x1,
                    0x7181_c636_b81d_1e4b,
                    0x0,
                    0x1,
                    0xe591_4126_9771_41b9,
                    0x1,
                    0x1,
                    0xa413_3a9b_aebb_0673,
                    0x1,
                    0x1,
                    0x51b8_808e_3cd8_0f78,
                    0x1,
                    0x1,
                    0x8d96_f0f5_19ab_e401,
                    0x0,
                    0x1,
                    0xdc4f_7c49_3c98_1225,
                    0x1,
                    0x1,
                    0x4ada_3497_0417_9805,
                    0x0,
                    0x1,
                    0x9f65_8276_14bb_5ec1,
                    0x0,
                ],
            ),
        ];
        for (arrival, words) in pinned {
            let mut driver = ckpt_recipe(arrival, &pattern).driver();
            for cycle in 0..300 {
                driver.poll(cycle, |_| {});
            }
            assert_eq!(saved_words(&driver), words, "{arrival:?}");
        }
    }

    #[test]
    fn trace_driver_replays_in_recorded_order() {
        let entries = vec![
            TraceEntry {
                at: 5,
                src: 1,
                dest: 0,
                payload_words: 3,
            },
            TraceEntry {
                at: 5,
                src: 0,
                dest: 1,
                payload_words: 2,
            },
            TraceEntry {
                at: 1,
                src: 2,
                dest: 3,
                payload_words: 1,
            },
        ];
        let mut driver = WorkloadDriver::replay(&entries);
        let mut got = Vec::new();
        for cycle in 0..10u64 {
            driver.poll(cycle, |a| got.push((cycle, a.src, a.dest, a.payload_words)));
        }
        // Sorted by cycle; the two cycle-5 entries keep recorded order.
        assert_eq!(got, vec![(1, 2, 3, 1), (5, 1, 0, 3), (5, 0, 1, 2)]);
    }

    #[test]
    fn uniform_never_self_targets_and_covers_all() {
        let mut rng = RandomSource::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = TrafficPattern::Uniform.destination(5, 16, &mut rng);
            assert_ne!(d, 5);
            assert!(d < 16);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn hotspot_concentrates() {
        let mut rng = RandomSource::new(2);
        let pattern = TrafficPattern::Hotspot {
            target: 3,
            percent: 50,
        };
        let hits = (0..4000)
            .filter(|_| pattern.destination(9, 16, &mut rng) == 3)
            .count();
        assert!(hits > 1600 && hits < 2400, "got {hits} / 4000");
    }

    #[test]
    fn transpose_is_an_involution_for_even_bits() {
        let mut rng = RandomSource::new(0);
        for src in 0..16 {
            let d = TrafficPattern::Transpose.destination(src, 16, &mut rng);
            let back = TrafficPattern::Transpose.destination(d, 16, &mut rng);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn bit_reversal_matches_manual() {
        let mut rng = RandomSource::new(0);
        assert_eq!(
            TrafficPattern::BitReversal.destination(0b0001, 16, &mut rng),
            0b1000
        );
        assert_eq!(
            TrafficPattern::BitReversal.destination(0b1101, 16, &mut rng),
            0b1011
        );
    }

    #[test]
    fn permutation_applies_directly() {
        let mut rng = RandomSource::new(0);
        let p = TrafficPattern::Permutation(vec![2, 0, 1]);
        assert_eq!(p.destination(0, 3, &mut rng), 2);
        assert_eq!(p.destination(2, 3, &mut rng), 1);
    }

    #[test]
    fn validate_rejects_misfitting_patterns() {
        assert!(TrafficPattern::Uniform.validate(12).is_ok());
        assert!(TrafficPattern::Transpose.validate(16).is_ok());
        assert_eq!(
            TrafficPattern::Transpose.validate(12),
            Err(WorkloadError::NonPowerOfTwoEndpoints { endpoints: 12 })
        );
        assert_eq!(
            TrafficPattern::BitReversal.validate(20),
            Err(WorkloadError::NonPowerOfTwoEndpoints { endpoints: 20 })
        );
        assert_eq!(
            TrafficPattern::Hotspot {
                target: 16,
                percent: 30
            }
            .validate(16),
            Err(WorkloadError::HotspotTargetOutOfRange {
                target: 16,
                endpoints: 16
            })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![1, 0]).validate(3),
            Err(WorkloadError::PermutationLength {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![1, 2, 5]).validate(3),
            Err(WorkloadError::PermutationOutOfRange {
                src: 2,
                dest: 5,
                endpoints: 3
            })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![1, 1, 0]).validate(3),
            Err(WorkloadError::PermutationSelfTarget { src: 1 })
        );
        assert!(TrafficPattern::Permutation(vec![1, 2, 0])
            .validate(3)
            .is_ok());
    }
}

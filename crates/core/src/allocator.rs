//! Stochastic backward-port allocation.
//!
//! "When multiple paths are available, the router switches the data to a
//! logically appropriate backward port selected *randomly* from those
//! available. This random path selection is the key to making the
//! protocol robust against dynamic faults while avoiding the need for
//! centralized information about the network state" (paper §4).
//!
//! The allocator is a pure function of the request set, the free/enabled
//! port set, and the random bit stream — the property width cascading
//! relies on ([`CascadeGroup`](crate::CascadeGroup)): identical inputs
//! and shared random bits yield identical allocations on every router of
//! a cascade.

use crate::config::RouterConfig;
use crate::rng::RandomSource;

/// The `n`-th set bit of `mask` (0-indexed from the least significant
/// end). The caller guarantees `n < mask.count_ones()`.
#[inline]
fn nth_set_bit(mut mask: u64, n: usize) -> usize {
    for _ in 0..n {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

/// How a router chooses among multiple free, logically equivalent
/// backward ports.
///
/// The paper's architecture mandates [`SelectionPolicy::Random`]; the
/// alternatives exist for the ablation study (`ablation_selection` in
/// `metro-bench`), quantifying how much the randomization contributes to
/// congestion and fault tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// Uniform random selection among free equivalent ports (the METRO
    /// architecture).
    #[default]
    Random,
    /// Rotate through the equivalent ports (per-direction counter).
    RoundRobin,
    /// Always take the lowest-numbered free port. Deterministic retry
    /// paths — the pathological baseline.
    Fixed,
}

/// The result of one connection request presented to the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationOutcome {
    /// The request was switched through to the given backward port.
    Granted {
        /// The allocated backward port index.
        bwd: usize,
    },
    /// No free, enabled backward port existed in the requested logical
    /// direction — the connection is *blocked* (paper §3).
    Blocked,
}

impl AllocationOutcome {
    /// The granted backward port, if any.
    #[must_use]
    pub fn port(&self) -> Option<usize> {
        match self {
            Self::Granted { bwd } => Some(*bwd),
            Self::Blocked => None,
        }
    }
}

/// The crosspoint allocator of one METRO router.
///
/// Tracks which backward ports are in use and grants new connection
/// requests. Requests arriving in the same clock cycle are arbitrated in
/// an order derived from the shared random stream, so contention
/// resolution is itself unbiased and cascade-consistent.
///
/// # Examples
///
/// ```
/// use metro_core::{Allocator, ArchParams, RouterConfig, RandomSource};
///
/// let p = ArchParams::rn1();
/// let cfg = RouterConfig::new(&p).with_dilation(2).build().unwrap();
/// let mut alloc = Allocator::new(&cfg, p.backward_ports());
/// let mut rng = RandomSource::new(1);
/// // Request logical direction 3 (ports 6..8 at dilation 2):
/// let out = alloc.request(3, &cfg, &mut rng);
/// let b = out.port().unwrap();
/// assert!(b == 6 || b == 7);
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    owner: Vec<Option<usize>>,
    /// Bitplane over backward ports: bit `b` set iff `owner[b]` is
    /// `Some` — the router's IN-USE word. Candidate selection is a
    /// single `!in_use & enabled & group` AND; the wired-AND of the
    /// cascade check reads this word directly.
    in_use: u64,
    policy: SelectionPolicy,
    rr_next: Vec<usize>,
    /// Arbitration-order scratch, reused across ticks so the hot path
    /// never touches the heap.
    arb_order: Vec<usize>,
}

impl Allocator {
    /// Creates an allocator for a router with `o` backward ports.
    #[must_use]
    pub fn new(config: &RouterConfig, o: usize) -> Self {
        assert!(o <= 64, "the IN-USE bitplane holds at most 64 ports");
        Self {
            owner: vec![None; o],
            in_use: 0,
            policy: SelectionPolicy::Random,
            rr_next: vec![0; config.radix()],
            arb_order: Vec::new(),
        }
    }

    /// Creates an allocator with a non-default selection policy (for
    /// ablation experiments).
    #[must_use]
    pub fn with_policy(config: &RouterConfig, o: usize, policy: SelectionPolicy) -> Self {
        Self {
            policy,
            ..Self::new(config, o)
        }
    }

    /// The selection policy in force.
    #[must_use]
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Whether backward port `b` is currently allocated, and to which
    /// forward port (`None` when free). Unowned allocation (via
    /// [`Allocator::request`]) records owner `usize::MAX`.
    #[must_use]
    pub fn owner(&self, b: usize) -> Option<usize> {
        self.owner[b]
    }

    /// Whether backward port `b` is in use — the `IN-USE` signal each
    /// backward port exposes for the cascade wired-AND check (paper §5.1).
    #[must_use]
    pub fn in_use(&self, b: usize) -> bool {
        self.in_use & (1u64 << b) != 0
    }

    /// The IN-USE word: bit `b` set iff backward port `b` is allocated.
    #[must_use]
    pub fn in_use_mask(&self) -> u64 {
        self.in_use
    }

    /// The full IN-USE vector.
    #[must_use]
    pub fn in_use_vector(&self) -> Vec<bool> {
        (0..self.owner.len()).map(|b| self.in_use(b)).collect()
    }

    /// Number of backward ports currently allocated.
    #[must_use]
    pub fn allocated_count(&self) -> usize {
        self.in_use.count_ones() as usize
    }

    /// Requests a connection in logical direction `dir` with no recorded
    /// owner. See [`Allocator::request_for`] to record the requesting
    /// forward port.
    pub fn request(
        &mut self,
        dir: usize,
        config: &RouterConfig,
        rng: &mut RandomSource,
    ) -> AllocationOutcome {
        self.request_for(usize::MAX, dir, config, rng)
    }

    /// Requests a connection in logical direction `dir` on behalf of
    /// forward port `fwd`.
    ///
    /// Free *and enabled* ports of the direction group are candidates;
    /// one is chosen per the policy. Returns
    /// [`AllocationOutcome::Blocked`] when no candidate exists.
    pub fn request_for(
        &mut self,
        fwd: usize,
        dir: usize,
        config: &RouterConfig,
        rng: &mut RandomSource,
    ) -> AllocationOutcome {
        // The hardware candidate word: free AND enabled AND in the
        // requested direction group — one wired-AND over the bitplanes.
        // `count_ones` replaces the historical double-scan of the port
        // range, but the candidate count (and therefore the number of
        // random indices drawn per grant) is identical, so the shared
        // stream advances exactly as it always has.
        let free = !self.in_use & config.backward_enabled_mask() & config.direction_group_mask(dir);
        let count = free.count_ones() as usize;
        if count == 0 {
            return AllocationOutcome::Blocked;
        }
        let k = match self.policy {
            SelectionPolicy::Random => rng.index(count),
            SelectionPolicy::RoundRobin => {
                let k = self.rr_next[dir] % count;
                self.rr_next[dir] = self.rr_next[dir].wrapping_add(1);
                k
            }
            SelectionPolicy::Fixed => 0,
        };
        let chosen = nth_set_bit(free, k);
        self.owner[chosen] = Some(fwd);
        self.in_use |= 1u64 << chosen;
        AllocationOutcome::Granted { bwd: chosen }
    }

    /// Arbitrates a batch of same-cycle requests `(fwd, dir)` in an
    /// order drawn from the shared random stream, returning one outcome
    /// per request (in the original request order).
    pub fn arbitrate(
        &mut self,
        requests: &[(usize, usize)],
        config: &RouterConfig,
        rng: &mut RandomSource,
    ) -> Vec<AllocationOutcome> {
        let mut outcomes = Vec::with_capacity(requests.len());
        self.arbitrate_into(requests, config, rng, &mut outcomes);
        outcomes
    }

    /// [`Allocator::arbitrate`] into a caller-provided buffer: `outcomes`
    /// is cleared and refilled with one outcome per request (original
    /// request order). Steady-state allocation-free — the arbitration
    /// order lives in a scratch buffer reused across calls.
    pub fn arbitrate_into(
        &mut self,
        requests: &[(usize, usize)],
        config: &RouterConfig,
        rng: &mut RandomSource,
        outcomes: &mut Vec<AllocationOutcome>,
    ) {
        let mut order = std::mem::take(&mut self.arb_order);
        order.clear();
        order.extend(0..requests.len());
        // Fisher-Yates from the shared stream: cascade-deterministic.
        for k in (1..order.len()).rev() {
            order.swap(k, rng.index(k + 1));
        }
        outcomes.clear();
        outcomes.resize(requests.len(), AllocationOutcome::Blocked);
        for &idx in &order {
            let (fwd, dir) = requests[idx];
            outcomes[idx] = self.request_for(fwd, dir, config, rng);
        }
        self.arb_order = order;
    }

    /// Releases backward port `b` (connection closed or torn down).
    pub fn release(&mut self, b: usize) {
        self.owner[b] = None;
        self.in_use &= !(1u64 << b);
    }
}

// The allocation state — owners, IN-USE word, round-robin cursors — of
// a router with `forward` forward ports. The policy and the arbitration
// scratch buffer are construction-derived and not written. Restore
// refuses an owner that is not one of the router's forward ports and an
// IN-USE word that disagrees with the owner table.
metro_telemetry::state_walk! {
    impl StateWithin<usize> for Allocator => |this, s, forward| {
        let Allocator { owner, in_use, policy: _, rr_next, arb_order: _ } = this;
        s.lane(owner.into_iter(), "backward ports", |s, o| {
            s.opt(o, |s, f| s.index(f, forward, "owning forward port"))
        })?;
        s.u64(in_use)?;
        let owned = owner.iter().enumerate();
        s.check(
            || *in_use == owned.map(|(b, o)| u64::from(o.is_some()) << b).sum::<u64>(),
            "IN-USE word disagrees with the owner table",
        )?;
        s.lane(rr_next, "round-robin cursors", |s, n| s.usize(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ArchParams;

    fn setup(dilation: usize) -> (RouterConfig, Allocator, RandomSource) {
        let p = ArchParams::rn1();
        let cfg = RouterConfig::new(&p)
            .with_dilation(dilation)
            .build()
            .unwrap();
        let alloc = Allocator::new(&cfg, p.backward_ports());
        (cfg, alloc, RandomSource::new(77))
    }

    #[test]
    fn grants_within_direction_group() {
        let (cfg, mut a, mut rng) = setup(2);
        for _ in 0..32 {
            let out = a.request(1, &cfg, &mut rng);
            if let Some(b) = out.port() {
                assert!((2..4).contains(&b));
                a.release(b);
            }
        }
    }

    #[test]
    fn blocks_when_group_exhausted() {
        let (cfg, mut a, mut rng) = setup(2);
        let first = a.request(0, &cfg, &mut rng).port().unwrap();
        let second = a.request(0, &cfg, &mut rng).port().unwrap();
        assert_ne!(first, second);
        assert_eq!(a.request(0, &cfg, &mut rng), AllocationOutcome::Blocked);
        // Other directions unaffected.
        assert!(a.request(1, &cfg, &mut rng).port().is_some());
    }

    #[test]
    fn never_double_books() {
        let (cfg, mut a, mut rng) = setup(2);
        let mut granted = std::collections::HashSet::new();
        for dir in 0..cfg.radix() {
            for _ in 0..2 {
                if let Some(b) = a.request(dir, &cfg, &mut rng).port() {
                    assert!(granted.insert(b), "port {b} granted twice");
                }
            }
        }
        assert_eq!(granted.len(), 8);
    }

    #[test]
    fn disabled_ports_are_never_selected() {
        let p = ArchParams::rn1();
        let cfg = RouterConfig::new(&p)
            .with_dilation(2)
            .with_backward_port_mode(2, crate::config::PortMode::DisabledDriven)
            .build()
            .unwrap();
        let mut a = Allocator::new(&cfg, 8);
        let mut rng = RandomSource::new(3);
        for _ in 0..16 {
            let b = a.request(1, &cfg, &mut rng).port().unwrap();
            assert_eq!(b, 3, "only enabled port of the group");
            a.release(b);
        }
    }

    #[test]
    fn random_selection_is_roughly_uniform() {
        let (cfg, mut a, mut rng) = setup(2);
        let mut counts = [0usize; 2];
        let trials = 20_000;
        for _ in 0..trials {
            let b = a.request(3, &cfg, &mut rng).port().unwrap();
            counts[b - 6] += 1;
            a.release(b);
        }
        for c in counts {
            assert!(
                (c as i64 - (trials / 2) as i64).abs() < (trials / 20) as i64,
                "selection biased: {counts:?}"
            );
        }
    }

    #[test]
    fn dilation_four_spreads_over_four_ports() {
        let p = ArchParams::new(8, 8, 8, 4, 0, 1).unwrap();
        let cfg = RouterConfig::new(&p).with_dilation(4).build().unwrap();
        let mut a = Allocator::new(&cfg, 8);
        let mut rng = RandomSource::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let b = a.request(1, &cfg, &mut rng).port().unwrap();
            seen.insert(b);
            a.release(b);
        }
        assert_eq!(seen, (4..8).collect());
    }

    #[test]
    fn round_robin_rotates() {
        let p = ArchParams::rn1();
        let cfg = RouterConfig::new(&p).with_dilation(2).build().unwrap();
        let mut a = Allocator::with_policy(&cfg, 8, SelectionPolicy::RoundRobin);
        let mut rng = RandomSource::new(1);
        let b1 = a.request(0, &cfg, &mut rng).port().unwrap();
        a.release(b1);
        let b2 = a.request(0, &cfg, &mut rng).port().unwrap();
        assert_ne!(b1, b2);
    }

    #[test]
    fn fixed_always_takes_lowest() {
        let p = ArchParams::rn1();
        let cfg = RouterConfig::new(&p).with_dilation(2).build().unwrap();
        let mut a = Allocator::with_policy(&cfg, 8, SelectionPolicy::Fixed);
        let mut rng = RandomSource::new(1);
        for _ in 0..4 {
            let b = a.request(2, &cfg, &mut rng).port().unwrap();
            assert_eq!(b, 4);
            a.release(b);
        }
    }

    #[test]
    fn arbitration_is_deterministic_under_shared_randomness() {
        let (cfg, a0, _) = setup(2);
        let requests = [(0, 1), (1, 1), (2, 1), (3, 2)];
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut r1 = RandomSource::new(42);
        let mut r2 = RandomSource::new(42);
        assert_eq!(
            a1.arbitrate(&requests, &cfg, &mut r1),
            a2.arbitrate(&requests, &cfg, &mut r2)
        );
        assert_eq!(a1.in_use_vector(), a2.in_use_vector());
    }

    #[test]
    fn arbitration_blocks_excess_requests() {
        let (cfg, mut a, mut rng) = setup(2);
        // Three requests for a direction with two ports: exactly one blocked.
        let outs = a.arbitrate(&[(0, 1), (1, 1), (2, 1)], &cfg, &mut rng);
        let blocked = outs.iter().filter(|o| o.port().is_none()).count();
        assert_eq!(blocked, 1);
    }

    #[test]
    fn in_use_vector_tracks_allocation() {
        let (cfg, mut a, mut rng) = setup(2);
        assert!(a.in_use_vector().iter().all(|&u| !u));
        let b = a.request(0, &cfg, &mut rng).port().unwrap();
        assert!(a.in_use(b));
        assert_eq!(a.in_use_vector().iter().filter(|&&u| u).count(), 1);
    }
}

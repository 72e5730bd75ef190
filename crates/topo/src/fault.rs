//! Fault models for multistage networks.
//!
//! METRO networks tolerate both *static* faults (masked by disabling
//! ports under scan control, paper §5.1) and *dynamic* faults (avoided
//! on retry through stochastic path selection, paper §4). A
//! [`FaultSet`] names the broken elements; the simulator consults it
//! each cycle, and the analysis routines compute the surviving path
//! structure.

use crate::graph::LinkId;
use metro_core::RandomSource;
use std::collections::HashMap;
use std::collections::HashSet;

/// How a faulty element misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultKind {
    /// The element is dead: wires driven by it read as undriven
    /// ([`Word::Empty`](metro_core::Word::Empty)).
    #[default]
    Dead,
    /// The element corrupts data words passing through it by XORing the
    /// given mask (control words pass unharmed — the insidious case
    /// that only checksums catch).
    CorruptData {
        /// XOR mask applied to data words.
        xor: u16,
    },
    /// A transient (intermittent) fault: every `period`-th data word
    /// crossing the element is corrupted — the marginal-wire /
    /// crosstalk case the paper's *dynamic fault* handling targets:
    /// most retries succeed, so the element stays in service until
    /// diagnosis decides otherwise.
    Intermittent {
        /// XOR mask applied to the affected words.
        xor: u16,
        /// Corrupt one data word in every `period` (>= 1).
        period: u32,
    },
}

/// A set of faulty network elements.
///
/// # Examples
///
/// ```
/// use metro_topo::{FaultSet, FaultKind};
/// use metro_topo::graph::LinkId;
///
/// let mut faults = FaultSet::new();
/// faults.kill_router(1, 3);
/// faults.break_link(LinkId::new(0, 2, 1), FaultKind::CorruptData { xor: 0x01 });
/// assert!(faults.router_dead(1, 3));
/// assert_eq!(faults.total(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    dead_routers: HashSet<(usize, usize)>,
    links: HashMap<LinkId, FaultKind>,
    dead_endpoints: HashSet<usize>,
}

impl FaultSet {
    /// An empty (fault-free) set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks router `r` of stage `s` completely dead.
    pub fn kill_router(&mut self, s: usize, r: usize) {
        self.dead_routers.insert((s, r));
    }

    /// Marks a link faulty with the given behaviour. A dead link reads
    /// as undriven; a corrupting link flips data bits.
    pub fn break_link(&mut self, link: LinkId, kind: FaultKind) {
        self.links.insert(link, kind);
    }

    /// Marks endpoint `e` dead (it neither injects nor acknowledges).
    pub fn kill_endpoint(&mut self, e: usize) {
        self.dead_endpoints.insert(e);
    }

    /// Whether router `r` of stage `s` is dead.
    #[must_use]
    pub fn router_dead(&self, s: usize, r: usize) -> bool {
        self.dead_routers.contains(&(s, r))
    }

    /// The fault on a link, if any.
    #[must_use]
    pub fn link_fault(&self, link: LinkId) -> Option<FaultKind> {
        self.links.get(&link).copied()
    }

    /// Whether a link is dead (not merely corrupting).
    #[must_use]
    pub fn link_dead(&self, link: LinkId) -> bool {
        matches!(self.links.get(&link), Some(FaultKind::Dead))
    }

    /// Whether endpoint `e` is dead.
    #[must_use]
    pub fn endpoint_dead(&self, e: usize) -> bool {
        self.dead_endpoints.contains(&e)
    }

    /// Total number of faulty elements.
    #[must_use]
    pub fn total(&self) -> usize {
        self.dead_routers.len() + self.links.len() + self.dead_endpoints.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Iterates over the dead routers as `(stage, router)` pairs.
    pub fn dead_routers(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.dead_routers.iter().copied()
    }

    /// Iterates over the faulty links.
    pub fn faulty_links(&self) -> impl Iterator<Item = (LinkId, FaultKind)> + '_ {
        self.links.iter().map(|(l, k)| (*l, *k))
    }

    /// Iterates over the dead endpoints.
    pub fn dead_endpoints(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead_endpoints.iter().copied()
    }

    /// Removes the fault on a link (repair).
    pub fn repair_link(&mut self, link: LinkId) {
        self.links.remove(&link);
    }

    /// Revives a dead router (repair).
    pub fn revive_router(&mut self, s: usize, r: usize) {
        self.dead_routers.remove(&(s, r));
    }

    /// Revives a dead endpoint (repair).
    pub fn revive_endpoint(&mut self, e: usize) {
        self.dead_endpoints.remove(&e);
    }

    /// Merges another fault set into this one (union). Link faults in
    /// `other` override an existing fault on the same link — the newer
    /// diagnosis wins, matching how the simulator's timed fault
    /// injections accumulate.
    pub fn merge(&mut self, other: &FaultSet) {
        self.dead_routers.extend(other.dead_routers.iter().copied());
        for (l, k) in &other.links {
            self.links.insert(*l, *k);
        }
        self.dead_endpoints
            .extend(other.dead_endpoints.iter().copied());
    }

    /// Kills a uniformly random selection of `count` routers drawn from
    /// the per-stage router counts in `routers_per_stage`, avoiding
    /// duplicates. Returns the victims.
    pub fn kill_random_routers(
        &mut self,
        routers_per_stage: &[usize],
        count: usize,
        rng: &mut RandomSource,
    ) -> Vec<(usize, usize)> {
        let mut all: Vec<(usize, usize)> = routers_per_stage
            .iter()
            .enumerate()
            .flat_map(|(s, &n)| (0..n).map(move |r| (s, r)))
            .filter(|k| !self.dead_routers.contains(k))
            .collect();
        let mut victims = Vec::with_capacity(count);
        for _ in 0..count.min(all.len()) {
            let idx = rng.index(all.len());
            let victim = all.swap_remove(idx);
            self.dead_routers.insert(victim);
            victims.push(victim);
        }
        victims
    }

    /// Kills a uniformly random selection of `count` links from the
    /// candidate list. Returns the victims.
    pub fn kill_random_links(
        &mut self,
        candidates: &[LinkId],
        count: usize,
        rng: &mut RandomSource,
    ) -> Vec<LinkId> {
        let mut all: Vec<LinkId> = candidates
            .iter()
            .copied()
            .filter(|l| !self.links.contains_key(l))
            .collect();
        let mut victims = Vec::with_capacity(count);
        for _ in 0..count.min(all.len()) {
            let idx = rng.index(all.len());
            let victim = all.swap_remove(idx);
            self.links.insert(victim, FaultKind::Dead);
            victims.push(victim);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_reports_nothing() {
        let f = FaultSet::new();
        assert!(f.is_empty());
        assert!(!f.router_dead(0, 0));
        assert!(!f.link_dead(LinkId::new(0, 0, 0)));
        assert_eq!(f.link_fault(LinkId::new(0, 0, 0)), None);
    }

    #[test]
    fn kill_and_revive_router() {
        let mut f = FaultSet::new();
        f.kill_router(2, 5);
        assert!(f.router_dead(2, 5));
        assert!(!f.router_dead(2, 4));
        f.revive_router(2, 5);
        assert!(f.is_empty());
    }

    #[test]
    fn break_and_repair_link() {
        let mut f = FaultSet::new();
        let l = LinkId::new(1, 2, 3);
        f.break_link(l, FaultKind::CorruptData { xor: 0x80 });
        assert_eq!(f.link_fault(l), Some(FaultKind::CorruptData { xor: 0x80 }));
        assert!(!f.link_dead(l), "corrupting is not dead");
        f.break_link(l, FaultKind::Dead);
        assert!(f.link_dead(l));
        f.repair_link(l);
        assert!(f.is_empty());
    }

    #[test]
    fn random_router_kills_are_unique_and_counted() {
        let mut f = FaultSet::new();
        let mut rng = RandomSource::new(3);
        let victims = f.kill_random_routers(&[8, 8, 8], 10, &mut rng);
        assert_eq!(victims.len(), 10);
        let unique: HashSet<_> = victims.iter().collect();
        assert_eq!(unique.len(), 10);
        assert_eq!(f.total(), 10);
        // Cannot kill more than exist.
        let more = f.kill_random_routers(&[8, 8, 8], 100, &mut rng);
        assert_eq!(more.len(), 14);
    }

    #[test]
    fn random_link_kills_respect_candidates() {
        let mut f = FaultSet::new();
        let mut rng = RandomSource::new(4);
        let candidates: Vec<LinkId> = (0..6).map(|p| LinkId::new(0, 0, p)).collect();
        let victims = f.kill_random_links(&candidates, 3, &mut rng);
        assert_eq!(victims.len(), 3);
        for v in &victims {
            assert!(candidates.contains(v));
            assert!(f.link_dead(*v));
        }
    }

    #[test]
    fn merge_unions_and_overrides_links() {
        let mut a = FaultSet::new();
        a.kill_router(0, 1);
        a.break_link(LinkId::new(0, 0, 0), FaultKind::Dead);
        let mut b = FaultSet::new();
        b.kill_router(1, 2);
        b.kill_endpoint(3);
        b.break_link(LinkId::new(0, 0, 0), FaultKind::CorruptData { xor: 0x10 });
        a.merge(&b);
        assert!(a.router_dead(0, 1) && a.router_dead(1, 2));
        assert!(a.endpoint_dead(3));
        assert_eq!(
            a.link_fault(LinkId::new(0, 0, 0)),
            Some(FaultKind::CorruptData { xor: 0x10 }),
            "newer fault wins on merge"
        );
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn endpoint_faults() {
        let mut f = FaultSet::new();
        f.kill_endpoint(9);
        assert!(f.endpoint_dead(9));
        assert!(!f.endpoint_dead(8));
        assert_eq!(f.total(), 1);
        f.revive_endpoint(9);
        assert!(f.is_empty());
        // Reviving a live endpoint is a no-op, not an error.
        f.revive_endpoint(9);
        assert!(f.is_empty());
    }
}

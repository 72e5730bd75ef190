//! The flat step on more than one shard: the tick pass by shard and the
//! carry pass by lane, as two rounds on a persistent worker pool.
//!
//! Round one hands shard `k` the routers and NICs of the
//! [`ShardPlan`]'s `k`-th ranges, with the bus regions they drive and
//! their carry masks: a `TickPart`, split off the machine in shard
//! order with `split_at_mut`. Round two runs the carry on two
//! participants, one per lane, each writing arena arrays the other
//! never touches. Every other array a round touches is read-only in
//! it, and the marks each participant makes — who stays hot, whom a
//! carry wakes, which NICs hold outcomes — go to bitsets of its own,
//! which the caller ORs together before it advances the wires. So every
//! component is ticked by exactly one thread, at the same point of its
//! own history as on one thread, and all randomness stays inside
//! per-component RNGs: any shard count is bit-identical to one.
//!
//! Nothing here allocates per step: the parts and lanes are arrays on
//! the stack, the pool is created on the first step, and the marks
//! with the engine.

use super::flat::{Carry, CarryMask, DriveBus, FwdLane, RevLane, Tick, MAX_SHARDS};
use crate::endpoint::Endpoint;
use crate::shard::{ShardBase, ShardPlan};
use metro_core::{Router, Word};
use metro_harness::TickPool;
use std::sync::Mutex;

/// Splits off the first `n` items of `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(n);
    *rest = back;
    front
}

/// Consecutive routers in flat order, as per-stage pieces: `head` of
/// stage `stage` from in-stage index `at`, then the whole stages after
/// it, then `tail`, the front of the stage after those.
#[derive(Debug)]
pub(crate) struct RouterSpan<'a> {
    stage: usize,
    at: usize,
    head: &'a mut [Router],
    full: &'a mut [Vec<Router>],
    tail: &'a mut [Router],
}

impl RouterSpan<'_> {
    /// Splits off the first `n` routers of a span that runs to the end
    /// of the machine (no `tail`).
    fn split_front(&mut self, n: usize) -> Self {
        let (stage, at) = (self.stage, self.at);
        let in_head = n.min(self.head.len());
        let head = take_front(&mut self.head, in_head);
        self.at += in_head;
        let (mut left, mut whole) = (n - in_head, 0);
        while left > 0 && self.full[whole].len() <= left {
            left -= self.full[whole].len();
            whole += 1;
        }
        let full = take_front(&mut self.full, whole);
        let mut tail: &mut [Router] = &mut [];
        if left > 0 {
            let (next, after) = std::mem::take(&mut self.full)
                .split_first_mut()
                .expect("a plan cuts no more routers than there are");
            (tail, self.head) = next.split_at_mut(left);
            (self.full, self.at) = (after, left);
        }
        self.stage = stage + whole + usize::from(!tail.is_empty());
        Self {
            stage,
            at,
            head,
            full,
            tail,
        }
    }

    /// The pieces as `(stage, first in-stage index, routers)`, empty
    /// ones left out.
    pub(crate) fn segments(&mut self) -> impl Iterator<Item = (usize, usize, &mut [Router])> {
        let tail_stage = self.stage + 1 + self.full.len();
        let full = self.full.iter_mut().zip(self.stage + 1..);
        std::iter::once((self.stage, self.at, &mut *self.head))
            .chain(full.map(|(stage, s)| (s, 0, stage.as_mut_slice())))
            .chain(std::iter::once((tail_stage, 0, &mut *self.tail)))
            .filter(|(_, _, routers)| !routers.is_empty())
    }
}

/// One shard's share of the tick pass: its NICs and routers, their
/// carry masks, and the bus regions they drive. Every slice starts at
/// the shard's `first` member or slot.
#[derive(Debug)]
pub(crate) struct TickPart<'a> {
    pub(crate) first: ShardBase,
    pub(crate) endpoints: &'a mut [Endpoint],
    pub(crate) routers: RouterSpan<'a>,
    pub(crate) masks: &'a mut [CarryMask],
    pub(crate) ep_out_fwd: &'a mut [Word],
    pub(crate) ep_in_rev: &'a mut [Word],
    pub(crate) out_bwd: &'a mut [Word],
    pub(crate) out_fwd: &'a mut [Word],
    pub(crate) out_bcb: &'a mut [bool],
}

impl<'a> TickPart<'a> {
    /// The whole machine as one part.
    pub(crate) fn whole(
        endpoints: &'a mut [Endpoint],
        routers: &'a mut [Vec<Router>],
        masks: &'a mut [CarryMask],
        bus: &'a mut DriveBus,
    ) -> Self {
        let (head, full) = routers.split_first_mut().expect("a fabric has a stage");
        Self {
            first: ShardBase::default(),
            endpoints,
            routers: RouterSpan {
                stage: 0,
                at: 0,
                head,
                full,
                tail: &mut [],
            },
            masks,
            ep_out_fwd: &mut bus.ep_out_fwd,
            ep_in_rev: &mut bus.ep_in_rev,
            out_bwd: &mut bus.out_bwd,
            out_fwd: &mut bus.out_fwd,
            out_bcb: &mut bus.out_bcb,
        }
    }

    /// Splits off everything before `end`, the next shard's start.
    fn split_to(&mut self, end: ShardBase) -> Self {
        let first = std::mem::replace(&mut self.first, end);
        let routers = end.router - first.router;
        Self {
            first,
            endpoints: take_front(&mut self.endpoints, end.endpoint - first.endpoint),
            routers: self.routers.split_front(routers),
            masks: take_front(&mut self.masks, routers),
            ep_out_fwd: take_front(&mut self.ep_out_fwd, end.ep_slot - first.ep_slot),
            ep_in_rev: take_front(&mut self.ep_in_rev, end.ep_slot - first.ep_slot),
            out_bwd: take_front(&mut self.out_bwd, end.bslot - first.bslot),
            out_fwd: take_front(&mut self.out_fwd, end.fslot - first.fslot),
            out_bcb: take_front(&mut self.out_bcb, end.fslot - first.fslot),
        }
    }
}

/// What one participant marks in a step, merged by the caller.
#[derive(Debug, Clone)]
struct Marks {
    /// Hot-set members to visit next cycle (the hot set's numbering).
    wake: Vec<u64>,
    /// NICs holding outcomes, one bit each.
    finished: Vec<u64>,
    /// Members its tick pass visited.
    visited: u64,
}

/// The worker pool and each participant's marks.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Created on the first step (so merely *building* a sharded sim
    /// spawns no threads) and not cloned — a cloned sim spins up its
    /// own pool on its next step.
    pool: Option<TickPool>,
    /// One per shard; the carry's two lanes use the first two.
    marks: Vec<Marks>,
}

impl Clone for ShardState {
    fn clone(&self) -> Self {
        Self {
            pool: None,
            marks: self.marks.clone(),
        }
    }
}

impl ShardState {
    /// State for `shards ≥ 2` participants over `members` hot-set
    /// members and `endpoints` NICs.
    pub(crate) fn new(shards: usize, members: usize, endpoints: usize) -> Self {
        let marks = Marks {
            wake: vec![0; members.div_ceil(64)],
            finished: vec![0; endpoints.div_ceil(64)],
            visited: 0,
        };
        Self {
            pool: None,
            marks: vec![marks; shards],
        }
    }

    /// The tick pass by shard: participant `k` runs `tick` over the
    /// `k`-th part of `machine` under `plan`, marking and counting into
    /// its own marks until [`ShardState::merge`].
    pub(crate) fn tick(&mut self, tick: &Tick<'_>, plan: &ShardPlan, mut machine: TickPart<'_>) {
        let n = self.marks.len();
        let pool = self.pool.get_or_insert_with(|| {
            TickPool::new(std::num::NonZeroUsize::new(n).expect("two or more shards"))
        });
        let mut marks = self.marks.iter_mut().enumerate();
        let jobs: [_; MAX_SHARDS] = std::array::from_fn(|_| {
            Mutex::new(
                marks
                    .next()
                    .map(|(k, m)| (machine.split_to(plan.base(k + 1)), m)),
            )
        });
        pool.run(|w| {
            let job = jobs[w].try_lock().expect("one participant per part").take();
            let (part, m) = job.expect("a part per participant");
            m.visited = tick.run(part, &mut m.wake, &mut m.finished);
        });
    }

    /// The carry pass by lane: participant 0 carries the forward lane,
    /// participant 1 the reverse lane, the rest wait.
    pub(crate) fn carry(&mut self, carry: &Carry<'_>, fwd: FwdLane<'_>, rev: RevLane<'_>) {
        let pool = self.pool.as_ref().expect("the tick round made the pool");
        let [first, second, ..] = &mut self.marks[..] else {
            unreachable!("two or more shards");
        };
        let lanes = [
            Mutex::new(Some((Some(fwd), None, &mut first.wake))),
            Mutex::new(Some((None, Some(rev), &mut second.wake))),
        ];
        pool.run(|w| {
            if let Some(lane) = lanes.get(w) {
                let job = lane.try_lock().expect("one participant per lane").take();
                let (fwd, rev, wake) = job.expect("a lane per participant");
                carry.run(wake, fwd, rev);
            }
        });
    }

    /// ORs every participant's marks into `wake` and `finished`, clears
    /// them, and returns the visits the tick pass made.
    pub(crate) fn merge(&mut self, wake: &mut [u64], finished: &mut [u64]) -> u64 {
        let mut visited = 0;
        for m in &mut self.marks {
            for (to, from) in wake.iter_mut().zip(&mut m.wake) {
                *to |= std::mem::take(from);
            }
            for (to, from) in finished.iter_mut().zip(&mut m.finished) {
                *to |= std::mem::take(from);
            }
            visited += std::mem::take(&mut m.visited);
        }
        visited
    }
}

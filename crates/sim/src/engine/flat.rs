//! The allocation-free flat engine: one channel arena and one drive
//! bus, walked with precomputed slot indices, stepping only what is
//! active — on the calling thread, or by shard on a worker pool.
//!
//! It has the Reference engine's shape (a METRO channel is one pipeline
//! register per wire stage, paper §5.1): the `ChannelArena` holds the
//! value registered at every channel input, indexed by [`FlatLinks`]'s
//! slot scheme; components read it and drive the `DriveBus`; only
//! when every component has driven is the arena overwritten from the
//! bus. The steady-state step performs no heap allocation, and fault
//! state is resolved into flat tables in [`Engine::apply_faults`] so
//! the hot path never queries the fault set.
//!
//! METRO routers are stateless between messages, so a step visits only
//! the members of a `HotSet` — routers, endpoints, non-transparent
//! wires — in three passes: *tick* (hot components read the arena and
//! drive the bus), *carry* (the bus slots they may have driven land in
//! the arena slots they feed, through `Route`), *wires* (hot
//! non-transparent wires advance from the bus and overwrite what was
//! carried into their slots). One invariant stands where a full walk
//! would rewrite everything:
//!
//! > *Anything not visited this cycle has quiescent state, all-`Empty`
//! > inputs in the arena, and all-`Empty` outputs already in the bus
//! > and in the arena slots they feed.*
//!
//! Ticking such a member would change nothing, draw no randomness and
//! drive `Empty` over `Empty`; leaving it out is exact. A member *stays*
//! hot while its FSM is non-quiescent or it drove a live (non-`Empty`)
//! value — the next visit is what returns those slots to `Empty` — and
//! *wakes* when a live value lands in one of its inputs. Changes from
//! outside a step — a message enqueued, a checkpoint restored, a fault
//! applied or repaired — mark what they touched
//! ([`Engine::wake_endpoint`], [`Engine::wake_router`]) or everything;
//! marking too much is always exact.
//!
//! A router's carry moves only the ports its visit could have driven:
//! those busy before or after its tick
//! ([`Router::busy_ports`](metro_core::Router::busy_ports)), OR'd
//! with the previous visit's. A live word carried out of a port keeps
//! the router hot, and the port is in its next visit's mask through
//! the OR, so the last carry into every slot before a cycle that skips
//! it wrote `Empty` — the `DROP` a tick leaves on the backward port it
//! just released included. A marked step needs no more: it advances
//! every wire, transparent ones included, and so lands every bus slot.
//! A dead router drives nothing and carries nothing; the marked step
//! that killed it landed `Empty` in every slot it feeds.
//!
//! With `SimConfig::shards > 1` the tick pass runs by shard and the
//! carry by lane on [`super::shard`]'s pool; the wires, and every pass
//! at one shard, run on the calling thread. The passes are the same
//! functions either way.

use super::shard::{ShardState, TickPart};
use super::{Engine, StepCtx};
use crate::fabric::Fabric;
use crate::shard::ShardPlan;
use crate::wire::Wire;
use metro_core::Word;
use metro_topo::fault::FaultSet;
use metro_topo::flatlinks::{FlatLinks, FlatTarget};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::Multibutterfly;

/// The most shards a step runs on, whatever a scenario file asks for:
/// every shard is a spinning thread.
pub(crate) const MAX_SHARDS: usize = 64;

/// The value registered at every channel input in the network, indexed
/// by the flat slot scheme of [`FlatLinks`].
#[derive(Debug, Clone)]
struct ChannelArena {
    /// Forward-lane word arriving at each router forward port (fslot).
    fwd_in: Vec<Word>,
    /// Reverse-lane word arriving at each router backward port (bslot).
    rev_in: Vec<Word>,
    /// BCB arriving at each router backward port (bslot).
    bcb_in: Vec<bool>,
    /// Reverse-lane word arriving at each endpoint output port
    /// (ep slot).
    ep_out_rev: Vec<Word>,
    /// BCB arriving at each endpoint output port (ep slot).
    ep_out_bcb: Vec<bool>,
    /// Forward-lane word arriving at each endpoint input port (ep slot).
    ep_in_fwd: Vec<Word>,
}

impl ChannelArena {
    fn idle(links: &FlatLinks) -> Self {
        Self {
            fwd_in: vec![Word::Empty; links.n_fwd_slots()],
            rev_in: vec![Word::Empty; links.n_bwd_slots()],
            bcb_in: vec![false; links.n_bwd_slots()],
            ep_out_rev: vec![Word::Empty; links.n_ep_slots()],
            ep_out_bcb: vec![false; links.n_ep_slots()],
            ep_in_fwd: vec![Word::Empty; links.n_ep_slots()],
        }
    }

    /// The arrays each carry lane writes, split at the last stage's
    /// first backward slot: only NIC replies land there.
    fn lanes(&mut self, links: &FlatLinks) -> (FwdLane<'_>, RevLane<'_>) {
        let last = links.bslot(links.stages() - 1, 0, 0);
        let (rev_in, replies) = self.rev_in.split_at_mut(last);
        let fwd = FwdLane {
            fwd_in: &mut self.fwd_in,
            ep_in_fwd: &mut self.ep_in_fwd,
            replies,
        };
        let rev = RevLane {
            rev_in,
            bcb_in: &mut self.bcb_in[..last],
            ep_out_rev: &mut self.ep_out_rev,
            ep_out_bcb: &mut self.ep_out_bcb,
        };
        (fwd, rev)
    }
}

/// The arena arrays the forward lane's carry writes: words travelling
/// downstream into routers and NICs, and the NICs' replies into the
/// last stage's backward ports (indexed from its first).
#[derive(Debug)]
pub(crate) struct FwdLane<'a> {
    fwd_in: &'a mut [Word],
    ep_in_fwd: &'a mut [Word],
    replies: &'a mut [Word],
}

/// The arena arrays the reverse lane's carry writes: the words and BCBs
/// routers drive upstream, into the backward ports below the last
/// stage and into the NICs' injection ports.
#[derive(Debug)]
pub(crate) struct RevLane<'a> {
    rev_in: &'a mut [Word],
    bcb_in: &'a mut [bool],
    ep_out_rev: &'a mut [Word],
    ep_out_bcb: &'a mut [bool],
}

/// Component outputs computed during the current tick, before the wires
/// consume them. Preallocated once; a visited component overwrites all
/// of its slots, and the slots of everything else hold `Empty`.
#[derive(Debug, Clone)]
pub(crate) struct DriveBus {
    /// Forward-lane word each router drives out of a backward port
    /// (bslot).
    pub(crate) out_bwd: Vec<Word>,
    /// Reverse-lane word each router drives out of a forward port
    /// (fslot).
    pub(crate) out_fwd: Vec<Word>,
    /// BCB each router drives out of a forward port (fslot).
    pub(crate) out_bcb: Vec<bool>,
    /// Forward-lane word each endpoint drives into the network
    /// (ep slot).
    pub(crate) ep_out_fwd: Vec<Word>,
    /// Reverse-lane reply each endpoint drives at its input side
    /// (ep slot).
    pub(crate) ep_in_rev: Vec<Word>,
}

impl DriveBus {
    fn idle(links: &FlatLinks) -> Self {
        Self {
            out_bwd: vec![Word::Empty; links.n_bwd_slots()],
            out_fwd: vec![Word::Empty; links.n_fwd_slots()],
            out_bcb: vec![false; links.n_fwd_slots()],
            ep_out_fwd: vec![Word::Empty; links.n_ep_slots()],
            ep_in_rev: vec![Word::Empty; links.n_ep_slots()],
        }
    }
}

/// Where one driven bus slot lands.
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    /// The slot of the lane array the value is carried into.
    dest: u32,
    /// The hot-set member a live value wakes: the reader of `dest`, or
    /// the wire between when it is not transparent (it then overwrites
    /// `dest` in the same step).
    wake: u32,
}

impl Route {
    /// Carries `word` into `lane`; returns whether it, or the BCB
    /// `also` travelling with it, was live. Branch-free on purpose: on
    /// a busy fabric ~40 % of words are live and a branch mispredicts.
    #[inline(always)]
    fn carry(self, word: Word, also: bool, lane: &mut [Word], wake: &mut [u64]) -> bool {
        lane[self.dest as usize] = word;
        let live = (word != Word::Empty) | also;
        mark(wake, self.wake as usize, live);
        live
    }
}

/// Where each bus lane's slots land. Rebuilt whenever a fault changes
/// a wire's transparency.
#[derive(Debug, Clone)]
struct Routes {
    /// `bus.ep_out_fwd` (ep slot) into `fwd_in`.
    inj: Vec<Route>,
    /// `bus.ep_in_rev` (ep slot) into [`FwdLane`]'s replies.
    reply: Vec<Route>,
    /// `bus.out_bwd` (bslot) into `fwd_in`, or `ep_in_fwd` from the
    /// last stage.
    bwd: Vec<Route>,
    /// `bus.out_fwd` with `bus.out_bcb` (fslot) into `rev_in`/`bcb_in`,
    /// or `ep_out_rev`/`ep_out_bcb` from stage 0.
    fwd: Vec<Route>,
}

/// A router's carry mask: the ports its last visit may have driven, and
/// the ports this cycle's carry moves, each as `(forward ports, backward
/// ports)` bitplanes (the [module documentation](self) has the rule).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CarryMask {
    last: (u64, u64),
    carry: (u64, u64),
}

/// First hot-set member of the endpoints, the injection wires and the
/// stage wires; routers come first, in flat numbering.
fn member_bases(links: &FlatLinks) -> (usize, usize, usize) {
    let inj = links.n_routers() + links.endpoints();
    (links.n_routers(), inj, inj + links.n_ep_slots())
}

/// Sets `member`'s bit if `live`.
fn mark(bits: &mut [u64], member: usize, live: bool) {
    bits[member / 64] |= u64::from(live) << (member % 64);
}

/// The set bits of `mask`, ascending.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// Runs one pass over every member in `members` set in `hot` — for
/// wires (`woken_too`) also those set in `wake` earlier in this step,
/// which the pass consumes. `visit(k, wake)` handles the range's `k`-th
/// member, marks in `wake` whom it feeds, and reports whether the
/// member itself stays hot. Returns how many members the pass covered.
#[inline(always)]
fn sweep(
    hot: &[u64],
    wake: &mut [u64],
    members: std::ops::Range<usize>,
    woken_too: bool,
    mut visit: impl FnMut(usize, &mut [u64]) -> bool,
) -> u64 {
    let mut covered = 0;
    for wi in members.start / 64..members.end.div_ceil(64) {
        // The part of this word that lies in the range.
        let last = (members.end - 1).min(wi * 64 + 63) % 64;
        let mask = (!0u64 >> (63 - last)) & (!0u64 << (members.start.max(wi * 64) % 64));
        let woken = if woken_too { wake[wi] & mask } else { 0 };
        wake[wi] &= !woken;
        let mut bits = hot[wi] & mask | woken;
        covered += u64::from(bits.count_ones());
        let mut stay = 0u64;
        while bits != 0 {
            let k = bits.trailing_zeros();
            bits &= bits - 1;
            let member = wi * 64 + k as usize - members.start;
            stay |= u64::from(visit(member, wake)) << k;
        }
        wake[wi] |= stay;
    }
    covered
}

/// Who is stepped this cycle: one bit per router (flat numbering), then
/// per endpoint, per injection wire and per stage wire. The [module
/// documentation](self) has the invariant this keeps.
#[derive(Debug, Clone)]
struct HotSet {
    /// Members to visit this cycle.
    hot: Vec<u64>,
    /// Members to visit next cycle, gathered while this one runs. Wire
    /// bits are consumed in the same step: wires advance after the
    /// components that feed them.
    wake: Vec<u64>,
    /// Visits so far.
    visited: u64,
}

/// What every shard's tick pass reads.
#[derive(Debug)]
pub(crate) struct Tick<'a> {
    now: u64,
    links: &'a FlatLinks,
    arena: &'a ChannelArena,
    router_dead: &'a [bool],
    hot: &'a [u64],
}

impl Tick<'_> {
    /// The tick pass over one shard's part: its hot endpoints, then its
    /// hot routers, compute their outputs from last cycle's inputs into
    /// the part's bus regions. Marks in `wake` who stays hot (busy
    /// after the tick) and in `finished` the NICs holding outcomes;
    /// returns the visits. A dead router drives nothing, and its frozen
    /// FSM keeps it in the set no longer than that.
    pub(crate) fn run(&self, part: TickPart<'_>, wake: &mut [u64], finished: &mut [u64]) -> u64 {
        let TickPart {
            first,
            endpoints,
            mut routers,
            masks,
            ep_out_fwd,
            ep_in_rev,
            out_bwd,
            out_fwd,
            out_bcb,
        } = part;
        let (links, arena) = (self.links, self.arena);
        let ep = links.ep_ports();
        let e0 = links.n_routers() + first.endpoint;
        let mut visited = sweep(self.hot, wake, e0..e0 + endpoints.len(), false, |i, _| {
            let e = first.endpoint + i;
            let (lo, hi) = (e * ep, (e + 1) * ep);
            let (l, h) = (lo - first.ep_slot, hi - first.ep_slot);
            let endpoint = &mut endpoints[i];
            endpoint.tick_into(
                self.now,
                &arena.ep_out_rev[lo..hi],
                &arena.ep_out_bcb[lo..hi],
                &arena.ep_in_fwd[lo..hi],
                &mut ep_out_fwd[l..h],
                &mut ep_in_rev[l..h],
            );
            mark(finished, e, endpoint.has_outcomes());
            !endpoint.is_quiescent()
        });
        for (s, at, stage) in routers.segments() {
            let (nf, nb) = (links.forward_ports(s), links.backward_ports(s));
            let r0 = links.router_index(s, at);
            visited += sweep(self.hot, wake, r0..r0 + stage.len(), false, |i, _| {
                let (f0, b0) = (links.fslot(s, at + i, 0), links.bslot(s, at + i, 0));
                let (f, b) = (f0 - first.fslot, b0 - first.bslot);
                let (out_bwd, out_fwd) = (&mut out_bwd[b..b + nb], &mut out_fwd[f..f + nf]);
                let out_bcb = &mut out_bcb[f..f + nf];
                let mask = &mut masks[r0 + i - first.router];
                if self.router_dead[r0 + i] {
                    out_bwd.fill(Word::Empty);
                    out_fwd.fill(Word::Empty);
                    out_bcb.fill(false);
                    *mask = CarryMask::default();
                    return false;
                }
                let router = &mut stage[i];
                let before = router.busy_ports();
                router.tick_into(
                    &arena.fwd_in[f0..f0 + nf],
                    &arena.rev_in[b0..b0 + nb],
                    &arena.bcb_in[b0..b0 + nb],
                    out_bwd,
                    out_fwd,
                    out_bcb,
                );
                let after = router.busy_ports();
                let drove = (before.0 | after.0, before.1 | after.1);
                let carry = (drove.0 | mask.last.0, drove.1 | mask.last.1);
                *mask = CarryMask { last: drove, carry };
                after != (0, 0)
            });
        }
        visited
    }
}

/// What the carry pass reads.
#[derive(Debug)]
pub(crate) struct Carry<'a> {
    links: &'a FlatLinks,
    bus: &'a DriveBus,
    routes: &'a Routes,
    masks: &'a [CarryMask],
    hot: &'a [u64],
}

impl Carry<'_> {
    /// The carry pass over the forward lane, the reverse lane, or both
    /// in one sweep: every input has been read, so the bus slots the hot
    /// members may have driven land in the arena slots they feed, waking
    /// the readers of live values in `wake`; a member that drove a live
    /// value stays hot. Component state is not touched here.
    pub(crate) fn run(
        &self,
        wake: &mut [u64],
        mut fwd: Option<FwdLane<'_>>,
        mut rev: Option<RevLane<'_>>,
    ) {
        let (links, bus, routes) = (self.links, self.bus, self.routes);
        let (ep_base, inj_base, _) = member_bases(links);
        let ep = links.ep_ports();
        if let Some(lane) = &mut fwd {
            sweep(self.hot, wake, ep_base..inj_base, false, |e, wake| {
                let (lo, hi) = (e * ep, (e + 1) * ep);
                let mut live = false;
                for (&w, r) in bus.ep_out_fwd[lo..hi].iter().zip(&routes.inj[lo..hi]) {
                    live |= r.carry(w, false, lane.fwd_in, wake);
                }
                for (&w, r) in bus.ep_in_rev[lo..hi].iter().zip(&routes.reply[lo..hi]) {
                    live |= r.carry(w, false, lane.replies, wake);
                }
                live
            });
        }
        let stages = links.stages();
        for s in 0..stages {
            let mut down = fwd.as_mut().map(|lane| {
                if s + 1 == stages {
                    &mut *lane.ep_in_fwd
                } else {
                    &mut *lane.fwd_in
                }
            });
            let mut up = rev.as_mut().map(|lane| {
                if s == 0 {
                    (&mut *lane.ep_out_rev, &mut *lane.ep_out_bcb)
                } else {
                    (&mut *lane.rev_in, &mut *lane.bcb_in)
                }
            });
            let r0 = links.router_index(s, 0);
            let routers = r0..r0 + links.routers_in_stage(s);
            sweep(self.hot, wake, routers, false, |r, wake| {
                let (f0, b0) = (links.fslot(s, r, 0), links.bslot(s, r, 0));
                let (fwd, bwd) = self.masks[r0 + r].carry;
                let mut live = false;
                if let Some(down) = &mut down {
                    for j in ones(bwd).map(|b| b0 + b) {
                        live |= routes.bwd[j].carry(bus.out_bwd[j], false, down, wake);
                    }
                }
                if let Some((up, up_bcb)) = &mut up {
                    for t in ones(fwd).map(|f| f0 + f) {
                        let (route, bcb) = (routes.fwd[t], bus.out_bcb[t]);
                        live |= route.carry(bus.out_fwd[t], bcb, up, wake);
                        up_bcb[route.dest as usize] = bcb;
                    }
                }
                live
            });
        }
    }
}

/// The allocation-free tick engine: flat arena + precomputed slots.
#[derive(Debug, Clone)]
pub struct FlatEngine {
    links: FlatLinks,
    arena: ChannelArena,
    bus: DriveBus,
    /// Injection wires, one per endpoint slot.
    inj_wires: Vec<Wire>,
    /// Inter-stage / delivery wires, one per backward slot.
    stage_wires: Vec<Wire>,
    /// Dead-router flags, flat router numbering; synced from the fault
    /// set in [`Engine::apply_faults`] so the step path never queries
    /// the fault set.
    router_dead: Vec<bool>,
    /// The cut of routers and NICs into tick shards.
    plan: ShardPlan,
    /// The worker pool and its participants' marks when the plan has
    /// more than one shard; `None` steps on the calling thread.
    shard: Option<Box<ShardState>>,
    /// Who the step visits.
    hot: HotSet,
    /// Per router, flat numbering: what its carry moves.
    masks: Vec<CarryMask>,
    routes: Routes,
}

impl FlatEngine {
    /// Builds the flat engine for `fabric`, resolving the shard knob
    /// (0 = host parallelism; capped at the router count and
    /// [`MAX_SHARDS`]).
    #[must_use]
    pub(crate) fn build(fabric: &Fabric) -> Self {
        let (topo, delays) = (&fabric.topo, &fabric.delays);
        let links = FlatLinks::build(topo);
        let inj_wires: Vec<Wire> = (0..links.n_ep_slots())
            .map(|_| Wire::new(delays[0]))
            .collect();
        let stage_wires: Vec<Wire> = (0..topo.stages())
            .flat_map(|s| {
                let n = topo.routers_in_stage(s) * topo.stage_spec(s).backward_ports;
                std::iter::repeat_n(delays[s + 1], n)
            })
            .map(Wire::new)
            .collect();
        // Resolve the shard knob: 0 = host parallelism, then cap at
        // the router count (a shard without routers is pure overhead)
        // and at MAX_SHARDS; one effective shard steps inline.
        let requested = match fabric.config.shards {
            0 => metro_harness::default_jobs().get(),
            n => n,
        };
        let effective = requested.min(links.n_routers()).clamp(1, MAX_SHARDS);
        let members = member_bases(&links).2 + links.n_bwd_slots();
        let shard = (effective > 1)
            .then(|| Box::new(ShardState::new(effective, members, links.endpoints())));
        let words = vec![0; members.div_ceil(64)];
        let routes = |n: usize| vec![Route::default(); n];
        let mut engine = Self {
            arena: ChannelArena::idle(&links),
            bus: DriveBus::idle(&links),
            inj_wires,
            stage_wires,
            router_dead: vec![false; links.n_routers()],
            plan: ShardPlan::build(&links, effective),
            shard,
            hot: HotSet {
                hot: words.clone(),
                wake: words,
                visited: 0,
            },
            masks: vec![CarryMask::default(); links.n_routers()],
            routes: Routes {
                inj: routes(links.n_ep_slots()),
                reply: routes(links.n_ep_slots()),
                bwd: routes(links.n_bwd_slots()),
                fwd: routes(links.n_fwd_slots()),
            },
            links,
        };
        engine.rebuild_routes();
        engine
    }

    /// Derives the four route tables from the link tables and the
    /// wires' current transparency, wire by wire: each end's output
    /// lands in the slot the other end reads, and a live value wakes
    /// that reader — or the wire itself when it is not transparent (a
    /// transparent wire, zero delay and no fault, is an identity
    /// function and its `Wire` state is never touched).
    fn rebuild_routes(&mut self) {
        let (links, routes) = (&self.links, &mut self.routes);
        let (inj_wires, stage_wires) = (&self.inj_wires, &self.stage_wires);
        let (ep_base, inj_base, stage_base) = member_bases(links);
        let replies_from = links.bslot(links.stages() - 1, 0, 0);
        let router = |(s, r): (usize, usize)| links.router_index(s, r);
        let endpoint = |slot: usize| ep_base + slot / links.ep_ports();
        let route = |dest: usize, reader: usize, wire: usize, transparent: bool| Route {
            dest: dest as u32,
            wake: if transparent { reader } else { wire } as u32,
        };
        for (i, w) in inj_wires.iter().enumerate() {
            let (t, wire, clear) = (links.inj_target(i), inj_base + i, w.is_transparent());
            routes.inj[i] = route(t, router(links.fwd_router(t)), wire, clear);
            routes.fwd[t] = route(i, endpoint(i), wire, clear);
        }
        for (j, w) in stage_wires.iter().enumerate() {
            let (wire, clear) = (stage_base + j, w.is_transparent());
            let reader = router(links.bwd_router(j));
            match links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    let t = t as usize;
                    routes.bwd[j] = route(t, router(links.fwd_router(t)), wire, clear);
                    routes.fwd[t] = route(j, reader, wire, clear);
                }
                FlatTarget::Endpoint(i) => {
                    let i = i as usize;
                    routes.bwd[j] = route(i, endpoint(i), wire, clear);
                    routes.reply[i] = route(j - replies_from, reader, wire, clear);
                }
            }
        }
    }

    /// Marks everything for one step: enough to rewrite the bus and the
    /// arena in full. (Padding bits are never swept.)
    fn mark_all(&mut self) {
        self.hot.hot.fill(!0);
    }
}

/// The wire pass: non-transparent wires (delay > 0 or faulty) that hold
/// words, were driven just now, or produced a live value last cycle
/// advance from the bus and overwrite what was carried into their
/// slots, waking whoever reads a live result. Returns the visits.
fn advance_wires(
    links: &FlatLinks,
    bus: &DriveBus,
    arena: &mut ChannelArena,
    inj_wires: &mut [Wire],
    stage_wires: &mut [Wire],
    hot: &mut HotSet,
) -> u64 {
    let (ep_base, inj_base, stage_base) = member_bases(links);
    let ep = links.ep_ports();
    let router = |(s, r): (usize, usize)| links.router_index(s, r);
    let landed = |wake: &mut [u64], wire: &Wire, f: (Word, usize), r: (Word, bool, usize)| {
        let (f_live, r_live) = (f.0 != Word::Empty, r.0 != Word::Empty || r.1);
        mark(wake, f.1, f_live);
        mark(wake, r.2, r_live);
        f_live || r_live || !wire.is_quiet()
    };
    let (hot, wake) = (&hot.hot, &mut hot.wake);
    let mut visited = sweep(hot, wake, inj_base..stage_base, true, |i, wake| {
        let (t, wire) = (links.inj_target(i), &mut inj_wires[i]);
        let (f, r, b) = wire.advance(bus.ep_out_fwd[i], bus.out_fwd[t], bus.out_bcb[t]);
        (arena.fwd_in[t], arena.ep_out_rev[i], arena.ep_out_bcb[i]) = (f, r, b);
        let reader = router(links.fwd_router(t));
        landed(wake, wire, (f, reader), (r, b, ep_base + i / ep))
    });
    let stage_members = stage_base..stage_base + stage_wires.len();
    visited += sweep(hot, wake, stage_members, true, |j, wake| {
        let wire = &mut stage_wires[j];
        let (f, r, b) = match links.bwd_target(j) {
            FlatTarget::Fwd(t) => {
                let t = t as usize;
                let (f, r, b) = wire.advance(bus.out_bwd[j], bus.out_fwd[t], bus.out_bcb[t]);
                arena.fwd_in[t] = f;
                ((f, router(links.fwd_router(t))), r, b)
            }
            FlatTarget::Endpoint(i) => {
                let i = i as usize;
                let (f, r, _) = wire.advance(bus.out_bwd[j], bus.ep_in_rev[i], false);
                arena.ep_in_fwd[i] = f;
                ((f, ep_base + i / ep), r, false)
            }
        };
        (arena.rev_in[j], arena.bcb_in[j]) = (r, b);
        landed(wake, wire, f, (r, b, router(links.bwd_router(j))))
    });
    visited
}

impl Engine for FlatEngine {
    /// One cycle over the hot set only (the [module
    /// documentation](self) says why that is exact): the tick pass, the
    /// carry pass, then the hot wires. With more than one shard the
    /// first two are pool rounds whose private marks are merged before
    /// the wires. Nothing here allocates.
    fn step(&mut self, ctx: StepCtx<'_>) {
        let Self {
            links,
            arena,
            bus,
            inj_wires,
            stage_wires,
            router_dead,
            plan,
            shard,
            hot,
            masks,
            routes,
        } = self;
        let tick = Tick {
            now: ctx.now,
            links,
            arena,
            router_dead,
            hot: &hot.hot,
        };
        let machine = TickPart::whole(ctx.endpoints, ctx.routers, masks, bus);
        let mut visited = match shard.as_deref_mut() {
            None => tick.run(machine, &mut hot.wake, ctx.finished),
            Some(shard) => {
                shard.tick(&tick, plan, machine);
                0
            }
        };
        let carry = Carry {
            links,
            bus,
            routes,
            masks,
            hot: &hot.hot,
        };
        let (fwd, rev) = arena.lanes(links);
        match shard.as_deref_mut() {
            None => carry.run(&mut hot.wake, Some(fwd), Some(rev)),
            Some(shard) => {
                shard.carry(&carry, fwd, rev);
                visited += shard.merge(&mut hot.wake, ctx.finished);
            }
        }
        visited += advance_wires(links, bus, arena, inj_wires, stage_wires, hot);
        hot.visited += visited;
        std::mem::swap(&mut hot.hot, &mut hot.wake);
        hot.wake.fill(0);
    }

    fn wires_quiet(&self) -> bool {
        self.inj_wires
            .iter()
            .chain(self.stage_wires.iter())
            .all(Wire::is_quiet)
    }

    fn probe_wire(&self, stage: usize, router: usize, b: usize) -> Wire {
        self.stage_wires[self.links.bslot(stage, router, b)].clone()
    }

    fn apply_faults(&mut self, topo: &Multibutterfly, faults: &FaultSet) {
        // Resolve the fault set into flat tables here, once, instead
        // of querying it every step.
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                self.router_dead[self.links.router_index(s, r)] = faults.router_dead(s, r);
                for b in 0..topo.stage_spec(s).backward_ports {
                    self.stage_wires[self.links.bslot(s, r, b)]
                        .set_fault(faults.link_fault(LinkId::new(s, r, b)));
                }
            }
        }
        // Transparency follows the fault set; refresh the routes built
        // on it. Rather than work out who a kill, break or repair
        // touches, step everything once.
        self.rebuild_routes();
        self.mark_all();
    }

    fn wake_endpoint(&mut self, e: usize) {
        mark(&mut self.hot.hot, self.links.n_routers() + e, true);
    }

    fn wake_router(&mut self, stage: usize, router: usize) {
        let member = self.links.router_index(stage, router);
        mark(&mut self.hot.hot, member, true);
    }

    fn visits(&self) -> u64 {
        self.hot.visited
    }

    fn shards(&self) -> usize {
        self.plan.shards()
    }

    fn clone_box(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }
}

// The `channels` section (see `Engine`).
metro_telemetry::state_walk! {
    impl State for FlatEngine => |this, s| {
        let FlatEngine { arena, inj_wires, stage_wires, .. } = this;
        let ChannelArena { fwd_in, rev_in, bcb_in, ep_out_rev, ep_out_bcb, ep_in_fwd } = arena;
        s.section("channels")?;
        s.lane(fwd_in, "forward-lane words", |s, w| s.state(w))?;
        s.lane(rev_in, "reverse-lane words", |s, w| s.state(w))?;
        s.lane(bcb_in, "BCB flags", |s, b| s.bool(b))?;
        s.lane(ep_out_rev, "endpoint reverse-lane words", |s, w| s.state(w))?;
        s.lane(ep_out_bcb, "endpoint BCB flags", |s, b| s.bool(b))?;
        s.lane(ep_in_fwd, "endpoint forward-lane words", |s, w| s.state(w))?;
        s.lane(inj_wires, "injection wires", |s, wire| s.state(wire))?;
        s.lane(stage_wires, "stage wires", |s, wire| s.state(wire))?;
        // Arena and wires may now hold anything; the bus is stale.
        s.on_restore(this, FlatEngine::mark_all);
        Ok(())
    }
}

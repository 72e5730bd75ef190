//! The allocation-free flat engine: one channel arena and one drive
//! bus, walked with precomputed slot indices, stepping only what is
//! active.
//!
//! It has the Reference engine's shape (a METRO channel is one pipeline
//! register per wire stage, paper §5.1): the [`ChannelArena`] holds the
//! value registered at every channel input, indexed by [`FlatLinks`]'s
//! slot scheme; components read it and drive the [`DriveBus`]; only
//! when every component has driven is the arena overwritten from the
//! bus. The steady-state step performs no heap allocation, and fault
//! state is resolved into flat tables in [`Engine::apply_faults`] so
//! the hot path never queries the fault set.
//!
//! METRO routers are stateless between messages, so the single-thread
//! step visits only the members of a [`HotSet`] — routers, endpoints,
//! non-transparent wires — in three passes: *tick* (hot components read
//! the arena and drive the bus), *carry* (the same components' bus
//! slots land in the arena slots they feed, through [`Route`]), *wires*
//! (hot non-transparent wires advance from the bus and overwrite what
//! was carried into their slots). One invariant stands where the full
//! walk rewrites everything:
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
//! marking too much is always exact. With `SimConfig::shards > 1` the
//! full walk of [`super::shard`] runs instead, bit-identically: with
//! the Reference engine it is this step's state-word oracle.

use super::shard::ShardState;
use super::{Engine, StepCtx};
use crate::fabric::Fabric;
use crate::shard::ShardPlan;
use crate::wire::Wire;
use metro_core::word::phit;
use metro_core::Word;
use metro_telemetry::{StateError, StateReader, StateWriter};
use metro_topo::fault::FaultSet;
use metro_topo::flatlinks::{FlatLinks, FlatTarget};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::Multibutterfly;

/// The most shards a step runs on, whatever a scenario file asks for:
/// every shard is a spinning thread.
const MAX_SHARDS: usize = 64;

/// The value registered at every channel input in the network, indexed
/// by the flat slot scheme of [`FlatLinks`].
#[derive(Debug, Clone)]
pub(crate) struct ChannelArena {
    /// Forward-lane word arriving at each router forward port (fslot).
    pub(crate) fwd_in: Vec<Word>,
    /// Reverse-lane word arriving at each router backward port (bslot).
    pub(crate) rev_in: Vec<Word>,
    /// BCB arriving at each router backward port (bslot).
    pub(crate) bcb_in: Vec<bool>,
    /// Reverse-lane word arriving at each endpoint output port
    /// (ep slot).
    pub(crate) ep_out_rev: Vec<Word>,
    /// BCB arriving at each endpoint output port (ep slot).
    pub(crate) ep_out_bcb: Vec<bool>,
    /// Forward-lane word arriving at each endpoint input port (ep slot).
    pub(crate) ep_in_fwd: Vec<Word>,
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
pub(crate) struct Route {
    /// The arena slot the value is carried into.
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

/// Who is stepped this cycle: one bit per router (flat numbering), then
/// per endpoint, per injection wire and per stage wire. The [module
/// documentation](self) has the invariant this keeps.
#[derive(Debug, Clone)]
pub(crate) struct HotSet {
    /// Members to visit this cycle.
    hot: Vec<u64>,
    /// Members to visit next cycle, gathered while this one runs. Wire
    /// bits are consumed in the same step: wires advance after the
    /// components that feed them.
    wake: Vec<u64>,
    /// Visits so far.
    visited: u64,
}

impl HotSet {
    fn cold(members: usize) -> Self {
        let words = vec![0; members.div_ceil(64)];
        Self {
            hot: words.clone(),
            wake: words,
            visited: 0,
        }
    }

    /// Runs one pass over every hot member in `members` — for wires
    /// (`woken_too`) also those woken earlier in this step.
    /// `visit(k, wake)` handles the range's `k`-th member, wakes who it
    /// feeds, and reports whether the member itself stays hot. Returns
    /// how many members the pass covered.
    #[inline(always)]
    fn sweep(
        &mut self,
        members: std::ops::Range<usize>,
        woken_too: bool,
        mut visit: impl FnMut(usize, &mut [u64]) -> bool,
    ) -> u64 {
        let mut covered = 0;
        for wi in members.start / 64..members.end.div_ceil(64) {
            // The part of this word that lies in the range.
            let last = (members.end - 1).min(wi * 64 + 63) % 64;
            let mask = (!0u64 >> (63 - last)) & (!0u64 << (members.start.max(wi * 64) % 64));
            let woken = if woken_too { self.wake[wi] & mask } else { 0 };
            self.wake[wi] &= !woken;
            let mut bits = self.hot[wi] & mask | woken;
            covered += u64::from(bits.count_ones());
            let mut stay = 0u64;
            while bits != 0 {
                let k = bits.trailing_zeros();
                bits &= bits - 1;
                let member = wi * 64 + k as usize - members.start;
                stay |= u64::from(visit(member, &mut self.wake)) << k;
            }
            self.wake[wi] |= stay;
        }
        covered
    }

    /// Marks everything for one step: enough to rewrite the bus and the
    /// arena in full. (Padding bits are never swept.)
    fn mark_all(&mut self) {
        self.hot.fill(!0);
    }
}

/// The allocation-free tick engine: flat arena + precomputed slots.
#[derive(Debug, Clone)]
pub struct FlatEngine {
    pub(crate) links: FlatLinks,
    pub(crate) arena: ChannelArena,
    pub(crate) bus: DriveBus,
    /// Injection wires, one per endpoint slot.
    pub(crate) inj_wires: Vec<Wire>,
    /// Inter-stage / delivery wires, one per backward slot.
    pub(crate) stage_wires: Vec<Wire>,
    /// Dead-router flags, flat router numbering; synced from the fault
    /// set in [`Engine::apply_faults`] so the step path never queries
    /// the fault set.
    pub(crate) router_dead: Vec<bool>,
    /// Per-wire [`Wire::is_transparent`] flags (zero delay, no fault):
    /// a transparent wire is an identity function and its `Wire` state
    /// is never touched. Transparency only changes when faults change,
    /// so these are rebuilt in [`Engine::apply_faults`], never per tick.
    pub(crate) inj_transparent: Vec<bool>,
    pub(crate) stage_transparent: Vec<bool>,
    /// Sharded-step state when `SimConfig.shards` resolved to more
    /// than one shard; `None` runs the single-threaded step.
    pub(crate) shard: Option<Box<ShardState>>,
    /// Who the single-threaded step visits.
    hot: HotSet,
    /// Where each bus lane's slots land: `bus.ep_out_fwd`,
    /// `bus.ep_in_rev` (ep slot), `bus.out_bwd` (bslot), and
    /// `bus.out_fwd` with `bus.out_bcb` (fslot). Rebuilt with the
    /// transparency flags.
    inj_routes: Vec<Route>,
    reply_routes: Vec<Route>,
    bwd_routes: Vec<Route>,
    fwd_routes: Vec<Route>,
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
        let inj_transparent = inj_wires.iter().map(Wire::is_transparent).collect();
        let stage_transparent = stage_wires.iter().map(Wire::is_transparent).collect();
        // Resolve the shard knob: 0 = host parallelism, then cap at
        // the router count (a shard without routers is pure overhead)
        // and at MAX_SHARDS; one effective shard means the
        // single-threaded step.
        let requested = match fabric.config.shards {
            0 => metro_harness::default_jobs().get(),
            n => n,
        };
        let effective = requested.min(links.n_routers()).clamp(1, MAX_SHARDS);
        let shard = (effective > 1).then(|| {
            Box::new(ShardState {
                plan: ShardPlan::build(&links, effective),
                pool: None,
                fwd_inj: vec![Word::Empty; links.n_ep_slots()],
                fwd_stage: vec![Word::Empty; links.n_bwd_slots()],
            })
        });
        // The sharded step walks everything and reads no route.
        let keep = usize::from(shard.is_none());
        let routes = |n: usize| vec![Route::default(); n * keep];
        let mut engine = Self {
            arena: ChannelArena::idle(&links),
            bus: DriveBus::idle(&links),
            inj_wires,
            stage_wires,
            router_dead: vec![false; links.n_routers()],
            inj_transparent,
            stage_transparent,
            shard,
            hot: HotSet::cold(member_bases(&links).2 + links.n_bwd_slots()),
            inj_routes: routes(links.n_ep_slots()),
            reply_routes: routes(links.n_ep_slots()),
            bwd_routes: routes(links.n_bwd_slots()),
            fwd_routes: routes(links.n_fwd_slots()),
            links,
        };
        engine.rebuild_routes();
        engine
    }

    /// Derives the four route tables from the link tables and the
    /// current transparency flags, wire by wire: each end's output
    /// lands in the slot the other end reads, and a live value wakes
    /// that reader — or the wire itself when it is not transparent.
    fn rebuild_routes(&mut self) {
        if self.shard.is_some() {
            return;
        }
        let links = &self.links;
        let (ep_base, inj_base, stage_base) = member_bases(links);
        let router = |(s, r): (usize, usize)| links.router_index(s, r);
        let endpoint = |slot: usize| ep_base + slot / links.ep_ports();
        let route = |dest: usize, reader: usize, wire: usize, transparent: bool| Route {
            dest: dest as u32,
            wake: if transparent { reader } else { wire } as u32,
        };
        for i in 0..links.n_ep_slots() {
            let (t, wire, clear) = (links.inj_target(i), inj_base + i, self.inj_transparent[i]);
            self.inj_routes[i] = route(t, router(links.fwd_router(t)), wire, clear);
            self.fwd_routes[t] = route(i, endpoint(i), wire, clear);
        }
        for j in 0..links.n_bwd_slots() {
            let (wire, clear) = (stage_base + j, self.stage_transparent[j]);
            let back = route(j, router(links.bwd_router(j)), wire, clear);
            match links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    let t = t as usize;
                    self.bwd_routes[j] = route(t, router(links.fwd_router(t)), wire, clear);
                    self.fwd_routes[t] = back;
                }
                FlatTarget::Endpoint(i) => {
                    self.bwd_routes[j] = route(i as usize, endpoint(i as usize), wire, clear);
                    self.reply_routes[i as usize] = back;
                }
            }
        }
    }

    /// The single-threaded flat cycle, over the hot set only (the
    /// [module documentation](self) says why that is exact): the tick
    /// pass, the carry pass, then the hot wires. Nothing here allocates.
    fn step_single(&mut self, ctx: StepCtx<'_>) {
        let (links, arena, bus, hot) = (&self.links, &mut self.arena, &mut self.bus, &mut self.hot);
        let (ep, stages) = (links.ep_ports(), links.stages());
        let (ep_base, inj_base, stage_base) = member_bases(links);
        // First slots of stage `s`'s `r`-th router: (fslot, bslot).
        let slots = |s: usize, r: usize| (links.fslot(s, r, 0), links.bslot(s, r, 0));

        // 1. Tick pass: hot endpoints, then hot routers, compute their
        // outputs from last cycle's inputs into the bus and stay hot
        // while busy. A dead router drives nothing, and its frozen FSM
        // keeps it in the set no longer than that.
        let mut visited = hot.sweep(ep_base..inj_base, false, |e, _| {
            let (lo, hi) = (e * ep, (e + 1) * ep);
            let endpoint = &mut ctx.endpoints[e];
            endpoint.tick_into(
                ctx.now,
                &arena.ep_out_rev[lo..hi],
                &arena.ep_out_bcb[lo..hi],
                &arena.ep_in_fwd[lo..hi],
                &mut bus.ep_out_fwd[lo..hi],
                &mut bus.ep_in_rev[lo..hi],
            );
            !endpoint.is_quiescent()
        });
        for (s, stage) in ctx.routers.iter_mut().enumerate() {
            let (nf, nb) = (links.forward_ports(s), links.backward_ports(s));
            let r0 = links.router_index(s, 0);
            visited += hot.sweep(r0..r0 + stage.len(), false, |r, _| {
                let (f0, b0) = slots(s, r);
                let (f1, b1) = (f0 + nf, b0 + nb);
                if self.router_dead[r0 + r] {
                    bus.out_bwd[b0..b1].fill(Word::Empty);
                    bus.out_fwd[f0..f1].fill(Word::Empty);
                    bus.out_bcb[f0..f1].fill(false);
                    return false;
                }
                stage[r].tick_into(
                    &arena.fwd_in[f0..f1],
                    &arena.rev_in[b0..b1],
                    &arena.bcb_in[b0..b1],
                    &mut bus.out_bwd[b0..b1],
                    &mut bus.out_fwd[f0..f1],
                    &mut bus.out_bcb[f0..f1],
                );
                !stage[r].is_quiescent()
            });
        }

        // 2. Carry pass: every input has been read, so the same members'
        // bus slots land in the arena slots they feed; a member that
        // drove a live value stays hot. Component state is not touched
        // again here.
        hot.sweep(ep_base..inj_base, false, |e, wake| {
            let (lo, hi) = (e * ep, (e + 1) * ep);
            let mut live = false;
            for (&w, r) in bus.ep_out_fwd[lo..hi].iter().zip(&self.inj_routes[lo..hi]) {
                live |= r.carry(w, false, &mut arena.fwd_in, wake);
            }
            for (&w, r) in bus.ep_in_rev[lo..hi].iter().zip(&self.reply_routes[lo..hi]) {
                live |= r.carry(w, false, &mut arena.rev_in, wake);
            }
            live
        });
        for s in 0..stages {
            let (nf, nb) = (links.forward_ports(s), links.backward_ports(s));
            let down = if s + 1 == stages {
                &mut arena.ep_in_fwd
            } else {
                &mut arena.fwd_in
            };
            let (up, up_bcb) = if s == 0 {
                (&mut arena.ep_out_rev, &mut arena.ep_out_bcb)
            } else {
                (&mut arena.rev_in, &mut arena.bcb_in)
            };
            let r0 = links.router_index(s, 0);
            hot.sweep(r0..r0 + links.routers_in_stage(s), false, |r, wake| {
                let (f0, b0) = slots(s, r);
                let (f1, b1) = (f0 + nf, b0 + nb);
                let mut live = false;
                for (&w, r) in bus.out_bwd[b0..b1].iter().zip(&self.bwd_routes[b0..b1]) {
                    live |= r.carry(w, false, down, wake);
                }
                let fwd = bus.out_fwd[f0..f1].iter().zip(&bus.out_bcb[f0..f1]);
                for ((&w, &bcb), r) in fwd.zip(&self.fwd_routes[f0..f1]) {
                    live |= r.carry(w, bcb, up, wake);
                    up_bcb[r.dest as usize] = bcb;
                }
                live
            });
        }

        // 3. Non-transparent wires (delay > 0 or faulty) that hold
        // words, were driven just now, or produced a live value last
        // cycle advance from the bus and overwrite what was carried
        // into their slots above, waking whoever reads a live result.
        let router = |(s, r): (usize, usize)| links.router_index(s, r);
        let landed = |wake: &mut [u64], wire: &Wire, f: (Word, usize), r: (Word, bool, usize)| {
            let (f_live, r_live) = (f.0 != Word::Empty, r.0 != Word::Empty || r.1);
            mark(wake, f.1, f_live);
            mark(wake, r.2, r_live);
            f_live || r_live || !wire.is_quiet()
        };
        visited += hot.sweep(inj_base..stage_base, true, |i, wake| {
            let (t, wire) = (links.inj_target(i), &mut self.inj_wires[i]);
            let (f, r, b) = wire.advance(bus.ep_out_fwd[i], bus.out_fwd[t], bus.out_bcb[t]);
            (arena.fwd_in[t], arena.ep_out_rev[i], arena.ep_out_bcb[i]) = (f, r, b);
            let reader = router(links.fwd_router(t));
            landed(wake, wire, (f, reader), (r, b, ep_base + i / ep))
        });
        let stage_wires = stage_base..stage_base + self.stage_wires.len();
        visited += hot.sweep(stage_wires, true, |j, wake| {
            let wire = &mut self.stage_wires[j];
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

        hot.visited += visited;
        std::mem::swap(&mut hot.hot, &mut hot.wake);
        hot.wake.fill(0);
    }
}

impl Engine for FlatEngine {
    fn step(&mut self, ctx: StepCtx<'_>) {
        if self.shard.is_some() {
            super::shard::step_sharded(self, ctx);
        } else {
            self.step_single(ctx);
        }
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
        // Transparency follows the fault set; refresh the cached flags
        // and the routes built on them. Rather than work out who a
        // kill, break or repair touches, step everything once.
        for (t, w) in self.stage_transparent.iter_mut().zip(&self.stage_wires) {
            *t = w.is_transparent();
        }
        self.rebuild_routes();
        self.hot.mark_all();
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
        self.shard.as_ref().map_or(1, |s| s.plan.shards())
    }

    fn clone_box(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut StateWriter) {
        let a = &self.arena;
        w.section("channels");
        w.seq(a.fwd_in.iter().copied(), phit::put);
        w.seq(a.rev_in.iter().copied(), phit::put);
        w.seq(a.bcb_in.iter().copied(), StateWriter::bool);
        w.seq(a.ep_out_rev.iter().copied(), phit::put);
        w.seq(a.ep_out_bcb.iter().copied(), StateWriter::bool);
        w.seq(a.ep_in_fwd.iter().copied(), phit::put);
        w.seq(&self.inj_wires, |w, wire| wire.save_state(w));
        w.seq(&self.stage_wires, |w, wire| wire.save_state(w));
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let a = &mut self.arena;
        r.section("channels")?;
        r.lane(&mut a.fwd_in, "forward-lane words", phit::get)?;
        r.lane(&mut a.rev_in, "reverse-lane words", phit::get)?;
        r.lane(&mut a.bcb_in, "BCB flags", StateReader::bool)?;
        r.lane(&mut a.ep_out_rev, "endpoint reverse-lane words", phit::get)?;
        r.lane(&mut a.ep_out_bcb, "endpoint BCB flags", StateReader::bool)?;
        r.lane(&mut a.ep_in_fwd, "endpoint forward-lane words", phit::get)?;
        r.shape(self.inj_wires.len(), "injection wires")?;
        for wire in &mut self.inj_wires {
            wire.restore_state(r)?;
        }
        r.shape(self.stage_wires.len(), "stage wires")?;
        for wire in &mut self.stage_wires {
            wire.restore_state(r)?;
        }
        // Arena and wires may now hold anything; the bus is stale.
        self.hot.mark_all();
        Ok(())
    }
}

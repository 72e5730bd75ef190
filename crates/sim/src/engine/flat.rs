//! The allocation-free flat engine: double-buffered channel arenas
//! walked with precomputed slot indices, stepping only what is active.
//!
//! One copy of every registered channel value lives in a flat arena
//! indexed by [`FlatLinks`]'s slot scheme; the engine keeps two — `cur`
//! (read by components this cycle) and `next` (written for the coming
//! cycle) — and swaps them once per tick. The steady-state step
//! performs no heap allocation, and fault state is resolved into flat
//! tables in [`Engine::apply_faults`] so the hot path never queries the
//! fault set.
//!
//! METRO routers are stateless between messages, so the single-thread
//! step visits only the members of a [`HotSet`] — routers, endpoints,
//! non-transparent wires — and carries each one's outputs to the `next`
//! slots they land in ([`Route`]). One invariant stands where the full
//! walk rewrites everything:
//!
//! > *Anything not visited this cycle has quiescent state, all-`Empty`
//! > inputs, and all-`Empty` outputs already sitting in the bus and in
//! > both arenas.*
//!
//! Ticking such a member would change nothing, draw no randomness and
//! drive `Empty` over `Empty`; leaving it out is exact. A member stays
//! hot while its FSM is non-quiescent or it drove a live (non-`Empty`)
//! value, one cycle more after its last live drive (the arenas
//! alternate: clearing both copies of a slot takes two writes), and
//! joins when a live value is carried into one of its inputs. Changes
//! from outside a step — a message enqueued, a checkpoint restored, a
//! fault applied or repaired — mark what they touched
//! ([`Engine::wake_endpoint`], [`Engine::wake_router`]) or everything;
//! marking too much is always exact. With `SimConfig::shards > 1` the
//! full walk of [`super::shard`] runs instead, bit-identically: it is
//! this step's differential oracle.

use super::{boundary_delay, shard::ShardState, Engine, StepCtx};
use crate::network::SimConfig;
use crate::shard::ShardPlan;
use crate::wire::Wire;
use metro_core::word::phit;
use metro_core::Word;
use metro_telemetry::{StateError, StateReader, StateWriter};
use metro_topo::fault::FaultSet;
use metro_topo::flatlinks::{FlatLinks, FlatTarget};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::Multibutterfly;

/// Appends a word lane to a checkpoint stream (length-prefixed packed
/// cells). Shared by both engines' snapshots.
pub(crate) fn save_words(w: &mut StateWriter, lane: &[Word]) {
    w.usize(lane.len());
    for &word in lane {
        w.u64(phit::pack(word));
    }
}

/// Overwrites a word lane from a checkpoint stream, in place.
pub(crate) fn restore_words(r: &mut StateReader<'_>, lane: &mut [Word]) -> Result<(), StateError> {
    let bad = |detail: String| StateError::BadValue {
        section: String::from("arena"),
        detail,
    };
    let n = r.usize()?;
    if n != lane.len() {
        return Err(bad(format!(
            "saved lane of {n}, engine holds {}",
            lane.len()
        )));
    }
    for word in lane.iter_mut() {
        let cell = r.u64()?;
        *word = phit::unpack(cell).ok_or_else(|| bad(format!("{cell:#x} is not a packed word")))?;
    }
    Ok(())
}

/// Appends a BCB lane to a checkpoint stream.
pub(crate) fn save_flags(w: &mut StateWriter, lane: &[bool]) {
    w.usize(lane.len());
    for &b in lane {
        w.bool(b);
    }
}

/// Overwrites a BCB lane from a checkpoint stream, in place.
pub(crate) fn restore_flags(r: &mut StateReader<'_>, lane: &mut [bool]) -> Result<(), StateError> {
    let n = r.usize()?;
    if n != lane.len() {
        return Err(StateError::BadValue {
            section: String::from("arena"),
            detail: format!("saved lane of {n}, engine holds {}", lane.len()),
        });
    }
    for b in lane.iter_mut() {
        *b = r.bool()?;
    }
    Ok(())
}

/// One copy of every registered channel value in the network, indexed
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

    fn save_state(&self, w: &mut StateWriter) {
        save_words(w, &self.fwd_in);
        save_words(w, &self.rev_in);
        save_flags(w, &self.bcb_in);
        save_words(w, &self.ep_out_rev);
        save_flags(w, &self.ep_out_bcb);
        save_words(w, &self.ep_in_fwd);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_words(r, &mut self.fwd_in)?;
        restore_words(r, &mut self.rev_in)?;
        restore_flags(r, &mut self.bcb_in)?;
        restore_words(r, &mut self.ep_out_rev)?;
        restore_flags(r, &mut self.ep_out_bcb)?;
        restore_words(r, &mut self.ep_in_fwd)
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
    /// The `next`-arena slot the value is carried into.
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
    /// Members whose last visit drove a live value: one more visit
    /// returns the other arena's copy of their slots to `Empty`.
    trail: Vec<u64>,
    /// Visits so far.
    visited: u64,
}

impl HotSet {
    fn cold(members: usize) -> Self {
        let words = vec![0; members.div_ceil(64)];
        Self {
            hot: words.clone(),
            wake: words.clone(),
            trail: words,
            visited: 0,
        }
    }

    /// Visits every hot member in `members` — for wires (`woken_too`)
    /// also those woken earlier in this step. `visit(k, wake)` steps
    /// the range's `k`-th member, wakes who it feeds, and reports
    /// `(drove a live value, still busy)`: either keeps the member hot,
    /// and the former leaves a trail.
    #[inline(always)]
    fn sweep(
        &mut self,
        members: std::ops::Range<usize>,
        woken_too: bool,
        mut visit: impl FnMut(usize, &mut [u64]) -> (bool, bool),
    ) {
        for wi in members.start / 64..members.end.div_ceil(64) {
            // The part of this word that lies in the range.
            let last = (members.end - 1).min(wi * 64 + 63) % 64;
            let mask = (!0u64 >> (63 - last)) & (!0u64 << (members.start.max(wi * 64) % 64));
            let woken = if woken_too { self.wake[wi] & mask } else { 0 };
            self.wake[wi] &= !woken;
            let mut bits = self.hot[wi] & mask | woken;
            self.visited += u64::from(bits.count_ones());
            let (mut stay, mut drove) = (0u64, 0u64);
            while bits != 0 {
                let k = bits.trailing_zeros();
                bits &= bits - 1;
                let (live, busy) = visit(wi * 64 + k as usize - members.start, &mut self.wake);
                drove |= u64::from(live) << k;
                stay |= u64::from(live | busy) << k;
            }
            self.wake[wi] |= stay | self.trail[wi] & mask;
            self.trail[wi] = self.trail[wi] & !mask | drove;
        }
    }

    /// Marks everything, for two steps: enough to rewrite the bus and
    /// both arenas in full. (Padding bits are never swept.)
    fn mark_all(&mut self) {
        self.hot.fill(!0);
        self.trail.fill(!0);
    }
}

/// The allocation-free tick engine: flat arenas + precomputed slots.
#[derive(Debug, Clone)]
pub struct FlatEngine {
    pub(crate) links: FlatLinks,
    pub(crate) cur: ChannelArena,
    pub(crate) next: ChannelArena,
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
    /// Builds the flat engine for `topo` under `config`, resolving the
    /// shard knob (0 = host parallelism, capped at the router count).
    #[must_use]
    pub(crate) fn build(topo: &Multibutterfly, config: &SimConfig) -> Self {
        let links = FlatLinks::build(topo);
        let inj_wires: Vec<Wire> = (0..links.n_ep_slots())
            .map(|_| Wire::new(boundary_delay(config, 0)))
            .collect();
        let stage_wires: Vec<Wire> = (0..topo.stages())
            .flat_map(|s| {
                let n = topo.routers_in_stage(s) * topo.stage_spec(s).backward_ports;
                std::iter::repeat_n(boundary_delay(config, s + 1), n)
            })
            .map(Wire::new)
            .collect();
        let inj_transparent = inj_wires.iter().map(Wire::is_transparent).collect();
        let stage_transparent = stage_wires.iter().map(Wire::is_transparent).collect();
        // Resolve the shard knob: 0 = host parallelism, then cap at
        // the router count (a shard without routers is pure overhead);
        // one effective shard means the single-threaded step.
        let requested = match config.shards {
            0 => metro_harness::default_jobs().get(),
            n => n,
        };
        let effective = requested.min(links.n_routers()).max(1);
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
            cur: ChannelArena::idle(&links),
            next: ChannelArena::idle(&links),
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
    /// [module documentation](self) says why that is exact): visited
    /// components read `cur`, drive the bus and have their outputs
    /// carried into `next`; hot non-transparent wires then advance from
    /// the bus; the arenas swap. Nothing here allocates.
    fn step_single(&mut self, ctx: StepCtx<'_>) {
        let (links, cur, bus, next) = (&self.links, &self.cur, &mut self.bus, &mut self.next);
        let (ep, stages) = (links.ep_ports(), links.stages());
        let (ep_base, inj_base, stage_base) = member_bases(links);

        // 1. Hot endpoints compute their outputs from last cycle's
        // inputs; the outputs are carried to the slots they feed.
        self.hot.sweep(ep_base..inj_base, false, |e, wake| {
            let (lo, hi) = (e * ep, (e + 1) * ep);
            let endpoint = &mut ctx.endpoints[e];
            endpoint.tick_into(
                ctx.now,
                &cur.ep_out_rev[lo..hi],
                &cur.ep_out_bcb[lo..hi],
                &cur.ep_in_fwd[lo..hi],
                &mut bus.ep_out_fwd[lo..hi],
                &mut bus.ep_in_rev[lo..hi],
            );
            let mut live = false;
            for (&w, r) in bus.ep_out_fwd[lo..hi].iter().zip(&self.inj_routes[lo..hi]) {
                live |= r.carry(w, false, &mut next.fwd_in, wake);
            }
            for (&w, r) in bus.ep_in_rev[lo..hi].iter().zip(&self.reply_routes[lo..hi]) {
                live |= r.carry(w, false, &mut next.rev_in, wake);
            }
            (live, !endpoint.is_quiescent())
        });

        // 2. Hot routers likewise. A dead router drives nothing, and
        // its frozen FSM keeps it in the set no longer than that.
        for (s, stage) in ctx.routers.iter_mut().enumerate() {
            let (nf, nb) = (links.forward_ports(s), links.backward_ports(s));
            let down = if s + 1 == stages {
                &mut next.ep_in_fwd
            } else {
                &mut next.fwd_in
            };
            let (up, up_bcb) = if s == 0 {
                (&mut next.ep_out_rev, &mut next.ep_out_bcb)
            } else {
                (&mut next.rev_in, &mut next.bcb_in)
            };
            let r0 = links.router_index(s, 0);
            self.hot.sweep(r0..r0 + stage.len(), false, |r, wake| {
                let (f0, b0) = (links.fslot(s, r, 0), links.bslot(s, r, 0));
                let (f1, b1) = (f0 + nf, b0 + nb);
                let dead = self.router_dead[r0 + r];
                if dead {
                    bus.out_bwd[b0..b1].fill(Word::Empty);
                    bus.out_fwd[f0..f1].fill(Word::Empty);
                    bus.out_bcb[f0..f1].fill(false);
                } else {
                    stage[r].tick_into(
                        &cur.fwd_in[f0..f1],
                        &cur.rev_in[b0..b1],
                        &cur.bcb_in[b0..b1],
                        &mut bus.out_bwd[b0..b1],
                        &mut bus.out_fwd[f0..f1],
                        &mut bus.out_bcb[f0..f1],
                    );
                }
                let mut live = false;
                for (&w, r) in bus.out_bwd[b0..b1].iter().zip(&self.bwd_routes[b0..b1]) {
                    live |= r.carry(w, false, down, wake);
                }
                let fwd = bus.out_fwd[f0..f1].iter().zip(&bus.out_bcb[f0..f1]);
                for ((&w, &bcb), r) in fwd.zip(&self.fwd_routes[f0..f1]) {
                    live |= r.carry(w, bcb, up, wake);
                    up_bcb[r.dest as usize] = bcb;
                }
                (live, !(dead || stage[r].is_quiescent()))
            });
        }

        // 3. Non-transparent wires (delay > 0 or faulty) that hold
        // words, were driven just now, or are trailing advance from the
        // bus and overwrite what was carried into their slots above,
        // waking whoever reads a live result.
        let router = |(s, r): (usize, usize)| links.router_index(s, r);
        let landed = |wake: &mut [u64], wire: &Wire, f: (Word, usize), r: (Word, bool, usize)| {
            let (f_live, r_live) = (f.0 != Word::Empty, r.0 != Word::Empty || r.1);
            mark(wake, f.1, f_live);
            mark(wake, r.2, r_live);
            (f_live || r_live, !wire.is_quiet())
        };
        self.hot.sweep(inj_base..stage_base, true, |i, wake| {
            let (t, wire) = (links.inj_target(i), &mut self.inj_wires[i]);
            let (f, r, b) = wire.advance(bus.ep_out_fwd[i], bus.out_fwd[t], bus.out_bcb[t]);
            (next.fwd_in[t], next.ep_out_rev[i], next.ep_out_bcb[i]) = (f, r, b);
            let reader = router(links.fwd_router(t));
            landed(wake, wire, (f, reader), (r, b, ep_base + i / ep))
        });
        let stage_wires = stage_base..stage_base + self.stage_wires.len();
        self.hot.sweep(stage_wires, true, |j, wake| {
            let wire = &mut self.stage_wires[j];
            let (f, r, b) = match links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    let t = t as usize;
                    let (f, r, b) = wire.advance(bus.out_bwd[j], bus.out_fwd[t], bus.out_bcb[t]);
                    next.fwd_in[t] = f;
                    ((f, router(links.fwd_router(t))), r, b)
                }
                FlatTarget::Endpoint(i) => {
                    let i = i as usize;
                    let (f, r, _) = wire.advance(bus.out_bwd[j], bus.ep_in_rev[i], false);
                    next.ep_in_fwd[i] = f;
                    ((f, ep_base + i / ep), r, false)
                }
            };
            (next.rev_in[j], next.bcb_in[j]) = (r, b);
            landed(wake, wire, f, (r, b, router(links.bwd_router(j))))
        });

        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.hot.hot, &mut self.hot.wake);
        self.hot.wake.fill(0);
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
        // kill, break or repair touches, step everything twice.
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
        w.section("flateng");
        self.cur.save_state(w);
        self.next.save_state(w);
        w.usize(self.inj_wires.len());
        for wire in &self.inj_wires {
            wire.save_state(w);
        }
        w.usize(self.stage_wires.len());
        for wire in &self.stage_wires {
            wire.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let bad = |detail: String| StateError::BadValue {
            section: String::from("flateng"),
            detail,
        };
        r.section("flateng")?;
        self.cur.restore_state(r)?;
        self.next.restore_state(r)?;
        let n_inj = r.usize()?;
        if n_inj != self.inj_wires.len() {
            return Err(bad(format!(
                "saved {n_inj} injection wires, engine holds {}",
                self.inj_wires.len()
            )));
        }
        for wire in &mut self.inj_wires {
            wire.restore_state(r)?;
        }
        let n_stage = r.usize()?;
        if n_stage != self.stage_wires.len() {
            return Err(bad(format!(
                "saved {n_stage} stage wires, engine holds {}",
                self.stage_wires.len()
            )));
        }
        for wire in &mut self.stage_wires {
            wire.restore_state(r)?;
        }
        // Arenas and wires may now hold anything; the bus is stale.
        self.hot.mark_all();
        Ok(())
    }
}

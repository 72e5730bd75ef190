//! The sharded flat step: the flat engine's dataflow fanned out over
//! the [`ShardPlan`]'s disjoint slot ranges with a pool barrier between
//! phases.
//!
//! Phase 1 ticks each shard's endpoints and routers from the arena
//! into its bus regions; phase 2 advances each shard's wires, writing
//! reverse/BCB lanes directly into owned regions of the arena phase 1
//! just read (the barrier separates them) and staging forward-lane
//! words; phase 3 gathers staged words to their (possibly remote)
//! target slots via the plan's precomputed lists. Every component and
//! wire is ticked exactly once by exactly one shard, all randomness
//! stays inside per-component RNGs, and the orchestrator's
//! telemetry/harvest walk remains sequential in canonical slot order —
//! which is why any shard count is bit-identical to one.

use super::flat::{ChannelArena, DriveBus, FlatEngine};
use super::StepCtx;
use crate::endpoint::Endpoint;
use crate::shard::ShardPlan;
use crate::wire::Wire;
use metro_core::{Router, Word};
use metro_harness::TickPool;
use metro_topo::flatlinks::{FlatLinks, FlatTarget};

/// Everything the sharded flat step needs beyond the engine itself:
/// the topology partition, the persistent worker pool, and the
/// forward-lane staging buffers wires park cross-shard words in
/// between the wire and gather phases.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) plan: ShardPlan,
    /// Created lazily on the first sharded step (so merely *building*
    /// a sharded sim spawns no threads) and intentionally not cloned —
    /// a cloned sim respins its own pool on its next step.
    pub(crate) pool: Option<TickPool>,
    /// Forward-lane word each injection wire produced this cycle,
    /// indexed by endpoint slot; the gather phase routes it to the
    /// target stage-0 forward slot (which may live on another shard).
    pub(crate) fwd_inj: Vec<Word>,
    /// Forward-lane word each inter-stage/delivery wire produced this
    /// cycle, indexed by backward slot.
    pub(crate) fwd_stage: Vec<Word>,
}

impl Clone for ShardState {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan.clone(),
            pool: None,
            fwd_inj: self.fwd_inj.clone(),
            fwd_stage: self.fwd_stage.clone(),
        }
    }
}

/// Splits `slice` at a shard plan's cut points (a nondecreasing
/// `(shards + 1)`-entry array covering `0..slice.len()`), returning one
/// disjoint mutable subslice per shard — the lock-free write partition
/// the sharded step hands its workers.
fn split_by_cuts<'a, T>(mut slice: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len().saturating_sub(1));
    let mut prev = 0usize;
    for &c in &cuts[1..] {
        let (head, tail) = slice.split_at_mut(c - prev);
        out.push(head);
        slice = tail;
        prev = c;
    }
    out
}

/// Phase-1 work package: one shard's endpoints and routers read the
/// shared arena (last-tick state only — the Moore-machine
/// property that makes partitioned ticking exact) and drive this
/// shard's disjoint bus regions.
struct CompShard<'a> {
    now: u64,
    ep: usize,
    /// First endpoint index / endpoint slot / forward slot / backward
    /// slot this shard owns (global-to-local offsets for the split bus
    /// slices below).
    ep_base: usize,
    eps0: usize,
    f0: usize,
    b0: usize,
    links: &'a FlatLinks,
    arena: &'a ChannelArena,
    router_dead: &'a [bool],
    endpoints: &'a mut [Endpoint],
    /// `(stage, first in-stage router index, routers)` segments tiling
    /// this shard's flat router range.
    routers: Vec<(usize, usize, &'a mut [Router])>,
    ep_out_fwd: &'a mut [Word],
    ep_in_rev: &'a mut [Word],
    out_bwd: &'a mut [Word],
    out_fwd: &'a mut [Word],
    out_bcb: &'a mut [bool],
}

impl CompShard<'_> {
    fn run(&mut self) {
        let ep = self.ep;
        for (i, endpoint) in self.endpoints.iter_mut().enumerate() {
            let g = (self.ep_base + i) * ep;
            let l = g - self.eps0;
            endpoint.tick_into(
                self.now,
                &self.arena.ep_out_rev[g..g + ep],
                &self.arena.ep_out_bcb[g..g + ep],
                &self.arena.ep_in_fwd[g..g + ep],
                &mut self.ep_out_fwd[l..l + ep],
                &mut self.ep_in_rev[l..l + ep],
            );
        }
        for (s, r0, routers) in &mut self.routers {
            let (s, r0) = (*s, *r0);
            let nf = self.links.forward_ports(s);
            let nb = self.links.backward_ports(s);
            for (i, router) in routers.iter_mut().enumerate() {
                let r = r0 + i;
                let fl = self.links.fslot(s, r, 0) - self.f0;
                let bl = self.links.bslot(s, r, 0) - self.b0;
                let fg = fl + self.f0;
                let bg = bl + self.b0;
                if self.router_dead[self.links.router_index(s, r)] {
                    self.out_bwd[bl..bl + nb].fill(Word::Empty);
                    self.out_fwd[fl..fl + nf].fill(Word::Empty);
                    self.out_bcb[fl..fl + nf].fill(false);
                    continue;
                }
                router.tick_into(
                    &self.arena.fwd_in[fg..fg + nf],
                    &self.arena.rev_in[bg..bg + nb],
                    &self.arena.bcb_in[bg..bg + nb],
                    &mut self.out_bwd[bl..bl + nb],
                    &mut self.out_fwd[fl..fl + nf],
                    &mut self.out_bcb[fl..fl + nf],
                );
            }
        }
    }
}

/// Phase-2 work package: this shard's wires read the whole bus
/// (complete after the phase-1 barrier) and write the reverse/BCB
/// lanes straight into the shard's own arena regions — a wire's
/// backward slot and endpoint slot are its owner's by construction.
/// Only the forward lane can cross shards, so it is parked in the
/// staging buffers for the gather phase.
struct WireShard<'a> {
    eps0: usize,
    b0: usize,
    links: &'a FlatLinks,
    bus: &'a DriveBus,
    inj_transparent: &'a [bool],
    stage_transparent: &'a [bool],
    inj_wires: &'a mut [Wire],
    stage_wires: &'a mut [Wire],
    ep_out_rev: &'a mut [Word],
    ep_out_bcb: &'a mut [bool],
    rev_in: &'a mut [Word],
    bcb_in: &'a mut [bool],
    fwd_inj: &'a mut [Word],
    fwd_stage: &'a mut [Word],
}

impl WireShard<'_> {
    fn run(&mut self) {
        for (l, wire) in self.inj_wires.iter_mut().enumerate() {
            let i = self.eps0 + l;
            let t = self.links.inj_target(i);
            let (fwd_o, rev_o, bcb_o) = if self.inj_transparent[i] {
                (
                    self.bus.ep_out_fwd[i],
                    self.bus.out_fwd[t],
                    self.bus.out_bcb[t],
                )
            } else {
                wire.advance(
                    self.bus.ep_out_fwd[i],
                    self.bus.out_fwd[t],
                    self.bus.out_bcb[t],
                )
            };
            self.fwd_inj[l] = fwd_o;
            self.ep_out_rev[l] = rev_o;
            self.ep_out_bcb[l] = bcb_o;
        }
        for (l, wire) in self.stage_wires.iter_mut().enumerate() {
            let j = self.b0 + l;
            match self.links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    let t = t as usize;
                    let (fwd_o, rev_o, bcb_o) = if self.stage_transparent[j] {
                        (
                            self.bus.out_bwd[j],
                            self.bus.out_fwd[t],
                            self.bus.out_bcb[t],
                        )
                    } else {
                        wire.advance(
                            self.bus.out_bwd[j],
                            self.bus.out_fwd[t],
                            self.bus.out_bcb[t],
                        )
                    };
                    self.fwd_stage[l] = fwd_o;
                    self.rev_in[l] = rev_o;
                    self.bcb_in[l] = bcb_o;
                }
                FlatTarget::Endpoint(i) => {
                    let i = i as usize;
                    let (fwd_o, rev_o) = if self.stage_transparent[j] {
                        (self.bus.out_bwd[j], self.bus.ep_in_rev[i])
                    } else {
                        let (f, r, _) =
                            wire.advance(self.bus.out_bwd[j], self.bus.ep_in_rev[i], false);
                        (f, r)
                    };
                    self.fwd_stage[l] = fwd_o;
                    self.rev_in[l] = rev_o;
                    self.bcb_in[l] = false;
                }
            }
        }
    }
}

/// Phase-3 work package: copy staged forward-lane words (complete
/// after the phase-2 barrier) into the forward-input and
/// endpoint-input slots this shard owns, walking the plan's
/// precomputed target-owner gather lists.
struct GatherShard<'a> {
    f0: usize,
    eps0: usize,
    fwd_from_inj: &'a [(u32, u32)],
    fwd_from_bwd: &'a [(u32, u32)],
    ep_in_from_bwd: &'a [(u32, u32)],
    fwd_inj: &'a [Word],
    fwd_stage: &'a [Word],
    fwd_in: &'a mut [Word],
    ep_in_fwd: &'a mut [Word],
}

impl GatherShard<'_> {
    fn run(&mut self) {
        for &(t, i) in self.fwd_from_inj {
            self.fwd_in[t as usize - self.f0] = self.fwd_inj[i as usize];
        }
        for &(t, j) in self.fwd_from_bwd {
            self.fwd_in[t as usize - self.f0] = self.fwd_stage[j as usize];
        }
        for &(i, j) in self.ep_in_from_bwd {
            self.ep_in_fwd[i as usize - self.eps0] = self.fwd_stage[j as usize];
        }
    }
}

/// One sharded flat cycle over `eng`'s shard state (which must be
/// present): three barrier-separated phases on the persistent worker
/// pool.
pub(crate) fn step_sharded(eng: &mut FlatEngine, ctx: StepCtx<'_>) {
    let FlatEngine {
        links,
        arena,
        bus,
        inj_wires,
        stage_wires,
        router_dead,
        inj_transparent,
        stage_transparent,
        shard,
        ..
    } = eng;
    let state = shard.as_mut().expect("sharded step requires a shard plan");
    let ShardState {
        plan,
        pool,
        fwd_inj,
        fwd_stage,
    } = &mut **state;
    let n = plan.shards();
    let pool = &*pool.get_or_insert_with(|| {
        TickPool::new(std::num::NonZeroUsize::new(n).expect("shard count >= 1"))
    });
    let now = ctx.now;
    let ep = links.ep_ports();
    let links = &*links;
    let router_dead = &router_dead[..];

    // Phase 1: components drive the bus.
    {
        let arena = &*arena;
        let mut eps_it = split_by_cuts(ctx.endpoints, &plan.ep_cut).into_iter();
        // Tile each shard's flat router range into per-stage
        // segments (shard ranges are contiguous in flat router
        // order, so this is one linear walk).
        let mut segs: Vec<Vec<(usize, usize, &mut [Router])>> =
            (0..n).map(|_| Vec::new()).collect();
        {
            let mut k = 0usize;
            let mut flat_base = 0usize;
            for (s, stage) in ctx.routers.iter_mut().enumerate() {
                let stage_len = stage.len();
                let mut rest: &mut [Router] = stage;
                let mut offset = 0usize;
                while !rest.is_empty() {
                    while plan.router_cut[k + 1] <= flat_base + offset {
                        k += 1;
                    }
                    let take = (plan.router_cut[k + 1] - (flat_base + offset)).min(rest.len());
                    let (head, tail) = rest.split_at_mut(take);
                    segs[k].push((s, offset, head));
                    offset += take;
                    rest = tail;
                }
                flat_base += stage_len;
            }
        }
        let mut segs_it = segs.into_iter();
        let mut ep_out_fwd_it = split_by_cuts(&mut bus.ep_out_fwd, &plan.eps_cut).into_iter();
        let mut ep_in_rev_it = split_by_cuts(&mut bus.ep_in_rev, &plan.eps_cut).into_iter();
        let mut out_bwd_it = split_by_cuts(&mut bus.out_bwd, &plan.b_cut).into_iter();
        let mut out_fwd_it = split_by_cuts(&mut bus.out_fwd, &plan.f_cut).into_iter();
        let mut out_bcb_it = split_by_cuts(&mut bus.out_bcb, &plan.f_cut).into_iter();
        let pkgs: Vec<std::sync::Mutex<CompShard>> = (0..n)
            .map(|k| {
                std::sync::Mutex::new(CompShard {
                    now,
                    ep,
                    ep_base: plan.ep_cut[k],
                    eps0: plan.eps_cut[k],
                    f0: plan.f_cut[k],
                    b0: plan.b_cut[k],
                    links,
                    arena,
                    router_dead,
                    endpoints: eps_it.next().expect("one endpoint part per shard"),
                    routers: segs_it.next().expect("one segment list per shard"),
                    ep_out_fwd: ep_out_fwd_it.next().expect("one bus part per shard"),
                    ep_in_rev: ep_in_rev_it.next().expect("one bus part per shard"),
                    out_bwd: out_bwd_it.next().expect("one bus part per shard"),
                    out_fwd: out_fwd_it.next().expect("one bus part per shard"),
                    out_bcb: out_bcb_it.next().expect("one bus part per shard"),
                })
            })
            .collect();
        pool.run(|w| pkgs[w].try_lock().expect("disjoint shard package").run());
    }

    // Phase 2: wires consume the completed bus.
    {
        let bus = &*bus;
        let inj_transparent = &inj_transparent[..];
        let stage_transparent = &stage_transparent[..];
        let ChannelArena {
            rev_in,
            bcb_in,
            ep_out_rev,
            ep_out_bcb,
            ..
        } = &mut *arena;
        let mut inj_it = split_by_cuts(inj_wires, &plan.eps_cut).into_iter();
        let mut stage_it = split_by_cuts(stage_wires, &plan.b_cut).into_iter();
        let mut rev_it = split_by_cuts(rev_in, &plan.b_cut).into_iter();
        let mut bcb_it = split_by_cuts(bcb_in, &plan.b_cut).into_iter();
        let mut eor_it = split_by_cuts(ep_out_rev, &plan.eps_cut).into_iter();
        let mut eob_it = split_by_cuts(ep_out_bcb, &plan.eps_cut).into_iter();
        let mut finj_it = split_by_cuts(fwd_inj, &plan.eps_cut).into_iter();
        let mut fstage_it = split_by_cuts(fwd_stage, &plan.b_cut).into_iter();
        let pkgs: Vec<std::sync::Mutex<WireShard>> = (0..n)
            .map(|k| {
                std::sync::Mutex::new(WireShard {
                    eps0: plan.eps_cut[k],
                    b0: plan.b_cut[k],
                    links,
                    bus,
                    inj_transparent,
                    stage_transparent,
                    inj_wires: inj_it.next().expect("one wire part per shard"),
                    stage_wires: stage_it.next().expect("one wire part per shard"),
                    ep_out_rev: eor_it.next().expect("one arena part per shard"),
                    ep_out_bcb: eob_it.next().expect("one arena part per shard"),
                    rev_in: rev_it.next().expect("one arena part per shard"),
                    bcb_in: bcb_it.next().expect("one arena part per shard"),
                    fwd_inj: finj_it.next().expect("one staging part per shard"),
                    fwd_stage: fstage_it.next().expect("one staging part per shard"),
                })
            })
            .collect();
        pool.run(|w| pkgs[w].try_lock().expect("disjoint shard package").run());
    }

    // Phase 3: gather staged forward-lane words to their targets.
    {
        let fwd_inj = &fwd_inj[..];
        let fwd_stage = &fwd_stage[..];
        let ChannelArena {
            fwd_in, ep_in_fwd, ..
        } = &mut *arena;
        let mut fin_it = split_by_cuts(fwd_in, &plan.f_cut).into_iter();
        let mut eif_it = split_by_cuts(ep_in_fwd, &plan.eps_cut).into_iter();
        let pkgs: Vec<std::sync::Mutex<GatherShard>> = (0..n)
            .map(|k| {
                std::sync::Mutex::new(GatherShard {
                    f0: plan.f_cut[k],
                    eps0: plan.eps_cut[k],
                    fwd_from_inj: &plan.fwd_from_inj[k],
                    fwd_from_bwd: &plan.fwd_from_bwd[k],
                    ep_in_from_bwd: &plan.ep_in_from_bwd[k],
                    fwd_inj,
                    fwd_stage,
                    fwd_in: fin_it.next().expect("one arena part per shard"),
                    ep_in_fwd: eif_it.next().expect("one arena part per shard"),
                })
            })
            .collect();
        pool.run(|w| pkgs[w].try_lock().expect("disjoint shard package").run());
    }
}

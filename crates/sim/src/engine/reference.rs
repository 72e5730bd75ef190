//! The original nested-`Vec` engine, retained verbatim as the golden
//! reference: per-tick buffer allocation, topology lookups, and
//! fault-set queries. Deliberately scalar and simple — it is the
//! executable spec the flat engine is proven bit-identical against.

use super::{Engine, StepCtx};
use crate::endpoint::EndpointIo;
use crate::fabric::Fabric;
use crate::wire::Wire;
use metro_core::{BwdIn, FwdIn, TickOutput, Word};
use metro_topo::fault::FaultSet;
use metro_topo::graph::{LinkId, LinkTarget};
use metro_topo::multibutterfly::Multibutterfly;

/// The original engine: nested `Vec` buffers rebuilt each tick, with
/// per-tick topology and fault lookups.
#[derive(Debug, Clone)]
pub struct ReferenceEngine {
    inj_wires: Vec<Vec<Wire>>,
    stage_wires: Vec<Vec<Vec<Wire>>>,
    fwd_in: Vec<Vec<Vec<Word>>>,
    rev_in: Vec<Vec<Vec<Word>>>,
    bcb_in: Vec<Vec<Vec<bool>>>,
    ep_out_rev: Vec<Vec<Word>>,
    ep_out_bcb: Vec<Vec<bool>>,
    ep_in_fwd: Vec<Vec<Word>>,
}

impl ReferenceEngine {
    /// Builds the nested-`Vec` engine for `fabric`.
    #[must_use]
    pub(crate) fn build(fabric: &Fabric) -> Self {
        let (topo, delays) = (&fabric.topo, &fabric.delays);
        let ep = topo.endpoint_ports();
        Self {
            inj_wires: (0..topo.endpoints())
                .map(|_| (0..ep).map(|_| Wire::new(delays[0])).collect())
                .collect(),
            stage_wires: (0..topo.stages())
                .map(|s| {
                    (0..topo.routers_in_stage(s))
                        .map(|_| {
                            (0..topo.stage_spec(s).backward_ports)
                                .map(|_| Wire::new(delays[s + 1]))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            fwd_in: (0..topo.stages())
                .map(|s| {
                    vec![
                        vec![Word::Empty; topo.stage_spec(s).forward_ports];
                        topo.routers_in_stage(s)
                    ]
                })
                .collect(),
            rev_in: (0..topo.stages())
                .map(|s| {
                    vec![
                        vec![Word::Empty; topo.stage_spec(s).backward_ports];
                        topo.routers_in_stage(s)
                    ]
                })
                .collect(),
            bcb_in: (0..topo.stages())
                .map(|s| {
                    vec![vec![false; topo.stage_spec(s).backward_ports]; topo.routers_in_stage(s)]
                })
                .collect(),
            ep_out_rev: vec![vec![Word::Empty; ep]; topo.endpoints()],
            ep_out_bcb: vec![vec![false; ep]; topo.endpoints()],
            ep_in_fwd: vec![vec![Word::Empty; ep]; topo.endpoints()],
        }
    }
}

impl Engine for ReferenceEngine {
    /// The original engine's cycle, kept verbatim: per-tick buffer
    /// allocation, topology lookups, and fault-set queries.
    fn step(&mut self, ctx: StepCtx<'_>) {
        let stages = ctx.topo.stages();
        let ep = ctx.topo.endpoint_ports();

        // 1. Endpoints compute their outputs from last cycle's inputs.
        let mut ep_drive = Vec::with_capacity(ctx.endpoints.len());
        for (e, endpoint) in ctx.endpoints.iter_mut().enumerate() {
            let io = EndpointIo {
                out_rev_in: self.ep_out_rev[e].clone(),
                out_bcb_in: self.ep_out_bcb[e].clone(),
                in_fwd_in: self.ep_in_fwd[e].clone(),
            };
            ep_drive.push(endpoint.tick(ctx.now, &io));
            ctx.finished[e / 64] |= u64::from(endpoint.has_outcomes()) << (e % 64);
        }

        // 2. Routers compute their outputs.
        let mut router_out: Vec<Vec<TickOutput>> = Vec::with_capacity(stages);
        for s in 0..stages {
            let st = ctx.topo.stage_spec(s);
            let mut stage_out = Vec::with_capacity(ctx.routers[s].len());
            for r in 0..ctx.routers[s].len() {
                if ctx.faults.router_dead(s, r) {
                    stage_out.push(TickOutput {
                        bwd: vec![Word::Empty; st.backward_ports],
                        fwd: vec![Word::Empty; st.forward_ports],
                        bcb: vec![false; st.forward_ports],
                    });
                    continue;
                }
                let fwd = FwdIn::data(&self.fwd_in[s][r]);
                let bwd = BwdIn::new(&self.rev_in[s][r], &self.bcb_in[s][r]);
                stage_out.push(ctx.routers[s][r].tick(&fwd, &bwd));
            }
            router_out.push(stage_out);
        }

        // 3. Wires advance; next-cycle input buffers are rebuilt.
        for (e, drive) in ep_drive.iter().enumerate() {
            for p in 0..ep {
                let (r0, f0) = ctx.topo.injection(e, p);
                let (fwd_o, rev_o, bcb_o) = self.inj_wires[e][p].advance(
                    drive.out_fwd[p],
                    router_out[0][r0].fwd[f0],
                    router_out[0][r0].bcb[f0],
                );
                self.fwd_in[0][r0][f0] = fwd_o;
                self.ep_out_rev[e][p] = rev_o;
                self.ep_out_bcb[e][p] = bcb_o;
            }
        }
        for s in 0..stages {
            let st = ctx.topo.stage_spec(s);
            for r in 0..ctx.routers[s].len() {
                for b in 0..st.backward_ports {
                    let fault = ctx.faults.link_fault(LinkId::new(s, r, b));
                    self.stage_wires[s][r][b].set_fault(fault);
                    match ctx.topo.link(s, r, b) {
                        LinkTarget::Router { router, port } => {
                            let (fwd_o, rev_o, bcb_o) = self.stage_wires[s][r][b].advance(
                                router_out[s][r].bwd[b],
                                router_out[s + 1][router].fwd[port],
                                router_out[s + 1][router].bcb[port],
                            );
                            self.fwd_in[s + 1][router][port] = fwd_o;
                            self.rev_in[s][r][b] = rev_o;
                            self.bcb_in[s][r][b] = bcb_o;
                        }
                        LinkTarget::Endpoint { endpoint, port } => {
                            let (fwd_o, rev_o, _) = self.stage_wires[s][r][b].advance(
                                router_out[s][r].bwd[b],
                                ep_drive[endpoint].in_rev[port],
                                false,
                            );
                            self.ep_in_fwd[endpoint][port] = fwd_o;
                            self.rev_in[s][r][b] = rev_o;
                            self.bcb_in[s][r][b] = false;
                        }
                    }
                }
            }
        }
    }

    fn wires_quiet(&self) -> bool {
        self.inj_wires
            .iter()
            .flatten()
            .chain(self.stage_wires.iter().flatten().flatten())
            .all(Wire::is_quiet)
    }

    fn probe_wire(&self, _topo: &Multibutterfly, stage: usize, router: usize, b: usize) -> Wire {
        self.stage_wires[stage][router][b].clone()
    }

    fn apply_faults(&mut self, _topo: &Multibutterfly, _faults: &FaultSet) {
        // The reference engine queries the fault set per tick (the
        // verbatim original behavior), so there is nothing to resolve.
    }

    fn shards(&self) -> usize {
        1
    }

    fn clone_box(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }
}

// The `channels` section (see `Engine`): `[stage][router][port]` and
// `[endpoint][port]` flatten to exactly the flat slot order.
metro_telemetry::state_walk! {
    impl State for ReferenceEngine => |this, s| {
        let ReferenceEngine {
            inj_wires, stage_wires, fwd_in, rev_in, bcb_in, ep_out_rev, ep_out_bcb, ep_in_fwd,
        } = this;
        s.section("channels")?;
        let cells: Vec<_> = fwd_in.into_iter().flatten().flatten().collect();
        s.lane(cells, "forward-lane words", |s, w| s.state(w))?;
        let cells: Vec<_> = rev_in.into_iter().flatten().flatten().collect();
        s.lane(cells, "reverse-lane words", |s, w| s.state(w))?;
        let cells: Vec<_> = bcb_in.into_iter().flatten().flatten().collect();
        s.lane(cells, "BCB flags", |s, b| s.bool(b))?;
        let cells: Vec<_> = ep_out_rev.into_iter().flatten().collect();
        s.lane(cells, "endpoint reverse-lane words", |s, w| s.state(w))?;
        let cells: Vec<_> = ep_out_bcb.into_iter().flatten().collect();
        s.lane(cells, "endpoint BCB flags", |s, b| s.bool(b))?;
        let cells: Vec<_> = ep_in_fwd.into_iter().flatten().collect();
        s.lane(cells, "endpoint forward-lane words", |s, w| s.state(w))?;
        let cells: Vec<_> = inj_wires.into_iter().flatten().collect();
        s.lane(cells, "injection wires", |s, wire| s.state(wire))?;
        let cells: Vec<_> = stage_wires.into_iter().flatten().flatten().collect();
        s.lane(cells, "stage wires", |s, wire| s.state(wire))
    }
}

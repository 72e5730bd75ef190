//! Flat, precomputed channel indexing for simulator hot paths.
//!
//! A cycle-accurate simulator touches every channel of the network every
//! clock cycle. Resolving each channel through
//! [`Multibutterfly::link`]/[`Multibutterfly::injection`] per tick costs
//! a bounds-checked nested lookup per port per cycle; [`FlatLinks`]
//! performs that resolution **once**, assigning every channel a dense
//! *slot* index into contiguous arrays:
//!
//! * **forward slots** — one per router forward (input-side) port,
//!   numbered stage-major: `fslot(s, r, f) = fbase[s] + r·fports[s] + f`.
//! * **backward slots** — one per router backward (output-side) port:
//!   `bslot(s, r, b) = bbase[s] + r·bports[s] + b`.
//! * **endpoint slots** — one per endpoint port:
//!   `ep_slot(e, p) = e·ep_ports + p`.
//!
//! Each backward slot carries its wire's destination as a
//! [`FlatTarget`]: either the forward slot it feeds in the next stage or
//! the endpoint slot it delivers to. Each endpoint slot carries the
//! stage-0 forward slot its injection wire feeds. A simulator can then
//! walk plain arrays with no per-tick topology queries at all.

use crate::graph::LinkTarget;
use crate::multibutterfly::Multibutterfly;

/// Where a backward-port wire delivers its forward lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatTarget {
    /// A forward-port slot of the next stage (`fslot` numbering).
    Fwd(u32),
    /// An endpoint input slot (`ep_slot` numbering) — the delivery
    /// boundary out of the last stage.
    Endpoint(u32),
}

/// A dense, contiguous index of every channel in a multibutterfly.
///
/// Built once from a [`Multibutterfly`]; see the [module
/// documentation](self) for the slot numbering scheme.
#[derive(Debug, Clone)]
pub struct FlatLinks {
    stages: usize,
    endpoints: usize,
    ep_ports: usize,
    /// Routers per stage.
    routers: Vec<u32>,
    /// Forward ports per router, per stage.
    fports: Vec<u32>,
    /// Backward ports per router, per stage.
    bports: Vec<u32>,
    /// First forward slot of each stage (plus a final total entry).
    fbase: Vec<u32>,
    /// First backward slot of each stage (plus a final total entry).
    bbase: Vec<u32>,
    /// First flat router index of each stage (plus a final total entry).
    rbase: Vec<u32>,
    /// Destination of each backward slot's wire.
    bwd_target: Vec<FlatTarget>,
    /// Stage-0 forward slot fed by each endpoint slot's injection wire.
    inj_target: Vec<u32>,
}

impl FlatLinks {
    /// Resolves every link of `topo` into a flat slot table.
    ///
    /// # Panics
    ///
    /// Panics if the network holds more than `u32::MAX` channels of one
    /// kind (far beyond any simulable size).
    #[must_use]
    pub fn build(topo: &Multibutterfly) -> Self {
        let stages = topo.stages();
        let mut routers = Vec::with_capacity(stages);
        let mut fports = Vec::with_capacity(stages);
        let mut bports = Vec::with_capacity(stages);
        let mut fbase = Vec::with_capacity(stages + 1);
        let mut bbase = Vec::with_capacity(stages + 1);
        let mut rbase = Vec::with_capacity(stages + 1);
        let (mut ftot, mut btot, mut rtot) = (0u32, 0u32, 0u32);
        for s in 0..stages {
            let st = topo.stage_spec(s);
            let n = u32::try_from(topo.routers_in_stage(s)).expect("router count fits u32");
            routers.push(n);
            fports.push(u32::try_from(st.forward_ports).expect("port count fits u32"));
            bports.push(u32::try_from(st.backward_ports).expect("port count fits u32"));
            fbase.push(ftot);
            bbase.push(btot);
            rbase.push(rtot);
            ftot = ftot
                .checked_add(n * fports[s])
                .expect("forward slots fit u32");
            btot = btot
                .checked_add(n * bports[s])
                .expect("backward slots fit u32");
            rtot = rtot.checked_add(n).expect("routers fit u32");
        }
        fbase.push(ftot);
        bbase.push(btot);
        rbase.push(rtot);

        let mut links = Self {
            stages,
            endpoints: topo.endpoints(),
            ep_ports: topo.endpoint_ports(),
            routers,
            fports,
            bports,
            fbase,
            bbase,
            rbase,
            bwd_target: Vec::with_capacity(btot as usize),
            inj_target: Vec::new(),
        };

        for s in 0..stages {
            for r in 0..links.routers[s] as usize {
                for b in 0..links.bports[s] as usize {
                    let target = match topo.link(s, r, b) {
                        LinkTarget::Router { router, port } => {
                            FlatTarget::Fwd(links.fslot(s + 1, router, port) as u32)
                        }
                        LinkTarget::Endpoint { endpoint, port } => {
                            FlatTarget::Endpoint(links.ep_slot(endpoint, port) as u32)
                        }
                    };
                    links.bwd_target.push(target);
                }
            }
        }
        links.inj_target = (0..links.endpoints)
            .flat_map(|e| {
                (0..links.ep_ports).map(move |p| {
                    let (r0, f0) = topo.injection(e, p);
                    (r0, f0)
                })
            })
            .map(|(r0, f0)| links.fslot(0, r0, f0) as u32)
            .collect();
        links
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Number of endpoints.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// Ports per endpoint (injection == delivery side).
    #[must_use]
    pub fn ep_ports(&self) -> usize {
        self.ep_ports
    }

    /// Total endpoint slots (`endpoints × ep_ports`).
    #[must_use]
    pub fn n_ep_slots(&self) -> usize {
        self.endpoints * self.ep_ports
    }

    /// Total forward slots across all stages.
    #[must_use]
    pub fn n_fwd_slots(&self) -> usize {
        self.fbase[self.stages] as usize
    }

    /// Total backward slots across all stages.
    #[must_use]
    pub fn n_bwd_slots(&self) -> usize {
        self.bbase[self.stages] as usize
    }

    /// Total routers across all stages.
    #[must_use]
    pub fn n_routers(&self) -> usize {
        self.rbase[self.stages] as usize
    }

    /// Routers in stage `s`.
    #[must_use]
    pub fn routers_in_stage(&self, s: usize) -> usize {
        self.routers[s] as usize
    }

    /// Forward ports per router in stage `s`.
    #[must_use]
    pub fn forward_ports(&self, s: usize) -> usize {
        self.fports[s] as usize
    }

    /// Backward ports per router in stage `s`.
    #[must_use]
    pub fn backward_ports(&self, s: usize) -> usize {
        self.bports[s] as usize
    }

    /// Forward slot of port `f` of router `r` in stage `s`.
    #[must_use]
    pub fn fslot(&self, s: usize, r: usize, f: usize) -> usize {
        (self.fbase[s] + r as u32 * self.fports[s] + f as u32) as usize
    }

    /// Backward slot of port `b` of router `r` in stage `s`.
    #[must_use]
    pub fn bslot(&self, s: usize, r: usize, b: usize) -> usize {
        (self.bbase[s] + r as u32 * self.bports[s] + b as u32) as usize
    }

    /// Flat index of router `r` in stage `s` (stage-major numbering).
    #[must_use]
    pub fn router_index(&self, s: usize, r: usize) -> usize {
        (self.rbase[s] + r as u32) as usize
    }

    /// Destination of backward slot `slot`'s wire.
    #[must_use]
    pub fn bwd_target(&self, slot: usize) -> FlatTarget {
        self.bwd_target[slot]
    }

    /// `(stage, router)` owning forward slot `slot` ([`Self::fslot`]
    /// read backwards; a set-up path, not a tick path).
    #[must_use]
    pub fn fwd_router(&self, slot: usize) -> (usize, usize) {
        Self::owner(&self.fbase, &self.fports, slot)
    }

    /// `(stage, router)` owning backward slot `slot`.
    #[must_use]
    pub fn bwd_router(&self, slot: usize) -> (usize, usize) {
        Self::owner(&self.bbase, &self.bports, slot)
    }

    fn owner(base: &[u32], ports: &[u32], slot: usize) -> (usize, usize) {
        let s = base.partition_point(|&b| b as usize <= slot) - 1;
        (s, (slot - base[s] as usize) / ports[s] as usize)
    }

    /// Slot of port `p` of endpoint `e`.
    #[must_use]
    pub fn ep_slot(&self, e: usize, p: usize) -> usize {
        e * self.ep_ports + p
    }

    /// Stage-0 forward slot fed by endpoint slot `slot`'s injection
    /// wire.
    #[must_use]
    pub fn inj_target(&self, slot: usize) -> usize {
        self.inj_target[slot] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multibutterfly::MultibutterflySpec;

    fn figure1() -> (Multibutterfly, FlatLinks) {
        let topo = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
        let links = FlatLinks::build(&topo);
        (topo, links)
    }

    #[test]
    fn slot_totals_match_port_sums() {
        let (topo, links) = figure1();
        let fwd: usize = (0..topo.stages())
            .map(|s| topo.routers_in_stage(s) * topo.stage_spec(s).forward_ports)
            .sum();
        let bwd: usize = (0..topo.stages())
            .map(|s| topo.routers_in_stage(s) * topo.stage_spec(s).backward_ports)
            .sum();
        assert_eq!(links.n_fwd_slots(), fwd);
        assert_eq!(links.n_bwd_slots(), bwd);
        assert_eq!(links.n_ep_slots(), topo.endpoints() * topo.endpoint_ports());
        let routers: usize = (0..topo.stages()).map(|s| topo.routers_in_stage(s)).sum();
        assert_eq!(links.n_routers(), routers);
    }

    #[test]
    fn slots_are_dense_and_stage_major() {
        let (topo, links) = figure1();
        let mut expect = 0;
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                for f in 0..topo.stage_spec(s).forward_ports {
                    assert_eq!(links.fslot(s, r, f), expect);
                    expect += 1;
                }
            }
        }
        assert_eq!(expect, links.n_fwd_slots());
    }

    #[test]
    fn backward_targets_agree_with_topology_lookups() {
        let (topo, links) = figure1();
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                for b in 0..topo.stage_spec(s).backward_ports {
                    let expected = match topo.link(s, r, b) {
                        LinkTarget::Router { router, port } => {
                            FlatTarget::Fwd(links.fslot(s + 1, router, port) as u32)
                        }
                        LinkTarget::Endpoint { endpoint, port } => {
                            FlatTarget::Endpoint(links.ep_slot(endpoint, port) as u32)
                        }
                    };
                    assert_eq!(links.bwd_target(links.bslot(s, r, b)), expected);
                }
            }
        }
    }

    #[test]
    fn injection_targets_agree_with_topology_lookups() {
        let (topo, links) = figure1();
        for e in 0..topo.endpoints() {
            for p in 0..topo.endpoint_ports() {
                let (r0, f0) = topo.injection(e, p);
                assert_eq!(
                    links.inj_target(links.ep_slot(e, p)),
                    links.fslot(0, r0, f0)
                );
            }
        }
    }

    #[test]
    fn slot_owners_invert_the_slot_numbering() {
        let (topo, links) = figure1();
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                for f in 0..topo.stage_spec(s).forward_ports {
                    assert_eq!(links.fwd_router(links.fslot(s, r, f)), (s, r));
                }
                for b in 0..topo.stage_spec(s).backward_ports {
                    assert_eq!(links.bwd_router(links.bslot(s, r, b)), (s, r));
                }
            }
        }
    }

    #[test]
    fn every_last_stage_backward_slot_delivers_to_an_endpoint() {
        let (topo, links) = figure1();
        let last = topo.stages() - 1;
        let mut seen = vec![false; links.n_ep_slots()];
        for r in 0..topo.routers_in_stage(last) {
            for b in 0..topo.stage_spec(last).backward_ports {
                match links.bwd_target(links.bslot(last, r, b)) {
                    FlatTarget::Endpoint(i) => {
                        assert!(!seen[i as usize], "endpoint slot fed twice");
                        seen[i as usize] = true;
                    }
                    FlatTarget::Fwd(_) => panic!("last stage must deliver to endpoints"),
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every endpoint slot must be fed");
    }
}

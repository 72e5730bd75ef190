//! Multibutterfly network construction.
//!
//! A multibutterfly is a multistage network in which every stage
//! subdivides the set of reachable destinations by the stage's radix,
//! and dilation provides multiple equivalent wires per logical direction
//! (paper §2, Figure 1; \[16\], \[23\]).
//!
//! The builder generalizes the paper's Figure 1: any number of stages,
//! per-stage router shapes and dilations, two endpoint-side port counts,
//! and deterministic or randomized inter-stage wiring. Validation
//! enforces the counting identities that make the construction close:
//! the product of stage radices must equal the endpoint count, and wire
//! counts must balance at every stage boundary.
//!
//! # Slot numbering
//!
//! The network numbers every channel end once, densely, and a simulator
//! indexes flat arrays with these numbers instead of resolving a
//! `(stage, router, port)` triple per access:
//!
//! * **routers**, stage-major: `router_index(s, r) = R[s] + r`;
//! * **forward slots**, one per router forward (input-side) port:
//!   `fslot(s, r, f) = F[s] + r·i + f`;
//! * **backward slots**, one per router backward (output-side) port:
//!   `bslot(s, r, b) = B[s] + r·o + b`;
//! * **endpoint slots**, one per endpoint port: `ep_slot(e, p) = e·ep + p`,
//!
//! where `R[s]`, `F[s]` and `B[s]` count the routers, forward and
//! backward ports of the stages before `s`. The wiring is stored in the
//! same order: the link out of backward slot `j` and the injection wire
//! out of endpoint slot `k` are one table entry each.

use crate::graph::LinkTarget;
use crate::wiring;
use core::fmt;
use metro_core::header::HeaderPlan;
use metro_core::RandomSource;

/// The shape of the routers used in one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSpec {
    /// Forward ports per router, `i`.
    pub forward_ports: usize,
    /// Backward ports per router, `o`.
    pub backward_ports: usize,
    /// Configured dilation `d`; the stage's radix is `o / d`.
    pub dilation: usize,
}

impl StageSpec {
    /// Creates a stage spec.
    #[must_use]
    pub fn new(forward_ports: usize, backward_ports: usize, dilation: usize) -> Self {
        Self {
            forward_ports,
            backward_ports,
            dilation,
        }
    }

    /// The stage's radix, `o / d`.
    #[must_use]
    pub fn radix(&self) -> usize {
        self.backward_ports / self.dilation
    }

    /// Bits of routing information this stage consumes, `log2(radix)`.
    #[must_use]
    pub fn digit_bits(&self) -> usize {
        metro_core::params::log2_exact(self.radix())
    }
}

/// Inter-stage wiring style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WiringStyle {
    /// Regular strided wiring; dilated copies land in distinct
    /// downstream routers.
    Deterministic,
    /// Randomized wiring with the same distinctness guarantee — the
    /// construction behind randomly-wired multibutterflies (\[15\], \[16\]).
    #[default]
    Randomized,
}

/// A validation error from [`Multibutterfly::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The product of stage radices must equal the endpoint count.
    AddressSpaceMismatch {
        /// Product of the stage radices.
        radix_product: usize,
        /// Declared endpoint count.
        endpoints: usize,
    },
    /// A stage's dilation does not divide its backward port count.
    DilationMismatch {
        /// The offending stage.
        stage: usize,
    },
    /// Wire counts do not balance at a stage boundary.
    UnbalancedBoundary {
        /// The stage whose input boundary is unbalanced (stage count =
        /// endpoint delivery boundary).
        stage: usize,
        /// Wires arriving at the boundary.
        wires: usize,
        /// Ports available at the boundary.
        ports: usize,
    },
    /// Routers cannot be divided evenly among destination groups.
    IndivisibleGroups {
        /// The offending stage.
        stage: usize,
    },
    /// A stage radix or router count is not a power of two (required so
    /// route digits are whole bit fields).
    NotPowerOfTwo {
        /// The offending stage.
        stage: usize,
    },
    /// `endpoint_ports` is zero: an endpoint needs a way into the
    /// network.
    NoEndpointPorts,
    /// The stage list is empty: the endpoints' wires need a first stage
    /// to enter and a last one to leave by.
    NoStages,
    /// More wires cross a stage boundary than a wiring table indexes
    /// (`u32::MAX`).
    TooManyWires {
        /// The boundary (stage count = endpoint delivery boundary).
        stage: usize,
        /// Wires crossing it.
        wires: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AddressSpaceMismatch {
                radix_product,
                endpoints,
            } => write!(
                f,
                "stage radices multiply to {radix_product} but the network has {endpoints} endpoints"
            ),
            Self::DilationMismatch { stage } => {
                write!(f, "stage {stage} dilation does not divide its port count")
            }
            Self::UnbalancedBoundary {
                stage,
                wires,
                ports,
            } => write!(
                f,
                "boundary into stage {stage} has {wires} wires for {ports} ports"
            ),
            Self::IndivisibleGroups { stage } => {
                write!(f, "stage {stage} routers do not divide evenly into groups")
            }
            Self::NotPowerOfTwo { stage } => {
                write!(f, "stage {stage} radix is not a power of two")
            }
            Self::NoEndpointPorts => write!(f, "endpoint_ports must be at least 1"),
            Self::NoStages => write!(f, "a network needs at least one stage"),
            Self::TooManyWires { stage, wires } => write!(
                f,
                "boundary into stage {stage} has {wires} wires, over {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Specification of a multibutterfly network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultibutterflySpec {
    /// Number of network endpoints (sources and destinations).
    pub endpoints: usize,
    /// Ports per endpoint, both entering and leaving the network
    /// (2 in Figures 1 and 3).
    pub endpoint_ports: usize,
    /// Stage shapes, injection side first.
    pub stages: Vec<StageSpec>,
    /// Inter-stage wiring style.
    pub wiring: WiringStyle,
    /// Seed for randomized wiring.
    pub seed: u64,
}

impl MultibutterflySpec {
    /// The 16-endpoint network of paper Figure 1: 4×2 (inputs × radix)
    /// dilation-2 routers in the first two stages and 4×4 dilation-1
    /// routers in the final stage; two ports per endpoint.
    #[must_use]
    pub fn figure1() -> Self {
        Self {
            endpoints: 16,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 0x1611,
        }
    }

    /// The 64-endpoint network of the paper's Figure 3 simulation:
    /// three stages of radix-4 routers, dilation 2 in the first two
    /// stages (8×8 parts) and dilation 1 in the last (4×4 parts); two
    /// ports per endpoint.
    #[must_use]
    pub fn figure3() -> Self {
        Self {
            endpoints: 64,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(8, 8, 2),
                StageSpec::new(8, 8, 2),
                StageSpec::new(4, 4, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 0x1994,
        }
    }

    /// The 32-node multibutterfly the `t_20,32` figure of merit of
    /// Tables 3–5 is defined over: four stages "constructed like the
    /// one shown in Figure 1" — three radix-2 dilation-2 stages and a
    /// radix-4 dilation-1 delivery stage, two ports per endpoint.
    #[must_use]
    pub fn paper32() -> Self {
        Self {
            endpoints: 32,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 0x2032,
        }
    }

    /// The Figure 3 network with an **extra randomizing stage** in
    /// front: a radix-1, dilation-8 stage that consumes no routing
    /// digits and scatters every connection across all sixteen stage-1
    /// routers — the classic extra-stage construction for fault
    /// tolerance and congestion spreading in MINs (the approach of the
    /// paper's reference \[10\]).
    #[must_use]
    pub fn figure3_extra_stage() -> Self {
        Self {
            endpoints: 64,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(8, 8, 8), // radix 1: pure randomizer
                StageSpec::new(8, 8, 2),
                StageSpec::new(8, 8, 2),
                StageSpec::new(4, 4, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 0x1995,
        }
    }

    /// A small 8-endpoint network handy for tests: two radix-2
    /// dilation-2 stages and a radix-2 dilation-1 final stage.
    #[must_use]
    pub fn small8() -> Self {
        Self {
            endpoints: 8,
            endpoint_ports: 2,
            stages: vec![
                StageSpec::new(4, 4, 2),
                StageSpec::new(4, 4, 2),
                StageSpec::new(2, 2, 1),
            ],
            wiring: WiringStyle::Randomized,
            seed: 8,
        }
    }

    /// Sets the wiring style (builder-style).
    #[must_use]
    pub fn with_wiring(mut self, wiring: WiringStyle) -> Self {
        self.wiring = wiring;
        self
    }

    /// Sets the wiring seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One end of a wire in a wiring table: an element — a router or an
/// endpoint, as the table's stage fixes — and a port on it, 8 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: u32,
    port: u32,
}

impl Slot {
    /// A slot no wire has set yet.
    const UNSET: Self = Self {
        node: u32::MAX,
        port: u32::MAX,
    };

    /// The slot of `port` on element `node`; build checked that every
    /// index on a boundary is below its wire count, which fits `u32`.
    fn new(node: usize, port: usize) -> Self {
        let narrow = |v: usize| u32::try_from(v).expect("build bounds wires by u32::MAX");
        Self {
            node: narrow(node),
            port: narrow(port),
        }
    }

    /// `(element, port)` as indices.
    fn get(self) -> (usize, usize) {
        (self.node as usize, self.port as usize)
    }
}

/// Where a stage's routers and ports start in the [slot
/// numbering](self#slot-numbering).
#[derive(Debug, Clone, Copy, Default)]
struct StageBase {
    router: usize,
    fslot: usize,
    bslot: usize,
}

/// A constructed multibutterfly network: routers arranged in stages with
/// explicit port-level wiring, ready to be instantiated by the
/// simulator or analyzed structurally.
///
/// Each wiring table entry is a `Slot` of 8 bytes: a stage's links
/// all land on the next stage's routers, or past the last stage on
/// endpoints, so the stage says which [`LinkTarget`] the accessors
/// return.
#[derive(Debug, Clone)]
pub struct Multibutterfly {
    spec: MultibutterflySpec,
    groups_per_stage: Vec<usize>,
    /// `bases[s]` — where stage `s` starts; `bases[stages]` holds the
    /// totals.
    bases: Vec<StageBase>,
    /// `links[bslot(s, r, b)]` — where backward port `b` of router `r`
    /// in stage `s` connects: a router of stage `s + 1`, or an endpoint
    /// after the last stage.
    links: Vec<Slot>,
    /// `injections[ep_slot(e, p)]` — the stage-0 (router, forward port)
    /// endpoint `e`'s output port `p` connects to.
    injections: Vec<Slot>,
    /// `deliveries[ep_slot(e, p)]` — the last-stage (router, backward
    /// port) feeding endpoint `e`'s input port `p`.
    deliveries: Vec<Slot>,
}

impl Multibutterfly {
    /// Builds the network described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the specification's counting
    /// identities do not close (see the module docs).
    pub fn build(spec: &MultibutterflySpec) -> Result<Self, TopologyError> {
        let s_count = spec.stages.len();
        let mut rng = RandomSource::new(spec.seed);

        // --- validation ---
        if spec.endpoint_ports == 0 {
            return Err(TopologyError::NoEndpointPorts);
        }
        if s_count == 0 {
            return Err(TopologyError::NoStages);
        }
        let mut radix_product = 1usize;
        for (s, st) in spec.stages.iter().enumerate() {
            if st.dilation == 0 || st.backward_ports % st.dilation != 0 {
                return Err(TopologyError::DilationMismatch { stage: s });
            }
            let r = st.radix();
            if !r.is_power_of_two() {
                return Err(TopologyError::NotPowerOfTwo { stage: s });
            }
            radix_product *= r;
        }
        if radix_product != spec.endpoints {
            return Err(TopologyError::AddressSpaceMismatch {
                radix_product,
                endpoints: spec.endpoints,
            });
        }

        // Every index a wiring table holds is below its boundary's wire
        // count, so a count that fits `u32` keeps each entry 8 bytes.
        let fits = |stage: usize, wires: Option<usize>| match wires {
            Some(wires) if wires <= u32::MAX as usize => Ok(wires),
            _ => Err(TopologyError::TooManyWires {
                stage,
                wires: wires.unwrap_or(usize::MAX),
            }),
        };
        let mut wires = fits(0, spec.endpoints.checked_mul(spec.endpoint_ports))?;
        let mut groups = 1usize;
        let mut groups_per_stage = Vec::with_capacity(s_count);
        let mut bases = vec![StageBase::default()];
        for (s, st) in spec.stages.iter().enumerate() {
            if !wires.is_multiple_of(st.forward_ports) {
                return Err(TopologyError::UnbalancedBoundary {
                    stage: s,
                    wires,
                    ports: st.forward_ports,
                });
            }
            let routers = wires / st.forward_ports;
            if !routers.is_multiple_of(groups) {
                return Err(TopologyError::IndivisibleGroups { stage: s });
            }
            groups_per_stage.push(groups);
            let fslots = wires;
            wires = fits(s + 1, routers.checked_mul(st.backward_ports))?;
            let at = bases[s];
            bases.push(StageBase {
                router: at.router + routers,
                fslot: at.fslot + fslots,
                bslot: at.bslot + wires,
            });
            groups *= st.radix();
        }
        // Delivery boundary: `wires` final wires over `endpoints`
        // destinations must give exactly `endpoint_ports` each.
        if wires != spec.endpoints * spec.endpoint_ports {
            return Err(TopologyError::UnbalancedBoundary {
                stage: s_count,
                wires,
                ports: spec.endpoints * spec.endpoint_ports,
            });
        }

        // --- storage: one table per boundary, in slot order ---
        let ep_slots = spec.endpoints * spec.endpoint_ports;
        let mut net = Self {
            spec: spec.clone(),
            links: vec![Slot::UNSET; bases[s_count].bslot],
            groups_per_stage,
            bases,
            injections: vec![Slot::UNSET; ep_slots],
            deliveries: vec![Slot::UNSET; ep_slots],
        };

        // --- injection boundary: endpoints -> stage 0 ---
        {
            let st = spec.stages[0];
            let assignment = match spec.wiring {
                WiringStyle::Deterministic => wiring::deterministic(
                    spec.endpoints,
                    spec.endpoint_ports,
                    net.routers_in_stage(0),
                    st.forward_ports,
                ),
                WiringStyle::Randomized => wiring::randomized(
                    spec.endpoints,
                    spec.endpoint_ports,
                    net.routers_in_stage(0),
                    st.forward_ports,
                    &mut rng,
                ),
            };
            for e in 0..spec.endpoints {
                for p in 0..spec.endpoint_ports {
                    let slot = assignment[wiring::wire_index(e, p, spec.endpoints)];
                    let router = slot / st.forward_ports;
                    let port = slot % st.forward_ports;
                    let k = net.ep_slot(e, p);
                    net.injections[k] = Slot::new(router, port);
                }
            }
        }

        // --- inter-stage and delivery boundaries ---
        for s in 0..s_count {
            let st = spec.stages[s];
            let rpg = net.routers_in_stage(s) / net.groups_at_stage(s);
            let radix = st.radix();
            for g in 0..net.groups_at_stage(s) {
                for j in 0..radix {
                    // Subgroup (s, g, j): rpg routers × dilation wires.
                    let subgroup_wires = rpg * st.dilation;
                    if s + 1 < s_count {
                        let nst = spec.stages[s + 1];
                        let down_rpg = net.routers_in_stage(s + 1) / net.groups_at_stage(s + 1);
                        let down_group = g * radix + j;
                        let assignment = match spec.wiring {
                            WiringStyle::Deterministic => {
                                wiring::deterministic(rpg, st.dilation, down_rpg, nst.forward_ports)
                            }
                            WiringStyle::Randomized => wiring::randomized(
                                rpg,
                                st.dilation,
                                down_rpg,
                                nst.forward_ports,
                                &mut rng,
                            ),
                        };
                        for t in 0..rpg {
                            for c in 0..st.dilation {
                                let up_router = g * rpg + t;
                                let bwd = j * st.dilation + c;
                                let slot = assignment[wiring::wire_index(t, c, rpg)];
                                let down_local = slot / nst.forward_ports;
                                let down_port = slot % nst.forward_ports;
                                let down_router = down_group * down_rpg + down_local;
                                let k = net.bslot(s, up_router, bwd);
                                net.links[k] = Slot::new(down_router, down_port);
                            }
                        }
                    } else {
                        // Delivery: subgroup (g, j) is destination g*radix + j.
                        let dest = g * radix + j;
                        debug_assert_eq!(subgroup_wires, spec.endpoint_ports);
                        for t in 0..rpg {
                            for c in 0..st.dilation {
                                let up_router = g * rpg + t;
                                let bwd = j * st.dilation + c;
                                let port = t * st.dilation + c;
                                let k = net.bslot(s, up_router, bwd);
                                net.links[k] = Slot::new(dest, port);
                                let k = net.ep_slot(dest, port);
                                net.deliveries[k] = Slot::new(up_router, bwd);
                            }
                        }
                    }
                }
            }
        }
        Ok(net)
    }

    /// The specification the network was built from.
    #[must_use]
    pub fn spec(&self) -> &MultibutterflySpec {
        &self.spec
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.spec.stages.len()
    }

    /// Number of endpoints.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.spec.endpoints
    }

    /// Ports per endpoint (entering and leaving).
    #[must_use]
    pub fn endpoint_ports(&self) -> usize {
        self.spec.endpoint_ports
    }

    /// The router shape used in stage `s`.
    #[must_use]
    pub fn stage_spec(&self, s: usize) -> StageSpec {
        self.spec.stages[s]
    }

    /// Number of routers in stage `s`.
    #[must_use]
    pub fn routers_in_stage(&self, s: usize) -> usize {
        self.bases[s + 1].router - self.bases[s].router
    }

    /// Total routers across all stages.
    #[must_use]
    pub fn total_routers(&self) -> usize {
        self.totals().router
    }

    /// Total forward slots across all stages.
    #[must_use]
    pub fn forward_slots(&self) -> usize {
        self.totals().fslot
    }

    /// Total backward slots across all stages.
    #[must_use]
    pub fn backward_slots(&self) -> usize {
        self.totals().bslot
    }

    /// Total endpoint slots (`endpoints × endpoint_ports`).
    #[must_use]
    pub fn endpoint_slots(&self) -> usize {
        self.injections.len()
    }

    fn totals(&self) -> StageBase {
        self.bases[self.stages()]
    }

    /// Flat index of router `r` in stage `s` (stage-major).
    #[must_use]
    pub fn router_index(&self, s: usize, r: usize) -> usize {
        self.bases[s].router + r
    }

    /// Forward slot of port `f` of router `r` in stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if stage `s` has no forward port `f`.
    #[must_use]
    pub fn fslot(&self, s: usize, r: usize, f: usize) -> usize {
        self.bases[s].fslot + row(r, f, self.spec.stages[s].forward_ports)
    }

    /// Backward slot of port `b` of router `r` in stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if stage `s` has no backward port `b`.
    #[must_use]
    pub fn bslot(&self, s: usize, r: usize, b: usize) -> usize {
        self.bases[s].bslot + row(r, b, self.spec.stages[s].backward_ports)
    }

    /// Slot of port `p` of endpoint `e`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint has no port `p`.
    #[must_use]
    pub fn ep_slot(&self, e: usize, p: usize) -> usize {
        row(e, p, self.spec.endpoint_ports)
    }

    /// Number of destination groups at the *input* of stage `s`.
    #[must_use]
    pub fn groups_at_stage(&self, s: usize) -> usize {
        self.groups_per_stage[s]
    }

    /// Where backward port `b` of router `r` in stage `s` connects.
    #[must_use]
    pub fn link(&self, s: usize, r: usize, b: usize) -> LinkTarget {
        let (node, port) = self.links[self.bslot(s, r, b)].get();
        if s + 1 < self.stages() {
            LinkTarget::Router { router: node, port }
        } else {
            LinkTarget::Endpoint {
                endpoint: node,
                port,
            }
        }
    }

    /// The stage-0 (router, forward port) endpoint `e`'s output port `p`
    /// drives.
    #[must_use]
    pub fn injection(&self, e: usize, p: usize) -> (usize, usize) {
        self.injections[self.ep_slot(e, p)].get()
    }

    /// The last-stage (router, backward port) feeding endpoint `e`'s
    /// input port `p`.
    #[must_use]
    pub fn delivery(&self, e: usize, p: usize) -> (usize, usize) {
        self.deliveries[self.ep_slot(e, p)].get()
    }

    /// Per-stage route digit widths (bits), injection side first.
    #[must_use]
    pub fn stage_digit_bits(&self) -> Vec<usize> {
        self.spec.stages.iter().map(StageSpec::digit_bits).collect()
    }

    /// The route header plan for messages crossing this network on a
    /// `w`-bit channel with `hw` header words per router.
    #[must_use]
    pub fn header_plan(&self, w: usize, hw: usize) -> HeaderPlan {
        HeaderPlan::new(&self.stage_digit_bits(), w, hw)
    }

    /// The per-stage route digits for destination `dest`.
    #[must_use]
    pub fn route_digits(&self, dest: usize) -> Vec<usize> {
        let mut digits = Vec::with_capacity(self.stages());
        let mut span = self.endpoints();
        let mut rem = dest;
        for st in &self.spec.stages {
            span /= st.radix();
            digits.push(rem / span);
            rem %= span;
        }
        digits
    }
}

/// Where port `p` of element `n` sits in a flat table of `ports` per
/// element (a router's, or an endpoint's, row).
///
/// # Panics
///
/// Panics if `p` is not one of the `ports`: the flat index would land
/// on another element's row.
fn row(n: usize, p: usize, ports: usize) -> usize {
    assert!(p < ports, "port {p} out of range for {ports} ports");
    n * ports + p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_paper_structure() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
        assert_eq!(net.endpoints(), 16);
        assert_eq!(net.stages(), 3);
        // 32 wires / 4 inputs = 8 routers per stage.
        assert_eq!(net.routers_in_stage(0), 8);
        assert_eq!(net.routers_in_stage(1), 8);
        assert_eq!(net.routers_in_stage(2), 8);
        assert_eq!(net.total_routers(), 24);
        // Groups refine 1 -> 2 -> 4 -> 16.
        assert_eq!(net.groups_at_stage(0), 1);
        assert_eq!(net.groups_at_stage(1), 2);
        assert_eq!(net.groups_at_stage(2), 4);
        assert_eq!(net.stage_digit_bits(), vec![1, 1, 2]);
    }

    #[test]
    fn figure3_has_paper_structure() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure3()).unwrap();
        assert_eq!(net.endpoints(), 64);
        assert_eq!(net.routers_in_stage(0), 16);
        assert_eq!(net.routers_in_stage(1), 16);
        assert_eq!(net.routers_in_stage(2), 32);
        assert_eq!(net.stage_digit_bits(), vec![2, 2, 2]);
    }

    /// The shapes the wiring tests run over: figure 1, figure 3 with and
    /// without its randomizing stage, the 8-endpoint net, and one
    /// deterministic wiring.
    fn specs() -> [MultibutterflySpec; 5] {
        [
            MultibutterflySpec::figure1(),
            MultibutterflySpec::figure3(),
            MultibutterflySpec::figure3_extra_stage(),
            MultibutterflySpec::small8(),
            MultibutterflySpec::figure1().with_wiring(WiringStyle::Deterministic),
        ]
    }

    #[test]
    fn every_wire_lands_exactly_once() {
        for spec in specs() {
            let net = Multibutterfly::build(&spec).unwrap();
            let last = net.stages() - 1;
            // Every forward port is fed by exactly one injection or link,
            // every endpoint input port by exactly one last-stage link.
            let mut fed = vec![0; net.forward_slots()];
            let mut delivered = vec![0; net.endpoint_slots()];
            for e in 0..net.endpoints() {
                for p in 0..net.endpoint_ports() {
                    let (r, f) = net.injection(e, p);
                    fed[net.fslot(0, r, f)] += 1;
                }
            }
            for s in 0..net.stages() {
                for r in 0..net.routers_in_stage(s) {
                    for b in 0..net.stage_spec(s).backward_ports {
                        match net.link(s, r, b) {
                            LinkTarget::Router { router, port } => {
                                assert!(s < last);
                                fed[net.fslot(s + 1, router, port)] += 1;
                            }
                            LinkTarget::Endpoint { endpoint, port } => {
                                assert_eq!(s, last);
                                delivered[net.ep_slot(endpoint, port)] += 1;
                                assert_eq!(net.delivery(endpoint, port), (r, b));
                            }
                        }
                    }
                }
            }
            assert!(fed.iter().all(|&n| n == 1), "{spec:?}: {fed:?}");
            assert!(delivered.iter().all(|&n| n == 1), "{spec:?}: {delivered:?}");
        }
    }

    #[test]
    fn slots_are_dense_and_stage_major() {
        for spec in specs() {
            let net = Multibutterfly::build(&spec).unwrap();
            let (mut router, mut fslot, mut bslot) = (0, 0, 0);
            for s in 0..net.stages() {
                let st = net.stage_spec(s);
                for r in 0..net.routers_in_stage(s) {
                    assert_eq!(net.router_index(s, r), router);
                    router += 1;
                    for f in 0..st.forward_ports {
                        assert_eq!(net.fslot(s, r, f), fslot);
                        fslot += 1;
                    }
                    for b in 0..st.backward_ports {
                        assert_eq!(net.bslot(s, r, b), bslot);
                        bslot += 1;
                    }
                }
            }
            // The totals are the port sums.
            assert_eq!(net.total_routers(), router);
            assert_eq!(net.forward_slots(), fslot);
            assert_eq!(net.backward_slots(), bslot);
            assert_eq!(net.endpoint_slots(), net.endpoints() * net.endpoint_ports());
            let last = net.endpoints() - 1;
            assert_eq!(
                net.ep_slot(last, net.endpoint_ports() - 1),
                net.endpoint_slots() - 1
            );
        }
    }

    #[test]
    fn links_respect_destination_groups() {
        // A wire in direction j from a stage-s group-g router must land
        // in group g*radix + j of stage s+1.
        let net = Multibutterfly::build(&MultibutterflySpec::figure3()).unwrap();
        for s in 0..net.stages() - 1 {
            let st = net.stage_spec(s);
            let rpg = net.routers_in_stage(s) / net.groups_at_stage(s);
            let down_rpg = net.routers_in_stage(s + 1) / net.groups_at_stage(s + 1);
            for r in 0..net.routers_in_stage(s) {
                let g = r / rpg;
                for b in 0..st.backward_ports {
                    let j = b / st.dilation;
                    let LinkTarget::Router { router, .. } = net.link(s, r, b) else {
                        panic!("expected router target");
                    };
                    assert_eq!(router / down_rpg, g * st.radix() + j);
                }
            }
        }
    }

    #[test]
    fn dilated_copies_reach_distinct_routers() {
        for style in [WiringStyle::Deterministic, WiringStyle::Randomized] {
            let net =
                Multibutterfly::build(&MultibutterflySpec::figure1().with_wiring(style)).unwrap();
            for s in 0..net.stages() - 1 {
                let st = net.stage_spec(s);
                for r in 0..net.routers_in_stage(s) {
                    for j in 0..st.radix() {
                        let mut targets: Vec<usize> = (0..st.dilation)
                            .map(|c| {
                                net.link(s, r, j * st.dilation + c)
                                    .router()
                                    .expect("router target")
                            })
                            .collect();
                        targets.sort_unstable();
                        targets.dedup();
                        assert_eq!(targets.len(), st.dilation, "{style:?} s{s} r{r} j{j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "port 4 out of range for 4 ports")]
    fn a_port_past_the_router_is_refused_not_read_from_the_next_row() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
        let _ = net.link(0, 0, 4);
    }

    #[test]
    fn endpoint_output_ports_reach_distinct_routers() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
        for e in 0..net.endpoints() {
            let (r0, _) = net.injection(e, 0);
            let (r1, _) = net.injection(e, 1);
            assert_ne!(r0, r1, "endpoint {e} ports must hit distinct routers");
        }
    }

    #[test]
    fn route_digits_are_mixed_radix_msb_first() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
        // Radices 2, 2, 4: dest 13 = 1*8 + 1*4 + 1 -> digits [1, 1, 1].
        assert_eq!(net.route_digits(13), vec![1, 1, 1]);
        assert_eq!(net.route_digits(0), vec![0, 0, 0]);
        assert_eq!(net.route_digits(15), vec![1, 1, 3]);
        // And they agree with the header plan's bit slicing.
        let plan = net.header_plan(8, 0);
        for dest in 0..16 {
            assert_eq!(net.route_digits(dest), plan.digits_for(dest));
        }
    }

    #[test]
    fn extra_stage_network_builds_with_radix_one_front() {
        let net = Multibutterfly::build(&MultibutterflySpec::figure3_extra_stage()).unwrap();
        assert_eq!(net.endpoints(), 64);
        assert_eq!(net.stages(), 4);
        // The randomizer stage consumes no routing bits.
        assert_eq!(net.stage_digit_bits(), vec![0, 2, 2, 2]);
        assert_eq!(net.stage_spec(0).radix(), 1);
        // Every destination's digits still address the space.
        assert_eq!(net.route_digits(63), vec![0, 3, 3, 3]);
        // The groups only start refining after the randomizer.
        assert_eq!(net.groups_at_stage(0), 1);
        assert_eq!(net.groups_at_stage(1), 1);
        assert_eq!(net.groups_at_stage(2), 4);
    }

    /// metro1k's tables hold some 30,000 entries: a field that regrows
    /// one fails here.
    #[test]
    fn a_wiring_table_entry_is_at_most_8_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 8);
    }

    #[test]
    fn rejects_more_wires_than_a_table_indexes() {
        // Six radix-64 stages address 2³⁶ endpoints: refused before a
        // table is allocated.
        let spec = MultibutterflySpec {
            endpoints: 1 << 36,
            endpoint_ports: 1,
            stages: vec![StageSpec::new(64, 64, 1); 6],
            wiring: WiringStyle::Deterministic,
            seed: 0,
        };
        assert_eq!(
            Multibutterfly::build(&spec).err(),
            Some(TopologyError::TooManyWires {
                stage: 0,
                wires: 1 << 36
            })
        );
    }

    #[test]
    fn rejects_mismatched_address_space() {
        let mut spec = MultibutterflySpec::figure1();
        spec.endpoints = 32;
        assert!(matches!(
            Multibutterfly::build(&spec),
            Err(TopologyError::AddressSpaceMismatch { .. })
        ));
    }

    #[test]
    fn rejects_an_endpoint_with_no_ports() {
        let mut spec = MultibutterflySpec::figure1();
        spec.endpoint_ports = 0;
        assert_eq!(
            Multibutterfly::build(&spec).err(),
            Some(TopologyError::NoEndpointPorts)
        );
    }

    #[test]
    fn rejects_an_empty_stage_list() {
        // One endpoint is what no stages address (the empty radix
        // product), so only this check stands before the wiring.
        let spec = MultibutterflySpec {
            endpoints: 1,
            endpoint_ports: 1,
            stages: Vec::new(),
            wiring: WiringStyle::Deterministic,
            seed: 0,
        };
        assert_eq!(
            Multibutterfly::build(&spec).err(),
            Some(TopologyError::NoStages)
        );
        let spec = MultibutterflySpec {
            endpoints: 16,
            ..spec
        };
        assert_eq!(
            Multibutterfly::build(&spec).err(),
            Some(TopologyError::NoStages)
        );
    }

    #[test]
    fn rejects_bad_dilation() {
        let mut spec = MultibutterflySpec::figure1();
        spec.stages[0].dilation = 3;
        assert!(matches!(
            Multibutterfly::build(&spec),
            Err(TopologyError::DilationMismatch { stage: 0 })
                | Err(TopologyError::NotPowerOfTwo { stage: 0 })
        ));
    }

    #[test]
    fn deterministic_wiring_is_reproducible() {
        let spec = MultibutterflySpec::figure1().with_wiring(WiringStyle::Deterministic);
        let a = Multibutterfly::build(&spec).unwrap();
        let b = Multibutterfly::build(&spec).unwrap();
        for s in 0..a.stages() {
            for r in 0..a.routers_in_stage(s) {
                for p in 0..a.stage_spec(s).backward_ports {
                    assert_eq!(a.link(s, r, p), b.link(s, r, p));
                }
            }
        }
    }

    #[test]
    fn randomized_wiring_depends_on_seed() {
        let a = Multibutterfly::build(&MultibutterflySpec::figure1().with_seed(1)).unwrap();
        let b = Multibutterfly::build(&MultibutterflySpec::figure1().with_seed(2)).unwrap();
        let mut differs = false;
        for s in 0..a.stages() {
            for r in 0..a.routers_in_stage(s) {
                for p in 0..a.stage_spec(s).backward_ports {
                    if a.link(s, r, p) != b.link(s, r, p) {
                        differs = true;
                    }
                }
            }
        }
        assert!(differs);
    }
}

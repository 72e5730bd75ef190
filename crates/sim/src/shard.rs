//! Deterministic partitioning of a flat fabric into tick shards.
//!
//! The flat engine's tick pass (`engine::flat`) visits the hot routers
//! and NICs of one shard at a time, each driving only its own regions
//! of the drive bus. Because the topology's [slot
//! numbering](metro_topo::multibutterfly#slot-numbering) is
//! stage-major and contiguous per router, a partition of the flat
//! *router* order induces contiguous cuts of the forward-slot,
//! backward-slot, and endpoint-slot arrays — so each shard owns plain
//! subslices of every bus array, and the sharded tick needs no locks on
//! the hot path.
//!
//! A [`ShardPlan`] is pure topology: built once per simulation from
//! the per-stage router and port counts, never consulted per-slot
//! during a tick. Cuts are
//! placed by cumulative port weight (a router costs `fports + bports`
//! channel slots of work), each boundary landing on the prefix-weight
//! point nearest its ideal `k·W/N` target, which bounds every shard's
//! weight within one maximum router weight of the ideal share.

use metro_topo::multibutterfly::Multibutterfly;

/// A deterministic assignment of routers and endpoints, with their
/// slots, to `N` shards. Built by [`ShardPlan::build`]; identical
/// inputs yield identical plans (no randomness, no host dependence).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Where each shard starts, `N + 1` entries: shard `k` owns every
    /// index from `starts[k]` up to `starts[k + 1]`, in each space.
    starts: Vec<ShardBase>,
}

/// Where a shard starts in each index space it owns a range of — for
/// shard `N`, the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardBase {
    /// First endpoint.
    pub(crate) endpoint: usize,
    /// First endpoint slot.
    pub(crate) ep_slot: usize,
    /// First router, flat numbering.
    pub(crate) router: usize,
    /// First forward slot.
    pub(crate) fslot: usize,
    /// First backward slot.
    pub(crate) bslot: usize,
}

/// Splits `[0, total_weight]` into `n` nearest-boundary cuts over the
/// prefix-weight array, returning item-index cuts (`n + 1` entries).
/// `prefix` has `items + 1` entries with `prefix[0] == 0`.
fn weighted_cuts(prefix: &[u64], n: usize) -> Vec<usize> {
    let items = prefix.len() - 1;
    let total = u128::from(prefix[items]);
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0usize);
    let mut i = 0usize;
    for k in 1..n {
        // Ideal boundary k·W/N; advance to the first prefix at or past
        // it, then keep whichever neighbour is nearer (ties go high,
        // i.e. the first index whose prefix reaches the target).
        let target = u128::from(k as u64) * total;
        while i < items && u128::from(prefix[i]) * (n as u128) < target {
            i += 1;
        }
        let cut = if i > 0 {
            let above = u128::from(prefix[i]) * (n as u128) - target;
            let below = target - u128::from(prefix[i - 1]) * (n as u128);
            if below < above {
                i - 1
            } else {
                i
            }
        } else {
            i
        };
        // Nearest-boundary picks are nondecreasing for increasing
        // targets, but clamp defensively so the plan is always valid.
        cuts.push(cut.max(*cuts.last().expect("cuts never empty")));
    }
    cuts.push(items);
    cuts
}

impl ShardPlan {
    /// Builds the partition of `topo` into `shards` shards.
    ///
    /// Any `shards ≥ 1` is accepted — shards beyond the router count
    /// simply own empty ranges (callers that want useful parallelism
    /// cap the count themselves). The plan is a pure function of
    /// `(topo, shards)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn build(topo: &Multibutterfly, shards: usize) -> Self {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        // Prefix sums of port weight over the flat router order, with
        // each router's first forward and backward slot: slots are
        // stage-major and contiguous per router, so a router cut is a
        // slot cut too.
        let mut prefix = Vec::with_capacity(topo.total_routers() + 1);
        let mut weight = 0u64;
        for s in 0..topo.stages() {
            let st = topo.stage_spec(s);
            for r in 0..topo.routers_in_stage(s) {
                prefix.push((weight, topo.fslot(s, r, 0), topo.bslot(s, r, 0)));
                weight += (st.forward_ports + st.backward_ports) as u64;
            }
        }
        prefix.push((weight, topo.forward_slots(), topo.backward_slots()));
        let weights: Vec<u64> = prefix.iter().map(|p| p.0).collect();
        let router_cut = weighted_cuts(&weights, shards);
        // Endpoints carry uniform weight: plain even cuts.
        let ep_prefix: Vec<u64> = (0..=topo.endpoints() as u64).collect();
        let ep_cut = weighted_cuts(&ep_prefix, shards);
        let starts = router_cut
            .iter()
            .zip(&ep_cut)
            .map(|(&router, &endpoint)| ShardBase {
                endpoint,
                ep_slot: topo.ep_slot(endpoint, 0),
                router,
                fslot: prefix[router].1,
                bslot: prefix[router].2,
            })
            .collect();
        Self { starts }
    }

    /// Shard count `N`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Where shard `k` starts (`k == N`: the totals).
    #[must_use]
    pub(crate) fn base(&self, k: usize) -> ShardBase {
        self.starts[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_topo::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};

    fn topo_for(spec: &MultibutterflySpec) -> Multibutterfly {
        Multibutterfly::build(spec).expect("valid spec")
    }

    /// Shard `k`'s routers.
    fn routers(plan: &ShardPlan, k: usize) -> std::ops::Range<usize> {
        plan.base(k).router..plan.base(k + 1).router
    }

    /// Shard `k`'s router port weight (`Σ fports + bports`).
    fn weight(topo: &Multibutterfly, plan: &ShardPlan, k: usize) -> u64 {
        (0..topo.stages())
            .flat_map(|s| (0..topo.routers_in_stage(s)).map(move |r| (s, r)))
            .filter(|&(s, r)| routers(plan, k).contains(&topo.router_index(s, r)))
            .map(|(s, _)| ports(topo, s))
            .sum()
    }

    /// A stage-`s` router's port weight.
    fn ports(topo: &Multibutterfly, s: usize) -> u64 {
        let st = topo.stage_spec(s);
        (st.forward_ports + st.backward_ports) as u64
    }

    /// The invariants every plan must satisfy regardless of balance:
    /// cuts cover and tile the index spaces, and each slot cut is the
    /// first slot of the router or endpoint at its cut — a shard's bus
    /// regions are exactly its members'.
    fn check_plan_invariants(topo: &Multibutterfly, plan: &ShardPlan) {
        let n = plan.shards();
        assert_eq!(plan.base(0), ShardBase::default());
        let total = ShardBase {
            endpoint: topo.endpoints(),
            ep_slot: topo.endpoint_slots(),
            router: topo.total_routers(),
            fslot: topo.forward_slots(),
            bslot: topo.backward_slots(),
        };
        assert_eq!(plan.base(n), total);
        for k in 0..n {
            let (a, b) = (plan.base(k), plan.base(k + 1));
            assert!(a.endpoint <= b.endpoint && a.router <= b.router);
            assert!(a.fslot <= b.fslot && a.bslot <= b.bslot);
        }
        for k in 0..=n {
            assert_eq!(
                plan.base(k).ep_slot,
                plan.base(k).endpoint * topo.endpoint_ports()
            );
        }
        for s in 0..topo.stages() {
            for r in 0..topo.routers_in_stage(s) {
                let flat = topo.router_index(s, r);
                for k in (0..=n).filter(|&k| plan.base(k).router == flat) {
                    assert_eq!(plan.base(k).fslot, topo.fslot(s, r, 0));
                    assert_eq!(plan.base(k).bslot, topo.bslot(s, r, 0));
                }
            }
        }
    }

    /// A deterministic pseudo-random walk over small valid specs:
    /// power-of-two radixes, 1–4 stages, endpoint counts matching the
    /// address space. (Hand-rolled — the workspace vendors no proptest
    /// for the sim crate.)
    fn spec_from_seed(seed: u64) -> MultibutterflySpec {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut bits = move |n: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & ((1 << n) - 1)
        };
        let stages = 1 + (bits(2) as usize % 3); // 1..=3
        let mut dirs = Vec::with_capacity(stages);
        let mut stage_specs = Vec::with_capacity(stages);
        for _ in 0..stages {
            let dir = 1usize << (1 + bits(1)); // 2 or 4 logical dirs
            let dilation = 1usize << bits(1); // 1 or 2
            dirs.push(dir);
            stage_specs.push(StageSpec {
                forward_ports: dir * dilation,
                backward_ports: dir * dilation,
                dilation,
            });
        }
        let endpoints = dirs.iter().product::<usize>();
        MultibutterflySpec {
            endpoints,
            endpoint_ports: 1 + (bits(1) as usize),
            stages: stage_specs,
            wiring: WiringStyle::Randomized,
            seed: 0x1994 ^ seed,
        }
    }

    #[test]
    fn property_cuts_tile_every_index_space_across_random_specs() {
        let mut valid = 0usize;
        for seed in 0..60u64 {
            let spec = spec_from_seed(seed);
            let Ok(topo) = Multibutterfly::build(&spec) else {
                continue;
            };
            valid += 1;
            for shards in [1usize, 2, 3, 4, 7] {
                let plan = ShardPlan::build(&topo, shards);
                check_plan_invariants(&topo, &plan);
            }
        }
        assert!(valid >= 10, "generator exercised only {valid} valid specs");
    }

    #[test]
    fn shards_beyond_router_count_leave_trailing_shards_empty_but_valid() {
        // figure1: three stages of 8 routers each = 24 routers total.
        let topo = topo_for(&MultibutterflySpec::figure1());
        let n = topo.total_routers();
        let plan = ShardPlan::build(&topo, n + 5);
        check_plan_invariants(&topo, &plan);
        let empty = (0..plan.shards())
            .filter(|&k| routers(&plan, k).is_empty())
            .count();
        assert!(empty >= 5, "expected at least 5 empty shards, got {empty}");
    }

    #[test]
    fn single_stage_topology_partitions_cleanly() {
        // One stage of 4×4 dilation-1 routers delivering 4 endpoints
        // through 2 ports each: 8 wires / 4 forward ports = 2 routers.
        let spec = MultibutterflySpec {
            endpoints: 4,
            endpoint_ports: 2,
            stages: vec![StageSpec {
                forward_ports: 4,
                backward_ports: 4,
                dilation: 1,
            }],
            wiring: WiringStyle::Randomized,
            seed: 0x5151,
        };
        let topo = topo_for(&spec);
        for shards in [1usize, 2, 3, 4] {
            let plan = ShardPlan::build(&topo, shards);
            check_plan_invariants(&topo, &plan);
        }
        let plan = ShardPlan::build(&topo, 2);
        assert_eq!(routers(&plan, 0), 0..1);
        assert_eq!(routers(&plan, 1), 1..2);
    }

    #[test]
    fn property_weight_balance_within_bound() {
        // Balance bound: when the ideal share W/N is at least three
        // times the heaviest single router, nearest-boundary cuts keep
        // max/min shard weight ≤ 2. (Each boundary lands within one
        // max router weight of ideal, so weights live in
        // [W/N − max_w, W/N + max_w] and the ratio is bounded by
        // (3+1)/(3−1) = 2.)
        for seed in 0..60u64 {
            let spec = spec_from_seed(seed);
            let Ok(topo) = Multibutterfly::build(&spec) else {
                continue;
            };
            let max_w = (0..topo.stages())
                .map(|s| ports(&topo, s))
                .max()
                .expect("at least one stage");
            let total: u64 = (0..topo.stages())
                .map(|s| topo.routers_in_stage(s) as u64 * ports(&topo, s))
                .sum();
            for shards in 2..=4usize {
                if total / (shards as u64) < 3 * max_w {
                    continue; // bound only claimed when shares dominate routers
                }
                let plan = ShardPlan::build(&topo, shards);
                let weights: Vec<u64> = (0..shards).map(|k| weight(&topo, &plan, k)).collect();
                assert_eq!(weights.iter().sum::<u64>(), total);
                let max = *weights.iter().max().expect("nonempty");
                let min = *weights.iter().min().expect("nonempty");
                assert!(min > 0, "empty shard under a dominating share: {weights:?}");
                assert!(
                    max <= 2 * min,
                    "imbalance {weights:?} (max {max} / min {min}) for seed {seed}, \
                     {shards} shards"
                );
            }
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let topo = topo_for(&MultibutterflySpec::figure3());
        let a = ShardPlan::build(&topo, 4);
        let b = ShardPlan::build(&topo, 4);
        assert_eq!(a.starts, b.starts);
    }
}

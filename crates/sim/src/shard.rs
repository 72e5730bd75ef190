//! Deterministic partitioning of a flat fabric into tick shards.
//!
//! The flat engine's cycle (see `network::tick_flat`) is three phases
//! over disjoint slot ranges: components drive the bus, wires consume
//! the bus into the next arena, and staged forward-lane words are
//! gathered to their (possibly remote) target slots. Because the slot
//! scheme of [`FlatLinks`] is stage-major and contiguous per router, a
//! partition of the flat *router* order induces contiguous cuts of the
//! forward-slot, backward-slot, and endpoint-slot arrays — so each
//! shard owns plain subslices of every arena and bus array, and the
//! sharded tick needs no locks on the hot path.
//!
//! A [`ShardPlan`] is pure topology: built once per simulation from
//! the link table, never consulted per-slot during a tick. Cuts are
//! placed by cumulative port weight (a router costs `fports + bports`
//! channel slots of work), each boundary landing on the prefix-weight
//! point nearest its ideal `k·W/N` target, which bounds every shard's
//! weight within one maximum router weight of the ideal share.

use metro_topo::flatlinks::{FlatLinks, FlatTarget};

/// A deterministic assignment of routers, endpoints, and wires to `N`
/// shards, with the precomputed gather lists the sharded tick's third
/// phase walks. Built by [`ShardPlan::build`]; identical inputs yield
/// identical plans (no randomness, no host dependence).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard count `N` (as requested; shards may own empty ranges).
    shards: usize,
    /// Flat-router-index cuts, `N + 1` entries: shard `k` owns routers
    /// `router_cut[k]..router_cut[k + 1]`.
    pub(crate) router_cut: Vec<usize>,
    /// Endpoint-index cuts, `N + 1` entries.
    pub(crate) ep_cut: Vec<usize>,
    /// Forward-slot cuts induced by `router_cut`.
    pub(crate) f_cut: Vec<usize>,
    /// Backward-slot cuts induced by `router_cut`.
    pub(crate) b_cut: Vec<usize>,
    /// Endpoint-slot cuts induced by `ep_cut` (`ep_cut[k] · ep_ports`).
    pub(crate) eps_cut: Vec<usize>,
    /// Per-shard router port weight (`Σ fports + bports`), for balance
    /// inspection and tests.
    weights: Vec<u64>,
    /// Per target-owner shard: `(fslot, ep_slot)` pairs — stage-0
    /// forward slots fed by injection wires, with the staging index the
    /// wire's forward output was parked at.
    pub(crate) fwd_from_inj: Vec<Vec<(u32, u32)>>,
    /// Per target-owner shard: `(fslot, bslot)` pairs — forward slots
    /// fed by inter-stage wires.
    pub(crate) fwd_from_bwd: Vec<Vec<(u32, u32)>>,
    /// Per target-owner shard: `(ep_slot, bslot)` pairs — endpoint
    /// input slots fed by delivery-boundary wires.
    pub(crate) ep_in_from_bwd: Vec<Vec<(u32, u32)>>,
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

/// The owning shard of item `idx` under `cuts` (binary search over the
/// `n + 1` cut array).
fn owner_of(cuts: &[usize], idx: usize) -> usize {
    debug_assert!(idx < *cuts.last().expect("cuts never empty"));
    // partition_point: first k with cuts[k] > idx; its predecessor's
    // range contains idx.
    cuts.partition_point(|&c| c <= idx) - 1
}

impl ShardPlan {
    /// Builds the partition of `links` into `shards` shards.
    ///
    /// Any `shards ≥ 1` is accepted — shards beyond the router count
    /// simply own empty ranges (callers that want useful parallelism
    /// cap the count themselves). The plan is a pure function of
    /// `(links, shards)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn build(links: &FlatLinks, shards: usize) -> Self {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let n_routers = links.n_routers();

        // Prefix port weights over the flat router order.
        let mut prefix = Vec::with_capacity(n_routers + 1);
        prefix.push(0u64);
        for s in 0..links.stages() {
            let w = (links.forward_ports(s) + links.backward_ports(s)) as u64;
            for _ in 0..links.routers_in_stage(s) {
                let last = *prefix.last().expect("prefix never empty");
                prefix.push(last + w);
            }
        }
        let router_cut = weighted_cuts(&prefix, shards);
        let weights = (0..shards)
            .map(|k| prefix[router_cut[k + 1]] - prefix[router_cut[k]])
            .collect();

        // Endpoints carry uniform weight: plain even cuts.
        let ep_prefix: Vec<u64> = (0..=links.endpoints()).map(|e| e as u64).collect();
        let ep_cut = weighted_cuts(&ep_prefix, shards);

        // A router cut induces slot cuts: the first forward/backward
        // slot of the cut router (slots are stage-major, contiguous
        // per router, in flat router order).
        let slot_at = |flat: usize, fwd: bool| -> usize {
            let mut base = 0usize;
            for s in 0..links.stages() {
                let n = links.routers_in_stage(s);
                if flat < base + n {
                    let r = flat - base;
                    return if fwd {
                        links.fslot(s, r, 0)
                    } else {
                        links.bslot(s, r, 0)
                    };
                }
                base += n;
            }
            if fwd {
                links.n_fwd_slots()
            } else {
                links.n_bwd_slots()
            }
        };
        let f_cut: Vec<usize> = router_cut.iter().map(|&c| slot_at(c, true)).collect();
        let b_cut: Vec<usize> = router_cut.iter().map(|&c| slot_at(c, false)).collect();
        let eps_cut: Vec<usize> = ep_cut.iter().map(|&c| c * links.ep_ports()).collect();

        // Gather lists: every wire's forward-lane output, grouped by
        // the shard owning the *target* slot. Iteration order (and so
        // per-shard list order) is the flat wire order — deterministic.
        let mut fwd_from_inj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        let mut fwd_from_bwd: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        let mut ep_in_from_bwd: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        for i in 0..links.n_ep_slots() {
            let t = links.inj_target(i);
            fwd_from_inj[owner_of(&f_cut, t)].push((t as u32, i as u32));
        }
        for j in 0..links.n_bwd_slots() {
            match links.bwd_target(j) {
                FlatTarget::Fwd(t) => {
                    fwd_from_bwd[owner_of(&f_cut, t as usize)].push((t, j as u32));
                }
                FlatTarget::Endpoint(i) => {
                    ep_in_from_bwd[owner_of(&eps_cut, i as usize)].push((i, j as u32));
                }
            }
        }

        Self {
            shards,
            router_cut,
            ep_cut,
            f_cut,
            b_cut,
            eps_cut,
            weights,
            fwd_from_inj,
            fwd_from_bwd,
            ep_in_from_bwd,
        }
    }

    /// Shard count `N`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard `k`'s flat-router range.
    #[must_use]
    pub fn router_range(&self, k: usize) -> std::ops::Range<usize> {
        self.router_cut[k]..self.router_cut[k + 1]
    }

    /// Shard `k`'s router port weight (`Σ fports + bports` over its
    /// routers).
    #[must_use]
    pub fn weight(&self, k: usize) -> u64 {
        self.weights[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_topo::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};

    fn links_for(spec: &MultibutterflySpec) -> FlatLinks {
        FlatLinks::build(&Multibutterfly::build(spec).expect("valid spec"))
    }

    /// Builds links for a generated spec, or `None` when the walk
    /// produced an invalid topology (the generator favours but cannot
    /// guarantee validity; the property holds over valid fabrics).
    fn try_links_for(spec: &MultibutterflySpec) -> Option<FlatLinks> {
        Multibutterfly::build(spec)
            .ok()
            .map(|t| FlatLinks::build(&t))
    }

    /// The invariants every plan must satisfy regardless of balance:
    /// cuts cover and tile the index spaces, slot cuts agree with the
    /// router cuts, and the gather lists cover every wire exactly once.
    fn check_plan_invariants(links: &FlatLinks, plan: &ShardPlan) {
        let n = plan.shards();
        assert_eq!(plan.router_cut.len(), n + 1);
        assert_eq!(plan.router_cut[0], 0);
        assert_eq!(plan.router_cut[n], links.n_routers());
        assert_eq!(plan.ep_cut[0], 0);
        assert_eq!(plan.ep_cut[n], links.endpoints());
        assert_eq!(plan.f_cut[0], 0);
        assert_eq!(plan.f_cut[n], links.n_fwd_slots());
        assert_eq!(plan.b_cut[0], 0);
        assert_eq!(plan.b_cut[n], links.n_bwd_slots());
        assert_eq!(plan.eps_cut[0], 0);
        assert_eq!(plan.eps_cut[n], links.n_ep_slots());
        for k in 0..n {
            assert!(plan.router_cut[k] <= plan.router_cut[k + 1]);
            assert!(plan.ep_cut[k] <= plan.ep_cut[k + 1]);
            assert!(plan.f_cut[k] <= plan.f_cut[k + 1]);
            assert!(plan.b_cut[k] <= plan.b_cut[k + 1]);
            assert!(plan.eps_cut[k] <= plan.eps_cut[k + 1]);
        }
        // Every forward slot gathered at most once, every wire's
        // forward output gathered exactly once, and always by the
        // shard owning the target slot.
        let mut fwd_seen = vec![false; links.n_fwd_slots()];
        let mut ep_in_seen = vec![false; links.n_ep_slots()];
        let mut inj_wires = 0usize;
        let mut stage_wires = 0usize;
        for k in 0..n {
            for &(t, i) in &plan.fwd_from_inj[k] {
                let (t, i) = (t as usize, i as usize);
                assert!(!fwd_seen[t], "fslot {t} fed twice");
                fwd_seen[t] = true;
                assert!((plan.f_cut[k]..plan.f_cut[k + 1]).contains(&t));
                assert_eq!(links.inj_target(i), t);
                inj_wires += 1;
            }
            for &(t, j) in &plan.fwd_from_bwd[k] {
                let (t, j) = (t as usize, j as usize);
                assert!(!fwd_seen[t], "fslot {t} fed twice");
                fwd_seen[t] = true;
                assert!((plan.f_cut[k]..plan.f_cut[k + 1]).contains(&t));
                assert_eq!(links.bwd_target(j), FlatTarget::Fwd(t as u32));
                stage_wires += 1;
            }
            for &(i, j) in &plan.ep_in_from_bwd[k] {
                let (i, j) = (i as usize, j as usize);
                assert!(!ep_in_seen[i], "ep slot {i} fed twice");
                ep_in_seen[i] = true;
                assert!((plan.eps_cut[k]..plan.eps_cut[k + 1]).contains(&i));
                assert_eq!(links.bwd_target(j), FlatTarget::Endpoint(i as u32));
                stage_wires += 1;
            }
        }
        assert_eq!(inj_wires, links.n_ep_slots());
        assert_eq!(stage_wires, links.n_bwd_slots());
        // Weight accounting: shard weights sum to the total.
        let total: u64 = (0..links.stages())
            .map(|s| {
                (links.routers_in_stage(s) * (links.forward_ports(s) + links.backward_ports(s)))
                    as u64
            })
            .sum();
        assert_eq!((0..n).map(|k| plan.weight(k)).sum::<u64>(), total);
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
    fn property_cuts_and_gather_lists_hold_across_random_specs() {
        let mut valid = 0usize;
        for seed in 0..60u64 {
            let spec = spec_from_seed(seed);
            let Some(links) = try_links_for(&spec) else {
                continue;
            };
            valid += 1;
            for shards in [1usize, 2, 3, 4, 7] {
                let plan = ShardPlan::build(&links, shards);
                check_plan_invariants(&links, &plan);
            }
        }
        assert!(valid >= 10, "generator exercised only {valid} valid specs");
    }

    #[test]
    fn shards_beyond_router_count_leave_trailing_shards_empty_but_valid() {
        // figure1: three stages of 8 routers each = 24 routers total.
        let links = links_for(&MultibutterflySpec::figure1());
        let n = links.n_routers();
        let plan = ShardPlan::build(&links, n + 5);
        check_plan_invariants(&links, &plan);
        let empty = (0..plan.shards())
            .filter(|&k| plan.router_range(k).is_empty())
            .count();
        assert!(empty >= 5, "expected at least 5 empty shards, got {empty}");
        // Empty shards carry zero weight and empty gather ownership is
        // still possible (targets follow slot cuts) — the invariant
        // check above already proved coverage.
        for k in 0..plan.shards() {
            if plan.router_range(k).is_empty() {
                assert_eq!(plan.weight(k), 0);
            }
        }
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
        let links = links_for(&spec);
        for shards in [1usize, 2, 3, 4] {
            let plan = ShardPlan::build(&links, shards);
            check_plan_invariants(&links, &plan);
        }
        let plan = ShardPlan::build(&links, 2);
        assert_eq!(plan.router_range(0), 0..1);
        assert_eq!(plan.router_range(1), 1..2);
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
            let Some(links) = try_links_for(&spec) else {
                continue;
            };
            let max_w = (0..links.stages())
                .map(|s| (links.forward_ports(s) + links.backward_ports(s)) as u64)
                .max()
                .expect("at least one stage");
            let total: u64 = (0..links.stages())
                .map(|s| {
                    (links.routers_in_stage(s) * (links.forward_ports(s) + links.backward_ports(s)))
                        as u64
                })
                .sum();
            for shards in 2..=4usize {
                if total / (shards as u64) < 3 * max_w {
                    continue; // bound only claimed when shares dominate routers
                }
                let plan = ShardPlan::build(&links, shards);
                let weights: Vec<u64> = (0..shards).map(|k| plan.weight(k)).collect();
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
        let links = links_for(&MultibutterflySpec::figure3());
        let a = ShardPlan::build(&links, 4);
        let b = ShardPlan::build(&links, 4);
        assert_eq!(a.router_cut, b.router_cut);
        assert_eq!(a.ep_cut, b.ep_cut);
        assert_eq!(a.fwd_from_inj, b.fwd_from_inj);
        assert_eq!(a.fwd_from_bwd, b.fwd_from_bwd);
        assert_eq!(a.ep_in_from_bwd, b.ep_in_from_bwd);
    }
}

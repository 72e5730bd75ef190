//! Property-based tests over the topology invariants: every valid
//! specification builds a network whose wiring is a bijection with the
//! dilation-distinctness property, whose route digits address every
//! destination, and whose path counts behave monotonically under
//! faults.

use metro_topo::fault::FaultSet;
use metro_topo::graph::LinkTarget;
use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};
use metro_topo::paths::{all_links, count_paths};
use proptest::prelude::*;

/// Generates valid small multibutterfly specifications: 2–4 stages of
/// power-of-two radix whose product fixes the endpoint count.
fn specs() -> impl Strategy<Value = MultibutterflySpec> {
    (
        proptest::collection::vec((1usize..=2, 1usize..=2), 2..=4),
        1usize..=2, // endpoint ports
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(stage_shapes, ep, seed, deterministic)| {
            let stages: Vec<StageSpec> = stage_shapes
                .iter()
                .map(|&(radix_log, dil_log)| {
                    let radix = 1 << radix_log;
                    let dilation = 1 << (dil_log - 1);
                    let o = radix * dilation;
                    // Keep i = o so wire counts stay constant between
                    // stages; the endpoint boundary fixes the rest.
                    StageSpec::new(o, o, dilation)
                })
                .collect();
            let endpoints: usize = stages.iter().map(StageSpec::radix).product();
            MultibutterflySpec {
                endpoints,
                endpoint_ports: ep,
                stages,
                wiring: if deterministic {
                    WiringStyle::Deterministic
                } else {
                    WiringStyle::Randomized
                },
                seed,
            }
        })
        .prop_filter("wire counts must balance at every boundary", |spec| {
            Multibutterfly::build(spec).is_ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every forward port of every stage is the target of exactly one
    /// link or injection wire.
    #[test]
    fn every_forward_port_is_fed_exactly_once(spec in specs()) {
        let net = Multibutterfly::build(&spec).unwrap();
        let mut fed = vec![0; net.forward_slots()];
        for e in 0..net.endpoints() {
            for p in 0..net.endpoint_ports() {
                let (r, f) = net.injection(e, p);
                fed[net.fslot(0, r, f)] += 1;
            }
        }
        for s in 0..net.stages() - 1 {
            for r in 0..net.routers_in_stage(s) {
                for b in 0..net.stage_spec(s).backward_ports {
                    if let LinkTarget::Router { router, port } = net.link(s, r, b) {
                        fed[net.fslot(s + 1, router, port)] += 1;
                    } else {
                        prop_assert!(false, "inter-stage link targets a router");
                    }
                }
            }
        }
        prop_assert!(fed.iter().all(|&n| n == 1), "{:?}", fed);
    }

    /// Dilated copies of any direction reach distinct downstream
    /// routers whenever the downstream group is large enough to allow
    /// it (with fewer downstream routers than the dilation, merging is
    /// forced and the wiring falls back to plain balance).
    #[test]
    fn dilation_distinctness(spec in specs()) {
        let net = Multibutterfly::build(&spec).unwrap();
        for s in 0..net.stages() - 1 {
            let st = net.stage_spec(s);
            let down_rpg = net.routers_in_stage(s + 1) / net.groups_at_stage(s + 1);
            let achievable = st.dilation.min(down_rpg);
            for r in 0..net.routers_in_stage(s) {
                for j in 0..st.radix() {
                    let mut targets: Vec<usize> = (0..st.dilation)
                        .map(|c| net.link(s, r, j * st.dilation + c).router().unwrap())
                        .collect();
                    targets.sort_unstable();
                    targets.dedup();
                    prop_assert!(
                        targets.len() >= achievable,
                        "stage {} router {} dir {}: {} distinct targets, {} achievable",
                        s, r, j, targets.len(), achievable
                    );
                }
            }
        }
    }

    /// Every endpoint pair is connected fault-free, with wire-level
    /// path count exactly `endpoint_ports × Π dilation` (every stage's
    /// dilation multiplies, including the delivery stage's).
    #[test]
    fn fault_free_path_count_is_the_dilation_product(spec in specs()) {
        let net = Multibutterfly::build(&spec).unwrap();
        let expected: usize = spec.endpoint_ports
            * spec
                .stages
                .iter()
                .map(|st| st.dilation)
                .product::<usize>();
        let faults = FaultSet::new();
        // Probe a sample of pairs (all pairs would be slow at 64 cases).
        for src in [0, net.endpoints() / 2] {
            for dest in [0, net.endpoints() - 1] {
                prop_assert_eq!(count_paths(&net, src, dest, &faults), expected);
            }
        }
    }

    /// Killing elements never increases a path count, and repairing
    /// restores it.
    #[test]
    fn faults_are_monotone(spec in specs(), kill_seed in any::<u64>()) {
        let net = Multibutterfly::build(&spec).unwrap();
        let clean = FaultSet::new();
        let baseline = count_paths(&net, 0, net.endpoints() - 1, &clean);
        let mut faults = FaultSet::new();
        let mut rng = metro_core::RandomSource::new(kill_seed);
        let links = all_links(&net);
        faults.kill_random_links(&links, 2, &mut rng);
        let reduced = count_paths(&net, 0, net.endpoints() - 1, &faults);
        prop_assert!(reduced <= baseline);
        for (l, _) in faults.clone().faulty_links() {
            faults.repair_link(l);
        }
        prop_assert_eq!(count_paths(&net, 0, net.endpoints() - 1, &faults), baseline);
    }

    /// Route digits are a bijection onto the destination space.
    #[test]
    fn route_digits_address_every_destination(spec in specs()) {
        let net = Multibutterfly::build(&spec).unwrap();
        let mut seen = std::collections::HashSet::new();
        for dest in 0..net.endpoints() {
            let digits = net.route_digits(dest);
            prop_assert_eq!(digits.len(), net.stages());
            for (s, &d) in digits.iter().enumerate() {
                prop_assert!(d < net.stage_spec(s).radix());
            }
            prop_assert!(seen.insert(digits));
        }
        prop_assert_eq!(seen.len(), net.endpoints());
    }

    /// Deliveries cover every endpoint input port exactly once.
    #[test]
    fn deliveries_are_complete(spec in specs()) {
        let net = Multibutterfly::build(&spec).unwrap();
        let last = net.stages() - 1;
        let mut seen = std::collections::HashSet::new();
        for e in 0..net.endpoints() {
            for p in 0..net.endpoint_ports() {
                let (r, b) = net.delivery(e, p);
                prop_assert_eq!(
                    net.link(last, r, b),
                    LinkTarget::Endpoint { endpoint: e, port: p }
                );
                prop_assert!(seen.insert((r, b)));
            }
        }
    }
}

mod fattree_props {
    use metro_topo::fattree::{FatTree, FatTreeSpec};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Capacities are monotone toward the root and never exceed
        /// full bandwidth.
        #[test]
        fn capacities_monotone_and_bounded(
            arity in 2usize..=4,
            levels in 1usize..=4,
            leaf in 1usize..=4,
            growth in 1usize..=8,
        ) {
            let t = FatTree::build(&FatTreeSpec { arity, levels, leaf_capacity: leaf, growth })
                .unwrap();
            for d in (2..=levels).rev() {
                prop_assert!(t.capacity(d - 1) >= t.capacity(d));
                prop_assert!(t.capacity(d - 1) <= t.capacity(d) * arity);
            }
        }

        /// LCA depth is symmetric, bounded, and equals `levels` only on
        /// the diagonal.
        #[test]
        fn lca_properties(
            levels in 1usize..=3,
            a_seed in any::<usize>(),
            b_seed in any::<usize>(),
        ) {
            let t = FatTree::build(&FatTreeSpec::binary(levels, 1)).unwrap();
            let n = t.leaves();
            let a = a_seed % n;
            let b = b_seed % n;
            prop_assert_eq!(t.lca_depth(a, b), t.lca_depth(b, a));
            prop_assert!(t.lca_depth(a, b) <= levels);
            prop_assert_eq!(t.lca_depth(a, b) == levels, a == b);
        }

        /// Path counts are symmetric and grow (weakly) with LCA height.
        #[test]
        fn path_counts_symmetric_and_monotone(levels in 2usize..=3, leaf in 1usize..=2) {
            let t = FatTree::build(&FatTreeSpec::binary(levels, leaf)).unwrap();
            let n = t.leaves();
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(t.path_count(a, b), t.path_count(b, a));
                    if a != b {
                        // Crossing a higher node can only multiply paths.
                        let sibling = a ^ 1;
                        if sibling != b && t.lca_depth(a, b) < t.lca_depth(a, sibling) {
                            prop_assert!(t.path_count(a, b) >= t.path_count(a, sibling));
                        }
                    }
                }
            }
        }
    }
}

//! Inter-stage wiring patterns.
//!
//! Between stage `s` and stage `s+1`, the wires of one logical direction
//! subgroup must be assigned to the forward ports of the subgroup's
//! downstream routers. A good assignment sends the `d` dilated copies of
//! each upstream router's direction to `d` *distinct* downstream routers
//! — that distinctness is what turns dilation into node-disjoint path
//! redundancy. Randomized wirings additionally give the expansion
//! properties multibutterflies are known for (\[15\], \[16\]).

use metro_core::RandomSource;

/// An assignment of `n` subgroup wires to `n` downstream forward ports.
///
/// Wire `w` (see [`wire_index`]) maps to downstream router
/// `assignment[w] / ports_per_router` and forward port
/// `assignment[w] % ports_per_router`.
pub type Assignment = Vec<usize>;

/// Index of the wire carrying upstream router `t`'s dilated copy `c` of
/// a direction, with `routers` upstream routers in the subgroup.
#[must_use]
pub fn wire_index(t: usize, c: usize, routers: usize) -> usize {
    c * routers + t
}

/// Deterministic wiring: copy `c` of upstream router `t` goes to
/// downstream router `(t + c * stride) mod down_routers`, filling ports
/// in arrival order. `stride` is chosen so the `d` copies land in
/// distinct routers whenever `down_routers >= d`.
#[must_use]
pub fn deterministic(
    up_routers: usize,
    dilation: usize,
    down_routers: usize,
    down_ports: usize,
) -> Assignment {
    let n = up_routers * dilation;
    assert_eq!(
        n,
        down_routers * down_ports,
        "wire and port counts must balance"
    );
    let stride = (down_routers / dilation).max(1);
    let mut next_port = vec![0usize; down_routers];
    let mut assignment = vec![usize::MAX; n];
    for c in 0..dilation {
        for t in 0..up_routers {
            let w = wire_index(t, c, up_routers);
            // Probe from the preferred router to the next with a free port.
            let mut r = (t + c * stride) % down_routers;
            while next_port[r] >= down_ports {
                r = (r + 1) % down_routers;
            }
            assignment[w] = r * down_ports + next_port[r];
            next_port[r] += 1;
        }
    }
    assignment
}

/// Randomized wiring with per-router distinctness: the `d` copies of each
/// upstream router land in `d` distinct downstream routers, but which
/// routers is random. Falls back to plain random assignment if
/// distinctness cannot be satisfied after bounded retries (only possible
/// when `down_routers < dilation`).
#[must_use]
pub fn randomized(
    up_routers: usize,
    dilation: usize,
    down_routers: usize,
    down_ports: usize,
    rng: &mut RandomSource,
) -> Assignment {
    let n = up_routers * dilation;
    assert_eq!(
        n,
        down_routers * down_ports,
        "wire and port counts must balance"
    );
    // Downstream routers the current upstream router's copies use; one
    // buffer for every upstream router.
    let mut used_routers = Vec::with_capacity(dilation);
    'retry: for _ in 0..64 {
        let mut ports: Vec<usize> = (0..n).collect();
        // Fisher-Yates shuffle of the downstream port slots.
        for k in (1..n).rev() {
            ports.swap(k, rng.index(k + 1));
        }
        let mut assignment = vec![usize::MAX; n];
        let mut cursor = 0usize;
        for t in 0..up_routers {
            used_routers.clear();
            for c in 0..dilation {
                // Scan forward for a slot in a router not yet used by
                // this upstream router.
                let mut probe = cursor;
                loop {
                    if probe >= n {
                        continue 'retry;
                    }
                    let r = ports[probe] / down_ports;
                    if !used_routers.contains(&r) {
                        ports.swap(cursor, probe);
                        break;
                    }
                    probe += 1;
                }
                let slot = ports[cursor];
                cursor += 1;
                used_routers.push(slot / down_ports);
                assignment[wire_index(t, c, up_routers)] = slot;
            }
        }
        return assignment;
    }
    // down_routers < dilation: distinctness impossible; random only.
    let mut ports: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        ports.swap(k, rng.index(k + 1));
    }
    ports
}

/// Checks the distinctness property: for every upstream router, its
/// dilated copies land in distinct downstream routers.
#[must_use]
pub fn has_distinctness(
    assignment: &Assignment,
    up_routers: usize,
    dilation: usize,
    down_ports: usize,
) -> bool {
    for t in 0..up_routers {
        let mut routers: Vec<usize> = (0..dilation)
            .map(|c| assignment[wire_index(t, c, up_routers)] / down_ports)
            .collect();
        routers.sort_unstable();
        routers.dedup();
        if routers.len() != dilation {
            return false;
        }
    }
    true
}

/// Checks that the assignment is a permutation (every port used once).
#[must_use]
pub fn is_permutation(assignment: &Assignment) -> bool {
    let mut seen = vec![false; assignment.len()];
    for &a in assignment {
        if a >= seen.len() || seen[a] {
            return false;
        }
        seen[a] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_is_a_permutation_with_distinctness() {
        for (up, d, down, ports) in [(8, 2, 4, 4), (4, 2, 4, 2), (8, 1, 2, 4), (16, 2, 8, 4)] {
            let a = deterministic(up, d, down, ports);
            assert!(is_permutation(&a), "{up}x{d} -> {down}x{ports}");
            assert!(
                has_distinctness(&a, up, d, ports),
                "{up}x{d} -> {down}x{ports}"
            );
        }
    }

    #[test]
    fn randomized_is_a_permutation_with_distinctness() {
        let mut rng = RandomSource::new(42);
        for (up, d, down, ports) in [(8, 2, 4, 4), (4, 2, 4, 2), (16, 2, 8, 4)] {
            for _ in 0..10 {
                let a = randomized(up, d, down, ports, &mut rng);
                assert!(is_permutation(&a));
                assert!(has_distinctness(&a, up, d, ports));
            }
        }
    }

    #[test]
    fn randomized_differs_between_draws() {
        let mut rng = RandomSource::new(7);
        let a = randomized(8, 2, 4, 4, &mut rng);
        let b = randomized(8, 2, 4, 4, &mut rng);
        assert_ne!(a, b, "two draws should (overwhelmingly) differ");
    }

    #[test]
    fn randomized_same_seed_reproduces() {
        let mut r1 = RandomSource::new(9);
        let mut r2 = RandomSource::new(9);
        assert_eq!(
            randomized(8, 2, 4, 4, &mut r1),
            randomized(8, 2, 4, 4, &mut r2)
        );
    }

    #[test]
    fn dilation_one_trivially_distinct() {
        let a = deterministic(4, 1, 4, 1);
        assert!(is_permutation(&a));
        assert!(has_distinctness(&a, 4, 1, 1));
    }

    #[test]
    #[should_panic(expected = "must balance")]
    fn unbalanced_counts_panic() {
        let _ = deterministic(4, 2, 4, 1);
    }

    #[test]
    fn wire_index_is_copy_major() {
        assert_eq!(wire_index(3, 0, 8), 3);
        assert_eq!(wire_index(3, 1, 8), 11);
    }
}

//! Property tests over the placement-solver ladder (`docs/PLACEMENT.md`):
//!
//! 1. every rung returns a valid permutation on any instance;
//! 2. ladder quality is monotone — hierarchical ≤ greedy-2-opt ≤ trivial
//!    cost — on deterministic LCG instances;
//! 3. the multilevel rung matches exhaustive *exactly* (same assignment,
//!    same cost bits) for every instance within the exhaustive range;
//! 4. the multilevel and node-aware rungs reproduce pinned assignments and
//!    cost bits beyond it, with and without unreachable locations.
//!
//! Instances are generated with the same fixed-seed LCG used throughout
//! the repo — no RNG state leaks between runs, so a failure is always
//! reproducible from the seed printed in the assert message.

use stencil_core::qap;
use stencil_core::PlacementStrategy;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    }
}

/// A flow/distance pair shaped like real placement instances: sparse-ish
/// symmetric-support flow (each facility talks to a handful of others)
/// and strictly-positive off-diagonal distances.
fn instance(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rnd = lcg(seed);
    let mut w = vec![vec![0.0; n]; n];
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            d[i][j] = 0.05 + rnd();
            // ~40% of pairs exchange nothing: placement instances are sparse.
            if rnd() > 0.4 {
                w[i][j] = (rnd() * 20.0).floor();
            }
        }
    }
    (w, d)
}

fn assert_perm(f: &[usize], n: usize, what: &str) {
    let mut s = f.to_vec();
    s.sort_unstable();
    assert_eq!(s, (0..n).collect::<Vec<_>>(), "{what}: not a permutation");
}

#[test]
fn every_rung_returns_a_valid_permutation() {
    for n in [1usize, 2, 5, 8, 9, 12, 16, 23, 31] {
        for seed in 0..4u64 {
            let (w, d) = instance(n, seed * 1001 + n as u64);
            for strategy in [
                PlacementStrategy::NodeAware,
                PlacementStrategy::Trivial,
                PlacementStrategy::Empirical,
                PlacementStrategy::GreedySwap,
                PlacementStrategy::Hierarchical,
            ] {
                let (f, c) = strategy.solve(&w, &d);
                assert_perm(&f, n, &format!("{strategy:?} n={n} seed={seed}"));
                assert!(
                    c.is_finite(),
                    "{strategy:?} n={n} seed={seed}: cost {c} not finite"
                );
            }
        }
    }
}

#[test]
fn ladder_quality_is_monotone() {
    // hierarchical ≤ greedy ≤ trivial, across sizes spanning both the
    // all-pairs refinement regime and the exhaustive base case.
    for n in [2usize, 4, 6, 9, 11, 14, 20, 27, 40, 64] {
        for seed in 0..3u64 {
            let (w, d) = instance(n, seed * 7919 + n as u64 * 13);
            let (_, hier) = PlacementStrategy::Hierarchical.solve(&w, &d);
            let (_, greedy) = PlacementStrategy::GreedySwap.solve(&w, &d);
            let (_, trivial) = PlacementStrategy::Trivial.solve(&w, &d);
            assert!(
                hier <= greedy + 1e-9,
                "n={n} seed={seed}: hierarchical {hier} > greedy {greedy}"
            );
            assert!(
                greedy <= trivial + 1e-9,
                "n={n} seed={seed}: greedy {greedy} > trivial {trivial}"
            );
        }
    }
}

#[test]
fn multilevel_matches_exhaustive_exactly_within_range() {
    // Within the exhaustive range (n ≤ 8 is feasible to check up to 7
    // quickly; include the boundary n = 8 once) the hierarchical rung IS
    // the exhaustive solver: same assignment, same cost bits.
    for n in 2..=7usize {
        for seed in 0..5u64 {
            let (w, d) = instance(n, seed * 31 + n as u64 * 7);
            let (fe, ce) = qap::solve_exhaustive(&w, &d);
            let (fh, ch) = PlacementStrategy::Hierarchical.solve(&w, &d);
            assert_eq!(fe, fh, "n={n} seed={seed}");
            assert_eq!(ce.to_bits(), ch.to_bits(), "n={n} seed={seed}");
        }
    }
    let n = qap::EXHAUSTIVE_MAX_N;
    let (w, d) = instance(n, 99);
    let (fe, ce) = qap::solve_exhaustive(&w, &d);
    let (fh, ch) = PlacementStrategy::Hierarchical.solve(&w, &d);
    assert_eq!(fe, fh);
    assert_eq!(ce.to_bits(), ch.to_bits());
}

#[test]
fn node_aware_dispatch_agrees_with_the_pinned_rungs() {
    // NodeAware at n ≤ 8 is exactly exhaustive (the golden fig12b bit-pins
    // depend on this); beyond it is exactly the hierarchical rung.
    for seed in 0..3u64 {
        let (w, d) = instance(6, seed + 5);
        assert_eq!(
            PlacementStrategy::NodeAware.solve(&w, &d),
            qap::solve_exhaustive(&w, &d),
            "seed={seed}"
        );
        let (w, d) = instance(24, seed + 5);
        assert_eq!(
            PlacementStrategy::NodeAware.solve(&w, &d),
            PlacementStrategy::Hierarchical.solve(&w, &d),
            "seed={seed}"
        );
    }
}

/// `instance(n, seed)` with every eighth location unreachable (`+inf` to
/// and from every other location, the distance of a measured-zero
/// bandwidth) and as many facilities silent, so a finite placement still
/// exists.
fn degraded_instance(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (mut w, mut d) = instance(n, seed);
    for k in (3..n).step_by(8) {
        d[k].iter_mut().for_each(|x| *x = f64::INFINITY);
        d.iter_mut().for_each(|row| row[k] = f64::INFINITY);
        d[k][k] = 0.0;
        let silent = (k + 2) % n;
        w[silent].iter_mut().for_each(|x| *x = 0.0);
        w.iter_mut().for_each(|row| row[silent] = 0.0);
    }
    (w, d)
}

/// FNV-1a over the assignments and cost bits of the `Hierarchical` and
/// `NodeAware` rungs on one instance.
fn ladder_fingerprint(w: &[Vec<f64>], d: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for strategy in [
        PlacementStrategy::Hierarchical,
        PlacementStrategy::NodeAware,
    ] {
        let (f, c) = strategy.solve(w, d);
        for word in f.iter().map(|&x| x as u64).chain([c.to_bits()]) {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `(n, all-finite fingerprint, +inf fingerprint)`. The sizes cover odd
/// levels that pad (9, 11, 13, 15, 17, 23, 31, 33, 65), the all-pairs
/// refinement regime up to `multilevel::ALL_PAIRS_MAX_N` and the
/// sparse-candidate path beyond it (129, 131, 150). With `+inf`
/// distances the rungs find a finite placement up to n = 31 and none from
/// n = 33 on, so both outcomes are pinned. A changed fingerprint is a
/// changed placement.
const LADDER_PINS: [(usize, u64, u64); 18] = [
    (9, 0xe832823b7d9c4fc9, 0xa0024aa6af8d2fe9),
    (10, 0xae72735cb688c179, 0x491567c7600ab281),
    (11, 0x7649f2f8589c0bd5, 0xd9626d882a1b067d),
    (12, 0x50e37664ae88fa25, 0xf9f0beb2a7bafdc5),
    (13, 0x140fd734652c3af1, 0x117a11e9f8a0df9d),
    (15, 0x5d1c355bd965c8b5, 0x5ed472c7d490ae55),
    (16, 0xf7ca5cde3e5ede65, 0xa299d391814d2225),
    (17, 0x1988e37fcf18e145, 0x3a5757b02d847ff5),
    (23, 0x8fe559d531305e99, 0xc393a47c5731071d),
    (24, 0x85922ff6caabf31d, 0x7dd4d68b79fea27d),
    (31, 0xe45f7a56ac865c71, 0x215d0197985535fd),
    (33, 0xb600c1539aa54b95, 0xe95e3a4a1a8f42e5),
    (48, 0xf508408cab3c3889, 0xeeaa2398949b4705),
    (64, 0x615ef7b67d7e4d51, 0xd6c2ddb5b540a985),
    (65, 0x5b1f9175c15fe7ad, 0x33d0fc7b1a3d9625),
    (129, 0xcba049bedb5cb4c5, 0x1d7ba685d7586565),
    (131, 0xe7266a0114000cc5, 0x3737ae3a7955b6a9),
    (150, 0x746755c4240f4479, 0x311a3886fbb04d45),
];

#[test]
fn multilevel_rungs_reproduce_pinned_assignments_and_cost_bits() {
    let mut got = Vec::new();
    for &(n, _, _) in &LADDER_PINS {
        let seed = n as u64 * 577 + 11;
        let (w, d) = instance(n, seed);
        let finite = ladder_fingerprint(&w, &d);
        let (w, d) = degraded_instance(n, seed);
        let degraded = ladder_fingerprint(&w, &d);
        got.push((n, finite, degraded));
    }
    let table: String = got
        .iter()
        .map(|(n, f, d)| format!("    ({n}, {f:#018x}, {d:#018x}),\n"))
        .collect();
    for (pin, actual) in LADDER_PINS.iter().zip(&got) {
        assert_eq!(pin, actual, "fingerprints moved; all now:\n{table}");
    }
}

#[test]
fn heuristic_rungs_stay_deterministic_across_calls() {
    for strategy in [
        PlacementStrategy::GreedySwap,
        PlacementStrategy::Hierarchical,
        PlacementStrategy::NodeAware,
    ] {
        let (w, d) = instance(33, 777);
        let (fa, ca) = strategy.solve(&w, &d);
        let (fb, cb) = strategy.solve(&w, &d);
        assert_eq!(fa, fb, "{strategy:?}");
        assert_eq!(ca.to_bits(), cb.to_bits(), "{strategy:?}");
    }
}

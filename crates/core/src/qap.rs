//! Quadratic assignment problem solvers (paper §III-B) — the placement
//! ladder's dense rungs.
//!
//! Minimize `sum_{i,j} w[i][j] * d[f(i)][f(j)]` over bijections `f` from
//! facilities (subdomains) to locations (GPUs). QAP is NP-hard; the
//! paper's nodes have 6 GPUs, so it checks all assignments exhaustively.
//! Larger nodes climb a ladder of heuristics (see `docs/PLACEMENT.md`):
//!
//! * [`solve_exhaustive`] — all `n!` assignments, `n <=`
//!   [`EXHAUSTIVE_MAX_N`];
//! * [`solve_greedy_2opt`] — greedy construction + **delta-cost** 2-opt
//!   (O(n) per candidate swap instead of an O(n²) full recompute);
//! * [`crate::multilevel::solve_multilevel`] — hierarchical coarsening
//!   for instances far beyond 2-opt's reach.
//!
//! [`solve`] dispatches between the rungs by instance size.

/// Largest instance the exhaustive solver accepts, and the size at which
/// [`solve`] switches from exhaustive search to the heuristic ladder.
/// 8! = 40,320 assignments is a fraction of a millisecond; 9! is ten times
/// that and already slower than the heuristics' quality justifies.
pub const EXHAUSTIVE_MAX_N: usize = 8;

/// Cost of assignment `f` (facility `i` at location `f[i]`).
pub fn cost(w: &[Vec<f64>], d: &[Vec<f64>], f: &[usize]) -> f64 {
    let n = w.len();
    let mut c = 0.0;
    for i in 0..n {
        for j in 0..n {
            // Skip zero-flow terms so that unreachable locations
            // (distance = +inf, e.g. measured-zero bandwidth) don't poison
            // the sum with `0 * inf = NaN`.
            if w[i][j] != 0.0 {
                c += w[i][j] * d[f[i]][f[j]];
            }
        }
    }
    c
}

/// Cost change of swapping the locations of facilities `r` and `s` in
/// assignment `f`, computed in O(n) from the classic QAP delta formula
/// (the full [`cost`] recompute is O(n²)). The zero-flow guard of [`cost`]
/// applies term by term, so `0 * inf` locations cannot poison the delta
/// with NaN; a swap between two genuinely infinite-cost assignments may
/// yield NaN (`inf - inf`), which every comparison rejects — callers treat
/// it as "not improving".
pub fn delta_swap(w: &[Vec<f64>], d: &[Vec<f64>], f: &[usize], r: usize, s: usize) -> f64 {
    debug_assert_ne!(r, s);
    let (fr, fs) = (f[r], f[s]);
    let mut delta = 0.0;
    for (k, &fk) in f.iter().enumerate() {
        if k == r || k == s {
            continue;
        }
        if w[r][k] != 0.0 {
            delta += w[r][k] * (d[fs][fk] - d[fr][fk]);
        }
        if w[k][r] != 0.0 {
            delta += w[k][r] * (d[fk][fs] - d[fk][fr]);
        }
        if w[s][k] != 0.0 {
            delta += w[s][k] * (d[fr][fk] - d[fs][fk]);
        }
        if w[k][s] != 0.0 {
            delta += w[k][s] * (d[fk][fr] - d[fk][fs]);
        }
    }
    if w[r][s] != 0.0 {
        delta += w[r][s] * (d[fs][fr] - d[fr][fs]);
    }
    if w[s][r] != 0.0 {
        delta += w[s][r] * (d[fr][fs] - d[fs][fr]);
    }
    if w[r][r] != 0.0 {
        delta += w[r][r] * (d[fs][fs] - d[fr][fr]);
    }
    if w[s][s] != 0.0 {
        delta += w[s][s] * (d[fr][fr] - d[fs][fs]);
    }
    delta
}

/// Exhaustively search all `n!` assignments. Deterministic: among equal-cost
/// optima, the lexicographically-smallest assignment wins. Intended for
/// `n <= `[`EXHAUSTIVE_MAX_N`] (the paper's nodes have 6 GPUs).
pub fn solve_exhaustive(w: &[Vec<f64>], d: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = w.len();
    assert_eq!(d.len(), n, "flow and distance matrices must agree");
    assert!(
        n <= EXHAUSTIVE_MAX_N,
        "exhaustive QAP beyond n={EXHAUSTIVE_MAX_N} is unreasonable; use the heuristic ladder"
    );
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    // Lexicographic permutation enumeration keeps tie-breaking well defined.
    loop {
        let c = cost(w, d, &perm);
        match &best {
            Some((_, bc)) if c >= *bc => {}
            _ => best = Some((perm.clone(), c)),
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }
    best.expect("n >= 1")
}

/// Advance to the next lexicographic permutation; false when wrapped.
fn next_permutation(p: &mut [usize]) -> bool {
    let n = p.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// Improve `f` in place with first-improvement 2-opt sweeps, evaluating
/// every candidate swap with the O(n) [`delta_swap`] formula. Returns the
/// cost of the final assignment (recomputed in full once at the end, so
/// accumulated float drift from incremental deltas never leaks out).
/// Deterministic: fixed sweep order, fixed acceptance threshold.
pub fn refine_2opt(w: &[Vec<f64>], d: &[Vec<f64>], f: &mut [usize]) -> f64 {
    let n = f.len();
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n {
            for j in (i + 1)..n {
                let delta = delta_swap(w, d, f, i, j);
                // NaN (inf - inf) fails this comparison: never accepted.
                if delta < -1e-12 {
                    f.swap(i, j);
                    improved = true;
                }
            }
        }
    }
    cost(w, d, f)
}

/// The greedy construction: the facility with the largest total flow goes
/// to the location with the smallest total distance, and so on.
fn greedy_start(w: &[Vec<f64>], d: &[Vec<f64>]) -> Vec<usize> {
    let n = w.len();
    let mut fac_order: Vec<usize> = (0..n).collect();
    let flow_sum: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| w[i][j] + w[j][i]).sum())
        .collect();
    fac_order.sort_by(|&a, &b| {
        flow_sum[b]
            .partial_cmp(&flow_sum[a])
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut loc_order: Vec<usize> = (0..n).collect();
    let dist_sum: Vec<f64> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let s = d[i][j] + d[j][i];
                    // Unreachable locations sort last without poisoning
                    // the sum for everyone (inf + finite = inf is fine,
                    // this guard only documents the intent).
                    if s.is_finite() {
                        s
                    } else {
                        f64::INFINITY
                    }
                })
                .sum()
        })
        .collect();
    loc_order.sort_by(|&a, &b| {
        dist_sum[a]
            .partial_cmp(&dist_sum[b])
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut f = vec![0usize; n];
    for (fi, li) in fac_order.iter().zip(&loc_order) {
        f[*fi] = *li;
    }
    f
}

/// Pick the better of two solved assignments; cost ties go to the
/// lexicographically-smallest assignment so every solver stays
/// deterministic under reordering of its internal candidates.
pub(crate) fn better(a: (Vec<usize>, f64), b: (Vec<usize>, f64)) -> (Vec<usize>, f64) {
    // NaN costs (all-infinite instances) lose to anything comparable.
    let b_wins = b.1 < a.1 || (a.1.is_nan() && !b.1.is_nan()) || (a.1 == b.1 && b.0 < a.0);
    if b_wins {
        b
    } else {
        a
    }
}

/// Greedy construction + delta-cost 2-opt improvement, for nodes with many
/// GPUs. Refines from both the greedy start and the identity start and
/// keeps the better local optimum — so its result never loses to the
/// trivial (identity) placement. Deterministic.
pub fn solve_greedy_2opt(w: &[Vec<f64>], d: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = w.len();
    assert_eq!(d.len(), n);
    let mut g = greedy_start(w, d);
    let cg = refine_2opt(w, d, &mut g);
    let mut id: Vec<usize> = (0..n).collect();
    let ci = refine_2opt(w, d, &mut id);
    better((g, cg), (id, ci))
}

/// Solve, picking the ladder rung by instance size: exhaustive up to
/// [`EXHAUSTIVE_MAX_N`], hierarchical multilevel (with a greedy-2-opt
/// cross-check on moderate sizes) beyond.
pub fn solve(w: &[Vec<f64>], d: &[Vec<f64>]) -> (Vec<usize>, f64) {
    if w.len() <= EXHAUSTIVE_MAX_N {
        solve_exhaustive(w, d)
    } else {
        crate::multilevel::solve_multilevel(w, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    #[test]
    fn identity_when_distance_uniform() {
        let w = mat(&[&[0.0, 5.0], &[5.0, 0.0]]);
        let d = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let (f, c) = solve_exhaustive(&w, &d);
        assert_eq!(f, vec![0, 1]); // tie -> lexicographically smallest
        assert!((c - 10.0).abs() < 1e-12);
    }

    #[test]
    fn high_flow_pairs_land_on_short_distances() {
        // facilities: 0-1 heavy flow, 2 isolated.
        let w = mat(&[&[0.0, 100.0, 1.0], &[100.0, 0.0, 1.0], &[1.0, 1.0, 0.0]]);
        // locations: 1-2 close, 0 far from both.
        let d = mat(&[&[0.0, 10.0, 10.0], &[10.0, 0.0, 1.0], &[10.0, 1.0, 0.0]]);
        let (f, _) = solve_exhaustive(&w, &d);
        // facilities 0 and 1 must occupy locations 1 and 2.
        assert!(
            f[0] != 0 && f[1] != 0,
            "heavy pair on the close locations: {f:?}"
        );
        assert_eq!(f[2], 0);
    }

    #[test]
    fn next_permutation_enumerates_all() {
        let mut p = vec![0, 1, 2, 3];
        let mut count = 1;
        while next_permutation(&mut p) {
            count += 1;
        }
        assert_eq!(count, 24);
        assert_eq!(p, vec![3, 2, 1, 0], "ends at the last permutation");
    }

    #[test]
    fn single_facility() {
        let w = mat(&[&[0.0]]);
        let d = mat(&[&[0.0]]);
        assert_eq!(solve_exhaustive(&w, &d).0, vec![0]);
        assert_eq!(solve_greedy_2opt(&w, &d).0, vec![0]);
    }

    /// The O(n) delta formula agrees with the O(n²) recompute on dense
    /// random instances, including asymmetric flow and nonzero diagonals.
    #[test]
    fn delta_matches_full_recompute() {
        for seed in 0u64..20 {
            let n = 3 + (seed as usize % 6);
            let mut rnd = lcg(seed.wrapping_mul(2654435761).wrapping_add(11));
            let w: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rnd() * 9.0).collect())
                .collect();
            let d: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
            let mut f: Vec<usize> = (0..n).collect();
            for _ in 0..4 {
                let i = (rnd() * n as f64) as usize % n;
                let j = (rnd() * n as f64) as usize % n;
                f.swap(i, j);
            }
            let base = cost(&w, &d, &f);
            for r in 0..n {
                for s in (r + 1)..n {
                    let delta = delta_swap(&w, &d, &f, r, s);
                    let mut g = f.clone();
                    g.swap(r, s);
                    let full = cost(&w, &d, &g) - base;
                    assert!(
                        (delta - full).abs() < 1e-9 * (1.0 + full.abs()),
                        "seed {seed} n {n} swap ({r},{s}): delta {delta} vs full {full}"
                    );
                }
            }
        }
    }

    /// Zero-flow rows against infinite distances stay NaN-free in the delta
    /// path, exactly as in `cost`.
    #[test]
    fn delta_zero_flow_inf_distance_guard() {
        // facility 2 exchanges nothing; location 2 is unreachable.
        let w = mat(&[&[0.0, 4.0, 0.0], &[4.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]);
        let inf = f64::INFINITY;
        let d = mat(&[&[0.0, 1.0, inf], &[1.0, 0.0, inf], &[inf, inf, 0.0]]);
        let f = vec![0, 1, 2]; // zero-flow facility on the unreachable location
        assert!(cost(&w, &d, &f).is_finite());
        for r in 0..3 {
            for s in (r + 1)..3 {
                let delta = delta_swap(&w, &d, &f, r, s);
                // Moving real flow onto the unreachable location is +inf,
                // never NaN.
                assert!(!delta.is_nan(), "swap ({r},{s}) produced NaN");
            }
        }
        // The local search must keep the zero-flow facility parked on the
        // unreachable location (every other arrangement costs +inf).
        let (sol, c) = solve_greedy_2opt(&w, &d);
        assert_eq!(sol[2], 2, "zero-flow facility absorbs the dead location");
        assert!(c.is_finite());
    }

    #[test]
    fn heuristic_matches_exhaustive_on_small_instances() {
        let mut rnd = lcg(12345);
        for n in 2..=6 {
            let w: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rnd() * 10.0).collect())
                .collect();
            let d: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
            let (_, ce) = solve_exhaustive(&w, &d);
            let (_, ch) = solve_greedy_2opt(&w, &d);
            assert!(
                ch <= ce * 1.25 + 1e-9,
                "heuristic within 25% of optimum (n={n}): {ch} vs {ce}"
            );
        }
    }

    #[test]
    fn solve_dispatches_by_size() {
        let n = EXHAUSTIVE_MAX_N + 1;
        let w: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * j) % 5) as f64).collect())
            .collect();
        let d: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i + j) % 3) as f64).collect())
            .collect();
        let (f, _) = solve(&w, &d); // must not panic (heuristic path)
        let mut sorted = f.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..n).collect::<Vec<_>>(),
            "assignment is a permutation"
        );
    }

    #[test]
    #[should_panic(expected = "exhaustive QAP beyond")]
    fn exhaustive_rejects_oversized_instances() {
        let n = EXHAUSTIVE_MAX_N + 1;
        let w = vec![vec![1.0; n]; n];
        let d = vec![vec![1.0; n]; n];
        let _ = solve_exhaustive(&w, &d);
    }

    /// The exhaustive solver's optimum is never beaten by random
    /// permutations, over many random instances.
    #[test]
    fn prop_exhaustive_beats_any_permutation() {
        for seed in 0u64..60 {
            let n = 4usize;
            let mut rnd = lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
            let w: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
            let d: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
            let (_, best) = solve_exhaustive(&w, &d);
            // a handful of random permutations can't beat it
            let mut p: Vec<usize> = (0..n).collect();
            for _ in 0..8 {
                let i = (rnd() * n as f64) as usize % n;
                let j = (rnd() * n as f64) as usize % n;
                p.swap(i, j);
                assert!(cost(&w, &d, &p) >= best - 1e-9, "seed {seed}");
            }
        }
    }

    /// The heuristic always returns a valid permutation.
    #[test]
    fn prop_heuristic_is_permutation() {
        for n in 2usize..12 {
            for seed in 0u64..12 {
                let mut rnd = lcg((seed * 83 + n as u64).wrapping_add(7));
                let w: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
                let d: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
                let (f, _) = solve_greedy_2opt(&w, &d);
                let mut s = f.clone();
                s.sort_unstable();
                assert_eq!(s, (0..n).collect::<Vec<_>>(), "n={n} seed={seed}");
            }
        }
    }
}

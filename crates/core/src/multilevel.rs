//! Hierarchical multilevel QAP mapper — the top rung of the placement
//! ladder, after Schulz & Woydt's shared-memory hierarchical process
//! mapping.
//!
//! Full 2-opt over a dense instance is O(n²) candidate swaps per sweep,
//! which stops being practical on nodes with hundreds of GPUs. This
//! module scales past that limit:
//!
//! 1. **Coarsen** the flow graph by heavy-edge matching (merge the pair
//!    exchanging the most bytes), and the location set by closest-pair
//!    matching, halving the instance per level;
//! 2. **Solve** the coarsest instance (≤ [`qap::EXHAUSTIVE_MAX_N`])
//!    exhaustively;
//! 3. **Uncoarsen** level by level, expanding each cluster assignment and
//!    repairing it with delta-cost 2-opt — over all pairs up to
//!    [`ALL_PAIRS_MAX_N`], over a sparse candidate set (flow-adjacent
//!    pairs + the pairs merged at that level) beyond it.
//!
//! Flow is held as a sparse graph (a stencil subdomain talks to ≤ 26
//! neighbors regardless of node size); distances are the dense matrix the
//! caller passes, and each coarse level materializes its own averaged
//! matrix (≤ n/2 per side). [`solve_multilevel`] is the entry point.
//!
//! Everything is deterministic: fixed visit orders, lexicographic
//! tie-breaks, no RNG. See `docs/PLACEMENT.md` for the invariants.

use crate::qap;

/// Sparse directed flow graph: `adj[i]` holds `(j, w[i][j], w[j][i])` for
/// every neighbor `j` with traffic in either direction, sorted by `j`.
/// A 3D stencil facility has at most 26 neighbors however large the
/// node, so storage and per-swap work are O(degree), not O(n).
#[derive(Debug, Clone)]
struct FlowGraph {
    adj: Vec<Vec<(usize, f64, f64)>>,
}

impl FlowGraph {
    /// Empty graph over `n` facilities.
    fn new(n: usize) -> Self {
        FlowGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of facilities.
    fn len(&self) -> usize {
        self.adj.len()
    }

    /// Accumulate directed flow `w` from `i` to `j` (self-flows ignored:
    /// they cost `w * d[x][x] = 0` under any assignment).
    fn add_flow(&mut self, i: usize, j: usize, w: f64) {
        if i == j || w == 0.0 {
            return;
        }
        match self.adj[i].binary_search_by_key(&j, |e| e.0) {
            Ok(p) => self.adj[i][p].1 += w,
            Err(p) => self.adj[i].insert(p, (j, w, 0.0)),
        }
        match self.adj[j].binary_search_by_key(&i, |e| e.0) {
            Ok(p) => self.adj[j][p].2 += w,
            Err(p) => self.adj[j].insert(p, (i, 0.0, w)),
        }
    }

    /// Build from a dense flow matrix (diagonal ignored).
    fn from_dense(w: &[Vec<f64>]) -> Self {
        let mut g = FlowGraph::new(w.len());
        for (i, row) in w.iter().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                g.add_flow(i, j, x);
            }
        }
        g
    }

    /// Neighbors of `i` as `(j, w[i][j], w[j][i])`, ascending `j`.
    fn neighbors(&self, i: usize) -> &[(usize, f64, f64)] {
        &self.adj[i]
    }
}

/// O(deg(r) + deg(s)) cost change of swapping the locations of facilities
/// `r` and `s` — the sparse counterpart of [`qap::delta_swap`], same
/// zero-flow guards, same NaN semantics (a NaN delta is never an
/// improvement).
fn delta_swap_sparse(g: &FlowGraph, dist: &[Vec<f64>], f: &[usize], r: usize, s: usize) -> f64 {
    debug_assert_ne!(r, s);
    let (fr, fs) = (f[r], f[s]);
    let mut delta = 0.0;
    for &(k, out, inw) in g.neighbors(r) {
        if k == s {
            continue;
        }
        let fk = f[k];
        if out != 0.0 {
            delta += out * (dist[fs][fk] - dist[fr][fk]);
        }
        if inw != 0.0 {
            delta += inw * (dist[fk][fs] - dist[fk][fr]);
        }
    }
    for &(k, out, inw) in g.neighbors(s) {
        if k == r {
            continue;
        }
        let fk = f[k];
        if out != 0.0 {
            delta += out * (dist[fr][fk] - dist[fs][fk]);
        }
        if inw != 0.0 {
            delta += inw * (dist[fk][fr] - dist[fk][fs]);
        }
    }
    if let Ok(p) = g.neighbors(r).binary_search_by_key(&s, |e| e.0) {
        let (_, wrs, wsr) = g.neighbors(r)[p];
        if wrs != 0.0 {
            delta += wrs * (dist[fs][fr] - dist[fr][fs]);
        }
        if wsr != 0.0 {
            delta += wsr * (dist[fr][fs] - dist[fs][fr]);
        }
    }
    delta
}

/// First-improvement delta-2-opt sweeps over an explicit candidate-pair
/// list, in place, until a full sweep finds nothing or `max_passes` is
/// hit. Deterministic for a fixed candidate order.
fn refine_candidates(
    g: &FlowGraph,
    dist: &[Vec<f64>],
    f: &mut [usize],
    candidates: &[(usize, usize)],
    max_passes: usize,
) {
    for _ in 0..max_passes {
        let mut improved = false;
        for &(i, j) in candidates {
            let delta = delta_swap_sparse(g, dist, f, i, j);
            if delta < -1e-12 {
                f.swap(i, j);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Candidate swap pairs for refinement: all pairs when the level is small,
/// otherwise flow-adjacent pairs plus the pairs merged at this level
/// (`merged`, so cluster orientations can flip). Sorted and deduplicated
/// for a deterministic sweep order.
fn candidate_pairs(g: &FlowGraph, merged: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let n = g.len();
    if n <= ALL_PAIRS_MAX_N {
        let mut all = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                all.push((i, j));
            }
        }
        return all;
    }
    let mut c: Vec<(usize, usize)> = Vec::new();
    for (i, row) in (0..n).map(|i| (i, g.neighbors(i))) {
        for &(j, _, _) in row {
            if i < j {
                c.push((i, j));
            }
        }
    }
    for &(a, b) in merged {
        c.push(if a < b { (a, b) } else { (b, a) });
    }
    c.sort_unstable();
    c.dedup();
    c
}

/// Instances up to this size refine over all O(n²) pairs (and
/// [`solve_multilevel`] cross-checks against [`qap::solve_greedy_2opt`],
/// which makes ladder quality monotone by construction). Beyond it,
/// sweeps are restricted to the sparse candidate set so nodes with
/// hundreds of GPUs stay near-linear in sweep work.
pub const ALL_PAIRS_MAX_N: usize = 128;

/// Refinement sweep cap per level. Sweeps almost always converge in 2–3
/// passes; the cap bounds worst-case work without affecting determinism.
const MAX_REFINE_PASSES: usize = 16;

/// One coarsening level: cluster membership on both sides plus the
/// materialized coarse instance.
struct Level {
    /// `fac_cluster[c] = (a, b)` — facilities merged into coarse facility
    /// `c` (`a == b` never occurs: padding keeps n even).
    fac_clusters: Vec<(usize, usize)>,
    /// `loc_clusters[c] = (p, q)` — locations merged into coarse location
    /// `c`.
    loc_clusters: Vec<(usize, usize)>,
    /// Coarse flow between facility clusters.
    coarse_flow: FlowGraph,
    /// Coarse location distances, averaged over the 4 member pairs.
    coarse_dist: Vec<Vec<f64>>,
}

/// Heavy-edge matching over the flow graph: visit facilities in index
/// order, pair each unmatched one with its unmatched neighbor carrying
/// the most traffic (ties → smallest index), then force-match leftovers
/// pairwise by index. `n` must be even; returns n/2 pairs `(a, b)` with
/// `a < b`.
fn match_facilities(g: &FlowGraph) -> Vec<(usize, usize)> {
    let n = g.len();
    debug_assert_eq!(n % 2, 0);
    let mut mate = vec![usize::MAX; n];
    let mut pairs = Vec::with_capacity(n / 2);
    for i in 0..n {
        if mate[i] != usize::MAX {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for &(j, out, inw) in g.neighbors(i) {
            if mate[j] != usize::MAX {
                continue;
            }
            let w = out + inw;
            match best {
                Some((bw, bj)) if bw > w || (bw == w && bj < j) => {}
                _ => best = Some((w, j)),
            }
        }
        if let Some((_, j)) = best {
            mate[i] = j;
            mate[j] = i;
            pairs.push((i.min(j), i.max(j)));
        }
    }
    // Force-match the isolated leftovers pairwise by index so both sides
    // coarsen to exactly n/2 clusters.
    let mut leftover: Option<usize> = None;
    for i in 0..n {
        if mate[i] != usize::MAX {
            continue;
        }
        match leftover.take() {
            None => leftover = Some(i),
            Some(a) => {
                mate[a] = i;
                mate[i] = a;
                pairs.push((a, i));
            }
        }
    }
    debug_assert!(leftover.is_none(), "even n leaves no unmatched facility");
    pairs.sort_unstable();
    pairs
}

/// Closest-pair matching over locations: visit in index order, pair each
/// unmatched location with the nearest unmatched one (ties → smallest
/// index). Unreachable distances (`+inf`) still compare, so disconnected
/// locations pair with each other last. `n` must be even.
fn match_locations(dist: &[Vec<f64>]) -> Vec<(usize, usize)> {
    let n = dist.len();
    debug_assert_eq!(n % 2, 0);
    let mut mate = vec![usize::MAX; n];
    let mut pairs = Vec::with_capacity(n / 2);
    for i in 0..n {
        if mate[i] != usize::MAX {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for j in (i + 1)..n {
            if mate[j] != usize::MAX {
                continue;
            }
            let d = dist[i][j] + dist[j][i];
            let keep = match best {
                None => true,
                Some((bd, _)) => d < bd,
            };
            if keep {
                best = Some((d, j));
            }
        }
        if let Some((_, j)) = best {
            mate[i] = j;
            mate[j] = i;
            pairs.push((i, j));
        }
    }
    pairs
}

/// Build one coarsening level from the fine instance.
fn coarsen(g: &FlowGraph, dist: &[Vec<f64>]) -> Level {
    let fac_clusters = match_facilities(g);
    let loc_clusters = match_locations(dist);
    let nc = fac_clusters.len();
    debug_assert_eq!(loc_clusters.len(), nc);

    // cluster index of each fine facility
    let mut of = vec![0usize; g.len()];
    for (c, &(a, b)) in fac_clusters.iter().enumerate() {
        of[a] = c;
        of[b] = c;
    }
    let mut coarse_flow = FlowGraph::new(nc);
    for i in 0..g.len() {
        for &(j, out, _) in g.neighbors(i) {
            if out != 0.0 && of[i] != of[j] {
                coarse_flow.add_flow(of[i], of[j], out);
            }
        }
    }

    let mut coarse_dist = vec![vec![0.0f64; nc]; nc];
    for (ca, &(p0, p1)) in loc_clusters.iter().enumerate() {
        for (cb, &(q0, q1)) in loc_clusters.iter().enumerate() {
            if ca == cb {
                continue;
            }
            coarse_dist[ca][cb] =
                0.25 * (dist[p0][q0] + dist[p0][q1] + dist[p1][q0] + dist[p1][q1]);
        }
    }

    Level {
        fac_clusters,
        loc_clusters,
        coarse_flow,
        coarse_dist,
    }
}

/// `dist` plus one extra location (index `dist.len()`) at a far-but-finite
/// distance from everything, with a zero diagonal — used to make odd
/// levels even so all clusters are pairs. The far distance is strictly
/// larger than every finite entry of `dist`, so refinement always prefers
/// real locations but never sees `inf - inf`.
fn pad_distances(dist: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut far = 1.0f64;
    for &d in dist.iter().flatten() {
        if d.is_finite() && d > far {
            far = d;
        }
    }
    far *= 4.0;
    let n = dist.len();
    let mut padded: Vec<Vec<f64>> = dist
        .iter()
        .map(|row| row.iter().copied().chain([far]).collect())
        .collect();
    padded.push(vec![far; n + 1]);
    for (a, row) in padded.iter_mut().enumerate() {
        row[a] = 0.0;
    }
    padded
}

/// Recursive multilevel solve. Odd levels are padded with a zero-flow
/// facility and a far-but-finite location (coarse sizes can turn odd at
/// any depth: 30 → 15). Returns the assignment of facilities to
/// locations.
fn solve_rec(g: &FlowGraph, dist: &[Vec<f64>], depth: usize) -> Vec<usize> {
    let n = g.len();
    debug_assert_eq!(dist.len(), n);
    if n <= qap::EXHAUSTIVE_MAX_N {
        // Densify the flow: trivially cheap at this size.
        let mut w = vec![vec![0.0f64; n]; n];
        for (i, row) in w.iter_mut().enumerate() {
            for &(j, out, _) in g.neighbors(i) {
                row[j] = out;
            }
        }
        return qap::solve_exhaustive(&w, dist).0;
    }
    // Depth guard: every two levels at least halve n (pad adds 1, the
    // matching then halves), so 64 levels covers any usize.
    assert!(depth < 64, "multilevel recursion failed to shrink");

    if n % 2 == 1 {
        // Pad, solve even, strip. The dummy facility costs nothing
        // wherever it sits, so parking it on the dummy location and
        // handing its real location to whoever held the dummy one is
        // cost-neutral for the dummy and never worse for the displaced
        // facility (the dummy location is the farthest by construction).
        let mut padded = g.clone();
        padded.adj.push(Vec::new());
        let mut f = solve_rec(&padded, &pad_distances(dist), depth + 1);
        let dummy_loc = f[n];
        if dummy_loc != n {
            let holder = f.iter().position(|&l| l == n).expect("bijection");
            f[holder] = dummy_loc;
        }
        f.truncate(n);
        // One more repair pass on the real instance after the strip.
        let candidates = candidate_pairs(g, &[]);
        refine_candidates(g, dist, &mut f, &candidates, MAX_REFINE_PASSES);
        return f;
    }

    let level = coarsen(g, dist);
    let coarse_assign = solve_rec(&level.coarse_flow, &level.coarse_dist, depth + 1);

    // Expand: both members of a facility cluster land on the two members
    // of its assigned location cluster, in index order (the refinement
    // pass below flips orientations that matter).
    let mut f = vec![0usize; n];
    let mut merged = Vec::with_capacity(level.fac_clusters.len());
    for (c, &(a, b)) in level.fac_clusters.iter().enumerate() {
        let (p, q) = level.loc_clusters[coarse_assign[c]];
        f[a] = p;
        f[b] = q;
        merged.push((a, b));
    }
    let candidates = candidate_pairs(g, &merged);
    refine_candidates(g, dist, &mut f, &candidates, MAX_REFINE_PASSES);
    f
}

/// The hierarchical rung of the placement ladder (used by [`qap::solve`]
/// beyond [`qap::EXHAUSTIVE_MAX_N`]): runs the multilevel mapper on the
/// dense instance `w`, `d` and, on instances up to [`ALL_PAIRS_MAX_N`],
/// cross-checks against [`qap::solve_greedy_2opt`] and keeps the better
/// result — which makes the ladder's quality monotone by construction
/// (hierarchical ≤ greedy ≤ trivial). Instances within
/// [`qap::EXHAUSTIVE_MAX_N`] are solved exhaustively, so the multilevel
/// rung matches the exhaustive one exactly there. Deterministic.
///
/// # Panics
/// If `d.len() != w.len()`.
pub fn solve_multilevel(w: &[Vec<f64>], d: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = w.len();
    assert_eq!(d.len(), n);
    if n <= qap::EXHAUSTIVE_MAX_N {
        return qap::solve_exhaustive(w, d);
    }
    let f = solve_rec(&FlowGraph::from_dense(w), d, 0);
    let c = qap::cost(w, d, &f);
    if n <= ALL_PAIRS_MAX_N {
        qap::better((f, c), qap::solve_greedy_2opt(w, d))
    } else {
        (f, c)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // matrix-builder loops index two sides
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    fn random_instance(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rnd = lcg(seed);
        let mut w = vec![vec![0.0; n]; n];
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    w[i][j] = (rnd() * 10.0).floor();
                    d[i][j] = rnd() + 0.01;
                }
            }
        }
        (w, d)
    }

    fn assert_perm(f: &[usize], n: usize) {
        let mut s = f.to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..n).collect::<Vec<_>>(), "not a permutation: {f:?}");
    }

    #[test]
    fn sparse_cost_matches_dense() {
        for seed in 0..6u64 {
            let n = 5 + seed as usize;
            let (w, d) = random_instance(n, seed * 31 + 7);
            let g = FlowGraph::from_dense(&w);
            let mut f: Vec<usize> = (0..n).collect();
            f.rotate_left(seed as usize % n);
            let dense = qap::cost(&w, &d, &f);
            let mut sparse = 0.0;
            for i in 0..n {
                for &(j, out, _) in g.neighbors(i) {
                    if out != 0.0 {
                        sparse += out * d[f[i]][f[j]];
                    }
                }
            }
            assert!((dense - sparse).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn sparse_delta_matches_dense_delta() {
        for seed in 0..10u64 {
            let n = 4 + seed as usize % 7;
            let (w, d) = random_instance(n, seed * 57 + 3);
            let g = FlowGraph::from_dense(&w);
            let mut f: Vec<usize> = (0..n).collect();
            f.rotate_left(1);
            for r in 0..n {
                for s in (r + 1)..n {
                    let dd = qap::delta_swap(&w, &d, &f, r, s);
                    let ds = delta_swap_sparse(&g, &d, &f, r, s);
                    assert!(
                        (dd - ds).abs() < 1e-9 * (1.0 + dd.abs()),
                        "seed {seed} swap ({r},{s}): {dd} vs {ds}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_within_exhaustive_range() {
        for n in 2..=qap::EXHAUSTIVE_MAX_N.min(6) {
            for seed in 0..4u64 {
                let (w, d) = random_instance(n, seed * 91 + n as u64);
                let (fe, ce) = qap::solve_exhaustive(&w, &d);
                let (fm, cm) = solve_multilevel(&w, &d);
                assert_eq!(fe, fm, "n={n} seed={seed}");
                assert_eq!(ce.to_bits(), cm.to_bits());
            }
        }
    }

    #[test]
    fn valid_permutation_odd_and_even() {
        for n in [9usize, 10, 13, 16, 24, 33] {
            let (w, d) = random_instance(n, n as u64 * 7 + 1);
            let (f, c) = solve_multilevel(&w, &d);
            assert_perm(&f, n);
            assert!(c.is_finite());
        }
    }

    #[test]
    fn never_worse_than_greedy_or_trivial() {
        for n in [9usize, 12, 17, 25, 40] {
            for seed in 0..3u64 {
                let (w, d) = random_instance(n, seed * 13 + n as u64);
                let (_, cm) = solve_multilevel(&w, &d);
                let (_, cg) = qap::solve_greedy_2opt(&w, &d);
                let triv: Vec<usize> = (0..n).collect();
                let ct = qap::cost(&w, &d, &triv);
                assert!(cm <= cg + 1e-9, "n={n} seed={seed}: {cm} vs greedy {cg}");
                assert!(cm <= ct + 1e-9, "n={n} seed={seed}: {cm} vs trivial {ct}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (w, d) = random_instance(30, 424242);
        let (fa, ca) = solve_multilevel(&w, &d);
        let (fb, cb) = solve_multilevel(&w, &d);
        assert_eq!(fa, fb);
        assert_eq!(ca.to_bits(), cb.to_bits());
    }

    /// Two heavy 4-cliques of flow must land on the two tight location
    /// clusters — the structure coarsening is designed to expose.
    #[test]
    fn clustered_flow_lands_on_clustered_locations() {
        let n = 16;
        let mut w = vec![vec![0.0; n]; n];
        // facilities 0..4 and 8..12 are two heavy cliques
        for group in [0usize, 8] {
            for i in group..group + 4 {
                for j in group..group + 4 {
                    if i != j {
                        w[i][j] = 100.0;
                    }
                }
            }
        }
        // light all-to-all background
        for i in 0..n {
            for j in 0..n {
                if i != j && w[i][j] == 0.0 {
                    w[i][j] = 0.5;
                }
            }
        }
        // locations 0..4 and 4..8 are cheap islands; everything else far
        let mut d = vec![vec![10.0; n]; n];
        for island in [0usize, 4] {
            for a in island..island + 4 {
                for b in island..island + 4 {
                    d[a][b] = if a == b { 0.0 } else { 1.0 };
                }
            }
        }
        for (a, row) in d.iter_mut().enumerate() {
            row[a] = 0.0;
        }
        let (f, _) = solve_multilevel(&w, &d);
        assert_perm(&f, n);
        for group in [0usize, 8] {
            let islands: Vec<usize> = (group..group + 4).map(|i| f[i] / 4).collect();
            assert!(
                islands.iter().all(|&x| x == islands[0] && x < 2),
                "clique at {group} split across islands: {islands:?}"
            );
        }
    }

    #[test]
    fn zero_flow_facility_absorbs_unreachable_location() {
        let n = 10;
        let mut w = vec![vec![0.0; n]; n];
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                if i != j {
                    w[i][j] = 1.0 + ((i * 3 + j) % 5) as f64;
                }
            }
        }
        // facility n-1 exchanges nothing; location n-1 is unreachable.
        let mut d = vec![vec![1.0; n]; n];
        for (a, row) in d.iter_mut().enumerate() {
            row[a] = 0.0;
            row[n - 1] = f64::INFINITY;
        }
        for b in 0..n {
            d[n - 1][b] = f64::INFINITY;
        }
        d[n - 1][n - 1] = 0.0;
        let (f, c) = solve_multilevel(&w, &d);
        assert_perm(&f, n);
        assert_eq!(f[n - 1], n - 1, "dead location goes to the silent facility");
        assert!(c.is_finite());
    }
}

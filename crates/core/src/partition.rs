//! Setup phase 1 — hierarchical domain partitioning (paper §III-A, Fig. 4).
//!
//! The domain is decomposed twice by recursive inertial bisection: first
//! into one subdomain per *node* (minimizing the slower inter-node
//! communication), then each node subdomain into one per *GPU*. At each
//! step the prime factors of the target count, sorted largest first, split
//! the currently-longest axis — yielding subdomains as close to cubical as
//! possible (minimal surface-to-volume ratio, paper Fig. 3).

use crate::dim3::{Boundary, Box3, Dim3, Dir3, Idx3};

/// Prime factors of `n`, sorted descending. `prime_factors(1)` is empty.
pub fn prime_factors(mut n: usize) -> Vec<usize> {
    assert!(n >= 1, "cannot factor zero");
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// Split a (possibly already-divided) shape into `count` parts: each prime
/// factor, largest first, divides the currently-longest axis (ties prefer
/// the lowest axis index). Returns parts per axis.
pub fn choose_dims(shape: Dim3, count: usize) -> Idx3 {
    let mut dims = [1usize; 3];
    let mut cur = [shape[0] as f64, shape[1] as f64, shape[2] as f64];
    for f in prime_factors(count) {
        let axis = (0..3)
            .max_by(|&a, &b| cur[a].partial_cmp(&cur[b]).unwrap().then(b.cmp(&a)))
            .unwrap();
        dims[axis] *= f;
        cur[axis] /= f as f64;
    }
    dims
}

/// The two-level decomposition: a 3D grid of node subdomains, each further
/// split into a 3D grid of GPU subdomains. Cheap to copy around; all
/// geometry is computed on demand (and is identical on every rank).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Global domain extent in cells.
    pub domain: Dim3,
    /// Node grid shape.
    pub node_dims: Idx3,
    /// Per-node GPU grid shape.
    pub gpu_dims: Idx3,
}

impl Partition {
    /// Decompose `domain` among `num_nodes` nodes of `gpus_per_node` GPUs.
    /// Panics with [`Partition::try_new`]'s message if the domain cannot
    /// be decomposed.
    pub fn new(domain: Dim3, num_nodes: usize, gpus_per_node: usize) -> Partition {
        Self::try_new(domain, num_nodes, gpus_per_node).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Partition::new`], but an empty domain, or one with fewer cells
    /// along an axis than the decomposition has parts, is an `Err`.
    pub fn try_new(domain: Dim3, num_nodes: usize, gpus_per_node: usize) -> Result<Self, String> {
        if domain.contains(&0) {
            return Err("empty domain".into());
        }
        let node_dims = choose_dims(domain, num_nodes);
        let proto = [
            domain[0] / node_dims[0] as u64,
            domain[1] / node_dims[1] as u64,
            domain[2] / node_dims[2] as u64,
        ];
        if proto.contains(&0) {
            return Err(format!("domain {domain:?} too small for {num_nodes} nodes"));
        }
        let gpu_dims = choose_dims(proto, gpus_per_node);
        let p = Partition {
            domain,
            node_dims,
            gpu_dims,
        };
        let g = p.global_dims();
        if (0..3).any(|a| g[a] as u64 > domain[a]) {
            return Err(format!(
                "domain {domain:?} too small for decomposition {g:?}"
            ));
        }
        Ok(p)
    }

    /// Build from explicit grid shapes (forced decompositions, tests,
    /// Fig. 3 comparisons).
    pub fn with_dims(domain: Dim3, node_dims: Idx3, gpu_dims: Idx3) -> Partition {
        Partition {
            domain,
            node_dims,
            gpu_dims,
        }
    }

    /// Number of node subdomains.
    pub fn num_nodes(&self) -> usize {
        self.node_dims[0] * self.node_dims[1] * self.node_dims[2]
    }

    /// GPU subdomains per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpu_dims[0] * self.gpu_dims[1] * self.gpu_dims[2]
    }

    /// Total subdomains.
    pub fn num_subdomains(&self) -> usize {
        self.num_nodes() * self.gpus_per_node()
    }

    /// The combined (node × GPU) grid shape.
    pub fn global_dims(&self) -> Idx3 {
        [
            self.node_dims[0] * self.gpu_dims[0],
            self.node_dims[1] * self.gpu_dims[1],
            self.node_dims[2] * self.gpu_dims[2],
        ]
    }

    #[inline]
    fn part_start(len: u64, parts: usize, i: usize) -> u64 {
        (len as u128 * i as u128 / parts as u128) as u64
    }

    fn split_1d(len: u64, parts: usize, i: usize) -> (u64, u64) {
        let s = Self::part_start(len, parts, i);
        let e = Self::part_start(len, parts, i + 1);
        (s, e - s)
    }

    /// The cells of node subdomain `n`.
    pub fn node_box(&self, n: Idx3) -> Box3 {
        let mut origin = [0u64; 3];
        let mut extent = [0u64; 3];
        for a in 0..3 {
            assert!(n[a] < self.node_dims[a], "node index out of range");
            let (s, l) = Self::split_1d(self.domain[a], self.node_dims[a], n[a]);
            origin[a] = s;
            extent[a] = l;
        }
        Box3 { origin, extent }
    }

    /// The cells of GPU subdomain `g` within node subdomain `n`.
    pub fn gpu_box(&self, n: Idx3, g: Idx3) -> Box3 {
        let nb = self.node_box(n);
        let mut origin = [0u64; 3];
        let mut extent = [0u64; 3];
        for a in 0..3 {
            assert!(g[a] < self.gpu_dims[a], "gpu index out of range");
            let (s, l) = Self::split_1d(nb.extent[a], self.gpu_dims[a], g[a]);
            origin[a] = nb.origin[a] + s;
            extent[a] = l;
        }
        Box3 { origin, extent }
    }

    /// Combined global index of `(node, gpu)`.
    pub fn global_idx(&self, n: Idx3, g: Idx3) -> Idx3 {
        [
            n[0] * self.gpu_dims[0] + g[0],
            n[1] * self.gpu_dims[1] + g[1],
            n[2] * self.gpu_dims[2] + g[2],
        ]
    }

    /// Inverse of [`Self::global_idx`].
    pub fn split_global(&self, gi: Idx3) -> (Idx3, Idx3) {
        let n = [
            gi[0] / self.gpu_dims[0],
            gi[1] / self.gpu_dims[1],
            gi[2] / self.gpu_dims[2],
        ];
        let g = [
            gi[0] % self.gpu_dims[0],
            gi[1] % self.gpu_dims[1],
            gi[2] % self.gpu_dims[2],
        ];
        (n, g)
    }

    /// The subdomain adjacent to `(n, g)` in direction `d`, with periodic
    /// boundary conditions in the combined index space.
    pub fn neighbor(&self, n: Idx3, g: Idx3, d: Dir3) -> (Idx3, Idx3) {
        self.neighbor_bc(n, g, d, Boundary::Periodic)
            .expect("periodic neighbors always exist")
    }

    /// The subdomain adjacent to `(n, g)` in direction `d` under the given
    /// boundary condition. `None` when the step leaves an open domain.
    pub fn neighbor_bc(&self, n: Idx3, g: Idx3, d: Dir3, bc: Boundary) -> Option<(Idx3, Idx3)> {
        let dims = self.global_dims();
        let gi = self.global_idx(n, g);
        let mut out = [0usize; 3];
        for a in 0..3 {
            let m = dims[a] as i64;
            let raw = gi[a] as i64 + d.0[a] as i64;
            out[a] = match bc {
                Boundary::Periodic => raw.rem_euclid(m) as usize,
                Boundary::Open => {
                    if raw < 0 || raw >= m {
                        return None;
                    }
                    raw as usize
                }
            };
        }
        Some(self.split_global(out))
    }

    /// Linearized node id of a node index (x fastest).
    pub fn node_linear(&self, n: Idx3) -> usize {
        (n[2] * self.node_dims[1] + n[1]) * self.node_dims[0] + n[0]
    }

    /// Node index of a linear node id.
    pub fn node_from_linear(&self, l: usize) -> Idx3 {
        let x = l % self.node_dims[0];
        let y = (l / self.node_dims[0]) % self.node_dims[1];
        let z = l / (self.node_dims[0] * self.node_dims[1]);
        [x, y, z]
    }

    /// Linearized per-node GPU-subdomain id (x fastest).
    pub fn gpu_linear(&self, g: Idx3) -> usize {
        (g[2] * self.gpu_dims[1] + g[1]) * self.gpu_dims[0] + g[0]
    }

    /// GPU-subdomain index of a linear id.
    pub fn gpu_from_linear(&self, l: usize) -> Idx3 {
        let x = l % self.gpu_dims[0];
        let y = (l / self.gpu_dims[0]) % self.gpu_dims[1];
        let z = l / (self.gpu_dims[0] * self.gpu_dims[1]);
        [x, y, z]
    }

    /// Globally-unique linear subdomain id (used for message tags).
    pub fn subdomain_id(&self, n: Idx3, g: Idx3) -> usize {
        let gi = self.global_idx(n, g);
        let dims = self.global_dims();
        (gi[2] * dims[1] + gi[1]) * dims[0] + gi[0]
    }

    /// Iterate over all (node, gpu) index pairs.
    pub fn all_subdomains(&self) -> impl Iterator<Item = (Idx3, Idx3)> + '_ {
        let nd = self.node_dims;
        let gd = self.gpu_dims;
        let mut out = Vec::with_capacity(self.num_subdomains());
        for nz in 0..nd[2] {
            for ny in 0..nd[1] {
                for nx in 0..nd[0] {
                    for gz in 0..gd[2] {
                        for gy in 0..gd[1] {
                            for gx in 0..gd[0] {
                                out.push(([nx, ny, nz], [gx, gy, gz]));
                            }
                        }
                    }
                }
            }
        }
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim3::Neighborhood;

    #[test]
    fn prime_factors_sorted_desc() {
        assert_eq!(prime_factors(12), vec![3, 2, 2]);
        assert_eq!(prime_factors(1), Vec::<usize>::new());
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(256), vec![2; 8]);
        assert_eq!(prime_factors(30), vec![5, 3, 2]);
    }

    #[test]
    fn paper_fig4_example() {
        // 4 x 24 x 2 domain, 12 nodes of 4 GPUs (paper Fig. 4):
        // splits y by 3, y by 2, x by 2 -> node grid [2, 6, 1];
        // node shape [2, 4, 2]: y by 2 then x by 2 -> gpu grid [2, 2, 1].
        let p = Partition::new([4, 24, 2], 12, 4);
        assert_eq!(p.node_dims, [2, 6, 1]);
        assert_eq!(p.gpu_dims, [2, 2, 1]);
    }

    #[test]
    fn try_new_refuses_what_new_panics_on() {
        assert_eq!(
            Partition::try_new([4, 24, 2], 12, 4),
            Ok(Partition::new([4, 24, 2], 12, 4))
        );
        // 64 cells for 30 subdomains, but 5 nodes split one 4-cell axis.
        let e = Partition::try_new([4, 4, 4], 5, 6).unwrap_err();
        assert_eq!(e, "domain [4, 4, 4] too small for 5 nodes");
        assert!(Partition::try_new([0, 4, 4], 1, 1).is_err());
        assert!(Partition::try_new([2, 2, 2], 1, 27).is_err());
    }

    #[test]
    fn cube_domain_six_gpus_single_node() {
        // 6 = 3*2: longest (tie) -> x by 3, then longest is y or z -> y by 2
        let p = Partition::new([720, 720, 720], 1, 6);
        assert_eq!(p.node_dims, [1, 1, 1]);
        assert_eq!(p.gpu_dims, [3, 2, 1]);
    }

    #[test]
    fn fig11_shape() {
        // The paper's Fig. 11 example: 1440 x 1452 x 700 on 6 GPUs produces
        // 720 x 484 x 700 subdomains (y by 3, x by 2).
        let p = Partition::new([1440, 1452, 700], 1, 6);
        let b = p.gpu_box([0, 0, 0], [0, 0, 0]);
        assert_eq!(b.extent, [720, 484, 700]);
    }

    #[test]
    fn boxes_cover_domain_exactly() {
        let p = Partition::new([101, 57, 23], 6, 4);
        let mut total = 0u64;
        for (n, g) in p.all_subdomains() {
            total += p.gpu_box(n, g).volume();
        }
        assert_eq!(total, 101 * 57 * 23);
    }

    #[test]
    fn neighbor_wraps_periodically() {
        let p = Partition::new([64, 64, 64], 4, 4);
        let (n, g) = p.neighbor([0, 0, 0], [0, 0, 0], Dir3::new(-1, 0, 0));
        let gi = p.global_idx(n, g);
        assert_eq!(gi[0], p.global_dims()[0] - 1);
    }

    #[test]
    fn neighbor_of_neighbor_in_opposite_dir_is_self() {
        let p = Partition::new([64, 64, 64], 8, 6);
        for (n, g) in p.all_subdomains().take(48) {
            for d in Neighborhood::Full26.directions() {
                let (n2, g2) = p.neighbor(n, g, d);
                let (n3, g3) = p.neighbor(n2, g2, d.opposite());
                assert_eq!((n3, g3), (n, g));
            }
        }
    }

    #[test]
    fn index_round_trips() {
        let p = Partition::new([64, 64, 64], 12, 4);
        for (n, g) in p.all_subdomains() {
            assert_eq!(p.node_from_linear(p.node_linear(n)), n);
            assert_eq!(p.gpu_from_linear(p.gpu_linear(g)), g);
            let gi = p.global_idx(n, g);
            assert_eq!(p.split_global(gi), (n, g));
        }
    }

    #[test]
    fn subdomain_ids_unique() {
        let p = Partition::new([64, 64, 64], 8, 6);
        let mut seen = std::collections::HashSet::new();
        for (n, g) in p.all_subdomains() {
            assert!(seen.insert(p.subdomain_id(n, g)));
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn choose_dims_prefers_cubes() {
        // Fig. 3: 4 parts of a square should be 2x2, not 4x1.
        assert_eq!(choose_dims([60, 60, 1], 4), [2, 2, 1]);
        // 9 parts of a square should be 3x3.
        assert_eq!(choose_dims([60, 60, 1], 9), [3, 3, 1]);
    }

    /// Deterministic xorshift for case generation.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Subdomain boxes tile the domain: volumes sum exactly, and sample
    /// points belong to exactly one subdomain.
    #[test]
    fn prop_boxes_disjoint_and_cover() {
        let mut r = rng(42);
        for _ in 0..60 {
            let nodes = 1 + (r() % 8) as usize;
            let gpus = 1 + (r() % 6) as usize;
            let dx = 1 + r() % 79;
            let dy = 1 + r() % 79;
            let dz = 1 + r() % 79;
            let domain = [dx.max(nodes as u64 * gpus as u64), dy, dz];
            let p = Partition::new(domain, nodes, gpus);
            // volumes sum to the domain volume
            let total: u64 = p
                .all_subdomains()
                .map(|(n, g)| p.gpu_box(n, g).volume())
                .sum();
            assert_eq!(
                total,
                domain[0] * domain[1] * domain[2],
                "domain {domain:?}"
            );
            // sample points map to exactly one subdomain
            for pt in [
                [0u64, 0, 0],
                [domain[0] - 1, domain[1] - 1, domain[2] - 1],
                [domain[0] / 2, domain[1] / 3, domain[2] / 2],
            ] {
                let owners = p
                    .all_subdomains()
                    .filter(|&(n, g)| p.gpu_box(n, g).contains(pt))
                    .count();
                assert_eq!(owners, 1, "point {pt:?} of {domain:?}");
            }
        }
    }

    /// The chosen grid always multiplies out to the requested count.
    #[test]
    fn prop_choose_dims_product() {
        for count in 1usize..500 {
            let d = choose_dims([1000, 1000, 1000], count);
            assert_eq!(d[0] * d[1] * d[2], count, "count {count}");
        }
    }

    /// Periodic neighbor lookups always land inside the grid.
    #[test]
    fn prop_neighbor_stays_in_range() {
        let mut r = rng(7);
        for _ in 0..50 {
            let nodes = 1 + (r() % 8) as usize;
            let gpus = 1 + (r() % 6) as usize;
            let seed = (r() % 1000) as usize;
            let p = Partition::new([640, 640, 640], nodes, gpus);
            let subs: Vec<_> = p.all_subdomains().collect();
            let (n, g) = subs[seed % subs.len()];
            for d in Neighborhood::Full26.directions() {
                let (n2, g2) = p.neighbor(n, g, d);
                for a in 0..3 {
                    assert!(n2[a] < p.node_dims[a]);
                    assert!(g2[a] < p.gpu_dims[a]);
                }
            }
        }
    }
}

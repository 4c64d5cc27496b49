//! Setup phase 2 — node-aware data placement (paper §III-B, Fig. 5/11).
//!
//! Within each node, the GPU subdomains exchange different amounts of data
//! (their shapes and adjacency differ), and the GPUs have non-uniform
//! bandwidth (NVLink triads vs the X-Bus). Placement assigns subdomains to
//! GPUs by solving a QAP whose flow matrix is the pairwise exchange volume
//! and whose distance matrix is the reciprocal of the discovered
//! GPU-to-GPU bandwidth.

use topo::NodeDiscovery;

use crate::dim3::{Boundary, Idx3, Neighborhood};
use crate::multilevel;
use crate::partition::Partition;
use crate::qap;
use crate::radius::Radius;

/// How to assign subdomains to GPUs within each node. The solver rungs
/// form a ladder (`docs/PLACEMENT.md`): exhaustive for small nodes,
/// delta-cost 2-opt for fat ones, hierarchical multilevel beyond that —
/// [`PlacementStrategy::NodeAware`] picks the rung automatically by
/// instance size, while [`PlacementStrategy::GreedySwap`] and
/// [`PlacementStrategy::Hierarchical`] pin a specific rung (benchmarking
/// and quality/latency trade-off studies).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementStrategy {
    /// QAP on exchange volume × reciprocal bandwidth (the paper's method),
    /// solved by the ladder rung appropriate to the node size: exhaustive
    /// for ≤ [`qap::EXHAUSTIVE_MAX_N`] GPUs, hierarchical multilevel
    /// beyond.
    #[default]
    NodeAware,
    /// Linearize the subdomain index and assign to GPUs in order (the
    /// baseline the paper compares against).
    Trivial,
    /// QAP on exchange volume × reciprocal *measured* bandwidth: timed probe
    /// transfers at setup replace the NVML-class inference (the paper's §VI
    /// future-work item; see [`crate::empirical`]). Uses the same
    /// size-dispatched solver ladder as `NodeAware`.
    Empirical,
    /// Force the delta-cost 2-opt local-search rung
    /// ([`qap::solve_greedy_2opt`]) regardless of node size.
    GreedySwap,
    /// Force the hierarchical multilevel rung
    /// ([`multilevel::solve_multilevel`]) regardless of node size.
    Hierarchical,
}

impl PlacementStrategy {
    /// Stable wire name for job specs and persisted results
    /// (`docs/SERVICE.md`). [`PlacementStrategy::parse`] is the inverse.
    pub fn name(self) -> &'static str {
        match self {
            PlacementStrategy::NodeAware => "node-aware",
            PlacementStrategy::Trivial => "trivial",
            PlacementStrategy::Empirical => "empirical",
            PlacementStrategy::GreedySwap => "greedy-swap",
            PlacementStrategy::Hierarchical => "hierarchical",
        }
    }

    /// Parse a wire name produced by [`PlacementStrategy::name`].
    pub fn parse(s: &str) -> Option<PlacementStrategy> {
        Some(match s {
            "node-aware" => PlacementStrategy::NodeAware,
            "trivial" => PlacementStrategy::Trivial,
            "empirical" => PlacementStrategy::Empirical,
            "greedy-swap" => PlacementStrategy::GreedySwap,
            "hierarchical" => PlacementStrategy::Hierarchical,
            _ => return None,
        })
    }

    /// Run this strategy's solver rung on an explicit QAP instance.
    /// `NodeAware` and `Empirical` dispatch by size (they differ only in
    /// where the distance matrix comes from, which is the caller's
    /// business).
    pub fn solve(self, w: &[Vec<f64>], d: &[Vec<f64>]) -> (Vec<usize>, f64) {
        match self {
            PlacementStrategy::NodeAware | PlacementStrategy::Empirical => qap::solve(w, d),
            PlacementStrategy::Trivial => {
                let f: Vec<usize> = (0..w.len()).collect();
                let c = qap::cost(w, d, &f);
                (f, c)
            }
            PlacementStrategy::GreedySwap => qap::solve_greedy_2opt(w, d),
            PlacementStrategy::Hierarchical => multilevel::solve_multilevel(w, d),
        }
    }
}

/// The per-node assignment of GPU subdomains to physical GPUs.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// `gpu_for_subdomain[s]` = node-local GPU index hosting the subdomain
    /// with per-node linear index `s`.
    pub gpu_for_subdomain: Vec<usize>,
    /// Inverse map.
    pub subdomain_for_gpu: Vec<usize>,
    /// The QAP cost of this assignment (flow × distance), for reporting.
    pub cost: f64,
}

/// Pairwise exchange volume in bytes between the GPU subdomains of node
/// `n`: `w[i][j]` is the bytes subdomain `i` sends subdomain `j` per
/// exchange (only counting pairs that are both on this node).
pub fn flow_matrix(
    part: &Partition,
    n: Idx3,
    neighborhood: Neighborhood,
    radius: &Radius,
    quantities: usize,
    elem_size: usize,
) -> Vec<Vec<f64>> {
    flow_matrix_bc(
        part,
        n,
        neighborhood,
        radius,
        quantities,
        elem_size,
        Boundary::Periodic,
    )
}

/// As [`flow_matrix`], under an explicit boundary condition (open domains
/// have no wrap flows).
#[allow(clippy::too_many_arguments)] // mirrors flow_matrix
pub fn flow_matrix_bc(
    part: &Partition,
    n: Idx3,
    neighborhood: Neighborhood,
    radius: &Radius,
    quantities: usize,
    elem_size: usize,
    bc: Boundary,
) -> Vec<Vec<f64>> {
    let g = part.gpus_per_node();
    let mut w = vec![vec![0.0; g]; g];
    for (ni, gi) in part.all_subdomains() {
        if ni != n {
            continue;
        }
        let src = part.gpu_linear(gi);
        let b = part.gpu_box(ni, gi);
        for d in neighborhood.directions() {
            let Some((nn, gg)) = part.neighbor_bc(ni, gi, d, bc) else {
                continue; // open boundary: no neighbor, no flow
            };
            if nn != n {
                continue; // off-node flow doesn't inform intra-node placement
            }
            let dst = part.gpu_linear(gg);
            if dst == src {
                continue; // self-exchange costs nothing to place
            }
            let e = radius.halo_extent(b.extent, d);
            let bytes = e[0] * e[1] * e[2] * quantities as u64 * elem_size as u64;
            w[src][dst] += bytes as f64;
        }
    }
    w
}

/// Compute the placement for node `n` from discovered (NVML-class)
/// distances. For [`PlacementStrategy::Empirical`] use
/// [`place_with_distance`] with a measured matrix instead.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn place(
    part: &Partition,
    n: Idx3,
    discovery: &NodeDiscovery,
    neighborhood: Neighborhood,
    radius: &Radius,
    quantities: usize,
    elem_size: usize,
    strategy: PlacementStrategy,
    bc: Boundary,
) -> Placement {
    assert_eq!(
        part.gpus_per_node(),
        discovery.num_gpus(),
        "partition GPUs per node must match the physical node"
    );
    assert_ne!(
        strategy,
        PlacementStrategy::Empirical,
        "empirical placement needs a measured matrix; use place_with_distance"
    );
    let d = discovery.distance_matrix();
    place_with_distance(
        part,
        n,
        &d,
        neighborhood,
        radius,
        quantities,
        elem_size,
        strategy,
        bc,
    )
}

/// Compute the placement for node `n` against an explicit distance matrix
/// (e.g. one built from measured bandwidths, [`crate::empirical`]),
/// solving with `strategy`'s ladder rung.
#[allow(clippy::too_many_arguments)] // mirrors `place`
pub fn place_with_distance(
    part: &Partition,
    n: Idx3,
    d: &[Vec<f64>],
    neighborhood: Neighborhood,
    radius: &Radius,
    quantities: usize,
    elem_size: usize,
    strategy: PlacementStrategy,
    bc: Boundary,
) -> Placement {
    let g = part.gpus_per_node();
    assert_eq!(g, d.len(), "distance matrix must cover the node's GPUs");
    let w = flow_matrix_bc(part, n, neighborhood, radius, quantities, elem_size, bc);
    let (assignment, cost) = strategy.solve(&w, d);
    let mut inverse = vec![0usize; g];
    for (s, &gpu) in assignment.iter().enumerate() {
        inverse[gpu] = s;
    }
    Placement {
        gpu_for_subdomain: assignment,
        subdomain_for_gpu: inverse,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::summit::summit_node;

    fn summit_discovery() -> NodeDiscovery {
        NodeDiscovery::discover(&summit_node())
    }

    #[test]
    fn flow_matrix_symmetric_for_constant_radius() {
        let p = Partition::new([720, 720, 720], 1, 6);
        let w = flow_matrix(
            &p,
            [0, 0, 0],
            Neighborhood::Full26,
            &Radius::constant(2),
            4,
            4,
        );
        for (i, row) in w.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, v) in row.iter().enumerate() {
                assert!((v - w[j][i]).abs() < 1e-6, "w[{i}][{j}]");
            }
        }
    }

    #[test]
    fn flow_matrix_face_volume_matches_geometry() {
        // 2 subdomains split along x: each sends r * ny * nz cells per
        // quantity to the other, twice (wrap makes them neighbors on both
        // sides).
        let p = Partition::with_dims([64, 32, 16], [1, 1, 1], [2, 1, 1]);
        let w = flow_matrix(
            &p,
            [0, 0, 0],
            Neighborhood::Faces6,
            &Radius::constant(1),
            1,
            4,
        );
        let expect = 2.0 * (32 * 16 * 4) as f64; // r=1; both +x and -x (periodic)
        assert_eq!(w[0][1], expect);
        assert_eq!(w[1][0], expect);
    }

    #[test]
    fn node_aware_beats_trivial_on_fig11_shape() {
        // The paper's worst-case example: 1440 x 1452 x 700 over 6 GPUs.
        let p = Partition::new([1440, 1452, 700], 1, 6);
        let disc = summit_discovery();
        let r = Radius::constant(2);
        let aware = place(
            &p,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &r,
            4,
            4,
            PlacementStrategy::NodeAware,
            Boundary::Periodic,
        );
        let trivial = place(
            &p,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &r,
            4,
            4,
            PlacementStrategy::Trivial,
            Boundary::Periodic,
        );
        assert!(
            aware.cost <= trivial.cost,
            "node-aware ({}) must not lose to trivial ({})",
            aware.cost,
            trivial.cost
        );
    }

    #[test]
    fn placement_is_bijective() {
        let p = Partition::new([720, 484, 700], 1, 6);
        let disc = summit_discovery();
        let pl = place(
            &p,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &Radius::constant(2),
            4,
            4,
            PlacementStrategy::NodeAware,
            Boundary::Periodic,
        );
        let mut gpus = pl.gpu_for_subdomain.clone();
        gpus.sort_unstable();
        assert_eq!(gpus, vec![0, 1, 2, 3, 4, 5]);
        for s in 0..6 {
            assert_eq!(pl.subdomain_for_gpu[pl.gpu_for_subdomain[s]], s);
        }
    }

    #[test]
    fn trivial_placement_is_identity() {
        let p = Partition::new([720, 720, 720], 1, 6);
        let disc = summit_discovery();
        let pl = place(
            &p,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &Radius::constant(1),
            1,
            4,
            PlacementStrategy::Trivial,
            Boundary::Periodic,
        );
        assert_eq!(pl.gpu_for_subdomain, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn heavy_neighbors_share_a_triad() {
        // Fig. 11 layout: gpu grid [2, 3, 1] over 1440x1452x700; the
        // heaviest exchanges are the 720x700 x-faces between x-neighbors.
        // Node-aware placement must put x-adjacent subdomain pairs on
        // NVLink-direct GPU pairs where possible.
        let p = Partition::new([1440, 1452, 700], 1, 6);
        assert_eq!(p.gpu_dims, [2, 3, 1]);
        let disc = summit_discovery();
        let r = Radius::constant(2);
        let pl = place(
            &p,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &r,
            4,
            4,
            PlacementStrategy::NodeAware,
            Boundary::Periodic,
        );
        let w = flow_matrix(&p, [0, 0, 0], Neighborhood::Full26, &r, 4, 4);
        let d = disc.distance_matrix();
        // count flow-weighted traffic landing on SYS (cross-triad) links
        let mut sys_traffic_aware = 0.0;
        let mut total = 0.0;
        for (i, row) in w.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                total += v;
                let gi = pl.gpu_for_subdomain[i];
                let gj = pl.gpu_for_subdomain[j];
                if i != j && d[gi][gj] > 1.0 / 49e9 {
                    sys_traffic_aware += v;
                }
            }
        }
        // the optimum keeps well under half the traffic off the X-Bus
        assert!(
            sys_traffic_aware < total * 0.5,
            "sys {sys_traffic_aware} of {total}"
        );
    }
}

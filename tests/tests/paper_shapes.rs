//! Guard the paper's qualitative results at (fast) reduced scale: if a
//! change to the simulator or the library breaks one of the headline
//! shapes, these tests catch it before the full benchmark harness would.

use stencil_bench::weak_scaling_extent;
use stencil_core::{Methods, PlacementStrategy};
use svc::{ClusterPreset, JobSpec};

/// A Summit job of `nodes` nodes, 6 ranks each, on a cube of `extent`,
/// measured over 2 iterations.
fn summit(nodes: usize, extent: u64) -> JobSpec {
    JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3]).iters(2)
}

/// Fig. 12a: staged-only exchange gets faster as ranks per node grow.
#[test]
fn staged_improves_with_ranks_per_node() {
    let t = |rpn| {
        let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, rpn, [930; 3]);
        svc::execute(&spec.methods(Methods::staged_only()).iters(2), None).mean
    };
    let (r1, r2, r6) = (t(1), t(2), t(6));
    assert!(
        r1 > r2 && r2 > r6,
        "staged should improve 1r->2r->6r: {r1} {r2} {r6}"
    );
}

/// Fig. 12a: full specialization is several times faster than staged-only
/// on a single node (paper: ~6x at 6 ranks).
#[test]
fn specialization_beats_staged_single_node() {
    let staged = svc::execute(&summit(1, 930).methods(Methods::staged_only()), None).mean;
    let full = svc::execute(&summit(1, 930).methods(Methods::all()), None).mean;
    let speedup = staged / full;
    assert!(
        (4.0..12.0).contains(&speedup),
        "expected ~6x single-node specialization speedup, got {speedup:.2}x"
    );
}

/// Fig. 12a: specialization also beats CUDA-aware MPI (paper: ~2x), and
/// CUDA-aware beats plain staged on a single node.
#[test]
fn cuda_aware_sits_between_staged_and_specialized_on_node() {
    let staged = svc::execute(&summit(1, 930).methods(Methods::staged_only()), None).mean;
    let ca_spec = summit(1, 930)
        .methods(Methods::cuda_aware_only())
        .cuda_aware(true);
    let ca = svc::execute(&ca_spec, None).mean;
    let full = svc::execute(&summit(1, 930).methods(Methods::all()), None).mean;
    assert!(
        ca < staged,
        "CUDA-aware should beat staged on-node: {ca} vs {staged}"
    );
    assert!(
        full < ca,
        "specialization should beat CUDA-aware: {full} vs {ca}"
    );
}

/// Fig. 12a: enabling the kernel method on top of peer has little effect.
#[test]
fn kernel_method_is_marginal() {
    let peer = svc::execute(
        &summit(1, 930).methods(Methods::staged_only().with_colocated().with_peer()),
        None,
    )
    .mean;
    let kernel = svc::execute(&summit(1, 930).methods(Methods::all()), None).mean;
    let delta = (peer - kernel).abs() / peer;
    assert!(
        delta < 0.15,
        "+kernel should be within 15% of +peer: {delta:.2}"
    );
}

/// Fig. 11: node-aware placement beats trivial placement on the paper's
/// worst-case aspect-ratio domain (paper: ~20%).
#[test]
fn node_aware_placement_beats_trivial() {
    let mk = |p| {
        let spec = JobSpec::new(
            "bench",
            ClusterPreset::Summit { nodes: 1 },
            6,
            [1440, 1452, 700],
        );
        svc::execute(&spec.methods(Methods::all()).placement(p).iters(2), None).mean
    };
    let aware = mk(PlacementStrategy::NodeAware);
    let trivial = mk(PlacementStrategy::Trivial);
    let gain = trivial / aware;
    assert!(
        gain > 1.10,
        "expected >=10% placement speedup (paper: 20%), got {gain:.3}x"
    );
}

/// Fig. 12b: weak scaling flattens — going from 8 to 16 nodes changes the
/// exchange time by far less than going from 1 node to 8.
#[test]
fn weak_scaling_flattens() {
    let t = |nodes: usize| {
        let extent = weak_scaling_extent(750, nodes * 6);
        svc::execute(&summit(nodes, extent).methods(Methods::all()), None).mean
    };
    let (t1, t8, t16) = (t(1), t(8), t(16));
    assert!(t8 > t1, "off-node exchange must cost more than on-node");
    let late_growth = (t16 - t8).abs() / t8;
    assert!(
        late_growth < 0.35,
        "curve should flatten 8->16 nodes: {late_growth:.2}"
    );
}

/// Fig. 12c: with CUDA-aware MPI the exchange degrades as nodes grow, and
/// ends up clearly slower than the plain staged path.
#[test]
fn cuda_aware_degrades_at_scale() {
    let ca = |nodes: usize| {
        let extent = weak_scaling_extent(750, nodes * 6);
        let spec = summit(nodes, extent)
            .methods(Methods::cuda_aware_only())
            .cuda_aware(true);
        svc::execute(&spec, None).mean
    };
    let staged8 = svc::execute(
        &summit(8, weak_scaling_extent(750, 8 * 6)).methods(Methods::staged_only()),
        None,
    )
    .mean;
    let (c1, c8) = (ca(1), ca(8));
    assert!(
        c8 > c1 * 2.0,
        "CUDA-aware should degrade with scale: {c1} -> {c8}"
    );
    assert!(
        c8 > staged8 * 1.15,
        "CUDA-aware should lose to staged at scale: {c8} vs {staged8}"
    );
}

/// Fig. 13: strong scaling — the same 1363^3 problem gets faster with more
/// nodes over the scaling region.
#[test]
fn strong_scaling_reduces_exchange_time() {
    let t = |nodes: usize| svc::execute(&summit(nodes, 1363).methods(Methods::all()), None).mean;
    let (t1, t4, t16) = (t(1), t(4), t(16));
    assert!(t4 < t1 * 6.0, "sanity");
    assert!(t16 < t4, "strong scaling 4 -> 16 nodes: {t4} -> {t16}");
}

//! Determinism regression for the paper's Fig. 12b shape.
//!
//! The simulator promises **bit-identical virtual times** across runs,
//! machines, and — the point of this test — performance work on the kernel.
//! The golden constants below are the exact `f64` bit patterns produced by
//! the pre-optimization simulator for a 16-node weak-scaling exchange; any
//! scheduler / flow-network / event-queue change that shifts a virtual
//! timestamp by even one picosecond fails this test.

use detsim::metrics::MetricValue;
use stencil_bench::weak_scaling_extent;
use stencil_core::Methods;
use svc::{ClusterPreset, JobSpec};

/// 16 nodes x 6 ranks, weak-scaling extent 750 per GPU.
const NODES: usize = 16;
const RANKS_PER_NODE: usize = 6;

/// Bit patterns of `RunOutcome::per_iter` (seconds of virtual time per
/// exchange iteration) for the config above with `iters(2)`, captured on
/// the seed simulator. Iteration 0 includes first-touch effects (cold FIFO
/// and match-queue state), so the two differ in the last ulp.
const GOLDEN_PER_ITER_BITS: [u64; 2] = [0x3f90c4cfc10af58a, 0x3f90c4cfc10af589];

fn golden_config() -> JobSpec {
    let extent = weak_scaling_extent(750, NODES * RANKS_PER_NODE);
    assert_eq!(extent, 3434, "weak-scaling extent formula changed");
    let cluster = ClusterPreset::Summit { nodes: NODES };
    JobSpec::new("bench", cluster, RANKS_PER_NODE, [extent; 3]).iters(2)
}

#[test]
fn fig12b_16_node_virtual_times_match_golden_bits() {
    let r = svc::execute(&golden_config(), None);
    let bits: Vec<u64> = r.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits, GOLDEN_PER_ITER_BITS,
        "virtual times diverged from golden values: got {:?} s",
        r.per_iter
    );
}

/// A 2-node × 6-rank run under one transport tier, with metrics on, so
/// every exchange variant (staged, consolidated, CUDA-aware, persistent,
/// partitioned) has its virtual time pinned — not just `Methods::all()`.
struct TierPin {
    name: &'static str,
    /// Bit patterns of `RunOutcome::per_iter`.
    per_iter: [u64; 2],
    /// `(metric id, histogram sum bits)` for `exchange/total_ps`, every
    /// `exchange/method_ps{method}` and every `exchange/phase_ps{phase}`.
    sums: &'static [(&'static str, u64)],
}

fn tier_config(name: &str) -> JobSpec {
    let extent = weak_scaling_extent(750, 2 * RANKS_PER_NODE);
    let base = JobSpec::new(
        "bench",
        ClusterPreset::Summit { nodes: 2 },
        RANKS_PER_NODE,
        [extent; 3],
    )
    .iters(2)
    .collect_metrics(true);
    match name {
        "staged" => base.methods(Methods::staged_only()),
        "consolidated" => base.methods(Methods::staged_only()).consolidate(true),
        "cuda-aware" => base
            .methods(Methods::all_with_cuda_aware())
            .cuda_aware(true),
        "persistent" => base.methods(Methods::all().with_persistent()),
        "partitioned" => base.methods(Methods::all().with_partitioned()),
        _ => unreachable!("unknown tier {name}"),
    }
}

/// Captured on the simulator before the exchange driver was unified. The
/// consolidated tier differs from the staged one, which shows grouping
/// actually formed multi-segment messages.
const TIER_PINS: &[TierPin] = &[
    TierPin {
        name: "staged",
        per_iter: [0x3f856f880e263394, 0x3f856f880e263393],
        sums: &[
            ("exchange/method_ps{method=staged}", 0x424d3496fd610000),
            ("exchange/phase_ps{phase=pack}", 0x422a30cbf58c0000),
            ("exchange/phase_ps{phase=send}", 0x424aa7ee30160000),
            ("exchange/phase_ps{phase=unpack}", 0x424d3496fd610000),
            ("exchange/phase_ps{phase=wait}", 0x424aa524abb10000),
            ("exchange/total_ps", 0x424d3496fd610000),
        ],
    },
    TierPin {
        name: "consolidated",
        per_iter: [0x3f86ded6b751833a, 0x3f86ded6b751833b],
        sums: &[
            ("exchange/method_ps{method=staged}", 0x424f1ae865f20000),
            ("exchange/phase_ps{phase=pack}", 0x422af5b19f1c0000),
            ("exchange/phase_ps{phase=send}", 0x424bc0e9bbca0000),
            ("exchange/phase_ps{phase=unpack}", 0x424f1ae865f20000),
            ("exchange/phase_ps{phase=wait}", 0x424bc0e9bbca0000),
            ("exchange/total_ps", 0x424f1ae865f20000),
        ],
    },
    TierPin {
        name: "cuda-aware",
        per_iter: [0x3f908d4d766c53ff, 0x3f908d4d766c53ff],
        sums: &[
            ("exchange/method_ps{method=colocated}", 0x42226c00c3c00000),
            ("exchange/method_ps{method=cuda-aware}", 0x425674e709850000),
            ("exchange/phase_ps{phase=pack}", 0x41fda09240800000),
            ("exchange/phase_ps{phase=send}", 0x4253daf35c2f8000),
            ("exchange/phase_ps{phase=unpack}", 0x4253ede0a11f8000),
            ("exchange/phase_ps{phase=wait}", 0x4253daf35c2f8000),
            ("exchange/total_ps", 0x425674e709850000),
        ],
    },
    TierPin {
        name: "persistent",
        per_iter: [0x3f83fa89ff679a71, 0x3f83f8f758308963],
        sums: &[
            ("exchange/method_ps{method=colocated}", 0x4222e56ae5b80000),
            ("exchange/method_ps{method=persistent}", 0x424b2d46a1960000),
            ("exchange/phase_ps{phase=pack}", 0x4220e3cf5c280000),
            ("exchange/phase_ps{phase=send}", 0x424943c8df900000),
            ("exchange/phase_ps{phase=unpack}", 0x424b2d46a1960000),
            ("exchange/phase_ps{phase=wait}", 0x4249410b80740000),
            ("exchange/total_ps", 0x424b2d46a1960000),
        ],
    },
    TierPin {
        name: "partitioned",
        per_iter: [0x3f8169d9ad0e187a, 0x3f81684f44e6fbf9],
        sums: &[
            ("exchange/method_ps{method=colocated}", 0x42238021a4780000),
            ("exchange/method_ps{method=partitioned}", 0x4247b9ac77348000),
            ("exchange/phase_ps{phase=pack}", 0x4220de83dc280000),
            ("exchange/phase_ps{phase=send}", 0x4246f1ac503e8000),
            ("exchange/phase_ps{phase=unpack}", 0x4247b9ac77348000),
            ("exchange/phase_ps{phase=wait}", 0x4246eecfe43e8000),
            ("exchange/total_ps", 0x4247b9ac77348000),
        ],
    },
];

/// The pinned quantities of one measured tier: `per_iter` bits and the
/// `(metric id, histogram sum bits)` pairs, in `TierPin` field order.
fn observe_tier(name: &str) -> (Vec<u64>, Vec<(String, u64)>) {
    let r = svc::execute(&tier_config(name), None);
    let per_iter = r.per_iter.iter().map(|v| v.to_bits()).collect();
    let report = r
        .metrics
        .expect("collect_metrics(true) captures a snapshot");
    let sums = report
        .entries()
        .iter()
        .filter(|(id, _)| {
            id.subsystem == "exchange" && matches!(id.name, "total_ps" | "method_ps" | "phase_ps")
        })
        .map(|(id, v)| match v {
            MetricValue::Histogram(h) => (id.to_string(), h.sum.to_bits()),
            other => panic!("{id} is not a histogram: {other:?}"),
        })
        .collect();
    (per_iter, sums)
}

#[test]
fn every_transport_tier_matches_golden_bits() {
    let observed: Vec<_> = TIER_PINS.iter().map(|p| observe_tier(p.name)).collect();
    for (pin, (per_iter, sums)) in TIER_PINS.iter().zip(&observed) {
        assert_eq!(
            per_iter[..],
            pin.per_iter[..],
            "tier {}: per-iteration virtual time diverged",
            pin.name
        );
        let want: Vec<(String, u64)> = pin
            .sums
            .iter()
            .map(|(id, b)| (id.to_string(), *b))
            .collect();
        assert_eq!(
            *sums, want,
            "tier {}: exchange histogram sums diverged",
            pin.name
        );
    }
    assert_ne!(
        observed[0], observed[1],
        "consolidate(true) reproduced the staged-only run: no group was formed"
    );
}

/// The partitioned tier is the one most bound by flow re-rating (every
/// halo lands as concurrent partitions), so it is also pinned past the
/// 2-node `TIER_PINS` scale: 32 nodes × 6 ranks, weak-scaling extent 750
/// per GPU, `iters(2)`.
#[test]
fn partitioned_tier_at_32_nodes_matches_golden_bits() {
    const PER_ITER_BITS: [u64; 2] = [0x3f909929742a7e2e, 0x3f90985f7e4fceee];
    const ELAPSED_PS: u64 = 33_042_523_338;
    let nodes = 32;
    let extent = weak_scaling_extent(750, nodes * RANKS_PER_NODE);
    assert_eq!(extent, 4327, "weak-scaling extent formula changed");
    let spec = JobSpec::new(
        "bench",
        ClusterPreset::Summit { nodes },
        RANKS_PER_NODE,
        [extent; 3],
    )
    .methods(Methods::all().with_partitioned())
    .iters(2);
    let r = svc::execute(&spec, None);
    let bits: Vec<u64> = r.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits, PER_ITER_BITS,
        "partitioned 32-node virtual times diverged: got {:?} s",
        r.per_iter
    );
    assert_eq!(
        r.elapsed_virtual_ps, ELAPSED_PS,
        "elapsed virtual time drifted"
    );
}

#[test]
fn metrics_collection_does_not_perturb_virtual_time() {
    let plain = svc::execute(&golden_config(), None);
    let metered = svc::execute(&golden_config().collect_metrics(true), None);
    let plain_bits: Vec<u64> = plain.per_iter.iter().map(|v| v.to_bits()).collect();
    let metered_bits: Vec<u64> = metered.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        plain_bits, metered_bits,
        "metrics-on run produced different virtual times"
    );
    assert!(
        metered.metrics.is_some(),
        "collect_metrics(true) should capture a registry snapshot"
    );
}

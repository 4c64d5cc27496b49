//! mapperf — wall-clock solve time vs. mapping quality for the placement
//! ladder (`docs/PLACEMENT.md`).
//!
//! One sweep measuring the **solver itself** (pure compute, no
//! simulation): per-node QAP placement across GPUs-per-node (6 = Summit's
//! exhaustive regime, up to 64 = the fat-node ceiling the heuristic rungs
//! exist for). Reports the best solve time of a few samples and the cost
//! ratio vs. exhaustive where feasible (n ≤ 8), vs. the trivial identity
//! placement otherwise. `ladder_proptest` in `stencil-core` pins the
//! quality side (the ladder equals exhaustive, bit for bit, for n ≤ 8).
//!
//! Flags:
//! * `--quick`      small shapes, one sample each (CI smoke).
//! * `--validate`   exit non-zero unless a 64-GPU node solves in under
//!   50 ms (best of 3).
//!
//! `BENCH_pr7.json` at the repo root is this suite's historical artifact;
//! its `global/*` rows come from a global mapping stage since removed.

use std::time::Instant;

use stencil_bench::weak_scaling_extent;
use stencil_core::dim3::Boundary;
use stencil_core::placement::flow_matrix_bc;
use stencil_core::{qap, Neighborhood, Partition, PlacementStrategy, Radius};
use topo::presets::fat_node;
use topo::NodeDiscovery;

/// The fat-node preset for a GPUs-per-node point of the sweep.
fn node_preset(gpn: usize) -> (usize, usize, usize) {
    match gpn {
        6 => (2, 1, 3),  // Summit
        8 => (2, 1, 4),  // fat triads
        12 => (2, 2, 3), // the chaos degraded-fat-node shape
        16 => (2, 2, 4), // 4 islands of 4
        32 => (2, 4, 4), // 8 islands of 4
        64 => (2, 4, 8), // 8 islands of 8: the ladder's target ceiling
        _ => panic!("no preset for {gpn} GPUs per node"),
    }
}

/// Build the per-node QAP instance for a `gpn`-GPU node at paper-style
/// per-GPU volume: flow from the partition geometry, distances from
/// discovered topology.
fn node_instance(gpn: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (s, i, g) = node_preset(gpn);
    let extent = weak_scaling_extent(750, gpn);
    let part = Partition::new([extent, extent, extent], 1, gpn);
    let w = flow_matrix_bc(
        &part,
        [0, 0, 0],
        Neighborhood::Full26,
        &Radius::constant(2),
        4,
        4,
        Boundary::Periodic,
    );
    let d = NodeDiscovery::discover(&fat_node(s, i, g)).distance_matrix();
    (w, d)
}

/// The fastest of `samples` auto-rung solves, in seconds.
fn best_solve_s(w: &[Vec<f64>], d: &[Vec<f64>], samples: usize) -> f64 {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(PlacementStrategy::NodeAware.solve(w, d));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The auto rung's cost against the relevant yardstick: exhaustive when
/// n ≤ 8, else the trivial identity placement.
fn yardstick(w: &[Vec<f64>], d: &[Vec<f64>]) -> String {
    let (_, cost) = PlacementStrategy::NodeAware.solve(w, d);
    if w.len() <= qap::EXHAUSTIVE_MAX_N {
        let (_, ex) = qap::solve_exhaustive(w, d);
        format!("{:.4}x exhaustive", cost / ex)
    } else {
        let (_, trivial) = PlacementStrategy::Trivial.solve(w, d);
        format!("{:.4}x trivial", cost / trivial)
    }
}

fn main() {
    let mut quick = false;
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--validate" => validate = true,
            other => panic!("unknown flag {other} (expected --quick / --validate)"),
        }
    }

    println!("mapperf — placement-ladder solve time vs. mapping quality");
    println!("=========================================================");

    println!("\nnode sweep (GPUs per node; NodeAware auto rung):");
    let samples = if quick { 1 } else { 3 };
    let gpns: &[usize] = if quick {
        &[6, 12, 64]
    } else {
        &[6, 8, 12, 16, 32, 64]
    };
    for &gpn in gpns {
        let (w, d) = node_instance(gpn);
        println!(
            "  {:<15} best {:8.3} ms  -> cost {}",
            format!("node/solve/{gpn}g"),
            best_solve_s(&w, &d, samples) * 1e3,
            yardstick(&w, &d)
        );
    }

    if validate {
        let (w, d) = node_instance(64);
        let best = best_solve_s(&w, &d, 3);
        let pass = best < 0.050;
        println!(
            "\n  [{}] 64-GPU node solve: {:.1} ms (bound 50 ms)",
            if pass { "PASS" } else { "FAIL" },
            best * 1e3
        );
        if !pass {
            eprintln!("mapperf: validation FAILED");
            std::process::exit(1);
        }
    }
}

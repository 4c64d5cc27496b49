//! mapperf — wall-clock solve time vs. mapping quality for the placement
//! ladder (`docs/PLACEMENT.md`).
//!
//! One sweep, `node/*`, measuring the **solver itself** (pure compute, no
//! simulation): per-node QAP placement across GPUs-per-node (6 = Summit's
//! exhaustive regime, up to 64 = the fat-node ceiling the heuristic rungs
//! exist for). Reports solve time and cost ratio vs. exhaustive where
//! feasible (n ≤ 8), vs. the trivial identity placement otherwise.
//!
//! Flags:
//! * `--quick`      small shapes, one sample each (CI smoke).
//! * `--json PATH`  write results (with quality columns) as JSON.
//! * `--validate`   run the acceptance pins and exit non-zero on failure:
//!   64-GPU node solve < 50 ms, and hierarchical cost within 1.05× of
//!   exhaustive on all n ≤ 8 instances.
//!
//! `BENCH_pr7.json` at the repo root is this suite's historical artifact;
//! its `global/*` rows come from a global mapping stage since removed.

use std::time::Instant;

use stencil_bench::microbench::{Bench, Summary};
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

/// One row of the node sweep: time the ladder's auto rung and report
/// quality against the relevant yardstick.
struct NodeRow {
    summary: Summary,
    /// `solved cost / exhaustive cost` when n ≤ 8, else None.
    vs_exhaustive: Option<f64>,
    /// `solved cost / trivial cost` (≤ 1.0; lower is better).
    vs_trivial: f64,
}

fn node_sweep_row(b: &mut Bench, gpn: usize) -> NodeRow {
    let (w, d) = node_instance(gpn);
    let summary = b.run_summary(&format!("solve/{gpn}g"), || {
        let _ = PlacementStrategy::NodeAware.solve(&w, &d);
    });
    let (_, cost) = PlacementStrategy::NodeAware.solve(&w, &d);
    let (_, trivial) = PlacementStrategy::Trivial.solve(&w, &d);
    let vs_exhaustive = (gpn <= qap::EXHAUSTIVE_MAX_N).then(|| {
        let (_, ex) = qap::solve_exhaustive(&w, &d);
        cost / ex
    });
    NodeRow {
        summary,
        vs_exhaustive,
        vs_trivial: cost / trivial,
    }
}

/// Acceptance pins: exit non-zero if the ladder misses its latency or
/// quality bounds.
fn validate() -> bool {
    let mut ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!(
            "  [{}] {name}: {detail}",
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    };

    // 1. Hierarchical within 1.05x of exhaustive on all n <= 8 instances
    //    (structurally exact: the ladder dispatches n <= 8 to exhaustive).
    let mut worst: f64 = 0.0;
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    for n in 2..=qap::EXHAUSTIVE_MAX_N {
        for _ in 0..8 {
            let w: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| (rnd() * 9.0).floor()).collect())
                .collect();
            let d: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rnd() + 0.05).collect())
                .collect();
            let (_, ex) = qap::solve_exhaustive(&w, &d);
            let (_, hi) = PlacementStrategy::Hierarchical.solve(&w, &d);
            if ex > 0.0 {
                worst = worst.max(hi / ex);
            }
        }
    }
    for gpn in [6, 8] {
        let (w, d) = node_instance(gpn);
        let (_, ex) = qap::solve_exhaustive(&w, &d);
        let (_, hi) = PlacementStrategy::Hierarchical.solve(&w, &d);
        worst = worst.max(hi / ex);
    }
    check(
        "quality n<=8",
        worst <= 1.05,
        format!("worst hierarchical/exhaustive ratio {worst:.4} (bound 1.05)"),
    );

    // 2. 64-GPUs-per-node placement solve under 50 ms.
    let (w, d) = node_instance(64);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let _ = PlacementStrategy::NodeAware.solve(&w, &d);
        best = best.min(t.elapsed().as_secs_f64());
    }
    check(
        "64-GPU node solve",
        best < 0.050,
        format!("{:.1} ms (bound 50 ms)", best * 1e3),
    );

    ok
}

struct Args {
    quick: bool,
    json: Option<String>,
    validate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        json: None,
        validate: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--validate" => {
                args.validate = true;
                i += 1;
            }
            "--json" => {
                args.json = Some(
                    argv.get(i + 1)
                        .unwrap_or_else(|| panic!("--json needs a value"))
                        .clone(),
                );
                i += 2;
            }
            other => panic!("unknown flag {other} (expected --quick / --json PATH / --validate)"),
        }
    }
    args
}

fn write_json(path: &str, quick: bool, nodes: &[NodeRow]) {
    let mut s = String::new();
    s.push_str("{\n  \"suite\": \"mapperf\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"unit\": \"seconds (wall clock); cost ratios dimensionless\",\n");
    s.push_str("  \"benches\": [\n");
    for (k, r) in nodes.iter().enumerate() {
        let mut e = format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"mean_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}, \"cost_vs_trivial\": {:.4}",
            r.summary.name, r.summary.samples, r.summary.mean_s, r.summary.min_s, r.summary.max_s, r.vs_trivial
        );
        if let Some(v) = r.vs_exhaustive {
            e.push_str(&format!(", \"cost_vs_exhaustive\": {v:.4}"));
        }
        e.push('}');
        if k + 1 < nodes.len() {
            e.push(',');
        }
        s.push_str(&e);
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nresults written to {path}");
}

fn main() {
    let args = parse_args();
    let quick = args.quick;

    println!("mapperf — placement-ladder solve time vs. mapping quality");
    println!("=========================================================");

    println!("\nnode sweep (GPUs per node; NodeAware auto rung):");
    let mut b = Bench::new("node");
    b.sample_size(if quick { 1 } else { 3 });
    b.warmup(!quick);
    let gpns: &[usize] = if quick {
        &[6, 12, 64]
    } else {
        &[6, 8, 12, 16, 32, 64]
    };
    let mut node_rows = Vec::new();
    for &gpn in gpns {
        let row = node_sweep_row(&mut b, gpn);
        let yardstick = match row.vs_exhaustive {
            Some(v) => format!("{v:.4}x exhaustive"),
            None => format!("{:.4}x trivial", row.vs_trivial),
        };
        println!("    -> cost {yardstick}");
        node_rows.push(row);
    }

    if let Some(path) = &args.json {
        write_json(path, quick, &node_rows);
    }

    if args.validate {
        println!("\nacceptance pins:");
        if !validate() {
            eprintln!("mapperf: validation FAILED");
            std::process::exit(1);
        }
        println!("mapperf: all pins hold");
    }
}

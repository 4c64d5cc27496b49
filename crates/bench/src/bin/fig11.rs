//! Fig. 11: node-aware vs trivial data placement on the worst-case
//! aspect-ratio domain (1440 x 1452 x 700 over one node's 6 GPUs: six
//! 720 x 484 x 700 subdomains). The paper reports ~20% speedup from
//! node-aware placement.

use stencil_bench::{bench_args, fmt_ms, label, write_metrics_json};
use stencil_core::dim3::Neighborhood;
use stencil_core::{placement, Methods, Partition, PlacementStrategy, Radius};
use svc::{ClusterPreset, JobSpec};
use topo::summit::summit_node;
use topo::NodeDiscovery;

fn main() {
    let args = bench_args(1);
    let iters = args.iters;
    let mut last_report = None;
    let domain = [1440u64, 1452, 700];
    println!(
        "Fig. 11 — data placement on a {}x{}x{} domain, 1 node, 6 GPUs",
        domain[0], domain[1], domain[2]
    );
    println!("--------------------------------------------------------------------");

    // Show the QAP inputs and the chosen assignment.
    let part = Partition::new(domain, 1, 6);
    let b = part.gpu_box([0, 0, 0], [0, 0, 0]);
    println!(
        "  subdomains: {:?} each (gpu grid {:?})",
        b.extent, part.gpu_dims
    );
    let disc = NodeDiscovery::discover(&summit_node());
    let r = Radius::constant(2);
    for (name, strat) in [
        ("node-aware", PlacementStrategy::NodeAware),
        ("trivial", PlacementStrategy::Trivial),
    ] {
        let pl = placement::place(
            &part,
            [0, 0, 0],
            &disc,
            Neighborhood::Full26,
            &r,
            4,
            4,
            strat,
            stencil_core::dim3::Boundary::Periodic,
        );
        println!(
            "  {name:<11} assignment (subdomain -> GPU): {:?}   QAP cost {:.3e}",
            pl.gpu_for_subdomain, pl.cost
        );
    }
    println!();

    let mut speedups = Vec::new();
    for rpn in [1usize, 2, 6] {
        let mut row = Vec::new();
        for (pname, p) in [
            ("node-aware", PlacementStrategy::NodeAware),
            ("trivial", PlacementStrategy::Trivial),
            ("empirical", PlacementStrategy::Empirical),
        ] {
            // Collect the metrics artifact from the node-aware 6-rank run.
            let collect =
                args.metrics.is_some() && rpn == 6 && matches!(p, PlacementStrategy::NodeAware);
            let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, rpn, domain)
                .methods(Methods::all())
                .placement(p)
                .iters(iters)
                .collect_metrics(collect);
            let res = svc::execute(&spec, None);
            if let Some(report) = res.metrics {
                last_report = Some(report);
            }
            println!("  {:<26} {:<11}: {}", label(&spec), pname, fmt_ms(res.mean));
            row.push(res.mean);
        }
        let s = row[1] / row[0];
        println!(
            "    -> node-aware speedup over trivial: {s:.2}x (measured-bandwidth variant: {:.2}x)",
            row[1] / row[2]
        );
        speedups.push(s);
    }
    println!();
    println!(
        "  paper: ~1.20x; measured best: {:.2}x",
        speedups.iter().cloned().fold(f64::MIN, f64::max)
    );
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

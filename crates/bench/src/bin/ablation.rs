//! Ablation beyond the paper's figures: placement x specialization grid,
//! plus the QAP-solver comparison (exhaustive vs greedy+2-opt), isolating
//! each design choice's contribution on the Fig. 11 worst-case domain,
//! and message consolidation at three per-GPU sizes in weak scaling.

use stencil_bench::{bench_args, fmt_ms, tiers, write_metrics_json};
use stencil_core::dim3::Neighborhood;
use stencil_core::{placement, qap, Methods, Partition, PlacementStrategy, Radius};
use svc::{ClusterPreset, JobSpec};
use topo::summit::summit_node;
use topo::NodeDiscovery;

fn main() {
    let args = bench_args(32);
    let iters = args.iters;
    let mut last_report = None;
    let domain = [1440u64, 1452, 700];
    println!(
        "Ablation — placement x specialization on {}x{}x{} (1 node, 6 ranks)",
        domain[0], domain[1], domain[2]
    );
    println!("--------------------------------------------------------------------------");
    println!(
        "{:<12} | {:>12} {:>12} {:>12} {:>12}",
        "placement", "+remote", "+colo", "+peer", "+kernel"
    );
    for (pname, p) in [
        ("node-aware", PlacementStrategy::NodeAware),
        ("trivial", PlacementStrategy::Trivial),
    ] {
        let mut row = Vec::new();
        for (_, m) in tiers() {
            let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, 6, domain)
                .methods(m)
                .placement(p)
                .iters(iters);
            row.push(svc::execute(&spec, None).mean);
        }
        println!(
            "{:<12} | {} {} {} {}",
            pname,
            fmt_ms(row[0]),
            fmt_ms(row[1]),
            fmt_ms(row[2]),
            fmt_ms(row[3])
        );
    }
    println!();

    // Paper §VI, after [3]: "fewer, larger MPI messages tend to achieve
    // better performance, but our messages may already be few enough and
    // large enough." Consolidate staged messages per (subdomain,
    // destination rank): the small per-GPU sizes show where it wins, the
    // paper's 750³ where it loses.
    println!("Message consolidation (staged transfers grouped per subdomain+rank):");
    println!(
        "{:>7} {:>6} | {:>12} {:>12} | ratio",
        "per GPU", "nodes", "plain", "consolidated"
    );
    for per_gpu in [128u64, 256, 750] {
        for nodes in [2usize, 8, 32].into_iter().filter(|&n| n <= args.max_nodes) {
            let extent = stencil_bench::weak_scaling_extent(per_gpu, nodes * 6);
            let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3])
                .methods(Methods::all())
                .iters(iters);
            let plain = svc::execute(&spec, None).mean;
            // Collect the metrics artifact from each consolidated run; the
            // last (750³, largest scale) snapshot is the one written out.
            let gr = svc::execute(
                &spec
                    .consolidate(true)
                    .collect_metrics(args.metrics.is_some()),
                None,
            );
            if let Some(report) = gr.metrics {
                last_report = Some(report);
            }
            let grouped = gr.mean;
            println!(
                "{:>6}³ {:>6} | {} {} | {:.3}x",
                per_gpu,
                nodes,
                fmt_ms(plain),
                fmt_ms(grouped),
                plain / grouped
            );
        }
    }
    println!();

    println!("QAP solver comparison on the same instance:");
    let part = Partition::new(domain, 1, 6);
    let disc = NodeDiscovery::discover(&summit_node());
    let w = placement::flow_matrix(
        &part,
        [0, 0, 0],
        Neighborhood::Full26,
        &Radius::constant(2),
        4,
        4,
    );
    let d = disc.distance_matrix();
    let t0 = std::time::Instant::now();
    let (fe, ce) = qap::solve_exhaustive(&w, &d);
    let te = t0.elapsed();
    let t0 = std::time::Instant::now();
    let (fh, ch) = qap::solve_greedy_2opt(&w, &d);
    let th = t0.elapsed();
    println!("  exhaustive:  cost {ce:.4e}  assignment {fe:?}");
    println!("  greedy+2opt: cost {ch:.4e}  assignment {fh:?}");
    println!("  heuristic gap: {:.2}%", (ch / ce - 1.0) * 100.0);
    // Wall-clock times differ from run to run; stdout must not.
    eprintln!("QAP solve time: exhaustive {te:?}, greedy+2opt {th:?}");
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

//! Fig. 12b: weak scaling *without* CUDA-aware MPI — exchange time for
//! ~750³ points per GPU as the job grows to 256 nodes (1536 GPUs), per
//! specialization tier.
//!
//! Paper claims: time flattens once most nodes have 26 distinct neighbors
//! (~32 nodes); at 256 nodes specialization gives ~1.16x over Staged-only.

use stencil_bench::{bench_args, fmt_ms, tiers, weak_scaling_extent, write_metrics_json};
use svc::{ClusterPreset, JobSpec};

fn main() {
    let args = bench_args(256);
    let iters = args.iters;
    println!("Fig. 12b — weak scaling, no CUDA-aware MPI (750^3/GPU, 6 ranks x 6 GPUs per node)");
    println!("-----------------------------------------------------------------------------------");
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>12} {:>12} | speedup",
        "nodes", "extent", "+remote", "+colo", "+peer", "+kernel"
    );
    let mut last = (0.0, 0.0);
    let mut last_report = None;
    let all_tiers = tiers();
    for nodes in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        if nodes > args.max_nodes {
            break;
        }
        let extent = weak_scaling_extent(750, nodes * 6);
        let base =
            JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3]).iters(iters);
        let mut row = Vec::new();
        for (i, (_, m)) in all_tiers.iter().enumerate() {
            // Collect the metrics artifact from the fully specialized tier;
            // metrics do not affect virtual time, so the row is unchanged.
            let collect = args.metrics.is_some() && i == all_tiers.len() - 1;
            let r = svc::execute(&base.clone().methods(*m).collect_metrics(collect), None);
            if let Some(report) = r.metrics {
                last_report = Some(report);
            }
            row.push(r.mean);
        }
        println!(
            "{:>6} {:>8} | {} {} {} {} |  {:.2}x",
            nodes,
            extent,
            fmt_ms(row[0]),
            fmt_ms(row[1]),
            fmt_ms(row[2]),
            fmt_ms(row[3]),
            row[0] / row[3]
        );
        last = (row[0], row[3]);
    }
    println!();
    println!(
        "  specialization speedup at largest scale: {:.2}x  (paper: 1.16x at 256 nodes)",
        last.0 / last.1
    );
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

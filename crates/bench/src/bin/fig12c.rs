//! Fig. 12c: weak scaling *with* CUDA-aware MPI — the paper observes
//! severe degradation as nodes are added (the library serializes its
//! transfers on the default stream and synchronizes the device per
//! message), and intra-node specialization ceases to help.

use stencil_bench::{
    bench_args, fmt_ms, tiers_cuda_aware, weak_scaling_extent, write_metrics_json,
};
use stencil_core::Methods;
use svc::{ClusterPreset, JobSpec};

fn main() {
    let args = bench_args(256);
    let iters = args.iters;
    println!("Fig. 12c — weak scaling, CUDA-aware MPI (750^3/GPU, 6 ranks x 6 GPUs per node)");
    println!("--------------------------------------------------------------------------------");
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>12} {:>12} | {:>12}",
        "nodes", "extent", "+remote/ca", "+colo/ca", "+peer/ca", "+kernel/ca", "no-ca ref"
    );
    let mut first_ca = 0.0;
    let mut last_ca = 0.0;
    let mut last_ref = 0.0;
    let mut last_report = None;
    let ca_tiers = tiers_cuda_aware();
    for nodes in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        if nodes > args.max_nodes {
            break;
        }
        let extent = weak_scaling_extent(750, nodes * 6);
        let base =
            JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3]).iters(iters);
        let mut row = Vec::new();
        for (i, (_, m)) in ca_tiers.iter().enumerate() {
            let collect = args.metrics.is_some() && i == ca_tiers.len() - 1;
            let spec = base
                .clone()
                .methods(*m)
                .cuda_aware(true)
                .collect_metrics(collect);
            let r = svc::execute(&spec, None);
            if let Some(report) = r.metrics {
                last_report = Some(report);
            }
            row.push(r.mean);
        }
        // non-CA staged reference for the same size
        let r = svc::execute(&base.methods(Methods::staged_only()), None).mean;
        println!(
            "{:>6} {:>8} | {} {} {} {} | {}",
            nodes,
            extent,
            fmt_ms(row[0]),
            fmt_ms(row[1]),
            fmt_ms(row[2]),
            fmt_ms(row[3]),
            fmt_ms(r)
        );
        if nodes == 1 {
            first_ca = row[0];
        }
        last_ca = row[0];
        last_ref = r;
    }
    println!();
    println!(
        "  CUDA-aware degradation vs single node: {:.1}x; vs plain staged at largest scale: {:.2}x slower",
        last_ca / first_ca, last_ca / last_ref
    );
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

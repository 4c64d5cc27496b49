//! Fig. 12a: single-node exchange time vs communication specialization,
//! for 1, 2, and 6 ranks per node, with and without CUDA-aware MPI.
//!
//! Headline paper claims: at 6 ranks, full specialization is ~6x faster
//! than Staged-only and ~2x faster than CUDA-aware MPI; Staged-only
//! improves as ranks-per-node grows; enabling the Kernel method on top of
//! Peer has no visible effect.

use stencil_bench::{bench_args, fmt_ms, label, tiers, tiers_cuda_aware, write_metrics_json};
use svc::{ClusterPreset, JobSpec};

fn main() {
    let args = bench_args(1);
    let iters = args.iters;
    let mut last_report = None;
    // Fixed data per GPU: 512^3-ish per GPU as a single cube over 6 GPUs.
    let extent = (512f64 * 6f64.cbrt()).round() as u64;
    println!(
        "Fig. 12a — single-node specialization sweep ({extent}^3 domain, 4 SP quantities, r=2)"
    );
    println!(
        "--------------------------------------------------------------------------------------"
    );
    let mut staged6 = 0.0;
    let mut ca6 = 0.0;
    let mut full6 = 0.0;
    for rpn in [1usize, 2, 6] {
        println!("  -- {rpn} rank(s) per node --");
        let base = JobSpec::new(
            "bench",
            ClusterPreset::Summit { nodes: 1 },
            rpn,
            [extent; 3],
        )
        .iters(iters);
        for (name, m) in tiers() {
            // Collect the metrics artifact from the fully specialized 6-rank
            // run; metrics do not affect virtual time.
            let collect = args.metrics.is_some() && rpn == 6 && name == "+kernel";
            let spec = base.clone().methods(m).collect_metrics(collect);
            let r = svc::execute(&spec, None);
            if let Some(report) = r.metrics {
                last_report = Some(report);
            }
            println!(
                "  {:<16} {:<11} {}   {}",
                label(&spec),
                name,
                fmt_ms(r.mean),
                r.plan
            );
            if rpn == 6 && name == "+remote" {
                staged6 = r.mean;
            }
            if rpn == 6 && name == "+kernel" {
                full6 = r.mean;
            }
        }
        for (name, m) in tiers_cuda_aware() {
            let spec = base.clone().methods(m).cuda_aware(true);
            let r = svc::execute(&spec, None);
            println!(
                "  {:<16} {:<11} {}   {}",
                label(&spec),
                name,
                fmt_ms(r.mean),
                r.plan
            );
            if rpn == 6 && name == "+remote/ca" {
                ca6 = r.mean;
            }
        }
    }
    println!();
    println!("  headline ratios at 6 ranks/node (paper in parentheses):");
    println!(
        "    specialization over STAGED:        {:.1}x  (6x)",
        staged6 / full6
    );
    println!(
        "    specialization over CUDA-aware:    {:.1}x  (2x)",
        ca6 / full6
    );
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

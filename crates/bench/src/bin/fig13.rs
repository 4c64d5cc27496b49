//! Fig. 13: strong scaling — a fixed 1363³ domain (the largest with four
//! SP quantities that fits in one node) distributed over 1..256 nodes.
//!
//! Paper claims: exchange time drops from 1 to 128 nodes; capability
//! specialization stops improving things past ~32 nodes; strong scaling
//! stalls at 256 nodes as subdomains become tiny.

use stencil_bench::{bench_args, fmt_ms, tiers, write_metrics_json};
use svc::{ClusterPreset, JobSpec};

fn main() {
    let args = bench_args(256);
    let iters = args.iters;
    let extent = 1363u64;
    println!("Fig. 13 — strong scaling of a {extent}^3 domain (4 SP quantities, 6r/6g per node)");
    println!("----------------------------------------------------------------------------------");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} {:>12}",
        "nodes", "+remote", "+colo", "+peer", "+kernel"
    );
    let mut series = Vec::new();
    let mut last_report = None;
    let all_tiers = tiers();
    for nodes in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        if nodes > args.max_nodes {
            break;
        }
        let base =
            JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3]).iters(iters);
        let mut row = Vec::new();
        for (i, (_, m)) in all_tiers.iter().enumerate() {
            let collect = args.metrics.is_some() && i == all_tiers.len() - 1;
            let r = svc::execute(&base.clone().methods(*m).collect_metrics(collect), None);
            if let Some(report) = r.metrics {
                last_report = Some(report);
            }
            row.push(r.mean);
        }
        println!(
            "{:>6} | {} {} {} {}",
            nodes,
            fmt_ms(row[0]),
            fmt_ms(row[1]),
            fmt_ms(row[2]),
            fmt_ms(row[3])
        );
        series.push((nodes, row[3]));
    }
    println!();
    if series.len() >= 2 {
        let (n0, t0) = series[0];
        let (nl, tl) = *series.last().unwrap();
        println!(
            "  exchange time {} @ {} node(s) -> {} @ {} nodes",
            fmt_ms(t0),
            n0,
            fmt_ms(tl),
            nl
        );
    }
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

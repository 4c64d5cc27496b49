//! Full-Summit weak-scaling sweep (Fig.-12b-style, beyond the paper's
//! largest plotted point): exchange time for ~750³ points per GPU from 256
//! nodes up to Summit's full 4608 nodes — 27,648 ranks, one coroutine each.
//!
//! The paper evaluates on Summit but plots weak scaling only to 256 nodes
//! (1536 GPUs). Under the coroutine rank runtime (`docs/RUNTIME.md`) a
//! 4608-node world is just 27,648 stack allocations, so the whole machine
//! fits in one simulation. Two method tiers bound the runtime: the
//! Staged-only baseline (`+remote`) and the fully specialized library
//! (`+kernel`) — the outer rows of Fig. 12b.
//!
//! Flags: `--max-nodes N` (default 4608), `--iters N` (default 2),
//! `--json PATH` to write the machine-readable artifact
//! (`BENCH_summit_fig12.json` at the repo root was produced this way; see
//! EXPERIMENTS.md for the exact command and runtime budget).

use std::time::Instant;

use stencil_bench::{fmt_ms, weak_scaling_extent};
use stencil_core::Methods;
use svc::{ClusterPreset, JobSpec};

struct Row {
    nodes: usize,
    ranks: usize,
    extent: u64,
    staged_s: f64,
    specialized_s: f64,
    wall_s: f64,
}

fn main() {
    let mut max_nodes = 4608usize;
    let mut iters = 2usize;
    let mut json: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let operand = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--max-nodes" => {
                max_nodes = operand(i).parse().expect("--max-nodes N");
                i += 2;
            }
            "--iters" => {
                iters = operand(i).parse().expect("--iters N");
                i += 2;
            }
            "--json" => {
                json = Some(operand(i));
                i += 2;
            }
            other => panic!("unknown flag {other} (expected --max-nodes / --iters / --json)"),
        }
    }

    println!("Full-Summit weak scaling — 750^3/GPU, 6 ranks x 6 GPUs per node, no CUDA-aware MPI");
    println!("(tiers: Staged-only vs fully specialized; wall = simulator time for the whole row)");
    println!(
        "-------------------------------------------------------------------------------------"
    );
    println!(
        "{:>6} {:>7} {:>8} | {:>12} {:>12} | speedup | {:>9}",
        "nodes", "ranks", "extent", "+remote", "+kernel", "wall"
    );
    let mut rows: Vec<Row> = Vec::new();
    for nodes in [256usize, 512, 1024, 2048, 4608] {
        if nodes > max_nodes {
            break;
        }
        let t0 = Instant::now();
        let extent = weak_scaling_extent(750, nodes * 6);
        let base =
            JobSpec::new("bench", ClusterPreset::Summit { nodes }, 6, [extent; 3]).iters(iters);
        let tier = |m: Methods| svc::execute(&base.clone().methods(m), None).mean;
        let staged = tier(Methods::staged_only());
        let specialized = tier(Methods::all());
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{:>6} {:>7} {:>8} | {} {} |  {:.2}x  | {:>8.1}s",
            nodes,
            nodes * 6,
            extent,
            fmt_ms(staged),
            fmt_ms(specialized),
            staged / specialized,
            wall
        );
        rows.push(Row {
            nodes,
            ranks: nodes * 6,
            extent,
            staged_s: staged,
            specialized_s: specialized,
            wall_s: wall,
        });
    }
    if let Some(last) = rows.last() {
        println!();
        println!(
            "  specialization speedup at {} nodes: {:.2}x  (paper reports 1.16x at its 256-node limit)",
            last.nodes,
            last.staged_s / last.specialized_s
        );
    }
    if let Some(path) = &json {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"suite\": \"summit-fig12\",\n");
        s.push_str("  \"config\": \"weak scaling 750^3/GPU, 6 ranks x 6 GPUs per node, periodic, radius 2, 4 quantities\",\n");
        s.push_str(&format!("  \"iters\": {iters},\n"));
        s.push_str("  \"units\": {\"staged_s\": \"virtual seconds\", \"specialized_s\": \"virtual seconds\", \"wall_s\": \"simulator wall-clock seconds per row\"},\n");
        s.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"nodes\": {}, \"ranks\": {}, \"extent\": {}, \"staged_s\": {:.9}, \"specialized_s\": {:.9}, \"speedup\": {:.3}, \"wall_s\": {:.1}}}{}\n",
                r.nodes,
                r.ranks,
                r.extent,
                r.staged_s,
                r.specialized_s,
                r.staged_s / r.specialized_s,
                r.wall_s,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        std::fs::write(path, s).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nartifact written to {path}");
    }
}

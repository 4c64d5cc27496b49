//! Shared measurement harness for the paper-reproduction benchmarks.
//!
//! A figure binary describes each measured run as a [`svc::JobSpec`] and
//! measures it with [`svc::execute`], the construction path the job
//! service uses too. That follows the paper's timing protocol (§IV-A): in
//! each rank, `MPI_Barrier`, record `MPI_Wtime`, run the exchange, record
//! the end time; the maximum across ranks is the reported exchange time,
//! averaged over the spec's iterations. This crate adds the pieces the
//! binaries share: labels, the weak-scaling extent rule, method tiers and
//! CLI flags.

#![warn(missing_docs)]

pub mod chaos;

use svc::JobSpec;

/// The paper's label for a job, e.g. `"2n/6r/6g/750/ca"`: nodes, ranks
/// and GPUs per node, the domain (one extent for a cube, else all three),
/// and `/ca` when MPI is CUDA-aware.
pub fn label(spec: &JobSpec) -> String {
    let [x, y, z] = spec.domain;
    let domain = if x == y && y == z {
        x.to_string()
    } else {
        format!("{x}x{y}x{z}")
    };
    let base = format!(
        "{}n/{}r/{}g/{domain}",
        spec.cluster.nodes(),
        spec.ranks_per_node,
        spec.cluster.gpus_per_node()
    );
    if spec.cuda_aware {
        format!("{base}/ca")
    } else {
        base
    }
}

/// The paper's weak-scaling domain size rule (§IV-D): total volume close to
/// 750³ per GPU while keeping the overall domain a cube —
/// `round(750 * nGPUs^(1/3))`.
pub fn weak_scaling_extent(per_gpu: u64, n_gpus: usize) -> u64 {
    (per_gpu as f64 * (n_gpus as f64).cbrt()).round() as u64
}

/// Format a seconds value for tables.
pub fn fmt_ms(s: f64) -> String {
    format!("{:9.3} ms", s * 1e3)
}

/// Shared benchmark CLI flags.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Cap on scaling sweeps (`--max-nodes N`).
    pub max_nodes: usize,
    /// Repetitions per configuration (`--iters N`).
    pub iters: usize,
    /// Write a metrics JSON artifact here (`--metrics PATH`). Metrics are
    /// collected on the headline configuration of each binary; virtual-time
    /// results are unchanged.
    pub metrics: Option<String>,
}

/// Parse shared benchmark CLI flags: `--max-nodes N` caps scaling sweeps,
/// `--iters N` sets repetitions, `--metrics PATH` emits a metrics JSON
/// artifact.
pub fn bench_args(default_max_nodes: usize) -> BenchArgs {
    parse_bench_args(default_max_nodes, std::env::args().skip(1))
}

fn parse_bench_args(default_max_nodes: usize, args: impl Iterator<Item = String>) -> BenchArgs {
    let args: Vec<String> = args.collect();
    let mut parsed = BenchArgs {
        max_nodes: default_max_nodes,
        iters: 2,
        metrics: None,
    };
    let mut i = 0;
    let operand = |i: usize| -> &String {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{} needs a value", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--max-nodes" => {
                parsed.max_nodes = operand(i).parse().expect("--max-nodes N");
                i += 2;
            }
            "--iters" => {
                parsed.iters = operand(i).parse().expect("--iters N");
                i += 2;
            }
            "--metrics" => {
                parsed.metrics = Some(operand(i).clone());
                i += 2;
            }
            other => {
                panic!("unknown flag {other} (expected --max-nodes N / --iters N / --metrics PATH)")
            }
        }
    }
    parsed
}

/// Reject every command-line argument, for the binaries that take none.
pub fn no_args() {
    reject_args(std::env::args().skip(1));
}

fn reject_args(mut args: impl Iterator<Item = String>) {
    if let Some(arg) = args.next() {
        panic!("unexpected argument {arg} (this binary takes no flags)");
    }
}

/// Write a metrics report as JSON to `path` and print a one-line note.
pub fn write_metrics_json(path: &str, report: &detsim::MetricsReport) {
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  metrics written to {path}");
}

/// The method tiers of the paper's Fig. 12, without CUDA-aware MPI.
pub fn tiers() -> Vec<(&'static str, stencil_core::Methods)> {
    use stencil_core::Methods;
    vec![
        ("+remote", Methods::staged_only()),
        ("+colo", Methods::staged_only().with_colocated()),
        ("+peer", Methods::staged_only().with_colocated().with_peer()),
        ("+kernel", Methods::all()),
    ]
}

/// The CUDA-aware tiers of Fig. 12.
pub fn tiers_cuda_aware() -> Vec<(&'static str, stencil_core::Methods)> {
    use stencil_core::Methods;
    vec![
        ("+remote/ca", Methods::cuda_aware_only()),
        ("+colo/ca", Methods::cuda_aware_only().with_colocated()),
        (
            "+peer/ca",
            Methods::cuda_aware_only().with_colocated().with_peer(),
        ),
        ("+kernel/ca", Methods::all_with_cuda_aware()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc::ClusterPreset;

    #[test]
    fn weak_scaling_extent_matches_formula() {
        assert_eq!(weak_scaling_extent(750, 1), 750);
        assert_eq!(
            weak_scaling_extent(750, 6),
            (750f64 * 6f64.cbrt()).round() as u64
        );
    }

    #[test]
    fn labels_follow_paper_format() {
        let c = JobSpec::new("t", ClusterPreset::Summit { nodes: 2 }, 6, [945; 3]).cuda_aware(true);
        assert_eq!(label(&c), "2n/6r/6g/945/ca");
        let c2 = JobSpec::new(
            "t",
            ClusterPreset::Summit { nodes: 1 },
            1,
            [1440, 1452, 700],
        );
        assert_eq!(label(&c2), "1n/1r/6g/1440x1452x700");
    }

    #[test]
    fn bench_args_parse_all_flags() {
        let a = parse_bench_args(
            256,
            ["--max-nodes", "8", "--iters", "5", "--metrics", "m.json"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.max_nodes, 8);
        assert_eq!(a.iters, 5);
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        let d = parse_bench_args(256, std::iter::empty());
        assert_eq!(d.max_nodes, 256);
        assert_eq!(d.iters, 2);
        assert!(d.metrics.is_none());
    }

    #[test]
    #[should_panic(expected = "unexpected argument --max-nodes")]
    fn no_args_rejects_any_argument() {
        reject_args(std::iter::empty());
        reject_args(["--max-nodes", "2"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn metrics_snapshot_rides_along() {
        let spec = JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 2, [64; 3])
            .iters(1)
            .collect_metrics(true);
        let r = svc::execute(&spec, None);
        let report = r.metrics.expect("metrics requested but absent");
        let json = report.to_json();
        assert!(json.contains("\"exchange\""), "no exchange metrics: {json}");
    }

    #[test]
    fn small_measurement_runs() {
        let spec = JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 1, [96; 3]).iters(2);
        let r = svc::execute(&spec, None);
        assert_eq!(r.per_iter.len(), 2);
        assert!(r.mean > 0.0);
        assert!(!r.plan.is_empty());
    }
}

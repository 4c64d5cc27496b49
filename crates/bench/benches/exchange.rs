//! Macro-benchmark: wall-clock cost of simulating one complete
//! single-node halo exchange (setup + exchange), i.e. the simulator's own
//! performance.

use stencil_bench::microbench::Bench;
use stencil_core::Methods;
use svc::{ClusterPreset, JobSpec};

fn main() {
    let mut g = Bench::new("simulate");
    g.sample_size(10);
    let one_node = JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, 6, [930; 3]).iters(1);
    g.run("exchange/1n6r-specialized", || {
        svc::execute(&one_node.clone().methods(Methods::all()), None)
    });
    // Same workload with the metrics registry enabled — the pair bounds the
    // collection overhead (disabled-path overhead is a single branch; see
    // docs/OBSERVABILITY.md).
    g.run("exchange/1n6r-specialized+metrics", || {
        svc::execute(
            &one_node
                .clone()
                .methods(Methods::all())
                .collect_metrics(true),
            None,
        )
    });
    g.run("exchange/1n6r-staged", || {
        svc::execute(&one_node.clone().methods(Methods::staged_only()), None)
    });
    let four_nodes =
        JobSpec::new("bench", ClusterPreset::Summit { nodes: 4 }, 6, [1685; 3]).iters(1);
    g.run("exchange/4n6r-specialized", || {
        svc::execute(&four_nodes.clone().methods(Methods::all()), None)
    });
}

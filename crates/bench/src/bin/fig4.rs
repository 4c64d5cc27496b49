//! Fig. 4: the hierarchical prime-factor decomposition example —
//! a 4 x 24 x 2 domain among 12 nodes of 4 GPUs.

use stencil_core::partition::{choose_dims, prime_factors};
use stencil_core::Partition;

fn main() {
    stencil_bench::no_args();
    let domain = [4u64, 24, 2];
    println!("Fig. 4 — hierarchical decomposition of a 4x24x2 domain, 12 nodes x 4 GPUs");
    println!("--------------------------------------------------------------------------");
    println!(
        "  prime factors of 12 (largest first): {:?}",
        prime_factors(12)
    );
    println!(
        "  prime factors of  4 (largest first): {:?}",
        prime_factors(4)
    );

    let p = Partition::new(domain, 12, 4);
    println!("  node grid: {:?}   (paper: [2, 6, 1])", p.node_dims);
    println!("  gpu grid:  {:?}   (paper: [2, 2, 1])", p.gpu_dims);
    assert_eq!(p.node_dims, [2, 6, 1]);
    assert_eq!(p.gpu_dims, [2, 2, 1]);

    // Walk the splits the way the figure narrates them.
    println!(
        "  step ❷: split y by 3 -> node shape {:?}",
        choose_dims(domain, 3)
    );
    println!(
        "  step ❸: then y by 2, step ❹: then x by 2 -> {:?}",
        p.node_dims
    );

    // The annotated subdomain [1, 2, 0] in node space.
    let nb = p.node_box([1, 2, 0]);
    println!(
        "  node subdomain [1,2,0]: origin {:?}, extent {:?}",
        nb.origin, nb.extent
    );

    println!("\n  per-GPU subdomains of node [1,2,0]:");
    for gz in 0..p.gpu_dims[2] {
        for gy in 0..p.gpu_dims[1] {
            for gx in 0..p.gpu_dims[0] {
                let b = p.gpu_box([1, 2, 0], [gx, gy, gz]);
                println!(
                    "    gpu [{gx},{gy},{gz}]: origin {:?}, extent {:?}, global index {:?}",
                    b.origin,
                    b.extent,
                    p.global_idx([1, 2, 0], [gx, gy, gz])
                );
            }
        }
    }

    // Exhaustive checks: exact disjoint cover.
    let total: u64 = p
        .all_subdomains()
        .map(|(n, g)| p.gpu_box(n, g).volume())
        .sum();
    assert_eq!(total, domain[0] * domain[1] * domain[2]);
    println!("\n  OK: 48 subdomains cover the domain exactly");
}

//! Table I + Fig. 10: the simulated Summit node — hardware summary,
//! link bandwidths, and the discovered GPU connectivity matrix.

use detsim::Kernel;
use topo::summit::{summit_cluster, summit_node, HBM_BW, NIC_BW, NVLINK_BW, XBUS_BW};
use topo::{Fabric, NodeDiscovery};

fn main() {
    stencil_bench::no_args();
    println!("Table I — simulated hardware summary");
    println!("------------------------------------");
    println!(
        "{:<18} Summit (2x POWER9 + 6x V100-SXM2-16GB)",
        "node model"
    );
    println!("{:<18} 2 sockets, X-Bus SMP interconnect", "CPU");
    println!(
        "{:<18} 6 per node, 16 GiB each, in two NVLink triads",
        "GPUs"
    );
    println!(
        "{:<18} dual-rail EDR InfiniBand, non-blocking switch",
        "interconnect"
    );
    println!(
        "{:<18} detsim/gpusim/mpisim simulation (no real CUDA/MPI)",
        "substrate"
    );
    println!();
    println!("Fig. 10 — link bandwidths (per direction)");
    println!("-----------------------------------------");
    println!(
        "{:<28} {:>8.0} GB/s",
        "NVLink2 (GPU-GPU, GPU-CPU)",
        NVLINK_BW / 1e9
    );
    println!("{:<28} {:>8.0} GB/s", "X-Bus (CPU-CPU)", XBUS_BW / 1e9);
    println!("{:<28} {:>8.0} GB/s", "NIC injection", NIC_BW / 1e9);
    println!("{:<28} {:>8.0} GB/s", "HBM2 (device memory)", HBM_BW / 1e9);
    println!();

    let node = summit_node();
    let disc = NodeDiscovery::discover(&node);
    println!("Discovered GPU connectivity (nvidia-smi topo -m analogue)");
    println!("----------------------------------------------------------");
    print!("{}", disc.render_matrix());
    println!();
    println!("Pairwise nominal bandwidth used for placement (GB/s):");
    for a in 0..6 {
        print!("  GPU{a}:");
        for b in 0..6 {
            print!(" {:>6.0}", disc.bandwidth(a, b) / 1e9);
        }
        println!();
    }
    println!();

    // Zero-contention path capacities through the instantiated fabric.
    let mut k = Kernel::new();
    let fabric = Fabric::build(&mut k, summit_cluster(2));
    println!("Zero-contention path capacities (GB/s) through the fabric:");
    let cases: Vec<(&str, Vec<detsim::LinkId>)> = vec![
        ("GPU0 -> GPU1 (triad)", fabric.gpu_gpu_path(0, 0, 1)),
        ("GPU0 -> GPU3 (cross-socket)", fabric.gpu_gpu_path(0, 0, 3)),
        ("GPU0 -> host (D2H)", fabric.gpu_to_host_path(0, 0)),
        (
            "host n0 -> host n1 (IB)",
            fabric.internode_host_path(0, 0, 1, 0),
        ),
        (
            "GPU0@n0 -> GPU0@n1 (GPUDirect)",
            fabric.internode_gpu_path(0, 0, 1, 0),
        ),
    ];
    for (name, path) in cases {
        println!(
            "  {:<32} {:>6.1}  ({} hops, {:.1} us latency)",
            name,
            k.path_capacity(&path) / 1e9,
            path.len(),
            k.path_latency(&path).as_micros_f64()
        );
    }
}

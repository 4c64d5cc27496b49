//! Fig. 9: timeline of overlapped exchange operations on a single node —
//! a 512³ subdomain per GPU with four SP quantities, two MPI ranks.
//!
//! Emits an ASCII timeline to stdout and a Chrome trace
//! (`chrome://tracing` / Perfetto) to `fig9_trace.json`.

use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods};
use topo::summit::summit_cluster;

fn main() {
    stencil_bench::no_args();
    // Two ranks on one node, three GPUs each (the paper's run drove two
    // GPUs per rank on the 4-GPU partition of a Summit node; our node model
    // keeps all six GPUs).
    let extent = (512f64 * 6f64.cbrt()).round() as u64;
    let world = WorldConfig::new(summit_cluster(1), 2)
        .data_mode(DataMode::Virtual)
        .trace(true);
    let rep = run_world(world, move |ctx| {
        let dom = DomainBuilder::new([extent, extent, extent])
            .radius(2)
            .quantities(4)
            .methods(Methods::all())
            .build(ctx);
        ctx.barrier();
        dom.exchange(ctx);
    });
    println!("Fig. 9 — overlapped exchange timeline (1 node, 2 ranks, 6 GPUs, 512^3/GPU x 4 SP)");
    println!("----------------------------------------------------------------------------------");
    println!("legend: k=kernel (pack/unpack/self-exchange), m=memcpy (D2H/H2D/P2P), M=MPI\n");
    print!("{}", rep.trace_ascii.unwrap());
    let json = rep.trace_json.unwrap();
    let path = "fig9_trace.json";
    std::fs::write(path, &json).expect("write trace");
    println!(
        "\nfull trace written to {path} ({} KiB); load it in chrome://tracing",
        json.len() / 1024
    );
    println!("exchange completed at {}", rep.elapsed);
}

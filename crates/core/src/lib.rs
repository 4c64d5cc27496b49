//! # stencil-core — node-aware 3D stencil halo exchange
//!
//! A Rust reproduction of the library from *Node-Aware Stencil
//! Communication for Heterogeneous Supercomputers* (Pearson, Hidayetoğlu,
//! Almasri, Anjum, Chung, Xiong, Hwu — IPDPSW 2020), built on a simulated
//! CUDA runtime (`gpusim`), a simulated MPI (`mpisim`), and a parametric
//! hardware model (`topo`).
//!
//! The library optimizes GPU-GPU halo exchange for 3D stencils with a
//! three-phase setup:
//!
//! 1. **Partitioning** ([`Partition`]): hierarchical recursive bisection by
//!    prime factors — nodes first, then GPUs — minimizing the slowest
//!    communication first.
//! 2. **Placement** ([`placement`], [`qap`]): subdomains are assigned to
//!    GPUs per node by solving a quadratic assignment problem matching
//!    exchange volume to link bandwidth discovered from the node topology.
//! 3. **Specialization** ([`Method`], [`Methods`]): each pair exchange uses
//!    the best applicable of five implementations — `Kernel`,
//!    `PeerMemcpy`, `ColocatedMemcpy`, `CudaAwareMpi`, `Staged`.
//!
//! Exchanges then run fully asynchronously ([`DistributedDomain::exchange`])
//! with CUDA-only paths enqueued on streams and CUDA+MPI paths driven by
//! one staged sender/receiver driver polled in a loop, supporting overlap
//! with interior computation ([`DistributedDomain::exchange_start`] /
//! [`DistributedDomain::exchange_finish`]).
//!
//! ```no_run
//! use stencil_core::{DomainBuilder, Methods};
//!
//! # fn demo(ctx: &mpisim::RankCtx) {
//! let dom = DomainBuilder::new([750, 750, 750])
//!     .radius(2)
//!     .quantities(4)
//!     .methods(Methods::all())
//!     .build(ctx);
//! for _ in 0..10 {
//!     // compute interior on dom.locals()[..].compute_stream() ...
//!     dom.exchange(ctx);
//! }
//! # }
//! ```
//!
//! A complete (small-scale, runnable) exchange over two simulated ranks:
//!
//! ```
//! use mpisim::{run_world, WorldConfig};
//! use stencil_core::{DomainBuilder, Methods, Neighborhood};
//! use topo::summit::summit_cluster;
//!
//! run_world(WorldConfig::new(summit_cluster(1), 2), |ctx| {
//!     let dom = DomainBuilder::new([24, 20, 16])
//!         .radius(1)
//!         .quantities(1)
//!         .neighborhood(Neighborhood::Faces6)
//!         .methods(Methods::all())
//!         .build(ctx);
//!     for local in dom.locals() {
//!         local.fill(0, |p| (p[0] + p[1] + p[2]) as f32);
//!     }
//!     dom.exchange(ctx);
//!     if ctx.rank() == 0 {
//!         assert!(!dom.plan_summary().to_string().is_empty());
//!     }
//! });
//! ```

#![warn(missing_docs)]

pub mod dim3;
mod domain;
pub mod empirical;
mod exchange;
mod local;
pub mod method;
pub mod multilevel;
pub mod overlap;
pub mod partition;
pub mod placement;
pub mod qap;
pub mod radius;
pub mod region;
mod resilience;
mod stats;

pub use dim3::{Box3, Dim3, Dir3, Idx3, Neighborhood};
pub use domain::{DistributedDomain, DomainBuilder, DomainSpec};
pub use exchange::{ExchangeHandle, ExchangeTiming};
pub use local::LocalDomain;
pub use method::{select, Method, Methods, PairCaps};
pub use partition::Partition;
pub use placement::{Placement, PlacementStrategy};
pub use radius::Radius;
pub use resilience::{
    AdaptOutcome, AdaptPolicy, AdaptScope, Health, HealthMonitor, MigrationMode, SkipReason,
};
pub use stats::PlanSummary;

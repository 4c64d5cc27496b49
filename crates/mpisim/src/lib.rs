//! # mpisim — a simulated MPI library
//!
//! Ranks run as deterministic cooperative threads ([`run_world`] spawns one
//! per rank); each gets a [`RankCtx`] with the MPI subset the paper's
//! stencil library needs:
//!
//! * non-blocking point-to-point ([`RankCtx::isend`] / [`RankCtx::irecv`] /
//!   [`RankCtx::wait_all`]) with tag matching and rendezvous latency;
//! * three transports chosen by buffer placement:
//!   **shared-memory** (intra-node host buffers; pumped through the sending
//!   rank's progress engine — more ranks per node ⇒ more parallel pumping,
//!   the staged-exchange effect of paper Fig. 12a),
//!   **NIC** (inter-node host buffers; all of a node's traffic shares its
//!   injection/ejection bandwidth), and
//!   **CUDA-aware** (device buffers passed straight to MPI; reproduces the
//!   default-stream serialization and per-message synchronization the paper
//!   profiles in §IV-D);
//! * persistent requests ([`RankCtx::send_init`] / [`RankCtx::recv_init`] /
//!   [`RankCtx::start`]) and partitioned communication
//!   ([`RankCtx::psend_init`] / [`RankCtx::pready`]), gated behind
//!   [`WorldConfig::mpi_persistent`] / [`WorldConfig::mpi_partitioned`]
//!   (see `docs/TRANSPORTS.md`);
//! * `MPI_Barrier`, `MPI_Wtime`;
//! * a typed out-of-band channel for setup metadata and `cudaIpc` handles
//!   ([`RankCtx::send_obj`] / [`RankCtx::recv_obj`]).
//!
//! Enable [`WorldConfig::metrics`] to collect message/transport counters and
//! match-latency histograms in [`WorldReport::metrics`] (see
//! `docs/OBSERVABILITY.md`).
//!
//! ## Example: a two-rank ping
//!
//! ```
//! use mpisim::{run_world, WorldConfig};
//! use topo::summit::summit_cluster;
//!
//! let report = run_world(WorldConfig::new(summit_cluster(1), 2), |ctx| {
//!     let m = ctx.machine();
//!     if ctx.rank() == 0 {
//!         let buf = m.alloc_host_untimed(0, 0, 64);
//!         buf.write(0, &[42u8; 64]);
//!         ctx.send(&buf, 0, 64, 1, 7);
//!     } else {
//!         let buf = m.alloc_host_untimed(0, 1, 64);
//!         ctx.recv(&buf, 0, 64, 0, 7);
//!         let mut got = [0u8; 64];
//!         buf.read(0, &mut got);
//!         assert_eq!(got, [42u8; 64]);
//!     }
//! });
//! assert!(report.elapsed > detsim::SimDuration::ZERO);
//! ```

#![warn(missing_docs)]

mod config;
mod rank;
mod transport;
mod world;

pub use config::MpiCostModel;
pub use rank::RankCtx;
pub use transport::{partition_range, ChanKind, ChanSide, Channel, ChannelRound, Request};
pub use world::{run_world, WorldConfig, WorldReport};

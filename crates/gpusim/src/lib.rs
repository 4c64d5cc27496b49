//! # gpusim — a simulated CUDA runtime
//!
//! Reproduces, over the `detsim` event kernel and the `topo` hardware model,
//! the CUDA object model and semantics the paper's stencil library is built
//! on:
//!
//! * devices with bounded memory ([`GpuMachine::alloc_device_untimed`]);
//! * pinned host buffers ([`GpuMachine::alloc_host_untimed`]);
//! * in-order [`Stream`]s with asynchronous memcpy (H2D/D2H/D2D/peer) and
//!   kernel launches that contend for per-device engine bandwidth;
//! * events and cross-stream synchronization
//!   ([`GpuMachine::record_event`], [`GpuMachine::stream_wait_event`]);
//! * peer access management ([`GpuMachine::enable_peer_access`]);
//! * `cudaIpc*` handles for cross-process buffer sharing
//!   ([`GpuMachine::ipc_get_handle`] / [`GpuMachine::ipc_open`]).
//!
//! Transfers move real bytes in [`DataMode::Full`] (verifiable numerics) and
//! only virtual time in [`DataMode::Virtual`] (paper-scale benchmarks). Time
//! comes from the fabric's link model plus a small [`GpuCostModel`] of
//! driver/launch overheads.
//!
//! When metrics are enabled on the `detsim` kernel, every memcpy and kernel
//! launch is counted per device and direction (see `docs/OBSERVABILITY.md`).
//!
//! ## Example: a machine over one simulated Summit node
//!
//! ```
//! use detsim::Kernel;
//! use gpusim::{DataMode, GpuCostModel, GpuMachine};
//! use topo::summit::summit_cluster;
//!
//! let mut k = Kernel::new();
//! let m = GpuMachine::new(&mut k, summit_cluster(1), GpuCostModel::default(), DataMode::Full);
//! assert_eq!(m.num_devices(), 6);
//! let buf = m.alloc_device_untimed(0, 1 << 20).unwrap();
//! assert_eq!(m.device_mem_used(0), 1 << 20);
//! m.free_device(&buf);
//! ```

#![warn(missing_docs)]

mod buffer;
mod config;
mod error;
mod machine;
mod ops;

pub use buffer::{Buffer, Placement};
pub use config::{DataMode, GpuCostModel};
pub use error::GpuError;
pub use machine::{GpuMachine, Stream};
pub use ops::{IpcMemHandle, Work};

//! Stencil-as-a-service: a multi-tenant job layer over the deterministic
//! stencil simulator.
//!
//! This crate turns the one-shot simulation harness into a long-running
//! service: callers describe work declaratively as a [`JobSpec`] (domain
//! geometry, cluster preset, placement strategy, fault scenario, exchange
//! methods), submit it to a [`Service`], and receive a [`JobResult`]
//! envelope carrying the committed virtual-time measurements. Many
//! simulated worlds run concurrently on a bounded worker pool; each world
//! stays single-threaded-deterministic, so a job's results are
//! bit-identical whether it runs alone or alongside 63 neighbors on any
//! worker count (pinned by `tests/determinism.rs`).
//!
//! The pieces:
//!
//! - [`spec`] — the typed job description and its JSON wire format.
//! - [`runner`] — the one spec→world construction path; the figure
//!   binaries call it directly too.
//! - [`service`] — bounded worker pool with weighted-fair (stride)
//!   cross-tenant scheduling, admission control, per-job
//!   timeout/cancellation, and panic isolation.
//! - [`result`] — the response envelope with exact-bit virtual times.
//! - [`store`] — append-only JSONL persistence plus cross-run
//!   comparison queries keyed by workload digest.
//! - [`json`] — the crate's tiny dependency-free JSON reader/writer.
//!
//! See `docs/SERVICE.md` for the full contract; perfbench's `svc-mix`
//! workload measures the service's throughput and latency.
//!
//! # Example
//!
//! ```
//! use svc::{ClusterPreset, JobSpec, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig {
//!     workers: 2,
//!     queue_capacity: 16,
//!     default_timeout_ms: None,
//! });
//! let spec = JobSpec::new("demo", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]);
//! let handle = service.submit(spec).expect("admitted");
//! let result = handle.wait();
//! assert_eq!(result.status, svc::JobStatus::Completed);
//! assert!(result.elapsed_virtual_ps > 0);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod result;
pub mod runner;
pub mod service;
pub mod spec;
pub mod store;

pub use result::{JobResult, JobStatus};
pub use runner::{execute, RunOutcome, CANCEL_PANIC, POISON_PANIC};
pub use service::{JobHandle, Rejection, Service, ServiceConfig, ServiceStats};
pub use spec::{ClusterPreset, FaultScenario, JobSpec};
pub use store::{DigestGroup, ResultStore};

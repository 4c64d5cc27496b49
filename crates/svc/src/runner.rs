//! Spec → world construction and execution.
//!
//! [`execute`] is the one place in the tree that turns a declarative
//! workload description into a running simulated world: resolve the
//! cluster preset, install the fault schedule, build the distributed
//! domain inside the world, and run the measured exchange loop under the
//! paper's timing protocol (barrier, `wtime`, exchange, max across
//! ranks). The figure binaries build a [`JobSpec`] and call it directly,
//! and the job service calls it on its workers, so every figure and every
//! service job measures through identical construction code.
//!
//! Each world runs on the coroutine runtime inside the calling OS thread
//! and shares nothing with other worlds, so a job's committed virtual
//! times are bit-identical no matter how many neighbors run concurrently
//! on other workers — the property `crates/svc/tests/determinism.rs`
//! pins.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use faultsim::FaultSchedule;
use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Method, Neighborhood};

use crate::spec::{FaultScenario, JobSpec};

/// Panic payload used to unwind a world whose job was cancelled (timeout
/// or explicit cancel). The service classifies unwinds carrying this
/// message as cancellation rather than a crashed job.
pub const CANCEL_PANIC: &str = "svc: job cancelled";

/// Panic payload produced by the [`JobSpec::poison_at_iter`] chaos hook.
pub const POISON_PANIC: &str = "svc: poisoned world (poison_at_iter hook)";

/// When a job must stop: once [`Cancel::cancel`] is called, or once its
/// wall-clock deadline passes. Every rank of the job's world checks both
/// at each iteration boundary, so nothing outside the world has to watch
/// the clock. Neither input reaches virtual time: a stopped world
/// reports no measurements.
#[derive(Debug)]
pub struct Cancel {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl Cancel {
    /// A job that stops at `deadline`, or only when cancelled if `None`.
    pub fn new(deadline: Option<Instant>) -> Cancel {
        Cancel {
            flag: AtomicBool::new(false),
            deadline,
        }
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the deadline has passed at `at`.
    pub fn timed_out(&self, at: Instant) -> bool {
        self.deadline.is_some_and(|d| at >= d)
    }

    /// Whether the job must stop at `at`: cancelled, or out of time.
    pub fn stopped(&self, at: Instant) -> bool {
        self.flag.load(Ordering::Relaxed) || self.timed_out(at)
    }
}

/// What one executed job measured.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Per-iteration max-across-ranks exchange seconds (virtual time).
    pub per_iter: Vec<f64>,
    /// Mean of `per_iter`.
    pub mean: f64,
    /// Human-readable plan summary from rank 0.
    pub plan: String,
    /// Metrics snapshot, if the spec asked for one.
    pub metrics: Option<detsim::MetricsReport>,
    /// Final virtual time of the world, picoseconds — the primary
    /// bit-identity anchor for determinism comparisons.
    pub elapsed_virtual_ps: u64,
}

/// Run the job described by `spec` to completion in a fresh world on the
/// calling thread. With `cancel`, every rank checks it at each iteration
/// boundary and, once the job is cancelled or past its deadline, the
/// world unwinds with [`CANCEL_PANIC`]. Panics propagate (after the
/// runtime's poison teardown) when a rank program panics — including
/// cancellation unwinds and the poison chaos hook ([`POISON_PANIC`]); the
/// service catches and classifies them.
pub fn execute(spec: &JobSpec, cancel: Option<Arc<Cancel>>) -> RunOutcome {
    let num_ranks = spec.num_ranks();
    let times = Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
    let plan_out = Rc::new(RefCell::new(String::new()));
    let t2 = Rc::clone(&times);
    let p2 = Rc::clone(&plan_out);
    // Rank kill/respawn scenarios cannot be installed at world start: the
    // kill could land mid-build (empirical probes, the IPC handshake),
    // where the domain has no recovery protocol. Defer the whole schedule
    // to a quiet point inside the rank program instead — the measured
    // iterations then run against the re-handshaked, post-respawn world.
    let spec_faults = spec.faults;
    let kill_at_us = match spec_faults {
        FaultScenario::KillRespawn { at_us, .. } | FaultScenario::OomRespawn { at_us, .. } => {
            Some(at_us)
        }
        _ => None,
    };
    let faults = match kill_at_us {
        Some(_) => FaultSchedule::new(),
        None => spec_faults.schedule(),
    };
    // The MPI stack's transport capabilities follow the requested method
    // set: asking for persistent/partitioned rungs implies a stack that
    // provides them. No new wire fields — `methods_bits` already carries it.
    let world = WorldConfig::new(spec.cluster.cluster_spec(), spec.ranks_per_node)
        .cuda_aware(spec.cuda_aware)
        .mpi_persistent(spec.methods.contains(Method::PersistentStaged))
        .mpi_partitioned(spec.methods.contains(Method::PartitionedStaged))
        .data_mode(DataMode::Virtual)
        .metrics(spec.collect_metrics)
        .faults(faults);
    let domain = spec.domain;
    let radius = spec.radius;
    let quantities = spec.quantities;
    let methods = spec.methods;
    let placement = spec.placement;
    let consolidate = spec.consolidate;
    let iters = spec.iters;
    let poison_at_iter = spec.poison_at_iter;
    let report = run_world(world, move |ctx| {
        let mut dom = DomainBuilder::new(domain)
            .radius(radius)
            .quantities(quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(methods)
            .placement(placement)
            .consolidate(consolidate)
            .build(ctx);
        if ctx.rank() == 0 {
            *p2.borrow_mut() = dom.plan_summary().to_string();
        }
        if let Some(kill_at_us) = kill_at_us {
            ctx.barrier();
            if ctx.rank() == 0 {
                let now = ctx.sim().with_kernel(|k| k.now());
                ctx.install_faults_at(&spec_faults.schedule(), now);
            }
            ctx.barrier();
            ctx.sim()
                .delay(detsim::SimDuration::from_micros(kill_at_us + 10));
            dom.rejoin_after_respawn(ctx);
        }
        // Grown per iteration run: an absurd `iters` is cut short by a
        // timeout or cancellation, and must not be allocated up front.
        let mut mine = Vec::new();
        for i in 0..iters {
            if cancel.as_ref().is_some_and(|c| c.stopped(Instant::now())) {
                std::panic::panic_any(CANCEL_PANIC);
            }
            if poison_at_iter == Some(i) && ctx.rank() == 0 {
                std::panic::panic_any(POISON_PANIC);
            }
            ctx.barrier();
            let t0 = ctx.wtime();
            dom.exchange(ctx);
            mine.push(ctx.wtime() - t0);
        }
        t2.borrow_mut()[ctx.rank()] = mine;
    });
    let per_rank = times.take();
    let per_iter: Vec<f64> = (0..spec.iters)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
        .collect();
    let mean = per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64;
    let plan = plan_out.take();
    RunOutcome {
        per_iter,
        mean,
        plan,
        metrics: report.metrics,
        elapsed_virtual_ps: report.elapsed.picos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterPreset, FaultScenario};

    fn tiny() -> JobSpec {
        JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]).iters(2)
    }

    #[test]
    fn executes_and_reports_virtual_times() {
        let out = execute(&tiny(), None);
        assert_eq!(out.per_iter.len(), 2);
        assert!(out.mean > 0.0);
        assert!(out.elapsed_virtual_ps > 0);
        assert!(!out.plan.is_empty());
    }

    #[test]
    fn named_fault_scenario_slows_the_run() {
        // Full node so every device is placed, and a domain big enough
        // that pack/unpack time is visible next to link latency.
        let spec =
            JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 6, [384, 384, 384]).iters(2);
        let clean = execute(&spec, None);
        let faulted = execute(
            &spec.clone().faults(FaultScenario::StragglerGpu {
                device: 2,
                at_us: 0,
                speed_factor: 0.05,
            }),
            None,
        );
        assert!(
            faulted.mean > clean.mean * 1.5,
            "straggler must bite: clean {} faulted {}",
            clean.mean,
            faulted.mean
        );
    }

    #[test]
    fn metrics_requested_means_metrics_returned() {
        let out = execute(&tiny().collect_metrics(true), None);
        let json = out.metrics.expect("metrics requested").to_json();
        assert!(json.contains("\"exchange\""), "{json}");
    }

    #[test]
    fn cancel_flag_unwinds_with_cancel_payload() {
        // 2^40 iterations under a timeout pass `validate`; preallocating a
        // time slot for each would abort the process, which no unwind can
        // catch.
        let absurd = tiny().iters(1 << 40).timeout_ms(60_000);
        assert_eq!(absurd.validate(), Ok(()));
        // One job cancelled before it starts, one whose deadline has
        // already passed: both unwind at the first iteration boundary.
        let cancelled = Cancel::new(None);
        cancelled.cancel();
        let expired = Cancel::new(Some(Instant::now()));
        for (spec, cancel) in [(tiny(), cancelled), (absurd, expired)] {
            let cancel = Some(Arc::new(cancel));
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&spec, cancel)))
                    .expect_err("a stopped job must unwind the world");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert_eq!(msg, CANCEL_PANIC, "iters {}", spec.iters);
        }
    }

    #[test]
    fn rank_failure_recovery_pins_virtual_time_bits() {
        // The whole rank-failure protocol — deferred install, kill,
        // revocation, respawn, rejoin — then three measured exchanges,
        // pinned bit for bit. The OOM flavor's memory limit is restored
        // before the respawn reallocates, so both scenarios share the bits.
        const PER_ITER_BITS: [u64; 3] =
            [0x3f41666019c291f0, 0x3f41666019c291f0, 0x3f41666019c291f4];
        const ELAPSED_PS: u64 = 3_666_008_778;
        let spec = JobSpec::new("t", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96]).iters(3);
        for faults in [
            FaultScenario::KillRespawn {
                rank: 4,
                at_us: 50,
                down_us: 300,
            },
            FaultScenario::OomRespawn {
                device: 8,
                rank: 4,
                at_us: 50,
                down_us: 300,
                mem_factor: 0.05,
            },
        ] {
            let out = execute(&spec.clone().faults(faults), None);
            let bits: Vec<u64> = out.per_iter.iter().map(|t| t.to_bits()).collect();
            assert_eq!(
                bits, PER_ITER_BITS,
                "{faults:?}: per-iteration bits drifted"
            );
            assert_eq!(
                out.elapsed_virtual_ps, ELAPSED_PS,
                "{faults:?}: elapsed drifted"
            );
        }
    }

    #[test]
    fn poison_hook_unwinds_with_poison_payload() {
        let spec = tiny().poison_at_iter(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&spec, None)))
            .expect_err("poison hook must unwind the world");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, POISON_PANIC);
    }
}

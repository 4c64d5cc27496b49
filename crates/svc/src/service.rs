//! The long-running job service: bounded worker pool, weighted-fair
//! cross-tenant scheduling, admission control, timeout/cancellation, and
//! panic isolation.
//!
//! # Scheduling contract
//!
//! Jobs queue per tenant; dispatch order across tenants is **stride
//! scheduling**: each tenant carries a `pass` value advanced by
//! `STRIDE_UNIT / weight` per dispatched job, and the dispatcher always
//! picks the non-empty tenant with the smallest `(pass, name)`. Under
//! contention a tenant with weight 2 is therefore dispatched twice as
//! often as a tenant with weight 1; within a tenant, jobs run FIFO. A
//! tenant that goes idle re-enters at the current virtual time (its pass
//! is clamped up), so sleeping does not bank credit.
//!
//! # Admission control
//!
//! [`Service::submit`] rejects — synchronously, with an explicit
//! [`Rejection`] — rather than blocking: malformed specs
//! ([`crate::spec::JobSpec::validate`]) and submissions past the bounded
//! queue's capacity never reach a worker.
//!
//! # Timeouts and cancellation
//!
//! A job's deadline covers queued and running time, and the worker
//! enforces it itself: a job cancelled or out of time when it is
//! dispatched resolves without running, and a running world checks its
//! [`Cancel`] at every iteration boundary on every rank. The workers are
//! the service's only threads.
//!
//! # Isolation
//!
//! Each job runs one simulated world on one worker thread
//! ([`crate::runner::execute`]); worlds share nothing. A panicking world
//! (bug, or the `poison_at_iter` chaos hook) is caught on the worker
//! after the runtime's poison teardown, recorded as
//! [`JobStatus::Panicked`], and the worker keeps serving — one poisoned
//! world never takes down the service. Because each world is
//! single-threaded-deterministic, a job's committed virtual times are
//! bit-identical whether it runs alone or beside 63 neighbors, on any
//! worker count.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::result::{JobResult, JobStatus};
use crate::runner::{execute, Cancel, CANCEL_PANIC};
use crate::spec::JobSpec;
use crate::store::ResultStore;

/// Pass-advance numerator for stride scheduling. A tenant of weight `w`
/// advances `STRIDE_UNIT / w` per dispatched job.
pub const STRIDE_UNIT: u64 = 1 << 24;

/// Service construction knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (concurrent worlds). Clamped to ≥ 1.
    pub workers: usize,
    /// Admission bound: maximum jobs *queued* (excluding running).
    /// Submissions beyond it are rejected with [`Rejection::QueueFull`].
    pub queue_capacity: usize,
    /// Timeout applied to specs that do not carry their own.
    pub default_timeout_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 256,
            default_timeout_ms: None,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is full; resubmit later.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The spec failed validation (or the service is shutting down).
    Invalid(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

/// Monotonic counters describing service activity so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled via their handle.
    pub cancelled: u64,
    /// Jobs that hit their wall-clock deadline.
    pub timed_out: u64,
    /// Jobs whose world panicked (worker survived).
    pub panicked: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected by validation.
    pub rejected_invalid: u64,
}

/// Completion slot + stop conditions shared between a handle and the
/// worker executing the job.
struct JobCell {
    slot: Mutex<Option<JobResult>>,
    done_cv: Condvar,
    /// Held as its own `Arc` so the runner's ranks read the same flag the
    /// handle sets (the `cancel` argument of [`crate::runner::execute`]).
    cancel: Arc<Cancel>,
}

/// A claim on one submitted job.
pub struct JobHandle {
    id: u64,
    cell: Arc<JobCell>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job finishes (any [`JobStatus`]) and return its
    /// result.
    pub fn wait(&self) -> JobResult {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.cell.done_cv.wait(slot).unwrap();
        }
    }

    /// Request cancellation: a queued job is resolved as
    /// [`JobStatus::Cancelled`] at dispatch; a running job unwinds at its
    /// next iteration boundary.
    pub fn cancel(&self) {
        self.cell.cancel.cancel();
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    cell: Arc<JobCell>,
    submitted: Instant,
}

struct Tenant {
    weight: u64,
    pass: u64,
    queue: VecDeque<QueuedJob>,
}

#[derive(Default)]
struct Sched {
    tenants: BTreeMap<String, Tenant>,
    /// Jobs sitting in tenant queues (admission bound counts these).
    queued: usize,
    /// Virtual time: the pass of the most recently dispatched job, used
    /// to clamp re-activating tenants so idling banks no credit.
    vtime: u64,
    /// Counters so far, under the same lock as the queues.
    stats: ServiceStats,
    shutdown: bool,
}

struct Shared {
    sched: Mutex<Sched>,
    work_cv: Condvar,
    store: Option<ResultStore>,
    next_id: AtomicU64,
    queue_capacity: usize,
    default_timeout_ms: Option<u64>,
}

/// The running service. Dropping it (or calling [`Service::shutdown`])
/// drains queued jobs and joins the workers.
pub struct Service {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Start a service with `config` and no result persistence.
    pub fn new(config: ServiceConfig) -> Service {
        Self::build(config, None)
    }

    /// Start a service persisting every finished job to `store`.
    pub fn with_store(config: ServiceConfig, store: ResultStore) -> Service {
        Self::build(config, Some(store))
    }

    fn build(config: ServiceConfig, store: Option<ResultStore>) -> Service {
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched::default()),
            work_cv: Condvar::new(),
            store,
            next_id: AtomicU64::new(1),
            queue_capacity: config.queue_capacity,
            default_timeout_ms: config.default_timeout_ms,
        });
        let threads = (0..config.workers.max(1))
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{w}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker")
            })
            .collect();
        Service { shared, threads }
    }

    /// Submit a job. Returns a handle on admission, or an explicit
    /// [`Rejection`] (validation failure / queue full) without blocking.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, Rejection> {
        // The service-wide default counts as the spec's own timeout, so it
        // lifts the iteration budget `validate` puts on untimed specs.
        if spec.timeout_ms.is_none() {
            spec.timeout_ms = self.shared.default_timeout_ms;
        }
        if let Err(msg) = spec.validate() {
            self.shared.sched.lock().unwrap().stats.rejected_invalid += 1;
            return Err(Rejection::Invalid(msg));
        }
        let now = Instant::now();
        let deadline = spec.timeout_ms.map(|ms| now + Duration::from_millis(ms));
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(JobCell {
            slot: Mutex::new(None),
            done_cv: Condvar::new(),
            cancel: Arc::new(Cancel::new(deadline)),
        });
        {
            let mut sched = self.shared.sched.lock().unwrap();
            if sched.shutdown {
                sched.stats.rejected_invalid += 1;
                return Err(Rejection::Invalid("service is shut down".into()));
            }
            if sched.queued >= self.shared.queue_capacity {
                sched.stats.rejected_queue_full += 1;
                return Err(Rejection::QueueFull {
                    capacity: self.shared.queue_capacity,
                });
            }
            let vtime = sched.vtime;
            let tenant = sched
                .tenants
                .entry(spec.tenant.clone())
                .or_insert_with(|| Tenant {
                    weight: spec.weight.max(1) as u64,
                    pass: vtime,
                    queue: VecDeque::new(),
                });
            if tenant.queue.is_empty() {
                // Re-activation: idling must not bank credit.
                tenant.pass = tenant.pass.max(vtime);
            }
            tenant.queue.push_back(QueuedJob {
                id,
                spec,
                cell: Arc::clone(&cell),
                submitted: now,
            });
            sched.queued += 1;
            sched.stats.submitted += 1;
        }
        self.shared.work_cv.notify_one();
        Ok(JobHandle { id, cell })
    }

    /// Counters so far.
    pub fn stats(&self) -> ServiceStats {
        self.shared.sched.lock().unwrap().stats
    }

    /// Jobs currently queued (excluding running).
    pub fn queued(&self) -> usize {
        self.shared.sched.lock().unwrap().queued
    }

    /// Drain queued jobs, stop the workers, and join them.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut sched = self.shared.sched.lock().unwrap();
            sched.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Pick the next job: the non-empty tenant with the smallest
/// `(pass, name)`, FIFO within the tenant.
fn pick_next(sched: &mut Sched) -> Option<QueuedJob> {
    let name = sched
        .tenants
        .iter()
        .filter(|(_, t)| !t.queue.is_empty())
        .min_by(|(an, a), (bn, b)| a.pass.cmp(&b.pass).then_with(|| an.cmp(bn)))
        .map(|(n, _)| n.clone())?;
    let tenant = sched.tenants.get_mut(&name).unwrap();
    let job = tenant.queue.pop_front().unwrap();
    sched.vtime = tenant.pass;
    tenant.pass += STRIDE_UNIT / tenant.weight;
    sched.queued -= 1;
    Some(job)
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if let Some(job) = pick_next(&mut sched) {
                    break Some(job);
                }
                if sched.shutdown {
                    break None;
                }
                sched = shared.work_cv.wait(sched).unwrap();
            }
        };
        let Some(job) = job else { return };
        run_one(shared, job);
    }
}

/// Execute one dispatched job with panic isolation and classify the
/// outcome.
fn run_one(shared: &Shared, job: QueuedJob) {
    let dispatched = Instant::now();
    let queue_ms = dispatched.duration_since(job.submitted).as_secs_f64() * 1e3;
    let cancel = &job.cell.cancel;

    let (status, error, outcome) = if cancel.stopped(dispatched) {
        // Resolved before running: out of time or cancelled while queued.
        let status = if cancel.timed_out(dispatched) {
            JobStatus::TimedOut
        } else {
            JobStatus::Cancelled
        };
        (status, None, None)
    } else {
        let run = || execute(&job.spec, Some(Arc::clone(cancel)));
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(outcome) => (JobStatus::Completed, None, Some(outcome)),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if msg == CANCEL_PANIC {
                    let status = if cancel.timed_out(Instant::now()) {
                        JobStatus::TimedOut
                    } else {
                        JobStatus::Cancelled
                    };
                    (status, None, None)
                } else {
                    (JobStatus::Panicked, Some(msg), None)
                }
            }
        }
    };
    let finished = Instant::now();
    let run_ms = finished.duration_since(dispatched).as_secs_f64() * 1e3;
    let total_ms = finished.duration_since(job.submitted).as_secs_f64() * 1e3;

    let result = JobResult {
        schema_version: detsim::SCHEMA_VERSION,
        job_id: job.id,
        tenant: job.spec.tenant.clone(),
        digest: job.spec.digest(),
        status,
        error,
        queue_ms,
        run_ms,
        total_ms,
        per_iter_s: outcome
            .as_ref()
            .map(|o| o.per_iter.clone())
            .unwrap_or_default(),
        mean_s: outcome.as_ref().map(|o| o.mean).unwrap_or(0.0),
        elapsed_virtual_ps: outcome.as_ref().map(|o| o.elapsed_virtual_ps).unwrap_or(0),
        spec: job.spec,
        metrics_json: outcome.and_then(|o| o.metrics).map(|m| m.to_json()),
    };

    if let Some(store) = &shared.store {
        if let Err(e) = store.append(&result) {
            eprintln!("svc: result store append failed: {e}");
        }
    }
    {
        let stats = &mut shared.sched.lock().unwrap().stats;
        match status {
            JobStatus::Completed => stats.completed += 1,
            JobStatus::Cancelled => stats.cancelled += 1,
            JobStatus::TimedOut => stats.timed_out += 1,
            JobStatus::Panicked => stats.panicked += 1,
        }
    }
    let mut slot = job.cell.slot.lock().unwrap();
    *slot = Some(result);
    job.cell.done_cv.notify_all();
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterPreset;

    fn enqueue(sched: &mut Sched, tenant: &str, weight: u64, id: u64) {
        let vtime = sched.vtime;
        let t = sched
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                weight,
                pass: vtime,
                queue: VecDeque::new(),
            });
        if t.queue.is_empty() {
            t.pass = t.pass.max(vtime);
        }
        t.queue.push_back(QueuedJob {
            id,
            spec: JobSpec::new(tenant, ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]),
            cell: Arc::new(JobCell {
                slot: Mutex::new(None),
                done_cv: Condvar::new(),
                cancel: Arc::new(Cancel::new(None)),
            }),
            submitted: Instant::now(),
        });
        sched.queued += 1;
    }

    #[test]
    fn stride_dispatch_is_weighted_fair() {
        let mut sched = Sched::default();
        // Tenant "a" has twice the weight of "b"; submit 9 jobs each.
        for i in 0..9 {
            enqueue(&mut sched, "a", 2, 100 + i);
            enqueue(&mut sched, "b", 1, 200 + i);
        }
        let mut first_six = Vec::new();
        for _ in 0..6 {
            first_six.push(pick_next(&mut sched).unwrap().spec.tenant.clone());
        }
        let a_count = first_six.iter().filter(|t| *t == "a").count();
        assert_eq!(
            a_count, 4,
            "weight-2 tenant should get 2/3 of early dispatches: {first_six:?}"
        );
        // Drain fully; FIFO within each tenant.
        let mut a_ids = Vec::new();
        while let Some(job) = pick_next(&mut sched) {
            if job.spec.tenant == "a" {
                a_ids.push(job.id);
            }
        }
        let mut sorted = a_ids.clone();
        sorted.sort_unstable();
        assert_eq!(a_ids, sorted, "FIFO within tenant");
        assert_eq!(sched.queued, 0);
    }

    #[test]
    fn idle_tenant_banks_no_credit() {
        let mut sched = Sched::default();
        // "busy" works alone for a while, advancing virtual time.
        for i in 0..8 {
            enqueue(&mut sched, "busy", 1, i);
        }
        for _ in 0..8 {
            pick_next(&mut sched).unwrap();
        }
        // "idle" (registered long ago at pass 0 conceptually) submits now:
        // its pass is clamped to vtime, so it must not monopolize.
        enqueue(&mut sched, "idle", 1, 100);
        enqueue(&mut sched, "idle", 1, 101);
        enqueue(&mut sched, "busy", 1, 8);
        enqueue(&mut sched, "busy", 1, 9);
        let order: Vec<String> = std::iter::from_fn(|| pick_next(&mut sched))
            .map(|j| j.spec.tenant.clone())
            .collect();
        // Interleaved, not idle-idle-busy-busy: equal weights means no
        // tenant is dispatched twice in a row while the other waits.
        assert_eq!(order.len(), 4);
        assert!(
            order.windows(2).all(|w| w[0] != w[1]),
            "re-activated tenant must not drain first: {order:?}"
        );
    }

    #[test]
    fn rejection_display_is_informative() {
        let r = Rejection::QueueFull { capacity: 4 };
        assert_eq!(r.to_string(), "queue full (capacity 4)");
        let r = Rejection::Invalid("bad domain".into());
        assert!(r.to_string().contains("bad domain"));
    }
}

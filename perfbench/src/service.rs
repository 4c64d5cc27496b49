//! Calls into the job service, timed from the client side: every job goes
//! in as JSON wire text through `JobSpec::from_json` and
//! `Service::submit`, and is timed until its `JobResult` is available.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use svc::{JobResult, JobSpec, JobStatus, ResultStore, Service, ServiceConfig};

use crate::report::Report;
use crate::stats::{median, Lcg};
use crate::trace::Tracer;
use crate::world::ms;

/// Client-side marks of one job.
#[derive(Clone, Debug)]
pub struct JobRec {
    /// Index of the job's template.
    pub template: usize,
    /// When the job was due to be sent.
    pub due: Instant,
    /// When the generator started sending it (parse start).
    pub sent: Instant,
    /// `JobSpec::from_json` returned, `Service::submit` called.
    pub parsed: Instant,
    /// `Service::submit` returned.
    pub submitted: Instant,
    /// The result became available to the client.
    pub available: Instant,
    /// The service's result.
    pub result: JobResult,
}

impl JobRec {
    /// Due to result available, ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.due, self.available)
    }

    /// Everything from the submit call to the result outside the
    /// service's own `total_ms`: validation before it, then the store
    /// append, the completion notify and the client's wake-up.
    /// (`total_ms − queue_ms − run_ms` is zero by construction: the
    /// service derives all three from the same two instants.)
    pub fn finish_ms(&self) -> f64 {
        (ms(self.parsed, self.available) - self.result.total_ms).max(0.0)
    }
}

/// A set of jobs and the wall time they took.
#[derive(Default)]
pub struct Pass {
    /// Jobs in submission order (rejected or unparsable jobs are absent).
    pub jobs: Vec<JobRec>,
    /// Wall time of the pass, ms.
    pub wall_ms: f64,
}

impl Pass {
    /// Append another pass of the same kind.
    pub fn extend(&mut self, other: Pass) {
        self.jobs.extend(other.jobs);
        self.wall_ms += other.wall_ms;
    }
}

/// A one-worker service persisting to `store`.
pub fn start(store: Option<ResultStore>) -> Service {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        default_timeout_ms: None,
    };
    match store {
        Some(s) => Service::with_store(config, s),
        None => Service::new(config),
    }
}

/// Parse and submit one wire-text job. Failures are recorded in `report`.
fn send(
    service: &Service,
    text: &str,
    collect_metrics: bool,
    report: &mut Report,
) -> Option<(Instant, Instant, svc::JobHandle)> {
    report.attempted += 1;
    let spec = match JobSpec::from_json(text) {
        Ok(s) => s.collect_metrics(collect_metrics),
        Err(e) => {
            report.fail(format!("wire spec did not parse: {e}"));
            return None;
        }
    };
    let parsed = Instant::now();
    match service.submit(spec) {
        Ok(h) => Some((parsed, Instant::now(), h)),
        Err(e) => {
            report.fail(format!("job rejected: {e}"));
            None
        }
    }
}

/// Wait for a job's result. The metrics JSON a traced job carries is
/// dropped: the per-layer counts come from the replay, and thousands of
/// kept registry snapshots would dominate the process's memory.
fn receive(h: &svc::JobHandle) -> JobResult {
    let mut r = h.wait();
    r.metrics_json = None;
    r
}

/// Record a finished job's outcome.
fn settle(report: &mut Report, rec: &JobRec) {
    let r = &rec.result;
    if r.status != JobStatus::Completed {
        report.fail(format!(
            "job {} ({}) ended {}: {:?}",
            r.job_id,
            r.tenant,
            r.status.as_str(),
            r.error
        ));
    }
}

/// Closed loop with one client: each job from `order` is sent as soon as
/// the previous result arrived, until `order` ends or `until` passes.
/// The worker never idles between jobs.
pub fn closed_loop(
    service: &Service,
    texts: &[String],
    order: impl Iterator<Item = usize>,
    until: Option<Instant>,
    collect_metrics: bool,
    report: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass::default();
    for template in order {
        if until.is_some_and(|u| Instant::now() >= u) {
            break;
        }
        let sent = Instant::now();
        if let Some((parsed, submitted, h)) =
            send(service, &texts[template], collect_metrics, report)
        {
            let result = receive(&h);
            let rec = JobRec {
                template,
                due: sent,
                sent,
                parsed,
                submitted,
                available: Instant::now(),
                result,
            };
            settle(report, &rec);
            pass.jobs.push(rec);
        }
    }
    pass.wall_ms = ms(t0, Instant::now());
    pass
}

/// Open loop: jobs from `seq` sent at exponential gaps with mean
/// `1 / rate`, each timed from when it was due, for `dur`.
pub fn open_loop(
    service: &Service,
    texts: &[String],
    seq: &mut impl Iterator<Item = usize>,
    rng: &mut Lcg,
    rate: f64,
    dur: Duration,
    report: &mut Report,
) -> Pass {
    let recs = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let end = t0 + dur;
        let mut due = t0;
        while due < end {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let template = seq.next().expect("endless sequence");
            if let Some((parsed, submitted, h)) = send(service, &texts[template], false, report) {
                let recs = &recs;
                s.spawn(move || {
                    let result = receive(&h);
                    let available = Instant::now();
                    recs.lock().expect("records poisoned").push(JobRec {
                        template,
                        due,
                        sent,
                        parsed,
                        submitted,
                        available,
                        result,
                    });
                });
            }
            due += Duration::from_secs_f64(rng.exp(1.0 / rate));
        }
    });
    let mut jobs = recs.into_inner().expect("records poisoned");
    jobs.sort_by_key(|r| r.due);
    for r in &jobs {
        settle(report, r);
    }
    Pass {
        jobs,
        wall_ms: ms(t0, Instant::now()),
    }
}

/// Burst: keep `window` jobs outstanding (the queue never runs dry) for
/// `dur`; returns completed jobs per wall second inside `dur`.
pub fn burst(
    service: &Service,
    texts: &[String],
    seq: &mut impl Iterator<Item = usize>,
    window: usize,
    dur: Duration,
    report: &mut Report,
) -> (f64, usize) {
    let (tx, rx) = mpsc::channel::<JobRec>();
    let start = Instant::now();
    let deadline = start + dur;
    let mut finished = Vec::new();
    std::thread::scope(|s| {
        let mut outstanding = 0usize;
        let mut submit = |report: &mut Report| {
            let template = seq.next().expect("endless sequence");
            let sent = Instant::now();
            if let Some((parsed, submitted, h)) = send(service, &texts[template], false, report) {
                let tx = tx.clone();
                s.spawn(move || {
                    let result = receive(&h);
                    let _ = tx.send(JobRec {
                        template,
                        due: sent,
                        sent,
                        parsed,
                        submitted,
                        available: Instant::now(),
                        result,
                    });
                });
                true
            } else {
                false
            }
        };
        for _ in 0..window {
            outstanding += usize::from(submit(report));
        }
        while outstanding > 0 {
            let rec = rx.recv().expect("a waiter is outstanding");
            outstanding -= 1;
            if Instant::now() < deadline {
                outstanding += usize::from(submit(report));
            }
            finished.push(rec);
        }
    });
    for r in &finished {
        settle(report, r);
    }
    let inside = finished.iter().filter(|r| r.available <= deadline).count();
    (inside as f64 / dur.as_secs_f64(), inside)
}

/// Client-side spans of one job, all carrying its id.
pub fn job_spans(tracer: &Tracer, rec: &JobRec, parent: u64) {
    let r = &rec.result;
    let id = Some(r.job_id);
    let job = tracer.span("svc.job", parent, rec.due, rec.available, id);
    tracer.span("svc.gen_late", job, rec.due, rec.sent, id);
    tracer.span("svc.parse", job, rec.sent, rec.parsed, id);
    tracer.span("svc.submit", job, rec.parsed, rec.submitted, id);
    // Service-side phases, placed on the client's clock from the
    // service's own durations.
    let d = |ms: f64| Duration::from_secs_f64(ms.max(0.0) / 1e3);
    let queued = rec.submitted;
    let dispatched = queued + d(r.queue_ms);
    let finished = dispatched + d(r.run_ms);
    tracer.span("svc.queue", job, queued, dispatched, id);
    tracer.span("svc.run", job, dispatched, finished, id);
    tracer.span(
        "svc.finish",
        job,
        finished.min(rec.available),
        rec.available,
        id,
    );
}

/// `svc.*` layer metrics of a pass: medians per job, and the worker's
/// busy fraction (Σ `run_ms` / wall).
pub fn layer_metrics(report: &mut Report, pass: &Pass) {
    let done = &pass.jobs;
    let n = done.len();
    let of = |f: &dyn Fn(&JobRec) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    report.layer("svc.parse_us", "us", of(&|r| ms(r.sent, r.parsed) * 1e3), n);
    report.layer(
        "svc.submit_us",
        "us",
        of(&|r| ms(r.parsed, r.submitted) * 1e3),
        n,
    );
    report.layer("svc.queue_ms", "ms", of(&|r| r.result.queue_ms), n);
    report.layer("svc.run_ms", "ms", of(&|r| r.result.run_ms), n);
    report.layer("svc.finish_ms", "ms", of(&|r| r.finish_ms()), n);
    let busy: f64 = done.iter().map(|r| r.result.run_ms).sum();
    report.layer("svc.busy_frac", "ratio", busy / pass.wall_ms.max(1e-9), n);
    let mut tenants: Vec<&str> = done.iter().map(|r| r.result.tenant.as_str()).collect();
    tenants.sort_unstable();
    tenants.dedup();
    for t in tenants {
        let runs: Vec<f64> = done
            .iter()
            .map(|r| &r.result)
            .filter(|x| x.tenant == t)
            .map(|x| x.run_ms)
            .collect();
        report.extra(&format!("svc.run_ms.{t}"), "ms", median(&runs), runs.len());
    }
}

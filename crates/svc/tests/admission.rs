//! Admission control, timeout/cancellation, and panic isolation — the
//! service's failure-handling contract.

use svc::{ClusterPreset, JobSpec, JobStatus, Rejection, Service, ServiceConfig};

fn tiny(tenant: &str) -> JobSpec {
    JobSpec::new(tenant, ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]).iters(2)
}

/// A workload slow enough (in wall-clock) to still be running or queued
/// when we act on it: big domain, many iterations.
fn slow(tenant: &str) -> JobSpec {
    JobSpec::new(
        tenant,
        ClusterPreset::Summit { nodes: 2 },
        6,
        [384, 384, 384],
    )
    .iters(50)
}

#[test]
fn queue_full_is_an_explicit_rejection() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        default_timeout_ms: None,
    });
    // Block the single worker with a slow job, then fill the queue.
    let blocker = service.submit(slow("blocker")).expect("blocker admitted");
    let mut queued = Vec::new();
    let mut rejections = 0;
    // Submit well past capacity; everything beyond the bound must be
    // rejected with QueueFull, not dropped or blocked.
    for i in 0..12 {
        match service.submit(tiny(&format!("t{i}"))) {
            Ok(h) => queued.push(h),
            Err(Rejection::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejections += 1;
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert!(rejections > 0, "queue bound never hit");
    assert!(queued.len() <= 2 + 1, "queue overflowed its bound");
    blocker.cancel();
    for h in queued {
        h.wait();
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected_queue_full, rejections);
}

#[test]
fn invalid_spec_is_rejected_before_queueing() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        default_timeout_ms: None,
    });
    // 5 ranks do not divide Summit's 6 GPUs per node.
    let bad = JobSpec::new("t", ClusterPreset::Summit { nodes: 1 }, 5, [64, 64, 64]);
    match service.submit(bad) {
        Err(Rejection::Invalid(msg)) => assert!(!msg.is_empty()),
        Err(other) => panic!("expected Invalid, got {other:?}"),
        Ok(_) => panic!("invalid spec was admitted"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(stats.submitted, 0);
}

#[test]
fn timeout_cancels_a_running_job() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        default_timeout_ms: None,
    });
    let h = service.submit(slow("t").timeout_ms(50)).expect("admitted");
    let r = h.wait();
    assert_eq!(r.status, JobStatus::TimedOut, "error: {:?}", r.error);
    assert!(r.error.is_none(), "timeout is not an error: {:?}", r.error);
    // The pool survives and serves the next job normally.
    let r2 = service.submit(tiny("after")).expect("admitted").wait();
    assert_eq!(r2.status, JobStatus::Completed);
    let stats = service.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn timeout_resolves_a_queued_job_without_running() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        default_timeout_ms: None,
    });
    let blocker = service.submit(slow("blocker")).expect("admitted");
    let queued = service
        .submit(tiny("late").timeout_ms(1))
        .expect("admitted");
    // The queued job's deadline passes while the blocker holds the worker.
    std::thread::sleep(std::time::Duration::from_millis(20));
    blocker.cancel();
    assert_eq!(blocker.wait().status, JobStatus::Cancelled);
    let r = queued.wait();
    assert_eq!(r.status, JobStatus::TimedOut);
    assert!(r.per_iter_s.is_empty(), "a timed-out queued job never ran");
    assert_eq!(r.elapsed_virtual_ps, 0);
    assert_eq!(r.error, None);
    let stats = service.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.cancelled, 1);
}

#[test]
fn explicit_cancel_resolves_queued_and_running_jobs() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        default_timeout_ms: None,
    });
    let running = service.submit(slow("a")).expect("admitted");
    let queued = service.submit(tiny("b")).expect("admitted");
    queued.cancel();
    running.cancel();
    assert_eq!(running.wait().status, JobStatus::Cancelled);
    assert_eq!(queued.wait().status, JobStatus::Cancelled);
    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 2);
}

#[test]
fn panicked_world_is_isolated_and_the_pool_survives() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        default_timeout_ms: None,
    });
    // A poisoned world in the middle of healthy neighbors.
    let before: Vec<_> = (0..3)
        .map(|i| service.submit(tiny(&format!("b{i}"))).unwrap())
        .collect();
    let poisoned = service
        .submit(tiny("poison").poison_at_iter(1))
        .expect("admitted");
    let after: Vec<_> = (0..3)
        .map(|i| service.submit(tiny(&format!("a{i}"))).unwrap())
        .collect();

    let r = poisoned.wait();
    assert_eq!(r.status, JobStatus::Panicked);
    let msg = r.error.expect("panicked result carries the message");
    assert!(msg.contains("poisoned world"), "unexpected payload: {msg}");
    assert!(r.per_iter_s.is_empty(), "no measurements from a dead world");

    for h in before.iter().chain(after.iter()) {
        assert_eq!(h.wait().status, JobStatus::Completed);
    }
    let stats = service.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 6);
}

#[test]
fn weighted_tenants_share_the_pool_fairly() {
    // One worker, jobs queued behind a blocker: dispatch order is pure
    // scheduler policy. A weight-3 tenant should finish its backlog ~3x
    // as fast as a weight-1 tenant under contention.
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        default_timeout_ms: None,
    });
    let blocker = service.submit(slow("zz-blocker")).expect("admitted");
    let heavy: Vec<_> = (0..6)
        .map(|_| service.submit(tiny("heavy").weight(3)).unwrap())
        .collect();
    let light: Vec<_> = (0..6)
        .map(|_| service.submit(tiny("light").weight(1)).unwrap())
        .collect();
    blocker.cancel();
    let heavy_results: Vec<_> = heavy.iter().map(|h| h.wait()).collect();
    let light_results: Vec<_> = light.iter().map(|h| h.wait()).collect();
    service.shutdown();
    // Queue delay measures dispatch order: the heavy tenant's mean wait
    // must be clearly below the light tenant's.
    let mean = |rs: &[svc::JobResult]| rs.iter().map(|r| r.queue_ms).sum::<f64>() / rs.len() as f64;
    let heavy_wait = mean(&heavy_results);
    let light_wait = mean(&light_results);
    assert!(
        heavy_wait < light_wait,
        "weight-3 tenant should wait less: heavy {heavy_wait:.1} ms vs light {light_wait:.1} ms"
    );
}

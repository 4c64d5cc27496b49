//! The service's critical correctness property: a job's committed
//! virtual times and metrics are **bit-identical** whether the job runs
//! alone or alongside a saturated pool of neighbors, on any worker
//! count. Each simulated world is single-threaded-deterministic and
//! shares nothing with its neighbors, so OS-level scheduling of the
//! worker pool must never leak into results.

use svc::{ClusterPreset, FaultScenario, JobResult, JobSpec, Service, ServiceConfig};

/// The probe workload whose bits we compare across pool conditions.
fn probe() -> JobSpec {
    JobSpec::new("probe", ClusterPreset::Summit { nodes: 1 }, 6, [96, 96, 96])
        .iters(3)
        .collect_metrics(true)
}

/// Neighbor workloads that saturate the pool around the probe — a mix of
/// shapes, placements, consolidation, metrics and injected faults.
fn neighbors() -> Vec<JobSpec> {
    vec![
        JobSpec::new(
            "n1",
            ClusterPreset::Workstation { gpus: 2 },
            2,
            [64, 64, 64],
        )
        .iters(2),
        JobSpec::new("n2", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96])
            .cuda_aware(true)
            .iters(2),
        JobSpec::new("n3", ClusterPreset::Dgx { nodes: 1 }, 8, [96, 96, 96])
            .placement(stencil_core::PlacementStrategy::Hierarchical)
            .iters(2),
        JobSpec::new("n4", ClusterPreset::Summit { nodes: 1 }, 6, [64, 64, 64])
            .faults(FaultScenario::StragglerGpu {
                device: 1,
                at_us: 0,
                speed_factor: 0.5,
            })
            .iters(2),
        JobSpec::new("n5", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96])
            .faults(FaultScenario::FlappingNic {
                node: 0,
                first_down_us: 100,
                down_us: 500,
                up_us: 250,
                flaps: 3,
            })
            .iters(4),
        JobSpec::new(
            "n6",
            ClusterPreset::Fat {
                nodes: 1,
                sockets: 2,
                islands_per_socket: 2,
                gpus_per_island: 2,
            },
            8,
            [96, 96, 96],
        )
        .consolidate(true)
        .placement(stencil_core::PlacementStrategy::GreedySwap)
        .collect_metrics(true)
        .iters(2),
    ]
}

fn run_solo() -> JobResult {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        default_timeout_ms: None,
    });
    let r = service.submit(probe()).expect("admitted").wait();
    service.shutdown();
    r
}

/// Run the probe amid `63` neighbor jobs on `workers` workers and return
/// the probe's result. Every neighbor repeats, and each repeat must match
/// that neighbor's first run bit for bit.
fn run_saturated(workers: usize) -> JobResult {
    let service = Service::new(ServiceConfig {
        workers,
        queue_capacity: 128,
        default_timeout_ms: None,
    });
    let mut handles = Vec::new();
    let pool = neighbors();
    // 32 neighbors in front, the probe, then 31 behind.
    for i in 0..32 {
        let k = i % pool.len();
        handles.push((k, service.submit(pool[k].clone()).unwrap()));
    }
    let probe_handle = service.submit(probe()).expect("probe admitted");
    for i in 0..31 {
        let k = i % pool.len();
        handles.push((k, service.submit(pool[k].clone()).unwrap()));
    }
    let r = probe_handle.wait();
    let mut first: Vec<Option<JobResult>> = pool.iter().map(|_| None).collect();
    for (k, h) in handles {
        let n = h.wait();
        assert_eq!(
            n.status,
            svc::JobStatus::Completed,
            "neighbor failed: {:?}",
            n.error
        );
        match &first[k] {
            Some(f) => assert_same_bits(f, &n, &format!("neighbor {} repeat", pool[k].tenant)),
            None => first[k] = Some(n),
        }
    }
    service.shutdown();
    r
}

fn assert_same_bits(a: &JobResult, b: &JobResult, what: &str) {
    assert_eq!(
        a.elapsed_virtual_ps, b.elapsed_virtual_ps,
        "{what}: final virtual time diverged"
    );
    let a_bits: Vec<u64> = a.per_iter_s.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u64> = b.per_iter_s.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: per-iteration bits diverged");
    assert_eq!(a.metrics_json, b.metrics_json, "{what}: metrics diverged");
    assert!(a.bit_identical(b), "{what}: bit_identical() disagrees");
}

#[test]
fn solo_vs_saturated_pool_is_bit_identical() {
    let solo = run_solo();
    assert_eq!(solo.status, svc::JobStatus::Completed);
    assert!(solo.metrics_json.is_some(), "probe asked for metrics");
    let saturated = run_saturated(4);
    assert_eq!(saturated.status, svc::JobStatus::Completed);
    assert_same_bits(&solo, &saturated, "solo vs 63-neighbor pool");
}

#[test]
fn worker_count_never_changes_results() {
    let one = run_saturated(1);
    let four = run_saturated(4);
    let sixteen = run_saturated(16);
    assert_same_bits(&one, &four, "1 vs 4 workers");
    assert_same_bits(&four, &sixteen, "4 vs 16 workers");
}

#[test]
fn partitioned_transport_deterministic_across_worker_counts() {
    // Partitioned channels add per-partition flow completions; their
    // arrival order must be a function of virtual time only, never of the
    // worker pool driving the jobs.
    let spec = JobSpec::new("ptn", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96])
        .methods(
            stencil_core::Methods::all()
                .with_persistent()
                .with_partitioned(),
        )
        .iters(3)
        .collect_metrics(true);
    let run = |workers: usize| {
        let service = Service::new(ServiceConfig {
            workers,
            queue_capacity: 4,
            default_timeout_ms: None,
        });
        let r = service.submit(spec.clone()).expect("admitted").wait();
        service.shutdown();
        r
    };
    let one = run(1);
    assert_eq!(one.status, svc::JobStatus::Completed, "{:?}", one.error);
    let eight = run(8);
    assert_same_bits(&one, &eight, "partitioned probe, 1 vs 8 workers");
}

#[test]
fn kill_respawn_deterministic_across_worker_counts() {
    // The full rank-failure recovery — kill, channel revocation, respawn,
    // re-handshake, measured exchanges on the rejoined world — must be a
    // function of virtual time only: bit-identical whether the job runs
    // on one worker or races seven neighbors.
    let spec = JobSpec::new("kr", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96])
        .faults(FaultScenario::KillRespawn {
            rank: 4,
            at_us: 50,
            down_us: 300,
        })
        .iters(3)
        .collect_metrics(true);
    let run = |workers: usize| {
        let service = Service::new(ServiceConfig {
            workers,
            queue_capacity: 16,
            default_timeout_ms: None,
        });
        let mut handles = Vec::new();
        for i in 0..(workers.saturating_sub(1)) {
            handles.push(service.submit(neighbors()[i % 4].clone()).unwrap());
        }
        let r = service.submit(spec.clone()).expect("admitted").wait();
        for h in handles {
            h.wait();
        }
        service.shutdown();
        r
    };
    let one = run(1);
    assert_eq!(one.status, svc::JobStatus::Completed, "{:?}", one.error);
    let eight = run(8);
    assert_same_bits(&one, &eight, "kill-respawn probe, 1 vs 8 workers");
}

#[test]
fn digest_groups_the_same_workload_across_tenants() {
    // Tenant and weight are scheduling attributes, not workload: the same
    // geometry submitted by two tenants lands in one digest group and
    // must agree bit-for-bit.
    let a = JobSpec::new("alice", ClusterPreset::Summit { nodes: 1 }, 6, [96, 96, 96]).weight(4);
    let b = JobSpec::new("bob", ClusterPreset::Summit { nodes: 1 }, 6, [96, 96, 96]).weight(1);
    assert_eq!(a.digest(), b.digest());
    let service = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        default_timeout_ms: None,
    });
    let ra = service.submit(a).unwrap().wait();
    let rb = service.submit(b).unwrap().wait();
    service.shutdown();
    assert!(ra.bit_identical(&rb));
}

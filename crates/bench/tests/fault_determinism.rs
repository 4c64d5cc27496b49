//! Fault schedules are explicit event tables in virtual time — no RNG —
//! so a faulted run is exactly as deterministic as a clean one.

use svc::{ClusterPreset, FaultScenario, JobSpec, RunOutcome};

fn faulted_config() -> JobSpec {
    JobSpec::new("bench", ClusterPreset::Summit { nodes: 2 }, 6, [472; 3])
        .iters(4)
        .faults(FaultScenario::Cascading {
            node: 0,
            a: 0,
            b: 1,
            device: 2,
            at_us: 100,
            spacing_us: 300,
        })
}

#[test]
fn faulted_runs_are_bit_identical_across_runs() {
    let a = svc::execute(&faulted_config(), None);
    let b = svc::execute(&faulted_config(), None);
    let bits = |r: &RunOutcome| -> Vec<u64> { r.per_iter.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(&a),
        bits(&b),
        "identical fault schedules must give bit-identical virtual times"
    );

    // And the schedule actually does something: the same config without
    // faults completes faster.
    let clean = svc::execute(
        &JobSpec::new("bench", ClusterPreset::Summit { nodes: 2 }, 6, [472; 3]).iters(4),
        None,
    );
    assert!(
        a.mean > clean.mean,
        "cascading faults should slow the exchange: clean {:.3e} s vs faulted {:.3e} s",
        clean.mean,
        a.mean
    );
}

/// The rank-lifecycle machinery (failure epochs, revocation checks, the
/// alive-count barrier release) must leave faults-off worlds untouched.
/// These per-iteration bits were captured before any of it existed; a
/// drift here means the resilience layer taxed the common case.
#[test]
fn faults_off_worlds_match_pre_resilience_golden_bits() {
    const STAGED_2N: [u64; 3] = [0x3f50e943cb89048a, 0x3f50e943cb890488, 0x3f50e943cb89048a];
    let r = svc::execute(
        &JobSpec::new("bench", ClusterPreset::Summit { nodes: 2 }, 6, [472; 3]).iters(3),
        None,
    );
    let bits: Vec<u64> = r.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        STAGED_2N.to_vec(),
        "2-node staged faults-off world drifted from the pre-resilience pin"
    );

    const CUDA_AWARE_1N: [u64; 2] = [0x3f39f3c89f0542e0, 0x3f39f3c89f0542e0];
    let r = svc::execute(
        &JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, 6, [256; 3])
            .iters(2)
            .cuda_aware(true),
        None,
    );
    let bits: Vec<u64> = r.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        CUDA_AWARE_1N.to_vec(),
        "1-node CUDA-aware faults-off world drifted from the pre-resilience pin"
    );
}

#[test]
fn metrics_do_not_perturb_faulted_virtual_times() {
    let plain = svc::execute(&faulted_config(), None);
    let metered = svc::execute(&faulted_config().collect_metrics(true), None);
    let pb: Vec<u64> = plain.per_iter.iter().map(|v| v.to_bits()).collect();
    let mb: Vec<u64> = metered.per_iter.iter().map(|v| v.to_bits()).collect();
    assert_eq!(pb, mb, "metrics-on faulted run diverged");
    let report = metered.metrics.expect("metrics requested");
    assert!(
        report.to_json().contains("\"faultsim\""),
        "fault transitions should be visible in the metrics artifact"
    );
}

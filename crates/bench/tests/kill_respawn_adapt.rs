//! Acceptance test for elastic recovery from rank failure (the `chaos`
//! bench's `kill-respawn` scenario, pinned down as assertions).
//!
//! Two Summit nodes, six ranks. Mid-run, one correlated fault: rank 4
//! dies, node 1's busiest placed NVLink drops to 2% of nominal, and the
//! inter-node switch to 70%. The rank respawns 300 virtual µs later with
//! its device data gone and rejoins over re-handshaked channels; the
//! placement is now wrong for the degraded fabric. Four runs of the
//! identical fault:
//!
//! * **no adaptation** — rejoin, keep the stale placement;
//! * **stop-the-world adaptation** — global re-probe/re-solve, serial
//!   migration behind entry/exit barriers;
//! * **overlapped adaptation** — per-link localization finds node 1,
//!   only its QAP is re-solved, migration overlaps staging and sends;
//! * **fresh-optimal** — built from scratch against the degraded fabric:
//!   the recovery target.
//!
//! The contract: overlapped partial re-placement recovers exchange time
//! to within 10% of fresh-optimal, not adapting is measurably worse, and
//! the stop-the-world reaction costs measurably more downtime than the
//! overlapped one.

use stencil_bench::chaos::{AdaptScenario, Arm, ArmRun};

const DOMAIN: [u64; 3] = [720, 726, 350];
const WARMUP: usize = 3;
const MEASURE: usize = 3;

/// `(healthy_mean, steady_mean, migrate_secs)` bit patterns and
/// `adapted_node` per arm, in `NoAdapt`, `StopTheWorld`, `Overlapped`,
/// `FreshOptimal` order. Captured before the recovery
/// worlds placed themselves; any drift means the scenario's placement,
/// probes, allocations or rejoin changed.
type RecoveryPin = ((u64, u64, u64), Option<Option<usize>>);
const RECOVERY_PINS: [RecoveryPin; 4] = [
    ((0x3f58b40963778813, 0x3f6499b3228a4c28, 0), None),
    (
        (0x3f58b40963778813, 0x3f5d66f2abb1a040, 0x3fbbbc09c65270e0),
        Some(None),
    ),
    (
        (0x3f58b40963778813, 0x3f5d5cef1b510ec0, 0x3fb813afe70e66cc),
        Some(Some(1)),
    ),
    ((0x3f5d66f2abb1a00b, 0x3f5d66f2abb1a00b, 0), None),
];

fn pin_of(r: &ArmRun) -> RecoveryPin {
    (
        (
            r.healthy_mean.to_bits(),
            r.steady_mean.to_bits(),
            r.migrate_secs.to_bits(),
        ),
        r.adapted_node,
    )
}

#[test]
fn overlapped_recovery_beats_stop_the_world_and_no_adapt() {
    let scenario = AdaptScenario::kill_respawn(DOMAIN, false);
    let [no_adapt, stw, ovl, fresh] = [
        Arm::NoAdapt,
        Arm::StopTheWorld,
        Arm::Overlapped,
        Arm::FreshOptimal,
    ]
    .map(|arm| scenario.run(arm, WARMUP, MEASURE));
    assert_eq!(
        [&no_adapt, &stw, &ovl, &fresh].map(pin_of),
        RECOVERY_PINS,
        "kill-respawn: pinned bits or adapted node drifted"
    );

    assert!(
        no_adapt.adapted_node.is_none(),
        "the control arm must not adapt"
    );
    assert!(
        stw.adapted_node.is_some(),
        "stop-the-world arm failed to trigger"
    );
    assert!(
        ovl.adapted_node.is_some(),
        "overlapped arm failed to trigger"
    );
    assert_eq!(
        ovl.adapted_node,
        Some(Some(1)),
        "localization should re-solve exactly node 1 (the degraded one)"
    );
    assert_eq!(
        stw.adapted_node,
        Some(None),
        "the global-scope arm should re-solve globally"
    );

    // The correlated fault bites: the stale placement is much slower than
    // the pre-fault baseline.
    assert!(
        no_adapt.steady_mean > 1.5 * no_adapt.healthy_mean,
        "degradation had no bite: healthy {:.3e} s vs stale {:.3e} s",
        no_adapt.healthy_mean,
        no_adapt.steady_mean
    );

    // Overlapped partial re-placement recovers to within 10% of the
    // fresh-optimal rebuild.
    assert!(
        ovl.steady_mean <= 1.10 * fresh.steady_mean,
        "overlapped adaptation did not recover: {:.3e} s vs fresh-optimal {:.3e} s ({:.2}x)",
        ovl.steady_mean,
        fresh.steady_mean,
        ovl.steady_mean / fresh.steady_mean
    );

    // Not adapting is measurably worse than adapting.
    assert!(
        no_adapt.steady_mean > 1.2 * ovl.steady_mean,
        "no-adaptation should be measurably slower: stale {:.3e} s vs adapted {:.3e} s",
        no_adapt.steady_mean,
        ovl.steady_mean
    );

    // The stop-the-world reaction (global probe, serial staged migration,
    // entry/exit barriers) costs measurably more downtime than the
    // localized, overlapped one.
    assert!(
        stw.migrate_secs > 1.1 * ovl.migrate_secs,
        "stop-the-world should pay more migration downtime: {:.3e} s vs {:.3e} s",
        stw.migrate_secs,
        ovl.migrate_secs
    );
}

/// The whole scenario — kill, revoked channels, respawn, re-handshake,
/// health windows, localization, QAP, overlapped migration — is
/// deterministic: bit-identical across runs.
#[test]
fn kill_respawn_recovery_is_bit_identical_across_runs() {
    let scenario = AdaptScenario::kill_respawn(DOMAIN, false);
    let a = scenario.run(Arm::Overlapped, WARMUP, MEASURE);
    let b = scenario.run(Arm::Overlapped, WARMUP, MEASURE);
    assert_eq!(a.adapted_node.is_some(), b.adapted_node.is_some());
    assert_eq!(a.adapted_node, b.adapted_node);
    assert_eq!(
        a.healthy_mean.to_bits(),
        b.healthy_mean.to_bits(),
        "pre-fault times diverged between identical runs"
    );
    assert_eq!(
        a.steady_mean.to_bits(),
        b.steady_mean.to_bits(),
        "post-recovery times diverged between identical runs"
    );
    assert_eq!(
        a.migrate_secs.to_bits(),
        b.migrate_secs.to_bits(),
        "migration downtime diverged between identical runs"
    );
}

/// The OOM flavor: the kill is a device out-of-memory event. The victim's
/// device memory limit is shrunk to 5% of nominal while its rank is down
/// (asserted inside the harness), memory is restored before the respawn,
/// and recovery proceeds identically.
#[test]
fn oom_respawn_recovers_like_kill_respawn() {
    let scenario = AdaptScenario::kill_respawn(DOMAIN, true);
    let ovl = scenario.run(Arm::Overlapped, WARMUP, MEASURE);
    let fresh = scenario.run(Arm::FreshOptimal, WARMUP, MEASURE);
    assert!(
        ovl.adapted_node.is_some(),
        "OOM arm failed to trigger adaptation"
    );
    assert!(
        ovl.steady_mean <= 1.10 * fresh.steady_mean,
        "OOM recovery did not reach fresh-optimal: {:.3e} s vs {:.3e} s",
        ovl.steady_mean,
        fresh.steady_mean
    );
}

//! Acceptance test for degradation-aware adaptive re-placement (the
//! `chaos` bench's headline scenario, pinned down as assertions).
//!
//! One Summit node, six ranks. The healthy node-aware placement's busiest
//! NVLink drops to 10% of nominal mid-run. Three runs of the identical
//! fault:
//!
//! * **no adaptation** — the stale placement keeps pushing its heaviest
//!   traffic over the degraded link;
//! * **adaptive re-placement** — a [`stencil_core::HealthMonitor`] flags
//!   the slowdown, bandwidths are re-probed, the per-node QAP re-solved
//!   against the degraded matrix, subdomains migrated, plans rebuilt;
//! * **fresh-optimal** — the domain is built from scratch with empirical
//!   placement while the fault is live: the best the adaptive path could
//!   possibly reach.
//!
//! The contract: adaptation recovers exchange time to within 10% of
//! fresh-optimal, and not adapting is measurably slower.

use stencil_bench::chaos::{AdaptScenario, Arm, ArmRun};

const DOMAIN: [u64; 3] = [720, 726, 350];
const FAT_DOMAIN: [u64; 3] = [720, 726, 352];
const FACTOR: f64 = 0.1;
const WARMUP: usize = 3;
const MEASURE: usize = 3;

/// `(healthy_mean, steady_mean)` bit patterns per arm, in `NoAdapt`,
/// `Overlapped`, `FreshOptimal` order. Captured before the adaptation worlds
/// placed themselves; any drift means the scenario's placement, probes or
/// allocations changed.
const TRIAD_PINS: [(u64, u64); 3] = [
    (0x3f3a75b347be8ac3, 0x3f50024e05af4b5b),
    (0x3f3a75b347be8ac3, 0x3f3eae272ec5a8ab),
    (0x3f3eae272ec5a880, 0x3f3eae272ec5a88b),
];

/// As [`TRIAD_PINS`], for the 12-GPU fat node: the only adaptation world
/// whose placement and re-placement run on the heuristic rung.
const FAT_NODE_PINS: [(u64, u64); 3] = [
    (0x3f400f88f6aff5c4, 0x3f46a348bccef560),
    (0x3f400f88f6aff5c4, 0x3f426db38dbcbbc0),
    (0x3f426db38dbcbbc0, 0x3f426db38dbcbbc0),
];

/// The arms these scenarios compare, in pin order.
const ARMS: [Arm; 3] = [Arm::NoAdapt, Arm::Overlapped, Arm::FreshOptimal];

fn assert_pinned(scenario: &str, runs: [&ArmRun; 3], pins: [(u64, u64); 3]) {
    let bits = runs.map(|r| (r.healthy_mean.to_bits(), r.steady_mean.to_bits()));
    assert_eq!(
        bits, pins,
        "{scenario}: (healthy, steady) bits of NoAdapt/Overlapped/FreshOptimal drifted"
    );
}

#[test]
fn adaptive_replacement_recovers_to_fresh_optimal() {
    let triad = AdaptScenario::degraded_triad(DOMAIN, 6, FACTOR);
    let [no_adapt, adapt, fresh] = ARMS.map(|arm| triad.run(arm, WARMUP, MEASURE));
    assert_pinned("degraded-triad", [&no_adapt, &adapt, &fresh], TRIAD_PINS);
    let fat_node = AdaptScenario::degraded_fat_node(FAT_DOMAIN, FACTOR);
    let fat = ARMS.map(|arm| fat_node.run(arm, WARMUP, MEASURE));
    assert_pinned(
        "degraded-fat-node",
        [&fat[0], &fat[1], &fat[2]],
        FAT_NODE_PINS,
    );

    assert!(
        no_adapt.adapted_node.is_none(),
        "the control arm must not adapt"
    );
    assert!(
        adapt.adapted_node.is_some(),
        "the monitor failed to trigger re-placement"
    );

    // The fault bites: the stale placement is much slower than healthy.
    assert!(
        no_adapt.steady_mean > 1.5 * no_adapt.healthy_mean,
        "degradation had no bite: healthy {:.3e} s vs degraded {:.3e} s",
        no_adapt.healthy_mean,
        no_adapt.steady_mean
    );

    // Adaptation recovers to within 10% of the fresh-optimal rebuild.
    assert!(
        adapt.steady_mean <= 1.10 * fresh.steady_mean,
        "adaptation did not recover: adapted {:.3e} s vs fresh-optimal {:.3e} s ({:.2}x)",
        adapt.steady_mean,
        fresh.steady_mean,
        adapt.steady_mean / fresh.steady_mean
    );

    // And not adapting is measurably slower than adapting.
    assert!(
        no_adapt.steady_mean > 1.2 * adapt.steady_mean,
        "no-adaptation should be measurably slower: stale {:.3e} s vs adapted {:.3e} s",
        no_adapt.steady_mean,
        adapt.steady_mean
    );
}

/// The whole scenario — fault injection, health windows, re-probe, QAP,
/// migration, plan rebuild — is deterministic: bit-identical across runs.
#[test]
fn adaptive_replacement_is_bit_identical_across_runs() {
    let triad = AdaptScenario::degraded_triad(DOMAIN, 6, FACTOR);
    let a = triad.run(Arm::Overlapped, WARMUP, MEASURE);
    let b = triad.run(Arm::Overlapped, WARMUP, MEASURE);
    assert_eq!(a.adapted_node.is_some(), b.adapted_node.is_some());
    assert_eq!(
        a.healthy_mean.to_bits(),
        b.healthy_mean.to_bits(),
        "pre-fault times diverged between identical runs"
    );
    assert_eq!(
        a.steady_mean.to_bits(),
        b.steady_mean.to_bits(),
        "post-adaptation times diverged between identical runs"
    );
}

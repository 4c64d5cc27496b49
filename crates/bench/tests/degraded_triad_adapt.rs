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

use stencil_bench::chaos::{degraded_fat_node_run, degraded_triad_run, TriadMode, TriadRun};

const DOMAIN: [u64; 3] = [720, 726, 350];
const FAT_DOMAIN: [u64; 3] = [720, 726, 352];
const FACTOR: f64 = 0.1;
const WARMUP: usize = 3;
const MEASURE: usize = 3;

/// `(healthy_mean, degraded_mean)` bit patterns per mode, in `NoAdapt`,
/// `Adapt`, `FreshOptimal` order. Captured before the adaptation worlds
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

fn assert_pinned(scenario: &str, runs: [&TriadRun; 3], pins: [(u64, u64); 3]) {
    let bits = runs.map(|r| (r.healthy_mean.to_bits(), r.degraded_mean.to_bits()));
    assert_eq!(
        bits, pins,
        "{scenario}: (healthy, degraded) bits of NoAdapt/Adapt/FreshOptimal drifted"
    );
}

#[test]
fn adaptive_replacement_recovers_to_fresh_optimal() {
    let no_adapt = degraded_triad_run(DOMAIN, 6, FACTOR, WARMUP, MEASURE, TriadMode::NoAdapt);
    let adapt = degraded_triad_run(DOMAIN, 6, FACTOR, WARMUP, MEASURE, TriadMode::Adapt);
    let fresh = degraded_triad_run(DOMAIN, 6, FACTOR, WARMUP, MEASURE, TriadMode::FreshOptimal);
    assert_pinned("degraded-triad", [&no_adapt, &adapt, &fresh], TRIAD_PINS);
    let fat = [
        TriadMode::NoAdapt,
        TriadMode::Adapt,
        TriadMode::FreshOptimal,
    ]
    .map(|mode| degraded_fat_node_run(FAT_DOMAIN, FACTOR, WARMUP, MEASURE, mode));
    assert_pinned(
        "degraded-fat-node",
        [&fat[0], &fat[1], &fat[2]],
        FAT_NODE_PINS,
    );

    assert!(!no_adapt.adapted, "the control arm must not adapt");
    assert!(adapt.adapted, "the monitor failed to trigger re-placement");

    // The fault bites: the stale placement is much slower than healthy.
    assert!(
        no_adapt.degraded_mean > 1.5 * no_adapt.healthy_mean,
        "degradation had no bite: healthy {:.3e} s vs degraded {:.3e} s",
        no_adapt.healthy_mean,
        no_adapt.degraded_mean
    );

    // Adaptation recovers to within 10% of the fresh-optimal rebuild.
    assert!(
        adapt.degraded_mean <= 1.10 * fresh.degraded_mean,
        "adaptation did not recover: adapted {:.3e} s vs fresh-optimal {:.3e} s ({:.2}x)",
        adapt.degraded_mean,
        fresh.degraded_mean,
        adapt.degraded_mean / fresh.degraded_mean
    );

    // And not adapting is measurably slower than adapting.
    assert!(
        no_adapt.degraded_mean > 1.2 * adapt.degraded_mean,
        "no-adaptation should be measurably slower: stale {:.3e} s vs adapted {:.3e} s",
        no_adapt.degraded_mean,
        adapt.degraded_mean
    );
}

/// The whole scenario — fault injection, health windows, re-probe, QAP,
/// migration, plan rebuild — is deterministic: bit-identical across runs.
#[test]
fn adaptive_replacement_is_bit_identical_across_runs() {
    let a = degraded_triad_run(DOMAIN, 6, FACTOR, WARMUP, MEASURE, TriadMode::Adapt);
    let b = degraded_triad_run(DOMAIN, 6, FACTOR, WARMUP, MEASURE, TriadMode::Adapt);
    assert_eq!(a.adapted, b.adapted);
    assert_eq!(
        a.healthy_mean.to_bits(),
        b.healthy_mean.to_bits(),
        "pre-fault times diverged between identical runs"
    );
    assert_eq!(
        a.degraded_mean.to_bits(),
        b.degraded_mean.to_bits(),
        "post-adaptation times diverged between identical runs"
    );
}

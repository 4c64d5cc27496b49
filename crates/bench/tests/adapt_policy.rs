//! The [`stencil_core::AdaptPolicy`] gates, pinned at world level:
//!
//! * **hysteresis** — a healthy-but-flapping NIC (transient stalls that
//!   clear within a window or two) must never trigger migration, because
//!   re-placement cannot fix a transient and the migration itself costs
//!   downtime;
//! * **warmup** — no verdict (and no probe traffic) before the baseline
//!   window count is met.

use detsim::SimDuration;
use faultsim::FaultSchedule;
use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use std::cell::RefCell;
use std::rc::Rc;
use stencil_core::{AdaptOutcome, AdaptPolicy, DomainBuilder, SkipReason};
use topo::summit::summit_cluster;

/// Three isolated 500 µs NIC stalls, minutes of virtual up-time apart
/// relative to the exchange window, against a policy requiring three
/// *consecutive* degraded windows: every stall is noticed (the window it
/// lands in blows past the threshold) but the streak never reaches the
/// hysteresis requirement, so the domain never migrates.
#[test]
fn flapping_nic_never_triggers_migration() {
    const WARMUP: usize = 3;
    const FAULTED_ITERS: usize = 12;
    let outcomes: Rc<RefCell<Vec<AdaptOutcome>>> = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    let world = WorldConfig::new(summit_cluster(2), 3)
        .data_mode(DataMode::Virtual)
        .metrics(true);
    let report = run_world(world, move |ctx| {
        let mut dom = DomainBuilder::new([472, 472, 472])
            .radius(2)
            .quantities(4)
            .build(ctx);
        let mut monitor = AdaptPolicy::new()
            .threshold(1.25)
            .warmup_windows(WARMUP)
            .hysteresis_windows(3)
            .monitor();
        let mut mine = Vec::new();
        // Warmup windows: adapt must decline with `Warmup`, issuing no
        // probe traffic, while the baseline accumulates.
        for _ in 0..WARMUP {
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            mine.push(dom.adapt(ctx, &mut monitor));
        }
        // Install the flaps at a quiet point: 500us stalls separated by
        // 3ms of clean air — each stall lands in (at most two) windows,
        // then the NIC is healthy again for several windows.
        ctx.barrier();
        if ctx.rank() == 0 {
            let now = ctx.sim().with_kernel(|k| k.now());
            let faults = FaultSchedule::flapping_nic(
                0,
                SimDuration::from_micros(100),
                SimDuration::from_micros(500),
                SimDuration::from_micros(3000),
                3,
            );
            ctx.install_faults_at(&faults, now);
        }
        ctx.barrier();
        for _ in 0..FAULTED_ITERS {
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            mine.push(dom.adapt(ctx, &mut monitor));
        }
        if ctx.rank() == 0 {
            *o2.borrow_mut() = mine;
        }
    });
    let outcomes = outcomes.borrow().clone();
    assert_eq!(outcomes.len(), WARMUP + FAULTED_ITERS);
    for (i, o) in outcomes.iter().take(WARMUP).enumerate() {
        assert_eq!(
            *o,
            AdaptOutcome::Skipped {
                reason: SkipReason::Warmup
            },
            "window {i} should still be warming up"
        );
    }
    assert!(
        !outcomes
            .iter()
            .any(|o| matches!(o, AdaptOutcome::Migrated { .. })),
        "a flapping NIC must never trigger migration: {outcomes:?}"
    );
    let hysteresis_skips = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                AdaptOutcome::Skipped {
                    reason: SkipReason::Hysteresis { .. }
                }
            )
        })
        .count();
    assert!(
        hysteresis_skips >= 1,
        "the stalls should be noticed (and held back by hysteresis): {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .skip(WARMUP)
            .any(|o| matches!(o, AdaptOutcome::Healthy)),
        "clean windows between flaps should read healthy: {outcomes:?}"
    );
    // Declined adaptations are observable: the skip counter is in the
    // metrics artifact, labeled by gate.
    let json = report.metrics.expect("metrics requested").to_json();
    assert!(
        json.contains("adapt_skipped"),
        "resilience/adapt_skipped counter missing from metrics: {json}"
    );
    assert!(json.contains("hysteresis"), "skip labels missing: {json}");
}

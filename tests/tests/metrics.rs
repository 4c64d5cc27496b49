//! Cross-crate metrics guarantees: exact conservation between the metrics
//! registry and the flow network's own accounting, determinism of rendered
//! reports, and presence of every subsystem's metrics after a full-stack
//! exchange.

use mpisim::{run_world, WorldConfig, WorldReport};
use stencil_core::{DomainBuilder, Methods, Neighborhood};
use topo::summit::summit_cluster;

fn exchange_world(nodes: usize, rpn: usize) -> WorldReport {
    let world = WorldConfig::new(summit_cluster(nodes), rpn).metrics(true);
    run_world(world, move |ctx| {
        let dom = DomainBuilder::new([48, 40, 32])
            .radius(1)
            .quantities(2)
            .neighborhood(Neighborhood::Full26)
            .methods(Methods::all())
            .build(ctx);
        for local in dom.locals() {
            local.fill(0, |p| (p[0] * 3 + p[1] * 5 + p[2] * 7) as f32);
        }
        dom.exchange(ctx);
        dom.exchange(ctx);
    })
}

#[test]
fn link_bytes_metric_matches_flow_accounting_exactly() {
    // The per-link delivered-bytes counter must agree with the flow
    // network's own `link_delivered` bookkeeping (surfaced per node in
    // `WorldReport::nic_injected`) — exactly, not approximately.
    let report = exchange_world(2, 3);
    let m = report.metrics.as_ref().expect("metrics enabled");
    assert_eq!(report.nic_injected.len(), 2);
    for (n, &injected) in report.nic_injected.iter().enumerate() {
        let link = format!("n{n}.inject");
        let counted = m.counter("flow", "link_delivered_bytes", &[("link", &link)]);
        assert_eq!(
            counted, injected,
            "metric for {link} disagrees with FlowNet accounting"
        );
        assert!(injected > 0, "expected inter-node traffic on {link}");
    }
}

#[test]
fn every_subsystem_reports_after_a_full_stack_exchange() {
    let report = exchange_world(2, 3);
    let m = report.metrics.as_ref().unwrap();
    assert!(m.counter("exchange", "exchanges", &[]) > 0);
    for subsystem in ["flow", "fifo", "gpusim", "mpi", "exchange"] {
        assert!(
            m.entries().iter().any(|(id, _)| id.subsystem == subsystem),
            "no metrics from subsystem {subsystem}"
        );
    }
    // The acceptance trio: per-link utilization, per-method bytes,
    // per-phase breakdown.
    let json = m.to_json();
    for needle in ["link_utilization", "method_bytes", "phase_ps"] {
        assert!(json.contains(needle), "JSON artifact missing {needle}");
    }
}

#[test]
fn metrics_reports_are_bit_identical_across_runs() {
    let a = exchange_world(2, 2);
    let b = exchange_world(2, 2);
    let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
    assert_eq!(ma.to_json(), mb.to_json());
    assert_eq!(ma.to_text(), mb.to_text());
}

#[test]
fn metrics_do_not_change_virtual_time() {
    // Enabling metrics must be observation-only: the simulated clock and
    // event count of an identical program must not move.
    let run = |metrics: bool| {
        let world = WorldConfig::new(summit_cluster(1), 2).metrics(metrics);
        run_world(world, |ctx| {
            let dom = DomainBuilder::new([24, 24, 24])
                .radius(1)
                .quantities(1)
                .neighborhood(Neighborhood::Faces6)
                .methods(Methods::all())
                .build(ctx);
            dom.exchange(ctx);
        })
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.elapsed, on.elapsed);
    assert_eq!(off.executed_events, on.executed_events);
    assert!(off.metrics.is_none());
    assert!(on.metrics.is_some());
}

#[test]
fn exchange_method_bytes_match_send_plans() {
    // svc::execute plumbs JobSpec::collect_metrics through to the same
    // registry; the per-method byte counters must be stable and
    // consistent with the exchange count.
    let spec = svc::JobSpec::new("bench", svc::ClusterPreset::Summit { nodes: 1 }, 2, [48; 3])
        .iters(2)
        .collect_metrics(true);
    let r = svc::execute(&spec, None);
    let m = r.metrics.expect("metrics requested");
    let exchanges = m.counter("exchange", "exchanges", &[]);
    // 2 ranks x 2 iterations.
    assert_eq!(exchanges, 4);
    let total_method_bytes: u64 = m
        .entries()
        .iter()
        .filter(|(id, _)| id.subsystem == "exchange" && id.name == "method_bytes")
        .map(|(_, v)| match v {
            detsim::metrics::MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum();
    assert!(total_method_bytes > 0);
    // Per-method bytes are recorded once per exchange from identical plans,
    // so the total must be divisible by the number of exchanges per rank.
    assert_eq!(total_method_bytes % 2, 0);
}

//! Property test: the incremental flow-network implementation (cached link
//! shares, indexed membership, settle-only-affected-flows) agrees with a
//! naive recompute-everything oracle.
//!
//! The oracle re-derives **every** flow's rate from scratch at **every**
//! membership change and settles **every** flow at every event instant —
//! the O(flows x links) algorithm the kernel deliberately avoids. Both see
//! the same deterministic churn tables (LCG-generated arrivals over shared
//! links, in several waves so flow slots are freed and reused). Agreement
//! is checked on:
//!
//! * completion times, within a few ps: the implementations settle
//!   floating-point state in different orders/granularities, so the last
//!   ulp of `remaining` can differ, and the kernel's finish-triggered
//!   reshare can nudge a simultaneous completion by a picosecond. Any
//!   *rate* disagreement would show up as ~0.1%+ shifts, six orders of
//!   magnitude above the tolerance.
//! * per-link delivered bytes, exactly (integer accounting).
//! * completion count and an empty network at the end.

use std::cell::RefCell;
use std::rc::Rc;

use detsim::{Kernel, LinkId, SimDuration, PS_PER_SEC};

/// Tolerance on completion-time agreement, in picoseconds.
const TOL_PS: i64 = 5_000; // 5 ns; transfers here run for ~0.1-1 ms

#[derive(Clone)]
struct LinkSpec {
    capacity: f64, // bytes/sec
    latency_ns: u64,
}

#[derive(Clone)]
struct FlowSpec {
    start_ps: u64,
    path: Vec<usize>, // indices into the link table, distinct
    bytes: u64,
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mid-run link-capacity change (the fault-injection path).
#[derive(Clone)]
struct CapEvent {
    at_ps: u64,
    link: usize,
    capacity: f64, // bytes/sec, absolute
}

/// Deterministic capacity churn overlapping the flow waves: degradations,
/// restorations, and upgrades land while flows are in flight, so the
/// kernel's `set_link_capacity` re-settle/re-share path runs against live
/// traffic.
fn capacity_churn(seed: u64, links: &[LinkSpec]) -> Vec<CapEvent> {
    let mut rng = Lcg(seed ^ 0xC0FFEE);
    let factors = [0.1, 0.25, 0.5, 1.0, 2.0];
    let mut evs = Vec::new();
    for wave in 0..3u64 {
        let wave_start = wave * 8 * PS_PER_SEC / 1000;
        for _ in 0..10 {
            // Spread across the wave's whole active period (arrivals over
            // 0.2 ms, drain over a few ms).
            let at_ps = wave_start + rng.below(2_500_000_000);
            let link = rng.below(links.len() as u64) as usize;
            let f = factors[rng.below(factors.len() as u64) as usize];
            evs.push(CapEvent {
                at_ps,
                link,
                capacity: links[link].capacity * f,
            });
        }
    }
    evs.sort_by_key(|a| (a.at_ps, a.link));
    evs
}

/// `n` distinct link indices below `links`, in draw order.
fn distinct_path(rng: &mut Lcg, n: usize, links: usize) -> Vec<usize> {
    let mut path = Vec::with_capacity(n);
    while path.len() < n {
        let l = rng.below(links as u64) as usize;
        if !path.contains(&l) {
            path.push(l);
        }
    }
    path
}

fn churn_table(seed: u64, links: &[LinkSpec]) -> Vec<FlowSpec> {
    let mut rng = Lcg(seed);
    let mut flows = Vec::new();
    // Three waves with dead time between them: wave n+1 starts only after
    // every wave-n flow has long finished, so its flows are allocated into
    // slots that earlier flows used and freed.
    for wave in 0..3u64 {
        let wave_start = wave * 8 * PS_PER_SEC / 1000; // 8 ms apart
        for _ in 0..60 {
            let start_ps = wave_start + rng.below(200_000_000); // 0.2 ms spread
            let nlinks = 1 + rng.below(3) as usize;
            let path = distinct_path(&mut rng, nlinks, links.len());
            let bytes = 50_000 + rng.below(2_000_000);
            flows.push(FlowSpec {
                start_ps,
                path,
                bytes,
            });
        }
    }
    flows
}

/// Churn that batches at one instant. Flows start on a 1 µs grid in
/// bursts: several flows share a start time and a path, so their arrivals
/// land on the same picosecond and re-rate each other there. Every
/// multi-hop burst also carries twins, equal-size flows on the path and its
/// mirror image. Twins keep equal rates and finish in the same picosecond,
/// so the first twin's finish re-rates the second with no bytes left.
fn burst_table(seed: u64, links: &[LinkSpec]) -> Vec<FlowSpec> {
    let mut rng = Lcg(seed);
    let mut flows = Vec::new();
    for wave in 0..3u64 {
        let wave_start = wave * 8 * PS_PER_SEC / 1000; // 8 ms apart
        for _ in 0..12 {
            let start_ps = wave_start + rng.below(200) * 1_000_000;
            let nlinks = 1 + rng.below(3) as usize;
            let path = distinct_path(&mut rng, nlinks, links.len());
            for _ in 0..2 + rng.below(4) {
                flows.push(FlowSpec {
                    start_ps,
                    path: path.clone(),
                    bytes: 50_000 + rng.below(2_000_000),
                });
            }
            if nlinks > 1 {
                let bytes = 50_000 + rng.below(2_000_000);
                let mirror: Vec<usize> = path.iter().rev().copied().collect();
                for path in [path, mirror] {
                    flows.push(FlowSpec {
                        start_ps,
                        path,
                        bytes,
                    });
                }
            }
        }
    }
    flows
}

/// Run the churn table (plus any capacity-change events) through the real
/// kernel; returns per-flow completion times (ps) and per-link delivered
/// bytes.
fn run_kernel(
    links: &[LinkSpec],
    flows: &[FlowSpec],
    caps: &[CapEvent],
    metrics: bool,
) -> (Vec<u64>, Vec<u64>) {
    let mut k = Kernel::new();
    if metrics {
        k.metrics.enable();
    }
    let ids: Vec<LinkId> = links
        .iter()
        .enumerate()
        .map(|(i, l)| {
            k.add_link(
                format!("l{i}"),
                l.capacity,
                SimDuration::from_nanos(l.latency_ns),
            )
        })
        .collect();
    let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for (idx, f) in flows.iter().enumerate() {
        let path: Vec<LinkId> = f.path.iter().map(|&l| ids[l]).collect();
        let bytes = f.bytes;
        let done = Rc::clone(&done);
        k.schedule_in(SimDuration::from_picos(f.start_ps), move |k| {
            k.start_flow(&path, bytes, move |k| {
                done.borrow_mut().push((idx, k.now().picos()));
            });
        });
    }
    for c in caps {
        let link = ids[c.link];
        let capacity = c.capacity;
        k.schedule_in(SimDuration::from_picos(c.at_ps), move |k| {
            k.set_link_capacity(link, capacity);
        });
    }
    k.run_to_completion();
    assert_eq!(k.active_flows(), 0, "flows left in the network");
    let mut times = vec![0u64; flows.len()];
    let finished = done.borrow();
    assert_eq!(finished.len(), flows.len(), "not every flow completed");
    for &(idx, t) in finished.iter() {
        times[idx] = t;
    }
    let delivered = ids.iter().map(|&l| k.link_delivered(l)).collect();
    (times, delivered)
}

struct OracleFlow {
    idx: usize,
    path: Vec<usize>,
    remaining: f64,
    rate: f64,
}

/// Naive reference: settle every active flow and recompute every rate from
/// scratch at every membership *or capacity* change.
fn run_oracle(links: &[LinkSpec], flows: &[FlowSpec], caps: &[CapEvent]) -> (Vec<u64>, Vec<u64>) {
    let mut links = links.to_vec(); // capacities mutate under churn
                                    // Arrival = start + full path latency, as the kernel charges it.
    let mut arrivals: Vec<(u64, usize)> = flows
        .iter()
        .enumerate()
        .map(|(idx, f)| {
            let lat_ps: u64 = f.path.iter().map(|&l| links[l].latency_ns * 1_000).sum();
            (f.start_ps + lat_ps, idx)
        })
        .collect();
    arrivals.sort(); // by (time, flow index)
    let mut next_arrival = 0usize;
    let mut next_cap = 0usize;
    let mut active: Vec<OracleFlow> = Vec::new();
    let mut times = vec![0u64; flows.len()];
    let mut delivered = vec![0u64; links.len()];
    let mut now_ps = 0u64;

    let recompute = |active: &mut Vec<OracleFlow>, links: &[LinkSpec]| {
        let mut counts = vec![0usize; links.len()];
        for f in active.iter() {
            for &l in &f.path {
                counts[l] += 1;
            }
        }
        for f in active.iter_mut() {
            let mut rate = f64::INFINITY;
            for &l in &f.path {
                rate = rate.min(links[l].capacity / counts[l] as f64);
            }
            f.rate = rate;
        }
    };
    let settle = |active: &mut Vec<OracleFlow>, from_ps: u64, to_ps: u64| {
        let dt = (to_ps - from_ps) as f64 / PS_PER_SEC as f64;
        for f in active.iter_mut() {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
    };

    while next_arrival < arrivals.len() || !active.is_empty() {
        // Earliest projected completion under current rates.
        let fin = active
            .iter()
            .map(|f| now_ps + SimDuration::from_secs_f64(f.remaining / f.rate).picos())
            .min();
        let arr = arrivals.get(next_arrival).map(|&(t, _)| t);
        // Capacity changes with nothing left to re-rate are irrelevant.
        let chg = caps.get(next_cap).map(|c| c.at_ps);
        let t = [fin, arr, chg]
            .into_iter()
            .flatten()
            .min()
            .expect("loop invariant: an arrival or an active flow exists");
        settle(&mut active, now_ps, t);
        now_ps = t;
        // Completions strictly before new arrivals join (the kernel's
        // event queue orders the earlier-scheduled completion first; at
        // ps-level ties the tolerance absorbs the difference).
        if fin == Some(t) {
            let mut i = 0;
            while i < active.len() {
                let eta = SimDuration::from_secs_f64(active[i].remaining / active[i].rate).picos();
                if eta == 0 {
                    let f = active.swap_remove(i);
                    times[f.idx] = now_ps;
                    for &l in &f.path {
                        delivered[l] += flows[f.idx].bytes;
                    }
                } else {
                    i += 1;
                }
            }
        }
        while arrivals.get(next_arrival).map(|&(t2, _)| t2) == Some(now_ps) {
            let idx = arrivals[next_arrival].1;
            next_arrival += 1;
            active.push(OracleFlow {
                idx,
                path: flows[idx].path.clone(),
                remaining: flows[idx].bytes as f64,
                rate: 0.0,
            });
        }
        // Capacity changes at this instant take effect for the *next*
        // interval — same semantics as the kernel's settle-then-change.
        while caps.get(next_cap).map(|c| c.at_ps) == Some(now_ps) {
            let c = &caps[next_cap];
            next_cap += 1;
            links[c.link].capacity = c.capacity;
        }
        recompute(&mut active, &links);
    }
    (times, delivered)
}

fn links_under_test() -> Vec<LinkSpec> {
    vec![
        LinkSpec {
            capacity: 12.5e9,
            latency_ns: 1_000,
        },
        LinkSpec {
            capacity: 25.0e9,
            latency_ns: 500,
        },
        LinkSpec {
            capacity: 10.0e9,
            latency_ns: 0,
        },
        LinkSpec {
            capacity: 6.0e9,
            latency_ns: 2_000,
        },
        LinkSpec {
            capacity: 50.0e9,
            latency_ns: 100,
        },
        LinkSpec {
            capacity: 3.0e9,
            latency_ns: 700,
        },
    ]
}

/// Kernel completion times agree with the oracle's within [`TOL_PS`].
fn assert_times_agree(seed: u64, kernel: &[u64], oracle: &[u64]) {
    for (idx, (&kt, &ot)) in kernel.iter().zip(oracle).enumerate() {
        let diff = kt as i64 - ot as i64;
        assert!(
            diff.abs() <= TOL_PS,
            "seed {seed} flow {idx}: kernel {kt} ps vs oracle {ot} ps (diff {diff} ps)"
        );
    }
}

#[test]
fn incremental_reshare_matches_naive_oracle() {
    let links = links_under_test();
    for seed in [7, 42, 20260806] {
        let flows = churn_table(seed, &links);
        let (kernel_times, kernel_delivered) = run_kernel(&links, &flows, &[], false);
        let (oracle_times, oracle_delivered) = run_oracle(&links, &flows, &[]);
        assert_times_agree(seed, &kernel_times, &oracle_times);
        assert_eq!(
            kernel_delivered, oracle_delivered,
            "seed {seed}: delivered-byte accounting diverged"
        );
    }
}

/// `set_link_capacity` mid-flight must re-settle and re-rate exactly like
/// the recompute-everything oracle: degradations, restorations, and
/// upgrades land while waves of flows are active.
#[test]
fn capacity_churn_matches_naive_oracle() {
    let links = links_under_test();
    for seed in [7, 42, 20260806] {
        let flows = churn_table(seed, &links);
        let caps = capacity_churn(seed, &links);
        assert!(!caps.is_empty());
        let (kernel_times, kernel_delivered) = run_kernel(&links, &flows, &caps, false);
        let (oracle_times, oracle_delivered) = run_oracle(&links, &flows, &caps);
        assert_times_agree(seed, &kernel_times, &oracle_times);
        assert_eq!(
            kernel_delivered, oracle_delivered,
            "seed {seed}: delivered-byte accounting diverged under capacity churn"
        );
        // Same churn twice -> bit-identical, metrics on or off.
        let again = run_kernel(&links, &flows, &caps, true);
        assert_eq!(
            kernel_times, again.0,
            "capacity churn must be deterministic"
        );
        assert_eq!(kernel_delivered, again.1);
    }
}

#[test]
fn churn_with_slot_reuse_is_deterministic_and_drops_stale_events() {
    let links = links_under_test();
    let flows = churn_table(99, &links);
    let (a, da) = run_kernel(&links, &flows, &[], false);
    let (b, db) = run_kernel(&links, &flows, &[], false);
    assert_eq!(a, b, "identical churn must give bit-identical times");
    assert_eq!(da, db);

    // The waves re-rate each other constantly; most projections go stale.
    let mut k = Kernel::new();
    let ids: Vec<LinkId> = links
        .iter()
        .enumerate()
        .map(|(i, l)| {
            k.add_link(
                format!("l{i}"),
                l.capacity,
                SimDuration::from_nanos(l.latency_ns),
            )
        })
        .collect();
    for f in &flows {
        let path: Vec<LinkId> = f.path.iter().map(|&l| ids[l]).collect();
        let bytes = f.bytes;
        k.schedule_in(SimDuration::from_picos(f.start_ps), move |k| {
            k.start_flow(&path, bytes, |_| {});
        });
    }
    k.run_to_completion();
    assert!(
        k.stale_events_dropped() > 0,
        "churn should have superseded at least one projection"
    );
}

#[test]
fn metrics_collection_does_not_change_flow_times() {
    let links = links_under_test();
    let flows = churn_table(7, &links);
    let (plain, d1) = run_kernel(&links, &flows, &[], false);
    let (metered, d2) = run_kernel(&links, &flows, &[], true);
    assert_eq!(plain, metered, "metrics perturbed virtual completion times");
    assert_eq!(d1, d2);
}

/// Same-instant batches: bursts of arrivals on one picosecond and twins
/// that finish together, with and without capacity churn, agree with the
/// oracle and repeat bit for bit.
#[test]
fn same_instant_bursts_match_naive_oracle() {
    let links = links_under_test();
    for seed in [7, 42, 20260806] {
        let flows = burst_table(seed, &links);
        for caps in [Vec::new(), capacity_churn(seed, &links)] {
            let (kernel_times, kernel_delivered) = run_kernel(&links, &flows, &caps, false);
            let (oracle_times, oracle_delivered) = run_oracle(&links, &flows, &caps);
            assert_times_agree(seed, &kernel_times, &oracle_times);
            assert_eq!(
                kernel_delivered, oracle_delivered,
                "seed {seed}: delivered-byte accounting diverged in bursts"
            );
            let again = run_kernel(&links, &flows, &caps, true);
            assert_eq!(kernel_times, again.0, "bursts must be deterministic");
            assert_eq!(kernel_delivered, again.1);
        }
    }
}

/// `k` flows of `100,000·(i+1)` bytes start at one instant on one link.
/// Their arrivals re-rate each other at one picosecond, so each flow gets
/// one projection there and the arrivals supersede nothing; each finish
/// then supersedes the survivors' projections, `k(k−1)/2` in all.
#[test]
fn same_instant_burst_projects_each_flow_once() {
    for (n, events, end_ps) in [
        (2u64, 6u64, 31_500_000u64),
        (4, 12, 101_500_000),
        (8, 24, 361_500_001),
        (16, 48, 1_361_500_001),
    ] {
        let mut k = Kernel::new();
        let l = k.add_link("l", 10e9, SimDuration::from_nanos(500));
        for i in 0..n {
            k.schedule_in(SimDuration::from_micros(1), move |k| {
                k.start_flow(&[l], 100_000 * (i + 1), |_| {});
            });
        }
        k.run_to_completion();
        assert_eq!(k.stale_events_dropped(), n * (n - 1) / 2, "k = {n}");
        assert_eq!(k.executed_events(), events, "k = {n}");
        assert_eq!(k.now().picos(), end_ps, "k = {n}");
    }
}

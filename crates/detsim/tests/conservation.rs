#[test]
fn staggered_flows_respect_capacity() {
    use detsim::{Kernel, SimDuration};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut k = Kernel::new();
    let l = k.add_link("l", 25e9, SimDuration::from_micros(1));
    let last_end = Arc::new(AtomicU64::new(0));
    // 100 flows of 4 MB each, staggered 10us apart: 400 MB over 25 GB/s = 16 ms minimum
    for i in 0..100u64 {
        let le = Arc::clone(&last_end);
        k.schedule_in(SimDuration::from_micros(10 * i), move |k| {
            k.start_flow(&[l], 4_000_000, move |k| {
                le.fetch_max(k.now().picos(), Ordering::SeqCst);
            });
        });
    }
    k.run_to_completion();
    let end_s = last_end.load(Ordering::SeqCst) as f64 / 1e12;
    println!("last end: {:.3} ms", end_s * 1e3);
    assert!(end_s >= 0.016, "conservation violated: {end_s}");
}

#[test]
fn random_staggered_flows_never_exceed_capacity() {
    use detsim::{Kernel, SimDuration};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut state = 42u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for trial in 0..50 {
        let mut k = Kernel::new();
        let cap = 25e9;
        let l = k.add_link("l", cap, SimDuration::from_micros(1));
        let last_end = Arc::new(AtomicU64::new(0));
        let first_start = Arc::new(AtomicU64::new(u64::MAX));
        let mut total = 0u64;
        let n = 20 + rnd() % 200;
        for _ in 0..n {
            let bytes = 1000 + rnd() % 20_000_000;
            total += bytes;
            let at = SimDuration::from_nanos(rnd() % 3_000_000);
            let le = Arc::clone(&last_end);
            let fs = Arc::clone(&first_start);
            k.schedule_in(at, move |k| {
                fs.fetch_min(k.now().picos(), Ordering::SeqCst);
                k.start_flow(&[l], bytes, move |k| {
                    le.fetch_max(k.now().picos(), Ordering::SeqCst);
                });
            });
        }
        k.run_to_completion();
        let window =
            (last_end.load(Ordering::SeqCst) - first_start.load(Ordering::SeqCst)) as f64 / 1e12;
        let floor = total as f64 / cap;
        assert!(
            window >= floor * 0.999,
            "trial {trial}: {total} bytes in {window}s < floor {floor}s"
        );
    }
}

#[test]
fn peak_utilization_never_exceeds_one() {
    use detsim::{Kernel, SimDuration};
    let mut state = 7u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for trial in 0..200 {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let l2 = k.add_link("l2", 2e9, SimDuration::from_micros(2));
        let n = 2 + rnd() % 50;
        for i in 0..n {
            let bytes = 1 + rnd() % 5_000_000;
            let at = SimDuration::from_nanos(rnd() % 2_000_000);
            let two = rnd() % 2 == 0;
            k.schedule_in(at, move |k| {
                let path: Vec<_> = if two { vec![l, l2] } else { vec![l] };
                k.start_flow(&path, bytes, |_| {});
            });
            let _ = i;
        }
        k.run_to_completion();
        let u1 = k.link_peak_utilization(l);
        let u2 = k.link_peak_utilization(l2);
        assert!(
            u1 <= 1.0 + 1e-9 && u2 <= 1.0 + 1e-9,
            "trial {trial}: over-allocation u1={u1} u2={u2}"
        );
    }
}

/// Regression test: flow slots are recycled; a completion projected for a
/// previous occupant must never complete the new flow early. (This bug let
/// large simulations deliver more bytes than link capacity allowed.)
#[test]
fn slot_reuse_does_not_finish_new_flows_early() {
    use detsim::{Kernel, SimDuration};
    let mut k = Kernel::new();
    let l = k.add_link("l", 1e9, SimDuration::ZERO);
    // Flow A: finishes quickly, slot freed. Its completion reschedules often.
    for round in 0..50u64 {
        k.schedule_in(SimDuration::from_micros(round * 100), move |k| {
            k.start_flow(&[l], 1_000 + round, |_| {});
        });
    }
    // One long flow, while the short flows around it reuse freed slots.
    k.schedule_in(SimDuration::from_micros(10), move |k| {
        k.start_flow(&[l], 5_000_000, |k| {
            // 5 MB at <= 1 GB/s takes >= 5 ms.
            assert!(
                k.now().picos() >= 5_000_000_000,
                "long flow finished early at {}",
                k.now()
            );
        });
    });
    k.run_to_completion();
    let busy = k.link_busy_bytes(l);
    let delivered = k.link_delivered(l) as f64;
    assert!(
        (busy - delivered).abs() < delivered * 1e-6,
        "load integral {busy} != delivered {delivered}"
    );
}

/// Regression test: `flow/link_busy_ps` counts only time during which the
/// link carried at least one flow. A link's `load` is a running sum of rate
/// deltas, so after its last flow leaves it may keep a rounding residue;
/// that residue must not make a later idle interval count as busy.
///
/// Zero-latency links make each flow active on its links exactly from its
/// start to its completion, so the expected busy time is the length of the
/// union of those intervals. After the random flows drain, the link idles
/// for 1 ms before one more flow crosses link 0, which settles the idle
/// interval into the counter.
#[test]
fn link_busy_ps_counts_only_intervals_with_active_flows() {
    use detsim::{Kernel, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;
    const CAPACITIES: [f64; 4] = [12.5e9, 25e9, 10e9, 6e9];
    for seed in 1..400u64 {
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut k = Kernel::new();
        k.metrics.enable();
        let links: Vec<_> = CAPACITIES
            .iter()
            .enumerate()
            .map(|(i, &c)| k.add_link(format!("l{i}"), c, SimDuration::ZERO))
            .collect();
        // Per link, the (start, finish) picoseconds of every flow on it.
        let spans = Rc::new(RefCell::new(vec![Vec::<(u64, u64)>::new(); 4]));
        let start_one = |k: &mut Kernel, at: SimDuration, hops: Vec<usize>, bytes: u64| {
            let spans = Rc::clone(&spans);
            let path: Vec<_> = hops.iter().map(|&h| links[h]).collect();
            k.schedule_in(at, move |k| {
                let start = k.now().picos();
                k.start_flow(&path, bytes, move |k| {
                    for &h in &hops {
                        spans.borrow_mut()[h].push((start, k.now().picos()));
                    }
                });
            });
        };
        let n = 2 + rnd() % 6;
        for _ in 0..n {
            let bytes = 1000 + rnd() % 1_000_000;
            let at = SimDuration::from_nanos(rnd() % 50_000);
            let (a, b) = ((rnd() % 4) as usize, (rnd() % 4) as usize);
            let hops = if a == b { vec![a] } else { vec![a, b] };
            start_one(&mut k, at, hops, bytes);
        }
        k.run_to_completion();
        start_one(&mut k, SimDuration::from_millis(1), vec![0], 1000);
        k.run_to_completion();
        let report = k.metrics.report();
        for (i, spans) in spans.borrow_mut().iter_mut().enumerate() {
            spans.sort_unstable();
            let (mut union, mut reach) = (0u64, 0u64);
            for &(s, f) in spans.iter() {
                let s = s.max(reach);
                if f > s {
                    union += f - s;
                    reach = f;
                }
            }
            let name = format!("l{i}");
            let busy = report.counter("flow", "link_busy_ps", &[("link", name.as_str())]);
            assert_eq!(
                busy, union,
                "seed {seed}: {name} counted {busy} ps busy, flows covered {union} ps"
            );
        }
    }
}

//! Pin: the order and picosecond of every callback in a world whose flow
//! completions tie with each other and with plain callbacks.
//!
//! The world covers each way two events can share an instant:
//!
//! * four equal flows re-rated by one reshare call finish in the same
//!   picosecond. Their slots are reused from a drained warm-up wave, and
//!   the free list hands slots out last-freed first, so `FlowId` order is
//!   the reverse of start order; the completions must follow `FlowId`;
//! * the first of them to finish re-rates the other three with no bytes
//!   left, so they complete at once, behind everything already queued for
//!   the instant (the eager path);
//! * `schedule_at` callbacks for that instant are queued before the reshare
//!   (at t = 0), after it (once the flows are active), and from the first
//!   completion's own callback;
//! * a flow on another link, started by a later reshare call, finishes in
//!   the same picosecond.
//!
//! A first run finds the instant; the second run replays the world with
//! the extra callbacks and flow aimed at it. The log below was captured on
//! the kernel that sorted each reshare's affected flows and queued one
//! completion event per projection; the completion queue must reproduce it
//! bit for bit.

use std::cell::RefCell;
use std::rc::Rc;

use detsim::{Kernel, SimDuration, SimTime};

type Log = Rc<RefCell<Vec<(&'static str, u64)>>>;

fn note(log: &Log, label: &'static str) -> impl FnOnce(&mut Kernel) + 'static {
    let log = Rc::clone(log);
    move |k: &mut Kernel| log.borrow_mut().push((label, k.now().picos()))
}

/// Build and run the world. With `tie = Some(t)`, also aim the extra
/// callbacks and the other-link flow at instant `t`.
fn run(tie: Option<SimTime>) -> Vec<(&'static str, u64)> {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut k = Kernel::new();
    let warm = k.add_link("warm", 1e9, SimDuration::ZERO);
    let a = k.add_link("a", 1e9, SimDuration::from_nanos(100));
    let b = k.add_link("b", 2e9, SimDuration::ZERO);
    let other = k.add_link("other", 1e9, SimDuration::ZERO);

    // Warm-up: slots 0..3 fill and drain in order, so the free list holds
    // them last-freed first.
    for (label, bytes) in [("w0", 1_000), ("w1", 2_000), ("w2", 3_000), ("w3", 4_000)] {
        k.start_flow(&[warm], bytes, note(&log, label));
    }

    if let Some(t) = tie {
        k.schedule_at(t, note(&log, "queued at 0"));
    }

    // Four equal flows over two links, started in label order; they take
    // slots 3, 2, 1, 0. The last activation's reshare re-rates all four.
    let starts = SimTime::ZERO + SimDuration::from_micros(100);
    for label in ["g0", "g1", "g2", "g3"] {
        let done = note(&log, label);
        let log = Rc::clone(&log);
        k.schedule_at(starts, move |k| {
            k.start_flow(&[a, b], 10_000, move |k| {
                done(k);
                if let Some(t) = tie {
                    if label == "g3" {
                        k.schedule_at(t, note(&log, "queued by g3"));
                    }
                }
            });
        });
    }

    if let Some(t) = tie {
        // After the g activations (they land 100 ns after `starts`).
        let log2 = Rc::clone(&log);
        k.schedule_at(starts + SimDuration::from_nanos(101), move |k| {
            k.schedule_at(t, note(&log2, "queued after reshare"));
        });
        // 10,000 B alone at 1 GB/s: finishes exactly at `t`.
        let o = note(&log, "other link");
        let start = SimTime::ZERO + SimDuration::from_picos(t.picos() - 10_000_000);
        k.schedule_at(start, move |k| {
            k.start_flow(&[other], 10_000, o);
        });
    }

    k.run_to_completion();
    assert_eq!(k.active_flows(), 0);
    let out = log.borrow().clone();
    out
}

#[test]
fn same_instant_ties_keep_their_order() {
    let first = run(None);
    let &(_, t) = first
        .iter()
        .find(|(label, _)| *label == "g3")
        .expect("g3 finished");
    let replay = run(Some(SimTime::ZERO + SimDuration::from_picos(t)));
    assert_eq!(
        replay,
        [
            ("w0", 4_000_000),
            ("w1", 7_000_000),
            ("w2", 9_000_000),
            ("w3", 10_000_000),
            ("queued at 0", 140_100_000),
            ("g3", 140_100_000),
            ("queued after reshare", 140_100_000),
            ("other link", 140_100_000),
            ("g2", 140_100_000),
            ("queued by g3", 140_100_000),
            ("g1", 140_100_000),
            ("g0", 140_100_000),
        ]
    );
}

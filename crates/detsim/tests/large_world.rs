//! Large-world stress tests for the coroutine rank runtime.
//!
//! Under the old one-OS-thread-per-rank scheduler these worlds were
//! impractical (27,648 threads is beyond default pid/mmap limits and takes
//! seconds just to spawn); under stackful coroutines a rank costs one heap
//! allocation, so a full-Summit world (4608 nodes × 6 ranks) is an
//! ordinary test case. See `docs/RUNTIME.md` for the execution model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use detsim::{Sim, SimDuration};

/// Full-Summit rank count: 4608 nodes × 6 ranks.
const FULL_SUMMIT_RANKS: usize = 27_648;

#[test]
fn full_summit_world_spawns_runs_and_tears_down() {
    let ran = Rc::new(Cell::new(0));
    let r2 = Rc::clone(&ran);
    let mut sim = Sim::new();
    sim.run(FULL_SUMMIT_RANKS, move |ctx| {
        // Every rank advances virtual time and yields at least once, so the
        // whole world interleaves through the scheduler rather than running
        // each rank to completion in isolation.
        ctx.delay(SimDuration::from_nanos((ctx.tid() % 97) as u64));
        ctx.yield_now();
        r2.set(r2.get() + 1);
    });
    assert_eq!(ran.get(), FULL_SUMMIT_RANKS);
}

#[test]
fn full_summit_world_repeated_runs_reuse_cleanly() {
    // Spawn/teardown twice on one Sim: leaked or stale per-rank state from
    // the first world would corrupt the second.
    let mut sim = Sim::new();
    for round in 0..2u64 {
        let hits = Rc::new(Cell::new(0));
        let h2 = Rc::clone(&hits);
        sim.run(FULL_SUMMIT_RANKS, move |ctx| {
            ctx.delay(SimDuration::from_nanos(round + 1));
            h2.set(h2.get() + 1);
        });
        assert_eq!(hits.get(), FULL_SUMMIT_RANKS);
    }
}

#[test]
fn large_world_virtual_times_are_deterministic() {
    // 27k ranks racing delays must settle to the same final virtual clock
    // on every run (scheduling order is part of the determinism contract).
    let run_once = || {
        let mut sim = Sim::new();
        let end = Rc::new(RefCell::new(detsim::SimTime::ZERO));
        let e2 = Rc::clone(&end);
        sim.run(FULL_SUMMIT_RANKS, move |ctx| {
            ctx.delay(SimDuration::from_nanos((ctx.tid() as u64 * 37) % 1009));
            ctx.yield_now();
            ctx.delay(SimDuration::from_nanos((ctx.tid() as u64 * 11) % 499));
            let mut e = e2.borrow_mut();
            if ctx.now() > *e {
                *e = ctx.now();
            }
        });
        let t = *end.borrow();
        t
    };
    assert_eq!(run_once(), run_once());
}

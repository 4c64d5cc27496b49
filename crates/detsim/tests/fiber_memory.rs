//! A finished `Sim::run` frees every heap block it allocated for its
//! fibers. This binary installs a global allocator that counts live blocks
//! per thread, so the harness's own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use detsim::{Sim, SimDuration};

struct Counting;

thread_local! {
    /// Blocks allocated minus blocks freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = LIVE.try_with(|n| n.set(n.get() + 1));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - 1));
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_blocks() -> i64 {
    LIVE.with(Cell::get)
}

/// Every rank finishes its program; nothing may stay behind, run after run.
#[test]
fn repeated_runs_leave_no_live_blocks() {
    const RANKS: usize = 24;
    let run = || {
        let mut sim = Sim::new();
        sim.run(RANKS, |ctx| {
            ctx.delay(SimDuration::from_micros(1 + ctx.tid() as u64));
        });
    };
    // The first run may set up process-wide state that lives on.
    run();
    let before = live_blocks();
    for _ in 0..4 {
        run();
    }
    let grown = live_blocks() - before;
    assert_eq!(
        grown, 0,
        "four {RANKS}-rank runs left {grown} heap blocks live"
    );
}

//! The simulation kernel: virtual clock, deterministic event queue, and
//! one-shot completions.
//!
//! All simulation state (links, flows, FIFOs, traces, scheduler bookkeeping)
//! hangs off [`Kernel`]. A world has one owner: [`crate::Sim`] holds the
//! kernel in an `Rc<RefCell<_>>` and every rank and event callback runs on
//! the thread that called `Sim::run`, one at a time, so event callbacks get
//! `&mut Kernel` and can mutate anything.
//!
//! Determinism: events are ordered by `(time, sequence-number)` where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore execute in scheduling order, independent of
//! heap internals.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::rc::Rc;

use crate::fifo::FifoTable;
use crate::flow::{FlowId, FlowNet};
use crate::metrics::Metrics;
use crate::sched::SchedState;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// A callback run by the event loop. Runs at most once.
pub type Action = Box<dyn FnOnce(&mut Kernel)>;

/// A type-erased `FnOnce(&mut Kernel)` that stores one-word closures inline
/// instead of boxing them.
///
/// Event churn at paper scale is dominated by tiny closures — typically a
/// single completion handle or id — so keeping the capture inside the event
/// itself removes a heap round-trip per scheduled event. Closures that
/// don't fit in one word fall back to a (thin) box, transparently. The
/// whole thing is two words — payload plus a `&'static` vtable — which
/// keeps `Event` at the same size the old fat-boxed `Action` gave it:
/// growing events would slow every `BinaryHeap` sift for *all* event kinds,
/// including the flow completions that dominate paper-scale heaps.
pub(crate) struct SmallAction {
    data: MaybeUninit<*mut ()>,
    vtable: &'static ActionVTable,
}

struct ActionVTable {
    call: unsafe fn(*mut *mut (), &mut Kernel),
    drop: unsafe fn(*mut *mut ()),
}

impl SmallAction {
    pub(crate) fn new<F: FnOnce(&mut Kernel) + 'static>(f: F) -> Self {
        let mut data = MaybeUninit::<*mut ()>::uninit();
        if size_of::<F>() <= size_of::<*mut ()>() && align_of::<F>() <= align_of::<*mut ()>() {
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            SmallAction {
                data,
                vtable: &ActionVTable {
                    call: call_inline::<F>,
                    drop: drop_inline::<F>,
                },
            }
        } else {
            let p = Box::into_raw(Box::new(f));
            unsafe { data.as_mut_ptr().cast::<*mut F>().write(p) };
            SmallAction {
                data,
                vtable: &ActionVTable {
                    call: call_boxed::<F>,
                    drop: drop_boxed::<F>,
                },
            }
        }
    }

    /// Invoke the closure, consuming it.
    pub(crate) fn call(self, k: &mut Kernel) {
        let mut this = ManuallyDrop::new(self);
        unsafe { (this.vtable.call)(this.data.as_mut_ptr(), k) }
    }
}

impl Drop for SmallAction {
    fn drop(&mut self) {
        unsafe { (self.vtable.drop)(self.data.as_mut_ptr()) }
    }
}

unsafe fn call_inline<F: FnOnce(&mut Kernel)>(data: *mut *mut (), k: &mut Kernel) {
    let f = unsafe { data.cast::<F>().read() };
    f(k)
}

unsafe fn drop_inline<F>(data: *mut *mut ()) {
    unsafe { std::ptr::drop_in_place(data.cast::<F>()) }
}

unsafe fn call_boxed<F: FnOnce(&mut Kernel)>(data: *mut *mut (), k: &mut Kernel) {
    let f = unsafe { Box::from_raw(data.cast::<*mut F>().read()) };
    f(k)
}

unsafe fn drop_boxed<F>(data: *mut *mut ()) {
    drop(unsafe { Box::from_raw(data.cast::<*mut F>().read()) });
}

/// What happens when an event fires. Flow completions — by far the most
/// common event at paper scale, and the only kind that is routinely
/// superseded — are a plain enum variant instead of a boxed closure, so
/// re-projecting a flow allocates nothing and a stale completion can be
/// recognized (and dropped) without executing it. Timer wakes (the
/// `SimCtx::delay` fast path) are likewise a bare variant: waking a rank
/// needs no completion object at all.
pub(crate) enum EventKind {
    /// Run a callback (inline if small, boxed otherwise).
    Call(SmallAction),
    /// Deliver the last byte of flow `fid`, provided its generation still
    /// equals `gen` (otherwise the event is stale: the flow was re-rated or
    /// already finished and the slot possibly reused).
    FlowFinish { fid: FlowId, gen: u64 },
    /// Wake rank `tid` from a `SimCtx::delay`, provided `token` is still
    /// the wake it is armed for (see `SchedState::fire_wake`).
    Wake { tid: usize, token: u64 },
}

pub(crate) struct Event {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// Append an event to a queue, assigning the next sequence number. A free
/// function (not a method) so the flow network can schedule completions
/// while holding disjoint borrows of other kernel fields.
pub(crate) fn push_event(
    queue: &mut BinaryHeap<Event>,
    next_seq: &mut u64,
    at: SimTime,
    kind: EventKind,
) {
    let seq = *next_seq;
    *next_seq += 1;
    queue.push(Event { at, seq, kind });
}

/// Compact the heap once at least this many stale completions accumulated
/// (and they make up at least half the queue — see [`Kernel::step`]).
const STALE_COMPACT_MIN: usize = 4096;

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum CompletionState {
    Pending {
        /// Rank ids to make runnable when this completes.
        waiters: Vec<usize>,
        /// Callbacks to run (in registration order) when this completes.
        callbacks: Vec<SmallAction>,
    },
    Done,
}

/// A one-shot completion signal.
///
/// Threads block on completions via [`crate::SimCtx::wait`]; event callbacks
/// chain off them via [`Kernel::on_complete`]. Cloning yields another handle
/// to the same underlying signal.
#[derive(Clone)]
pub struct Completion(Rc<RefCell<CompletionState>>);

impl Completion {
    pub(crate) fn new() -> Self {
        Completion(Rc::new(RefCell::new(CompletionState::Pending {
            waiters: Vec::new(),
            callbacks: Vec::new(),
        })))
    }

    /// Whether the completion has fired.
    pub fn is_done(&self) -> bool {
        matches!(*self.0.borrow(), CompletionState::Done)
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Completion({})",
            if self.is_done() { "done" } else { "pending" }
        )
    }
}

/// The heart of the simulator. See module docs.
pub struct Kernel {
    now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) queue: BinaryHeap<Event>,
    pub(crate) flows: FlowNet,
    pub(crate) fifos: FifoTable,
    pub(crate) sched: SchedState,
    /// Trace recorder (spans + instants) for timeline output.
    pub trace: Trace,
    /// Metrics registry (counters, gauges, histograms); disabled by default.
    pub metrics: Metrics,
    executed_events: u64,
    /// Flow-completion events still queued whose generation no longer
    /// matches their flow — bumped by the flow network on every
    /// re-projection, decremented as stale events are skipped or compacted.
    pub(crate) stale_pending: usize,
    /// Stale completions discarded so far (skipped at pop or compacted).
    stale_dropped: u64,
    /// Times the event heap was rebuilt to shed stale completions.
    compactions: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// A fresh kernel at t = 0 with no hardware.
    pub fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            flows: FlowNet::new(),
            fifos: FifoTable::new(),
            sched: SchedState::new(),
            trace: Trace::new(),
            metrics: Metrics::new(),
            executed_events: 0,
            stale_pending: 0,
            stale_dropped: 0,
            compactions: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics). Stale flow
    /// completions are skipped, not executed, and do not count.
    pub fn executed_events(&self) -> u64 {
        self.executed_events
    }

    /// Stale flow-completion events discarded so far (diagnostics).
    pub fn stale_events_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Times the event heap was compacted to shed stale completions
    /// (diagnostics).
    pub fn heap_compactions(&self) -> u64 {
        self.compactions
    }

    /// Schedule `action` to run at absolute time `at`. Scheduling into the
    /// past is clamped to "now" (it still runs strictly after the current
    /// callback returns).
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Kernel) + 'static) {
        let at = at.max(self.now);
        push_event(
            &mut self.queue,
            &mut self.next_seq,
            at,
            EventKind::Call(SmallAction::new(action)),
        );
    }

    /// Arm and schedule a bare timer wake for rank `tid`, `d` from now: the
    /// `SimCtx::delay` fast path. One event, same `(time, seq)` key a
    /// completion-based delay would have consumed — virtual times are
    /// unchanged — but no completion allocation and no callback.
    pub(crate) fn schedule_wake(&mut self, tid: usize, d: SimDuration) {
        let token = self.sched.arm_wake(tid);
        push_event(
            &mut self.queue,
            &mut self.next_seq,
            self.now + d,
            EventKind::Wake { tid, token },
        );
    }

    /// Schedule `action` to run `d` from now.
    pub fn schedule_in(&mut self, d: SimDuration, action: impl FnOnce(&mut Kernel) + 'static) {
        self.schedule_at(self.now + d, action);
    }

    /// Create a fresh pending completion.
    pub fn completion(&mut self) -> Completion {
        Completion::new()
    }

    /// Create a completion that fires `d` from now.
    pub fn completion_in(&mut self, d: SimDuration) -> Completion {
        let c = Completion::new();
        let c2 = c.clone();
        self.schedule_in(d, move |k| k.complete(&c2));
        c
    }

    /// Create a completion that fires when all of `parts` have fired.
    /// An empty slice yields an already-done completion.
    pub fn completion_all(&mut self, parts: &[Completion]) -> Completion {
        let all = Completion::new();
        let pending: Vec<&Completion> = parts.iter().filter(|c| !c.is_done()).collect();
        if pending.is_empty() {
            self.complete(&all);
            return all;
        }
        let count = Rc::new(Cell::new(pending.len()));
        for part in pending {
            let all = all.clone();
            let count = Rc::clone(&count);
            self.on_complete(part, move |k| {
                count.set(count.get() - 1);
                if count.get() == 0 {
                    k.complete(&all);
                }
            });
        }
        all
    }

    /// Fire a completion: wake all waiting threads and run all chained
    /// callbacks (in registration order). Completing twice is a no-op.
    pub fn complete(&mut self, c: &Completion) {
        let prev = c.0.replace(CompletionState::Done);
        if let CompletionState::Pending { waiters, callbacks } = prev {
            for tid in waiters {
                self.sched.make_runnable(tid);
            }
            for cb in callbacks {
                cb.call(self);
            }
        }
    }

    /// Run `action` when `c` completes; immediately if it already has.
    pub fn on_complete(&mut self, c: &Completion, action: impl FnOnce(&mut Kernel) + 'static) {
        let mut st = c.0.borrow_mut();
        match &mut *st {
            CompletionState::Pending { callbacks, .. } => {
                callbacks.push(SmallAction::new(action));
            }
            CompletionState::Done => {
                drop(st);
                action(self);
            }
        }
    }

    /// Register sim thread `tid` as a waiter. Returns `true` if the
    /// completion was already done (no registration happened).
    pub(crate) fn add_waiter(&mut self, c: &Completion, tid: usize) -> bool {
        let mut st = c.0.borrow_mut();
        match &mut *st {
            CompletionState::Pending { waiters, .. } => {
                waiters.push(tid);
                false
            }
            CompletionState::Done => true,
        }
    }

    /// Execute the earliest pending event (advancing the clock to it).
    /// Returns `false` if the queue was empty.
    ///
    /// The re-ratings that this instant's reshares deferred are flushed
    /// (see `Kernel::flush_reshares`) before the clock moves past the
    /// instant and before an empty queue is reported; the flush queues the
    /// flows' completions, so only then is the queue really empty.
    ///
    /// A stale flow completion (generation mismatch) is discarded without
    /// advancing the clock or counting as executed; the call still returns
    /// `true` because the queue made progress. When enough stale events
    /// accumulate (`STALE_COMPACT_MIN`, and at least half the queue), the
    /// heap is rebuilt without them so their `O(log n)` sift cost and
    /// memory are not paid for the rest of the run.
    pub fn step(&mut self) -> bool {
        // The emptiness test stays inline: it runs on every event.
        if !self.flows.dirty.is_empty() && self.queue.peek().is_none_or(|ev| ev.at > self.now) {
            self.flush_reshares();
        }
        if self.stale_pending >= STALE_COMPACT_MIN && self.stale_pending * 2 >= self.queue.len() {
            self.compact_queue();
        }
        match self.queue.pop() {
            Some(ev) => {
                match ev.kind {
                    EventKind::Call(action) => {
                        debug_assert!(ev.at >= self.now, "event queue went backwards");
                        self.now = ev.at;
                        self.executed_events += 1;
                        action.call(self);
                    }
                    EventKind::Wake { tid, token } => {
                        debug_assert!(ev.at >= self.now, "event queue went backwards");
                        self.now = ev.at;
                        self.executed_events += 1;
                        self.sched.fire_wake(tid, token);
                    }
                    EventKind::FlowFinish { fid, gen } => {
                        if self.flows.is_fresh(fid, gen) {
                            debug_assert!(ev.at >= self.now, "event queue went backwards");
                            self.now = ev.at;
                            self.executed_events += 1;
                            self.finish_flow(fid, gen);
                        } else {
                            self.stale_pending = self.stale_pending.saturating_sub(1);
                            self.stale_dropped += 1;
                        }
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Rebuild the event heap without stale flow completions. Pop order of
    /// the survivors is unchanged: the comparator is the same and `(time,
    /// seq)` keys are unique.
    fn compact_queue(&mut self) {
        let before = self.queue.len();
        let mut events = std::mem::take(&mut self.queue).into_vec();
        events.retain(|ev| match ev.kind {
            EventKind::Call(_) | EventKind::Wake { .. } => true,
            EventKind::FlowFinish { fid, gen } => self.flows.is_fresh(fid, gen),
        });
        let dropped = before - events.len();
        self.queue = BinaryHeap::from(events);
        self.stale_pending = self.stale_pending.saturating_sub(dropped);
        self.stale_dropped += dropped as u64;
        self.compactions += 1;
    }

    /// Run the event loop until the queue drains. For pure event-driven
    /// simulations (no sim threads).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run the event loop until `c` completes or the queue drains. Returns
    /// `true` if `c` completed. Pending flow re-ratings are flushed before
    /// it returns.
    pub fn run_until(&mut self, c: &Completion) -> bool {
        while !c.is_done() {
            if !self.step() {
                return false;
            }
        }
        self.flush_dirty_flows();
        true
    }

    /// Flush pending flow re-ratings, if there are any. The emptiness test
    /// is inlined into its callers, which run on every rank resume.
    #[inline(always)]
    pub(crate) fn flush_dirty_flows(&mut self) {
        if !self.flows.dirty.is_empty() {
            self.flush_reshares();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_execute_in_time_order() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for (i, us) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let log = Rc::clone(&log);
            k.schedule_in(SimDuration::from_micros(us), move |_| {
                log.borrow_mut().push(i)
            });
        }
        k.run_to_completion();
        assert_eq!(*log.borrow(), vec![2, 3, 1]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(30));
    }

    #[test]
    fn same_time_events_execute_in_schedule_order() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for i in 0..100u32 {
            let log = Rc::clone(&log);
            k.schedule_in(SimDuration::from_micros(5), move |_| {
                log.borrow_mut().push(i)
            });
        }
        k.run_to_completion();
        assert_eq!(*log.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_callbacks() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(vec![]));
        let l2 = Rc::clone(&log);
        k.schedule_in(SimDuration::from_micros(1), move |k| {
            l2.borrow_mut().push("outer");
            let l3 = Rc::clone(&l2);
            k.schedule_in(SimDuration::from_micros(1), move |_| {
                l3.borrow_mut().push("inner");
            });
        });
        k.run_to_completion();
        assert_eq!(*log.borrow(), vec!["outer", "inner"]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(2));
    }

    #[test]
    fn completion_fires_callbacks_in_order() {
        let mut k = Kernel::new();
        let c = k.completion();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for i in 0..5u32 {
            let log = Rc::clone(&log);
            k.on_complete(&c, move |_| log.borrow_mut().push(i));
        }
        assert!(!c.is_done());
        k.complete(&c);
        assert!(c.is_done());
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn on_complete_after_done_runs_immediately() {
        let mut k = Kernel::new();
        let c = k.completion();
        k.complete(&c);
        let hit = Rc::new(RefCell::new(false));
        let h2 = Rc::clone(&hit);
        k.on_complete(&c, move |_| *h2.borrow_mut() = true);
        assert!(*hit.borrow());
    }

    #[test]
    fn double_complete_is_noop() {
        let mut k = Kernel::new();
        let c = k.completion();
        let hits = Rc::new(RefCell::new(0));
        let h2 = Rc::clone(&hits);
        k.on_complete(&c, move |_| *h2.borrow_mut() += 1);
        k.complete(&c);
        k.complete(&c);
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn completion_all_waits_for_every_part() {
        let mut k = Kernel::new();
        let a = k.completion_in(SimDuration::from_micros(10));
        let b = k.completion_in(SimDuration::from_micros(20));
        let all = k.completion_all(&[a, b]);
        assert!(k.run_until(&all));
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(20));
    }

    #[test]
    fn completion_all_empty_is_done() {
        let mut k = Kernel::new();
        let all = k.completion_all(&[]);
        assert!(all.is_done());
    }

    #[test]
    fn run_until_reports_unreachable_completion() {
        let mut k = Kernel::new();
        let c = k.completion();
        assert!(!k.run_until(&c));
    }

    #[test]
    fn schedule_into_past_clamps_to_now() {
        let mut k = Kernel::new();
        let fired_at = Rc::new(RefCell::new(SimTime::ZERO));
        let f2 = Rc::clone(&fired_at);
        k.schedule_in(SimDuration::from_micros(10), move |k| {
            let f3 = Rc::clone(&f2);
            // deliberately "before now"
            k.schedule_at(SimTime::ZERO, move |k| *f3.borrow_mut() = k.now());
        });
        k.run_to_completion();
        assert_eq!(
            *fired_at.borrow(),
            SimTime::ZERO + SimDuration::from_micros(10)
        );
    }
}

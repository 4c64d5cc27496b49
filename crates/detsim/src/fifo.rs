//! FIFO service resources.
//!
//! A [`FifoId`] names a serial queue: tasks submitted to it run one at a
//! time, in submission order. A task is an *asynchronous* unit of work:
//! when started it receives a [`FifoToken`] and may kick off flows or
//! schedule events; the FIFO stays busy until someone calls
//! [`Kernel::fifo_task_done`] with the token.
//!
//! The simulated machine's FIFOs are its CUDA streams. What several
//! streams or ranks share — a GPU's copy and kernel engine, a rank's
//! shared-memory pump, a NIC — is a flow link, whose bandwidth concurrent
//! transfers divide.

use std::collections::VecDeque;

use crate::kernel::Kernel;
use crate::time::SimTime;

/// Identifies a FIFO resource.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FifoId(usize);

/// Proof that a task occupies a FIFO; hand it back via
/// [`Kernel::fifo_task_done`] to release it.
#[derive(Debug)]
#[must_use = "the FIFO is held until fifo_task_done is called with this token"]
pub struct FifoToken {
    fifo: FifoId,
}

type Task = Box<dyn FnOnce(&mut Kernel, FifoToken)>;

struct Fifo {
    name: String,
    busy: bool,
    /// Waiting tasks with their submission times (for wait-time metrics).
    queue: VecDeque<(SimTime, Task)>,
}

pub(crate) struct FifoTable {
    fifos: Vec<Fifo>,
}

impl FifoTable {
    pub(crate) fn new() -> Self {
        FifoTable { fifos: Vec::new() }
    }
}

impl Kernel {
    /// Create a serial FIFO resource.
    pub fn add_fifo(&mut self, name: impl Into<String>) -> FifoId {
        self.fifos.fifos.push(Fifo {
            name: name.into(),
            busy: false,
            queue: VecDeque::new(),
        });
        FifoId(self.fifos.fifos.len() - 1)
    }

    /// Submit a task. It starts immediately if the FIFO is idle, otherwise
    /// when every earlier task has released it, in submission order.
    pub fn fifo_submit(
        &mut self,
        fifo: FifoId,
        task: impl FnOnce(&mut Kernel, FifoToken) + 'static,
    ) {
        let now = self.now();
        let f = &mut self.fifos.fifos[fifo.0];
        if !f.busy {
            f.busy = true;
            if self.metrics.is_enabled() {
                let name: &str = &self.fifos.fifos[fifo.0].name;
                self.metrics
                    .observe("fifo", "wait_ps", &[("fifo", name)], 0.0);
            }
            task(self, FifoToken { fifo });
        } else {
            f.queue.push_back((now, Box::new(task)));
            if self.metrics.is_enabled() {
                let name: &str = &self.fifos.fifos[fifo.0].name;
                self.metrics
                    .gauge_add("fifo", "queue_depth", &[("fifo", name)], 1.0);
            }
        }
    }

    /// Release the FIFO held by `token`; starts the next queued task, if any.
    pub fn fifo_task_done(&mut self, token: FifoToken) {
        let now = self.now();
        let f = &mut self.fifos.fifos[token.fifo.0];
        debug_assert!(f.busy, "fifo_task_done without active task");
        f.busy = !f.queue.is_empty();
        if let Some((submitted, next)) = f.queue.pop_front() {
            if self.metrics.is_enabled() {
                let name: &str = &self.fifos.fifos[token.fifo.0].name;
                let wait = now.since(submitted).picos() as f64;
                self.metrics
                    .observe("fifo", "wait_ps", &[("fifo", name)], wait);
                self.metrics
                    .gauge_add("fifo", "queue_depth", &[("fifo", name)], -1.0);
            }
            next(self, FifoToken { fifo: token.fifo });
        }
    }

    /// Human-readable FIFO name.
    pub fn fifo_name(&self, fifo: FifoId) -> &str {
        &self.fifos.fifos[fifo.0].name
    }

    /// Diagnostic: each busy FIFO with the count of tasks queued behind it.
    pub fn busy_fifos(&self) -> Vec<(String, usize)> {
        self.fifos
            .fifos
            .iter()
            .filter(|f| f.busy)
            .map(|f| (f.name.clone(), f.queue.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn serial_fifo_serializes() {
        let mut k = Kernel::new();
        let f = k.add_fifo("stream");
        let ends: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        for _ in 0..3 {
            let ends = Rc::clone(&ends);
            k.fifo_submit(f, move |k, token| {
                k.schedule_in(SimDuration::from_micros(10), move |k| {
                    k.fifo_task_done(token);
                    ends.borrow_mut().push(k.now().picos());
                });
            });
        }
        k.run_to_completion();
        let e = ends.borrow();
        assert_eq!(
            *e,
            vec![
                SimDuration::from_micros(10).picos(),
                SimDuration::from_micros(20).picos(),
                SimDuration::from_micros(30).picos()
            ]
        );
    }

    #[test]
    fn async_task_holds_slot_until_done() {
        let mut k = Kernel::new();
        let f = k.add_fifo("stream");
        let l = k.add_link("link", 100.0, SimDuration::ZERO);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(vec![]));
        // Task 1: a flow of 100 bytes (1 second), FIFO held until it lands.
        let o1 = Rc::clone(&order);
        k.fifo_submit(f, move |k, token| {
            k.start_flow(&[l], 100, move |k| {
                o1.borrow_mut().push("flow-done");
                k.fifo_task_done(token);
            });
        });
        // Task 2: instantaneous, but must wait for task 1's flow.
        let o2 = Rc::clone(&order);
        k.fifo_submit(f, move |k, token| {
            o2.borrow_mut().push("task2");
            k.fifo_task_done(token);
        });
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec!["flow-done", "task2"]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn backlog_tracks_queue() {
        let mut k = Kernel::new();
        let f = k.add_fifo("q");
        for _ in 0..5 {
            k.fifo_submit(f, |k, token| {
                k.schedule_in(SimDuration::from_micros(1), move |k| {
                    k.fifo_task_done(token)
                });
            });
        }
        // One task served, four queued behind it.
        assert_eq!(k.busy_fifos(), vec![("q".to_string(), 4)]);
        k.run_to_completion();
        assert!(k.busy_fifos().is_empty());
        assert_eq!(k.fifo_name(f), "q");
    }
}

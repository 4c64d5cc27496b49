//! The benchmark's own spans: one per call into a layer, recorded from
//! the benchmark's side of the call. Kept in memory, written at exit.
//!
//! A span carries its name, start and end (nanoseconds since the tracer
//! was created), its parent span, and for service spans the job id. A
//! layer's *self time* is its span's duration minus the part of that
//! interval covered by its child spans; [`Tracer::self_times`] computes
//! it per span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `core.build`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Service job id, for spans of one job.
    pub job: Option<u64>,
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Clone, Debug, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus the part covered by children, ms.
    pub self_ms: f64,
}

/// Span recorder. When off, [`Tracer::span`] records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]` under `parent` (0 for a root) and return the
    /// new span's id, to be used as the parent of its children. Returns 0
    /// without recording when the tracer is off.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        job: Option<u64>,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
            job,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        id
    }

    /// Per-name span count, total and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += total as f64 / 1e6;
            e.self_ms += (total - covered) as f64 / 1e6;
        }
        out
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.span("root", 0, at(0), at(10), None);
        // Overlapping children cover [2, 6]; one sticks out past the end.
        t.span("child", root, at(2), at(5), None);
        t.span("child", root, at(4), at(6), None);
        t.span("child", root, at(9), at(12), None);
        let st = t.self_times();
        assert!((st["root"].total_ms - 10.0).abs() < 1e-9);
        assert!((st["root"].self_ms - 5.0).abs() < 1e-9);
        assert_eq!(st["child"].count, 3);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", 0, now, now, None), 0);
        assert!(t.to_jsonl().is_empty());
    }
}

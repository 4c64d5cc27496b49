//! Unified metrics registry: counters, gauges-with-max, and (time-)weighted
//! histograms, keyed by structured `(subsystem, name, labels)` ids.
//!
//! Every layer of the simulation stack (flow network, FIFO engines, the
//! simulated CUDA runtime, the simulated MPI library, the halo-exchange
//! engine) records into the one registry hanging off
//! [`Kernel::metrics`](crate::Kernel). Like [`Trace`](crate::trace::Trace),
//! the registry is **disabled by default**: recording methods return after a
//! single branch, so an un-instrumented run pays nothing measurable. Call
//! [`Metrics::enable`] before the run to collect.
//!
//! The registry only observes. Instrumentation records into it, and the
//! only read is [`Metrics::report`], a snapshot for artifacts and tests. No
//! control decision reads it, so enabling it never changes a virtual-time
//! result.
//!
//! Metric kinds:
//!
//! * **Counter** — a monotonically increasing `u64` (bytes delivered,
//!   messages matched, kernels launched).
//! * **Gauge** — a `f64` level with its observed maximum (concurrent flows,
//!   queue depth; the max is the high-water mark).
//! * **Histogram** — weighted observations with count / weight / sum / min /
//!   max and power-of-two buckets. With weight = elapsed seconds this is a
//!   *time-weighted* distribution (link utilization over time); with
//!   weight = 1 it is a plain sample distribution (wait times).
//!
//! Determinism: identical simulations produce bit-identical registries; the
//! id keys are ordered (`BTreeMap`) so reports render in a stable order.
//!
//! ```
//! use detsim::metrics::Metrics;
//!
//! let mut m = Metrics::new();
//! m.enable();
//! m.counter_add("flow", "link_delivered_bytes", &[("link", "nic")], 128);
//! m.counter_add("flow", "link_delivered_bytes", &[("link", "nic")], 72);
//! let report = m.report();
//! assert_eq!(report.counter("flow", "link_delivered_bytes", &[("link", "nic")]), 200);
//! assert!(report.to_json().contains("\"link_delivered_bytes\""));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Number of power-of-two histogram buckets. Bucket `0` holds values
/// `<= 1`; bucket `i` holds values in `(2^(i-1), 2^i]`; the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 64;

/// Version stamped into every persisted metrics/result JSON artifact
/// (`"schema_version"`), so artifacts written by different PRs stay
/// comparable: bump it on any breaking change to the JSON shape described
/// in `docs/OBSERVABILITY.md`. Version 1 is the PR-1 format plus the
/// version field itself.
pub const SCHEMA_VERSION: u32 = 1;

/// Structured identity of a metric: which subsystem emitted it, what it is
/// called, and the label set distinguishing instances (e.g. which link).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Emitting subsystem (`"flow"`, `"fifo"`, `"gpusim"`, `"mpisim"`,
    /// `"exchange"`).
    pub subsystem: &'static str,
    /// Metric name within the subsystem, with the unit as a suffix where it
    /// is not obvious (`_bytes`, `_ps`).
    pub name: &'static str,
    /// Key/value labels, in the order the instrumentation site lists them.
    pub labels: Vec<(&'static str, String)>,
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.subsystem, self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// A level with its observed maximum (the high-water mark).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Gauge {
    /// Current level.
    pub current: f64,
    /// Highest level ever set.
    pub max: f64,
}

impl Gauge {
    /// Set the level, raising `max` if exceeded.
    pub fn set(&mut self, value: f64) {
        self.current = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&mut self, delta: f64) {
        self.set(self.current + delta);
    }
}

/// Weighted observations: count, total weight, weighted sum, min/max, and
/// power-of-two buckets of weight by value.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of observations (including zero-weight ones).
    pub count: u64,
    /// Total weight observed.
    pub weight: f64,
    /// Sum of `value * weight` over all observations.
    pub sum: f64,
    /// Smallest value observed; meaningless while `count == 0`.
    pub min: f64,
    /// Largest value observed; meaningless while `count == 0`.
    pub max: f64,
    buckets: [f64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            weight: 0.0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0.0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for `value`: 0 for values `<= 1`, otherwise
    /// `ceil(log2(value))`, clamped to the last bucket.
    pub fn bucket_of(value: f64) -> usize {
        // NaN also lands in bucket 0.
        if value.is_nan() || value <= 1.0 {
            return 0;
        }
        let b = value.log2().ceil();
        if b >= (HIST_BUCKETS - 1) as f64 {
            HIST_BUCKETS - 1
        } else {
            b as usize
        }
    }

    /// Record `value` with weight 1.
    pub fn observe(&mut self, value: f64) {
        self.observe_weighted(value, 1.0);
    }

    /// Record `value` carrying `weight` (e.g. the seconds a link spent at a
    /// utilization level). Zero-weight observations still update count and
    /// min/max.
    pub fn observe_weighted(&mut self, value: f64, weight: f64) {
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        if weight > 0.0 {
            self.weight += weight;
            self.sum += value * weight;
            self.buckets[Self::bucket_of(value)] += weight;
        }
    }

    /// Weighted mean of the observations (0 if nothing with positive weight
    /// was recorded).
    pub fn mean(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            0.0
        }
    }

    /// The non-empty buckets as `(upper_bound, weight)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, w)| (2f64.powi(i as i32), *w))
            .collect()
    }
}

/// A recorded metric value of one of the three kinds.
// Histograms dominate the enum size, but registries hold at most a few
// hundred values, so the indirection of boxing isn't worth it.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Level with high-water mark.
    Gauge(Gauge),
    /// Weighted value distribution.
    Histogram(Histogram),
}

/// The registry. Lives on [`Kernel::metrics`](crate::Kernel); disabled (and
/// free) until [`Metrics::enable`] is called.
#[derive(Default)]
pub struct Metrics {
    enabled: bool,
    values: BTreeMap<MetricId, MetricValue>,
}

fn make_id(
    subsystem: &'static str,
    name: &'static str,
    labels: &[(&'static str, &str)],
) -> MetricId {
    MetricId {
        subsystem,
        name,
        labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
    }
}

impl Metrics {
    /// A disabled, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin recording. Instrumentation sites are no-ops until this is
    /// called.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is active. Instrumentation sites with non-trivial
    /// label construction should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    /// No-op while disabled. Panics if the id is already a non-counter.
    pub fn counter_add(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
        delta: u64,
    ) {
        if !self.enabled {
            return;
        }
        match self
            .values
            .entry(make_id(subsystem, name, labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            _ => panic!("metric {subsystem}/{name} is not a counter"),
        }
    }

    /// Adjust a gauge level by `delta` (tracking the max). No-op while
    /// disabled.
    pub fn gauge_add(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
        delta: f64,
    ) {
        if !self.enabled {
            return;
        }
        match self
            .values
            .entry(make_id(subsystem, name, labels))
            .or_insert(MetricValue::Gauge(Gauge::default()))
        {
            MetricValue::Gauge(g) => g.add(delta),
            _ => panic!("metric {subsystem}/{name} is not a gauge"),
        }
    }

    /// Record a histogram observation with weight 1. No-op while disabled.
    pub fn observe(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
    ) {
        self.observe_weighted(subsystem, name, labels, value, 1.0);
    }

    /// Record a weighted histogram observation (weight = elapsed seconds for
    /// time-weighted series). No-op while disabled.
    pub fn observe_weighted(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
        weight: f64,
    ) {
        if !self.enabled {
            return;
        }
        match self
            .values
            .entry(make_id(subsystem, name, labels))
            .or_insert(MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.observe_weighted(value, weight),
            _ => panic!("metric {subsystem}/{name} is not a histogram"),
        }
    }

    /// Snapshot the registry into an immutable, renderable report.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            entries: self
                .values
                .iter()
                .map(|(id, v)| (id.clone(), v.clone()))
                .collect(),
        }
    }
}

/// An immutable snapshot of a [`Metrics`] registry, renderable as an aligned
/// text table ([`MetricsReport::to_text`]) or JSON
/// ([`MetricsReport::to_json`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    entries: Vec<(MetricId, MetricValue)>,
}

/// Format an `f64` for JSON: shortest round-trip representation; non-finite
/// values (possible only in never-observed min/max) become `null`.
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` to `out` as the body of a JSON string: quotes, backslashes
/// and control characters escaped. The one escaper behind every JSON
/// artifact: metrics reports, Chrome traces and the job service's wire
/// format.
pub fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl MetricsReport {
    /// All entries, ordered by id.
    pub fn entries(&self) -> &[(MetricId, MetricValue)] {
        &self.entries
    }

    /// Look up one entry by id components.
    pub fn get(
        &self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(id, _)| {
                id.subsystem == subsystem
                    && id.name == name
                    && id.labels.len() == labels.len()
                    && id
                        .labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
            })
            .map(|(_, v)| v)
    }

    /// Read a counter entry (0 if absent).
    pub fn counter(&self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(subsystem, name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Render as an aligned text table, one metric per row.
    pub fn to_text(&self) -> String {
        let ids: Vec<String> = self.entries.iter().map(|(id, _)| id.to_string()).collect();
        let idw = ids.iter().map(|s| s.len()).max().unwrap_or(6).max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:<idw$}  {:<9}  value", "metric", "kind");
        let _ = writeln!(out, "{:-<idw$}  {:-<9}  {:-<40}", "", "", "");
        for (id_str, (_, v)) in ids.iter().zip(self.entries.iter()) {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{id_str:<idw$}  {:<9}  {c}", "counter");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{id_str:<idw$}  {:<9}  current={} max={}",
                        "gauge", g.current, g.max
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{id_str:<idw$}  {:<9}  count={} mean={:.6} min={} max={} weight={:.6}",
                        "histogram",
                        h.count,
                        h.mean(),
                        if h.count > 0 { h.min } else { 0.0 },
                        if h.count > 0 { h.max } else { 0.0 },
                        h.weight,
                    );
                }
            }
        }
        out
    }

    /// Serialize as JSON: `{"schema_version": N, "metrics": [entry, ...]}`
    /// where each entry carries `subsystem`, `name`, `labels` (object),
    /// `type`, and kind-specific fields. Hand-rolled writer — the format is
    /// small and this avoids a serialization dependency. See
    /// `docs/OBSERVABILITY.md` for the schema and [`SCHEMA_VERSION`] for
    /// the versioning contract.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema_version\":{SCHEMA_VERSION},\"metrics\":[\n");
        for (i, (id, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"subsystem\":\"");
            json_escape(id.subsystem, &mut out);
            out.push_str("\",\"name\":\"");
            json_escape(id.name, &mut out);
            out.push_str("\",\"labels\":{");
            for (j, (k, val)) in id.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, &mut out);
                out.push_str("\":\"");
                json_escape(val, &mut out);
                out.push('"');
            }
            out.push_str("},");
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{c}");
                }
                MetricValue::Gauge(g) => {
                    out.push_str("\"type\":\"gauge\",\"current\":");
                    json_f64(g.current, &mut out);
                    out.push_str(",\"max\":");
                    json_f64(g.max, &mut out);
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(out, "\"type\":\"histogram\",\"count\":{},", h.count);
                    out.push_str("\"weight\":");
                    json_f64(h.weight, &mut out);
                    out.push_str(",\"sum\":");
                    json_f64(h.sum, &mut out);
                    out.push_str(",\"mean\":");
                    json_f64(h.mean(), &mut out);
                    out.push_str(",\"min\":");
                    json_f64(if h.count > 0 { h.min } else { 0.0 }, &mut out);
                    out.push_str(",\"max\":");
                    json_f64(if h.count > 0 { h.max } else { 0.0 }, &mut out);
                    out.push_str(",\"buckets\":[");
                    for (j, (le, w)) in h.nonzero_buckets().into_iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"le\":");
                        json_f64(le, &mut out);
                        out.push_str(",\"weight\":");
                        json_f64(w, &mut out);
                        out.push('}');
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = Metrics::new();
        m.counter_add("flow", "x_bytes", &[], 10);
        m.gauge_add("flow", "depth", &[], 1.0);
        m.observe("flow", "wait_ps", &[], 5.0);
        assert!(m.report().entries().is_empty());
    }

    #[test]
    fn counter_accumulates() {
        let mut m = Metrics::new();
        m.enable();
        m.counter_add("a", "c", &[("k", "v")], 3);
        m.counter_add("a", "c", &[("k", "v")], 4);
        m.counter_add("a", "c", &[("k", "w")], 1);
        let r = m.report();
        assert_eq!(r.counter("a", "c", &[("k", "v")]), 7);
        assert_eq!(r.counter("a", "c", &[("k", "w")]), 1);
        assert_eq!(r.entries().len(), 2);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut g = Gauge::default();
        g.add(2.0);
        g.add(3.0);
        g.add(-4.0);
        assert_eq!(g.current, 1.0);
        assert_eq!(g.max, 5.0);
        g.set(0.5);
        assert_eq!(g.max, 5.0);
    }

    #[test]
    fn histogram_stats_and_buckets() {
        let mut h = Histogram::default();
        h.observe(0.5); // bucket 0
        h.observe(3.0); // (2,4] -> bucket 2
        h.observe_weighted(100.0, 2.0); // (64,128] -> bucket 7
        assert_eq!(h.count, 3);
        assert_eq!(h.weight, 4.0);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - (0.5 + 3.0 + 200.0) / 4.0).abs() < 1e-12);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(1.0, 1.0), (4.0, 1.0), (128.0, 2.0)]
        );
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_of(-1.0), 0);
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(1.0), 0);
        assert_eq!(Histogram::bucket_of(2.0), 1);
        assert_eq!(Histogram::bucket_of(2.1), 2);
        assert_eq!(Histogram::bucket_of(4.0), 2);
        assert_eq!(Histogram::bucket_of(f64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn report_lookup_and_text() {
        let mut m = Metrics::new();
        m.enable();
        m.counter_add("flow", "link_delivered_bytes", &[("link", "nic")], 42);
        m.gauge_add("fifo", "queue_depth", &[("fifo", "s0")], 2.0);
        m.observe("mpisim", "match_latency_ps", &[], 1000.0);
        let r = m.report();
        assert_eq!(
            r.counter("flow", "link_delivered_bytes", &[("link", "nic")]),
            42
        );
        assert!(r.get("fifo", "queue_depth", &[("fifo", "s0")]).is_some());
        assert!(r.get("fifo", "queue_depth", &[("fifo", "nope")]).is_none());
        let text = r.to_text();
        assert!(
            text.contains("flow/link_delivered_bytes{link=nic}"),
            "{text}"
        );
        assert!(text.contains("counter"), "{text}");
        assert!(text.contains("42"), "{text}");
    }

    #[test]
    fn report_json_schema() {
        let mut m = Metrics::new();
        m.enable();
        m.counter_add("flow", "link_delivered_bytes", &[("link", "a\"b")], 7);
        m.gauge_add("flow", "active_flows", &[], 2.0);
        m.observe_weighted("flow", "link_utilization", &[("link", "nic")], 0.5, 0.25);
        let json = m.report().to_json();
        assert!(
            json.starts_with(&format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"metrics\":["
            )),
            "{json}"
        );
        assert!(json.contains("\"type\":\"counter\",\"value\":7"), "{json}");
        assert!(json.contains("a\\\"b"), "label quotes escaped: {json}");
        assert!(
            json.contains("\"type\":\"gauge\",\"current\":2,\"max\":2"),
            "{json}"
        );
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(
            json.contains("\"buckets\":[{\"le\":1,\"weight\":0.25}]"),
            "{json}"
        );
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn report_is_deterministically_ordered() {
        let build = |order_flip: bool| {
            let mut m = Metrics::new();
            m.enable();
            if order_flip {
                m.counter_add("b", "x", &[], 1);
                m.counter_add("a", "x", &[], 1);
            } else {
                m.counter_add("a", "x", &[], 1);
                m.counter_add("b", "x", &[], 1);
            }
            m.report().to_json()
        };
        assert_eq!(build(false), build(true));
    }
}

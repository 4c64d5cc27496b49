//! Minimal wall-clock micro-benchmark harness.
//!
//! Stand-in for an external benchmarking framework: the workspace must
//! build with no registry access, so the `[[bench]]` targets (declared with
//! `harness = false`) are plain binaries driving this module. It measures
//! each registered function over a fixed number of samples and prints a
//! one-line summary (mean / min / max, plus throughput when a byte count
//! is attached). No statistics beyond that — these benches exist to be
//! runnable and comparable across commits, not to detect 1% regressions.
//!
//! ```
//! use stencil_bench::microbench::Bench;
//! let mut b = Bench::new("demo");
//! b.sample_size(3);
//! b.run("add", || std::hint::black_box(2u64) + 2);
//! ```

use std::time::Instant;

/// Wall-clock statistics of one benchmark, suitable for machine-readable
/// artifacts (see the `simperf` binary and `BENCH_pr2.json`).
#[derive(Clone, Debug)]
pub struct Summary {
    /// `group/name` of the benchmark.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean seconds per sample.
    pub mean_s: f64,
    /// Fastest sample in seconds (the stable, comparable number).
    pub min_s: f64,
    /// Slowest sample in seconds.
    pub max_s: f64,
}

/// A named group of micro-benchmarks sharing a sample count.
pub struct Bench {
    group: String,
    sample_size: usize,
    throughput_bytes: Option<u64>,
    warmup: bool,
}

impl Bench {
    /// Create a group; `group` prefixes every printed benchmark name.
    pub fn new(group: &str) -> Self {
        Bench {
            group: group.to_string(),
            sample_size: 10,
            throughput_bytes: None,
            warmup: true,
        }
    }

    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(1);
    }

    /// Enable or disable the untimed warm-up call before sampling (default
    /// on). Heavy end-to-end benches turn it off so one sample is one run.
    pub fn warmup(&mut self, on: bool) {
        self.warmup = on;
    }

    /// Attach a per-iteration byte count to subsequent [`Bench::run`]
    /// calls so the summary line includes throughput.
    pub fn throughput_bytes(&mut self, bytes: u64) {
        self.throughput_bytes = Some(bytes);
    }

    /// Time `f` over the configured number of samples (after one untimed
    /// warm-up call unless disabled via [`Bench::warmup`]) and print a
    /// summary line.
    pub fn run<T>(&self, name: &str, f: impl FnMut() -> T) {
        self.run_summary(name, f);
    }

    /// Like [`Bench::run`], but also return the wall-clock [`Summary`] so
    /// callers can build machine-readable artifacts.
    pub fn run_summary<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Summary {
        if self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed().as_secs_f64());
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        let mut line = format!(
            "{}/{name:<28} mean {:>12}  min {:>12}  max {:>12}",
            self.group,
            fmt_time(mean),
            fmt_time(min),
            fmt_time(max)
        );
        if let Some(bytes) = self.throughput_bytes {
            let gib = bytes as f64 / (1u64 << 30) as f64;
            line.push_str(&format!("  {:8.3} GiB/s", gib / mean));
        }
        println!("{line}");
        Summary {
            name: format!("{}/{name}", self.group),
            samples: samples.len(),
            mean_s: mean,
            min_s: min,
            max_s: max,
        }
    }
}

/// Render a seconds value with an adaptive unit.
fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports() {
        let mut b = Bench::new("t");
        b.sample_size(2);
        b.throughput_bytes(1024);
        b.run("noop", || 1u64 + 1);
    }

    #[test]
    fn time_formatting_units() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 us");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
    }
}

//! Result collection, the host stamp, and output: a human-readable table,
//! a JSON artifact with every metric and its sample count, and the final
//! one-line JSON summary on standard output.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` (or a diagnostic name).
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// Where the run happened: results from different hosts do not compare.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

impl Host {
    /// Stamp the current host.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Never search above the working directory for a repository.
        let cwd = std::env::current_dir().unwrap_or_default();
        let ceiling = cwd.parent().map(|p| p.to_path_buf()).unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".into()),
            commit: command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
            .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (untraced measurement).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced measurement).
    pub layer: Vec<Metric>,
    /// Diagnostics printed and written but not listed in `BENCHMARK.json`.
    pub extra: Vec<Metric>,
    /// Operations attempted: measured iterations or jobs, plus checks.
    pub attempted: u64,
    /// Failed operations and failed correctness checks, with reasons.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    fn push(list: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64, samples: usize) {
        list.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        Self::push(&mut self.e2e, name, unit, value, samples);
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        Self::push(&mut self.layer, name, unit, value, samples);
    }

    /// Add a diagnostic.
    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        Self::push(&mut self.extra, name, unit, value, samples);
    }

    /// The human-readable table.
    pub fn table(&self, header: &str, host: &Host) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let _ = writeln!(
            out,
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            host.nproc, host.cpu, host.rustc, host.commit
        );
        for (title, list) in [
            ("end-to-end", &self.e2e),
            ("per-layer", &self.layer),
            ("diagnostics", &self.extra),
        ] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for m in list {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "failed_frac {:.6} ({} of {} attempted)",
            self.failed_frac(),
            self.failures.len(),
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The JSON artifact: host stamp and every metric with its samples.
    pub fn artifact(&self, workload: &str, seed: u64, trace: bool, host: &Host) -> String {
        let q = svc::json::quote;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"suite\": \"perfbench\",");
        let _ = writeln!(out, "  \"workload\": {},", q(workload));
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"trace\": {trace},");
        let _ = writeln!(
            out,
            "  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}},",
            host.nproc,
            q(&host.cpu),
            q(&host.rustc),
            q(&host.commit)
        );
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failures.len());
        out.push_str("  \"metrics\": [\n");
        let all: Vec<(&str, &Metric)> = self
            .e2e
            .iter()
            .map(|m| ("end_to_end", m))
            .chain(self.layer.iter().map(|m| ("per_layer", m)))
            .chain(self.extra.iter().map(|m| ("diagnostic", m)))
            .collect();
        for (i, (kind, m)) in all.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"kind\": \"{kind}\", \"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}}}{}",
                q(&m.name),
                q(m.unit),
                svc::json::fmt_f64(m.value),
                m.samples,
                if i + 1 < all.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The final summary line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn summary_line(&self, trace: bool) -> String {
        let list = if trace { &self.layer } else { &self.e2e };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in list.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                svc::json::fmt_f64(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

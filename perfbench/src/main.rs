//! perfbench — the repository's benchmark: end-to-end and per-layer
//! wall-clock metrics of the simulator and the job service on three
//! workloads, with a correctness gate.
//!
//! ```text
//! perfbench --workload <weak-64n|transports-16n|svc-mix> --seed <n>
//!           --seconds <n> --trace <0|1> [--tiny] [--out DIR]
//! perfbench --compare A.json B.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics with the metrics registry
//! and the benchmark's spans on. The last line of standard output is a
//! JSON summary; the full result (host stamp, every metric with its
//! sample count) is written to `DIR/<workload>-seed<n>-trace<t>.json`,
//! and traced runs also write their spans as JSON lines. `--compare`
//! prints two result files side by side and flags results from different
//! hosts. See `perfbench/README.md`.

mod report;
mod service;
mod stats;
mod svcmix;
mod trace;
mod world;
mod worlds;

use std::path::PathBuf;
use std::time::Duration;

use report::{Host, Report};
use trace::Tracer;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Tiny shapes for the self-test.
    pub tiny: bool,
    /// Output directory for result and span files.
    pub out: PathBuf,
}

impl Args {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const WORKLOADS: [&str; 3] = ["weak-64n", "transports-16n", "svc-mix"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1 [--tiny] [--out DIR]\n       perfbench --compare A.json B.json",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut i = 0;
    while i < argv.len() {
        let val = || {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = val().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = PathBuf::from(val()),
            "--tiny" => {
                args.tiny = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// `--compare A B`: metric by metric, with a warning when the hosts differ.
fn compare(a: &str, b: &str) -> i32 {
    let load = |p: &str| -> svc::json::Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("read {p}: {e}")));
        svc::json::parse(&text).unwrap_or_else(|e| usage(&format!("{p}: {e}")))
    };
    let (ja, jb) = (load(a), load(b));
    let host = |j: &svc::json::Json| {
        j.get("host")
            .map(|h| {
                ["nproc", "cpu", "rustc", "commit"]
                    .iter()
                    .map(|k| match h.get(k) {
                        Some(svc::json::Json::Str(s)) => s.clone(),
                        Some(v) => v.as_f64().map(|x| x.to_string()).unwrap_or_default(),
                        None => String::new(),
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };
    let (ha, hb) = (host(&ja), host(&jb));
    for (k, (x, y)) in ["nproc", "cpu", "rustc"].iter().zip(ha.iter().zip(&hb)) {
        if x != y {
            println!(
                "WARNING: different hosts ({k}: {x:?} vs {y:?}); wall-clock numbers do not compare"
            );
        }
    }
    if ja.get("workload").and_then(|w| w.as_str()) != jb.get("workload").and_then(|w| w.as_str()) {
        println!("WARNING: different workloads");
    }
    let metrics = |j: &svc::json::Json| -> Vec<(String, f64, String)> {
        j.get("metrics")
            .and_then(|m| m.as_arr())
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    let mb = metrics(&jb);
    println!("{:<44} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for (name, va, unit) in metrics(&ja) {
        if let Some((_, vb, _)) = mb.iter().find(|(n, _, _)| *n == name) {
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            println!("{name:<44} {va:>14.4} {vb:>14.4} {ratio:>8.3} {unit}");
        }
    }
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        if argv.len() != 3 {
            usage("--compare takes two result files");
        }
        std::process::exit(compare(&argv[1], &argv[2]));
    }
    let args = parse_args(&argv);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        usage(&format!("create {}: {e}", args.out.display()));
    }
    let host = Host::detect();
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "weak-64n" | "transports-16n" => {
            let shape = if args.workload == "weak-64n" {
                worlds::weak_64n(args.seed, args.tiny)
            } else {
                worlds::transports_16n(args.seed, args.tiny)
            };
            if args.trace {
                worlds::run_traced(&shape, &args, &mut report, &tracer);
            } else {
                worlds::run_untraced(&shape, &args, &mut report);
            }
        }
        _ => {
            if args.trace {
                svcmix::run_traced(&args, &mut report, &tracer);
            } else {
                svcmix::run_untraced(&args, &mut report);
            }
        }
    }
    for m in report.e2e.iter_mut().chain(report.layer.iter_mut()) {
        if !m.value.is_finite() {
            report.failures.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    report.extra(
        "failed_frac",
        "ratio",
        report.failed_frac(),
        report.attempted as usize,
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let header = format!(
        "perfbench {} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " (tiny)" } else { "" }
    );
    let mut writes = vec![(
        args.out.join(format!("{stem}.json")),
        report.artifact(&args.workload, args.seed, args.trace, &host),
    )];
    if args.trace {
        writes.push((
            args.out.join(format!("{stem}.spans.jsonl")),
            tracer.to_jsonl(),
        ));
        for (name, st) in tracer.self_times() {
            report.extra(&format!("self_ms.{name}"), "ms", st.self_ms, st.count);
        }
    }
    for (path, text) in writes {
        if let Err(e) = std::fs::write(&path, text) {
            report
                .failures
                .push(format!("write {}: {e}", path.display()));
        }
    }
    print!("{}", report.table(&header, &host));
    println!("{}", report.summary_line(args.trace));
}

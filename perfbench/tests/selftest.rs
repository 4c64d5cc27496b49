//! Self-test: every workload at a tiny size, untraced and traced. Each
//! run must pass its correctness gate, emit every metric `BENCHMARK.json`
//! names for its mode with the listed unit, and print sample counts; the
//! service workload must also report how late its generator ran.

use std::path::PathBuf;
use std::process::Command;

use svc::json::{parse, Json};

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of the manifest.
fn metrics(m: &Json, section: &str) -> Vec<(String, String)> {
    m.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|e| {
            (
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                e.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: bool) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("output");
    let summary = parse(last).expect("last line is JSON");
    assert_eq!(
        summary.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} trace={trace} failed its gate:\n{stdout}"
    );
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    assert!(summary.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let emitted = summary.get("metrics").expect("metrics object");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let wanted = metrics(&manifest(), section);
    for (name, unit) in &wanted {
        let m = emitted
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing:\n{stdout}"));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
        // The table shows the same metric with its sample count.
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name) && l.contains(" n=")),
            "{workload}: no sample count for {name}"
        );
    }
    if let Json::Obj(map) = emitted {
        assert_eq!(
            map.len(),
            wanted.len(),
            "{workload}: extra metrics in the summary"
        );
    }
    if workload == "svc-mix" {
        assert!(
            stdout.contains("svc.gen_late_ms.p50"),
            "no generator lateness"
        );
        assert!(stdout.contains("job_p99_ms"), "no open-loop tail latency");
    }
}

#[test]
fn weak_64n_tiny() {
    check("weak-64n", false);
    check("weak-64n", true);
}

#[test]
fn transports_16n_tiny() {
    check("transports-16n", false);
    check("transports-16n", true);
}

#[test]
fn svc_mix_tiny() {
    check("svc-mix", false);
    check("svc-mix", true);
}

#[test]
fn manifest_sections_are_disjoint() {
    let m = manifest();
    let mut names: Vec<String> = metrics(&m, "end_to_end")
        .into_iter()
        .chain(metrics(&m, "per_layer"))
        .map(|(n, _)| n)
        .collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a metric name is listed twice");
}

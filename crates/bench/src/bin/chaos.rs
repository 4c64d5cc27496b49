//! Chaos bench: named deterministic fault scenarios over the simulated
//! cluster, measuring how halo-exchange time responds — and, for the
//! adaptation scenarios, how much of the loss adaptive re-placement
//! recovers.
//!
//! ```text
//! chaos [--quick] [--iters N] [--metrics PATH] [--validate] [--scenario NAME]...
//! ```
//!
//! Scenario names come from the [`faultsim::Scenario`] registry — the same
//! table the service wire format uses — so `--scenario` accepts exactly
//! the strings that `svc` specs do. Default: every registered scenario.
//!
//! - `degraded-triad`: the healthy placement's busiest NVLink drops to
//!   10% mid-run; compares no-adaptation, adaptive re-placement, and a
//!   fresh-optimal rebuild.
//! - `degraded-fat-node`: the same playbook on a 12-GPU fat node, where
//!   placement and re-placement run on the ladder's heuristic rung
//!   instead of exhaustive QAP search.
//! - `flapping-nic`: one node's NIC repeatedly stalls and recovers.
//! - `straggler-gpu`: one device's pack/unpack engine runs at 25%.
//! - `cascading`: triad degradation, then a NIC flap, then a straggler,
//!   all live at once by the end.
//! - `kill-respawn`: a rank dies mid-run alongside correlated fabric
//!   degradation, respawns, and rejoins; compares no adaptation,
//!   stop-the-world re-placement, overlapped localized re-placement, and
//!   a fresh-optimal rebuild.
//! - `oom-respawn`: the same recovery, but the kill is a device
//!   out-of-memory event (the device's memory limit shrinks to 5% while
//!   the rank is down).
//!
//! `--validate` asserts each scenario's contract (the fault bites;
//! adaptation recovers to within 10% of fresh-optimal; stop-the-world
//! pays more migration downtime than overlapped) — the CI hook.
//! `--metrics PATH` turns the metrics registry on and writes the last
//! scenario's snapshot; without it no world collects metrics, and the
//! stdout is the same.
//!
//! `flapping-nic`, `straggler-gpu` and `cascading` are plain service jobs:
//! a [`svc::JobSpec`] carrying the [`svc::FaultScenario`], measured clean
//! and faulted by [`svc::execute`]. The adaptation scenarios are
//! `stencil_bench::chaos::AdaptScenario`s, each run once per arm.
//!
//! Every scenario is driven by an explicit event table in virtual time —
//! no randomness — so repeated runs are bit-identical.

use faultsim::Scenario;
use stencil_bench::chaos::{heaviest_island_pair, AdaptScenario, Arm};
use stencil_bench::{fmt_ms, write_metrics_json};
use stencil_core::Partition;
use svc::{ClusterPreset, FaultScenario, JobSpec};
use topo::summit::summit_node;

struct ChaosArgs {
    quick: bool,
    iters: usize,
    metrics: Option<String>,
    validate: bool,
    scenarios: Vec<Scenario>,
}

fn parse_args() -> ChaosArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = ChaosArgs {
        quick: false,
        iters: 3,
        metrics: None,
        validate: false,
        scenarios: Vec::new(),
    };
    let operand = |i: usize| -> &String {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{} needs a value", args[i]))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                parsed.quick = true;
                i += 1;
            }
            "--validate" => {
                parsed.validate = true;
                i += 1;
            }
            "--iters" => {
                parsed.iters = operand(i).parse().expect("--iters N");
                i += 2;
            }
            "--metrics" => {
                parsed.metrics = Some(operand(i).clone());
                i += 2;
            }
            "--scenario" => {
                let name = operand(i);
                let scenario = Scenario::parse(name).unwrap_or_else(|| {
                    let known: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                    panic!("unknown scenario {name} (known: {})", known.join(", "))
                });
                parsed.scenarios.push(scenario);
                i += 2;
            }
            other => panic!(
                "unknown flag {other} (expected --quick / --iters N / --metrics PATH / --validate / --scenario NAME)"
            ),
        }
    }
    if parsed.scenarios.is_empty() {
        parsed.scenarios = Scenario::ALL
            .iter()
            .copied()
            .filter(|s| *s != Scenario::None)
            .collect();
    }
    parsed
}

fn main() {
    let args = parse_args();
    println!("Chaos — deterministic fault injection over the simulated cluster");
    println!("================================================================");
    let mut last_report = None;
    for scenario in &args.scenarios {
        match scenario {
            Scenario::None => println!("none: no faults injected, nothing to run"),
            Scenario::DegradedTriad => degraded_link(&args, false, &mut last_report),
            Scenario::DegradedFatNode => degraded_link(&args, true, &mut last_report),
            Scenario::FlappingNic => flapping_nic(&args, &mut last_report),
            Scenario::StragglerGpu => straggler_gpu(&args, &mut last_report),
            Scenario::Cascading => cascading(&args, &mut last_report),
            Scenario::KillRespawn => recovery(&args, false, &mut last_report),
            Scenario::OomRespawn => recovery(&args, true, &mut last_report),
        }
        println!();
    }
    if let (Some(path), Some(report)) = (args.metrics.as_deref(), last_report.as_ref()) {
        write_metrics_json(path, report);
    }
}

/// The link-degradation scenarios: adaptation vs. no adaptation vs.
/// fresh-optimal, on a Summit node or (`fat`) on a 12-GPU fat node, where
/// placement and adaptive re-placement run on the heuristic rung of the
/// solver ladder.
fn degraded_link(args: &ChaosArgs, fat: bool, last_report: &mut Option<detsim::MetricsReport>) {
    let depth = if fat { 352 } else { 350 };
    let domain = if args.quick {
        [720, 726, depth]
    } else {
        [1440, 1452, 2 * depth]
    };
    let (name, node, scenario) = if fat {
        (
            "degraded-fat-node",
            "1 fat node (12 GPUs, 4 islands)",
            AdaptScenario::degraded_fat_node(domain, 0.1),
        )
    } else {
        (
            "degraded-triad",
            "1 Summit node",
            AdaptScenario::degraded_triad(domain, 6, 0.1),
        )
    };
    let scenario = scenario.metrics(args.metrics.is_some());
    println!(
        "{name}: busiest placed NVLink on {node} -> 10% bandwidth, domain {}x{}x{}",
        domain[0], domain[1], domain[2]
    );
    let [no_adapt, adapt, fresh] = [Arm::NoAdapt, Arm::Overlapped, Arm::FreshOptimal]
        .map(|arm| scenario.run(arm, 3, args.iters));
    let adapted = adapt.adapted_node.is_some();
    println!(
        "  healthy placement, pre-fault : {}",
        fmt_ms(no_adapt.healthy_mean)
    );
    println!(
        "  stale placement,  post-fault : {}  ({:.2}x healthy)",
        fmt_ms(no_adapt.steady_mean),
        no_adapt.steady_mean / no_adapt.healthy_mean
    );
    println!(
        "  adaptive re-placement        : {}  (adapted: {adapted})",
        fmt_ms(adapt.steady_mean),
    );
    println!(
        "  fresh-optimal (lower bound)  : {}",
        fmt_ms(fresh.steady_mean)
    );
    println!(
        "  adaptation recovers to {:.2}x fresh-optimal; not adapting costs {:.2}x",
        adapt.steady_mean / fresh.steady_mean,
        no_adapt.steady_mean / adapt.steady_mean
    );
    if args.validate {
        assert!(adapted, "validate: adaptation failed to trigger");
        assert!(
            no_adapt.steady_mean > adapt.steady_mean,
            "validate: adapting should beat the stale placement"
        );
        println!("  validate: OK");
    }
    if let Some(r) = adapt.metrics {
        *last_report = Some(r);
    }
}

/// The rank-failure recovery scenario (and its OOM flavor): four arms over
/// the identical correlated fault — no adaptation, stop-the-world
/// re-placement, overlapped localized re-placement, fresh-optimal rebuild.
fn recovery(args: &ChaosArgs, oom: bool, last_report: &mut Option<detsim::MetricsReport>) {
    let domain = if args.quick {
        [720, 726, 350]
    } else {
        [1440, 1452, 700]
    };
    let (warmup, measure) = (3, args.iters.max(2));
    let cause = if oom {
        "oom-respawn: device 8 hits a shrunken memory limit and its rank 4 dies"
    } else {
        "kill-respawn: rank 4 dies"
    };
    println!(
        "{cause}, respawns 300us later; node 1's busiest NVLink -> 2%, inter-node switch -> 70%, domain {}x{}x{}",
        domain[0], domain[1], domain[2]
    );
    let scenario = AdaptScenario::kill_respawn(domain, oom).metrics(args.metrics.is_some());
    let [no_adapt, stw, ovl, fresh] = [
        Arm::NoAdapt,
        Arm::StopTheWorld,
        Arm::Overlapped,
        Arm::FreshOptimal,
    ]
    .map(|arm| scenario.run(arm, warmup, measure));
    println!(
        "  healthy placement, pre-fault : {}",
        fmt_ms(no_adapt.healthy_mean)
    );
    println!(
        "  stale placement, post-rejoin : {}  ({:.2}x healthy)",
        fmt_ms(no_adapt.steady_mean),
        no_adapt.steady_mean / no_adapt.healthy_mean
    );
    println!(
        "  stop-the-world re-placement  : {}  (migration downtime {})",
        fmt_ms(stw.steady_mean),
        fmt_ms(stw.migrate_secs)
    );
    println!(
        "  overlapped re-placement      : {}  (migration downtime {}, re-solved node {})",
        fmt_ms(ovl.steady_mean),
        fmt_ms(ovl.migrate_secs),
        match ovl.adapted_node {
            Some(Some(n)) => n.to_string(),
            Some(None) => "all".to_string(),
            None => "-".to_string(),
        }
    );
    println!(
        "  fresh-optimal (lower bound)  : {}",
        fmt_ms(fresh.steady_mean)
    );
    println!(
        "  overlapped recovers to {:.2}x fresh-optimal; not adapting costs {:.2}x; stop-the-world pays {:.2}x its migration downtime",
        ovl.steady_mean / fresh.steady_mean,
        no_adapt.steady_mean / ovl.steady_mean,
        stw.migrate_secs / ovl.migrate_secs
    );
    if args.validate {
        let [no_adapt_adapted, stw_adapted, ovl_adapted] =
            [&no_adapt, &stw, &ovl].map(|r| r.adapted_node.is_some());
        assert!(
            !no_adapt_adapted && stw_adapted && ovl_adapted,
            "validate: adaptation arms disagree (no_adapt {no_adapt_adapted}, stw {stw_adapted}, ovl {ovl_adapted})"
        );
        assert!(
            ovl.steady_mean <= 1.10 * fresh.steady_mean,
            "validate: overlapped recovery missed fresh-optimal: {:.3e} s vs {:.3e} s",
            ovl.steady_mean,
            fresh.steady_mean
        );
        assert!(
            no_adapt.steady_mean > 1.2 * ovl.steady_mean,
            "validate: not adapting should be measurably worse: {:.3e} s vs {:.3e} s",
            no_adapt.steady_mean,
            ovl.steady_mean
        );
        assert!(
            stw.migrate_secs > 1.1 * ovl.migrate_secs,
            "validate: stop-the-world should pay more downtime: {:.3e} s vs {:.3e} s",
            stw.migrate_secs,
            ovl.migrate_secs
        );
        println!("  validate: OK");
    }
    if let Some(r) = ovl.metrics {
        *last_report = Some(r);
    }
}

/// Compare a clean run against the same run with a fault scenario; the
/// faulted run collects metrics when `--metrics` asks for them.
fn faulted_vs_clean(
    label: &str,
    spec: JobSpec,
    faults: FaultScenario,
    args: &ChaosArgs,
    last_report: &mut Option<detsim::MetricsReport>,
) {
    let clean = svc::execute(&spec, None);
    let faulted = svc::execute(
        &spec.collect_metrics(args.metrics.is_some()).faults(faults),
        None,
    );
    println!(
        "  {:<28} clean {}  faulted {}  ({:.2}x)",
        label,
        fmt_ms(clean.mean),
        fmt_ms(faulted.mean),
        faulted.mean / clean.mean
    );
    if args.validate {
        assert!(
            faulted.mean >= clean.mean,
            "validate: the fault should not speed the exchange up"
        );
        println!("  validate: OK");
    }
    if let Some(r) = faulted.metrics {
        *last_report = Some(r);
    }
}

fn flapping_nic(args: &ChaosArgs, last_report: &mut Option<detsim::MetricsReport>) {
    let extent = if args.quick { 472 } else { 945 };
    println!("flapping-nic: node 0's NIC stalls 500us, recovers 250us, x3 (2 nodes, {extent}^3)");
    let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes: 2 }, 6, [extent; 3])
        .iters(args.iters.max(4));
    let faults = FaultScenario::FlappingNic {
        node: 0,
        first_down_us: 100,
        down_us: 500,
        up_us: 250,
        flaps: 3,
    };
    faulted_vs_clean("2n/6r staged over IB", spec, faults, args, last_report);
}

fn straggler_gpu(args: &ChaosArgs, last_report: &mut Option<detsim::MetricsReport>) {
    let extent = if args.quick { 375 } else { 750 };
    println!("straggler-gpu: device 2's pack engine at 5% from t=0 (1 node, {extent}^3)");
    let spec =
        JobSpec::new("bench", ClusterPreset::Summit { nodes: 1 }, 6, [extent; 3]).iters(args.iters);
    let faults = FaultScenario::StragglerGpu {
        device: 2,
        at_us: 0,
        speed_factor: 0.05,
    };
    faulted_vs_clean("1n/6r all methods", spec, faults, args, last_report);
}

fn cascading(args: &ChaosArgs, last_report: &mut Option<detsim::MetricsReport>) {
    let extent = if args.quick { 472 } else { 945 };
    println!("cascading: triad link -> NIC flaps -> straggler, 300us apart (2 nodes, {extent}^3)");
    let spec = JobSpec::new("bench", ClusterPreset::Summit { nodes: 2 }, 6, [extent; 3])
        .iters(args.iters.max(4));
    // Aim the triad fault at the busiest placed NVLink so it bites.
    let part = Partition::new(spec.domain, 2, 6);
    let (a, b) = heaviest_island_pair(&part, 0, &summit_node(), 3);
    let faults = FaultScenario::Cascading {
        node: 0,
        a,
        b,
        device: 2,
        at_us: 100,
        spacing_us: 300,
    };
    faulted_vs_clean("2n/6r all methods", spec, faults, args, last_report);
}

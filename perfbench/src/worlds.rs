//! The world workloads, `weak-64n` and `transports-16n`: the paper's
//! Fig. 12b weak-scaling shape (Summit nodes × 6 ranks, 750³ per GPU,
//! radius 2, 4 quantities, virtual data), run as one world per method set.
//!
//! A *round* is one exchange iteration of every method set. Counts and
//! the diagnostic quantiles "per step" are per round: on `weak-64n` (one
//! set) a round is one iteration; on `transports-16n` they sum one
//! iteration of each of the four sets. The end-to-end times combine the
//! sets as `n ×` their geometric mean instead (see [`round_of`]), so that
//! each set carries the same share of a relative change.
//!
//! The measured loop is cut into slices that visit the sets in turn, so
//! every set is sampled across the whole run rather than in one stretch
//! of it; a burst of host noise then weighs on all sets alike. Each slice
//! also runs a few set-up-only worlds per set for `setup_s`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use stencil_core::dim3::Boundary;
use stencil_core::{placement, Methods, Neighborhood, Partition, PlacementStrategy, Radius};
use svc::{ClusterPreset, JobSpec};
use topo::NodeDiscovery;

use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::world::{self, ms, Plan, WorldRun};
use crate::{service, Args};

/// Counting window: exchanges 1 and 2 (iteration 0 is left out as warm-up).
pub const WINDOW: (usize, usize) = (1, 3);

/// Set-up-only worlds (stopped after the build) per method set in each
/// slice of an untraced run, for `setup_s`.
const SETUP_PER_SLICE: usize = 7;

/// Slices of the measured loop; each slice runs one world per set.
const SLICES: usize = 5;

/// One method set of a world workload.
pub struct Set {
    /// Label used in diagnostics, e.g. `partitioned`.
    pub label: &'static str,
    /// Enabled methods.
    pub methods: Methods,
    /// CUDA-aware MPI.
    pub cuda_aware: bool,
}

/// A world workload: geometry plus method sets.
pub struct Shape {
    /// Summit nodes.
    pub nodes: usize,
    /// Cube extent per dimension.
    pub extent: u64,
    /// One world per set.
    pub sets: Vec<Set>,
}

/// `round(per_gpu * gpus^(1/3))`, the paper's weak-scaling extent (§IV-D),
/// plus `seed % 8` cells so each seed is its own input.
fn extent(per_gpu: u64, gpus: usize, seed: u64) -> u64 {
    (per_gpu as f64 * (gpus as f64).cbrt()).round() as u64 + seed % 8
}

/// `weak-64n`: 64 Summit nodes, `Methods::all()`.
pub fn weak_64n(seed: u64, tiny: bool) -> Shape {
    let (nodes, per_gpu) = if tiny { (2, 96) } else { (64, 750) };
    Shape {
        nodes,
        extent: extent(per_gpu, nodes * 6, seed),
        sets: vec![Set {
            label: "all",
            methods: Methods::all(),
            cuda_aware: false,
        }],
    }
}

/// `transports-16n`: 16 Summit nodes, one world per transport.
pub fn transports_16n(seed: u64, tiny: bool) -> Shape {
    let (nodes, per_gpu) = if tiny { (2, 96) } else { (16, 750) };
    let set = |label, methods, cuda_aware| Set {
        label,
        methods,
        cuda_aware,
    };
    Shape {
        nodes,
        extent: extent(per_gpu, nodes * 6, seed),
        sets: vec![
            set("staged", Methods::staged_only(), false),
            set("persistent", Methods::all().with_persistent(), false),
            set("partitioned", Methods::all().with_partitioned(), false),
            set("cuda-aware", Methods::all_with_cuda_aware(), true),
        ],
    }
}

impl Shape {
    /// The job spec of one set, one iteration (the service pass runs it).
    pub fn spec(&self, set: &Set) -> JobSpec {
        JobSpec::new(
            "bench",
            ClusterPreset::Summit { nodes: self.nodes },
            6,
            [self.extent; 3],
        )
        .methods(set.methods)
        .cuda_aware(set.cuda_aware)
        .iters(1)
    }
}

/// Run one world, turning a panic into a recorded failure.
pub fn guarded(report: &mut Report, what: &str, f: impl FnOnce() -> WorldRun) -> Option<WorldRun> {
    report.attempted += 1;
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(w) => Some(w),
        Err(_) => {
            report.fail(format!("{what}: world panicked"));
            None
        }
    }
}

/// The measured worlds of one run.
struct Measured {
    /// Per set, one world per slice.
    runs: Vec<Vec<WorldRun>>,
    /// Per set, one value per slice: the median `setup_s` of that slice's
    /// set-up-only worlds (empty when none were run).
    setup: Vec<Vec<f64>>,
}

/// The measured worlds of every set: `SLICES` worlds each, the budget
/// split evenly over slices and sets; before each, `setup_reps` worlds
/// that stop after the build.
fn measure(
    shape: &Shape,
    budget: Duration,
    setup_reps: usize,
    metrics: bool,
    report: &mut Report,
    what: &str,
) -> Measured {
    let share = budget / (SLICES * shape.sets.len()) as u32;
    let mut runs: Vec<Vec<WorldRun>> = shape.sets.iter().map(|_| Vec::new()).collect();
    let mut setup: Vec<Vec<f64>> = shape.sets.iter().map(|_| Vec::new()).collect();
    for _ in 0..SLICES {
        for (i, set) in shape.sets.iter().enumerate() {
            let spec = shape.spec(set);
            let times: Vec<f64> = (0..setup_reps)
                .filter_map(|_| {
                    guarded(report, &format!("setup {}", set.label), || {
                        world::run(&spec, Plan::fixed(0))
                    })
                })
                .map(|w| w.setup_s())
                .collect();
            if !times.is_empty() {
                setup[i].push(median(&times));
            }
            let plan = Plan {
                min_iters: WINDOW.1,
                deadline: Some(Instant::now() + share),
                window: Some(WINDOW),
                metrics,
            };
            if let Some(w) = guarded(report, &format!("{what} {}", set.label), || {
                world::run(&spec, plan)
            }) {
                report.attempted += w.steps.len() as u64;
                runs[i].push(w);
            }
        }
    }
    Measured { runs, setup }
}

/// Wall times of every measured iteration of one set, ms.
fn step_ms(runs: &[WorldRun], f: fn(&world::Step) -> f64) -> Vec<f64> {
    runs.iter().flat_map(|w| w.steps.iter().map(f)).collect()
}

/// Round quantile: per-set quantile of iteration wall times, summed; and
/// the smallest per-set sample count.
fn round_quantile(runs: &[Vec<WorldRun>], q: f64) -> (f64, usize) {
    let per_set: Vec<Vec<f64>> = runs.iter().map(|r| step_ms(r, world::Step::ms)).collect();
    let n = per_set.iter().map(Vec::len).min().unwrap_or(0);
    (per_set.iter().map(|s| quantile(s, q)).sum(), n)
}

/// The virtual per-iteration times of `b` must repeat those of `a` bit
/// for bit on the iterations both ran.
fn check_virtual_bits(report: &mut Report, label: &str, a: &[f64], b: &[f64]) {
    let n = a.len().min(b.len());
    let same = n > 0
        && a[..n]
            .iter()
            .zip(&b[..n])
            .all(|(x, y)| x.to_bits() == y.to_bits());
    report.check(same, || {
        format!(
            "{label}: virtual per-iteration times differ ({:?} vs {:?})",
            &a[..n],
            &b[..n]
        )
    });
}

/// Every measured world must repeat `reference` (per set), and NIC bytes
/// over the window must be equal across every set.
fn check_runs(
    report: &mut Report,
    shape: &Shape,
    runs: &[Vec<WorldRun>],
    reference: &[Vec<f64>],
    what: &str,
) {
    for ((set, worlds), want) in shape.sets.iter().zip(runs).zip(reference) {
        for w in worlds {
            check_virtual_bits(report, &format!("{} {what}", set.label), want, &w.virt);
        }
    }
    if shape.sets.len() < 2 || shape.nodes < 2 {
        return;
    }
    let nic: Vec<f64> = runs
        .iter()
        .filter_map(|worlds| worlds.first())
        .map(|w| w.window_counts()["core.nic_bytes"])
        .collect();
    report.check(
        nic.len() == shape.sets.len() && nic.windows(2).all(|p| p[0] == p[1]),
        || format!("NIC bytes per window differ across method sets: {nic:?}"),
    );
}

/// One round from per-set values: `n ×` their geometric mean (the value
/// itself for one set). Each set then carries the same share of a
/// relative change however long it takes; a plain sum would let the
/// slowest set hide the others. On four sets, one set slowed `k`-fold
/// moves the round by `k^(1/4)`.
fn round_of(per_set: &[f64]) -> f64 {
    if per_set.is_empty() {
        return 0.0;
    }
    let n = per_set.len() as f64;
    n * (per_set.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// Per set, the smallest of its per-slice values (its best slice); the
/// sets combined into one round.
fn best_round(per_slice: &[Vec<f64>]) -> f64 {
    let best: Vec<f64> = per_slice
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    round_of(&best)
}

/// `f` of every slice's world, per set.
fn per_slice(runs: &[Vec<WorldRun>], f: impl Fn(&WorldRun) -> f64) -> Vec<Vec<f64>> {
    runs.iter().map(|w| w.iter().map(&f).collect()).collect()
}

/// `latency_ms`: per set, the median iteration time of each slice; the
/// best slice per set, combined into one round.
fn best_slice_latency(runs: &[Vec<WorldRun>]) -> f64 {
    best_round(&per_slice(runs, |w| {
        median(&step_ms(std::slice::from_ref(w), world::Step::ms))
    }))
}

/// Untraced run: one reference world per set, then the measured slices
/// with their set-up-only worlds.
pub fn run_untraced(shape: &Shape, args: &Args, report: &mut Report) {
    // One iteration per set, which every measured world must repeat.
    let reference: Vec<Vec<f64>> = shape
        .sets
        .iter()
        .map(|set| {
            guarded(report, &format!("reference {}", set.label), || {
                world::run(&shape.spec(set), Plan::fixed(1))
            })
            .map(|w| w.virt)
            .unwrap_or_default()
        })
        .collect();
    // The process peak so far covers exactly the reference worlds, a fixed
    // sequence of allocations; the resident size then grows with each
    // later world by an amount that varies from run to run.
    let rss_mb = peak_rss_mb();
    let m = measure(
        shape,
        args.budget(),
        SETUP_PER_SLICE,
        false,
        report,
        "repeat",
    );
    let runs = &m.runs;
    check_runs(report, shape, runs, &reference, "repeat");

    let (p50, n) = round_quantile(runs, 0.5);
    let (p90, _) = round_quantile(runs, 0.9);
    let s_per_round = best_round(&per_slice(runs, WorldRun::loop_s_per_iter));
    let setup_n = m.setup.iter().map(Vec::len).sum::<usize>() * SETUP_PER_SLICE;
    report.e2e("setup_s", "s", best_round(&m.setup), setup_n);
    report.e2e("latency_ms", "ms", best_slice_latency(runs), n);
    report.e2e("throughput_per_s", "1/s", 1.0 / s_per_round.max(1e-12), n);
    report.e2e("peak_rss_mb", "MiB", rss_mb, 1);
    report.extra("peak_rss_mb.process", "MiB", peak_rss_mb(), 1);
    report.extra("step_ms_p50", "ms", p50, n);
    report.extra("step_ms_p90", "ms", p90, n);
    for (set, worlds) in shape.sets.iter().zip(runs) {
        let steps = step_ms(worlds, world::Step::ms);
        report.extra(
            &format!("step_ms_p50.{}", set.label),
            "ms",
            median(&steps),
            steps.len(),
        );
    }
}

/// `core.partition_ms` and `core.placement_ms`: `Partition::new` and one
/// `placement::place` per distinct node extent, timed directly; medians
/// over repetitions.
pub fn time_partition_placement(
    specs: &[JobSpec],
    tracer: &Tracer,
    parent: u64,
) -> (f64, f64, usize) {
    let reps = 7;
    let (mut part_ms, mut place_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut p_total, mut q_total) = (0.0, 0.0);
        for spec in specs {
            let cluster = spec.cluster.cluster_spec();
            let gpn = cluster.node.num_gpus();
            let t0 = Instant::now();
            let part = Partition::new(spec.domain, cluster.num_nodes, gpn);
            let t1 = Instant::now();
            tracer.span("core.partition", parent, t0, t1, None);
            let discovery = NodeDiscovery::discover(&cluster.node);
            let radius = Radius::constant(spec.radius);
            let strategy = match spec.placement {
                PlacementStrategy::Empirical => PlacementStrategy::NodeAware,
                s => s,
            };
            let mut seen = Vec::new();
            let t2 = Instant::now();
            for n in 0..part.num_nodes() {
                let idx = part.node_from_linear(n);
                let ext = part.node_box(idx).extent;
                if seen.contains(&ext) {
                    continue;
                }
                seen.push(ext);
                std::hint::black_box(placement::place(
                    &part,
                    idx,
                    &discovery,
                    Neighborhood::Full26,
                    &radius,
                    spec.quantities,
                    4,
                    strategy,
                    Boundary::Periodic,
                ));
            }
            let t3 = Instant::now();
            tracer.span("core.placement", parent, t2, t3, None);
            p_total += ms(t0, t1);
            q_total += ms(t2, t3);
        }
        part_ms.push(p_total);
        place_ms.push(q_total);
    }
    (median(&part_ms), median(&place_ms), reps)
}

/// Spans of one traced world, recorded after the fact from its marks.
pub fn world_spans(tracer: &Tracer, w: &WorldRun, parent: u64) {
    let root = tracer.span("mpisim.run_world", parent, w.called, w.returned, None);
    tracer.span("mpisim.world_build", root, w.called, w.first_start, None);
    tracer.span("core.build", root, w.first_start, w.build_out, None);
    for s in &w.steps {
        let step = tracer.span("step", root, s.start, s.end, None);
        tracer.span("core.exchange", step, s.exch_start, s.end, None);
    }
    tracer.span(
        "mpisim.world_teardown",
        root,
        w.last_return,
        w.returned,
        None,
    );
}

/// One traced world's share of the per-layer numbers.
pub struct LayerInput<'a> {
    /// The world.
    pub run: &'a WorldRun,
    /// Median `DistributedDomain::exchange` span, ms.
    pub exchange_ms: f64,
    /// Build/teardown times, ms: (world build, core build, teardown).
    pub setup_ms: (f64, f64, f64),
}

/// Per-layer numbers from traced worlds. On world workloads
/// (`per_iteration == false`) times and counts are summed over the sets,
/// one per round, with counts over the `WINDOW` iterations. On svc-mix
/// times are means per job, counts per exchange iteration.
pub fn layer_metrics(report: &mut Report, inputs: &[LayerInput<'_>], per_iteration: bool) {
    let total = |f: &dyn Fn(&LayerInput<'_>) -> f64| -> f64 {
        let s: f64 = inputs.iter().map(f).sum();
        if per_iteration {
            s / inputs.len().max(1) as f64
        } else {
            s
        }
    };
    let n = inputs.len();
    report.layer("mpisim.world_build_ms", "ms", total(&|i| i.setup_ms.0), n);
    report.layer("core.build_ms", "ms", total(&|i| i.setup_ms.1), n);
    report.layer(
        "mpisim.world_teardown_ms",
        "ms",
        total(&|i| i.setup_ms.2),
        n,
    );

    // Iterations in each world's counting window.
    let iters = |r: &WorldRun| {
        if per_iteration {
            r.virt.len()
        } else {
            WINDOW.1 - WINDOW.0
        }
    };
    let window_virt = |r: &WorldRun| -> f64 {
        let v = if per_iteration {
            &r.virt[..]
        } else {
            &r.virt[WINDOW.0..WINDOW.1]
        };
        v.iter().sum()
    };
    // Per-step denominator: rounds on world workloads, iterations on
    // svc-mix.
    let den = if per_iteration {
        inputs.iter().map(|i| iters(i.run) as f64).sum::<f64>()
    } else {
        (WINDOW.1 - WINDOW.0) as f64
    }
    .max(1e-12);
    let exchange_ms = if per_iteration {
        inputs
            .iter()
            .map(|i| i.exchange_ms * iters(i.run) as f64)
            .sum::<f64>()
            / den
    } else {
        inputs.iter().map(|i| i.exchange_ms).sum()
    };
    report.layer("core.exchange_ms", "ms", exchange_ms, n);
    let virt_s: f64 = inputs.iter().map(|i| window_virt(i.run)).sum();
    report.layer("exchange_virtual_us", "us_virtual", virt_s * 1e6 / den, n);

    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut peak_flows: f64 = 0.0;
    for i in inputs {
        for (k, v) in i.run.window_counts() {
            if k == "detsim.peak_active_flows" {
                peak_flows = peak_flows.max(v);
            } else {
                *counts.entry(k).or_default() += v;
            }
        }
    }
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    let per = |key: &str| count(key) / den;
    let events = per("detsim.events");
    report.layer("detsim.events_per_step", "count", events, n);
    let ns_per_event = if events > 0.0 {
        exchange_ms * 1e6 / events
    } else {
        0.0
    };
    report.layer("detsim.ns_per_event", "ns", ns_per_event, n);
    report.layer(
        "detsim.stale_events_per_step",
        "count",
        per("detsim.stale_events"),
        n,
    );
    report.layer(
        "detsim.heap_compactions",
        "count",
        count("detsim.heap_compactions"),
        n,
    );
    report.layer("detsim.peak_active_flows", "count", peak_flows, n);
    for p in ["eager", "rendezvous", "persistent", "partitioned"] {
        let v = per(&format!("mpisim.messages.{p}"));
        report.layer(&format!("mpisim.messages_per_step.{p}"), "count", v, n);
    }
    report.layer(
        "mpisim.match_wait_us_per_step",
        "us_virtual",
        per("mpisim.match_wait_us"),
        n,
    );
    for m in [
        "kernel",
        "peer",
        "colocated",
        "cuda-aware",
        "staged",
        "persistent",
        "partitioned",
    ] {
        let v = per(&format!("core.exchange_bytes.{m}"));
        report.layer(&format!("core.exchange_bytes_per_step.{m}"), "B", v, n);
    }
    report.layer("core.nic_bytes_per_step", "B", per("core.nic_bytes"), n);
    for d in ["H2D", "D2H", "D2D", "P2P"] {
        let v = per(&format!("gpusim.memcpy.{d}"));
        report.layer(&format!("gpusim.memcpy_per_step.{d}"), "count", v, n);
    }
    let launches = per("gpusim.kernel_launches");
    report.layer("gpusim.kernel_launches_per_step", "count", launches, n);
}

/// Traced run: untraced and traced measured loops (half the budget each),
/// direct partition/placement timing, and one pass of every set through
/// the job service.
pub fn run_traced(shape: &Shape, args: &Args, report: &mut Report, tracer: &Tracer) {
    let half = args.budget() / 2;
    let plain = measure(shape, half, 0, false, report, "untraced").runs;
    let traced = measure(shape, half, 0, true, report, "traced").runs;
    let root = tracer.span("workload", 0, Instant::now(), Instant::now(), None);
    for w in traced.iter().flatten() {
        world_spans(tracer, w, root);
    }
    let reference: Vec<Vec<f64>> = plain
        .iter()
        .map(|worlds| worlds.first().map(|w| w.virt.clone()).unwrap_or_default())
        .collect();
    check_runs(report, shape, &plain, &reference, "untraced repeat");
    check_runs(report, shape, &traced, &reference, "traced vs untraced");

    let specs: Vec<JobSpec> = shape.sets.iter().map(|s| shape.spec(s)).collect();
    let (part_ms, place_ms, reps) = time_partition_placement(&specs[..1], tracer, root);
    report.layer("core.partition_ms", "ms", part_ms, reps);
    report.layer("core.placement_ms", "ms", place_ms, reps);
    let inputs: Vec<LayerInput<'_>> = traced
        .iter()
        .filter_map(|worlds| {
            let of = |f: fn(&WorldRun) -> f64| median(&worlds.iter().map(f).collect::<Vec<_>>());
            Some(LayerInput {
                run: worlds.first()?,
                exchange_ms: median(&step_ms(worlds, world::Step::exchange_ms)),
                setup_ms: (
                    of(WorldRun::world_build_ms),
                    of(WorldRun::build_ms),
                    of(WorldRun::teardown_ms),
                ),
            })
        })
        .collect();
    if inputs.len() == shape.sets.len() {
        layer_metrics(report, &inputs, false);
    }

    // The same worlds submitted as wire JSON to a one-worker service.
    let svc = service::start(None);
    let texts: Vec<String> = specs.iter().map(JobSpec::to_json).collect();
    let pass = service::closed_loop(&svc, &texts, 0..texts.len(), None, false, report);
    svc.shutdown();
    for rec in &pass.jobs {
        service::job_spans(tracer, rec, root);
    }
    for (i, job) in pass.jobs.iter().enumerate() {
        let label = format!("{} service vs direct", shape.sets[i].label);
        check_virtual_bits(report, &label, &reference[i], &job.result.per_iter_s);
    }
    service::layer_metrics(report, &pass);

    let (_, n) = round_quantile(&traced, 0.5);
    let (untraced_ms, traced_ms) = (best_slice_latency(&plain), best_slice_latency(&traced));
    report.layer("trace_overhead_ms", "ms", traced_ms - untraced_ms, n);
    report.extra("latency_ms.untraced", "ms", untraced_ms, n);
    report.extra("latency_ms.traced", "ms", traced_ms, n);
    for (set, worlds) in shape.sets.iter().zip(&traced) {
        let ex = step_ms(worlds, world::Step::exchange_ms);
        report.extra(
            &format!("core.exchange_ms.{}", set.label),
            "ms",
            median(&ex),
            ex.len(),
        );
        if let Some(w) = worlds.first() {
            let v = mean(&w.virt[WINDOW.0..WINDOW.1]) * 1e6;
            report.extra(
                &format!("exchange_virtual_us.{}", set.label),
                "us_virtual",
                v,
                2,
            );
        }
    }
}

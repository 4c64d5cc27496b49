//! `svc-mix`: the job service with one worker, fed the ten `loadgen`
//! templates at full extents plus a kill-respawn template.
//!
//! Jobs go in as JSON wire text, in interleaved rounds of three phases:
//! an open loop at a fixed mean rate with exponential gaps (each job
//! timed from when it was due until its result is available), a closed
//! loop with one client, and a burst that keeps the queue full. The seed
//! sets the template order (consecutive seeded shuffles of the templates,
//! so every block of eleven jobs holds each template once) and the gaps.

use std::time::{Duration, Instant};

use stencil_core::{Methods, PlacementStrategy};
use svc::{ClusterPreset, FaultScenario, JobSpec, JobStatus, ResultStore};

use crate::report::{peak_rss_mb, Report};
use crate::service::{self, JobRec, Pass};
use crate::stats::{mean, median, quantile, Lcg};
use crate::trace::Tracer;
use crate::world::{self, ms, Plan, WorldRun};
use crate::worlds::{guarded, layer_metrics, time_partition_placement, world_spans, LayerInput};
use crate::Args;

/// Interleaved rounds of the measured phases, so that each phase samples
/// the whole run.
const ROUNDS: usize = 5;

/// Open-loop mean arrival rate, jobs per second: about half of the
/// one-worker capacity the burst phase measures (140-185 jobs/s on a
/// 2-vCPU Xeon host), so the queue stays stable.
const RATE: f64 = 70.0;

/// Jobs kept outstanding in the burst phase.
const BURST_WINDOW: usize = 8;

/// Service constructions timed for `setup_s` in each round.
const SETUP_PER_ROUND: usize = 40;

/// The template pool. `tiny` shrinks extents for the self-test.
pub fn templates(tiny: bool) -> Vec<JobSpec> {
    let e = |full: u64, small: u64| if tiny { small } else { full };
    let summit = |nodes| ClusterPreset::Summit { nodes };
    vec![
        JobSpec::new(
            "interactive",
            ClusterPreset::Workstation { gpus: 2 },
            2,
            [e(192, 64); 3],
        )
        .weight(4)
        .iters(2),
        JobSpec::new(
            "interactive",
            ClusterPreset::Workstation { gpus: 4 },
            4,
            [e(256, 96); 3],
        )
        .weight(4)
        .iters(2),
        JobSpec::new("sweep", summit(1), 6, [e(384, 96); 3])
            .weight(2)
            .iters(2),
        JobSpec::new("sweep", summit(2), 6, [e(384, 128); 3])
            .weight(2)
            .cuda_aware(true)
            .consolidate(true)
            .iters(2),
        JobSpec::new("sweep", summit(2), 6, [e(256, 96); 3])
            .weight(2)
            .placement(PlacementStrategy::Hierarchical)
            .iters(2),
        JobSpec::new("sweep", summit(2), 6, [e(256, 96); 3])
            .weight(2)
            .methods(Methods::all().with_persistent())
            .iters(2),
        JobSpec::new("batch", ClusterPreset::Dgx { nodes: 1 }, 8, [e(256, 96); 3])
            .placement(PlacementStrategy::GreedySwap)
            .iters(2),
        JobSpec::new(
            "batch",
            ClusterPreset::Fat {
                nodes: 1,
                sockets: 2,
                islands_per_socket: 2,
                gpus_per_island: 2,
            },
            8,
            [e(256, 96); 3],
        )
        .iters(2),
        JobSpec::new("chaos", summit(1), 6, [e(256, 96); 3])
            .faults(FaultScenario::StragglerGpu {
                device: 2,
                at_us: 0,
                speed_factor: 0.25,
            })
            .iters(2),
        JobSpec::new("chaos", summit(2), 6, [e(256, 96); 3])
            .faults(FaultScenario::FlappingNic {
                node: 0,
                first_down_us: 100,
                down_us: 500,
                up_us: 250,
                flaps: 3,
            })
            .iters(4),
        JobSpec::new("chaos", summit(2), 6, [e(96, 96); 3])
            .faults(FaultScenario::KillRespawn {
                rank: 4,
                at_us: 50,
                down_us: 300,
            })
            .iters(3),
    ]
}

/// Endless template order: consecutive seeded shuffles of `0..n`.
pub fn sequence(seed: u64, n: usize) -> impl Iterator<Item = usize> {
    let mut rng = Lcg::new(seed.wrapping_add(1));
    let mut block: Vec<usize> = Vec::new();
    std::iter::from_fn(move || {
        if block.is_empty() {
            block = (0..n).collect();
            for i in (1..n).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        block.pop()
    })
}

fn is_rank_fault(spec: &JobSpec) -> bool {
    matches!(
        spec.faults,
        FaultScenario::KillRespawn { .. } | FaultScenario::OomRespawn { .. }
    )
}

/// `setup_s` samples: service construction (with its result store) until
/// the first job is admitted, `SETUP_PER_ROUND` times.
fn setup_times(args: &Args, report: &mut Report) -> Vec<f64> {
    let probe = JobSpec::new("probe", ClusterPreset::Workstation { gpus: 2 }, 2, [32; 3]).iters(1);
    let path = args.out.join(format!("setup-{}.jsonl", std::process::id()));
    let mut out = Vec::new();
    for _ in 0..SETUP_PER_ROUND {
        let _ = std::fs::remove_file(&path);
        let t0 = Instant::now();
        let store = match ResultStore::open(&path) {
            Ok(s) => s,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("open result store: {e}"));
                continue;
            }
        };
        let service = service::start(Some(store));
        report.attempted += 1;
        match service.submit(probe.clone()) {
            Ok(h) => {
                out.push(t0.elapsed().as_secs_f64());
                let r = h.wait();
                report.check(r.status == JobStatus::Completed, || {
                    format!("setup probe ended {}", r.status.as_str())
                });
            }
            Err(e) => report.fail(format!("setup probe rejected: {e}")),
        }
        service.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// Every completed job must be `Completed`, and every repeated digest in
/// the store bit-identical.
fn audit(report: &mut Report, store_path: &std::path::Path) {
    let groups = ResultStore::open(store_path).and_then(|s| s.by_digest());
    match groups {
        Ok(groups) => {
            let repeated = groups.iter().filter(|g| g.completed().len() > 1).count();
            report.check(repeated > 0, || {
                "no repeated digests: audit is vacuous".into()
            });
            for g in &groups {
                report.check(g.bit_identical(), || {
                    format!("digest {} not bit-identical across repeats", g.digest)
                });
            }
            report.extra("svc.digest_groups", "count", groups.len() as f64, 1);
        }
        Err(e) => report.fail(format!("load result store: {e}")),
    }
}

fn latencies(pass: &Pass) -> Vec<f64> {
    pass.jobs.iter().map(JobRec::latency_ms).collect()
}

/// The services, the wire texts and the template order. `service` persists
/// every result to a store; `bare` is a second one-worker service without
/// one. Jobs with the registry on go to `bare`: their metrics JSON would
/// make the store's audit parse hundreds of megabytes.
struct Mix {
    texts: Vec<String>,
    seq: Box<dyn Iterator<Item = usize>>,
    rng: Lcg,
    store_path: std::path::PathBuf,
    service: svc::Service,
    bare: svc::Service,
}

impl Mix {
    fn new(args: &Args) -> Mix {
        let texts: Vec<String> = templates(args.tiny).iter().map(|s| s.to_json()).collect();
        let store_path = args
            .out
            .join(format!("svc-mix-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&store_path);
        let store = ResultStore::open(&store_path).expect("open the result store");
        Mix {
            seq: Box::new(sequence(args.seed, texts.len())),
            texts,
            rng: Lcg::new(args.seed.wrapping_mul(31).wrapping_add(7)),
            store_path,
            service: service::start(Some(store)),
            bare: service::start(None),
        }
    }

    fn open_loop(&mut self, dur: Duration, report: &mut Report) -> Pass {
        service::open_loop(
            &self.service,
            &self.texts,
            &mut self.seq,
            &mut self.rng,
            RATE,
            dur,
            report,
        )
    }

    /// A closed loop on the stored service, or on `bare`.
    fn closed_loop(
        &mut self,
        dur: Duration,
        stored: bool,
        metrics: bool,
        report: &mut Report,
    ) -> Pass {
        let until = Instant::now() + dur;
        let service = if stored { &self.service } else { &self.bare };
        service::closed_loop(
            service,
            &self.texts,
            &mut self.seq,
            Some(until),
            metrics,
            report,
        )
    }

    fn finish(self, report: &mut Report) {
        self.bare.shutdown();
        self.service.shutdown();
        audit(report, &self.store_path);
        let _ = std::fs::remove_file(&self.store_path);
    }
}

/// Open-loop diagnostics: latency quantiles with sample counts, and how
/// late the generator ran.
fn open_loop_diagnostics(report: &mut Report, open: &Pass) {
    let lat = latencies(open);
    let n = lat.len();
    report.extra("job_p50_ms", "ms", median(&lat), n);
    report.extra("job_p90_ms", "ms", quantile(&lat, 0.9), n);
    report.extra("job_p99_ms", "ms", quantile(&lat, 0.99), n);
    let late: Vec<f64> = open.jobs.iter().map(|r| ms(r.due, r.sent)).collect();
    report.extra("svc.gen_late_ms.p50", "ms", median(&late), n);
    report.extra("svc.gen_late_ms.max", "ms", quantile(&late, 1.0), n);
}

/// Best round: the smallest per-round median latency.
fn best_round_latency(rounds: &[Pass]) -> f64 {
    rounds
        .iter()
        .map(|p| median(&latencies(p)))
        .fold(f64::INFINITY, f64::min)
}

/// Untraced run: `ROUNDS` rounds of service set-ups (`setup_s`: the best
/// round's median), an open loop (30% of the budget, diagnostics), a
/// closed loop with one client on the stored service (35%, `latency_ms`:
/// the best round's median) and a burst (35%, `throughput_per_s`: the
/// best round's rate).
pub fn run_untraced(args: &Args, report: &mut Report) {
    let mut mix = Mix::new(args);
    let slice = args.budget() / ROUNDS as u32;
    let mut open = Pass::default();
    let mut closed = Vec::new();
    let (mut setup, mut setup_n) = (f64::INFINITY, 0);
    let (mut rates, mut burst_n) = (Vec::new(), 0);
    for _ in 0..ROUNDS {
        let times = setup_times(args, report);
        setup_n += times.len();
        if !times.is_empty() {
            setup = setup.min(median(&times));
        }
        open.extend(mix.open_loop(slice.mul_f64(0.3), report));
        closed.push(mix.closed_loop(slice.mul_f64(0.35), true, false, report));
        let (rate, n) = service::burst(
            &mix.service,
            &mix.texts,
            &mut mix.seq,
            BURST_WINDOW,
            slice.mul_f64(0.35),
            report,
        );
        rates.push(rate);
        burst_n += n;
    }
    mix.finish(report);

    let lat: Vec<f64> = closed.iter().flat_map(latencies).collect();
    report.e2e("setup_s", "s", setup, setup_n);
    report.e2e("latency_ms", "ms", best_round_latency(&closed), lat.len());
    report.e2e(
        "throughput_per_s",
        "1/s",
        rates.iter().copied().fold(0.0, f64::max),
        burst_n,
    );
    report.e2e("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    report.extra("closed_p50_ms", "ms", median(&lat), lat.len());
    report.extra("closed_p90_ms", "ms", quantile(&lat, 0.9), lat.len());
    report.extra(
        "burst_jobs_per_s.median",
        "1/s",
        median(&rates),
        rates.len(),
    );
    open_loop_diagnostics(report, &open);
    let virt: Vec<f64> = open.jobs.iter().map(|r| r.result.mean_s * 1e6).collect();
    report.extra(
        "exchange_virtual_us.jobs_mean",
        "us_virtual",
        mean(&virt),
        virt.len(),
    );
}

/// Replay each template once as a direct world run with the registry on:
/// the mix sends every template equally often. Rank-failure templates run
/// only inside the service and are left out.
fn replay(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    parent: u64,
) -> Vec<(usize, WorldRun)> {
    let mut out = Vec::new();
    for (t, spec) in templates(args.tiny).iter().enumerate() {
        if is_rank_fault(spec) {
            continue;
        }
        let plan = Plan {
            window: Some((0, spec.iters)),
            metrics: true,
            ..Plan::fixed(spec.iters)
        };
        if let Some(run) = guarded(report, &format!("replay template {t}"), || {
            world::run(spec, plan)
        }) {
            world_spans(tracer, &run, parent);
            out.push((t, run));
        }
    }
    out
}

/// Traced run: closed loop untraced, then traced with the registry on
/// in every job (30% of the budget each, for the tracing overhead; both on
/// the service without a store, so they differ only in tracing); an open
/// loop on the stored service with spans (30%, for the `svc.*` layer
/// numbers); then the replay of the templates as direct world runs.
pub fn run_traced(args: &Args, report: &mut Report, tracer: &Tracer) {
    let mut mix = Mix::new(args);
    let slice = args.budget() / ROUNDS as u32;
    let (mut plain, mut traced, mut open) = (Vec::new(), Vec::new(), Pass::default());
    for _ in 0..ROUNDS {
        plain.push(mix.closed_loop(slice.mul_f64(0.3), false, false, report));
        traced.push(mix.closed_loop(slice.mul_f64(0.3), false, true, report));
        open.extend(mix.open_loop(slice.mul_f64(0.3), report));
    }
    mix.finish(report);
    let (untraced_ms, traced_ms) = (best_round_latency(&plain), best_round_latency(&traced));
    let traced_n = traced.iter().map(|p| p.jobs.len()).sum();
    let (plain, traced) = (concat(plain), concat(traced));
    let root = tracer.span("workload", 0, Instant::now(), Instant::now(), None);
    for rec in traced.jobs.iter().chain(&open.jobs) {
        service::job_spans(tracer, rec, root);
    }
    service::layer_metrics(report, &open);
    open_loop_diagnostics(report, &open);

    let runs = replay(args, report, tracer, root);
    // The replayed worlds must commit the service's virtual bits.
    for (t, run) in &runs {
        let served = plain
            .jobs
            .iter()
            .chain(&traced.jobs)
            .chain(&open.jobs)
            .filter(|r| r.template == *t)
            .map(|r| &r.result)
            .find(|r| r.status == JobStatus::Completed);
        if let Some(r) = served {
            let same = r.per_iter_s.len() == run.virt.len()
                && r.per_iter_s
                    .iter()
                    .zip(&run.virt)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            report.check(same, || {
                format!(
                    "template {t}: replay {:?} vs service {:?}",
                    run.virt, r.per_iter_s
                )
            });
        }
    }
    let pool = templates(args.tiny);
    let specs: Vec<JobSpec> = runs.iter().map(|(t, _)| pool[*t].clone()).collect();
    let (part_ms, place_ms, reps) = time_partition_placement(&specs, tracer, root);
    let per_job = specs.len().max(1) as f64;
    report.layer("core.partition_ms", "ms", part_ms / per_job, reps);
    report.layer("core.placement_ms", "ms", place_ms / per_job, reps);
    let inputs: Vec<LayerInput<'_>> = runs
        .iter()
        .map(|(_, run)| LayerInput {
            run,
            exchange_ms: median(
                &run.steps
                    .iter()
                    .map(|s| s.exchange_ms())
                    .collect::<Vec<_>>(),
            ),
            setup_ms: (run.world_build_ms(), run.build_ms(), run.teardown_ms()),
        })
        .collect();
    layer_metrics(report, &inputs, true);

    report.layer("trace_overhead_ms", "ms", traced_ms - untraced_ms, traced_n);
    report.extra("latency_ms.untraced", "ms", untraced_ms, plain.jobs.len());
    report.extra("latency_ms.traced", "ms", traced_ms, traced_n);
}

fn concat(passes: Vec<Pass>) -> Pass {
    let mut all = Pass::default();
    for p in passes {
        all.extend(p);
    }
    all
}

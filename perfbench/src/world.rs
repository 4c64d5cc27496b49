//! Instrumented world runs: the benchmark's own rank program around the
//! public calls `mpisim::run_world`, `DomainBuilder::build` and
//! `DistributedDomain::exchange`, timed from outside the crates.
//!
//! The world is built from a [`svc::JobSpec`] exactly as the service's
//! runner builds it, so a replayed service template measures the same
//! world the service runs. The measured loop follows the paper's protocol
//! (barrier, `wtime`, exchange, max across ranks) and keeps iterating
//! until the plan's deadline. Every rank runs as a coroutine on the
//! calling thread, so "first rank out of the barrier" and "last rank out
//! of the exchange" are well defined and the stop decision taken by the
//! first rank is seen by all.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use detsim::metrics::MetricValue;
use detsim::MetricsReport;
use gpusim::DataMode;
use mpisim::{run_world, RankCtx, WorldConfig};
use stencil_core::{DomainBuilder, Method, Neighborhood};
use svc::{FaultScenario, JobSpec};

/// How long the measured loop runs and what it counts.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Iterations run regardless of the deadline.
    pub min_iters: usize,
    /// Keep starting iterations until this instant; without one, run
    /// exactly `min_iters`.
    pub deadline: Option<Instant>,
    /// Counting window `[a, b)`: kernel counters are read when the first
    /// rank leaves barrier `a` and barrier `b`, so the window holds
    /// exchanges `a..b`. Needs `min_iters >= b`.
    pub window: Option<(usize, usize)>,
    /// Turn the metrics registry on (`WorldConfig::metrics`).
    pub metrics: bool,
}

impl Plan {
    /// Exactly `n` iterations, no window, registry off.
    pub fn fixed(n: usize) -> Plan {
        Plan {
            min_iters: n,
            deadline: None,
            window: None,
            metrics: false,
        }
    }
}

/// Kernel counters read at one barrier exit.
#[derive(Clone, Debug)]
pub struct Snapshot {
    events: u64,
    stale: u64,
    compactions: u64,
    nic_bytes: u64,
    metrics: Option<MetricsReport>,
}

/// Wall-clock marks of one measured iteration.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// First rank leaves the barrier.
    pub start: Instant,
    /// First rank enters `exchange`.
    pub exch_start: Instant,
    /// Last rank leaves `exchange`.
    pub end: Instant,
}

impl Step {
    /// Iteration wall time, ms.
    pub fn ms(&self) -> f64 {
        ms(self.start, self.end)
    }

    /// Span of `DistributedDomain::exchange`, ms.
    pub fn exchange_ms(&self) -> f64 {
        ms(self.exch_start, self.end)
    }
}

/// Everything one world run measured.
#[derive(Debug)]
pub struct WorldRun {
    /// `run_world` called.
    pub called: Instant,
    /// First rank program starts, and enters `DomainBuilder::build`.
    pub first_start: Instant,
    /// Last rank returns from `DomainBuilder::build`.
    pub build_out: Instant,
    /// Last rank program returns.
    pub last_return: Instant,
    /// `run_world` returned.
    pub returned: Instant,
    /// Measured iterations, in order.
    pub steps: Vec<Step>,
    /// Per-iteration max-across-ranks virtual exchange seconds.
    pub virt: Vec<f64>,
    /// Counters at the window's two ends.
    pub window: Option<(Snapshot, Snapshot)>,
}

/// Milliseconds from `a` to `b`.
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

impl WorldRun {
    /// `mpisim.world_build_ms`: `run_world` call to first rank start.
    pub fn world_build_ms(&self) -> f64 {
        ms(self.called, self.first_start)
    }

    /// `mpisim.world_teardown_ms`: last rank return to `run_world` return.
    pub fn teardown_ms(&self) -> f64 {
        ms(self.last_return, self.returned)
    }

    /// `core.build_ms`: first rank into build to last rank out.
    pub fn build_ms(&self) -> f64 {
        ms(self.first_start, self.build_out)
    }

    /// `setup_s`: `run_world` call to last rank out of build.
    pub fn setup_s(&self) -> f64 {
        ms(self.called, self.build_out) / 1e3
    }

    /// Wall seconds per iteration over the whole measured loop, barriers
    /// included.
    pub fn loop_s_per_iter(&self) -> f64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => ms(a.start, b.end) / 1e3 / self.steps.len() as f64,
            _ => 0.0,
        }
    }

    /// Counts over the window, totals (not per step), keyed by layer
    /// metric stem. Registry-derived keys are present only when the
    /// registry was on.
    pub fn window_counts(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some((a, b)) = &self.window else {
            return out;
        };
        out.insert("detsim.events".into(), (b.events - a.events) as f64);
        out.insert("detsim.stale_events".into(), (b.stale - a.stale) as f64);
        out.insert(
            "detsim.heap_compactions".into(),
            (b.compactions - a.compactions) as f64,
        );
        out.insert("core.nic_bytes".into(), (b.nic_bytes - a.nic_bytes) as f64);
        if let (Some(ma), Some(mb)) = (&a.metrics, &b.metrics) {
            let (ca, cb) = (registry_counts(ma), registry_counts(mb));
            for (k, vb) in cb {
                let va = ca.get(&k).copied().unwrap_or(0.0);
                let v = if k == "detsim.peak_active_flows" {
                    vb
                } else {
                    vb - va
                };
                out.insert(k, v);
            }
        }
        out
    }
}

/// Fold a registry snapshot into the layer stems the benchmark reports,
/// summing over labels the benchmark does not split by.
fn registry_counts(m: &MetricsReport) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (id, v) in m.entries() {
        let label = |key: &str| {
            id.labels
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        let (key, val) = match (id.subsystem, id.name, v) {
            ("mpi", "messages", MetricValue::Counter(c)) => {
                (format!("mpisim.messages.{}", label("protocol")), *c as f64)
            }
            ("mpi", "match_wait_ps", MetricValue::Histogram(h)) => {
                ("mpisim.match_wait_us".to_string(), h.sum / 1e6)
            }
            ("exchange", "method_bytes", MetricValue::Counter(c)) => (
                format!("core.exchange_bytes.{}", label("method")),
                *c as f64,
            ),
            ("gpusim", "memcpy_count", MetricValue::Counter(c)) => {
                (format!("gpusim.memcpy.{}", label("dir")), *c as f64)
            }
            ("gpusim", "kernel_launches", MetricValue::Counter(c)) => {
                ("gpusim.kernel_launches".to_string(), *c as f64)
            }
            ("flow", "active_flows", MetricValue::Gauge(g)) => {
                ("detsim.peak_active_flows".to_string(), g.max)
            }
            _ => continue,
        };
        *out.entry(key).or_default() += val;
    }
    out
}

/// The world a service job builds, as the service's runner configures it.
pub fn world_config(spec: &JobSpec, metrics: bool) -> WorldConfig {
    assert!(
        !matches!(
            spec.faults,
            FaultScenario::KillRespawn { .. } | FaultScenario::OomRespawn { .. }
        ),
        "rank-failure scenarios run only inside the service"
    );
    WorldConfig::new(spec.cluster.cluster_spec(), spec.ranks_per_node)
        .cuda_aware(spec.cuda_aware)
        .mpi_persistent(spec.methods.contains(Method::PersistentStaged))
        .mpi_partitioned(spec.methods.contains(Method::PartitionedStaged))
        .data_mode(DataMode::Virtual)
        .metrics(metrics)
        .faults(spec.faults.schedule())
}

#[derive(Default)]
struct StepMarks {
    start: Option<Instant>,
    exch_start: Option<Instant>,
    end: Option<Instant>,
    exited: usize,
}

/// State shared by the ranks of one world.
struct Shared {
    plan: Plan,
    ranks: usize,
    first_start: Option<Instant>,
    built: usize,
    build_out: Option<Instant>,
    go: Vec<bool>,
    steps: Vec<StepMarks>,
    virt: Vec<f64>,
    snaps: Vec<Snapshot>,
    returned: usize,
    last_return: Option<Instant>,
}

impl Shared {
    /// Called by every rank leaving barrier `k`. The first one decides
    /// whether iteration `k` runs; the rest follow. Returns the decision
    /// and whether this caller must read the window counters.
    fn leave_barrier(&mut self, k: usize) -> (bool, bool) {
        if k < self.go.len() {
            return (self.go[k], false);
        }
        let now = Instant::now();
        let p = self.plan;
        let go = k < p.min_iters || p.deadline.is_some_and(|d| now < d);
        self.go.push(go);
        if go {
            self.steps.push(StepMarks {
                start: Some(now),
                ..Default::default()
            });
            self.virt.push(0.0);
        }
        let snap = p.window.is_some_and(|(a, b)| k == a || k == b);
        (go, snap)
    }
}

fn lock_shared(sh: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    sh.lock().expect("world state poisoned")
}

fn snapshot(ctx: &RankCtx, metrics: bool) -> Snapshot {
    let machine = ctx.machine();
    // Single-node worlds have no injection links.
    let nics: Vec<_> = if machine.num_nodes() > 1 {
        (0..machine.num_nodes())
            .map(|n| machine.fabric().injection_link(n))
            .collect()
    } else {
        Vec::new()
    };
    ctx.sim().with_kernel(|k| Snapshot {
        events: k.executed_events(),
        stale: k.stale_events_dropped(),
        compactions: k.heap_compactions(),
        nic_bytes: nics.iter().map(|&l| k.link_delivered(l)).sum(),
        metrics: metrics.then(|| k.metrics.report()),
    })
}

/// Build the spec's world, build its domain, and run the measured loop
/// under `plan`. Panics from the world propagate.
pub fn run(spec: &JobSpec, plan: Plan) -> WorldRun {
    let config = world_config(spec, plan.metrics);
    let shared = Arc::new(Mutex::new(Shared {
        plan,
        ranks: config.num_ranks(),
        first_start: None,
        built: 0,
        build_out: None,
        go: Vec::new(),
        steps: Vec::new(),
        virt: Vec::new(),
        snaps: Vec::new(),
        returned: 0,
        last_return: None,
    }));
    let sh = Arc::clone(&shared);
    let spec = spec.clone();
    let called = Instant::now();
    run_world(config, move |ctx| {
        // The first rank to start is also the first into the build.
        lock_shared(&sh)
            .first_start
            .get_or_insert_with(Instant::now);
        let dom = DomainBuilder::new(spec.domain)
            .radius(spec.radius)
            .quantities(spec.quantities)
            .neighborhood(Neighborhood::Full26)
            .methods(spec.methods)
            .placement(spec.placement)
            .consolidate(spec.consolidate)
            .build(ctx);
        {
            let mut s = lock_shared(&sh);
            s.built += 1;
            if s.built == s.ranks {
                s.build_out = Some(Instant::now());
            }
        }
        let mut k = 0;
        loop {
            ctx.barrier();
            let (go, snap) = lock_shared(&sh).leave_barrier(k);
            if snap {
                let sn = snapshot(ctx, plan.metrics);
                lock_shared(&sh).snaps.push(sn);
            }
            if !go {
                break;
            }
            lock_shared(&sh).steps[k]
                .exch_start
                .get_or_insert_with(Instant::now);
            let v0 = ctx.wtime();
            dom.exchange(ctx);
            let dv = ctx.wtime() - v0;
            let mut s = lock_shared(&sh);
            s.virt[k] = s.virt[k].max(dv);
            let ranks = s.ranks;
            let m = &mut s.steps[k];
            m.exited += 1;
            if m.exited == ranks {
                m.end = Some(Instant::now());
            }
            drop(s);
            k += 1;
        }
        let mut s = lock_shared(&sh);
        s.returned += 1;
        if s.returned == s.ranks {
            s.last_return = Some(Instant::now());
        }
    });
    let returned = Instant::now();
    let mut s = lock_shared(&shared);
    let steps = s
        .steps
        .iter()
        .map(|m| Step {
            start: m.start.expect("step start"),
            exch_start: m.exch_start.expect("exchange start"),
            end: m.end.expect("step end"),
        })
        .collect();
    let window = match s.snaps.len() {
        2 => Some((s.snaps[0].clone(), s.snaps[1].clone())),
        _ => None,
    };
    WorldRun {
        called,
        first_start: s.first_start.expect("a rank started"),
        build_out: s.build_out.expect("every rank built"),
        last_return: s.last_return.expect("every rank returned"),
        returned,
        steps,
        virt: std::mem::take(&mut s.virt),
        window,
    }
}

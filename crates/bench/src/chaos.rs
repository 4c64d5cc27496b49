//! Adaptation scenario harness shared by the `chaos` bench binary and the
//! degraded-triad / kill-respawn acceptance tests.
//!
//! The scenarios follow the paper's premise in reverse: placement matches
//! exchange volume to link bandwidth, so when a link's bandwidth collapses
//! mid-run — or a rank dies and takes its placement state with it — the
//! placement is suddenly wrong. An [`AdaptScenario`] holds one such
//! world and its fault; [`AdaptScenario::run`] plays it under one [`Arm`]:
//! keep the stale placement, adapt ([`stencil_core::AdaptPolicy`] +
//! `DistributedDomain::adapt`) stop-the-world or overlapped, or rebuild
//! from scratch against the degraded substrate (the recovery target). Every
//! arm runs the same world program — warm up, inject the fault, rejoin
//! after a kill, detect and react, measure — and reports steady-state
//! exchange times.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use detsim::{MetricsReport, SimDuration};
use faultsim::FaultSchedule;
use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_core::dim3::Boundary;
use stencil_core::placement::{flow_matrix_bc, place};
use stencil_core::{
    AdaptOutcome, AdaptPolicy, AdaptScope, DomainBuilder, Methods, MigrationMode, Neighborhood,
    Partition, PlacementStrategy, Radius,
};
use topo::presets::fat_cluster;
use topo::summit::summit_cluster;
use topo::{ClusterSpec, NodeDiscovery, NodeSpec};

/// Stencil radius of every scenario world (the paper's default).
const RADIUS: u64 = 2;
/// Single-precision quantities per cell of every scenario world.
const QUANTITIES: usize = 4;
/// Memory-limit factor of the OOM victim's device while its rank is down.
const OOM_MEM_FACTOR: f64 = 0.05;

/// How a world responds to its scenario's fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Keep the pre-fault placement (rejoining after a kill): the control
    /// arm showing the cost of not adapting.
    NoAdapt,
    /// Adapt with the naive policy: global re-probe/re-solve and
    /// [`MigrationMode::StopTheWorld`] migration.
    StopTheWorld,
    /// Adapt with the default policy: per-link localization
    /// ([`AdaptScope::Localized`]) and [`MigrationMode::Overlapped`]
    /// migration.
    Overlapped,
    /// Build the domain from scratch with empirical placement while the
    /// degradation is already live (no kill) — the fresh-optimal recovery
    /// target that adaptation is measured against.
    FreshOptimal,
}

/// Outcome of one [`AdaptScenario::run`].
#[derive(Clone, Debug)]
pub struct ArmRun {
    /// Mean max-across-ranks exchange seconds before the fault (for
    /// [`Arm::FreshOptimal`] the degradation is live from the start, so
    /// this is just its warmup under the degraded substrate).
    pub healthy_mean: f64,
    /// Mean max-across-ranks exchange seconds in the post-fault steady
    /// state (after rejoin and adaptation, when the arm does them).
    pub steady_mean: f64,
    /// Max-across-ranks virtual seconds from the fault installation to the
    /// end of the reaction phase (down-window + rejoin + detection +
    /// migration); `0.0` for [`Arm::FreshOptimal`].
    pub recovery_secs: f64,
    /// Max-across-ranks virtual seconds spent inside the `adapt` call that
    /// migrated (probe + re-solve + data movement); `0.0` when nothing
    /// migrated.
    pub migrate_secs: f64,
    /// The [`AdaptOutcome::Migrated`] `node` field: `Some(Some(n))` when
    /// localization re-solved only node `n`, `Some(None)` for a global
    /// re-solve, `None` when nothing migrated.
    pub adapted_node: Option<Option<usize>>,
    /// Metrics snapshot of the run, when [`AdaptScenario::metrics`] asked
    /// for one.
    pub metrics: Option<MetricsReport>,
}

/// One adaptation scenario: a world and the physical fault every [`Arm`]
/// faces. All arms degrade the *same* links (the aimed-at pair is chosen
/// from the healthy placement, computed purely up front), so their
/// steady-state times are directly comparable, and runs are deterministic:
/// same inputs, bit-identical times.
#[derive(Clone, Debug)]
pub struct AdaptScenario {
    cluster: ClusterSpec,
    ranks_per_node: usize,
    domain: [u64; 3],
    /// [`stencil_core::HealthMonitor`] degradation factor: how much the
    /// fleet-mean exchange time must exceed baseline. The exchange
    /// histogram averages every rank's critical path, so a fault on one
    /// link is diluted by the unaffected ranks; scale it down for nodes
    /// with many of them.
    threshold: f64,
    /// Installed mid-run, at the current virtual time.
    fault: FaultSchedule,
    /// Installed at world start for [`Arm::FreshOptimal`]: the degradation
    /// alone, live before the empirical probes run.
    fresh: FaultSchedule,
    /// The rank kill's offset into `fault`, and the device whose memory
    /// shrinks with it when the kill is an OOM.
    kill: Option<(SimDuration, Option<usize>)>,
    /// Collect a metrics snapshot of every run.
    metrics: bool,
}

/// The same-island GPU pair of node `node` (linear index) carrying the
/// most exchange volume under the healthy node-aware placement — the
/// highest-impact NVLink to degrade. The placement is solved here the way
/// a world places itself on `node_spec`, only to pick the link. Islands
/// hold `gpus_per_island` GPUs each: Summit's triads are the 3-GPU case,
/// and [`topo::presets::fat_node`] numbers GPUs island by island, so
/// `g / gpus_per_island` is the island index on both presets. Restricting
/// to same-island pairs keeps the fault on a dedicated GPU-GPU link (a
/// cross-socket pair would degrade the shared X-Bus path instead).
pub fn heaviest_island_pair(
    part: &Partition,
    node: usize,
    node_spec: &NodeSpec,
    gpus_per_island: usize,
) -> (usize, usize) {
    let idx = part.node_from_linear(node);
    let radius = Radius::constant(RADIUS);
    let healthy = place(
        part,
        idx,
        &NodeDiscovery::discover(node_spec),
        Neighborhood::Full26,
        &radius,
        QUANTITIES,
        4,
        PlacementStrategy::NodeAware,
        Boundary::Periodic,
    );
    let w = flow_matrix_bc(
        part,
        idx,
        Neighborhood::Full26,
        &radius,
        QUANTITIES,
        4,
        Boundary::Periodic,
    );
    let island = |g: usize| g / gpus_per_island;
    let mut best = (0usize, 1usize);
    let mut best_vol = -1.0f64;
    for (s, row) in w.iter().enumerate() {
        for t in (s + 1)..row.len() {
            let g1 = healthy.gpu_for_subdomain[s];
            let g2 = healthy.gpu_for_subdomain[t];
            if g1 == g2 || island(g1) != island(g2) {
                continue;
            }
            let vol = row[t] + w[t][s];
            if vol > best_vol {
                best_vol = vol;
                best = (g1.min(g2), g1.max(g2));
            }
        }
    }
    best
}

impl AdaptScenario {
    /// The degraded-triad headline on one Summit node: the healthy
    /// node-aware placement's busiest NVLink drops to `bandwidth_factor` ×
    /// nominal mid-run.
    pub fn degraded_triad(domain: [u64; 3], ranks_per_node: usize, bandwidth_factor: f64) -> Self {
        Self::degraded_island(
            summit_cluster(1),
            ranks_per_node,
            1.25,
            domain,
            bandwidth_factor,
        )
    }

    /// The fat-node variant: one 12-GPU node
    /// ([`topo::presets::fat_node`]`(2, 2, 3)` — two NVLink islands per
    /// socket), exercising the placement ladder's *heuristic* rung end to end
    /// (12 > `qap::EXHAUSTIVE_MAX_N`, so both the initial placement and
    /// `DistributedDomain::adapt`'s parallel re-solve run delta-2-opt/
    /// multilevel, not exhaustive search). The detection threshold is lower
    /// than the triad's because 10 unaffected ranks dilute the degraded
    /// pair in the mean.
    pub fn degraded_fat_node(domain: [u64; 3], bandwidth_factor: f64) -> Self {
        Self::degraded_island(fat_cluster(1, 2, 2, 3), 12, 1.05, domain, bandwidth_factor)
    }

    /// Degrade the healthy placement's busiest intra-island NVLink of the
    /// one node of `cluster` (3-GPU islands) to `bandwidth_factor` ×
    /// nominal.
    fn degraded_island(
        cluster: ClusterSpec,
        ranks_per_node: usize,
        threshold: f64,
        domain: [u64; 3],
        bandwidth_factor: f64,
    ) -> Self {
        let part = Partition::new(domain, 1, cluster.node.num_gpus());
        let (a, b) = heaviest_island_pair(&part, 0, &cluster.node, 3);
        let fault = FaultSchedule::degraded_triad(0, a, b, SimDuration::ZERO, bandwidth_factor);
        AdaptScenario {
            cluster,
            ranks_per_node,
            domain,
            threshold,
            fresh: fault.clone(),
            fault,
            kill: None,
            metrics: false,
        }
    }

    /// The correlated kill-respawn (or OOM-respawn, with `oom`) scenario on
    /// two Summit nodes, 3 ranks each: rank 4 dies 50 virtual µs into the
    /// fault while — same root cause, think a failing PCIe riser — node 1's
    /// busiest placed NVLink drops to 2% and the inter-node switch to 70% of
    /// nominal. The rank respawns 300 virtual µs later with its device data
    /// gone and rejoins via `DistributedDomain::rejoin_after_respawn` (the
    /// re-handshake over the revoked communicator).
    ///
    /// With `oom`, the kill is an OOM event: the victim's first device
    /// shrinks to 5% memory for the down-window, and is restored just
    /// before the respawn.
    pub fn kill_respawn(domain: [u64; 3], oom: bool) -> Self {
        let cluster = summit_cluster(2);
        let victim = 4usize; // node 1, local rank 1 -> devices 8 and 9
        let victim_device = 8usize;
        let kill_at = SimDuration::from_micros(50);
        let down_for = SimDuration::from_micros(300);
        let part = Partition::new(domain, 2, cluster.node.num_gpus());
        // Aim the link degradation at node 1's busiest placed NVLink so the
        // stale placement really is wrong afterwards.
        let (a, b) = heaviest_island_pair(&part, 1, &cluster.node, 3);
        // 2% NVLink bandwidth: with two nodes the inter-node leg dominates the
        // critical path, so a milder intra-node degradation would hide behind
        // it and never clear the detection threshold.
        let degrade = |at: SimDuration| {
            FaultSchedule::degraded_triad(1, a, b, at, 0.02)
                .merge(FaultSchedule::degraded_switch(0, 2, at, 0.7))
        };
        let kill = if oom {
            FaultSchedule::oom_respawn(victim_device, victim, kill_at, down_for, OOM_MEM_FACTOR)
        } else {
            FaultSchedule::kill_respawn(victim, kill_at, down_for)
        };
        AdaptScenario {
            cluster,
            ranks_per_node: 3,
            domain,
            threshold: 1.25,
            fault: degrade(kill_at).merge(kill),
            fresh: degrade(SimDuration::ZERO),
            kill: Some((kill_at, oom.then_some(victim_device))),
            metrics: false,
        }
    }

    /// Collect a metrics snapshot ([`ArmRun::metrics`]) of every run. Off
    /// by default; the registry only observes, so this changes no
    /// adaptation decision and no virtual-time bit.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Play the scenario under `arm`: build, run `warmup_iters` healthy
    /// exchanges (the monitor's baseline), inject the fault, rejoin after
    /// the kill, run two detect-and-react exchanges, then measure
    /// `measure_iters` steady-state exchanges. [`Arm::FreshOptimal`] skips
    /// the injection and reaction: its world starts degraded.
    pub fn run(&self, arm: Arm, warmup_iters: usize, measure_iters: usize) -> ArmRun {
        assert!(warmup_iters >= 1 && measure_iters >= 1);
        let num_ranks = self.cluster.num_nodes * self.ranks_per_node;
        let healthy_times: Rc<RefCell<Vec<Vec<f64>>>> =
            Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
        let steady_times: Rc<RefCell<Vec<Vec<f64>>>> =
            Rc::new(RefCell::new(vec![Vec::new(); num_ranks]));
        let recovery_secs = Rc::new(RefCell::new(vec![0.0f64; num_ranks]));
        let migrate_secs = Rc::new(RefCell::new(vec![0.0f64; num_ranks]));
        let adapted_node: Rc<Cell<Option<Option<usize>>>> = Rc::new(Cell::new(None));
        let (ht, st, rs, ms, an) = (
            Rc::clone(&healthy_times),
            Rc::clone(&steady_times),
            Rc::clone(&recovery_secs),
            Rc::clone(&migrate_secs),
            Rc::clone(&adapted_node),
        );

        // The fresh-optimal world's degradation precedes the build, so its
        // empirical probes measure the degraded substrate and placement is
        // optimal *for it*.
        let (faults, placement) = match arm {
            Arm::FreshOptimal => (self.fresh.clone(), PlacementStrategy::Empirical),
            _ => (FaultSchedule::new(), PlacementStrategy::NodeAware),
        };
        let world = WorldConfig::new(self.cluster.clone(), self.ranks_per_node)
            .data_mode(DataMode::Virtual)
            .metrics(self.metrics)
            .faults(faults);
        // Only the adapting arms watch their health: one window per
        // iteration, baseline = mean of the warmup windows.
        let policy = AdaptPolicy::new()
            .threshold(self.threshold)
            .warmup_windows(warmup_iters);
        let policy = match arm {
            Arm::NoAdapt | Arm::FreshOptimal => None,
            Arm::StopTheWorld => Some(
                policy
                    .scope(AdaptScope::Global)
                    .mode(MigrationMode::StopTheWorld),
            ),
            Arm::Overlapped => Some(policy),
        };
        let domain = self.domain;
        let fault = self.fault.clone();
        let kill = self.kill;
        let report = run_world(world, move |ctx| {
            let me = ctx.rank();
            let mut dom = DomainBuilder::new(domain)
                .radius(RADIUS)
                .quantities(QUANTITIES)
                .neighborhood(Neighborhood::Full26)
                .methods(Methods::all())
                .placement(placement)
                .build(ctx);
            let mut monitor = policy.as_ref().map(AdaptPolicy::monitor);

            let mut mine = Vec::with_capacity(warmup_iters);
            for _ in 0..warmup_iters {
                ctx.barrier();
                let t0 = ctx.wtime();
                dom.exchange(ctx);
                mine.push(ctx.wtime() - t0);
                // Barrier-synchronized checkpoint: every rank sees the same
                // exchange totals and reaches the same verdict.
                ctx.barrier();
                if let Some(monitor) = monitor.as_mut() {
                    monitor.check(ctx);
                }
            }
            ht.borrow_mut()[me] = mine;

            if arm != Arm::FreshOptimal {
                // Inject mid-run: one rank installs the whole event table at
                // the current virtual time; the surrounding barriers make
                // sure no rank races ahead of the installation.
                ctx.barrier();
                let t_fault = ctx.wtime();
                if me == 0 {
                    let now = ctx.sim().with_kernel(|k| k.now());
                    ctx.install_faults_at(&fault, now);
                }
                ctx.barrier();
                if let Some((kill_at, oom_device)) = kill {
                    // Step past the kill instant so every rank observes the
                    // death.
                    ctx.sim().delay(kill_at + SimDuration::from_micros(10));
                    if let Some(device) = oom_device.filter(|_| !ctx.is_alive(me)) {
                        // The OOM that killed us shrank the device; it stays
                        // shrunk until just before the respawn.
                        let machine = ctx.machine();
                        let nominal = machine.cost_model().device_mem_limit;
                        assert_eq!(
                            machine.device_mem_limit(device),
                            (nominal as f64 * OOM_MEM_FACTOR) as u64,
                            "the OOM victim's device must be shrunk while its rank is down"
                        );
                    }
                    dom.rejoin_after_respawn(ctx);
                }
                // Detection + reaction: the placement is stale against the
                // degraded links; adapting arms find and fix it.
                let mut my_migrate = 0.0f64;
                for _ in 0..2 {
                    ctx.barrier();
                    dom.exchange(ctx);
                    ctx.barrier();
                    if let Some(monitor) = monitor.as_mut() {
                        let t0 = ctx.wtime();
                        if let AdaptOutcome::Migrated { node, .. } = dom.adapt(ctx, monitor) {
                            my_migrate = ctx.wtime() - t0;
                            an.set(Some(node));
                        }
                    }
                }
                rs.borrow_mut()[me] = ctx.wtime() - t_fault;
                ms.borrow_mut()[me] = my_migrate;
            }

            let mut mine = Vec::with_capacity(measure_iters);
            for _ in 0..measure_iters {
                ctx.barrier();
                let t0 = ctx.wtime();
                dom.exchange(ctx);
                mine.push(ctx.wtime() - t0);
            }
            st.borrow_mut()[me] = mine;
        });

        let mean_of = |per_rank: &[Vec<f64>], iters: usize| {
            let per_iter: Vec<f64> = (0..iters)
                .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
                .collect();
            per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64
        };
        let max_of = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));
        let healthy_mean = mean_of(&healthy_times.borrow(), warmup_iters);
        let steady_mean = mean_of(&steady_times.borrow(), measure_iters);
        let recovery_secs = max_of(&recovery_secs.borrow());
        let migrate_secs = max_of(&migrate_secs.borrow());
        ArmRun {
            healthy_mean,
            steady_mean,
            recovery_secs,
            migrate_secs,
            adapted_node: adapted_node.get(),
            metrics: report.metrics,
        }
    }
}

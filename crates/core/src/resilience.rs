//! Degradation-aware resilience: detect that the substrate has drifted
//! from what placement assumed, and re-place against reality.
//!
//! The paper's placement phase (QAP on exchange volume × link bandwidth)
//! runs once at setup, but real heterogeneous machines degrade mid-run —
//! links lose lanes, NICs flap, one GPU straggles, processes die. This
//! module closes the loop:
//!
//! 1. An [`AdaptPolicy`] describes *when* to react (degradation threshold,
//!    warmup, hysteresis, predicted cost/benefit gate) and *how* (migration
//!    mode, re-solve scope). It builds a [`HealthMonitor`].
//! 2. The [`HealthMonitor`] reads the world's running total of exchange
//!    times, which the exchange engine always keeps, at
//!    barrier-synchronized checkpoints, flags windows whose mean exchange
//!    time exceeds its warm baseline by the threshold factor, and — from
//!    the per-link busy counters the simulator already keeps — localizes
//!    *which node's* intra-node fabric degraded. Neither input is the
//!    metrics registry, so the metrics switch changes no verdict.
//! 3. [`DistributedDomain::adapt`] turns a verdict into an
//!    [`AdaptOutcome`]: it short-circuits before any probe traffic when
//!    the collective verdict is healthy or gated, re-probes empirical
//!    bandwidths only where needed (the suspect node under
//!    [`AdaptScope::Localized`]), re-solves the QAP (a plain loop over
//!    the nodes, on the rank's own thread), gates on the predicted gain,
//!    and migrates subdomains quantity-by-quantity — overlapped with each
//!    other under [`MigrationMode::Overlapped`].
//!
//! Every step is collective and deterministic: every rank reads the same
//! totals and counters after a barrier, computes identical placements
//! from the same (gathered or broadcast) matrices, and therefore takes the
//! same branch — there is no coordinator and no races.
//!
//! Rank failure (the shrink-or-respawn contract of `mpisim`) is handled by
//! one collective call, [`DistributedDomain::rejoin_after_respawn`], on
//! every rank of the world; see `docs/RESILIENCE.md` for the protocol.

use std::rc::Rc;

use detsim::{Completion, LinkId};
use gpusim::Buffer;
use mpisim::{RankCtx, Request};

use crate::domain::{alloc_locals, DistributedDomain, DomainSpec};
use crate::empirical::{distance_from_measured, measure_node_bandwidths, DEFAULT_PROBE_BYTES};
use crate::exchange::{build_plans, exchange_totals};
use crate::local::LocalDomain;
use crate::partition::Partition;
use crate::placement::{flow_matrix_bc, place_with_distance, Placement, PlacementStrategy};
use crate::qap;

/// Setup-channel tag for the adaptive re-placement all-gather / broadcast
/// (outside the exchange-plan tag space `sid * 32 + dir` and the probe
/// broadcast tag `u64::MAX - 1`).
pub(crate) const ADAPT_BW_TAG: u64 = u64::MAX - 2;

/// Tag base for subdomain migration transfers; far above the plan tag
/// space. One tag per (subdomain, quantity).
const MIGRATE_TAG_BASE: u64 = 1 << 62;

/// How [`DistributedDomain::adapt`] moves subdomain arrays onto their new
/// GPUs once a better placement is found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationMode {
    /// Naive baseline: barrier in, then for each migrating (subdomain,
    /// quantity) array serially stage device→host, send, and wait before
    /// touching the next, then barrier out. Simple, and the whole world
    /// stalls for the duration.
    StopTheWorld,
    /// Quantity-by-quantity overlap: all receives posted first, every
    /// device→host staging copy issued before any send waits, sends drain
    /// as their staging lands. Migration cost approaches the slowest
    /// single transfer instead of the sum.
    Overlapped,
}

/// How much of the machine [`DistributedDomain::adapt`] re-probes and
/// re-solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptScope {
    /// Re-probe every node and re-solve every node's QAP (the
    /// all-gather protocol). Always correct; probe traffic and solve time
    /// scale with the machine.
    Global,
    /// Use the monitor's per-link localization to find the degraded node,
    /// re-probe and re-solve *only that node*, and broadcast its new
    /// placement. Falls back to [`AdaptScope::Global`] when localization
    /// is inconclusive.
    Localized,
}

/// Typed policy for adaptive re-placement: when to react and how.
/// Builder-style; defaults are conservative.
///
/// ```
/// use stencil_core::{AdaptPolicy, AdaptScope, MigrationMode};
/// let policy = AdaptPolicy::new()
///     .threshold(1.3)
///     .warmup_windows(2)
///     .hysteresis_windows(3)
///     .mode(MigrationMode::Overlapped)
///     .scope(AdaptScope::Localized);
/// let monitor = policy.monitor();
/// # let _ = monitor;
/// ```
#[derive(Clone, Debug)]
pub struct AdaptPolicy {
    pub(crate) threshold: f64,
    pub(crate) warmup_windows: usize,
    pub(crate) hysteresis_windows: usize,
    pub(crate) mode: MigrationMode,
    pub(crate) scope: AdaptScope,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        AdaptPolicy {
            threshold: 1.25,
            warmup_windows: 3,
            hysteresis_windows: 1,
            mode: MigrationMode::Overlapped,
            scope: AdaptScope::Localized,
        }
    }
}

impl AdaptPolicy {
    /// The default policy: threshold 1.25×, 3 warmup windows, no
    /// hysteresis (react on the first degraded window), overlapped
    /// migration, localized re-solve.
    pub fn new() -> AdaptPolicy {
        AdaptPolicy::default()
    }

    /// Degradation threshold: a window is degraded when its mean exchange
    /// time exceeds `threshold` × the warm baseline. Must exceed 1.0.
    pub fn threshold(mut self, t: f64) -> Self {
        assert!(t > 1.0, "threshold must exceed 1.0");
        self.threshold = t;
        self
    }

    /// Number of non-empty windows averaged into the warm baseline before
    /// verdicts are issued. At least 1.
    pub fn warmup_windows(mut self, w: usize) -> Self {
        assert!(w >= 1, "need at least one warmup window");
        self.warmup_windows = w;
        self
    }

    /// Number of *consecutive* degraded windows required before adaptation
    /// proceeds. `1` reacts immediately; higher values ride out transients
    /// (a flapping NIC) that re-placement could not fix anyway.
    pub fn hysteresis_windows(mut self, h: usize) -> Self {
        assert!(h >= 1, "need at least one hysteresis window");
        self.hysteresis_windows = h;
        self
    }

    /// Migration mode (default [`MigrationMode::Overlapped`]).
    pub fn mode(mut self, m: MigrationMode) -> Self {
        self.mode = m;
        self
    }

    /// Re-probe / re-solve scope (default [`AdaptScope::Localized`]).
    pub fn scope(mut self, s: AdaptScope) -> Self {
        self.scope = s;
        self
    }

    /// Build the [`HealthMonitor`] enforcing this policy.
    pub fn monitor(&self) -> HealthMonitor {
        HealthMonitor::from_policy(self.clone())
    }
}

/// Why [`DistributedDomain::adapt`] declined to migrate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SkipReason {
    /// No verdict yet: an empty window, or the baseline is still warming
    /// up.
    Warmup,
    /// Degraded, but not for enough consecutive windows yet.
    Hysteresis {
        /// Consecutive degraded windows seen so far.
        streak: usize,
        /// Windows required by the policy.
        required: usize,
    },
    /// A re-solve ran and found a different placement, but predicts it
    /// costs more than the current one (possible on the heuristic rung,
    /// whose solve is not exact).
    BelowBenefit {
        /// Predicted relative gain `(old - new) / old` of the new
        /// placement; negative.
        predicted_gain: f64,
    },
    /// A re-solve ran and the measured substrate still prefers the
    /// current placement (typical when the degradation is inter-node —
    /// intra-node re-placement cannot route around a slow switch).
    UnchangedPlacement,
}

impl SkipReason {
    fn label(&self) -> &'static str {
        match self {
            SkipReason::Warmup => "warmup",
            SkipReason::Hysteresis { .. } => "hysteresis",
            SkipReason::BelowBenefit { .. } => "below-benefit",
            SkipReason::UnchangedPlacement => "unchanged-placement",
        }
    }
}

/// Outcome of one [`DistributedDomain::adapt`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum AdaptOutcome {
    /// The window's mean exchange time is within threshold of baseline;
    /// nothing was probed, nothing moved.
    Healthy,
    /// Adaptation was considered and declined; [`SkipReason`] says at
    /// which gate. Gates before [`SkipReason::BelowBenefit`] issue no
    /// probe traffic.
    Skipped {
        /// The gate that declined.
        reason: SkipReason,
    },
    /// The domain migrated to a new placement and rebuilt its plans.
    Migrated {
        /// The re-solved node under [`AdaptScope::Localized`]; `None`
        /// means a global re-solve.
        node: Option<usize>,
        /// World-total migrated (subdomain, quantity) arrays.
        quantities: usize,
        /// Predicted relative gain `(old - new) / old` in QAP cost.
        predicted_gain: f64,
    },
}

/// Verdict of one health checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Health {
    /// No verdict: no exchanges ran since the last checkpoint, or the
    /// baseline is still warming up.
    Warmup,
    /// Mean exchange time within `threshold` × baseline.
    Ok {
        /// Mean exchange time over the window just closed, picoseconds.
        mean_ps: f64,
        /// The warm baseline mean, picoseconds.
        baseline_ps: f64,
    },
    /// Mean exchange time exceeded `threshold` × baseline.
    Degraded {
        /// Mean exchange time over the window just closed, picoseconds.
        mean_ps: f64,
        /// The warm baseline mean, picoseconds.
        baseline_ps: f64,
        /// `mean_ps / baseline_ps`.
        ratio: f64,
    },
}

/// Per-node intra-fabric link watch: the raw material for localizing a
/// degraded link to its node. Lazily initialized on the first checkpoint
/// (the monitor is constructed before the machine is reachable).
#[derive(Debug)]
struct LinkWatch {
    /// Both simulator directions of every duplex link, per node.
    links: Vec<Vec<LinkId>>,
    /// `busy_bytes` per link at the last checkpoint (same shape).
    last_busy: Vec<Vec<f64>>,
    /// Virtual time of the last checkpoint, seconds.
    last_t: f64,
    /// Per-node busy fraction of the window just closed (max over the
    /// node's links of `Δbusy / (capacity × Δt)`).
    cur_frac: Vec<f64>,
}

/// How dominant a node's busiest-link fraction must be over the runner-up
/// for `HealthMonitor::suspect_node` to call it conclusive. The window
/// length cancels in the ratio, so the test is insensitive to idle gaps
/// (e.g. a respawn down-window) stretching the checkpoint interval.
const LOCALIZE_DOMINANCE: f64 = 2.0;

/// Watches the world's running `(count, sum)` of exchange times, which the
/// exchange engine keeps whether or not metrics are on, and flags
/// degradation relative to a warm baseline, localizing the suspect node
/// from per-link busy counters.
///
/// Build one from an [`AdaptPolicy`] (`policy.monitor()`), run a few
/// exchanges, and call [`HealthMonitor::check`] — or, usually, let
/// [`DistributedDomain::adapt`] call it — at a **barrier-synchronized
/// point** (e.g. right after the iteration's collective exchange returns).
/// Every rank then reads identical totals and reaches the same verdict, so
/// the verdict can safely gate the collective adaptation.
#[derive(Debug)]
pub struct HealthMonitor {
    policy: AdaptPolicy,
    /// Exchange-total position at the last checkpoint.
    last_count: u64,
    last_sum: f64,
    /// Baseline accumulation (mean of the first `warmup_windows` windows).
    warm_sum: f64,
    warm_n: usize,
    baseline_ps: Option<f64>,
    /// Consecutive degraded windows (the hysteresis streak).
    streak: usize,
    watch: Option<LinkWatch>,
}

impl HealthMonitor {
    pub(crate) fn from_policy(policy: AdaptPolicy) -> HealthMonitor {
        HealthMonitor {
            policy,
            last_count: 0,
            last_sum: 0.0,
            warm_sum: 0.0,
            warm_n: 0,
            baseline_ps: None,
            streak: 0,
            watch: None,
        }
    }

    /// The policy this monitor enforces.
    pub fn policy(&self) -> &AdaptPolicy {
        &self.policy
    }

    /// Close the window since the previous checkpoint and return a verdict.
    /// Call at a barrier-synchronized point on every rank.
    pub fn check(&mut self, ctx: &RankCtx) -> Health {
        let (count, sum) = exchange_totals(ctx).get();
        let dcount = count - self.last_count;
        let dsum = sum - self.last_sum;
        self.last_count = count;
        self.last_sum = sum;
        if dcount == 0 {
            return Health::Warmup;
        }
        let mean_ps = dsum / dcount as f64;
        self.observe_links(ctx);
        match self.baseline_ps {
            None => {
                self.warm_sum += mean_ps;
                self.warm_n += 1;
                if self.warm_n >= self.policy.warmup_windows {
                    self.baseline_ps = Some(self.warm_sum / self.warm_n as f64);
                }
                Health::Warmup
            }
            Some(baseline_ps) => {
                let ratio = mean_ps / baseline_ps;
                if ratio > self.policy.threshold {
                    Health::Degraded {
                        mean_ps,
                        baseline_ps,
                        ratio,
                    }
                } else {
                    Health::Ok {
                        mean_ps,
                        baseline_ps,
                    }
                }
            }
        }
    }

    /// Advance the per-node link busy fractions over the window just
    /// closed.
    fn observe_links(&mut self, ctx: &RankCtx) {
        let machine = ctx.machine().clone();
        ctx.sim().with_kernel(|k| {
            let watch = self.watch.get_or_insert_with(|| {
                let fabric = machine.fabric();
                let nodes = machine.num_nodes();
                let per_node = fabric.node_link_count();
                let mut links = Vec::with_capacity(nodes);
                for n in 0..nodes {
                    let mut v = Vec::with_capacity(2 * per_node);
                    for l in 0..per_node {
                        let (f, r) = fabric.node_duplex_link(n, l);
                        v.push(f);
                        v.push(r);
                    }
                    links.push(v);
                }
                let last_busy = links
                    .iter()
                    .map(|v| v.iter().map(|&l| k.link_busy_bytes(l)).collect())
                    .collect();
                LinkWatch {
                    links,
                    last_busy,
                    last_t: k.now().as_secs_f64(),
                    cur_frac: vec![0.0; nodes],
                }
            });
            let now = k.now().as_secs_f64();
            let dt = now - watch.last_t;
            watch.last_t = now;
            for (n, links) in watch.links.iter().enumerate() {
                let mut frac: f64 = 0.0;
                for (i, &l) in links.iter().enumerate() {
                    let busy = k.link_busy_bytes(l);
                    let dbusy = busy - watch.last_busy[n][i];
                    watch.last_busy[n][i] = busy;
                    let cap = k.link_capacity(l);
                    if dt > 0.0 && cap > 0.0 {
                        frac = frac.max(dbusy / (cap * dt));
                    }
                }
                watch.cur_frac[n] = frac;
            }
        });
    }

    /// The node whose intra-node fabric most plausibly degraded: the node
    /// whose busiest-link busy fraction over the window just closed
    /// *dominates* every other node's by `LOCALIZE_DOMINANCE` (2.0). A link at
    /// `f×` nominal bandwidth serializes the same halo bytes `1/f×` longer,
    /// so the degraded node's fraction separates sharply from the healthy
    /// ones — and because all nodes share the window length, the ratio is
    /// immune to idle gaps stretching the window. Returns `None` when no
    /// node dominates (uniform load, or the degradation is inter-node —
    /// only intra-node links are watched); ties take the lower node index.
    fn suspect_node(&self) -> Option<usize> {
        let w = self.watch.as_ref()?;
        let mut best = 0usize;
        let mut runner_up: f64 = 0.0;
        for (n, &f) in w.cur_frac.iter().enumerate() {
            if f > w.cur_frac[best] {
                runner_up = w.cur_frac[best];
                best = n;
            } else if n != best && f > runner_up {
                runner_up = f;
            }
        }
        let top = w.cur_frac[best];
        (top > 0.0 && top > LOCALIZE_DOMINANCE * runner_up).then_some(best)
    }

    pub(crate) fn note_degraded(&mut self) -> usize {
        self.streak += 1;
        self.streak
    }

    pub(crate) fn note_healthy(&mut self) {
        self.streak = 0;
    }

    /// Discard the baseline and re-warm, after an adaptation: the
    /// post-migration exchange time is a new normal, and comparing it
    /// against the pre-fault baseline would re-flag a healthy system.
    fn rebaseline(&mut self) {
        self.warm_sum = 0.0;
        self.warm_n = 0;
        self.baseline_ps = None;
        self.streak = 0;
    }
}

/// Probe every node's bandwidths, all-gather the measured distance
/// matrices, and solve every node's QAP against its own measurement, one
/// node after another in node order (collective). The probe copies ride
/// the same links a halo exchange would, so a degraded link shows in the
/// matrices. Nodes can measure different matrices, and every rank must
/// place every node identically (the exchange plan's partner resolution
/// depends on it), hence the all-gather. Returns the placements and the
/// gathered matrices (`[n * ranks_per_node]` is node `n`'s).
pub(crate) fn probe_and_place_every_node(
    ctx: &RankCtx,
    part: &Partition,
    spec: &DomainSpec,
) -> (Vec<Placement>, Vec<Vec<Vec<f64>>>) {
    let bw = measure_node_bandwidths(ctx, DEFAULT_PROBE_BYTES);
    let d = distance_from_measured(&bw);
    let all: Vec<Vec<Vec<f64>>> = ctx.all_gather_obj(ADAPT_BW_TAG, d);
    // Pure solver work: no simulator call, no virtual time. The inputs
    // are identical on every rank, so the solves are too.
    let rpn = ctx.ranks_per_node();
    let placements = (0..part.num_nodes())
        .map(|n| {
            place_with_distance(
                part,
                part.node_from_linear(n),
                &all[n * rpn],
                spec.neighborhood,
                &spec.radius,
                spec.quantities,
                spec.elem_size,
                // Measured matrices use the size-dispatched ladder:
                // exhaustive on thin nodes, multilevel on fat ones.
                PlacementStrategy::Empirical,
                spec.boundary,
            )
        })
        .collect();
    (placements, all)
}

/// A candidate placement set with predicted QAP costs under the measured
/// (degraded) distance matrices.
struct Resolved {
    placements: Vec<Placement>,
    old_cost: f64,
    new_cost: f64,
}

impl DistributedDomain {
    /// Adaptive re-placement behind a typed policy (collective): check the
    /// monitor's barrier-synchronized verdict, and — only when every gate
    /// agrees — re-probe, re-solve, and migrate.
    ///
    /// Gate order (each short-circuits before the next; the first three
    /// issue **no probe traffic**):
    ///
    /// 1. Verdict [`Health::Warmup`] → [`SkipReason::Warmup`];
    ///    [`Health::Ok`] → [`AdaptOutcome::Healthy`].
    /// 2. Hysteresis: fewer than `hysteresis_windows` consecutive degraded
    ///    windows → [`SkipReason::Hysteresis`].
    /// 3. Scope: under [`AdaptScope::Localized`] with a conclusive
    ///    suspect, only that node re-probes and re-solves (its first rank
    ///    broadcasts the result); otherwise every node does.
    /// 4. Unchanged assignment → [`SkipReason::UnchangedPlacement`];
    ///    negative predicted gain → [`SkipReason::BelowBenefit`].
    /// 5. Migrate per [`MigrationMode`], rebuild plans, rebaseline the
    ///    monitor, return [`AdaptOutcome::Migrated`].
    ///
    /// Every rank must call this at the same point (it is as collective as
    /// the constructor). Skips increment the `resilience/adapt_skipped`
    /// counter, labeled by gate.
    pub fn adapt(&mut self, ctx: &RankCtx, monitor: &mut HealthMonitor) -> AdaptOutcome {
        let verdict = monitor.check(ctx);
        match verdict {
            Health::Warmup => return self.skip(ctx, SkipReason::Warmup),
            Health::Ok { .. } => {
                monitor.note_healthy();
                return AdaptOutcome::Healthy;
            }
            Health::Degraded { .. } => {}
        }
        let policy = monitor.policy().clone();
        let streak = monitor.note_degraded();
        if streak < policy.hysteresis_windows {
            return self.skip(
                ctx,
                SkipReason::Hysteresis {
                    streak,
                    required: policy.hysteresis_windows,
                },
            );
        }
        let suspect = match policy.scope {
            AdaptScope::Localized => monitor.suspect_node(),
            AdaptScope::Global => None,
        };
        let resolved = match suspect {
            Some(node) => self.probe_and_resolve_node(ctx, node),
            None => self.probe_and_resolve_global(ctx),
        };
        if resolved
            .placements
            .iter()
            .zip(self.placements.iter())
            .all(|(a, b)| a.gpu_for_subdomain == b.gpu_for_subdomain)
        {
            return self.skip(ctx, SkipReason::UnchangedPlacement);
        }
        let predicted_gain = if resolved.old_cost > 0.0 {
            (resolved.old_cost - resolved.new_cost) / resolved.old_cost
        } else {
            0.0
        };
        if predicted_gain < 0.0 {
            return self.skip(ctx, SkipReason::BelowBenefit { predicted_gain });
        }
        let quantities = resolved
            .placements
            .iter()
            .zip(self.placements.iter())
            .map(|(a, b)| {
                a.gpu_for_subdomain
                    .iter()
                    .zip(&b.gpu_for_subdomain)
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum::<usize>()
            * self.spec.quantities;
        self.migrate_and_rebuild(ctx, resolved.placements, policy.mode);
        monitor.rebaseline();
        AdaptOutcome::Migrated {
            node: suspect,
            quantities,
            predicted_gain,
        }
    }

    fn skip(&self, ctx: &RankCtx, reason: SkipReason) -> AdaptOutcome {
        ctx.sim().with_kernel(|k| {
            if k.metrics.is_enabled() {
                k.metrics.counter_add(
                    "resilience",
                    "adapt_skipped",
                    &[("reason", reason.label())],
                    1,
                );
            }
        });
        AdaptOutcome::Skipped { reason }
    }

    /// Probe every node and re-solve every node's QAP, then price the
    /// current and the re-solved placements against the measured matrices.
    fn probe_and_resolve_global(&self, ctx: &RankCtx) -> Resolved {
        let rpn = ctx.ranks_per_node();
        let (placements, all) = probe_and_place_every_node(ctx, &self.part, &self.spec);
        let mut old_cost = 0.0;
        let mut new_cost = 0.0;
        for (n, pl) in placements.iter().enumerate() {
            let idx = self.part.node_from_linear(n);
            let w = flow_matrix_bc(
                &self.part,
                idx,
                self.spec.neighborhood,
                &self.spec.radius,
                self.spec.quantities,
                self.spec.elem_size,
                self.spec.boundary,
            );
            old_cost += qap::cost(&w, &all[n * rpn], &self.placements[n].gpu_for_subdomain);
            new_cost += pl.cost;
        }
        Resolved {
            placements,
            old_cost,
            new_cost,
        }
    }

    /// Probe and re-solve only `bad_node`: its ranks run the node-local
    /// probe, its first rank solves the node's QAP against the measured
    /// matrix and broadcasts `(placement, old_cost, new_cost)` to every
    /// other rank of the world. All other nodes keep their placements.
    fn probe_and_resolve_node(&self, ctx: &RankCtx, bad_node: usize) -> Resolved {
        let rpn = ctx.ranks_per_node();
        let first = bad_node * rpn;
        let num_ranks = ctx.size();
        let (pl, old_cost, new_cost) = if ctx.node() == bad_node {
            let bw = measure_node_bandwidths(ctx, DEFAULT_PROBE_BYTES);
            if ctx.rank() == first {
                let d = distance_from_measured(&bw);
                let idx = self.part.node_from_linear(bad_node);
                let pl = place_with_distance(
                    &self.part,
                    idx,
                    &d,
                    self.spec.neighborhood,
                    &self.spec.radius,
                    self.spec.quantities,
                    self.spec.elem_size,
                    PlacementStrategy::Empirical,
                    self.spec.boundary,
                );
                let w = flow_matrix_bc(
                    &self.part,
                    idx,
                    self.spec.neighborhood,
                    &self.spec.radius,
                    self.spec.quantities,
                    self.spec.elem_size,
                    self.spec.boundary,
                );
                let old = qap::cost(&w, &d, &self.placements[bad_node].gpu_for_subdomain);
                let new = pl.cost;
                for r in 0..num_ranks {
                    if r != first {
                        ctx.send_obj(r, ADAPT_BW_TAG, (pl.clone(), old, new));
                    }
                }
                (pl, old, new)
            } else {
                ctx.recv_obj::<(Placement, f64, f64)>(first, ADAPT_BW_TAG)
            }
        } else {
            ctx.recv_obj::<(Placement, f64, f64)>(first, ADAPT_BW_TAG)
        };
        let mut placements = Vec::clone(&self.placements);
        placements[bad_node] = pl;
        Resolved {
            placements,
            old_cost,
            new_cost,
        }
    }

    /// Migrate subdomain arrays to their new GPUs and rebuild the exchange
    /// plans. Placement is per-node, so migrations never cross nodes; they
    /// may cross ranks within a node. Protocol: post all receives first,
    /// then stage-and-send departures, then intra-rank copies, then drain
    /// — deadlock-free because receives are posted before any blocking
    /// operation.
    fn migrate_and_rebuild(
        &mut self,
        ctx: &RankCtx,
        new_placements: Vec<Placement>,
        mode: MigrationMode,
    ) {
        let machine = ctx.machine().clone();
        let rpn = ctx.ranks_per_node();
        let gpr = machine.gpus_per_node() / rpn;
        let node = ctx.node();
        let my_rank = ctx.rank();
        let stop_the_world = mode == MigrationMode::StopTheWorld;
        if stop_the_world {
            // Naive baseline: fence the whole world before touching data.
            ctx.barrier();
        }

        let node_idx = self.part.node_from_linear(node);
        let quantities = self.spec.quantities;
        let my_devices = ctx.gpus();
        let mut old_locals: Vec<Option<LocalDomain>> = std::mem::take(&mut self.locals)
            .into_iter()
            .map(Some)
            .collect();

        // New local set, one per owned device, reusing LocalDomains whose
        // device keeps its subdomain.
        let mut new_locals: Vec<LocalDomain> = Vec::with_capacity(my_devices.len());
        // (new_local index, subdomain, old device, source rank)
        let mut arrivals: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (i, &device) in my_devices.iter().enumerate() {
            let local_gpu = machine.local_of(device);
            let s = new_placements[node].subdomain_for_gpu[local_gpu];
            let old_gpu = self.placements[node].gpu_for_subdomain[s];
            let old_device = machine.device_at(node, old_gpu);
            if old_device == device {
                let j = old_locals
                    .iter()
                    .position(|l| l.as_ref().is_some_and(|l| l.device == device))
                    .expect("device owned a subdomain before adaptation");
                new_locals.push(old_locals[j].take().expect("just located"));
                continue;
            }
            let gpu_idx = self.part.gpu_from_linear(s);
            let interior = self.part.gpu_box(node_idx, gpu_idx);
            let local = ctx
                .sim()
                .with_kernel(|k| {
                    LocalDomain::new(
                        &machine,
                        k,
                        node_idx,
                        gpu_idx,
                        interior,
                        device,
                        quantities,
                        self.spec.elem_size,
                        self.spec.radius,
                    )
                })
                .unwrap_or_else(|e| panic!("allocating migrated subdomain: {e}"));
            arrivals.push((i, s, old_device, node * rpn + old_gpu / gpr));
            new_locals.push(local);
        }

        let socket_of = |device: usize| machine.fabric().gpu_socket(machine.local_of(device));

        // Post receives for subdomains arriving from other ranks.
        let mut recv_stage: Vec<(usize, usize, Buffer, Request)> = Vec::new(); // (new idx, q, host, req)
        for &(i, s, _, src_rank) in &arrivals {
            if src_rank == my_rank {
                continue;
            }
            for q in 0..quantities {
                let len = new_locals[i].arrays[q].len();
                let host = machine.alloc_host_untimed(node, socket_of(my_devices[i]), len);
                let tag = MIGRATE_TAG_BASE + (s as u64) * quantities as u64 + q as u64;
                let req = ctx.irecv(&host, 0, len, src_rank, tag);
                recv_stage.push((i, q, host, req));
            }
        }

        // Stage and send departures to other ranks. Overlapped mode issues
        // every D2H staging copy *before* waiting on any — the copies ride
        // distinct source devices and streams, so migration cost
        // approaches the slowest transfer instead of the sum. Stop-the-
        // world waits out each (copy, send) pair before touching the next.
        let mut send_reqs: Vec<Request> = Vec::new();
        let mut send_stage: Vec<Buffer> = Vec::new(); // keep host bufs alive
        let mut staged: Vec<(Completion, Buffer, u64, usize, u64)> = Vec::new(); // (copy, host, tag, dst, len)
        for old in old_locals.iter().flatten() {
            let s = self.part.gpu_linear(old.gpu_idx);
            let new_gpu = new_placements[node].gpu_for_subdomain[s];
            let dst_rank = node * rpn + new_gpu / gpr;
            if dst_rank == my_rank {
                continue; // handled as an intra-rank copy below
            }
            for q in 0..quantities {
                let len = old.arrays[q].len();
                let host = machine.alloc_host_untimed(node, socket_of(old.device), len);
                let c = machine.memcpy_async(
                    ctx.sim(),
                    old.compute_stream,
                    &host,
                    0,
                    &old.arrays[q],
                    0,
                    len,
                );
                let tag = MIGRATE_TAG_BASE + (s as u64) * quantities as u64 + q as u64;
                if stop_the_world {
                    ctx.sim().wait(&c);
                    let r = ctx.isend(&host, 0, len, dst_rank, tag);
                    ctx.wait(&r);
                    send_stage.push(host);
                } else {
                    staged.push((c, host, tag, dst_rank, len));
                }
            }
        }
        for (c, host, tag, dst_rank, len) in staged {
            ctx.sim().wait(&c);
            send_reqs.push(ctx.isend(&host, 0, len, dst_rank, tag));
            send_stage.push(host);
        }

        // Intra-rank moves: peer copy when the fabric allows it, otherwise
        // bounce through the source socket's host memory.
        let mut copies: Vec<Completion> = Vec::new();
        for &(i, _, old_device, src_rank) in &arrivals {
            if src_rank != my_rank {
                continue;
            }
            let j = old_locals
                .iter()
                .position(|l| l.as_ref().is_some_and(|l| l.device == old_device))
                .expect("intra-rank source subdomain present");
            let old = old_locals[j].as_ref().expect("just located");
            let dst = &new_locals[i];
            for q in 0..quantities {
                let len = old.arrays[q].len();
                if machine.can_access_peer(old_device, dst.device) {
                    machine
                        .enable_peer_access(old_device, dst.device)
                        .expect("peer capability checked");
                    copies.push(machine.memcpy_async(
                        ctx.sim(),
                        old.compute_stream,
                        &dst.arrays[q],
                        0,
                        &old.arrays[q],
                        0,
                        len,
                    ));
                } else {
                    let host = machine.alloc_host_untimed(node, socket_of(old_device), len);
                    let c = machine.memcpy_async(
                        ctx.sim(),
                        old.compute_stream,
                        &host,
                        0,
                        &old.arrays[q],
                        0,
                        len,
                    );
                    ctx.sim().wait(&c);
                    copies.push(machine.memcpy_async(
                        ctx.sim(),
                        dst.compute_stream,
                        &dst.arrays[q],
                        0,
                        &host,
                        0,
                        len,
                    ));
                    send_stage.push(host);
                }
                if stop_the_world {
                    for c in copies.drain(..) {
                        ctx.sim().wait(&c);
                    }
                }
            }
        }

        // Drain: sends, receives, then unstage received data to the device.
        ctx.wait_all(&send_reqs);
        let mut unstage: Vec<Completion> = Vec::new();
        for (i, q, host, req) in recv_stage {
            ctx.wait(&req);
            let dst = &new_locals[i];
            let len = dst.arrays[q].len();
            let c = machine.memcpy_async(
                ctx.sim(),
                dst.compute_stream,
                &dst.arrays[q],
                0,
                &host,
                0,
                len,
            );
            if stop_the_world {
                ctx.sim().wait(&c);
            } else {
                unstage.push(c);
            }
            send_stage.push(host);
        }
        for c in copies.iter().chain(unstage.iter()) {
            ctx.sim().wait(c);
        }
        drop(send_stage); // host staging released (host memory is untracked)

        // Free device arrays of subdomains that left their old device.
        for old in old_locals.into_iter().flatten() {
            for a in &old.arrays {
                machine.free_device(a);
            }
        }

        self.free_plan_device_buffers(&machine);
        self.placements = Rc::new(new_placements);
        self.locals = new_locals;
        if stop_the_world {
            // Fence out: nobody computes until the whole world migrated.
            ctx.barrier();
        }
        self.plans = build_plans(ctx, &self.part, &self.placements, &self.locals, &self.spec);
    }

    /// Release the plans' device staging (before a rebuild allocates the
    /// new ones) and clear the plans. `remote_buf` is the colocated
    /// *receiver's* buffer, IPC-opened at setup — the receiver frees it as
    /// its own segment buffer; freeing it here too would double-free.
    fn free_plan_device_buffers(&mut self, machine: &gpusim::GpuMachine) {
        let sends = std::mem::take(&mut self.plans.sends);
        let recvs = std::mem::take(&mut self.plans.recvs);
        let pack_bufs = sends.iter().filter_map(|sp| sp.pack_buf.as_ref());
        let recv_bufs = recvs.iter().flat_map(|rp| &rp.segments);
        for b in pack_bufs.chain(recv_bufs.filter_map(|seg| seg.dev_buf.as_ref())) {
            machine.free_device(b);
        }
    }

    /// The domain half of the shrink-or-respawn protocol (collective over
    /// the *whole* world, dead ranks included; call once the kill instant
    /// has passed). A killed rank frees its device arrays and plan staging
    /// — the simulated process died, its device memory is reclaimed — but
    /// keeps the placement tables, which are world-global knowledge the
    /// respawned process re-derives, and waits for its respawn; survivors
    /// wait for the world to be whole again. After a barrier, the
    /// respawned rank reallocates its subdomains per the current
    /// placements (contents are fresh — a died process's data is gone;
    /// checkpoint/restart is the application's concern), survivors drop
    /// their stale plans (they reference revoked channels and the dead
    /// rank's freed IPC buffers), and everyone rebuilds the exchange plans
    /// — the re-handshake, riding the fresh channels the kill's
    /// communicator revocation made room for.
    pub fn rejoin_after_respawn(&mut self, ctx: &RankCtx) {
        let machine = ctx.machine().clone();
        let me = ctx.rank();
        if !ctx.is_alive(me) {
            for old in std::mem::take(&mut self.locals) {
                for a in &old.arrays {
                    machine.free_device(a);
                }
            }
            self.free_plan_device_buffers(&machine);
            ctx.await_respawn(me);
        } else {
            ctx.await_all_alive();
        }
        ctx.barrier();
        // Survivors still hold pre-kill plans; the respawned rank's were
        // already cleared above (making this a no-op).
        self.free_plan_device_buffers(&machine);
        if self.locals.is_empty() {
            self.locals = alloc_locals(ctx, &self.part, &self.placements, &self.spec);
        }
        self.plans = build_plans(ctx, &self.part, &self.placements, &self.locals, &self.spec);
    }
}

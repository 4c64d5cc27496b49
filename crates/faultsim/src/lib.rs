//! Deterministic, virtual-time fault injection for the simulation stack.
//!
//! A [`FaultSchedule`] is an explicit event table — no RNG anywhere — of
//! [`FaultEvent`]s, each degrading or restoring a [`FaultTarget`] at a fixed
//! virtual-time offset. Installing a schedule resolves every target to the
//! concrete simulator links it covers, captures their baseline capacity and
//! latency, and registers one kernel timer per event. Because the table is
//! explicit and timers fire in deterministic `(time, install-order)` order,
//! a faulted run is bit-identical across repetitions, and installing an
//! *empty* schedule registers zero events, leaving the simulation
//! bit-identical to one without the subsystem at all.
//!
//! Six fault classes cover the paper's placement-invalidating scenarios:
//!
//! * **Link degradation** ([`FaultTarget::NodeLink`] /
//!   [`FaultTarget::GpuPair`]) — an intra-node NVLink/X-Bus/PCIe link loses
//!   bandwidth (and optionally gains latency) mid-run. Uses
//!   `Kernel::set_link_capacity`, which re-settles and re-projects every
//!   flow crossing the link under the conservation invariants.
//! * **NIC flap** ([`FaultTarget::Nic`]) — a node's injection/ejection
//!   links stall to [`STALL_BANDWIDTH_FACTOR`] of nominal for an interval.
//!   Capacities must stay positive, so a "down" NIC is modeled as a
//!   near-zero trickle; in-flight messages resume when the NIC comes back.
//! * **Switch degradation** ([`FaultTarget::Switch`]) — one switch of the
//!   fat tree degrades, correlating the NICs of the contiguous node range
//!   behind it.
//! * **Straggler device** ([`FaultTarget::Device`]) — one GPU's
//!   kernel/copy engine runs at a fraction of nominal speed, slowing its
//!   compute, packs, and same-device copies.
//! * **Memory shrink** ([`FaultAction::ShrinkMem`] on a device) — the
//!   device's usable memory limit drops mid-run; existing allocations
//!   survive but new ones fail, modeling fenced-off bad HBM pages.
//! * **Process death** ([`FaultTarget::Rank`] with [`FaultAction::Kill`] /
//!   [`FaultAction::Respawn`]) — a simulated MPI rank dies and optionally
//!   comes back. Rank events are *not* applied by [`FaultSchedule::install_at`]
//!   (this crate knows links and devices, not communicators); the MPI
//!   layer reads them via [`FaultSchedule::rank_events`] and implements
//!   the ULFM-style shrink-or-respawn contract (see `docs/RESILIENCE.md`).
//!
//! Factors are always relative to the baseline captured at install time, so
//! repeated degrades do not compound and [`FaultAction::Restore`] returns
//! the target to its install-time state.

#![warn(missing_docs)]

use detsim::{Kernel, LinkId, SimDuration, SimTime};
use gpusim::GpuMachine;

/// Bandwidth factor used to model a stalled ("down") transport. Link
/// capacities must stay positive, so a stall is a near-zero trickle rather
/// than a true zero; at simulated message sizes the residual rate is
/// negligible against any realistic flap interval.
pub const STALL_BANDWIDTH_FACTOR: f64 = 1e-6;

/// The piece of the machine a fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Duplex link `link` of node `node`'s local fabric, both directions.
    /// `link` indexes the node spec's link table (see
    /// `Fabric::node_link_count`).
    NodeLink {
        /// Node whose fabric holds the link.
        node: usize,
        /// Index into the node spec's duplex-link table.
        link: usize,
    },
    /// Every fabric link on the intra-node path between two GPUs of one
    /// node, both directions — e.g. "the NVLink joining a triad pair".
    GpuPair {
        /// Node holding both GPUs.
        node: usize,
        /// First node-local GPU index.
        a: usize,
        /// Second node-local GPU index.
        b: usize,
    },
    /// A node's NIC: its injection and ejection links.
    Nic {
        /// Node whose NIC is targeted.
        node: usize,
    },
    /// One device's kernel/copy engine (global device id).
    Device {
        /// Global device id (`node * gpus_per_node + local`).
        device: usize,
    },
    /// A switch of the inter-node fabric: the injection and ejection links
    /// of every node in the contiguous range `[first_node, first_node +
    /// nodes)` — the blast radius of one fat-tree switch. Switch `k` of a
    /// level that puts `s` nodes behind each switch covers
    /// `[k * s, min((k + 1) * s, num_nodes))`.
    Switch {
        /// First node behind the switch.
        first_node: usize,
        /// Number of nodes behind the switch.
        nodes: usize,
    },
    /// A simulated MPI rank (process). Only [`FaultAction::Kill`] and
    /// [`FaultAction::Respawn`] apply; events on this target are skipped
    /// by [`FaultSchedule::install_at`] and installed by the MPI layer.
    Rank {
        /// World rank of the process.
        rank: usize,
    },
}

/// The transition a [`FaultEvent`] applies to its target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Scale the target's install-time baseline: capacity is multiplied by
    /// `bandwidth_factor`, latency by `latency_factor`. Both factors must
    /// be positive and finite. Factors are absolute against the baseline,
    /// not the current value, so repeated degrades do not compound.
    Degrade {
        /// Multiplier on baseline bandwidth (e.g. `0.1` = 10% of nominal).
        bandwidth_factor: f64,
        /// Multiplier on baseline latency (`1.0` = unchanged).
        latency_factor: f64,
    },
    /// Return the target to the baseline captured at install time. On a
    /// [`FaultTarget::Device`] this also clears any memory-limit override
    /// applied by [`FaultAction::ShrinkMem`].
    Restore,
    /// Shrink a device's usable memory limit to `mem_factor` x its
    /// configured limit. Only valid on [`FaultTarget::Device`]. Existing
    /// allocations survive; new ones fail against the shrunken limit.
    ShrinkMem {
        /// Multiplier on the configured device memory limit, in `(0, 1]`.
        mem_factor: f64,
    },
    /// Kill a rank: its pending sends/receives resolve as revoked, its
    /// channels are torn down, and survivors observe a shrunken world.
    /// Only valid on [`FaultTarget::Rank`].
    Kill,
    /// Respawn a previously killed rank: it rejoins the world and channels
    /// re-handshake. Only valid on [`FaultTarget::Rank`].
    Respawn,
}

/// One scheduled fault transition.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// When the transition fires, relative to schedule installation.
    pub at: SimDuration,
    /// What it applies to.
    pub target: FaultTarget,
    /// What happens.
    pub action: FaultAction,
}

/// An explicit, deterministic table of fault transitions.
///
/// Build one with the fluent methods ([`FaultSchedule::degrade`],
/// [`FaultSchedule::restore`], [`FaultSchedule::stall`]) or a named
/// scenario constructor, then install it into a kernel with
/// [`FaultSchedule::install_at`]. The default schedule is empty and
/// installs zero events.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing; runs stay bit-identical).
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled transitions, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append a transition. Panics on non-positive or non-finite factors
    /// or an action/target mismatch — schedules are validated at build
    /// time, not at fire time.
    pub fn push(mut self, event: FaultEvent) -> Self {
        let is_rank = matches!(event.target, FaultTarget::Rank { .. });
        match event.action {
            FaultAction::Degrade {
                bandwidth_factor,
                latency_factor,
            } => {
                assert!(
                    bandwidth_factor > 0.0 && bandwidth_factor.is_finite(),
                    "bandwidth factor must be positive and finite"
                );
                assert!(
                    latency_factor > 0.0 && latency_factor.is_finite(),
                    "latency factor must be positive and finite"
                );
                assert!(!is_rank, "Degrade does not apply to a rank target");
            }
            FaultAction::Restore => {
                assert!(!is_rank, "Restore does not apply to a rank target");
            }
            FaultAction::ShrinkMem { mem_factor } => {
                assert!(
                    mem_factor > 0.0 && mem_factor <= 1.0,
                    "memory factor must be in (0, 1]"
                );
                assert!(
                    matches!(event.target, FaultTarget::Device { .. }),
                    "ShrinkMem only applies to a device target"
                );
            }
            FaultAction::Kill | FaultAction::Respawn => {
                assert!(is_rank, "Kill/Respawn only apply to a rank target");
            }
        }
        self.events.push(event);
        self
    }

    /// The rank-lifecycle transitions of the schedule, in insertion order:
    /// `(offset, rank, action)` with action [`FaultAction::Kill`] or
    /// [`FaultAction::Respawn`]. [`FaultSchedule::install_at`] skips these;
    /// the MPI layer installs them against its own state.
    pub fn rank_events(&self) -> impl Iterator<Item = (SimDuration, usize, FaultAction)> + '_ {
        self.events.iter().filter_map(|ev| match ev.target {
            FaultTarget::Rank { rank } => Some((ev.at, rank, ev.action)),
            _ => None,
        })
    }

    /// Degrade `target` to `bandwidth_factor` x baseline bandwidth at `at`
    /// (latency unchanged).
    pub fn degrade(self, at: SimDuration, target: FaultTarget, bandwidth_factor: f64) -> Self {
        self.push(FaultEvent {
            at,
            target,
            action: FaultAction::Degrade {
                bandwidth_factor,
                latency_factor: 1.0,
            },
        })
    }

    /// Restore `target` to its install-time baseline at `at`.
    pub fn restore(self, at: SimDuration, target: FaultTarget) -> Self {
        self.push(FaultEvent {
            at,
            target,
            action: FaultAction::Restore,
        })
    }

    /// Stall `target` (degrade to [`STALL_BANDWIDTH_FACTOR`]) for the
    /// half-open interval `[from, from + down_for)`.
    pub fn stall(self, from: SimDuration, down_for: SimDuration, target: FaultTarget) -> Self {
        self.degrade(from, target, STALL_BANDWIDTH_FACTOR)
            .restore(from + down_for, target)
    }

    /// Concatenate another schedule's events after this one's.
    pub fn merge(mut self, other: FaultSchedule) -> Self {
        self.events.extend(other.events);
        self
    }

    // ----- named scenarios -------------------------------------------------

    /// **degraded-triad**: at `at`, the intra-node path between GPUs `a`
    /// and `b` of `node` permanently drops to `bandwidth_factor` x nominal
    /// — the paper-motivating case where the placement's best link stops
    /// being best.
    pub fn degraded_triad(
        node: usize,
        a: usize,
        b: usize,
        at: SimDuration,
        bandwidth_factor: f64,
    ) -> Self {
        Self::new().degrade(at, FaultTarget::GpuPair { node, a, b }, bandwidth_factor)
    }

    /// **flapping-nic**: starting at `first_down`, node `node`'s NIC goes
    /// down for `down_for` then up for `up_for`, `flaps` times.
    pub fn flapping_nic(
        node: usize,
        first_down: SimDuration,
        down_for: SimDuration,
        up_for: SimDuration,
        flaps: usize,
    ) -> Self {
        let mut s = Self::new();
        let period = down_for + up_for;
        let mut start = first_down;
        for _ in 0..flaps {
            s = s.stall(start, down_for, FaultTarget::Nic { node });
            start += period;
        }
        s
    }

    /// **one-straggler-gpu**: at `at`, device `device`'s engine permanently
    /// drops to `speed_factor` x nominal throughput.
    pub fn straggler_gpu(device: usize, at: SimDuration, speed_factor: f64) -> Self {
        Self::new().degrade(at, FaultTarget::Device { device }, speed_factor)
    }

    /// **cascading**: a triad-link degradation on `node` (GPUs `a`/`b`),
    /// then a NIC flap on the same node, then a straggler `device`, each
    /// `spacing` after the previous, starting at `at`. The compound case:
    /// by the end, three independent faults are live at once.
    pub fn cascading(
        node: usize,
        a: usize,
        b: usize,
        device: usize,
        at: SimDuration,
        spacing: SimDuration,
    ) -> Self {
        Self::degraded_triad(node, a, b, at, 0.1)
            .merge(Self::flapping_nic(node, at + spacing, spacing, spacing, 2))
            .merge(Self::straggler_gpu(device, at + spacing + spacing, 0.05))
    }

    /// **degraded-switch**: at `at`, the switch behind nodes
    /// `[first_node, first_node + nodes)` drops to `bandwidth_factor` x
    /// nominal on every covered NIC — correlated degradation across a
    /// whole fat-tree group.
    pub fn degraded_switch(
        first_node: usize,
        nodes: usize,
        at: SimDuration,
        bandwidth_factor: f64,
    ) -> Self {
        Self::new().degrade(
            at,
            FaultTarget::Switch { first_node, nodes },
            bandwidth_factor,
        )
    }

    /// Kill `rank` at `at`, permanently (no respawn).
    pub fn kill(rank: usize, at: SimDuration) -> Self {
        Self::new().push(FaultEvent {
            at,
            target: FaultTarget::Rank { rank },
            action: FaultAction::Kill,
        })
    }

    /// **kill-respawn**: `rank` dies at `at` and rejoins `down_for` later.
    pub fn kill_respawn(rank: usize, at: SimDuration, down_for: SimDuration) -> Self {
        Self::kill(rank, at).push(FaultEvent {
            at: at + down_for,
            target: FaultTarget::Rank { rank },
            action: FaultAction::Respawn,
        })
    }

    /// **oom-respawn**: at `at`, device `device`'s memory shrinks to
    /// `mem_factor` x nominal and its owning `rank` is killed (the OOM
    /// took the process down); `down_for` later the memory is restored and
    /// the rank respawns. The caller maps device to owning rank — this
    /// crate does not know the rank↔device assignment.
    pub fn oom_respawn(
        device: usize,
        rank: usize,
        at: SimDuration,
        down_for: SimDuration,
        mem_factor: f64,
    ) -> Self {
        // Order matters at equal timestamps: shrink lands before the kill,
        // and the memory is restored before the rank rejoins.
        Self::new()
            .push(FaultEvent {
                at,
                target: FaultTarget::Device { device },
                action: FaultAction::ShrinkMem { mem_factor },
            })
            .restore(at + down_for, FaultTarget::Device { device })
            .merge(Self::kill_respawn(rank, at, down_for))
    }

    // ----- installation ----------------------------------------------------

    /// Install the schedule with event offsets measured from virtual time
    /// zero. Call during world construction, before the simulation runs.
    pub fn install(&self, kernel: &mut Kernel, machine: &GpuMachine) {
        self.install_at(kernel, machine, SimTime::ZERO);
    }

    /// Install the schedule with event offsets measured from `base`.
    ///
    /// Every target is resolved to its concrete simulator links *now*, and
    /// each link's current capacity and latency are captured as the
    /// baseline that factors multiply and [`FaultAction::Restore`]
    /// reinstates. One kernel timer is registered per event; an empty
    /// schedule registers nothing. Install a schedule exactly once — the
    /// baselines of a second installation would capture any degradation
    /// the first one has already applied.
    ///
    /// Rank kill/respawn events are *skipped* here — this layer has no
    /// notion of a communicator. The MPI layer installs them from
    /// [`FaultSchedule::rank_events`]; a schedule installed through both
    /// paths (as `mpisim::run_world` does) gets every event exactly once.
    pub fn install_at(&self, kernel: &mut Kernel, machine: &GpuMachine, base: SimTime) {
        for ev in &self.events {
            if matches!(ev.target, FaultTarget::Rank { .. }) {
                continue;
            }
            let links: Vec<(LinkId, f64, SimDuration)> = match ev.action {
                // Memory shrink touches no links (the engine keeps its speed).
                FaultAction::ShrinkMem { .. } => Vec::new(),
                _ => resolve_links(machine, ev.target)
                    .into_iter()
                    .map(|l| (l, kernel.link_capacity(l), kernel.link_latency(l)))
                    .collect(),
            };
            let mem = match (ev.target, ev.action) {
                (FaultTarget::Device { device }, FaultAction::ShrinkMem { mem_factor }) => {
                    let limit = (machine.device_mem_limit(device) as f64 * mem_factor) as u64;
                    Some((device, Some(limit)))
                }
                (FaultTarget::Device { device }, FaultAction::Restore) => Some((device, None)),
                _ => None,
            };
            let action = ev.action;
            let m = machine.clone();
            kernel.schedule_at(base + ev.at, move |k| {
                apply(k, &links, action);
                if let Some((device, limit)) = mem {
                    m.set_device_mem_limit(device, limit);
                    if k.metrics.is_enabled() {
                        let name = k.link_name(m.engine_link(device)).to_string();
                        let label = if limit.is_some() {
                            "shrink-mem"
                        } else {
                            "restore-mem"
                        };
                        k.metrics.counter_add(
                            "faultsim",
                            "transitions",
                            &[("link", &name), ("action", label)],
                            1,
                        );
                    }
                }
            });
        }
    }
}

/// Resolve a target to the simulator links it covers, deduplicated.
fn resolve_links(machine: &GpuMachine, target: FaultTarget) -> Vec<LinkId> {
    let fabric = machine.fabric();
    match target {
        FaultTarget::NodeLink { node, link } => {
            let (fwd, rev) = fabric.node_duplex_link(node, link);
            vec![fwd, rev]
        }
        FaultTarget::GpuPair { node, a, b } => {
            let mut links = fabric.gpu_gpu_path(node, a, b);
            links.extend(fabric.gpu_gpu_path(node, b, a));
            links.sort_unstable();
            links.dedup();
            links
        }
        FaultTarget::Nic { node } => {
            vec![fabric.injection_link(node), fabric.ejection_link(node)]
        }
        FaultTarget::Device { device } => vec![machine.engine_link(device)],
        FaultTarget::Switch { first_node, nodes } => {
            let last = (first_node + nodes).min(machine.num_nodes());
            (first_node..last)
                .flat_map(|n| [fabric.injection_link(n), fabric.ejection_link(n)])
                .collect()
        }
        FaultTarget::Rank { .. } => Vec::new(),
    }
}

/// Apply one fired transition to its resolved links.
fn apply(k: &mut Kernel, links: &[(LinkId, f64, SimDuration)], action: FaultAction) {
    let label = match action {
        FaultAction::Degrade { .. } => "degrade",
        _ => "restore",
    };
    for &(link, base_cap, base_lat) in links {
        match action {
            FaultAction::Degrade {
                bandwidth_factor,
                latency_factor,
            } => {
                k.set_link_capacity(link, base_cap * bandwidth_factor);
                if latency_factor != 1.0 {
                    k.set_link_latency(
                        link,
                        SimDuration::from_secs_f64(base_lat.as_secs_f64() * latency_factor),
                    );
                }
            }
            FaultAction::Restore => {
                k.set_link_capacity(link, base_cap);
                k.set_link_latency(link, base_lat);
            }
            // Resolved to zero links above; nothing to apply here.
            FaultAction::ShrinkMem { .. } | FaultAction::Kill | FaultAction::Respawn => {}
        }
        if k.metrics.is_enabled() {
            let name = k.link_name(link).to_string();
            k.metrics.counter_add(
                "faultsim",
                "transitions",
                &[("link", &name), ("action", label)],
                1,
            );
        }
    }
}

/// The registry of named fault scenarios — the single name table shared by
/// the `chaos` bench CLI, the service wire format, and tests. A new
/// scenario registers here once and is reachable everywhere by the same
/// string; [`Scenario::name`] and [`Scenario::parse`] round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// No injected faults.
    None,
    /// A triad NVLink degrades ([`FaultSchedule::degraded_triad`]).
    DegradedTriad,
    /// The degraded-triad pattern on a fat (12-GPU) node.
    DegradedFatNode,
    /// A NIC flaps down and up ([`FaultSchedule::flapping_nic`]).
    FlappingNic,
    /// One GPU engine runs slow ([`FaultSchedule::straggler_gpu`]).
    StragglerGpu,
    /// Compound triad + flap + straggler ([`FaultSchedule::cascading`]).
    Cascading,
    /// A rank dies and rejoins ([`FaultSchedule::kill_respawn`]).
    KillRespawn,
    /// A device OOMs, killing its rank ([`FaultSchedule::oom_respawn`]).
    OomRespawn,
}

impl Scenario {
    /// Every registered scenario, in display order.
    pub const ALL: [Scenario; 8] = [
        Scenario::None,
        Scenario::DegradedTriad,
        Scenario::DegradedFatNode,
        Scenario::FlappingNic,
        Scenario::StragglerGpu,
        Scenario::Cascading,
        Scenario::KillRespawn,
        Scenario::OomRespawn,
    ];

    /// The canonical wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::None => "none",
            Scenario::DegradedTriad => "degraded-triad",
            Scenario::DegradedFatNode => "degraded-fat-node",
            Scenario::FlappingNic => "flapping-nic",
            Scenario::StragglerGpu => "straggler-gpu",
            Scenario::Cascading => "cascading",
            Scenario::KillRespawn => "kill-respawn",
            Scenario::OomRespawn => "oom-respawn",
        }
    }

    /// Look a scenario up by its canonical name.
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|sc| sc.name() == s)
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{DataMode, GpuCostModel};
    use topo::summit::summit_cluster;

    fn machine(k: &mut Kernel) -> GpuMachine {
        GpuMachine::new(
            k,
            summit_cluster(2),
            GpuCostModel::default(),
            DataMode::Virtual,
        )
    }

    #[test]
    fn empty_schedule_installs_no_events() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        FaultSchedule::new().install(&mut k, &m);
        k.run_to_completion();
        assert_eq!(k.executed_events(), 0);
    }

    #[test]
    fn degrade_and_restore_round_trip_capacity_and_latency() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let path = m.fabric().gpu_gpu_path(0, 0, 1);
        assert_eq!(path.len(), 1);
        let link = path[0];
        let cap0 = k.link_capacity(link);
        let lat0 = k.link_latency(link);
        let target = FaultTarget::GpuPair {
            node: 0,
            a: 0,
            b: 1,
        };
        let s = FaultSchedule::new()
            .push(FaultEvent {
                at: SimDuration::from_micros(10),
                target,
                action: FaultAction::Degrade {
                    bandwidth_factor: 0.25,
                    latency_factor: 2.0,
                },
            })
            .restore(SimDuration::from_micros(20), target);
        s.install(&mut k, &m);
        let expected_lat = SimDuration::from_secs_f64(lat0.as_secs_f64() * 2.0);
        k.schedule_at(SimTime::ZERO + SimDuration::from_micros(15), move |k| {
            assert_eq!(k.link_capacity(link), cap0 * 0.25);
            assert_eq!(k.link_latency(link), expected_lat);
        });
        k.run_to_completion();
        assert_eq!(k.link_capacity(link), cap0);
        assert_eq!(k.link_latency(link), lat0);
    }

    #[test]
    fn repeated_degrades_do_not_compound() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let link = k.link_capacity(m.fabric().injection_link(1));
        let target = FaultTarget::Nic { node: 1 };
        let s = FaultSchedule::new()
            .degrade(SimDuration::from_micros(1), target, 0.5)
            .degrade(SimDuration::from_micros(2), target, 0.5);
        s.install(&mut k, &m);
        k.run_to_completion();
        assert_eq!(k.link_capacity(m.fabric().injection_link(1)), link * 0.5);
    }

    #[test]
    fn nic_stall_hits_both_directions() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let inj = m.fabric().injection_link(0);
        let ej = m.fabric().ejection_link(0);
        let cap_in = k.link_capacity(inj);
        let cap_out = k.link_capacity(ej);
        let s = FaultSchedule::flapping_nic(
            0,
            SimDuration::from_micros(5),
            SimDuration::from_micros(5),
            SimDuration::from_micros(5),
            1,
        );
        s.install(&mut k, &m);
        k.schedule_at(SimTime::ZERO + SimDuration::from_micros(7), move |k| {
            assert_eq!(k.link_capacity(inj), cap_in * STALL_BANDWIDTH_FACTOR);
            assert_eq!(k.link_capacity(ej), cap_out * STALL_BANDWIDTH_FACTOR);
        });
        k.run_to_completion();
        assert_eq!(k.link_capacity(inj), cap_in);
        assert_eq!(k.link_capacity(ej), cap_out);
    }

    #[test]
    fn straggler_scales_engine_link() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let engine = m.engine_link(7);
        let nominal = k.link_capacity(engine);
        FaultSchedule::straggler_gpu(7, SimDuration::from_micros(3), 0.25).install(&mut k, &m);
        k.run_to_completion();
        assert_eq!(k.link_capacity(engine), nominal * 0.25);
    }

    #[test]
    fn scenario_names_round_trip() {
        for sc in Scenario::ALL {
            assert_eq!(Scenario::parse(sc.name()), Some(sc), "{sc}");
            assert_eq!(format!("{sc}"), sc.name());
        }
        assert_eq!(Scenario::parse("kill-respawn"), Some(Scenario::KillRespawn));
        assert_eq!(Scenario::parse("no-such"), None);
    }

    #[test]
    fn rank_events_are_skipped_by_install_and_exposed_separately() {
        let s = FaultSchedule::kill_respawn(
            3,
            SimDuration::from_micros(10),
            SimDuration::from_micros(20),
        );
        assert!(s.rank_events().next().is_some());
        let evs: Vec<_> = s.rank_events().collect();
        assert_eq!(
            evs,
            vec![
                (SimDuration::from_micros(10), 3, FaultAction::Kill),
                (SimDuration::from_micros(30), 3, FaultAction::Respawn),
            ]
        );
        let mut k = Kernel::new();
        let m = machine(&mut k);
        s.install(&mut k, &m);
        k.run_to_completion();
        assert_eq!(k.executed_events(), 0, "rank events never install here");
    }

    #[test]
    fn shrink_mem_applies_and_restore_clears() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let nominal = m.device_mem_limit(4);
        let s = FaultSchedule::oom_respawn(
            4,
            4,
            SimDuration::from_micros(5),
            SimDuration::from_micros(10),
            0.25,
        );
        s.install(&mut k, &m);
        let m2 = m.clone();
        k.schedule_at(SimTime::ZERO + SimDuration::from_micros(7), move |_| {
            assert_eq!(m2.device_mem_limit(4), (nominal as f64 * 0.25) as u64);
        });
        k.run_to_completion();
        assert_eq!(m.device_mem_limit(4), nominal, "restore clears override");
    }

    #[test]
    fn switch_target_covers_node_range_nics() {
        let mut k = Kernel::new();
        let m = machine(&mut k);
        let caps: Vec<f64> = (0..2)
            .map(|n| k.link_capacity(m.fabric().injection_link(n)))
            .collect();
        let s = FaultSchedule::degraded_switch(0, 2, SimDuration::from_micros(1), 0.5);
        s.install(&mut k, &m);
        k.run_to_completion();
        for (n, cap) in caps.iter().enumerate() {
            assert_eq!(
                k.link_capacity(m.fabric().injection_link(n)),
                cap * 0.5,
                "node {n} NIC degraded"
            );
            assert_eq!(
                k.link_capacity(m.fabric().ejection_link(n)),
                cap * 0.5,
                "node {n} ejection degraded"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Kill/Respawn only apply to a rank target")]
    fn kill_on_device_target_rejected() {
        let _ = FaultSchedule::new().push(FaultEvent {
            at: SimDuration::ZERO,
            target: FaultTarget::Device { device: 0 },
            action: FaultAction::Kill,
        });
    }

    #[test]
    #[should_panic(expected = "ShrinkMem only applies to a device target")]
    fn shrink_mem_on_nic_target_rejected() {
        let _ = FaultSchedule::new().push(FaultEvent {
            at: SimDuration::ZERO,
            target: FaultTarget::Nic { node: 0 },
            action: FaultAction::ShrinkMem { mem_factor: 0.5 },
        });
    }

    #[test]
    fn cascading_schedule_is_well_formed_and_deterministic() {
        let s = FaultSchedule::cascading(
            0,
            0,
            1,
            5,
            SimDuration::from_micros(10),
            SimDuration::from_micros(10),
        );
        assert_eq!(s.len(), 1 + 4 + 1);
        let run = || {
            let mut k = Kernel::new();
            let m = machine(&mut k);
            s.install(&mut k, &m);
            k.run_to_completion();
            (k.now(), k.executed_events())
        };
        assert_eq!(run(), run());
    }
}

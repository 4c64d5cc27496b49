//! Declarative job specifications — the service's request wire format.
//!
//! A [`JobSpec`] names everything needed to stand up one simulated world
//! and measure a halo-exchange workload on it: the cluster preset and
//! shape, the domain, the exchange method tier, the placement-ladder rung,
//! a named fault scenario, and scheduling attributes (tenant, fair-share
//! weight, timeout). Specs round-trip through JSON ([`JobSpec::to_json`] /
//! [`JobSpec::from_json`]) and carry a stable workload digest
//! ([`JobSpec::digest`]) so persisted results from different runs — and
//! different PRs — can be compared per workload. The schema is documented
//! in `docs/SERVICE.md`.

use faultsim::{FaultSchedule, Scenario};
use gpusim::GpuCostModel;
use stencil_core::{Methods, Partition, PlacementStrategy};
use topo::presets::{dgx_cluster, fat_cluster, pcie_workstation_cluster};
use topo::summit::summit_cluster;
use topo::ClusterSpec;

use crate::json::{self, Json};

/// A named cluster shape a job can request. Each variant resolves to a
/// [`ClusterSpec`] via one of the `topo` presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterPreset {
    /// Summit-style nodes (2 sockets × 1 triad × 3 GPUs, 6 GPUs/node).
    Summit {
        /// Node count.
        nodes: usize,
    },
    /// DGX-style nodes (8 GPUs on a uniform NVSwitch).
    Dgx {
        /// Node count.
        nodes: usize,
    },
    /// Generalized fat nodes (`topo::presets::fat_cluster`); node sizes
    /// beyond 8 GPUs exercise the placement ladder's heuristic rungs.
    Fat {
        /// Node count.
        nodes: usize,
        /// CPU sockets per node.
        sockets: usize,
        /// NVLink islands per socket.
        islands_per_socket: usize,
        /// GPUs per island.
        gpus_per_island: usize,
    },
    /// A single PCIe workstation with `gpus` host-routed GPUs.
    Workstation {
        /// GPU count.
        gpus: usize,
    },
}

impl ClusterPreset {
    /// Resolve to the concrete machine description.
    pub fn cluster_spec(&self) -> ClusterSpec {
        match *self {
            ClusterPreset::Summit { nodes } => summit_cluster(nodes),
            ClusterPreset::Dgx { nodes } => dgx_cluster(nodes),
            ClusterPreset::Fat {
                nodes,
                sockets,
                islands_per_socket,
                gpus_per_island,
            } => fat_cluster(nodes, sockets, islands_per_socket, gpus_per_island),
            ClusterPreset::Workstation { gpus } => pcie_workstation_cluster(gpus),
        }
    }

    /// Node count of the resolved cluster.
    pub fn nodes(&self) -> usize {
        match *self {
            ClusterPreset::Summit { nodes } | ClusterPreset::Dgx { nodes } => nodes,
            ClusterPreset::Fat { nodes, .. } => nodes,
            ClusterPreset::Workstation { .. } => 1,
        }
    }

    /// GPUs per node of the resolved cluster.
    pub fn gpus_per_node(&self) -> usize {
        match *self {
            ClusterPreset::Summit { .. } => 6,
            ClusterPreset::Dgx { .. } => 8,
            ClusterPreset::Fat {
                sockets,
                islands_per_socket,
                gpus_per_island,
                ..
            } => sockets * islands_per_socket * gpus_per_island,
            ClusterPreset::Workstation { gpus } => gpus,
        }
    }

    fn write_json(&self, out: &mut String) {
        match *self {
            ClusterPreset::Summit { nodes } => {
                out.push_str(&format!("{{\"preset\":\"summit\",\"nodes\":{nodes}}}"))
            }
            ClusterPreset::Dgx { nodes } => {
                out.push_str(&format!("{{\"preset\":\"dgx\",\"nodes\":{nodes}}}"))
            }
            ClusterPreset::Fat {
                nodes,
                sockets,
                islands_per_socket,
                gpus_per_island,
            } => out.push_str(&format!(
                "{{\"preset\":\"fat\",\"nodes\":{nodes},\"sockets\":{sockets},\
                 \"islands_per_socket\":{islands_per_socket},\
                 \"gpus_per_island\":{gpus_per_island}}}"
            )),
            ClusterPreset::Workstation { gpus } => {
                out.push_str(&format!("{{\"preset\":\"workstation\",\"gpus\":{gpus}}}"))
            }
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let preset = v
            .get("preset")
            .and_then(Json::as_str)
            .ok_or("cluster.preset missing")?;
        let nodes = || {
            v.get("nodes")
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("cluster.nodes missing for preset {preset}"))
        };
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("cluster.{k} missing for preset {preset}"))
        };
        Ok(match preset {
            "summit" => ClusterPreset::Summit { nodes: nodes()? },
            "dgx" => ClusterPreset::Dgx { nodes: nodes()? },
            "fat" => ClusterPreset::Fat {
                nodes: nodes()?,
                sockets: field("sockets")?,
                islands_per_socket: field("islands_per_socket")?,
                gpus_per_island: field("gpus_per_island")?,
            },
            "workstation" => ClusterPreset::Workstation {
                gpus: field("gpus")?,
            },
            other => return Err(format!("unknown cluster preset {other}")),
        })
    }
}

/// A named, declarative fault scenario — the JSON-able face of the
/// `faultsim` scenario constructors. All times are virtual microseconds
/// from the start of the run.
///
/// Wire names come from the [`faultsim::Scenario`] registry (via
/// [`FaultScenario::scenario`]), so the strings a spec carries are exactly
/// the strings the `chaos` bench CLI accepts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultScenario {
    /// No faults: the run is bit-identical to one without fault injection.
    None,
    /// `FaultSchedule::flapping_nic` — node `node`'s NIC stalls and
    /// recovers `flaps` times.
    FlappingNic {
        /// Node whose NIC flaps.
        node: usize,
        /// Virtual µs until the first stall.
        first_down_us: u64,
        /// Stall duration, virtual µs.
        down_us: u64,
        /// Recovery duration between stalls, virtual µs.
        up_us: u64,
        /// Number of stall/recover cycles.
        flaps: usize,
    },
    /// `FaultSchedule::straggler_gpu` — one device's engines run at
    /// `speed_factor` of nominal from `at_us` on.
    StragglerGpu {
        /// Global device id.
        device: usize,
        /// Virtual µs until the slowdown.
        at_us: u64,
        /// Speed multiplier in (0, 1].
        speed_factor: f64,
    },
    /// `FaultSchedule::degraded_triad` — the NVLink joining GPUs `a`/`b`
    /// of `node` drops to `bandwidth_factor` of nominal at `at_us`.
    DegradedTriad {
        /// Node holding the pair.
        node: usize,
        /// First node-local GPU.
        a: usize,
        /// Second node-local GPU.
        b: usize,
        /// Virtual µs until the degradation.
        at_us: u64,
        /// Bandwidth multiplier in (0, 1].
        bandwidth_factor: f64,
    },
    /// `FaultSchedule::cascading` — triad degradation, NIC flap, then a
    /// straggler device, `spacing_us` apart.
    Cascading {
        /// Node holding the triad pair and flapping NIC.
        node: usize,
        /// First node-local GPU of the pair.
        a: usize,
        /// Second node-local GPU of the pair.
        b: usize,
        /// Global device id of the straggler.
        device: usize,
        /// Virtual µs until the first fault.
        at_us: u64,
        /// Virtual µs between the faults.
        spacing_us: u64,
    },
    /// `FaultSchedule::kill_respawn` — rank `rank` dies at `at_us` and
    /// respawns `down_us` later; its channels are revoked, pending
    /// operations resolve as revoked, and the rejoin re-handshakes.
    KillRespawn {
        /// World rank that dies.
        rank: usize,
        /// Virtual µs until the kill.
        at_us: u64,
        /// Virtual µs the rank stays down before respawning.
        down_us: u64,
    },
    /// `FaultSchedule::oom_respawn` — device `device`'s memory limit
    /// shrinks to `mem_factor` of nominal at `at_us`, killing `rank`; the
    /// limit restores and the rank respawns `down_us` later.
    OomRespawn {
        /// Global device id that OOMs.
        device: usize,
        /// World rank killed by the OOM.
        rank: usize,
        /// Virtual µs until the shrink + kill.
        at_us: u64,
        /// Virtual µs before the limit restores and the rank respawns.
        down_us: u64,
        /// Memory-limit multiplier in (0, 1) while down.
        mem_factor: f64,
    },
}

impl FaultScenario {
    /// The registry entry this spec variant instantiates — the single
    /// source of its wire/CLI name.
    pub fn scenario(&self) -> Scenario {
        match self {
            FaultScenario::None => Scenario::None,
            FaultScenario::FlappingNic { .. } => Scenario::FlappingNic,
            FaultScenario::StragglerGpu { .. } => Scenario::StragglerGpu,
            FaultScenario::DegradedTriad { .. } => Scenario::DegradedTriad,
            FaultScenario::Cascading { .. } => Scenario::Cascading,
            FaultScenario::KillRespawn { .. } => Scenario::KillRespawn,
            FaultScenario::OomRespawn { .. } => Scenario::OomRespawn,
        }
    }

    /// Resolve to an installable schedule.
    pub fn schedule(&self) -> FaultSchedule {
        use detsim::SimDuration;
        match *self {
            FaultScenario::None => FaultSchedule::new(),
            FaultScenario::FlappingNic {
                node,
                first_down_us,
                down_us,
                up_us,
                flaps,
            } => FaultSchedule::flapping_nic(
                node,
                SimDuration::from_micros(first_down_us),
                SimDuration::from_micros(down_us),
                SimDuration::from_micros(up_us),
                flaps,
            ),
            FaultScenario::StragglerGpu {
                device,
                at_us,
                speed_factor,
            } => {
                FaultSchedule::straggler_gpu(device, SimDuration::from_micros(at_us), speed_factor)
            }
            FaultScenario::DegradedTriad {
                node,
                a,
                b,
                at_us,
                bandwidth_factor,
            } => FaultSchedule::degraded_triad(
                node,
                a,
                b,
                SimDuration::from_micros(at_us),
                bandwidth_factor,
            ),
            FaultScenario::Cascading {
                node,
                a,
                b,
                device,
                at_us,
                spacing_us,
            } => FaultSchedule::cascading(
                node,
                a,
                b,
                device,
                SimDuration::from_micros(at_us),
                SimDuration::from_micros(spacing_us),
            ),
            FaultScenario::KillRespawn {
                rank,
                at_us,
                down_us,
            } => FaultSchedule::kill_respawn(
                rank,
                SimDuration::from_micros(at_us),
                SimDuration::from_micros(down_us),
            ),
            FaultScenario::OomRespawn {
                device,
                rank,
                at_us,
                down_us,
                mem_factor,
            } => FaultSchedule::oom_respawn(
                device,
                rank,
                SimDuration::from_micros(at_us),
                SimDuration::from_micros(down_us),
                mem_factor,
            ),
        }
    }

    fn write_json(&self, out: &mut String) {
        let name = self.scenario().name();
        match *self {
            FaultScenario::None => out.push_str(&format!("{{\"scenario\":\"{name}\"}}")),
            FaultScenario::FlappingNic {
                node,
                first_down_us,
                down_us,
                up_us,
                flaps,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"node\":{node},\
                 \"first_down_us\":{first_down_us},\"down_us\":{down_us},\
                 \"up_us\":{up_us},\"flaps\":{flaps}}}"
            )),
            FaultScenario::StragglerGpu {
                device,
                at_us,
                speed_factor,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"device\":{device},\
                 \"at_us\":{at_us},\"speed_factor\":{}}}",
                json::fmt_f64(speed_factor)
            )),
            FaultScenario::DegradedTriad {
                node,
                a,
                b,
                at_us,
                bandwidth_factor,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"node\":{node},\"a\":{a},\
                 \"b\":{b},\"at_us\":{at_us},\"bandwidth_factor\":{}}}",
                json::fmt_f64(bandwidth_factor)
            )),
            FaultScenario::Cascading {
                node,
                a,
                b,
                device,
                at_us,
                spacing_us,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"node\":{node},\"a\":{a},\"b\":{b},\
                 \"device\":{device},\"at_us\":{at_us},\"spacing_us\":{spacing_us}}}"
            )),
            FaultScenario::KillRespawn {
                rank,
                at_us,
                down_us,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"rank\":{rank},\
                 \"at_us\":{at_us},\"down_us\":{down_us}}}"
            )),
            FaultScenario::OomRespawn {
                device,
                rank,
                at_us,
                down_us,
                mem_factor,
            } => out.push_str(&format!(
                "{{\"scenario\":\"{name}\",\"device\":{device},\"rank\":{rank},\
                 \"at_us\":{at_us},\"down_us\":{down_us},\"mem_factor\":{}}}",
                json::fmt_f64(mem_factor)
            )),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let scenario = v
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("faults.scenario missing")?;
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("faults.{k} missing for scenario {scenario}"))
        };
        let f = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("faults.{k} missing for scenario {scenario}"))
        };
        let registered = Scenario::parse(scenario).ok_or_else(|| {
            let known: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
            format!(
                "unknown fault scenario {scenario} (known: {})",
                known.join(", ")
            )
        })?;
        Ok(match registered {
            Scenario::None => FaultScenario::None,
            Scenario::FlappingNic => FaultScenario::FlappingNic {
                node: u("node")? as usize,
                first_down_us: u("first_down_us")?,
                down_us: u("down_us")?,
                up_us: u("up_us")?,
                flaps: u("flaps")? as usize,
            },
            Scenario::StragglerGpu => FaultScenario::StragglerGpu {
                device: u("device")? as usize,
                at_us: u("at_us")?,
                speed_factor: f("speed_factor")?,
            },
            Scenario::DegradedFatNode => {
                return Err(format!(
                    "scenario {scenario} is a bench preset; express it as \
                     degraded-triad on a fat cluster preset"
                ))
            }
            Scenario::DegradedTriad => FaultScenario::DegradedTriad {
                node: u("node")? as usize,
                a: u("a")? as usize,
                b: u("b")? as usize,
                at_us: u("at_us")?,
                bandwidth_factor: f("bandwidth_factor")?,
            },
            Scenario::Cascading => FaultScenario::Cascading {
                node: u("node")? as usize,
                a: u("a")? as usize,
                b: u("b")? as usize,
                device: u("device")? as usize,
                at_us: u("at_us")?,
                spacing_us: u("spacing_us")?,
            },
            Scenario::KillRespawn => FaultScenario::KillRespawn {
                rank: u("rank")? as usize,
                at_us: u("at_us")?,
                down_us: u("down_us")?,
            },
            Scenario::OomRespawn => FaultScenario::OomRespawn {
                device: u("device")? as usize,
                rank: u("rank")? as usize,
                at_us: u("at_us")?,
                down_us: u("down_us")?,
                mem_factor: f("mem_factor")?,
            },
        })
    }
}

/// Most GPU-iterations (nodes × GPUs per node × `iters`) a spec without
/// a timeout may ask for. The service runs worlds in virtual data mode,
/// where wall clock grows with the number of transfers rather than the
/// bytes they carry, so the budget counts GPUs, not cells. At 312 ms per
/// 384-GPU exchange step (64 Summit nodes, 2-vCPU host) it is about 14
/// minutes of one worker.
pub const MAX_UNTIMED_GPU_ITERS: u64 = 1 << 20;

/// Longest spec text [`JobSpec::from_json`] reads. Specs the service
/// writes are a few hundred bytes; the cap bounds what one request can
/// make the caller's thread parse.
pub const MAX_SPEC_BYTES: usize = 64 * 1024;

/// One job: everything needed to build a simulated world from scratch and
/// measure `iters` halo exchanges on it, plus the scheduling attributes
/// the service uses (tenant, weight, timeout).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Tenant the job belongs to (fair scheduling is across tenants).
    pub tenant: String,
    /// Fair-share weight of this tenant (≥ 1); a tenant with weight 2 is
    /// dispatched twice as often as one with weight 1 under contention.
    /// Weights are per-tenant: the service uses the weight carried by the
    /// tenant's first observed job.
    pub weight: u32,
    /// Cluster preset and shape.
    pub cluster: ClusterPreset,
    /// MPI ranks per node (must divide the preset's GPUs per node).
    pub ranks_per_node: usize,
    /// Global domain extents.
    pub domain: [u64; 3],
    /// Stencil radius.
    pub radius: u64,
    /// Quantities exchanged per cell.
    pub quantities: usize,
    /// Enabled exchange methods.
    pub methods: Methods,
    /// Whether the simulated MPI accepts device pointers.
    pub cuda_aware: bool,
    /// Staged-message consolidation (paper §VI extension).
    pub consolidate: bool,
    /// Placement-ladder rung.
    pub placement: PlacementStrategy,
    /// Measured exchange iterations.
    pub iters: usize,
    /// Named fault scenario installed at virtual time zero.
    pub faults: FaultScenario,
    /// Collect the metrics registry and embed its JSON in the result.
    pub collect_metrics: bool,
    /// Wall-clock timeout; a job past its deadline is cancelled (while
    /// queued: immediately; while running: at the next iteration boundary).
    pub timeout_ms: Option<u64>,
    /// Chaos hook: rank 0 panics at the start of this measured iteration,
    /// poisoning the world. Exists so panic isolation is testable end to
    /// end; serialized like any other field.
    pub poison_at_iter: Option<usize>,
}

impl JobSpec {
    /// A spec with the paper's defaults (radius 2, four quantities,
    /// node-aware placement, all non-CUDA-aware methods, 3 iterations).
    pub fn new(
        tenant: &str,
        cluster: ClusterPreset,
        ranks_per_node: usize,
        domain: [u64; 3],
    ) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            weight: 1,
            cluster,
            ranks_per_node,
            domain,
            radius: 2,
            quantities: 4,
            methods: Methods::all(),
            cuda_aware: false,
            consolidate: false,
            placement: PlacementStrategy::NodeAware,
            iters: 3,
            faults: FaultScenario::None,
            collect_metrics: false,
            timeout_ms: None,
            poison_at_iter: None,
        }
    }

    /// Set the fair-share weight.
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }

    /// Set the enabled methods.
    pub fn methods(mut self, m: Methods) -> Self {
        self.methods = m;
        self
    }

    /// Enable CUDA-aware MPI.
    pub fn cuda_aware(mut self, on: bool) -> Self {
        self.cuda_aware = on;
        self
    }

    /// Enable staged-message consolidation.
    pub fn consolidate(mut self, on: bool) -> Self {
        self.consolidate = on;
        self
    }

    /// Set the placement strategy.
    pub fn placement(mut self, p: PlacementStrategy) -> Self {
        self.placement = p;
        self
    }

    /// Set the measured iteration count.
    pub fn iters(mut self, n: usize) -> Self {
        self.iters = n;
        self
    }

    /// Set the stencil radius.
    pub fn radius(mut self, r: u64) -> Self {
        self.radius = r;
        self
    }

    /// Install a named fault scenario.
    pub fn faults(mut self, f: FaultScenario) -> Self {
        self.faults = f;
        self
    }

    /// Collect metrics for this job.
    pub fn collect_metrics(mut self, on: bool) -> Self {
        self.collect_metrics = on;
        self
    }

    /// Set the wall-clock timeout.
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Arm the poison chaos hook.
    pub fn poison_at_iter(mut self, iter: usize) -> Self {
        self.poison_at_iter = Some(iter);
        self
    }

    /// Total MPI ranks the job's world will hold.
    pub fn num_ranks(&self) -> usize {
        self.cluster.nodes() * self.ranks_per_node
    }

    /// Admission-control validation: reject obviously unbuildable worlds
    /// before they reach a worker. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        if self.weight == 0 {
            return Err("weight must be >= 1".into());
        }
        if self.iters == 0 {
            return Err("iters must be >= 1".into());
        }
        if self.cluster.nodes() == 0 {
            return Err("cluster must have >= 1 node".into());
        }
        let gpn = self.cluster.gpus_per_node();
        if gpn == 0 {
            return Err("cluster must have >= 1 GPU per node".into());
        }
        if self.ranks_per_node == 0 || !gpn.is_multiple_of(self.ranks_per_node) {
            return Err(format!(
                "ranks_per_node ({}) must divide GPUs per node ({gpn})",
                self.ranks_per_node
            ));
        }
        if self.domain.contains(&0) {
            return Err("domain extents must be positive".into());
        }
        // Checked: a wrapped product would admit an unbuildable domain.
        if self
            .domain
            .iter()
            .try_fold(1u64, |n, &e| n.checked_mul(e))
            .is_none()
        {
            return Err(format!("domain {:?} has more than 2^64 cells", self.domain));
        }
        // The world's own decomposition: refuse what it would panic on.
        let part = Partition::try_new(self.domain, self.cluster.nodes(), gpn)?;
        if self.radius == 0 {
            return Err("radius must be >= 1".into());
        }
        // A halo can be no wider than the thinnest subdomain it is cut from.
        let g = part.global_dims();
        if let Some(a) = (0..3).find(|&a| self.radius > self.domain[a] / g[a] as u64) {
            return Err(format!(
                "radius {} exceeds the {}-cell GPU subdomain extent along axis {a}",
                self.radius,
                self.domain[a] / g[a] as u64
            ));
        }
        if self.quantities == 0 {
            return Err("quantities must be >= 1".into());
        }
        // The thickest GPU subdomain (splits round down, so ⌈extent /
        // parts⌉ cells per axis) with its halo, one f32 array per quantity
        // as `LocalDomain::new` allocates, must fit the device memory of
        // the world `execute` builds. Pack buffers are not counted,
        // so this refuses only worlds that can never build.
        let limit = GpuCostModel::default().device_mem_limit;
        let bytes = (0..3)
            .try_fold(4u64, |b, a| {
                let thickest = self.domain[a].div_ceil(g[a] as u64);
                thickest
                    .checked_add(self.radius)?
                    .checked_add(self.radius)?
                    .checked_mul(b)
            })
            .and_then(|b| b.checked_mul(self.quantities as u64));
        match bytes {
            Some(b) if b <= limit => {}
            Some(b) => {
                return Err(format!(
                    "a GPU subdomain needs {b} bytes of device memory, over the {limit}-byte limit"
                ))
            }
            None => {
                return Err("a GPU subdomain needs more than 2^64 bytes of device memory".into())
            }
        }
        match self.timeout_ms {
            Some(0) => return Err("timeout_ms must be positive when set".into()),
            Some(_) => {}
            // Nothing would stop an untimed job short of cancellation.
            None => {
                let gpu_iters = (self.cluster.nodes() as u64)
                    .checked_mul(gpn as u64)
                    .and_then(|g| g.checked_mul(self.iters as u64));
                if gpu_iters.is_none_or(|n| n > MAX_UNTIMED_GPU_ITERS) {
                    return Err(format!(
                        "{} iterations on {} nodes of {gpn} GPUs exceed the \
                         {MAX_UNTIMED_GPU_ITERS} GPU-iteration budget of a spec \
                         without timeout_ms",
                        self.iters,
                        self.cluster.nodes()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serialize as a single-line JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"tenant\":");
        out.push_str(&json::quote(&self.tenant));
        out.push_str(&format!(",\"weight\":{},\"cluster\":", self.weight));
        self.cluster.write_json(&mut out);
        out.push_str(&format!(
            ",\"ranks_per_node\":{},\"domain\":[{},{},{}],\"radius\":{},\
             \"quantities\":{},\"methods_bits\":{},\"cuda_aware\":{},\
             \"consolidate\":{},\"placement\":\"{}\",\"iters\":{},\"faults\":",
            self.ranks_per_node,
            self.domain[0],
            self.domain[1],
            self.domain[2],
            self.radius,
            self.quantities,
            self.methods.bits(),
            self.cuda_aware,
            self.consolidate,
            self.placement.name(),
            self.iters,
        ));
        self.faults.write_json(&mut out);
        out.push_str(&format!(",\"collect_metrics\":{}", self.collect_metrics));
        if let Some(ms) = self.timeout_ms {
            out.push_str(&format!(",\"timeout_ms\":{ms}"));
        }
        if let Some(i) = self.poison_at_iter {
            out.push_str(&format!(",\"poison_at_iter\":{i}"));
        }
        out.push('}');
        out
    }

    /// Parse a spec from JSON text (the inverse of [`JobSpec::to_json`];
    /// optional fields may be omitted). Text longer than
    /// [`MAX_SPEC_BYTES`] is rejected unread.
    pub fn from_json(text: &str) -> Result<Self, String> {
        if text.len() > MAX_SPEC_BYTES {
            return Err(format!(
                "spec is {} bytes, over the {MAX_SPEC_BYTES}-byte limit",
                text.len()
            ));
        }
        let v = json::parse(text)?;
        Self::from_value(&v)
    }

    /// Parse a spec from an already-parsed JSON value.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("spec.{k} missing or not a non-negative integer"))
        };
        let b = |k: &str| {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("spec.{k} missing or not a boolean"))
        };
        let domain = v
            .get("domain")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 3)
            .ok_or("spec.domain must be a 3-element array")?;
        let dom = |i: usize| {
            domain[i]
                .as_u64()
                .ok_or_else(|| format!("spec.domain[{i}] not a non-negative integer"))
        };
        let placement_name = v
            .get("placement")
            .and_then(Json::as_str)
            .ok_or("spec.placement missing")?;
        Ok(JobSpec {
            tenant: v
                .get("tenant")
                .and_then(Json::as_str)
                .ok_or("spec.tenant missing")?
                .to_string(),
            weight: u32::try_from(u("weight")?).map_err(|_| "spec.weight exceeds u32")?,
            cluster: ClusterPreset::from_json(v.get("cluster").ok_or("spec.cluster missing")?)?,
            ranks_per_node: u("ranks_per_node")? as usize,
            domain: [dom(0)?, dom(1)?, dom(2)?],
            radius: u("radius")?,
            quantities: u("quantities")? as usize,
            methods: u8::try_from(u("methods_bits")?)
                .ok()
                .and_then(Methods::from_bits)
                .ok_or("spec.methods_bits has unknown bits")?,
            cuda_aware: b("cuda_aware")?,
            consolidate: b("consolidate")?,
            placement: PlacementStrategy::parse(placement_name)
                .ok_or_else(|| format!("unknown placement {placement_name}"))?,
            iters: u("iters")? as usize,
            faults: FaultScenario::from_json(v.get("faults").ok_or("spec.faults missing")?)?,
            collect_metrics: b("collect_metrics")?,
            timeout_ms: match v.get("timeout_ms") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_u64().ok_or("spec.timeout_ms not an integer")?),
            },
            poison_at_iter: match v.get("poison_at_iter") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_u64().ok_or("spec.poison_at_iter not an integer")? as usize),
            },
        })
    }

    /// Stable digest of the *workload* (everything that determines the
    /// virtual-time result: cluster, geometry, methods, placement, faults,
    /// iterations) — excluding scheduling attributes (tenant, weight,
    /// timeout), the metrics toggle, and the poison hook, none of which
    /// change committed virtual times. Two results with equal digests are
    /// directly comparable across runs and PRs.
    pub fn digest(&self) -> String {
        let mut canonical = String::new();
        self.cluster.write_json(&mut canonical);
        canonical.push_str(&format!(
            "|{}|{:?}|{}|{}|{}|{}|{}|{}|{}|",
            self.ranks_per_node,
            self.domain,
            self.radius,
            self.quantities,
            self.methods.bits(),
            self.cuda_aware,
            self.consolidate,
            self.placement.name(),
            self.iters,
        ));
        self.faults.write_json(&mut canonical);
        // FNV-1a 64.
        let mut h: u64 = 0xcbf29ce484222325;
        for byte in canonical.as_bytes() {
            h ^= *byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::new("sweep", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96])
            .weight(3)
            .methods(Methods::staged_only().with_colocated())
            .placement(PlacementStrategy::GreedySwap)
            .iters(2)
            .faults(FaultScenario::FlappingNic {
                node: 0,
                first_down_us: 100,
                down_us: 500,
                up_us: 250,
                flaps: 3,
            })
            .timeout_ms(30_000)
    }

    #[test]
    fn spec_json_round_trips() {
        for spec in [
            sample(),
            JobSpec::new("t", ClusterPreset::Dgx { nodes: 1 }, 8, [64, 64, 64]),
            JobSpec::new("t", ClusterPreset::Summit { nodes: 4 }, 6, [96, 96, 96])
                .methods(Methods::staged_only().with_persistent()),
            JobSpec::new("t", ClusterPreset::Summit { nodes: 4 }, 6, [96, 96, 96])
                .methods(Methods::all().with_persistent().with_partitioned()),
            JobSpec::new("t", ClusterPreset::Workstation { gpus: 4 }, 4, [64, 64, 64])
                .faults(FaultScenario::StragglerGpu {
                    device: 2,
                    at_us: 0,
                    speed_factor: 0.25,
                })
                .poison_at_iter(1),
            JobSpec::new(
                "t",
                ClusterPreset::Fat {
                    nodes: 2,
                    sockets: 2,
                    islands_per_socket: 2,
                    gpus_per_island: 3,
                },
                12,
                [96, 96, 96],
            )
            .cuda_aware(true)
            .consolidate(true)
            .collect_metrics(true)
            .faults(FaultScenario::Cascading {
                node: 0,
                a: 0,
                b: 1,
                device: 2,
                at_us: 100,
                spacing_us: 300,
            }),
            JobSpec::new("t", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96]).faults(
                FaultScenario::KillRespawn {
                    rank: 4,
                    at_us: 50,
                    down_us: 300,
                },
            ),
            JobSpec::new("t", ClusterPreset::Summit { nodes: 2 }, 6, [96, 96, 96]).faults(
                FaultScenario::OomRespawn {
                    device: 8,
                    rank: 4,
                    at_us: 50,
                    down_us: 300,
                    mem_factor: 0.05,
                },
            ),
        ] {
            let json = spec.to_json();
            let back = JobSpec::from_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn wire_names_come_from_the_faultsim_registry() {
        // The name a spec serializes under must be the registry's; parsing
        // a registered name either yields the matching variant or a
        // deliberate rejection — never "unknown".
        let variants = [
            FaultScenario::None,
            FaultScenario::FlappingNic {
                node: 0,
                first_down_us: 1,
                down_us: 2,
                up_us: 3,
                flaps: 1,
            },
            FaultScenario::StragglerGpu {
                device: 0,
                at_us: 0,
                speed_factor: 0.5,
            },
            FaultScenario::DegradedTriad {
                node: 0,
                a: 0,
                b: 1,
                at_us: 0,
                bandwidth_factor: 0.5,
            },
            FaultScenario::Cascading {
                node: 0,
                a: 0,
                b: 1,
                device: 2,
                at_us: 0,
                spacing_us: 1,
            },
            FaultScenario::KillRespawn {
                rank: 0,
                at_us: 0,
                down_us: 1,
            },
            FaultScenario::OomRespawn {
                device: 0,
                rank: 0,
                at_us: 0,
                down_us: 1,
                mem_factor: 0.5,
            },
        ];
        for v in variants {
            let mut out = String::new();
            v.write_json(&mut out);
            let name = v.scenario().name();
            assert!(
                out.contains(&format!("\"scenario\":\"{name}\"")),
                "{out} should carry registry name {name}"
            );
            assert_eq!(Scenario::parse(name), Some(v.scenario()));
        }
        // The bench-only fat-node preset is registered but deliberately
        // not a wire scenario.
        let err =
            FaultScenario::from_json(&json::parse("{\"scenario\":\"degraded-fat-node\"}").unwrap())
                .unwrap_err();
        assert!(err.contains("bench preset"), "{err}");
        let err =
            FaultScenario::from_json(&json::parse("{\"scenario\":\"nope\"}").unwrap()).unwrap_err();
        assert!(err.contains("unknown fault scenario"), "{err}");
    }

    #[test]
    fn transport_method_bits_survive_wire_and_affect_digest() {
        // PERSISTENT / PARTITIONED ride the existing `methods_bits` field:
        // no schema bump, but specs differing only in transport must hash
        // (and therefore cache) differently.
        let a = sample();
        let mut b = sample();
        b.methods = b.methods.with_persistent().with_partitioned();
        assert_ne!(a.digest(), b.digest());
        let json = b.to_json();
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(back, b);
        assert!(back
            .methods
            .contains(stencil_core::Method::PersistentStaged));
        assert!(back
            .methods
            .contains(stencil_core::Method::PartitionedStaged));
    }

    #[test]
    fn digest_ignores_scheduling_attributes() {
        let a = sample();
        let mut b = sample();
        b.tenant = "other".into();
        b.weight = 1;
        b.timeout_ms = None;
        b.collect_metrics = true;
        assert_eq!(a.digest(), b.digest());
        let mut c = sample();
        c.domain = [97, 96, 96];
        assert_ne!(a.digest(), c.digest());
        let mut d = sample();
        d.faults = FaultScenario::None;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn validation_rejects_unbuildable_worlds() {
        assert!(sample().validate().is_ok());
        let mut bad = sample();
        bad.ranks_per_node = 4; // does not divide 6
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.iters = 0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.weight = 0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.domain = [1, 1, 1]; // 12 subdomains cannot tile 1 cell
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.tenant = String::new();
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.timeout_ms = Some(0);
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.domain = [u64::MAX, 3, 1]; // the cell count overflows u64
        assert!(bad.validate().is_err());
        // Worlds that cannot run: radius 0 "completes" with mean 0, a
        // radius wider than a 12^3 domain's subdomains asks for a 32 GB
        // allocation, and 64 cells for 30 subdomains panic in
        // `Partition::new` because 5 nodes split one 4-cell axis.
        let mut bad = sample();
        bad.radius = 0;
        assert_eq!(bad.validate(), Err("radius must be >= 1".into()));
        let mut bad = sample();
        bad.domain = [12, 12, 12];
        bad.radius = 1000;
        assert!(bad.validate().unwrap_err().contains("radius 1000 exceeds"));
        let mut bad = sample();
        bad.cluster = ClusterPreset::Summit { nodes: 5 };
        bad.domain = [4, 4, 4];
        assert_eq!(
            bad.validate(),
            Err("domain [4, 4, 4] too small for 5 nodes".into())
        );
        // One Summit node cuts a 2^20-cell cube into ~2^57-cell subdomains,
        // far past a 16 GiB device: admitted, this panics allocating them.
        let mut bad = sample();
        bad.cluster = ClusterPreset::Summit { nodes: 1 };
        bad.domain = [1 << 20; 3];
        assert!(bad.validate().unwrap_err().contains("device memory"));
        // A radius as wide as the thinnest (4-cell) subdomain is fine.
        let mut ok = sample();
        ok.domain = [12, 12, 12];
        ok.radius = 4;
        assert!(ok.validate().is_ok());
        // Without a timeout nothing but cancellation ends a job, so an
        // untimed spec gets an iteration budget; a timed one does not.
        let mut bad = sample();
        bad.timeout_ms = None;
        bad.iters = usize::MAX;
        assert!(bad.validate().unwrap_err().contains("GPU-iteration budget"));
        let mut ok = bad.clone();
        ok.timeout_ms = Some(30_000);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn from_json_rejects_values_it_cannot_hold() {
        let json = sample().to_json();
        // Out of range for the field: a cast would truncate each to 1.
        let wide = json.replace("\"weight\":3", "\"weight\":4294967297");
        assert!(JobSpec::from_json(&wide).unwrap_err().contains("weight"));
        let bits = format!("\"methods_bits\":{}", sample().methods.bits());
        let bits = json.replace(&bits, "\"methods_bits\":257");
        assert!(JobSpec::from_json(&bits)
            .unwrap_err()
            .contains("methods_bits"));
        let long = "x".repeat(MAX_SPEC_BYTES);
        let long = json.replace("\"tenant\":\"sweep\"", &format!("\"tenant\":\"{long}\""));
        assert!(JobSpec::from_json(&long).unwrap_err().contains("limit"));
    }

    #[test]
    fn preset_shapes_resolve() {
        assert_eq!(ClusterPreset::Summit { nodes: 4 }.gpus_per_node(), 6);
        assert_eq!(ClusterPreset::Dgx { nodes: 2 }.gpus_per_node(), 8);
        assert_eq!(
            ClusterPreset::Fat {
                nodes: 1,
                sockets: 2,
                islands_per_socket: 2,
                gpus_per_island: 3
            }
            .gpus_per_node(),
            12
        );
        assert_eq!(ClusterPreset::Workstation { gpus: 4 }.nodes(), 1);
        let cs = ClusterPreset::Summit { nodes: 3 }.cluster_spec();
        assert_eq!(cs.num_nodes, 3);
    }
}

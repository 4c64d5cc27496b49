//! The public entry point: build a [`DistributedDomain`] collectively
//! across ranks and exchange halos.

use std::collections::HashMap;
use std::rc::Rc;

use mpisim::RankCtx;
use topo::NodeDiscovery;

use crate::dim3::{Boundary, Dim3, Neighborhood};
use crate::exchange::{build_plans, Plans};
use crate::local::LocalDomain;
use crate::method::Methods;
use crate::partition::Partition;
use crate::placement::{place, Placement, PlacementStrategy};
use crate::radius::Radius;
use crate::resilience::probe_and_place_every_node;
use crate::stats::PlanSummary;

/// Everything that defines a distributed stencil domain.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Global grid extent in cells.
    pub size: Dim3,
    /// Stencil radius (halo widths).
    pub radius: Radius,
    /// Number of grid quantities (each gets its own array).
    pub quantities: usize,
    /// Bytes per cell per quantity (4 for `f32`).
    pub elem_size: usize,
    /// Which neighbors to exchange with (stencil shape).
    pub neighborhood: Neighborhood,
    /// Enabled exchange methods (capability specialization knob).
    pub methods: Methods,
    /// Subdomain-to-GPU placement strategy.
    pub placement: PlacementStrategy,
    /// Boundary condition of the global domain.
    pub boundary: Boundary,
    /// Consolidate multiple staged transfers sharing (source subdomain,
    /// destination rank) into single larger messages (paper §VI).
    pub consolidate: bool,
}

/// Fluent constructor for [`DistributedDomain`].
///
/// ```no_run
/// # use stencil_core::DomainBuilder;
/// # fn demo(ctx: &mpisim::RankCtx) {
/// let dom = DomainBuilder::new([512, 512, 512])
///     .radius(2)
///     .quantities(4)
///     .build(ctx);
/// dom.exchange(ctx);
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DomainBuilder(DomainSpec);

impl DomainBuilder {
    /// Start from a global domain size; defaults: radius 1, one `f32`
    /// quantity, full 26-neighborhood, all methods except CUDA-aware MPI,
    /// node-aware placement.
    pub fn new(size: Dim3) -> DomainBuilder {
        DomainBuilder(DomainSpec {
            size,
            radius: Radius::constant(1),
            quantities: 1,
            elem_size: 4,
            neighborhood: Neighborhood::Full26,
            methods: Methods::all(),
            placement: PlacementStrategy::NodeAware,
            boundary: Boundary::Periodic,
            consolidate: false,
        })
    }

    /// Uniform stencil radius.
    pub fn radius(mut self, r: u64) -> Self {
        self.0.radius = Radius::constant(r);
        self
    }

    /// Per-face radius.
    pub fn radius_faces(mut self, r: Radius) -> Self {
        self.0.radius = r;
        self
    }

    /// Number of quantities.
    pub fn quantities(mut self, q: usize) -> Self {
        assert!(q >= 1);
        self.0.quantities = q;
        self
    }

    /// Bytes per cell (4 = single precision, 8 = double).
    pub fn elem_size(mut self, e: usize) -> Self {
        assert!(e >= 1);
        self.0.elem_size = e;
        self
    }

    /// Exchange neighborhood (stencil shape).
    pub fn neighborhood(mut self, n: Neighborhood) -> Self {
        self.0.neighborhood = n;
        self
    }

    /// Enabled exchange methods.
    pub fn methods(mut self, m: Methods) -> Self {
        self.0.methods = m;
        self
    }

    /// Placement strategy.
    pub fn placement(mut self, p: PlacementStrategy) -> Self {
        self.0.placement = p;
        self
    }

    /// Boundary condition (periodic by default, as in the paper's
    /// evaluation).
    pub fn boundary(mut self, b: Boundary) -> Self {
        self.0.boundary = b;
        self
    }

    /// Consolidate staged messages per (subdomain, destination rank) into
    /// fewer, larger MPI messages (paper §VI future work; off by default).
    pub fn consolidate(mut self, on: bool) -> Self {
        self.0.consolidate = on;
        self
    }

    /// Collectively build the domain (all ranks must call with identical
    /// specs).
    pub fn build(self, ctx: &RankCtx) -> DistributedDomain {
        DistributedDomain::new(ctx, self.0)
    }
}

/// A stencil domain distributed over every GPU of the job, with a
/// specialized, node-aware halo-exchange plan. One instance per rank,
/// holding that rank's subdomains.
pub struct DistributedDomain {
    pub(crate) spec: DomainSpec,
    pub(crate) part: Partition,
    /// Every node's placement. Topology-derived placements are one table
    /// per world, shared by every rank; a re-solve swaps in a new one.
    pub(crate) placements: Rc<Vec<Placement>>,
    pub(crate) rank: usize,
    pub(crate) locals: Vec<LocalDomain>,
    pub(crate) plans: Plans,
}

impl DistributedDomain {
    /// Collective constructor: partitions the domain, solves placement for
    /// every node, allocates this rank's subdomains, and builds the
    /// specialized exchange plan (including the colocated IPC handshake).
    pub fn new(ctx: &RankCtx, spec: DomainSpec) -> DistributedDomain {
        let machine = ctx.machine().clone();
        let num_nodes = machine.num_nodes();
        let gpn = machine.gpus_per_node();

        // Phase 1: hierarchical partition.
        let part = Partition::new(spec.size, num_nodes, gpn);

        // Phase 2: per-node placement, computed identically on every rank.
        let placements = if spec.placement == PlacementStrategy::Empirical {
            // Empirical placement probes bandwidths *inside* the simulation
            // (collective per node, consumes virtual time), so it cannot be
            // memoized across ranks — each rank participates.
            Rc::new(probe_and_place_every_node(ctx, &part, &spec).0)
        } else {
            // Topology-derived placement is a pure, deterministic function
            // of (partition, node topology, spec): every rank computes an
            // identical answer with no communication. Compute it once per
            // world and share the one table — at 256+ nodes the per-rank
            // recomputation is the dominant wall-clock cost of setup, and
            // a copy per rank is `ranks × nodes` placements.
            let key = format!(
                "stencil-core/placements/{:?}/{:?}/{}/{}/{:?}/{:?}/{:?}/{}n/{}g",
                spec.size,
                spec.radius,
                spec.quantities,
                spec.elem_size,
                spec.neighborhood,
                spec.placement,
                spec.boundary,
                num_nodes,
                gpn,
            );
            ctx.cached_setup(&key, || {
                let discovery: &NodeDiscovery = machine.discovery();
                let mut by_extent: HashMap<Dim3, Placement> = HashMap::new();
                let mut placements = Vec::with_capacity(part.num_nodes());
                for n in 0..part.num_nodes() {
                    let idx = part.node_from_linear(n);
                    let ext = part.node_box(idx).extent;
                    let pl = by_extent
                        .entry(ext)
                        .or_insert_with(|| {
                            place(
                                &part,
                                idx,
                                discovery,
                                spec.neighborhood,
                                &spec.radius,
                                spec.quantities,
                                spec.elem_size,
                                spec.placement,
                                spec.boundary,
                            )
                        })
                        .clone();
                    placements.push(pl);
                }
                placements
            })
        };

        let locals = alloc_locals(ctx, &part, &placements, &spec);

        // Phase 3: capability specialization (collective).
        let plans = build_plans(ctx, &part, &placements, &locals, &spec);

        DistributedDomain {
            spec,
            part,
            placements,
            rank: ctx.rank(),
            locals,
            plans,
        }
    }

    /// This rank's subdomains.
    pub fn locals(&self) -> &[LocalDomain] {
        &self.locals
    }

    /// The domain specification.
    pub fn spec(&self) -> &DomainSpec {
        &self.spec
    }

    /// The hierarchical partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The placement chosen for node `n`.
    pub fn placement(&self, n: usize) -> &Placement {
        &self.placements[n]
    }

    /// Which methods this rank's plan uses, with counts and bytes.
    pub fn plan_summary(&self) -> &PlanSummary {
        &self.plans.summary
    }

    /// The rank this instance belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// Allocate this rank's subdomains, one per GPU it controls, where its
/// node's entry of `placements` puts them.
pub(crate) fn alloc_locals(
    ctx: &RankCtx,
    part: &Partition,
    placements: &[Placement],
    spec: &DomainSpec,
) -> Vec<LocalDomain> {
    let machine = ctx.machine();
    let node = ctx.node();
    let node_idx = part.node_from_linear(node);
    let mut locals = Vec::new();
    for device in ctx.gpus() {
        let local_gpu = machine.local_of(device);
        let s = placements[node].subdomain_for_gpu[local_gpu];
        let gpu_idx = part.gpu_from_linear(s);
        let interior = part.gpu_box(node_idx, gpu_idx);
        let local = ctx.sim().with_kernel(|k| {
            LocalDomain::new(
                machine,
                k,
                node_idx,
                gpu_idx,
                interior,
                device,
                spec.quantities,
                spec.elem_size,
                spec.radius,
            )
        });
        locals.push(local.unwrap_or_else(|e| panic!("allocating subdomain: {e}")));
    }
    locals
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use mpisim::{run_world, WorldConfig};
    use topo::summit::summit_cluster;

    use super::*;

    /// Node-aware placement is solved once per world, and every rank reads
    /// that one table: `placement(0)` is the same object on all twelve
    /// ranks. Empirical placement measures inside the simulation, so there
    /// each rank still solves, and holds, a table of its own.
    #[test]
    fn every_rank_reads_the_worlds_one_placement_table() {
        let seen: Rc<RefCell<Vec<*const Placement>>> = Rc::new(RefCell::new(Vec::new()));
        let s = Rc::clone(&seen);
        run_world(WorldConfig::new(summit_cluster(2), 6), move |ctx| {
            let dom = DomainBuilder::new([48, 40, 32])
                .placement(PlacementStrategy::NodeAware)
                .build(ctx);
            s.borrow_mut().push(dom.placement(0));
            // Every rank's domain lives until all have recorded, so two
            // distinct tables cannot share an address.
            ctx.barrier();
        });
        let seen = seen.borrow();
        assert_eq!(seen.len(), 12);
        assert!(
            seen.iter().all(|&p| std::ptr::eq(p, seen[0])),
            "ranks hold distinct placement tables"
        );
    }
}

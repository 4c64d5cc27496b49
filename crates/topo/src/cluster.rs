//! Cluster-level topology: many identical nodes joined by a non-blocking
//! switch, and the instantiation of the whole machine into simulator links
//! ([`Fabric`]).

use detsim::{Kernel, LinkId, SimDuration};

use crate::node::{CompId, NodeSpec};

/// Description of a whole machine: `num_nodes` copies of `node` attached to
/// a non-blocking switch. Per-node injection/ejection capacity models the
/// NIC's network-side limit (the per-node bottleneck for all off-node
/// traffic).
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Number of nodes.
    pub num_nodes: usize,
    /// NIC injection (and ejection) bandwidth, bytes/second per direction.
    pub injection_bandwidth: f64,
    /// One-way switch traversal latency.
    pub switch_latency: SimDuration,
}

impl ClusterSpec {
    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.num_nodes * self.node.num_gpus()
    }
}

/// The instantiated machine: every directed link of every node, plus
/// injection/ejection links, registered with a [`Kernel`]. Provides directed
/// link paths for the transfers the upper layers perform.
pub struct Fabric {
    spec: ClusterSpec,
    /// `fwd[node][link]`: simulator link for node-local duplex link `link`
    /// in its `a -> b` direction.
    fwd: Vec<Vec<LinkId>>,
    /// Same, `b -> a` direction.
    rev: Vec<Vec<LinkId>>,
    /// `inject[node]`: NIC -> switch.
    inject: Vec<LinkId>,
    /// `eject[node]`: switch -> NIC.
    eject: Vec<LinkId>,
}

impl Fabric {
    /// Register every link of `spec` with the kernel.
    pub fn build(kernel: &mut Kernel, spec: ClusterSpec) -> Fabric {
        assert!(spec.num_nodes > 0, "cluster needs at least one node");
        assert!(
            spec.node.num_nics() > 0 || spec.num_nodes == 1,
            "multi-node cluster requires a NIC in the node spec"
        );
        let mut fwd = Vec::with_capacity(spec.num_nodes);
        let mut rev = Vec::with_capacity(spec.num_nodes);
        let mut inject = Vec::with_capacity(spec.num_nodes);
        let mut eject = Vec::with_capacity(spec.num_nodes);
        for n in 0..spec.num_nodes {
            let mut f = Vec::with_capacity(spec.node.links.len());
            let mut r = Vec::with_capacity(spec.node.links.len());
            for (li, l) in spec.node.links.iter().enumerate() {
                let name =
                    |dir: &str| format!("n{n}.{:?}[{li}].{dir} {:?}->{:?}", l.kind, l.a, l.b);
                f.push(kernel.add_link(name("fwd"), l.bandwidth, l.latency));
                r.push(kernel.add_link(name("rev"), l.bandwidth, l.latency));
            }
            fwd.push(f);
            rev.push(r);
            if spec.node.num_nics() > 0 {
                inject.push(kernel.add_link(
                    format!("n{n}.inject"),
                    spec.injection_bandwidth,
                    spec.switch_latency,
                ));
                eject.push(kernel.add_link(
                    format!("n{n}.eject"),
                    spec.injection_bandwidth,
                    SimDuration::ZERO,
                ));
            }
        }
        Fabric {
            spec,
            fwd,
            rev,
            inject,
            eject,
        }
    }

    /// The cluster description this fabric was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Node-local hardware description.
    pub fn node_spec(&self) -> &NodeSpec {
        &self.spec.node
    }

    /// Directed simulator-link path between two components of one node.
    pub fn node_path(&self, node: usize, from: CompId, to: CompId) -> Vec<LinkId> {
        let route = self
            .spec
            .node
            .route(from, to)
            .unwrap_or_else(|| panic!("no route {from:?} -> {to:?} in node spec"));
        let mut cur = from;
        let mut path = Vec::with_capacity(route.len());
        for li in route {
            let l = &self.spec.node.links[li];
            if l.a == cur {
                path.push(self.fwd[node][li]);
                cur = l.b;
            } else {
                debug_assert_eq!(l.b, cur, "route is not contiguous");
                path.push(self.rev[node][li]);
                cur = l.a;
            }
        }
        debug_assert_eq!(cur, to);
        path
    }

    /// Path for a peer copy between two GPUs on one node.
    pub fn gpu_gpu_path(&self, node: usize, g1: usize, g2: usize) -> Vec<LinkId> {
        self.node_path(node, self.spec.node.gpu(g1), self.spec.node.gpu(g2))
    }

    /// Inter-node path between component `c1` of node `n1` and component
    /// `c2` of node `n2` (CPU sockets for host messages, GPUs for the
    /// GPUDirect-style route of CUDA-aware MPI, or one of each): source-node
    /// fabric to the NIC, injection, ejection, destination-node fabric from
    /// the NIC. Panics if `n1 == n2` (same-node transfers never cross the
    /// switch; route them with [`Self::node_path`]).
    pub fn internode_path(&self, n1: usize, c1: CompId, n2: usize, c2: CompId) -> Vec<LinkId> {
        assert_ne!(n1, n2, "internode path within one node");
        let nic = self.spec.node.nic(0);
        let mut path = self.node_path(n1, c1, nic);
        path.push(self.inject[n1]);
        path.push(self.eject[n2]);
        path.extend(self.node_path(n2, nic, c2));
        path
    }

    /// Injection link of a node (diagnostics: delivered-bytes accounting).
    pub fn injection_link(&self, node: usize) -> LinkId {
        self.inject[node]
    }

    /// Ejection link of a node (switch -> NIC direction).
    pub fn ejection_link(&self, node: usize) -> LinkId {
        self.eject[node]
    }

    /// Number of duplex links in each node's local fabric (the valid
    /// `link` range for [`Self::node_duplex_link`]).
    pub fn node_link_count(&self) -> usize {
        self.spec.node.links.len()
    }

    /// The `(forward, reverse)` simulator links instantiating duplex link
    /// `link` of node `node` — the addressing handle fault injection uses
    /// to degrade one physical link in both directions.
    pub fn node_duplex_link(&self, node: usize, link: usize) -> (LinkId, LinkId) {
        (self.fwd[node][link], self.rev[node][link])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinkKind;
    use crate::summit::{summit_cluster, summit_node};

    fn small_cluster(n: usize) -> (Kernel, Fabric) {
        let mut k = Kernel::new();
        let f = Fabric::build(&mut k, summit_cluster(n));
        (k, f)
    }

    #[test]
    fn build_creates_links_per_node() {
        let (k, f) = small_cluster(2);
        let spec_links = f.node_spec().links.len();
        // 2 directed per duplex link per node + inject/eject per node
        assert!(k.link_name(f.injection_link(0)).contains("inject"));
        assert_eq!(f.fwd[0].len(), spec_links);
        assert_eq!(f.fwd[1].len(), spec_links);
    }

    #[test]
    fn triad_gpu_path_is_single_nvlink() {
        let (k, f) = small_cluster(1);
        let p = f.gpu_gpu_path(0, 0, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(k.link_capacity(p[0]), 50e9);
    }

    #[test]
    fn cross_socket_gpu_path_traverses_xbus() {
        let (k, f) = small_cluster(1);
        let p = f.gpu_gpu_path(0, 0, 3);
        assert_eq!(p.len(), 3);
        // middle link is the X-Bus at 64 GB/s
        assert_eq!(k.link_capacity(p[1]), 64e9);
    }

    #[test]
    fn d2h_and_h2d_are_distinct_directed_links() {
        let (_k, f) = small_cluster(1);
        let (gpu, host) = (f.node_spec().gpu(2), f.node_spec().cpu(0));
        let d2h = f.node_path(0, gpu, host);
        let h2d = f.node_path(0, host, gpu);
        assert_eq!(d2h.len(), 1);
        assert_eq!(h2d.len(), 1);
        assert_ne!(d2h[0], h2d[0], "full duplex: directions are separate links");
    }

    #[test]
    fn internode_path_crosses_switch() {
        let (k, f) = small_cluster(3);
        let node = f.node_spec();
        let p = f.internode_path(0, node.cpu(0), 2, node.cpu(1));
        assert!(p.contains(&f.injection_link(0)));
        // destination ejection link named n2.eject
        assert!(p.iter().any(|&l| k.link_name(l) == "n2.eject"));
        // source socket -> NIC hop exists
        assert!(p.len() >= 4);
    }

    #[test]
    fn internode_gpu_path_endpoints() {
        let (k, f) = small_cluster(2);
        let node = f.node_spec();
        let p = f.internode_path(0, node.gpu(5), 1, node.gpu(0));
        // gpu5 is on socket 1: gpu->cpu1->nic hops then switch then nic->cpu0->gpu0
        assert!(p.len() >= 6);
        assert!(p.iter().any(|&l| k.link_name(l).contains("inject")));
    }

    #[test]
    #[should_panic(expected = "internode")]
    fn same_node_internode_path_panics() {
        let (_k, f) = small_cluster(2);
        let cpu = f.node_spec().cpu(0);
        let _ = f.internode_path(1, cpu, 1, cpu);
    }

    #[test]
    fn single_node_cluster_without_nic_is_ok() {
        let mut node = NodeSpec::new("gpu-only");
        let c = node.add_cpu();
        let g = node.add_gpu();
        node.link(c, g, LinkKind::NvLink, 50e9, SimDuration::from_micros(1));
        let mut k = Kernel::new();
        let f = Fabric::build(
            &mut k,
            ClusterSpec {
                node,
                num_nodes: 1,
                injection_bandwidth: 1.0,
                switch_latency: SimDuration::ZERO,
            },
        );
        assert_eq!(f.node_path(0, g, c).len(), 1);
    }

    #[test]
    fn summit_node_shape() {
        let n = summit_node();
        assert_eq!(n.num_gpus(), 6);
        assert_eq!(n.num_cpus(), 2);
        assert_eq!(n.num_nics(), 1);
        // triads: gpus 0-2 socket 0, gpus 3-5 socket 1
        for g in 0..3 {
            assert_eq!(n.gpu_socket(g), 0, "gpu{g}");
        }
        for g in 3..6 {
            assert_eq!(n.gpu_socket(g), 1, "gpu{g}");
        }
        // all pairs peer-capable on the fabric
        for a in 0..6 {
            for b in 0..6 {
                assert!(n.gpus_can_peer(a, b));
            }
        }
    }
}

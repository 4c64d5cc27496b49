//! Pins what world set-up hands the rest of the stack: every route the
//! fabric resolves, and every name a world gives its links, FIFOs and
//! trace tracks. Each pin is the byte length and FNV-1a 64 digest of a
//! rendering; a changed digest is a changed route or a changed name.

use std::panic::{catch_unwind, AssertUnwindSafe};

use detsim::{Kernel, SimDuration};
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods};
use topo::presets::{dgx_cluster, fat_cluster, pcie_workstation_cluster};
use topo::summit::summit_cluster;
use topo::{ClusterSpec, CompId, Fabric, LinkKind, NodeSpec};

/// `(byte length, FNV-1a 64)` of `text`.
fn digest(text: &str) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (text.len(), h)
}

/// One line per path: the endpoints, then each hop's link id and name.
fn render_path(out: &mut String, k: &Kernel, label: &str, path: &[detsim::LinkId]) {
    out.push_str(label);
    for &l in path {
        out.push_str(&format!(" {l:?}={}", k.link_name(l)));
    }
    out.push('\n');
}

/// Every ordered component pair's `node_path` on the last node (the
/// self-route included), then, on a multi-node cluster, every
/// `internode_path` from node 0 to node 1.
fn render_routes(cluster: ClusterSpec) -> String {
    let mut k = Kernel::new();
    let f = Fabric::build(&mut k, cluster);
    let comps = f.node_spec().components.len();
    let nodes = f.spec().num_nodes;
    let mut out = String::new();
    for a in 0..comps {
        for b in 0..comps {
            let path = f.node_path(nodes - 1, CompId(a), CompId(b));
            render_path(&mut out, &k, &format!("{a}->{b}"), &path);
        }
    }
    if nodes > 1 {
        for a in 0..comps {
            for b in 0..comps {
                let path = f.internode_path(0, CompId(a), 1, CompId(b));
                render_path(&mut out, &k, &format!("0:{a}->1:{b}"), &path);
            }
        }
    }
    out
}

/// `(preset, byte length, FNV-1a 64)` of [`render_routes`], captured
/// before the fabric kept a route table.
const ROUTE_PINS: [(&str, usize, u64); 4] = [
    ("summit x2", 23026, 0x0a25_fb77_7ba8_4808),
    ("dgx x2", 33286, 0xedff_ea0a_49a7_e93b),
    ("fat(2,2,2) x2", 36930, 0x2f57_34b2_f295_5cc8),
    ("pcie-workstation(4) x1", 2480, 0x38ad_4afb_4b86_e0c6),
];

#[test]
fn every_route_matches_the_pinned_rendering() {
    let clusters = [
        summit_cluster(2),
        dgx_cluster(2),
        fat_cluster(2, 2, 2, 2),
        pcie_workstation_cluster(4),
    ];
    for ((name, len, hash), cluster) in ROUTE_PINS.into_iter().zip(clusters) {
        let got = digest(&render_routes(cluster));
        assert_eq!(
            got,
            (len, hash),
            "{name}: (len, fnv) = ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn a_disconnected_pair_panics_with_the_pinned_message() {
    // None of the presets has a disconnected pair: add a GPU with no link.
    let mut node = NodeSpec::new("lonely");
    let cpu = node.add_cpu();
    let gpu = node.add_gpu();
    let lonely = node.add_gpu();
    node.link(
        cpu,
        gpu,
        LinkKind::NvLink,
        50e9,
        SimDuration::from_micros(1),
    );
    let cluster = ClusterSpec {
        node,
        num_nodes: 1,
        injection_bandwidth: 1.0,
        switch_latency: SimDuration::ZERO,
    };
    let mut k = Kernel::new();
    let f = Fabric::build(&mut k, cluster);
    assert!(f.node_path(0, lonely, lonely).is_empty(), "self-route");
    assert_eq!(f.node_path(0, gpu, cpu).len(), 1);
    let err = catch_unwind(AssertUnwindSafe(|| f.node_path(0, gpu, lonely)))
        .expect_err("a disconnected pair has no path");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, "no route CompId(1) -> CompId(2) in node spec");
}

/// `(artifact, byte length, FNV-1a 64)` of a 2-node, 2-ranks-per-node
/// Summit world's Chrome trace and metrics JSON after one
/// `Methods::all()` exchange, captured while every name was formatted at
/// creation.
const NAME_PINS: [(&str, usize, u64); 2] = [
    ("trace", 173811, 0xf4eb_b783_2889_cb18),
    ("metrics", 259819, 0xe6f1_b89b_e68d_819d),
];

#[test]
fn trace_and_metrics_names_match_the_pinned_bytes() {
    let report = run_world(
        WorldConfig::new(summit_cluster(2), 2)
            .trace(true)
            .metrics(true),
        |ctx| {
            let dom = DomainBuilder::new([48, 40, 32])
                .radius(1)
                .quantities(2)
                .methods(Methods::all())
                .build(ctx);
            dom.exchange(ctx);
        },
    );
    let trace = report.trace_json.expect("trace enabled");
    let metrics = report.metrics.expect("metrics enabled").to_json();
    for ((name, len, hash), text) in NAME_PINS.into_iter().zip([trace, metrics]) {
        let got = digest(&text);
        assert_eq!(
            got,
            (len, hash),
            "{name}: (len, fnv) = ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}

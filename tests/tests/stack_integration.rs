//! Cross-crate integration: memory accounting, trace plumbing, NIC byte
//! accounting, and failure modes spanning gpusim + mpisim + stencil-core.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use gpusim::GpuCostModel;
use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods, Neighborhood, Radius};
use topo::summit::summit_cluster;

#[test]
fn domain_build_accounts_device_memory() {
    let used: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let u2 = Rc::clone(&used);
    run_world(WorldConfig::new(summit_cluster(1), 6), move |ctx| {
        let dom = DomainBuilder::new([60, 60, 60])
            .radius(2)
            .quantities(4)
            .build(ctx);
        let m = ctx.machine();
        let dev = ctx.gpus()[0];
        // arrays + per-plan pack/recv buffers all land on this device
        let arrays: u64 = dom.locals()[0].bytes();
        let total = m.device_mem_used(dev);
        assert!(total >= arrays, "accounting must include the arrays");
        u2.borrow_mut().push(total);
    });
    let v = used.borrow();
    assert_eq!(v.len(), 6);
    // symmetric domain -> similar allocation everywhere
    let max = *v.iter().max().unwrap() as f64;
    let min = *v.iter().min().unwrap() as f64;
    assert!(max / min < 1.6, "allocations should be balanced: {v:?}");
}

/// Device memory in use on every device of a 2-node × 6-rank
/// `Methods::all()` world: after the build, and after the plans are
/// rebuilt on the healthy world.
fn device_mem_after_build_and_rebuild(consolidate: bool) -> BTreeMap<usize, [u64; 2]> {
    let used: Rc<RefCell<BTreeMap<usize, [u64; 2]>>> = Rc::default();
    let u2 = Rc::clone(&used);
    run_world(WorldConfig::new(summit_cluster(2), 6), move |ctx| {
        let mut dom = DomainBuilder::new([96, 96, 96])
            .radius(2)
            .quantities(4)
            .methods(Methods::all())
            .consolidate(consolidate)
            .build(ctx);
        let m = ctx.machine();
        let built: Vec<u64> = ctx.gpus().iter().map(|&d| m.device_mem_used(d)).collect();
        dom.rejoin_after_respawn(ctx);
        for (&d, built) in ctx.gpus().iter().zip(built) {
            u2.borrow_mut().insert(d, [built, m.device_mem_used(d)]);
        }
    });
    Rc::try_unwrap(used).expect("world finished").into_inner()
}

#[test]
fn consolidation_allocates_what_plain_plans_allocate() {
    // A merged message packs into one buffer the size of its members'
    // buffers together, so consolidating moves no device memory, and a
    // rebuild frees everything the build allocated.
    let plain = device_mem_after_build_and_rebuild(false);
    assert_eq!(plain.len(), 12);
    for (d, [built, rebuilt]) in &plain {
        assert_eq!(built, rebuilt, "device {d}: a rebuild moved device memory");
    }
    assert_eq!(device_mem_after_build_and_rebuild(true), plain);
}

#[test]
fn oversized_domain_fails_with_oom() {
    let result = std::panic::catch_unwind(|| {
        run_world(WorldConfig::new(summit_cluster(1), 6), |ctx| {
            // 4000^3 cells * 4 quantities * 4 B over 6 GPUs >> 16 GiB/GPU —
            // must fail allocation, not silently truncate.
            let _ = DomainBuilder::new([4000, 4000, 4000])
                .radius(2)
                .quantities(4)
                .build(ctx);
        });
    });
    assert!(
        result.is_err(),
        "over-subscribed device memory must panic with OOM"
    );
}

#[test]
fn traced_exchange_contains_every_phase() {
    let world = WorldConfig::new(summit_cluster(2), 6).trace(true);
    let rep = run_world(world, |ctx| {
        let dom = DomainBuilder::new([48, 48, 48]).radius(1).build(ctx);
        ctx.barrier();
        dom.exchange(ctx);
    });
    let json = rep.trace_json.unwrap();
    for needle in ["pack", "unpack", "D2H", "H2D", "MPI net", "P2P"] {
        assert!(json.contains(needle), "trace missing {needle}");
    }
}

#[test]
fn nic_bytes_match_plan_summary() {
    // The bytes each node injects must equal the off-node bytes its ranks'
    // plans say they send.
    let planned: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let p2 = Rc::clone(&planned);
    let world = WorldConfig::new(summit_cluster(2), 6);
    let rep = run_world(world, move |ctx| {
        let dom = DomainBuilder::new([64, 64, 64])
            .radius(1)
            .quantities(2)
            .build(ctx);
        ctx.barrier();
        dom.exchange(ctx);
        if ctx.node() == 0 {
            // staged transfers from node 0 ranks are exactly the off-node ones
            *p2.borrow_mut() += dom.plan_summary().bytes(stencil_core::Method::Staged);
        }
    });
    let injected: u64 = rep.nic_injected[0];
    assert_eq!(
        injected,
        *planned.borrow(),
        "NIC accounting must match the plan"
    );
}

#[test]
fn asymmetric_radius_full_stack() {
    // Radius 0 on some faces: those directions exchange nothing; the rest
    // still work end-to-end.
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(true));
    let o2 = Rc::clone(&ok);
    run_world(WorldConfig::new(summit_cluster(1), 6), move |ctx| {
        let dom = DomainBuilder::new([36, 30, 24])
            .radius_faces(Radius::faces(2, 1, 0, 0, 1, 2))
            .neighborhood(Neighborhood::Full26)
            .methods(Methods::all())
            .build(ctx);
        for l in dom.locals() {
            l.fill(0, |p| (p[0] + p[1] + p[2]) as f32);
        }
        ctx.barrier();
        dom.exchange(ctx);
        ctx.barrier();
        // -x halo must hold wrapped neighbor data (width 2)
        for l in dom.locals() {
            let o = l.interior.origin;
            for dx in 1..=2i64 {
                let got = l.get_local_f32(0, [-dx, 0, 0]);
                let gx = (o[0] as i64 - dx).rem_euclid(36);
                let want = (gx as u64 + o[1] + o[2]) as f32;
                if got != want {
                    *o2.borrow_mut() = false;
                }
            }
        }
    });
    assert!(*ok.borrow());
}

#[test]
fn custom_cost_model_changes_virtual_time() {
    let run = |call_overhead_us: u64| {
        let mut cfg = WorldConfig::new(summit_cluster(1), 6);
        cfg.gpu_cost = GpuCostModel {
            call_overhead: detsim::SimDuration::from_micros(call_overhead_us),
            ..GpuCostModel::default()
        };
        run_world(cfg, |ctx| {
            let dom = DomainBuilder::new([48, 48, 48]).radius(1).build(ctx);
            ctx.barrier();
            dom.exchange(ctx);
        })
        .elapsed
    };
    let cheap = run(1);
    let pricey = run(20);
    assert!(
        pricey > cheap,
        "higher per-call CPU cost must lengthen the run: {cheap} vs {pricey}"
    );
}

#[test]
fn empirical_placement_measures_and_places() {
    use stencil_core::PlacementStrategy;
    // The measured-bandwidth placement must (a) run the probe protocol
    // collectively without deadlock, (b) produce a placement at least as
    // good as trivial, and (c) keep the exchange numerically correct.
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(true));
    let o2 = Rc::clone(&ok);
    run_world(WorldConfig::new(summit_cluster(1), 3), move |ctx| {
        let dom = DomainBuilder::new([144, 146, 70])
            .radius(1)
            .placement(PlacementStrategy::Empirical)
            .build(ctx);
        // same-node placement identical across ranks
        let assignment = dom.placement(0).gpu_for_subdomain.clone();
        let mut sorted = assignment.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "must be a bijection");
        for l in dom.locals() {
            l.fill(0, |p| (p[0] * 31 + p[1] * 17 + p[2]) as f32);
        }
        ctx.barrier();
        dom.exchange(ctx);
        ctx.barrier();
        for l in dom.locals() {
            let o = l.interior.origin;
            let got = l.get_local_f32(0, [-1, 0, 0]);
            let gx = (o[0] as i64 - 1).rem_euclid(144) as u64;
            if got != (gx * 31 + o[1] * 17 + o[2]) as f32 {
                *o2.borrow_mut() = false;
            }
        }
    });
    assert!(*ok.borrow());
}

#[test]
fn measured_bandwidths_rank_triads_above_cross_socket() {
    use stencil_core::empirical::{measure_node_bandwidths, DEFAULT_PROBE_BYTES};
    let out: Rc<RefCell<Vec<Vec<f64>>>> = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&out);
    run_world(WorldConfig::new(summit_cluster(1), 2), move |ctx| {
        let bw = measure_node_bandwidths(ctx, DEFAULT_PROBE_BYTES);
        if ctx.rank() == 1 {
            *o2.borrow_mut() = bw; // the non-probing rank got it via broadcast
        }
    });
    let bw = out.borrow().clone();
    assert_eq!(bw.len(), 6);
    // under concurrent all-pairs load, a triad pair must be clearly faster
    // than a cross-socket pair (the X-Bus divides among all 9 cross pairs)
    assert!(
        bw[0][1] > bw[0][3] * 2.0,
        "triad {} vs cross {}",
        bw[0][1],
        bw[0][3]
    );
    assert!(bw[0][0] > bw[0][1], "on-device copy should top the matrix");
    // NVLink-direct pairs keep (close to) their dedicated 50 GB/s
    assert!(
        bw[0][1] > 35e9 && bw[0][1] < 55e9,
        "triad measured {}",
        bw[0][1]
    );
}

#[test]
fn exchange_timing_breakdown_is_consistent() {
    use stencil_core::Method;
    let out: Rc<RefCell<Option<stencil_core::ExchangeTiming>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    run_world(WorldConfig::new(summit_cluster(2), 6), move |ctx| {
        let dom = DomainBuilder::new([64, 64, 64]).radius(1).build(ctx);
        ctx.barrier();
        let t = dom.exchange(ctx);
        if ctx.rank() == 0 {
            *o2.borrow_mut() = Some(t);
        }
    });
    let t = out.borrow().clone().unwrap();
    assert!(t.total.picos() > 0);
    // all plan methods appear, none exceeds the total
    for m in [Method::ColocatedMemcpy, Method::Staged] {
        let d = t.per_method.get(&m).copied().unwrap_or_default();
        assert!(d.picos() > 0, "{m} missing from breakdown");
        assert!(d <= t.total);
    }
    // something must define the critical path
    assert!(t.per_method.values().any(|&d| d == t.total));
    // at 2 nodes the remote (staged) path dominates the on-node one
    assert!(t.per_method[&Method::Staged] >= t.per_method[&Method::ColocatedMemcpy]);
}

#[test]
fn library_adapts_to_dgx_topology() {
    // 8 uniform NVSwitch GPUs: placement is indifferent (as Faraji et al.
    // observed for uniform nodes) but the full exchange still works and
    // peer transfers dominate.
    use stencil_core::Method;
    let plan: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let p2 = Rc::clone(&plan);
    let o2 = Rc::clone(&ok);
    run_world(
        WorldConfig::new(topo::presets::dgx_cluster(1), 1),
        move |ctx| {
            let dom = DomainBuilder::new([32, 32, 16]).radius(1).build(ctx);
            assert_eq!(dom.partition().gpus_per_node(), 8);
            *p2.borrow_mut() = dom.plan_summary().to_string();
            assert!(dom.plan_summary().count(Method::PeerMemcpy) > 0);
            for l in dom.locals() {
                l.fill(0, |p| (p[0] + 100 * p[1] + 10_000 * p[2]) as f32);
            }
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            let l = &dom.locals()[0];
            let o = l.interior.origin;
            let got = l.get_local_f32(0, [-1, 0, 0]);
            let gx = (o[0] as i64 - 1).rem_euclid(32) as u64;
            *o2.borrow_mut() = got == (gx + 100 * o[1] + 10_000 * o[2]) as f32;
        },
    );
    assert!(*ok.borrow(), "plan: {}", plan.borrow_mut());
}

#[test]
fn library_adapts_to_pcie_workstation() {
    // 4 GPUs with host-bridge-only P2P: peer access still "works" (SYS
    // class) but every path crosses the single PCIe bus; correctness holds.
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let o2 = Rc::clone(&ok);
    run_world(
        WorldConfig::new(topo::presets::pcie_workstation_cluster(4), 1),
        move |ctx| {
            let dom = DomainBuilder::new([24, 24, 12]).radius(1).build(ctx);
            assert_eq!(dom.partition().gpus_per_node(), 4);
            for l in dom.locals() {
                l.fill(0, |p| (p[0] * 7 + p[1] * 3 + p[2]) as f32);
            }
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            let l = &dom.locals()[1];
            let o = l.interior.origin;
            let got = l.get_local_f32(0, [-1, 0, 0]);
            let gx = (o[0] as i64 - 1).rem_euclid(24) as u64;
            *o2.borrow_mut() = got == (gx * 7 + o[1] * 3 + o[2]) as f32;
        },
    );
    assert!(*ok.borrow());
}

#[test]
fn uniform_topology_makes_placement_indifferent() {
    // On NVSwitch, node-aware and trivial placements have equal QAP cost.
    use stencil_core::dim3::{Boundary, Neighborhood};
    use stencil_core::{placement, Partition, PlacementStrategy, Radius};
    let node = topo::presets::dgx_node();
    let disc = topo::NodeDiscovery::discover(&node);
    let part = Partition::new([1440, 1452, 700], 1, 8);
    let r = Radius::constant(2);
    let aware = placement::place(
        &part,
        [0, 0, 0],
        &disc,
        Neighborhood::Full26,
        &r,
        4,
        4,
        PlacementStrategy::NodeAware,
        Boundary::Periodic,
    );
    let trivial = placement::place(
        &part,
        [0, 0, 0],
        &disc,
        Neighborhood::Full26,
        &r,
        4,
        4,
        PlacementStrategy::Trivial,
        Boundary::Periodic,
    );
    let rel = (aware.cost - trivial.cost).abs() / trivial.cost.max(1e-30);
    assert!(rel < 1e-9, "uniform links: all placements equal, got {rel}");
}

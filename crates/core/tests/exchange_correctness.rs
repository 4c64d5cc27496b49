//! End-to-end halo-exchange correctness: every enabled-method combination,
//! rank layout, radius, and neighborhood must deliver exactly the right
//! bytes to exactly the right halo cells (with periodic wrap).

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, WorldConfig};
use stencil_core::{Dim3, DomainBuilder, Methods, Neighborhood, PlacementStrategy, Radius};
use topo::summit::summit_cluster;

/// Unique, wrap-aware cell value.
fn cell_value(domain: Dim3, q: usize, p: Dim3) -> f32 {
    let id = ((p[2] % domain[2]) * domain[1] + (p[1] % domain[1])) * domain[0] + (p[0] % domain[0]);
    (id as f32) + (q as f32) * 0.125
}

struct Case {
    nodes: usize,
    rpn: usize,
    domain: Dim3,
    radius: Radius,
    quantities: usize,
    methods: Methods,
    neighborhood: Neighborhood,
    cuda_aware: bool,
    placement: PlacementStrategy,
}

impl Default for Case {
    fn default() -> Self {
        Case {
            nodes: 1,
            rpn: 1,
            domain: [24, 18, 12],
            radius: Radius::constant(1),
            quantities: 2,
            methods: Methods::all(),
            neighborhood: Neighborhood::Full26,
            cuda_aware: false,
            placement: PlacementStrategy::NodeAware,
        }
    }
}

fn check_exchange(case: Case) {
    let Case {
        nodes,
        rpn,
        domain,
        radius,
        quantities,
        methods,
        neighborhood,
        cuda_aware,
        placement,
    } = case;
    let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let f2 = Rc::clone(&failures);
    let cfg = WorldConfig::new(summit_cluster(nodes), rpn)
        .cuda_aware(cuda_aware)
        .mpi_persistent(methods.contains(stencil_core::Method::PersistentStaged))
        .mpi_partitioned(methods.contains(stencil_core::Method::PartitionedStaged));
    run_world(cfg, move |ctx| {
        let dom = DomainBuilder::new(domain)
            .radius_faces(radius)
            .quantities(quantities)
            .methods(methods)
            .neighborhood(neighborhood)
            .placement(placement)
            .build(ctx);
        for local in dom.locals() {
            for q in 0..quantities {
                local.fill(q, |p| cell_value(domain, q, p));
            }
        }
        ctx.barrier();
        dom.exchange(ctx);
        ctx.barrier();

        // Verify: for every receive direction, the halo slab holds the
        // periodic-wrapped neighbor data.
        for local in dom.locals() {
            let o = local.interior.origin;
            let e = local.interior.extent;
            let neg = radius.neg();
            let pos = radius.pos();
            for d in neighborhood.directions() {
                // receiving data sent toward d: halo on the -d side
                let mut lo = [0i64; 3];
                let mut hi = [0i64; 3];
                for a in 0..3 {
                    match d.0[a] {
                        0 => {
                            lo[a] = 0;
                            hi[a] = e[a] as i64;
                        }
                        1 => {
                            lo[a] = -(neg[a] as i64);
                            hi[a] = 0;
                        }
                        -1 => {
                            lo[a] = e[a] as i64;
                            hi[a] = e[a] as i64 + pos[a] as i64;
                        }
                        _ => unreachable!(),
                    }
                }
                for q in 0..quantities {
                    for z in lo[2]..hi[2] {
                        for y in lo[1]..hi[1] {
                            for x in lo[0]..hi[0] {
                                let got = local.get_local_f32(q, [x, y, z]);
                                let gp = [
                                    (o[0] as i64 + x).rem_euclid(domain[0] as i64) as u64,
                                    (o[1] as i64 + y).rem_euclid(domain[1] as i64) as u64,
                                    (o[2] as i64 + z).rem_euclid(domain[2] as i64) as u64,
                                ];
                                let want = cell_value(domain, q, gp);
                                if got != want {
                                    f2.borrow_mut().push(format!(
                                        "rank {} local {:?} dir {:?} q{q} cell [{x},{y},{z}] \
                                         (global {gp:?}): got {got}, want {want}",
                                        ctx.rank(),
                                        local.gpu_idx,
                                        d
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            // Interior must be untouched.
            for q in 0..quantities {
                for z in [0, e[2] as i64 - 1] {
                    for y in [0, e[1] as i64 - 1] {
                        for x in [0, e[0] as i64 - 1] {
                            let got = local.get_local_f32(q, [x, y, z]);
                            let want = cell_value(
                                domain,
                                q,
                                [o[0] + x as u64, o[1] + y as u64, o[2] + z as u64],
                            );
                            if got != want {
                                f2.borrow_mut().push(format!(
                                    "rank {} interior corrupted at [{x},{y},{z}] q{q}",
                                    ctx.rank()
                                ));
                            }
                        }
                    }
                }
            }
        }
    });
    let f = failures.borrow();
    assert!(
        f.is_empty(),
        "{} halo mismatches; first few:\n{}",
        f.len(),
        f.iter().take(5).cloned().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn single_rank_six_gpus_all_methods() {
    // 1 rank drives all 6 GPUs: kernel + peer paths.
    check_exchange(Case::default());
}

#[test]
fn six_ranks_colocated() {
    // 6 ranks, 1 GPU each: colocated path dominates on-node.
    check_exchange(Case {
        rpn: 6,
        ..Case::default()
    });
}

#[test]
fn two_ranks_mixed_peer_and_colocated() {
    check_exchange(Case {
        rpn: 2,
        ..Case::default()
    });
}

#[test]
fn staged_only_everywhere() {
    check_exchange(Case {
        rpn: 6,
        methods: Methods::staged_only(),
        ..Case::default()
    });
}

#[test]
fn staged_plus_colocated() {
    check_exchange(Case {
        rpn: 6,
        methods: Methods::staged_only().with_colocated(),
        ..Case::default()
    });
}

#[test]
fn multi_node_all_methods() {
    check_exchange(Case {
        nodes: 2,
        rpn: 6,
        domain: [24, 24, 24],
        ..Case::default()
    });
}

#[test]
fn multi_node_cuda_aware() {
    check_exchange(Case {
        nodes: 2,
        rpn: 3,
        domain: [24, 24, 24],
        methods: Methods::all_with_cuda_aware(),
        cuda_aware: true,
        ..Case::default()
    });
}

#[test]
fn cuda_aware_only_remote_method() {
    check_exchange(Case {
        nodes: 2,
        rpn: 6,
        domain: [24, 24, 24],
        methods: Methods::cuda_aware_only(),
        cuda_aware: true,
        ..Case::default()
    });
}

#[test]
fn radius_two() {
    check_exchange(Case {
        radius: Radius::constant(2),
        ..Case::default()
    });
}

#[test]
fn radius_three_multi_node() {
    check_exchange(Case {
        nodes: 2,
        rpn: 6,
        domain: [30, 24, 24],
        radius: Radius::constant(3),
        ..Case::default()
    });
}

#[test]
fn asymmetric_radius() {
    check_exchange(Case {
        radius: Radius::faces(1, 2, 0, 1, 2, 1),
        ..Case::default()
    });
}

#[test]
fn faces_only_neighborhood() {
    check_exchange(Case {
        neighborhood: Neighborhood::Faces6,
        ..Case::default()
    });
}

#[test]
fn faces_edges_neighborhood() {
    check_exchange(Case {
        rpn: 2,
        neighborhood: Neighborhood::FacesEdges18,
        ..Case::default()
    });
}

#[test]
fn flat_domain_forces_self_exchanges() {
    // decomposition is 1 wide in y and z: periodic self-exchange (Kernel).
    check_exchange(Case {
        domain: [60, 7, 5],
        ..Case::default()
    });
}

#[test]
fn flat_domain_self_exchange_without_kernel_method() {
    // same geometry, kernel disabled: self-exchanges via peer D2D copies.
    check_exchange(Case {
        domain: [60, 7, 5],
        methods: Methods::staged_only().with_peer(),
        ..Case::default()
    });
}

#[test]
fn flat_domain_self_exchange_staged_only() {
    // self-exchanges staged through the host and MPI-to-self.
    check_exchange(Case {
        domain: [60, 7, 5],
        methods: Methods::staged_only(),
        ..Case::default()
    });
}

#[test]
fn trivial_placement_is_also_correct() {
    check_exchange(Case {
        rpn: 2,
        placement: PlacementStrategy::Trivial,
        ..Case::default()
    });
}

#[test]
fn single_quantity() {
    check_exchange(Case {
        quantities: 1,
        ..Case::default()
    });
}

#[test]
fn four_quantities_multi_node() {
    check_exchange(Case {
        nodes: 2,
        rpn: 2,
        domain: [24, 24, 24],
        quantities: 4,
        ..Case::default()
    });
}

#[test]
fn three_nodes_odd_split() {
    check_exchange(Case {
        nodes: 3,
        rpn: 6,
        domain: [25, 23, 21], // non-divisible extents
        ..Case::default()
    });
}

#[test]
fn multi_node_persistent() {
    // Internode legs ride persistent channels (PersistentStaged outranks
    // Staged when the stack advertises the capability).
    check_exchange(Case {
        nodes: 2,
        rpn: 6,
        domain: [48, 24, 24],
        methods: Methods::all().with_persistent(),
        ..Case::default()
    });
}

#[test]
fn multi_node_partitioned() {
    // Big faces => multi-partition messages; data must still land exactly.
    check_exchange(Case {
        nodes: 2,
        rpn: 6,
        domain: [96, 96, 48],
        radius: Radius::constant(2),
        methods: Methods::all().with_partitioned(),
        ..Case::default()
    });
}

#[test]
fn persistent_only_everywhere() {
    // No node-local rungs enabled: every pair, including intra-node and
    // self-exchange, goes through persistent channels.
    check_exchange(Case {
        rpn: 6,
        methods: Methods::staged_only().with_persistent(),
        ..Case::default()
    });
}

#[test]
fn partitioned_only_everywhere() {
    check_exchange(Case {
        rpn: 6,
        methods: Methods::staged_only().with_partitioned(),
        ..Case::default()
    });
}

#[test]
fn persistent_channels_reused_across_iterations_stay_correct() {
    // The channel is matched once at setup; later exchanges reuse it. Each
    // iteration writes fresh interior values, so a stale round would show
    // up as last iteration's bytes in the halo.
    let failures: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    let f2 = Rc::clone(&failures);
    let cfg = WorldConfig::new(summit_cluster(2), 6)
        .mpi_persistent(true)
        .mpi_partitioned(true);
    run_world(cfg, move |ctx| {
        let domain = [48, 24, 24];
        let dom = DomainBuilder::new(domain)
            .radius(1)
            .quantities(1)
            .methods(Methods::all().with_persistent().with_partitioned())
            .build(ctx);
        for iter in 0..3 {
            let bump = iter as f32 * 10_000.0;
            for local in dom.locals() {
                local.fill(0, |p| cell_value(domain, 0, p) + bump);
            }
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            for local in dom.locals() {
                let o = local.interior.origin;
                let e = local.interior.extent;
                for z in 0..e[2] as i64 {
                    for y in 0..e[1] as i64 {
                        let got = local.get_local_f32(0, [-1, y, z]);
                        let gp = [
                            (o[0] as i64 - 1).rem_euclid(domain[0] as i64) as u64,
                            o[1] + y as u64,
                            o[2] + z as u64,
                        ];
                        if got != cell_value(domain, 0, gp) + bump {
                            *f2.borrow_mut() += 1;
                        }
                    }
                }
            }
        }
    });
    assert_eq!(*failures.borrow(), 0);
}

#[test]
fn exchange_twice_still_correct() {
    // a second exchange must not corrupt anything (buffer reuse).
    let failures: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    let f2 = Rc::clone(&failures);
    let cfg = WorldConfig::new(summit_cluster(1), 6);
    run_world(cfg, move |ctx| {
        let domain = [24, 18, 12];
        let dom = DomainBuilder::new(domain)
            .radius(1)
            .quantities(1)
            .build(ctx);
        for local in dom.locals() {
            local.fill(0, |p| cell_value(domain, 0, p));
        }
        ctx.barrier();
        dom.exchange(ctx);
        dom.exchange(ctx);
        ctx.barrier();
        for local in dom.locals() {
            let o = local.interior.origin;
            let e = local.interior.extent;
            // spot-check the -x halo
            for z in 0..e[2] as i64 {
                for y in 0..e[1] as i64 {
                    let got = local.get_local_f32(0, [-1, y, z]);
                    let gp = [
                        (o[0] as i64 - 1).rem_euclid(domain[0] as i64) as u64,
                        o[1] + y as u64,
                        o[2] + z as u64,
                    ];
                    if got != cell_value(domain, 0, gp) {
                        *f2.borrow_mut() += 1;
                    }
                }
            }
        }
    });
    assert_eq!(*failures.borrow(), 0);
}

#[test]
fn exchange_is_deterministic() {
    let run = || {
        let cfg = WorldConfig::new(summit_cluster(2), 6);
        run_world(cfg, move |ctx| {
            let dom = DomainBuilder::new([48, 48, 48])
                .radius(2)
                .quantities(2)
                .build(ctx);
            ctx.barrier();
            for _ in 0..3 {
                dom.exchange(ctx);
            }
        })
        .elapsed
    };
    assert_eq!(run(), run());
}

mod open_boundary {
    use super::*;
    use stencil_core::dim3::Boundary;

    /// With open boundaries, interior-facing halos are exchanged normally
    /// and outward-facing halos stay exactly as initialized.
    fn check_open(nodes: usize, rpn: usize, methods: Methods) {
        const SENTINEL: f32 = -999.5;
        let domain: Dim3 = [24, 18, 12];
        let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let f2 = Rc::clone(&failures);
        let cfg = WorldConfig::new(summit_cluster(nodes), rpn);
        run_world(cfg, move |ctx| {
            let dom = DomainBuilder::new(domain)
                .radius(1)
                .quantities(1)
                .methods(methods)
                .boundary(Boundary::Open)
                .build(ctx);
            for local in dom.locals() {
                local.fill(0, |p| cell_value(domain, 0, p));
                // paint every halo cell with the sentinel
                let e = local.interior.extent;
                for z in -1..=e[2] as i64 {
                    for y in -1..=e[1] as i64 {
                        for x in -1..=e[0] as i64 {
                            let interior = x >= 0
                                && y >= 0
                                && z >= 0
                                && (x as u64) < e[0]
                                && (y as u64) < e[1]
                                && (z as u64) < e[2];
                            if !interior {
                                local.set_local_f32(0, [x, y, z], SENTINEL);
                            }
                        }
                    }
                }
            }
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            for local in dom.locals() {
                let o = local.interior.origin;
                let e = local.interior.extent;
                for z in -1..=e[2] as i64 {
                    for y in -1..=e[1] as i64 {
                        for x in -1..=e[0] as i64 {
                            let interior = x >= 0
                                && y >= 0
                                && z >= 0
                                && (x as u64) < e[0]
                                && (y as u64) < e[1]
                                && (z as u64) < e[2];
                            if interior {
                                continue;
                            }
                            let gx = o[0] as i64 + x;
                            let gy = o[1] as i64 + y;
                            let gz = o[2] as i64 + z;
                            let inside = gx >= 0
                                && gy >= 0
                                && gz >= 0
                                && (gx as u64) < domain[0]
                                && (gy as u64) < domain[1]
                                && (gz as u64) < domain[2];
                            let got = local.get_local_f32(0, [x, y, z]);
                            let want = if inside {
                                cell_value(domain, 0, [gx as u64, gy as u64, gz as u64])
                            } else {
                                SENTINEL // outward halo must be untouched
                            };
                            if got != want {
                                f2.borrow_mut().push(format!(
                                    "rank {} cell [{x},{y},{z}] global [{gx},{gy},{gz}]: \
                                     got {got}, want {want}",
                                    ctx.rank()
                                ));
                            }
                        }
                    }
                }
            }
        });
        let f = failures.borrow();
        assert!(
            f.is_empty(),
            "{} open-boundary mismatches; first:\n{}",
            f.len(),
            f.first().cloned().unwrap_or_default()
        );
    }

    #[test]
    fn open_single_rank() {
        check_open(1, 1, Methods::all());
    }

    #[test]
    fn open_six_ranks() {
        check_open(1, 6, Methods::all());
    }

    #[test]
    fn open_staged_only() {
        check_open(1, 6, Methods::staged_only());
    }

    #[test]
    fn open_multi_node() {
        check_open(2, 3, Methods::all());
    }

    #[test]
    fn open_domain_has_fewer_transfers_than_periodic() {
        let count = |b: Boundary| {
            let out: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
            let o2 = Rc::clone(&out);
            run_world(WorldConfig::new(summit_cluster(1), 1), move |ctx| {
                let dom = DomainBuilder::new([24, 18, 12])
                    .radius(1)
                    .boundary(b)
                    .build(ctx);
                *o2.borrow_mut() = dom.plan_summary().total_sends();
            });
            let v = *out.borrow();
            v
        };
        let periodic = count(Boundary::Periodic);
        let open = count(Boundary::Open);
        assert!(open < periodic, "open {open} must be < periodic {periodic}");
        // 24x18x12 over 6 GPUs = [3,2,1] grid: every z direction and the
        // boundary-facing x/y directions disappear.
        assert_eq!(periodic, 6 * 26);
        assert!(open > 0);
    }
}

mod consolidated {
    use super::*;

    #[test]
    fn consolidated_multi_node_matches_reference() {
        // Consolidation groups all staged (off-node) transfers per
        // (subdomain, destination rank); the halo contents must be
        // unchanged.
        let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let f2 = Rc::clone(&failures);
        let domain: Dim3 = [24, 24, 24];
        run_world(WorldConfig::new(summit_cluster(2), 6), move |ctx| {
            let dom = DomainBuilder::new(domain)
                .radius(1)
                .quantities(2)
                .consolidate(true)
                .build(ctx);
            for local in dom.locals() {
                for q in 0..2 {
                    local.fill(q, |p| cell_value(domain, q, p));
                }
            }
            ctx.barrier();
            dom.exchange(ctx);
            dom.exchange(ctx); // reuse of grouped buffers must also be clean
            ctx.barrier();
            for local in dom.locals() {
                let o = local.interior.origin;
                let e = local.interior.extent;
                for q in 0..2 {
                    for z in -1..=(e[2] as i64) {
                        for y in -1..=(e[1] as i64) {
                            for x in -1..=(e[0] as i64) {
                                let inside = |v: i64, m: u64| v >= 0 && (v as u64) < m;
                                if inside(x, e[0]) && inside(y, e[1]) && inside(z, e[2]) {
                                    continue;
                                }
                                let got = local.get_local_f32(q, [x, y, z]);
                                let gp = [
                                    (o[0] as i64 + x).rem_euclid(domain[0] as i64) as u64,
                                    (o[1] as i64 + y).rem_euclid(domain[1] as i64) as u64,
                                    (o[2] as i64 + z).rem_euclid(domain[2] as i64) as u64,
                                ];
                                let want = cell_value(domain, q, gp);
                                if got != want {
                                    f2.borrow_mut().push(format!(
                                        "rank {} q{q} [{x},{y},{z}]: got {got} want {want}",
                                        ctx.rank()
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        });
        let f = failures.borrow();
        assert!(f.is_empty(), "{} mismatches: {:?}", f.len(), f.first());
    }

    #[test]
    fn consolidated_staged_only_single_node() {
        // With staged-only methods even on-node messages group.
        let failures: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
        let f2 = Rc::clone(&failures);
        let domain: Dim3 = [24, 18, 12];
        run_world(WorldConfig::new(summit_cluster(1), 6), move |ctx| {
            let dom = DomainBuilder::new(domain)
                .radius(2)
                .methods(Methods::staged_only())
                .consolidate(true)
                .build(ctx);
            for local in dom.locals() {
                local.fill(0, |p| cell_value(domain, 0, p));
            }
            ctx.barrier();
            dom.exchange(ctx);
            ctx.barrier();
            for local in dom.locals() {
                let o = local.interior.origin;
                let e = local.interior.extent;
                for z in 0..e[2] as i64 {
                    for y in 0..e[1] as i64 {
                        let got = local.get_local_f32(0, [-2, y, z]);
                        let gp = [
                            (o[0] as i64 - 2).rem_euclid(domain[0] as i64) as u64,
                            o[1] + y as u64,
                            o[2] + z as u64,
                        ];
                        if got != cell_value(domain, 0, gp) {
                            *f2.borrow_mut() += 1;
                        }
                    }
                }
            }
        });
        assert_eq!(*failures.borrow(), 0);
    }

    #[test]
    fn consolidation_is_deterministic_and_comparable() {
        let time = |consolidate: bool| {
            let out: Rc<RefCell<f64>> = Rc::new(RefCell::new(0.0));
            let o2 = Rc::clone(&out);
            let cfg = WorldConfig::new(summit_cluster(2), 6).data_mode(gpusim::DataMode::Virtual);
            run_world(cfg, move |ctx| {
                let dom = DomainBuilder::new([512, 512, 512])
                    .radius(2)
                    .quantities(4)
                    .consolidate(consolidate)
                    .build(ctx);
                ctx.barrier();
                let t0 = ctx.wtime();
                dom.exchange(ctx);
                let dt = ctx.wtime() - t0;
                let mut g = o2.borrow_mut();
                if dt > *g {
                    *g = dt;
                }
            });
            let v = *out.borrow();
            v
        };
        let plain = time(false);
        let grouped = time(true);
        // The paper conjectures its messages are already large enough for
        // consolidation not to matter much; either way it must be within a
        // factor of ~2 and strictly positive.
        assert!(grouped > 0.0 && plain > 0.0);
        assert!(
            grouped < plain * 2.0 && plain < grouped * 2.0,
            "plain {plain} vs grouped {grouped}"
        );
    }
}

//! End-to-end application test: distributed Jacobi relaxation must be
//! bit-identical to a serial reference across node/rank/method layouts —
//! this exercises every layer (partition, placement, specialization,
//! exchange driver, simulated CUDA + MPI data planes) at once.

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, WorldConfig};
use stencil_core::{DomainBuilder, Methods, Neighborhood};
use stencil_examples::{jacobi_signed_region_work, jacobi_traffic, SerialGrid};
use topo::summit::summit_cluster;

fn jacobi_case(nodes: usize, rpn: usize, methods: Methods, cuda_aware: bool, steps: usize) {
    const DOMAIN: [u64; 3] = [30, 24, 18];
    const K: f32 = 0.09;
    let init = |p: [u64; 3]| ((p[0] * 3 + p[1] * 7 + p[2] * 11) % 53) as f32;

    let worst: Rc<RefCell<f32>> = Rc::new(RefCell::new(0.0));
    let w2 = Rc::clone(&worst);
    let world = WorldConfig::new(summit_cluster(nodes), rpn).cuda_aware(cuda_aware);
    run_world(world, move |ctx| {
        let dom = DomainBuilder::new(DOMAIN)
            .radius(1)
            .quantities(2)
            .neighborhood(Neighborhood::Faces6)
            .methods(methods)
            .build(ctx);
        for local in dom.locals() {
            local.fill(0, init);
        }
        ctx.barrier();
        for step in 0..steps {
            let (qs, qd) = (step % 2, (step + 1) % 2);
            dom.exchange(ctx);
            let ks: Vec<_> = dom
                .locals()
                .iter()
                .map(|l| {
                    let e = l.interior.extent.map(|v| v as i64);
                    l.launch_compute(
                        ctx.sim(),
                        "jacobi",
                        jacobi_traffic(l),
                        Some(jacobi_signed_region_work(l, qs, qd, K, [0; 3], e)),
                    )
                })
                .collect();
            ctx.sim().wait_all(&ks);
            ctx.barrier();
        }
        let mut reference = SerialGrid::init(DOMAIN, init);
        for _ in 0..steps {
            reference.jacobi_step(K);
        }
        let qf = steps % 2;
        let mut local_worst = 0.0f32;
        for local in dom.locals() {
            let o = local.interior.origin;
            let e = local.interior.extent;
            for z in 0..e[2] {
                for y in 0..e[1] {
                    for x in 0..e[0] {
                        let got = local.get_global_f32(qf, [o[0] + x, o[1] + y, o[2] + z]);
                        let want =
                            reference.at((o[0] + x) as i64, (o[1] + y) as i64, (o[2] + z) as i64);
                        local_worst = local_worst.max((got - want).abs());
                    }
                }
            }
        }
        let mut g = w2.borrow_mut();
        *g = g.max(local_worst);
    });
    assert_eq!(
        *worst.borrow(),
        0.0,
        "distributed Jacobi diverged from reference"
    );
}

#[test]
fn one_rank_all_gpus() {
    jacobi_case(1, 1, Methods::all(), false, 4);
}

#[test]
fn six_ranks_colocated() {
    jacobi_case(1, 6, Methods::all(), false, 4);
}

#[test]
fn staged_only_still_exact() {
    jacobi_case(1, 6, Methods::staged_only(), false, 3);
}

#[test]
fn two_nodes_mixed_paths() {
    jacobi_case(2, 3, Methods::all(), false, 3);
}

#[test]
fn two_nodes_cuda_aware() {
    jacobi_case(2, 6, Methods::all_with_cuda_aware(), true, 3);
}

#[test]
fn three_nodes_uneven_extents() {
    jacobi_case(3, 2, Methods::all(), false, 3);
}

//! MPI semantics tests: tag matching order, send-before-recv and
//! recv-before-send symmetry, many-to-many stress, self-messaging, and the
//! rendezvous/eager latency split.

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use topo::summit::summit_cluster;

fn cfg(nodes: usize, rpn: usize) -> WorldConfig {
    WorldConfig::new(summit_cluster(nodes), rpn)
}

#[test]
fn same_tag_messages_match_in_post_order() {
    // MPI guarantees non-overtaking for identical (src, dst, tag):
    // the first send matches the first receive.
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            for i in 0..4u8 {
                let buf = m.alloc_host_untimed(0, 0, 64);
                buf.write(0, &[i; 64]);
                ctx.send(&buf, 0, 64, 1, 9);
            }
        } else {
            for _ in 0..4 {
                let buf = m.alloc_host_untimed(0, 1, 64);
                ctx.recv(&buf, 0, 64, 0, 9);
                let mut b = [0u8; 1];
                buf.read(0, &mut b);
                g2.borrow_mut().push(b[0]);
            }
        }
    });
    assert_eq!(*got.borrow(), vec![0, 1, 2, 3]);
}

#[test]
fn send_first_and_recv_first_both_work() {
    for recv_first in [false, true] {
        let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
        let o2 = Rc::clone(&ok);
        run_world(cfg(1, 2), move |ctx| {
            let m = ctx.machine();
            if ctx.rank() == 0 {
                if !recv_first {
                    // let the receiver post first
                    ctx.sim().delay(detsim::SimDuration::from_micros(50));
                }
                let buf = m.alloc_host_untimed(0, 0, 128);
                buf.write(0, &[7; 128]);
                ctx.send(&buf, 0, 128, 1, 0);
            } else {
                if recv_first {
                    ctx.sim().delay(detsim::SimDuration::from_micros(50));
                }
                let buf = m.alloc_host_untimed(0, 1, 128);
                ctx.recv(&buf, 0, 128, 0, 0);
                let mut b = [0u8; 128];
                buf.read(0, &mut b);
                *o2.borrow_mut() = b.iter().all(|&v| v == 7);
            }
        });
        assert!(*ok.borrow(), "recv_first={recv_first}");
    }
}

#[test]
fn distinct_tags_do_not_cross_match() {
    let got: Rc<RefCell<(u8, u8)>> = Rc::new(RefCell::new((0, 0)));
    let g2 = Rc::clone(&got);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            let a = m.alloc_host_untimed(0, 0, 8);
            a.write(0, &[1; 8]);
            let b = m.alloc_host_untimed(0, 0, 8);
            b.write(0, &[2; 8]);
            // send tag 5 first, then tag 4
            let r1 = ctx.isend(&a, 0, 8, 1, 5);
            let r2 = ctx.isend(&b, 0, 8, 1, 4);
            ctx.wait_all(&[r1, r2]);
        } else {
            // receive tag 4 first: must get payload 2 despite arriving later
            let b4 = m.alloc_host_untimed(0, 1, 8);
            ctx.recv(&b4, 0, 8, 0, 4);
            let b5 = m.alloc_host_untimed(0, 1, 8);
            ctx.recv(&b5, 0, 8, 0, 5);
            let mut x = [0u8; 1];
            let mut y = [0u8; 1];
            b4.read(0, &mut x);
            b5.read(0, &mut y);
            *g2.borrow_mut() = (x[0], y[0]);
        }
    });
    assert_eq!(*got.borrow(), (2, 1));
}

#[test]
fn self_send_works() {
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let o2 = Rc::clone(&ok);
    run_world(cfg(1, 1), move |ctx| {
        let m = ctx.machine();
        let s = m.alloc_host_untimed(0, 0, 32);
        s.write(0, &[9; 32]);
        let r = m.alloc_host_untimed(0, 0, 32);
        let rr = ctx.irecv(&r, 0, 32, 0, 3);
        let rs = ctx.isend(&s, 0, 32, 0, 3);
        ctx.wait_all(&[rr, rs]);
        let mut b = [0u8; 32];
        r.read(0, &mut b);
        *o2.borrow_mut() = b.iter().all(|&v| v == 9);
    });
    assert!(*ok.borrow());
}

#[test]
fn all_to_all_stress_delivers_every_payload() {
    let bad: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    let b2 = Rc::clone(&bad);
    run_world(cfg(2, 6), move |ctx| {
        let m = ctx.machine();
        let n = ctx.size();
        let me = ctx.rank();
        let sbufs: Vec<_> = (0..n)
            .map(|peer| {
                let b = m.alloc_host_untimed(ctx.node(), 0, 256);
                b.write(0, &[(me * 16 + peer) as u8; 256]);
                b
            })
            .collect();
        let rbufs: Vec<_> = (0..n)
            .map(|_| m.alloc_host_untimed(ctx.node(), 0, 256))
            .collect();
        let mut reqs = Vec::new();
        for peer in 0..n {
            if peer == me {
                continue;
            }
            reqs.push(ctx.irecv(&rbufs[peer], 0, 256, peer, 77));
            reqs.push(ctx.isend(&sbufs[peer], 0, 256, peer, 77));
        }
        ctx.wait_all(&reqs);
        for (peer, rbuf) in rbufs.iter().enumerate() {
            if peer == me {
                continue;
            }
            let mut b = [0u8; 256];
            rbuf.read(0, &mut b);
            if !b.iter().all(|&v| v == (peer * 16 + me) as u8) {
                *b2.borrow_mut() += 1;
            }
        }
    });
    assert_eq!(*bad.borrow(), 0);
}

#[test]
fn eager_messages_skip_rendezvous_latency() {
    // A small (eager) message completes faster than a just-above-threshold
    // (rendezvous) one beyond the pure bandwidth difference.
    let times: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let t2 = Rc::clone(&times);
    let world = cfg(1, 2).data_mode(DataMode::Virtual);
    run_world(world, move |ctx| {
        let m = ctx.machine();
        for bytes in [512u64, 8193] {
            ctx.barrier();
            if ctx.rank() == 0 {
                let b = m.alloc_host_untimed(0, 0, bytes);
                let t0 = ctx.wtime();
                ctx.send(&b, 0, bytes, 1, bytes);
                t2.borrow_mut().push(ctx.wtime() - t0);
            } else {
                let b = m.alloc_host_untimed(0, 1, bytes);
                ctx.recv(&b, 0, bytes, 0, bytes);
            }
        }
    });
    let t = times.borrow();
    let bandwidth_delta = (8193.0 - 512.0) / 10e9; // shm rate
    let extra = t[1] - t[0] - bandwidth_delta;
    // the rendezvous handshake (3us) must be visible
    assert!(
        extra > 2.5e-6,
        "rendezvous latency not charged: {:?} extra {extra}",
        *t
    );
}

#[test]
fn barrier_cost_grows_with_world_size() {
    let time_barrier = |nodes: usize| {
        let out: Rc<RefCell<f64>> = Rc::new(RefCell::new(0.0));
        let o2 = Rc::clone(&out);
        run_world(cfg(nodes, 6), move |ctx| {
            ctx.barrier(); // align
            let t0 = ctx.wtime();
            ctx.barrier();
            if ctx.rank() == 0 {
                *o2.borrow_mut() = ctx.wtime() - t0;
            }
        });
        let v = *out.borrow();
        v
    };
    let small = time_barrier(1);
    let large = time_barrier(8);
    assert!(large > small, "log-tree barrier: {small} vs {large}");
}

//! Persistent and partitioned channel semantics: data correctness, the
//! amortized-cost model, per-partition arrival, determinism, and the
//! capability gates (`docs/TRANSPORTS.md`).

use std::cell::RefCell;
use std::rc::Rc;

use detsim::SimDuration;
use mpisim::{run_world, WorldConfig};
use topo::summit::summit_cluster;

fn cfg(nodes: usize, rpn: usize) -> WorldConfig {
    WorldConfig::new(summit_cluster(nodes), rpn)
        .mpi_persistent(true)
        .mpi_partitioned(true)
}

#[test]
fn persistent_round_trip_moves_data_every_round() {
    let ok = Rc::new(RefCell::new(0));
    let o = Rc::clone(&ok);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        let bytes = 4096u64;
        if ctx.rank() == 0 {
            let buf = m.alloc_host_untimed(0, 0, bytes);
            let ch = ctx.send_init(&buf, 0, bytes, 1, 7);
            for round in 0..3u8 {
                buf.write(0, &vec![round + 1; bytes as usize]);
                let r = ctx.start(&ch);
                ctx.wait(&r.all);
            }
        } else {
            let buf = m.alloc_host_untimed(0, 1, bytes);
            let ch = ctx.recv_init(&buf, 0, bytes, 0, 7);
            for round in 0..3u8 {
                let r = ctx.start(&ch);
                ctx.wait(&r.all);
                let mut got = vec![0u8; bytes as usize];
                buf.read(0, &mut got);
                if got.iter().all(|&b| b == round + 1) {
                    *o.borrow_mut() += 1;
                }
            }
        }
    });
    assert_eq!(
        *ok.borrow(),
        3,
        "every round must deliver that round's bytes"
    );
}

#[test]
fn persistent_start_cheaper_than_isend_per_iteration() {
    // Same eager-size traffic, 16 iterations: the persistent loop should
    // save ~2 * (call_overhead - persistent_start_overhead) per iteration
    // on the critical path (one post per side per iteration).
    let bytes = 1024u64;
    let iters = 16;
    let run = |persistent: bool| {
        let dt = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&dt);
        run_world(cfg(1, 2), move |ctx| {
            let m = ctx.machine();
            let me = ctx.rank();
            let buf = m.alloc_host_untimed(0, me, bytes);
            ctx.barrier();
            let t0 = ctx.wtime();
            if persistent {
                let ch = if me == 0 {
                    ctx.send_init(&buf, 0, bytes, 1, 0)
                } else {
                    ctx.recv_init(&buf, 0, bytes, 0, 0)
                };
                for _ in 0..iters {
                    let r = ctx.start(&ch);
                    ctx.wait(&r.all);
                }
            } else {
                for _ in 0..iters {
                    let r = if me == 0 {
                        ctx.isend(&buf, 0, bytes, 1, 0)
                    } else {
                        ctx.irecv(&buf, 0, bytes, 0, 0)
                    };
                    ctx.wait(&r);
                }
            }
            if me == 0 {
                *d.borrow_mut() = ctx.wtime() - t0;
            }
        });
        let t = *dt.borrow();
        t
    };
    let nonblocking = run(false);
    let persistent = run(true);
    assert!(
        persistent < nonblocking,
        "persistent loop must be faster: {persistent} vs {nonblocking}"
    );
    // The init cost is paid inside the persistent loop's window too, so the
    // saving is (iters - 1) * delta at minimum.
    let delta = 1e-6 - 200e-9; // call_overhead - persistent_start_overhead
    assert!(
        nonblocking - persistent > (iters - 1) as f64 * delta * 0.9,
        "per-iteration saving should be ~call_overhead - start_overhead: \
         {nonblocking} vs {persistent}"
    );
}

#[test]
fn persistent_skips_rendezvous_after_first_round() {
    // A message over the eager threshold pays the rendezvous handshake on
    // round 0 only: the match is negotiated once per channel.
    let bytes = 100_000u64; // > 8192 eager threshold
    let times = Rc::new(RefCell::new(Vec::new()));
    let t = Rc::clone(&times);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        let me = ctx.rank();
        let buf = m.alloc_host_untimed(0, me, bytes);
        let ch = if me == 0 {
            ctx.send_init(&buf, 0, bytes, 1, 0)
        } else {
            ctx.recv_init(&buf, 0, bytes, 0, 0)
        };
        for _ in 0..2 {
            ctx.barrier();
            let t0 = ctx.wtime();
            let r = ctx.start(&ch);
            ctx.wait(&r.all);
            if me == 0 {
                t.borrow_mut().push(ctx.wtime() - t0);
            }
        }
    });
    let v = times.borrow().clone();
    let saved = v[0] - v[1];
    assert!(
        (saved - 3e-6).abs() < 0.5e-6,
        "round 1 should skip the 3us rendezvous: round0 {} round1 {}",
        v[0],
        v[1]
    );
}

#[test]
fn partitioned_parts_arrive_incrementally_with_data() {
    // The sender releases partitions one at a time; each partition's bytes
    // land without waiting for the rest of the message.
    let bytes = 40_000u64;
    let parts = 4usize;
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    let a = Rc::clone(&arrivals);
    let ok = Rc::new(RefCell::new(false));
    let o = Rc::clone(&ok);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            let buf = m.alloc_host_untimed(0, 0, bytes);
            buf.write(0, &vec![5u8; bytes as usize]);
            let ch = ctx.psend_init(&buf, 0, bytes, 1, 9, parts);
            let r = ctx.start(&ch);
            for p in 0..parts {
                // stagger: partition p becomes ready 50us apart
                ctx.sim().delay(SimDuration::from_micros(50));
                ctx.pready(&ch, p);
            }
            ctx.wait(&r.all);
        } else {
            let buf = m.alloc_host_untimed(0, 1, bytes);
            let ch = ctx.precv_init(&buf, 0, bytes, 0, 9, parts);
            let r = ctx.start(&ch);
            for p in 0..parts {
                ctx.sim().wait(&r.parts[p]);
                a.borrow_mut().push(ctx.wtime());
            }
            ctx.wait(&r.all);
            let mut got = vec![0u8; bytes as usize];
            buf.read(0, &mut got);
            *o.borrow_mut() = got.iter().all(|&b| b == 5);
        }
    });
    assert!(*ok.borrow(), "all partitions must deliver their bytes");
    let v = arrivals.borrow().clone();
    assert_eq!(v.len(), parts);
    for w in v.windows(2) {
        let gap = w[1] - w[0];
        assert!(
            gap > 30e-6 && gap < 70e-6,
            "staggered preadys must produce staggered arrivals: {v:?}"
        );
    }
}

#[test]
fn persistent_equals_nonblocking_when_reuse_is_free() {
    // Property: with the cost model equalized (`MPI_Start` priced like
    // `MPI_Isend`) and eager-size messages (no rendezvous to amortize),
    // the persistent path is *bit-identical* to the nonblocking one —
    // same delivered bytes, same NIC traffic, same virtual end time.
    // Any divergence means the channel model changes semantics rather
    // than just amortizing per-iteration cost.
    for (nodes, rpn, bytes, iters) in [
        (1usize, 2usize, 64u64, 3usize),
        (1, 3, 1500, 5),
        (2, 2, 8192, 4),
        (2, 6, 4096, 2),
    ] {
        let run = |persistent: bool| {
            let mut cfg = cfg(nodes, rpn);
            cfg.mpi_cost.persistent_start_overhead = cfg.mpi_cost.call_overhead;
            let init_cost = cfg.mpi_cost.call_overhead;
            let data = Rc::new(RefCell::new(Vec::new()));
            let d = Rc::clone(&data);
            let rep = run_world(cfg, move |ctx| {
                let m = ctx.machine();
                let me = ctx.rank();
                let n = ctx.size();
                let peer = (me + 1) % n;
                let from = (me + n - 1) % n;
                let sbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
                let rbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
                let chans = persistent.then(|| {
                    (
                        ctx.send_init(&sbuf, 0, bytes, peer, 3),
                        ctx.recv_init(&rbuf, 0, bytes, from, 3),
                    )
                });
                if chans.is_none() {
                    // Mirror the one-time channel-init posts so both runs
                    // enter the loop at the same virtual instant.
                    ctx.sim().delay(init_cost);
                    ctx.sim().delay(init_cost);
                }
                ctx.barrier();
                for it in 0..iters {
                    sbuf.write(0, &vec![(me * iters + it) as u8; bytes as usize]);
                    if let Some((sch, rch)) = &chans {
                        let rr = ctx.start(rch);
                        let sr = ctx.start(sch);
                        ctx.wait(&rr.all);
                        ctx.wait(&sr.all);
                    } else {
                        let rr = ctx.irecv(&rbuf, 0, bytes, from, 3);
                        let sr = ctx.isend(&sbuf, 0, bytes, peer, 3);
                        ctx.wait(&rr);
                        ctx.wait(&sr);
                    }
                    ctx.barrier();
                }
                let mut got = vec![0u8; bytes as usize];
                rbuf.read(0, &mut got);
                d.borrow_mut().push((me, got));
            });
            let mut v = data.borrow().clone();
            v.sort();
            (rep.elapsed, rep.nic_injected.clone(), v)
        };
        let (e_nb, nic_nb, data_nb) = run(false);
        let (e_p, nic_p, data_p) = run(true);
        assert_eq!(
            data_nb, data_p,
            "delivered bytes must match ({nodes}n x {rpn}r, {bytes}B)"
        );
        assert_eq!(
            nic_nb, nic_p,
            "NIC traffic must match ({nodes}n x {rpn}r, {bytes}B)"
        );
        assert_eq!(
            e_nb, e_p,
            "virtual end time must be bit-identical ({nodes}n x {rpn}r, {bytes}B x{iters})"
        );
    }
}

#[test]
fn partitioned_arrival_order_deterministic_across_runs() {
    // Two ranks exchange partitioned messages in both directions; the
    // per-partition arrival times and the final virtual time must be
    // bit-identical across runs.
    let run = || {
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let a = Rc::clone(&arrivals);
        let elapsed = run_world(cfg(2, 6), move |ctx| {
            let m = ctx.machine();
            let bytes = 30_000u64;
            let parts = 3usize;
            let me = ctx.rank();
            let n = ctx.size();
            let peer = (me + 1) % n;
            let from = (me + n - 1) % n;
            let sbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
            let rbuf = m.alloc_host_untimed(ctx.node(), 0, bytes);
            let sch = ctx.psend_init(&sbuf, 0, bytes, peer, 1, parts);
            let rch = ctx.precv_init(&rbuf, 0, bytes, from, 1, parts);
            for _ in 0..2 {
                let rr = ctx.start(&rch);
                let sr = ctx.start(&sch);
                for p in 0..parts {
                    ctx.sim().delay(SimDuration::from_micros(me as u64 + 1));
                    ctx.pready(&sch, p);
                }
                for p in 0..parts {
                    ctx.sim().wait(&rr.parts[p]);
                    a.borrow_mut().push((me, p, ctx.sim().now().picos()));
                }
                ctx.wait(&sr.all);
            }
        })
        .elapsed;
        let got = arrivals.borrow().clone();
        (elapsed, got)
    };
    let (e1, a1) = run();
    let (e2, a2) = run();
    assert_eq!(e1, e2, "virtual end time must be bit-identical");
    assert_eq!(
        a1, a2,
        "partition arrival order/times must be bit-identical"
    );
}

#[test]
fn partitioned_internode_uses_nic() {
    let rep = run_world(cfg(2, 1).metrics(true), move |ctx| {
        let m = ctx.machine();
        let bytes = 1_000_000u64;
        if ctx.rank() == 0 {
            let buf = m.alloc_host_untimed(0, 0, bytes);
            let ch = ctx.psend_init(&buf, 0, bytes, 1, 0, 4);
            let r = ctx.start(&ch);
            for p in 0..4 {
                ctx.pready(&ch, p);
            }
            ctx.wait(&r.all);
        } else {
            let buf = m.alloc_host_untimed(1, 0, bytes);
            let ch = ctx.precv_init(&buf, 0, bytes, 0, 0, 4);
            let r = ctx.start(&ch);
            ctx.wait(&r.all);
        }
    });
    assert_eq!(
        rep.nic_injected[0], 1_000_000,
        "all partitions ride the NIC"
    );
    let json = rep.metrics.unwrap().to_json();
    assert!(json.contains("\"partition_ready\""), "{json}");
    assert!(json.contains("partitioned"), "{json}");
}

#[test]
fn channel_metrics_recorded() {
    let rep = run_world(cfg(1, 2).metrics(true), move |ctx| {
        let m = ctx.machine();
        let bytes = 2048u64;
        if ctx.rank() == 0 {
            let buf = m.alloc_host_untimed(0, 0, bytes);
            let ch = ctx.send_init(&buf, 0, bytes, 1, 0);
            let r = ctx.start(&ch);
            ctx.wait(&r.all);
        } else {
            let buf = m.alloc_host_untimed(0, 1, bytes);
            let ch = ctx.recv_init(&buf, 0, bytes, 0, 0);
            let r = ctx.start(&ch);
            ctx.wait(&r.all);
        }
    });
    let json = rep.metrics.unwrap().to_json();
    assert!(json.contains("\"channel_ends\""), "{json}");
    assert!(json.contains("\"channel_starts\""), "{json}");
    assert!(json.contains("\"persistent\""), "{json}");
}

#[test]
#[should_panic(expected = "mpi_persistent is off")]
fn persistent_requires_capability_knob() {
    run_world(WorldConfig::new(summit_cluster(1), 2), move |ctx| {
        let m = ctx.machine();
        let buf = m.alloc_host_untimed(0, 0, 64);
        if ctx.rank() == 0 {
            ctx.send_init(&buf, 0, 64, 1, 0);
        }
    });
}

#[test]
#[should_panic(expected = "mpi_partitioned is off")]
fn partitioned_requires_capability_knob() {
    run_world(
        WorldConfig::new(summit_cluster(1), 2).mpi_persistent(true),
        move |ctx| {
            let m = ctx.machine();
            let buf = m.alloc_host_untimed(0, 0, 64);
            if ctx.rank() == 0 {
                ctx.psend_init(&buf, 0, 64, 1, 0, 2);
            }
        },
    );
}

#[test]
#[should_panic(expected = "host buffers")]
fn device_buffers_rejected_on_channels() {
    run_world(cfg(1, 2).cuda_aware(true), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            let buf = m.alloc_device_untimed(0, 64).unwrap();
            ctx.send_init(&buf, 0, 64, 1, 0);
        }
    });
}

#[test]
fn partitioned_short_message_delivers_every_byte() {
    // 5 bytes in 4 partitions: chunks of 2 cover the message after three
    // partitions, so the last one carries nothing.
    let bytes = 5u64;
    let parts = 4usize;
    let ok = Rc::new(RefCell::new(false));
    let o = Rc::clone(&ok);
    run_world(cfg(1, 2), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            let buf = m.alloc_host_untimed(0, 0, bytes);
            buf.write(0, &[1, 2, 3, 4, 5]);
            let ch = ctx.psend_init(&buf, 0, bytes, 1, 9, parts);
            let r = ctx.start(&ch);
            for p in 0..parts {
                ctx.pready(&ch, p);
            }
            ctx.wait(&r.all);
        } else {
            let buf = m.alloc_host_untimed(0, 1, bytes);
            let ch = ctx.precv_init(&buf, 0, bytes, 0, 9, parts);
            let r = ctx.start(&ch);
            ctx.wait(&r.all);
            let mut got = [0u8; 5];
            buf.read(0, &mut got);
            *o.borrow_mut() = got == [1, 2, 3, 4, 5];
        }
    });
    assert!(*ok.borrow(), "every byte must land");
}

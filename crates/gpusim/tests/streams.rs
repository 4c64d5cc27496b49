//! CUDA-semantics tests for the simulated runtime: stream ordering across
//! mixed op types, event-based cross-stream dependencies, engine
//! contention, data-integrity of chained pipelines, and IPC sharing across
//! simulated ranks.

use std::cell::RefCell;
use std::rc::Rc;

use detsim::{Sim, SimDuration};
use gpusim::{DataMode, GpuCostModel, GpuMachine};
use topo::summit::summit_cluster;

fn setup(nodes: usize) -> (Sim, GpuMachine) {
    let sim = Sim::new();
    let m = sim.with_kernel(|k| {
        GpuMachine::new(
            k,
            summit_cluster(nodes),
            GpuCostModel::default(),
            DataMode::Full,
        )
    });
    (sim, m)
}

#[test]
fn mixed_ops_on_one_stream_run_in_issue_order() {
    let (mut sim, m) = setup(1);
    let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
    let o = Rc::clone(&order);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        let dev = m2.alloc_device_untimed(0, 1024).unwrap();
        let host = m2.alloc_host_untimed(0, 0, 1024);
        let s = m2.default_stream(0);
        let o1 = Rc::clone(&o);
        let _k1 = m2.launch_kernel(
            ctx,
            s,
            "a",
            1 << 20,
            Some(Box::new(move || o1.borrow_mut().push("kernel-a"))),
        );
        let c = m2.memcpy_async(ctx, s, &host, 0, &dev, 0, 1024);
        let o2 = Rc::clone(&o);
        ctx.with_kernel(|k| {
            k.on_complete(&c, move |_| o2.borrow_mut().push("copy"));
        });
        let o3 = Rc::clone(&o);
        let k2 = m2.launch_kernel(
            ctx,
            s,
            "b",
            1 << 20,
            Some(Box::new(move || o3.borrow_mut().push("kernel-b"))),
        );
        ctx.wait(&k2);
    });
    assert_eq!(*order.borrow(), vec!["kernel-a", "copy", "kernel-b"]);
}

#[test]
fn chained_pipeline_preserves_data() {
    // dev0 -> host -> dev1 -> host2: the classic staged pipeline, checked
    // byte-for-byte.
    let (mut sim, m) = setup(1);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        m2.enable_peer_access(0, 1).unwrap();
        let src = m2.alloc_device_untimed(0, 4096).unwrap();
        let host = m2.alloc_host_untimed(0, 0, 4096);
        let mid = m2.alloc_device_untimed(1, 4096).unwrap();
        let out = m2.alloc_host_untimed(0, 1, 4096);
        let payload: Vec<u8> = (0..4096).map(|i| (i % 255) as u8).collect();
        src.write(0, &payload);
        let s0 = m2.default_stream(0);
        let s1 = m2.default_stream(1);
        m2.memcpy_async(ctx, s0, &host, 0, &src, 0, 4096);
        let ev = m2.record_event(ctx, s0);
        m2.stream_wait_event(ctx, s1, &ev);
        m2.memcpy_async(ctx, s1, &mid, 0, &host, 0, 4096);
        let done = m2.memcpy_async(ctx, s1, &out, 0, &mid, 0, 4096);
        ctx.wait(&done);
        let mut got = vec![0u8; 4096];
        out.read(0, &mut got);
        assert_eq!(got, payload);
    });
}

#[test]
fn engine_contention_scales_with_concurrent_kernels() {
    let (mut sim, m) = setup(1);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        let bytes = 350_000_000u64; // 1 ms alone
        for n in [1usize, 2, 4] {
            let streams: Vec<_> =
                ctx.with_kernel(|k| (0..n).map(|_| m2.create_stream(k, 0)).collect());
            let t0 = ctx.now();
            let evs: Vec<_> = streams
                .iter()
                .map(|&s| m2.launch_kernel(ctx, s, "k", bytes, None))
                .collect();
            ctx.wait_all(&evs);
            let dt = ctx.now().since(t0).as_secs_f64();
            let expect = 0.001 * n as f64;
            assert!(
                (dt - expect).abs() < expect * 0.1,
                "{n} kernels should take ~{expect}s, got {dt}"
            );
        }
    });
}

#[test]
fn p2p_copies_on_disjoint_triad_links_overlap() {
    let (mut sim, m) = setup(1);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        m2.enable_peer_access(0, 1).unwrap();
        m2.enable_peer_access(0, 2).unwrap();
        let a = m2.alloc_device_untimed(0, 50_000_000).unwrap();
        let b = m2.alloc_device_untimed(1, 50_000_000).unwrap();
        let c = m2.alloc_device_untimed(2, 50_000_000).unwrap();
        let (s1, s2) = ctx.with_kernel(|k| (m2.create_stream(k, 0), m2.create_stream(k, 0)));
        let t0 = ctx.now();
        let c1 = m2.memcpy_async(ctx, s1, &b, 0, &a, 0, 50_000_000);
        let c2 = m2.memcpy_async(ctx, s2, &c, 0, &a, 0, 50_000_000);
        ctx.wait_all(&[c1, c2]);
        let dt = ctx.now().since(t0).as_secs_f64();
        // distinct NVLinks: both finish in ~1 ms, not 2
        assert!(dt < 0.0012, "triad P2P copies must overlap: {dt}");
    });
}

#[test]
fn ipc_handle_crosses_simulated_ranks() {
    // Rank 1 opens rank 0's buffer via an IPC handle sent through the
    // typed channel, then writes into it; rank 0 sees the bytes.
    use mpisim::{run_world, WorldConfig};
    let ok: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let o2 = Rc::clone(&ok);
    run_world(WorldConfig::new(summit_cluster(1), 2), move |ctx| {
        let m = ctx.machine();
        if ctx.rank() == 0 {
            let mine = m.alloc_device_untimed(0, 256).unwrap();
            ctx.send_obj(1, 1, m.ipc_get_handle(&mine));
            // wait for peer's signal that it wrote
            let _: u8 = ctx.recv_obj(1, 2);
            let mut b = [0u8; 256];
            mine.read(0, &mut b);
            *o2.borrow_mut() = b.iter().all(|&v| v == 0xAB);
        } else {
            let handle: gpusim::IpcMemHandle = ctx.recv_obj(0, 1);
            let theirs = m.ipc_open(ctx.sim(), &handle);
            theirs.write(0, &[0xAB; 256]);
            ctx.send_obj(0, 2, 1u8);
        }
    });
    assert!(*ok.borrow());
}

#[test]
fn virtual_mode_costs_identical_to_full_mode() {
    // The cost model must not depend on whether real bytes move.
    let run = |mode: DataMode| {
        let mut sim = Sim::new();
        let m = sim
            .with_kernel(|k| GpuMachine::new(k, summit_cluster(1), GpuCostModel::default(), mode));
        let out = Rc::new(RefCell::new(0u64));
        let o = Rc::clone(&out);
        sim.run(1, move |ctx| {
            let dev = m.alloc_device_untimed(0, 10_000_000).unwrap();
            let host = m.alloc_host_untimed(0, 0, 10_000_000);
            let c = m.memcpy_async(ctx, m.default_stream(0), &host, 0, &dev, 0, 10_000_000);
            ctx.wait(&c);
            *o.borrow_mut() = ctx.now().picos();
        });
        let v = *out.borrow();
        v
    };
    assert_eq!(run(DataMode::Full), run(DataMode::Virtual));
}

#[test]
fn device_streams_are_isolated_per_device() {
    let (mut sim, m) = setup(2);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        // saturating device 0's engine must not slow device 6 (other node)
        let s0 = m2.default_stream(0);
        let s6 = m2.default_stream(6);
        let _ = m2.launch_kernel(ctx, s0, "big", 700_000_000, None);
        let t0 = ctx.now();
        let k = m2.launch_kernel(ctx, s6, "small", 350_000, None);
        ctx.wait(&k);
        let dt = ctx.now().since(t0).as_secs_f64();
        assert!(dt < 0.0001, "cross-device interference: {dt}");
    });
}

#[test]
fn stream_sync_blocks_exactly_until_drain() {
    let (mut sim, m) = setup(1);
    let m2 = m.clone();
    sim.run(1, move |ctx| {
        let s = ctx.with_kernel(|k| m2.create_stream(k, 3));
        let _ = m2.launch_kernel(ctx, s, "work", 350_000_000, None); // ~1ms
        let t0 = ctx.now();
        m2.stream_sync(ctx, s);
        let dt = ctx.now().since(t0).as_secs_f64();
        assert!((0.0009..0.0012).contains(&dt), "sync waited {dt}");
        // a second sync returns (almost) immediately
        let t1 = ctx.now();
        m2.stream_sync(ctx, s);
        assert!(ctx.now().since(t1) < SimDuration::from_micros(20));
    });
}

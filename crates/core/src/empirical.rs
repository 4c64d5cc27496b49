//! Empirical bandwidth measurement for placement — the paper's §VI
//! future-work item (after Faraji et al.): instead of inferring pair
//! bandwidths from NVML connection classes, *measure* them with timed probe
//! transfers at setup and feed the measured matrix into the QAP.
//!
//! Protocol (collective over the job): the first rank of each node launches
//! one probe copy per ordered GPU pair of its node — all *concurrently*, so
//! shared links (the X-Bus) divide their capacity exactly as they do under
//! a real halo exchange — then shares the measured matrix with its
//! node-mates over the setup channel. Different nodes probe in parallel;
//! their links are disjoint, so measurements don't disturb each other.
//! Homogeneous nodes (all we model, and all Summit has) measure identical
//! matrices, so every rank ends up with the same placement without global
//! communication.

use mpisim::RankCtx;

/// Setup-channel tag space for bandwidth-matrix broadcast (outside the
/// exchange-plan tag space, which is `subdomain_id * 32 + direction`).
const BW_TAG: u64 = u64::MAX - 1;

/// Default probe size: large enough that fixed overheads (kernel launch,
/// link latency, call overhead) are amortized to a few percent.
pub const DEFAULT_PROBE_BYTES: u64 = 32 << 20;

/// Measure the achievable bandwidth between every ordered pair of this
/// node's GPUs, in bytes/second. `bw[a][b]` is the measured peer-copy rate
/// from local GPU `a` to local GPU `b`; the diagonal holds the on-device
/// copy rate. Pairs without peer capability get 0.0.
///
/// Collective across the node's ranks (the node's first rank probes, the
/// rest receive the result).
pub fn measure_node_bandwidths(ctx: &RankCtx, probe_bytes: u64) -> Vec<Vec<f64>> {
    let machine = ctx.machine().clone();
    let g = machine.gpus_per_node();
    let rpn = ctx.ranks_per_node();
    let node = ctx.node();
    let first_rank = node * rpn;

    if ctx.rank() == first_rank {
        // Launch every pair's probe copy *concurrently*, one stream per
        // pair, and time each one individually. A quiescent serial probe
        // would measure nearly identical peak rates for NVLink-direct and
        // cross-socket pairs (each hop is fast in isolation); what placement
        // actually cares about is the rate *under the all-pairs load a halo
        // exchange produces*, where the shared X-Bus divides its capacity
        // among every cross-socket pair. Probing concurrently measures
        // exactly that.
        let mut bufs = Vec::new();
        let mut probes = Vec::new(); // (a, b, start, end-stamp, done)
        for a in 0..g {
            for b in 0..g {
                let da = machine.device_at(node, a);
                let db = machine.device_at(node, b);
                if a != b {
                    if !machine.can_access_peer(da, db) {
                        continue;
                    }
                    machine.enable_peer_access(da, db).expect("checked");
                }
                let src = machine
                    .alloc_device_untimed(da, probe_bytes)
                    .expect("probe buffer");
                let dst = machine
                    .alloc_device_untimed(db, probe_bytes)
                    .expect("probe buffer");
                let stream = ctx.sim().with_kernel(|k| machine.create_stream(k, da));
                let t0 = ctx.sim().now();
                let done = machine.memcpy_async(ctx.sim(), stream, &dst, 0, &src, 0, probe_bytes);
                // Stamp the *completion* time from a callback: waiting on the
                // probes one by one would inflate the duration of any probe
                // that finishes while we are blocked on an earlier one.
                let end = std::rc::Rc::new(std::cell::Cell::new(detsim::SimTime::ZERO));
                let e2 = std::rc::Rc::clone(&end);
                ctx.sim().with_kernel(|k| {
                    k.on_complete(&done, move |k| {
                        e2.set(k.now());
                    })
                });
                probes.push((a, b, t0, end, done));
                bufs.push((src, dst));
            }
        }
        let mut bw = vec![vec![0.0f64; g]; g];
        for (a, b, t0, end, done) in probes {
            ctx.sim().wait(&done);
            let dt = end.get().since(t0).as_secs_f64();
            bw[a][b] = probe_bytes as f64 / dt;
        }
        for (src, dst) in bufs {
            machine.free_device(&src);
            machine.free_device(&dst);
        }
        for peer in (first_rank + 1)..(first_rank + rpn) {
            ctx.send_obj(peer, BW_TAG, bw.clone());
        }
        bw
    } else {
        ctx.recv_obj::<Vec<Vec<f64>>>(first_rank, BW_TAG)
    }
}

/// Turn a measured bandwidth matrix into a QAP distance matrix
/// (element-wise reciprocal; zero-bandwidth pairs become infinitely far,
/// the diagonal becomes zero-cost).
pub fn distance_from_measured(bw: &[Vec<f64>]) -> Vec<Vec<f64>> {
    bw.iter()
        .enumerate()
        .map(|(a, row)| {
            row.iter()
                .enumerate()
                .map(|(b, &v)| {
                    if a == b {
                        0.0
                    } else if v > 0.0 {
                        1.0 / v
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matrix_reciprocal_rules() {
        let bw = vec![
            vec![800e9, 50e9, 0.0],
            vec![50e9, 800e9, 25e9],
            vec![0.0, 25e9, 800e9],
        ];
        let d = distance_from_measured(&bw);
        assert_eq!(d[0][0], 0.0);
        assert_eq!(d[0][1], 1.0 / 50e9);
        assert_eq!(d[0][2], f64::INFINITY);
        assert_eq!(d[2][1], 1.0 / 25e9);
    }
}

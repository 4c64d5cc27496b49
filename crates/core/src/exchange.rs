//! The halo-exchange engine: per-pair communication plans built at setup
//! (phase 3, §III-C) and their asynchronous execution (§III-D).
//!
//! Pure-CUDA sends (`Kernel`, `PeerMemcpy`, `ColocatedMemcpy`) are enqueued
//! on streams up front and simply complete. Every other transfer — each
//! one mixing CUDA and MPI, plus the colocated receive — is the paper's
//! Sender/Receiver object: one staged `Transfer` driver, polled in a loop
//! so its phases overlap with everything else (Fig. 9), through stages
//! whose order is asserted:
//!
//! * send: `Staging` (pack, D2H) → `Posted` → `Done`;
//! * receive: `Posted` → `Landed` → `Unpacking` (H2D, unpack) → `Done`.
//!
//! The one real difference between the variants is how the payload crosses
//! between ranks, the plan's `Post`: an `isend`/`irecv` on the host staging
//! buffer (staged) or the device buffer (CUDA-aware), a persistent channel
//! started once staging lands, a partitioned channel started at issue and
//! landed one partition at a time, or the colocated mailbox. A consolidated
//! message (paper §VI) is a plan with several `Segment`s; a per-direction
//! plan is the one-segment case.
//!
//! `build_plans` describes each direction, runs the colocated IPC
//! handshake, groups staged messages when consolidating, and only then
//! allocates the final messages' pack and pinned-host staging and wires
//! each one's `Post`, so a merged message owns one pack buffer.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use detsim::{Completion, Kernel, SimDuration, SimTime};
use gpusim::{Buffer, GpuMachine, Stream, Work};
use mpisim::{partition_range, Channel, RankCtx};

use crate::dim3::Dim3;
use crate::domain::{DistributedDomain, DomainSpec};
use crate::local::LocalDomain;
use crate::method::{select, Method, PairCaps};
use crate::partition::Partition;
use crate::placement::Placement;
use crate::region::{self, Region};
use crate::stats::PlanSummary;

/// A shared one-slot-per-exchange channel carrying "your data has landed"
/// completions from a colocated sender to its receiver — the simulation
/// analogue of the `cudaIpc` event handles real colocated exchange shares
/// at setup so that no MPI happens during exchanges.
#[derive(Clone)]
pub struct Mailbox(Rc<RefCell<MailboxState>>);

#[derive(Default)]
struct MailboxState {
    items: VecDeque<Completion>,
    waiters: VecDeque<Completion>,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox(Rc::new(RefCell::new(MailboxState::default())))
    }

    fn put(&self, k: &mut Kernel, c: Completion) {
        let mut st = self.0.borrow_mut();
        st.items.push_back(c);
        // Complete *every* queued waiter: pollers may abandon a waiter
        // without ever blocking on it (wait_any returns early when another
        // completion is already done), so completing only the oldest could
        // signal a dead waiter and strand the live one.
        let waiters = std::mem::take(&mut st.waiters);
        drop(st);
        for w in waiters {
            k.complete(&w);
        }
    }

    /// Take a landed-data completion, or a completion to wait on before
    /// retrying.
    fn try_take(&self, k: &mut Kernel) -> Result<Completion, Completion> {
        let mut st = self.0.borrow_mut();
        match st.items.pop_front() {
            Some(c) => Ok(c),
            None => {
                let w = k.completion();
                st.waiters.push_back(w.clone());
                Err(w)
            }
        }
    }
}

/// Setup payload a colocated receiver sends its sender: the IPC handle of
/// its receive buffer and the event mailbox.
struct ColoShare {
    handle: gpusim::IpcMemHandle,
    mailbox: Mailbox,
}

/// How a message crosses between ranks — the only real difference between
/// the exchange variants. Plans that never leave the rank (`Kernel`,
/// `PeerMemcpy`) have none.
pub(crate) enum Post {
    /// `isend`/`irecv` of the whole message on this buffer: the host
    /// staging buffer (staged, consolidated) or the device buffer
    /// (CUDA-aware).
    Message(Buffer),
    /// A persistent channel, set up once (`*_init`) and started each
    /// exchange once staging lands.
    Persistent(Channel),
    /// A partitioned channel, started at issue: the sender `pready`s each
    /// partition as its D2H chunk lands, the receiver copies each one H2D
    /// as it arrives.
    Partitioned(Channel),
    /// The colocated receiver's landed-data mailbox, shared at setup.
    Mailbox(Mailbox),
}

/// One direction's halo within a message: where it lives in the subdomain
/// arrays and where it sits in the packed buffer.
#[derive(Clone)]
pub(crate) struct Segment {
    /// The subdomain's arrays, shared by all its segments.
    pub arrays: Rc<[Buffer]>,
    pub dims: Dim3,
    pub elem: usize,
    pub region: Region,
    /// Byte offset of this segment inside the packed message.
    pub offset: u64,
    pub bytes: u64,
    /// The stream planned for this direction. A sender packs on its first
    /// segment's stream; a receiver lands and unpacks every segment on its
    /// own (segments may sit on different GPUs of the rank).
    pub stream: Stream,
    /// Receive side: the device buffer the segment lands in (none for
    /// `Kernel`, which exchanges in place).
    pub dev_buf: Option<Buffer>,
}

/// One outgoing message from a subdomain of this rank: one direction, or
/// several directions to one rank when consolidated.
pub(crate) struct SendPlan {
    pub method: Method,
    pub dst_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub segments: Vec<Segment>,
    pub pack_buf: Option<Buffer>,
    pub host_buf: Option<Buffer>,
    /// `ColocatedMemcpy`: the receiver's buffer, IPC-opened at setup.
    pub remote_buf: Option<Buffer>,
    /// `Kernel`/`PeerMemcpy`: index of the matching receive plan in this
    /// rank, which the sender drives.
    pub local_recv: Option<usize>,
    pub post: Option<Post>,
}

/// One incoming message into subdomains of this rank.
pub(crate) struct RecvPlan {
    pub method: Method,
    pub src_rank: usize,
    pub tag: u64,
    pub bytes: u64,
    pub segments: Vec<Segment>,
    pub host_buf: Option<Buffer>,
    pub post: Option<Post>,
}

/// This rank's specialized communication plan.
#[derive(Default)]
pub(crate) struct Plans {
    pub sends: Vec<SendPlan>,
    pub recvs: Vec<RecvPlan>,
    pub summary: PlanSummary,
}

/// How many partitions a `PartitionedStaged` message of `bytes` uses: one
/// per 8 KiB up to 4, so small messages degrade gracefully to a single
/// partition (≈ persistent) instead of paying per-partition overhead for
/// nothing.
pub(crate) fn partition_count(bytes: u64) -> usize {
    (bytes / 8192).clamp(1, 4) as usize
}

/// Tag slot of a consolidated message: direction slots 0..26 are taken by
/// the per-direction plans.
const CONSOLIDATED_SLOT: u64 = 26;

/// Methods that stage through pinned host memory.
fn host_staged(m: Method) -> bool {
    matches!(
        m,
        Method::Staged | Method::PersistentStaged | Method::PartitionedStaged
    )
}

/// Pinned host staging for `device`: on its node, next to its socket.
fn pinned_host(machine: &GpuMachine, device: usize, bytes: u64) -> Buffer {
    let socket = machine.fabric().gpu_socket(machine.local_of(device));
    machine.alloc_host_untimed(machine.node_of(device), socket, bytes)
}

/// Pack every segment into `out` at its offset.
fn make_pack_work(segments: Vec<Segment>, out: Buffer) -> Work {
    Box::new(move || {
        if !out.has_data() {
            return;
        }
        for seg in &segments {
            let mut off = seg.offset as usize;
            for a in seg.arrays.iter() {
                a.with_data(|src| {
                    out.with_data(|dst| {
                        off += region::pack(src, seg.dims, seg.elem, seg.region, dst, off);
                    })
                });
            }
        }
    })
}

/// Unpack a landed segment from its device buffer into the halo.
fn make_unpack_work(seg: Segment) -> Work {
    Box::new(move || {
        let inp = seg.dev_buf.as_ref().expect("receive buffer");
        if !inp.has_data() {
            return;
        }
        let mut off = 0usize;
        for a in seg.arrays.iter() {
            inp.with_data(|src| {
                a.with_data(|dst| {
                    off += region::unpack(src, off, dst, seg.dims, seg.elem, seg.region);
                })
            });
        }
    })
}

fn make_self_exchange_work(seg: Segment, to: Region) -> Work {
    Box::new(move || {
        for a in seg.arrays.iter() {
            if !a.has_data() {
                return;
            }
            a.with_data(|arr| region::copy_region(arr, seg.dims, seg.elem, seg.region, to));
        }
    })
}

/// Consolidation (paper §VI): split off every group of more than one plan
/// sharing a `key` and merge each, in key order, with `merge`. Singletons
/// rejoin the plans that never group, after them. Returns `(kept,
/// merged)`.
fn consolidate<P>(
    plans: Vec<P>,
    key: impl Fn(&P) -> Option<(u64, usize)>,
    tag: impl Fn(&P) -> u64,
    mut merge: impl FnMut((u64, usize), Vec<P>) -> P,
) -> (Vec<P>, Vec<P>) {
    let mut keep = Vec::new();
    let mut groups: BTreeMap<(u64, usize), Vec<P>> = BTreeMap::new();
    for p in plans {
        match key(&p) {
            Some(k) => groups.entry(k).or_default().push(p),
            None => keep.push(p),
        }
    }
    let mut merged = Vec::new();
    for (k, mut members) in groups {
        if members.len() == 1 {
            keep.extend(members);
            continue;
        }
        members.sort_by_key(&tag);
        merged.push(merge(k, members));
    }
    (keep, merged)
}

/// Lay `segments` end to end in one message.
fn concat_segments(segments: impl IntoIterator<Item = Segment>) -> Vec<Segment> {
    let mut off = 0;
    segments
        .into_iter()
        .map(|mut s| {
            s.offset = off;
            off += s.bytes;
            s
        })
        .collect()
}

/// Build the specialized communication plan for this rank (setup phase 3)
/// in four steps: describe, handshake, group, allocate and wire.
/// Collective: performs the colocated IPC handshake and ends with a
/// barrier.
pub(crate) fn build_plans(
    ctx: &RankCtx,
    dom_part: &Partition,
    placements: &[Placement],
    locals: &[LocalDomain],
    spec: &DomainSpec,
) -> Plans {
    let machine = ctx.machine().clone();
    let rpn = ctx.ranks_per_node();
    let gpr = machine.gpus_per_node() / rpn;
    let my_rank = ctx.rank();

    let device_of = |n: crate::dim3::Idx3, g: crate::dim3::Idx3| -> usize {
        let node = dom_part.node_linear(n);
        let s = dom_part.gpu_linear(g);
        let local_gpu = placements[node].gpu_for_subdomain[s];
        machine.device_at(node, local_gpu)
    };
    let rank_of_device =
        |d: usize| -> usize { machine.node_of(d) * rpn + machine.local_of(d) / gpr };
    // Capabilities of a transfer from device `from` to device `to`, whose
    // remote end is driven by `peer_rank`.
    let caps = |from: usize, to: usize, peer_rank: usize| PairCaps {
        same_device: from == to,
        same_rank: peer_rank == my_rank,
        same_node: machine.node_of(from) == machine.node_of(to),
        peer_access: machine.can_access_peer(from, to) || from == to,
        cuda_aware: ctx.cuda_aware(),
        persistent: ctx.mpi_persistent(),
        partitioned: ctx.mpi_partitioned(),
    };

    let dirs = spec.neighborhood.directions();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    let mut summary = PlanSummary::default();

    // 1. Describe: one plan per direction with its method and stream, the
    //    device buffer each received segment lands in, and a colocated
    //    receive's mailbox (the handshake shares both).
    for local in locals {
        let ext = local.interior.extent;
        let sid = dom_part.subdomain_id(local.node_idx, local.gpu_idx) as u64;
        let arrays: Rc<[Buffer]> = local.arrays.clone().into();
        let segment = |region, bytes, stream, dev_buf| Segment {
            arrays: Rc::clone(&arrays),
            dims: local.dims,
            elem: spec.elem_size,
            region,
            offset: 0,
            bytes,
            stream,
            dev_buf,
        };
        for &d in &dirs {
            // ---- outgoing: local sends toward d (None on an open edge) ---
            if let Some((nn, gg)) =
                dom_part.neighbor_bc(local.node_idx, local.gpu_idx, d, spec.boundary)
            {
                let dst_dev = device_of(nn, gg);
                let dst_rank = rank_of_device(dst_dev);
                let e = spec.radius.halo_extent(ext, d);
                let bytes = e[0] * e[1] * e[2] * spec.quantities as u64 * spec.elem_size as u64;
                if bytes > 0 {
                    let method = select(spec.methods, caps(local.device, dst_dev, dst_rank));
                    if matches!(method, Method::PeerMemcpy | Method::ColocatedMemcpy)
                        && dst_dev != local.device
                    {
                        machine
                            .enable_peer_access(local.device, dst_dev)
                            .expect("peer access checked in caps");
                    }
                    let stream = ctx
                        .sim()
                        .with_kernel(|k| machine.create_stream(k, local.device));
                    summary.record(method, bytes);
                    let src_reg = region::src_region(ext, &spec.radius, d);
                    sends.push(SendPlan {
                        method,
                        dst_rank,
                        tag: sid * 32 + d.index() as u64,
                        bytes,
                        segments: vec![segment(src_reg, bytes, stream, None)],
                        pack_buf: None,
                        host_buf: None,
                        remote_buf: None,
                        local_recv: None,
                        post: None,
                    });
                }
            }

            // ---- incoming: neighbor at -d sends toward d to local --------
            let Some((sn, sg)) =
                dom_part.neighbor_bc(local.node_idx, local.gpu_idx, d.opposite(), spec.boundary)
            else {
                continue; // open boundary: outward halo stays untouched
            };
            let src_dev = device_of(sn, sg);
            let src_rank = rank_of_device(src_dev);
            let src_ext = dom_part.gpu_box(sn, sg).extent;
            let se = spec.radius.halo_extent(src_ext, d);
            let rbytes = se[0] * se[1] * se[2] * spec.quantities as u64 * spec.elem_size as u64;
            if rbytes > 0 {
                let dst_reg = region::dst_region(ext, &spec.radius, d);
                debug_assert_eq!(
                    dst_reg.volume() * spec.quantities as u64 * spec.elem_size as u64,
                    rbytes,
                    "sender/receiver disagree on message size"
                );
                let method = select(spec.methods, caps(src_dev, local.device, src_rank));
                let src_sid = dom_part.subdomain_id(sn, sg) as u64;
                let stream = ctx
                    .sim()
                    .with_kernel(|k| machine.create_stream(k, local.device));
                let dev_buf = (method != Method::Kernel).then(|| {
                    machine
                        .alloc_device_untimed(local.device, rbytes)
                        .expect("recv buffer")
                });
                recvs.push(RecvPlan {
                    method,
                    src_rank,
                    tag: src_sid * 32 + d.index() as u64,
                    bytes: rbytes,
                    segments: vec![segment(dst_reg, rbytes, stream, dev_buf)],
                    host_buf: None,
                    post: (method == Method::ColocatedMemcpy)
                        .then(|| Post::Mailbox(Mailbox::new())),
                });
            }
        }
    }

    // 2. Colocated IPC handshake: receivers share (handle, mailbox),
    //    senders open the handle. One-time, during setup — no MPI during
    //    exchanges.
    for rp in &recvs {
        if let Some(Post::Mailbox(mailbox)) = &rp.post {
            let buf = rp.segments[0].dev_buf.as_ref().expect("receive buffer");
            ctx.send_obj(
                rp.src_rank,
                rp.tag,
                ColoShare {
                    handle: ctx.machine().ipc_get_handle(buf),
                    mailbox: mailbox.clone(),
                },
            );
        }
    }
    for sp in &mut sends {
        if sp.method == Method::ColocatedMemcpy {
            let share: ColoShare = ctx.recv_obj(sp.dst_rank, sp.tag);
            sp.remote_buf = Some(ctx.machine().ipc_open(ctx.sim(), &share.handle));
            sp.post = Some(Post::Mailbox(share.mailbox));
        }
    }
    // 3. Group (optional consolidation, paper §VI): merge every set of >1
    //    staged transfers sharing (source subdomain, destination rank)
    //    into a single message. Both sides compute the same groups from
    //    the same partition and method-selection math, ordered by tag, so
    //    offsets agree without extra handshaking. Merged receives are
    //    issued first and merged sends last.
    if spec.consolidate {
        let (keep, merged) = consolidate(
            sends,
            |p| (p.method == Method::Staged).then_some((p.tag / 32, p.dst_rank)),
            |p| p.tag,
            |(sid, dst_rank), members| SendPlan {
                method: Method::Staged,
                dst_rank,
                tag: sid * 32 + CONSOLIDATED_SLOT,
                bytes: members.iter().map(|p| p.bytes).sum(),
                segments: concat_segments(members.into_iter().flat_map(|p| p.segments)),
                pack_buf: None,
                host_buf: None,
                remote_buf: None,
                local_recv: None,
                post: None,
            },
        );
        sends = keep;
        sends.extend(merged);
        let (keep, merged) = consolidate(
            recvs,
            |p| (p.method == Method::Staged).then_some((p.tag / 32, p.src_rank)),
            |p| p.tag,
            |(sid, src_rank), members| RecvPlan {
                method: Method::Staged,
                src_rank,
                tag: sid * 32 + CONSOLIDATED_SLOT,
                bytes: members.iter().map(|p| p.bytes).sum(),
                segments: concat_segments(members.into_iter().flat_map(|p| p.segments)),
                host_buf: None,
                post: None,
            },
        );
        recvs = merged;
        recvs.extend(keep);
    }

    // 4. Allocate and wire, sends then receives, each in final plan order.
    //    Staging lives on the first segment's device. Persistent and
    //    partitioned channels (`*_init`) register both ends under the
    //    plan's (rank pair, tag) key and pay the full per-call MPI overhead
    //    once, here; the closing barrier guarantees both ends exist before
    //    the first round starts.
    for sp in &mut sends {
        let device = machine.stream_device(sp.segments[0].stream);
        let (bytes, peer, tag) = (sp.bytes, sp.dst_rank, sp.tag);
        if sp.method != Method::Kernel {
            let pack = machine.alloc_device_untimed(device, bytes);
            sp.pack_buf = Some(pack.expect("pack buffer"));
        }
        sp.host_buf = host_staged(sp.method).then(|| pinned_host(&machine, device, bytes));
        let host = sp.host_buf.as_ref();
        sp.post = match sp.method {
            Method::Staged => host.cloned().map(Post::Message),
            Method::CudaAwareMpi => sp.pack_buf.clone().map(Post::Message),
            Method::PersistentStaged => {
                host.map(|h| Post::Persistent(ctx.send_init(h, 0, bytes, peer, tag)))
            }
            Method::PartitionedStaged => host.map(|h| {
                let parts = partition_count(bytes);
                Post::Partitioned(ctx.psend_init(h, 0, bytes, peer, tag, parts))
            }),
            // The mailbox the handshake received.
            Method::ColocatedMemcpy => sp.post.take(),
            // Same rank: the sender drives the matching receive plan.
            Method::Kernel | Method::PeerMemcpy => {
                let idx = recvs
                    .iter()
                    .position(|rp| rp.tag == tag && rp.method == sp.method)
                    .expect("same-rank send without matching local receive plan");
                assert_eq!(
                    recvs[idx].bytes, bytes,
                    "same-rank send/recv plans disagree on message size"
                );
                sp.local_recv = Some(idx);
                None
            }
        };
    }
    for rp in &mut recvs {
        let device = machine.stream_device(rp.segments[0].stream);
        let (bytes, peer, tag) = (rp.bytes, rp.src_rank, rp.tag);
        rp.host_buf = host_staged(rp.method).then(|| pinned_host(&machine, device, bytes));
        let host = rp.host_buf.as_ref();
        rp.post = match rp.method {
            Method::Staged => host.cloned().map(Post::Message),
            Method::CudaAwareMpi => rp.segments[0].dev_buf.clone().map(Post::Message),
            Method::PersistentStaged => {
                host.map(|h| Post::Persistent(ctx.recv_init(h, 0, bytes, peer, tag)))
            }
            Method::PartitionedStaged => host.map(|h| {
                let parts = partition_count(bytes);
                Post::Partitioned(ctx.precv_init(h, 0, bytes, peer, tag, parts))
            }),
            // Its own mailbox, shared by the handshake.
            Method::ColocatedMemcpy => rp.post.take(),
            // Driven by the same-rank sender.
            Method::Kernel | Method::PeerMemcpy => None,
        };
    }
    ctx.barrier();
    Plans {
        sends,
        recvs,
        summary,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    Send,
    Recv,
}

impl Side {
    /// The stages a transfer on this side walks, in order.
    fn stages(self) -> &'static [Stage] {
        match self {
            Side::Send => &[Stage::Staging, Stage::Posted, Stage::Done],
            Side::Recv => &[Stage::Posted, Stage::Landed, Stage::Unpacking, Stage::Done],
        }
    }
}

/// Where a [`Transfer`] is in its pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Send: pack and D2H issued; waiting for the staged bytes.
    Staging,
    /// On the wire: waiting for the send to finish or the data to arrive.
    Posted,
    /// Receive: every byte has arrived; the rest of the landing (H2D, or
    /// a stream wait on the colocated copy) and the unpack are issued
    /// next.
    Landed,
    /// Receive: waiting for the unpack kernels.
    Unpacking,
    Done,
}

/// One CUDA+MPI transfer or colocated receive in flight, driven by
/// [`Transfer::poll`] through its side's stages.
struct Transfer {
    side: Side,
    /// Index into the domain's send or receive plans.
    plan: usize,
    method: Method,
    stage: Stage,
    /// The completions the current stage waits on, in order; `next` is the
    /// first not yet seen done. Staging: one D2H event per partition (the
    /// pack event for CUDA-aware). Posted: the wire operation, one arrival
    /// per partition, or the mailbox waiters of a colocated receive.
    /// Landed: the colocated copy the unpack stream waits on. Unpacking:
    /// the unpack kernels, combined into one completion.
    gates: Vec<Completion>,
    next: usize,
    /// A partitioned send's round: started at issue, waited on once posted.
    round: Option<Completion>,
}

impl Transfer {
    fn new(side: Side, plan: usize, method: Method, gates: Vec<Completion>) -> Transfer {
        Transfer {
            side,
            plan,
            method,
            stage: side.stages()[0],
            gates,
            next: 0,
            round: None,
        }
    }

    /// Move on to `to`, which must be the next stage of this side, waiting
    /// on `gate` (every stage after the first waits on at most one).
    fn advance(&mut self, to: Stage, gate: Option<Completion>) {
        let stages = self.side.stages();
        let at = stages.iter().position(|&s| s == self.stage);
        assert!(
            at.and_then(|i| stages.get(i + 1)) == Some(&to),
            "{:?} {} transfer cannot go from {:?} to {:?}",
            self.side,
            self.method,
            self.stage,
            to
        );
        self.stage = to;
        self.gates.clear();
        self.gates.extend(gate);
        self.next = 0;
    }

    /// Walk the gates in order, calling `ready(i)` once for each gate seen
    /// done; `Err` carries the first one still pending.
    fn wait_gates(&mut self, mut ready: impl FnMut(usize)) -> Result<(), Completion> {
        while let Some(gate) = self.gates.get(self.next) {
            if !gate.is_done() {
                return Err(gate.clone());
            }
            ready(self.next);
            self.next += 1;
        }
        Ok(())
    }

    /// Drive the transfer as far as it goes without blocking, stamping
    /// each phase into `timing` at the moment it completes. `Ok` once
    /// done; `Err` carries the completion it is blocked on.
    fn poll(
        &mut self,
        dom: &DistributedDomain,
        ctx: &RankCtx,
        started: SimTime,
        timing: &mut ExchangeTiming,
    ) -> Result<(), Completion> {
        let m = ctx.machine();
        let sim = ctx.sim();
        let since_start = || sim.now().since(started);
        loop {
            match (self.side, self.stage) {
                (Side::Send, Stage::Staging) => {
                    let sp = &dom.plans.sends[self.plan];
                    self.wait_gates(|p| {
                        if let Some(Post::Partitioned(chan)) = &sp.post {
                            ctx.pready(chan, p);
                        }
                    })?;
                    timing.phase("pack", since_start());
                    let wire = match (&sp.post, self.round.take()) {
                        (_, Some(round)) => round,
                        (Some(Post::Message(buf)), None) => ctx
                            .isend(buf, 0, sp.bytes, sp.dst_rank, sp.tag)
                            .completion()
                            .clone(),
                        (Some(Post::Persistent(chan)), None) => {
                            ctx.start(chan).all.completion().clone()
                        }
                        _ => unreachable!("{} send has nothing to post", self.method),
                    };
                    self.advance(Stage::Posted, Some(wire));
                }
                (Side::Recv, Stage::Posted) => {
                    let rp = &dom.plans.recvs[self.plan];
                    let landed = if let Some(Post::Mailbox(mailbox)) = &rp.post {
                        // A pending waiter is reused across polls, so at
                        // most one per transfer is ever outstanding.
                        loop {
                            self.wait_gates(|_| {})?;
                            match sim.with_kernel(|k| mailbox.try_take(k)) {
                                Ok(copied) => break Some(copied),
                                Err(waiter) => self.gates.push(waiter),
                            }
                        }
                    } else {
                        let parts = self.gates.len();
                        let seg = &rp.segments[0];
                        self.wait_gates(|p| {
                            // H2D each partition's bytes as soon as they land.
                            if let (Some(Post::Partitioned(_)), Some(host)) =
                                (&rp.post, &rp.host_buf)
                            {
                                let (off, len) = partition_range(rp.bytes, parts, p);
                                let dev = seg.dev_buf.as_ref().expect("receive buffer");
                                m.memcpy_async(sim, seg.stream, dev, off, host, off, len);
                            }
                        })?;
                        None
                    };
                    timing.phase("wait", since_start());
                    self.advance(Stage::Landed, landed);
                }
                (Side::Recv, Stage::Landed) => {
                    // Per segment: land it on its device, then unpack on its
                    // stream. Segments on different devices run in parallel.
                    // Partitioned receives already copied each partition.
                    let rp = &dom.plans.recvs[self.plan];
                    let partitioned = matches!(rp.post, Some(Post::Partitioned(_)));
                    let mut unpacks = rp.segments.iter().map(|seg| {
                        if let Some(host) = rp.host_buf.as_ref().filter(|_| !partitioned) {
                            let dev = seg.dev_buf.as_ref().expect("receive buffer");
                            m.memcpy_async(sim, seg.stream, dev, 0, host, seg.offset, seg.bytes);
                        }
                        for copied in &self.gates {
                            m.stream_wait_event(sim, seg.stream, copied);
                        }
                        let unpack = make_unpack_work(seg.clone());
                        m.launch_kernel(sim, seg.stream, "unpack", seg.bytes, Some(unpack))
                    });
                    let unpacked = match rp.segments.len() {
                        1 => unpacks.next().expect("one segment"),
                        _ => {
                            let all: Vec<Completion> = unpacks.collect();
                            sim.with_kernel(|k| k.completion_all(&all))
                        }
                    };
                    self.advance(Stage::Unpacking, Some(unpacked));
                }
                (Side::Send, Stage::Posted) | (Side::Recv, Stage::Unpacking) => {
                    self.wait_gates(|_| {})?;
                    let phase = match self.side {
                        Side::Send => "send",
                        Side::Recv => "unpack",
                    };
                    timing.phase(phase, since_start());
                    self.advance(Stage::Done, None);
                }
                (_, Stage::Done) => return Ok(()),
                (side, stage) => unreachable!("{side:?} transfer in stage {stage:?}"),
            }
        }
    }
}

/// The world's running `(count, sum)` of exchange critical paths
/// ([`ExchangeTiming::total`], picoseconds) over every exchange of every
/// rank. Unlike the metrics registry it is always on: health checks read
/// it. [`DistributedDomain::exchange_finish`] adds to it right before it
/// records `exchange/total_ps`, in the same order, so with metrics on the
/// pair equals that histogram's count and sum to the bit.
pub(crate) fn exchange_totals(ctx: &RankCtx) -> Rc<Cell<(u64, f64)>> {
    ctx.cached_setup("stencil-core/exchange-totals", || Cell::new((0, 0.0)))
}

/// An in-flight exchange started by
/// [`DistributedDomain::exchange_start`]; finish it with
/// [`DistributedDomain::exchange_finish`]. Compute on subdomain interiors
/// may proceed (on compute streams) between the two calls.
pub struct ExchangeHandle {
    transfers: Vec<Transfer>,
    pending: Vec<(Method, Completion)>,
    started: SimTime,
}

/// Virtual-time breakdown of one exchange: when the last transfer of each
/// method completed, relative to the exchange start (paper Fig. 9's
/// question — "what is the critical path made of?" — as numbers).
#[derive(Clone, Debug, Default)]
pub struct ExchangeTiming {
    /// Start-to-last-completion of the whole exchange.
    pub total: SimDuration,
    /// Per method: time from exchange start until its last transfer
    /// (including unpack) was observed complete.
    pub per_method: BTreeMap<Method, SimDuration>,
    /// Per phase ("pack", "send", "wait", "unpack"): time from exchange
    /// start until the last transfer finished that phase. Fused methods
    /// (kernel, peer, colocated sends) have no distinct phases and only
    /// appear in `per_method`.
    pub per_phase: BTreeMap<&'static str, SimDuration>,
}

impl ExchangeTiming {
    /// Max-update the completion time of `phase` relative to the start.
    fn phase(&mut self, phase: &'static str, d: SimDuration) {
        let e = self.per_phase.entry(phase).or_default();
        if d > *e {
            *e = d;
        }
    }

    /// Max-update the completion time of `method` and of the whole
    /// exchange.
    fn finished(&mut self, method: Method, d: SimDuration) {
        let e = self.per_method.entry(method).or_default();
        if d > *e {
            *e = d;
        }
        if d > self.total {
            self.total = d;
        }
    }
}

impl DistributedDomain {
    /// Issue one full halo exchange asynchronously. Pure-CUDA transfers are
    /// enqueued; the others start in the staged transfer driver. Returns a
    /// handle to finish with.
    pub fn exchange_start(&self, ctx: &RankCtx) -> ExchangeHandle {
        let m = ctx.machine();
        let sim = ctx.sim();
        let started = sim.now();
        let mut transfers = Vec::new();
        let mut pending: Vec<(Method, Completion)> = Vec::new();

        // Receivers first: post all MPI receives before anyone sends.
        for (i, rp) in self.plans.recvs.iter().enumerate() {
            let gates = match &rp.post {
                // Kernel and peer receives are driven by the sender (same rank).
                None => continue,
                Some(Post::Message(buf)) => {
                    let req = ctx.irecv(buf, 0, rp.bytes, rp.src_rank, rp.tag);
                    vec![req.completion().clone()]
                }
                Some(Post::Persistent(chan)) => vec![ctx.start(chan).all.completion().clone()],
                Some(Post::Partitioned(chan)) => ctx.start(chan).parts,
                // The mailbox is polled for the sender's copy.
                Some(Post::Mailbox(_)) => Vec::new(),
            };
            transfers.push(Transfer::new(Side::Recv, i, rp.method, gates));
        }

        for (i, sp) in self.plans.sends.iter().enumerate() {
            let stream = sp.segments[0].stream;
            let local_recv = sp.local_recv.map(|r| &self.plans.recvs[r].segments[0]);
            if sp.method == Method::Kernel {
                let to = local_recv.expect("linked at setup").region;
                let work = make_self_exchange_work(sp.segments[0].clone(), to);
                let done = m.launch_kernel(sim, stream, "self-exchange", sp.bytes, Some(work));
                pending.push((Method::Kernel, done));
                continue;
            }
            let pack_buf = sp.pack_buf.as_ref().expect("pack buffer");
            let pack = make_pack_work(sp.segments.clone(), pack_buf.clone());
            let label = if sp.segments.len() > 1 {
                "pack-group"
            } else {
                "pack"
            };
            m.launch_kernel(sim, stream, label, sp.bytes, Some(pack));
            match (sp.method, &sp.post) {
                (Method::PeerMemcpy, _) => {
                    let rseg = local_recv.expect("linked at setup");
                    let recv_buf = rseg.dev_buf.as_ref().expect("receive buffer");
                    m.memcpy_async(sim, stream, recv_buf, 0, pack_buf, 0, sp.bytes);
                    let ev = m.record_event(sim, stream);
                    m.stream_wait_event(sim, rseg.stream, &ev);
                    let unpack = make_unpack_work(rseg.clone());
                    let done =
                        m.launch_kernel(sim, rseg.stream, "unpack", rseg.bytes, Some(unpack));
                    pending.push((Method::PeerMemcpy, done));
                }
                (Method::ColocatedMemcpy, Some(Post::Mailbox(mailbox))) => {
                    let remote = sp.remote_buf.as_ref().expect("IPC handshake done at setup");
                    let copied = m.memcpy_async(sim, stream, remote, 0, pack_buf, 0, sp.bytes);
                    let (mailbox, landed) = (mailbox.clone(), copied.clone());
                    sim.with_kernel(|k| k.on_complete(&copied, move |k| mailbox.put(k, landed)));
                    pending.push((Method::ColocatedMemcpy, copied));
                }
                (_, post) => {
                    // Stage D2H in partition-sized chunks (one chunk unless
                    // partitioned) with an event after each; CUDA-aware puts
                    // the packed device buffer on the wire as is.
                    let gates = match &sp.host_buf {
                        Some(host) => {
                            let parts = match post {
                                Some(Post::Partitioned(chan)) => chan.parts(),
                                _ => 1,
                            };
                            (0..parts)
                                .map(|p| {
                                    let (off, len) = partition_range(sp.bytes, parts, p);
                                    m.memcpy_async(sim, stream, host, off, pack_buf, off, len);
                                    m.record_event(sim, stream)
                                })
                                .collect()
                        }
                        None => vec![m.record_event(sim, stream)],
                    };
                    let mut t = Transfer::new(Side::Send, i, sp.method, gates);
                    if let Some(Post::Partitioned(chan)) = post {
                        t.round = Some(ctx.start(chan).all.completion().clone());
                    }
                    transfers.push(t);
                }
            }
        }
        ExchangeHandle {
            transfers,
            pending,
            started,
        }
    }

    /// Drive an in-flight exchange to completion: poll every transfer,
    /// blocking on whichever completions are outstanding, until all
    /// transfers (sends *and* receives, including unpacks) have finished.
    /// Returns the observed timing breakdown.
    pub fn exchange_finish(&self, ctx: &RankCtx, handle: ExchangeHandle) -> ExchangeTiming {
        let ExchangeHandle {
            mut transfers,
            mut pending,
            started,
        } = handle;
        let mut timing = ExchangeTiming::default();
        loop {
            let mut blockers: Vec<Completion> = Vec::new();
            for t in transfers.iter_mut().filter(|t| t.stage != Stage::Done) {
                match t.poll(self, ctx, started, &mut timing) {
                    Ok(()) => timing.finished(t.method, ctx.sim().now().since(started)),
                    Err(c) => blockers.push(c),
                }
            }
            let d = ctx.sim().now().since(started);
            pending.retain(|(m, c)| {
                let done = c.is_done();
                if done {
                    timing.finished(*m, d);
                }
                !done
            });
            blockers.extend(pending.iter().map(|(_, c)| c.clone()));
            if blockers.is_empty() {
                break;
            }
            ctx.wait_any_completion(&blockers);
        }
        let totals = exchange_totals(ctx);
        let (count, sum) = totals.get();
        totals.set((count + 1, sum + timing.total.picos() as f64));
        self.record_exchange_metrics(ctx, &timing);
        timing
    }

    /// Fold one finished exchange into the metrics registry: critical-path
    /// histograms per method and per phase, plus per-method byte counters
    /// from the plans. No-op unless metrics are enabled on the kernel.
    fn record_exchange_metrics(&self, ctx: &RankCtx, timing: &ExchangeTiming) {
        ctx.sim().with_kernel(|k| {
            if !k.metrics.is_enabled() {
                return;
            }
            k.metrics.counter_add("exchange", "exchanges", &[], 1);
            k.metrics
                .observe("exchange", "total_ps", &[], timing.total.picos() as f64);
            for (method, d) in &timing.per_method {
                let name = method.to_string();
                k.metrics.observe(
                    "exchange",
                    "method_ps",
                    &[("method", &name)],
                    d.picos() as f64,
                );
            }
            for (phase, d) in &timing.per_phase {
                k.metrics.observe(
                    "exchange",
                    "phase_ps",
                    &[("phase", phase)],
                    d.picos() as f64,
                );
            }
            for sp in &self.plans.sends {
                let name = sp.method.to_string();
                k.metrics
                    .counter_add("exchange", "method_bytes", &[("method", &name)], sp.bytes);
            }
        });
    }

    /// One complete halo exchange: issue, overlap, and drain. Returns the
    /// per-method and per-phase timing breakdown.
    pub fn exchange(&self, ctx: &RankCtx) -> ExchangeTiming {
        let h = self.exchange_start(ctx);
        self.exchange_finish(ctx, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(side: Side) -> Transfer {
        let mut t = Transfer::new(side, 0, Method::Staged, Vec::new());
        for &to in &side.stages()[1..] {
            t.advance(to, None);
        }
        t
    }

    #[test]
    fn transfers_walk_their_side_in_order() {
        assert_eq!(walk(Side::Send).stage, Stage::Done);
        assert_eq!(walk(Side::Recv).stage, Stage::Done);
    }

    #[test]
    #[should_panic(expected = "cannot go from Posted to Unpacking")]
    fn a_receive_cannot_skip_landing() {
        let mut t = Transfer::new(Side::Recv, 0, Method::Staged, Vec::new());
        t.advance(Stage::Unpacking, None);
    }

    #[test]
    #[should_panic(expected = "cannot go from Staging to Landed")]
    fn a_send_never_lands() {
        let mut t = Transfer::new(Side::Send, 0, Method::Staged, Vec::new());
        t.advance(Stage::Landed, None);
    }
}

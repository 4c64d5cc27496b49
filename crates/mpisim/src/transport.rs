//! Message matching and the three transports: shared-memory (intra-node),
//! NIC (inter-node), and CUDA-aware (device buffers passed straight to MPI).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use detsim::{Completion, Kernel, LinkId, Name, SimDuration, SimTime};
use faultsim::{FaultAction, FaultSchedule};
use gpusim::{Buffer, GpuMachine, Placement};

use crate::config::MpiCostModel;

/// A pending non-blocking operation. Wait on it via
/// [`RankCtx::wait`](crate::RankCtx::wait).
#[derive(Clone, Debug)]
pub struct Request {
    pub(crate) done: Completion,
    /// Set when the operation resolved as *revoked* (ULFM-style): one of
    /// its endpoints died while the operation was still pending. A revoked
    /// request is complete (waits return immediately) but moved no bytes.
    pub(crate) revoked: Rc<Cell<bool>>,
}

impl Request {
    pub(crate) fn new(done: Completion) -> Request {
        Request {
            done,
            revoked: Rc::new(Cell::new(false)),
        }
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        self.done.is_done()
    }

    /// Whether the operation resolved as revoked: an endpoint rank died
    /// while it was pending, so it completed without transferring data
    /// (see `docs/RESILIENCE.md` for the shrink-or-respawn contract).
    pub fn is_revoked(&self) -> bool {
        self.revoked.get()
    }

    /// The underlying completion (for mixing with stream events in
    /// `wait_any`-style polling).
    pub fn completion(&self) -> &Completion {
        &self.done
    }
}

type MatchKey = (usize, usize, u64); // (dst, src, tag)

/// Which family of setup-once channel semantics a [`Channel`] carries
/// (`docs/TRANSPORTS.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChanKind {
    /// `MPI_Send_init`/`MPI_Recv_init`: the whole message flies on each
    /// `start`, but matching and protocol negotiation were paid at init.
    Persistent,
    /// `MPI_Psend_init`/`MPI_Precv_init`: the message is split into
    /// partitions that fly individually as the sender marks them ready.
    Partitioned,
}

impl ChanKind {
    fn label(self) -> &'static str {
        match self {
            ChanKind::Persistent => "persistent",
            ChanKind::Partitioned => "partitioned",
        }
    }
}

/// Which end of a channel a handle controls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChanSide {
    /// The sending end (`send_init`/`psend_init`).
    Send,
    /// The receiving end (`recv_init`/`precv_init`).
    Recv,
}

impl ChanSide {
    /// The key under which this end of a message between `me` and `peer`
    /// meets the other end.
    fn key(self, me: usize, peer: usize, tag: u64) -> MatchKey {
        match self {
            ChanSide::Send => (peer, me, tag),
            ChanSide::Recv => (me, peer, tag),
        }
    }
}

/// Byte range `(offset, len)` of partition `part` of `parts` over a
/// `len`-byte message: equal chunks of `len.div_ceil(parts)` bytes, the
/// last ones shorter, and empty once the earlier chunks cover the message
/// (5 bytes in 4 partitions: 2, 2, 1, 0). Partitioned channels move their
/// partitions at these offsets, so a sender packs partition `part` here.
pub fn partition_range(len: u64, parts: usize, part: usize) -> (u64, u64) {
    let chunk = len.div_ceil(parts as u64);
    let off = (part as u64 * chunk).min(len);
    (off, chunk.min(len - off))
}

/// Handle to one end of a persistent or partitioned channel, created once
/// at setup by [`RankCtx::send_init`](crate::RankCtx::send_init) and
/// friends, then driven every iteration with
/// [`RankCtx::start`](crate::RankCtx::start) (and, for partitioned sends,
/// [`RankCtx::pready`](crate::RankCtx::pready)).
#[derive(Clone, Debug)]
pub struct Channel {
    pub(crate) id: usize,
    pub(crate) kind: ChanKind,
    pub(crate) side: ChanSide,
    pub(crate) parts: usize,
}

impl Channel {
    /// Number of partitions (1 for persistent channels).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The channel family.
    pub fn kind(&self) -> ChanKind {
        self.kind
    }
}

/// One round of a channel, returned by
/// [`RankCtx::start`](crate::RankCtx::start): wait on [`Self::all`] for the
/// whole round; poll [`Self::parts`] for per-partition arrival
/// (`MPI_Parrived`).
pub struct ChannelRound {
    /// Completes when every partition of this side's round has landed.
    pub all: Request,
    /// Per-partition completions, in partition order.
    pub parts: Vec<Completion>,
}

/// One registered end of a channel: the buffer region pinned at init time.
struct ChanEnd {
    buf: Buffer,
    off: u64,
    len: u64,
    rank: usize,
}

/// Per-round state: which sides have started, which partitions are ready,
/// and the completions each side's `start` handed out.
struct ChannelRoundState {
    send_parts: Option<Vec<Completion>>,
    recv_parts: Option<Vec<Completion>>,
    /// Revocation flags handed out with each side's round requests, so a
    /// kill can mark in-flight rounds revoked.
    send_flag: Option<Rc<Cell<bool>>>,
    recv_flag: Option<Rc<Cell<bool>>>,
    ready: Vec<bool>,
    launched: Vec<bool>,
    remaining: usize,
    /// When the earlier side started (match-wait metrics).
    first_started: SimTime,
}

struct ChannelState {
    kind: ChanKind,
    parts: usize,
    send: Option<ChanEnd>,
    recv: Option<ChanEnd>,
    /// Completed rounds. Round 0 pays the protocol handshake
    /// (rendezvous); later rounds reuse the negotiated match.
    rounds_done: u64,
    cur: Option<ChannelRoundState>,
    /// A rank death revokes the communicator's channels (ULFM
    /// `MPI_Comm_revoke` semantics): every later `start` on an old handle
    /// completes immediately as revoked. Survivors re-init fresh channels
    /// under the same keys (the index entry is cleared at kill time).
    revoked: bool,
}

struct PendingMsg {
    buf: Buffer,
    off: u64,
    len: u64,
    done: Completion,
    revoked: Rc<Cell<bool>>,
    rank: usize,
    /// When the operation was posted (for match-latency metrics).
    posted: SimTime,
}

#[derive(Default)]
struct MatchQueue {
    sends: VecDeque<PendingMsg>,
    recvs: VecDeque<PendingMsg>,
}

#[derive(Default)]
struct ObjQueue {
    items: VecDeque<Box<dyn Any>>,
    waiters: VecDeque<Completion>,
}

pub(crate) struct BarrierState {
    /// Which ranks have arrived in the current round.
    pub arrived: Vec<bool>,
    /// How many *alive* ranks have arrived. The barrier releases when this
    /// reaches the alive count — a shrunken world's barrier waits only for
    /// its survivors.
    pub alive_arrived: usize,
    pub release: Completion,
}

/// Rank-lifecycle state: who is alive, how often the membership changed,
/// and who is parked waiting for a membership transition.
pub(crate) struct LifeState {
    alive: Vec<bool>,
    dead: usize,
    /// Bumped on every kill or respawn — the communicator epoch. Cached
    /// plans or channels built under an older epoch are suspect.
    epoch: u64,
    /// `(rank, completion)` pairs released when `rank` respawns.
    respawn_waiters: Vec<(usize, Completion)>,
    /// Completions released when every rank is alive again.
    all_alive_waiters: Vec<Completion>,
}

/// Shared state of the simulated MPI library.
pub(crate) struct MpiState {
    pub machine: GpuMachine,
    pub cfg: MpiCostModel,
    pub cuda_aware: bool,
    /// Whether the simulated stack implements persistent requests.
    pub persistent: bool,
    /// Whether the simulated stack implements partitioned communication.
    pub partitioned: bool,
    pub num_ranks: usize,
    pub ranks_per_node: usize,
    /// Per-rank shared-memory progress-engine link: all of a rank's
    /// intra-node host messages flow through it.
    pub shm_link: Vec<LinkId>,
    /// Per-rank trace track for MPI spans.
    pub rank_track: Vec<detsim::trace::TrackId>,
    queues: RefCell<HashMap<MatchKey, MatchQueue>>,
    /// Persistent/partitioned channels: both ends register under the same
    /// `(dst, src, tag)` key at init time; the index maps it to a slot in
    /// `channels`.
    chan_index: RefCell<HashMap<MatchKey, usize>>,
    channels: RefCell<Vec<Rc<RefCell<ChannelState>>>>,
    objs: RefCell<HashMap<MatchKey, ObjQueue>>,
    pub barrier: RefCell<BarrierState>,
    life: RefCell<LifeState>,
    /// Memoized deterministic setup artifacts shared across the world's
    /// ranks (see [`RankCtx::cached_setup`](crate::RankCtx::cached_setup)).
    pub(crate) setup_cache: RefCell<HashMap<String, Rc<dyn Any>>>,
}

impl MpiState {
    pub fn new(
        k: &mut Kernel,
        machine: GpuMachine,
        cfg: MpiCostModel,
        cuda_aware: bool,
        persistent: bool,
        partitioned: bool,
        ranks_per_node: usize,
    ) -> Rc<MpiState> {
        assert!(ranks_per_node >= 1);
        let num_ranks = machine.num_nodes() * ranks_per_node;
        let mut shm_link = Vec::with_capacity(num_ranks);
        let mut rank_track = Vec::with_capacity(num_ranks);
        for r in 0..num_ranks {
            shm_link.push(k.add_link(
                Name::deferred(|[r, ..]| format!("r{r}.shm"), &[r]),
                cfg.shm_bandwidth,
                cfg.shm_latency,
            ));
            rank_track.push(
                k.trace
                    .add_track(Name::deferred(|[r, ..]| format!("rank{r} mpi"), &[r])),
            );
        }
        let release = k.completion();
        Rc::new(MpiState {
            machine,
            cfg,
            cuda_aware,
            persistent,
            partitioned,
            num_ranks,
            ranks_per_node,
            shm_link,
            rank_track,
            queues: RefCell::new(HashMap::new()),
            chan_index: RefCell::new(HashMap::new()),
            channels: RefCell::new(Vec::new()),
            objs: RefCell::new(HashMap::new()),
            barrier: RefCell::new(BarrierState {
                arrived: vec![false; num_ranks],
                alive_arrived: 0,
                release,
            }),
            life: RefCell::new(LifeState {
                alive: vec![true; num_ranks],
                dead: 0,
                epoch: 0,
                respawn_waiters: Vec::new(),
                all_alive_waiters: Vec::new(),
            }),
            setup_cache: RefCell::new(HashMap::new()),
        })
    }

    pub fn node_of_rank(&self, r: usize) -> usize {
        r / self.ranks_per_node
    }

    /// Post one end of a non-blocking point-to-point message: `me` sends
    /// `buf[off..off+len]` to `peer` (`side` is [`ChanSide::Send`]) or
    /// receives into it from `peer`. Matching (and the transfer) happens
    /// once the other end is posted too.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI signature
    pub fn post(
        &self,
        k: &mut Kernel,
        side: ChanSide,
        me: usize,
        peer: usize,
        tag: u64,
        buf: &Buffer,
        off: u64,
        len: u64,
    ) -> Request {
        let (op, dir, other_side) = match side {
            ChanSide::Send => ("isend", "to", "recv"),
            ChanSide::Recv => ("irecv", "from", "send"),
        };
        assert!(off + len <= buf.len(), "{op} region out of range");
        assert!(peer < self.num_ranks, "{op} {dir} invalid rank {peer}");
        if let Some(req) = self.revoked_if_dead(k, me, peer) {
            return req;
        }
        let done = k.completion();
        let req = Request::new(done.clone());
        let mine = PendingMsg {
            buf: buf.clone(),
            off,
            len,
            done,
            revoked: Rc::clone(&req.revoked),
            rank: me,
            posted: k.now(),
        };
        let theirs = {
            let mut q = self.queues.borrow_mut();
            let entry = q.entry(side.key(me, peer, tag)).or_default();
            let (own, other) = match side {
                ChanSide::Send => (&mut entry.sends, &mut entry.recvs),
                ChanSide::Recv => (&mut entry.recvs, &mut entry.sends),
            };
            match other.pop_front() {
                Some(theirs) => theirs,
                None => {
                    own.push_back(mine);
                    return req;
                }
            }
        };
        // The other end was posted first and waited for this one.
        self.record_match(k, other_side, theirs.posted);
        let (send, recv) = match side {
            ChanSide::Send => (mine, theirs),
            ChanSide::Recv => (theirs, mine),
        };
        self.start_transfer(k, send, recv);
        req
    }

    /// If either endpoint of an operation is currently dead, resolve it as
    /// revoked on the spot: complete, no bytes, `is_revoked()` set. On the
    /// (fault-free) fast path this is two boolean reads.
    fn revoked_if_dead(&self, k: &mut Kernel, a: usize, b: usize) -> Option<Request> {
        let dead = {
            let life = self.life.borrow();
            !life.alive[a] || !life.alive[b]
        };
        if !dead {
            return None;
        }
        let done = k.completion();
        k.complete(&done);
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "revoked_ops", &[("when", "posted")], 1);
        }
        Some(Request {
            done,
            revoked: Rc::new(Cell::new(true)),
        })
    }

    /// Record how long the queued side of a newly matched pair sat waiting
    /// for its partner. `side` names the operation that was posted first.
    fn record_match(&self, k: &mut Kernel, side: &'static str, posted: SimTime) {
        if k.metrics.is_enabled() {
            let wait = k.now().since(posted).picos() as f64;
            k.metrics
                .observe("mpi", "match_wait_ps", &[("side", side)], wait);
        }
    }

    fn start_transfer(&self, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        assert!(
            recv.len >= send.len,
            "receive buffer region ({}) smaller than message ({})",
            recv.len,
            send.len
        );
        if k.metrics.is_enabled() {
            let protocol = if send.len > self.cfg.eager_threshold {
                "rendezvous"
            } else {
                "eager"
            };
            k.metrics
                .counter_add("mpi", "messages", &[("protocol", protocol)], 1);
            k.metrics
                .counter_add("mpi", "message_bytes", &[("protocol", protocol)], send.len);
        }
        let device_involved = send.buf.device().is_some() || recv.buf.device().is_some();
        if device_involved {
            assert!(
                self.cuda_aware,
                "device buffer passed to MPI but CUDA-aware support is disabled"
            );
            self.cuda_aware_transfer(k, send, recv);
        } else {
            self.host_transfer(k, send, recv);
        }
    }

    fn protocol_latency(&self, bytes: u64) -> SimDuration {
        if bytes > self.cfg.eager_threshold {
            self.cfg.rendezvous_latency
        } else {
            SimDuration::ZERO
        }
    }

    /// The links a host-to-host message from `from` (posted by `rank`) to
    /// `to` crosses, and whether it stays on one node. Within a node it is
    /// the shared-memory transport: the sender's progress engine pumps the
    /// bytes, and cross-socket copies also ride the X-Bus. Between nodes it
    /// is the NIC path.
    fn host_route(&self, from: &Buffer, rank: usize, to: &Buffer) -> (Vec<LinkId>, bool) {
        let (Placement::Host(n1, s1), Placement::Host(n2, s2)) = (from.placement(), to.placement())
        else {
            unreachable!("host route with device buffers");
        };
        let fabric = self.machine.fabric();
        let (c1, c2) = (fabric.node_spec().cpu(s1), fabric.node_spec().cpu(s2));
        if n1 == n2 {
            let mut p = vec![self.shm_link[rank]];
            p.extend(fabric.node_path(n1, c1, c2));
            (p, true)
        } else {
            (fabric.internode_path(n1, c1, n2, c2), false)
        }
    }

    fn host_transfer(&self, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        let (path, shm) = self.host_route(&send.buf, send.rank, &recv.buf);
        let label = if shm { "MPI shm" } else { "MPI net" };
        if k.metrics.is_enabled() {
            let transport = if shm { "shm" } else { "net" };
            k.metrics.counter_add(
                "mpi",
                "transport_bytes",
                &[("transport", transport)],
                send.len,
            );
        }
        self.flow_transfer(k, path, self.protocol_latency(send.len), send, recv, label);
    }

    fn flow_transfer(
        &self,
        k: &mut Kernel,
        path: Vec<LinkId>,
        extra_latency: SimDuration,
        send: PendingMsg,
        recv: PendingMsg,
        label: &'static str,
    ) {
        let bytes = send.len;
        let track = self.rank_track[send.rank];
        let start = k.now();
        k.schedule_in(extra_latency, move |k| {
            k.start_flow(&path, bytes, move |k| {
                recv.buf.copy_from(recv.off, &send.buf, send.off, bytes);
                if k.trace.is_enabled() {
                    k.trace
                        .record(track, format!("{label} {bytes}B"), "mpi", start, k.now());
                }
                k.complete(&send.done);
                k.complete(&recv.done);
            });
        });
    }

    /// CUDA-aware transfer: the MPI library moves device buffers itself.
    /// Models the pathology the paper profiles (§IV-D): the library runs its
    /// transfers through the *default* stream of each involved device (so
    /// concurrent CUDA-aware messages on one GPU serialize) and performs
    /// per-message synchronization/setup (`cuda_aware_overhead`).
    fn cuda_aware_transfer(&self, k: &mut Kernel, send: PendingMsg, recv: PendingMsg) {
        let fabric = self.machine.fabric();
        let spec = fabric.node_spec();
        let comp_of = |b: &Buffer| match b.placement() {
            Placement::Device(d) => (self.machine.node_of(d), spec.gpu(self.machine.local_of(d))),
            Placement::Host(n, s) => (n, spec.cpu(s)),
        };
        let (n1, c1) = comp_of(&send.buf);
        let (n2, c2) = comp_of(&recv.buf);
        let path = if n1 == n2 {
            fabric.node_path(n1, c1, c2)
        } else {
            fabric.internode_path(n1, c1, n2, c2)
        };
        let overhead = self.cfg.cuda_aware_overhead + self.protocol_latency(send.len);
        let bytes = send.len;
        if k.metrics.is_enabled() {
            k.metrics.counter_add(
                "mpi",
                "transport_bytes",
                &[("transport", "cuda-aware")],
                bytes,
            );
        }
        let track = self.rank_track[send.rank];

        let landed = k.completion();
        // The transfer occupies the default stream of *every* involved
        // device until the data lands: the MPI library stages its transfers
        // through the default stream and synchronizes around them, so all
        // CUDA-aware messages touching one GPU — sends and receives alike —
        // serialize. This is the pathology the paper profiles in §IV-D and
        // the mechanism behind Fig. 12c's degradation at scale: off-node
        // transfers are slow (NIC shares), and holding the device hostage
        // for each one prevents any overlap.
        let src_dev = send.buf.device();
        let dst_dev = recv.buf.device().filter(|d| Some(*d) != send.buf.device());
        let primary = src_dev
            .or(recv.buf.device())
            .expect("cuda-aware without device");

        let machine = self.machine.clone();
        let fifo_primary = machine.stream_fifo(machine.default_stream(primary));
        let landed2 = landed.clone();
        k.fifo_submit(fifo_primary, move |k, token| {
            let start = k.now();
            let landed3 = landed2.clone();
            k.schedule_in(overhead, move |k| {
                k.start_flow(&path, bytes, move |k| {
                    recv.buf.copy_from(recv.off, &send.buf, send.off, bytes);
                    if k.trace.is_enabled() {
                        k.trace.record(
                            track,
                            format!("MPI cuda-aware {bytes}B"),
                            "mpi",
                            start,
                            k.now(),
                        );
                    }
                    k.complete(&send.done);
                    k.complete(&recv.done);
                    k.complete(&landed3);
                });
            });
            k.on_complete(&landed2.clone(), move |k| k.fifo_task_done(token));
        });
        if let Some(other) = dst_dev {
            let fifo_other = self.machine.stream_fifo(self.machine.default_stream(other));
            k.fifo_submit(fifo_other, move |k, token| {
                k.on_complete(&landed, move |k| k.fifo_task_done(token));
            });
        }
    }

    // ----- persistent / partitioned channels ------------------------------

    /// Register one end of a persistent or partitioned channel. Both ends
    /// must register under the same `(dst, src, tag)` key (in any order)
    /// before either side starts a round.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI *_init signature
    pub fn channel_init(
        &self,
        k: &mut Kernel,
        kind: ChanKind,
        side: ChanSide,
        my_rank: usize,
        peer: usize,
        tag: u64,
        buf: &Buffer,
        off: u64,
        len: u64,
        parts: usize,
    ) -> Channel {
        match kind {
            ChanKind::Persistent => assert!(
                self.persistent,
                "persistent channels used but WorldConfig::mpi_persistent is off"
            ),
            ChanKind::Partitioned => assert!(
                self.partitioned,
                "partitioned channels used but WorldConfig::mpi_partitioned is off"
            ),
        }
        assert!(off + len <= buf.len(), "channel region out of range");
        assert!(peer < self.num_ranks, "channel peer rank out of range");
        assert!(
            buf.device().is_none(),
            "persistent/partitioned channels require host buffers \
             (CUDA-aware persistent requests are not modeled)"
        );
        assert!(
            parts >= 1 && parts as u64 <= len.max(1),
            "bad partition count"
        );
        let key = side.key(my_rank, peer, tag);
        let end = ChanEnd {
            buf: buf.clone(),
            off,
            len,
            rank: my_rank,
        };
        let mut index = self.chan_index.borrow_mut();
        let mut channels = self.channels.borrow_mut();
        let id = *index.entry(key).or_insert_with(|| {
            channels.push(Rc::new(RefCell::new(ChannelState {
                kind,
                parts,
                send: None,
                recv: None,
                rounds_done: 0,
                cur: None,
                revoked: false,
            })));
            channels.len() - 1
        });
        {
            let mut st = channels[id].borrow_mut();
            assert_eq!(st.kind, kind, "channel ends disagree on kind (key {key:?})");
            assert_eq!(
                st.parts, parts,
                "channel ends disagree on partition count (key {key:?})"
            );
            if let (ChanSide::Recv, Some(send)) = (side, &st.send) {
                assert!(len >= send.len, "channel receive region smaller than send");
            }
            if let (ChanSide::Send, Some(recv)) = (side, &st.recv) {
                assert!(recv.len >= len, "channel receive region smaller than send");
            }
            let slot = match side {
                ChanSide::Send => &mut st.send,
                ChanSide::Recv => &mut st.recv,
            };
            assert!(
                slot.is_none(),
                "duplicate channel init for the same end (key {key:?})"
            );
            *slot = Some(end);
        }
        if k.metrics.is_enabled() {
            let s = match side {
                ChanSide::Send => "send",
                ChanSide::Recv => "recv",
            };
            k.metrics.counter_add(
                "mpi",
                "channel_ends",
                &[("kind", kind.label()), ("side", s)],
                1,
            );
        }
        Channel {
            id,
            kind,
            side,
            parts,
        }
    }

    /// Start one round on a channel end. Returns the per-partition
    /// completions for this side (persistent channels have exactly one)
    /// plus the round's revocation flag. Partitions of a persistent
    /// channel — and none of a partitioned send until
    /// [`Self::channel_pready`] — begin flying as soon as both sides of
    /// the round have started. On a revoked channel the round resolves
    /// immediately: all completions done, flag set, no bytes.
    pub fn channel_start(&self, k: &mut Kernel, ch: &Channel) -> (Vec<Completion>, Rc<Cell<bool>>) {
        let state = Rc::clone(&self.channels.borrow()[ch.id]);
        let mut st = state.borrow_mut();
        assert!(
            st.send.is_some() && st.recv.is_some(),
            "channel started before both ends were initialized"
        );
        if st.revoked {
            let mine: Vec<Completion> = (0..st.parts).map(|_| k.completion()).collect();
            drop(st);
            for c in &mine {
                k.complete(c);
            }
            if k.metrics.is_enabled() {
                k.metrics
                    .counter_add("mpisim", "revoked_ops", &[("when", "channel-start")], 1);
            }
            return (mine, Rc::new(Cell::new(true)));
        }
        let parts = st.parts;
        let round = st.cur.get_or_insert_with(|| ChannelRoundState {
            send_parts: None,
            recv_parts: None,
            send_flag: None,
            recv_flag: None,
            ready: vec![false; parts],
            launched: vec![false; parts],
            remaining: parts,
            first_started: k.now(),
        });
        let mine: Vec<Completion> = (0..parts).map(|_| k.completion()).collect();
        let flag = Rc::new(Cell::new(false));
        let (slot, flag_slot, other_started, waited_side) = match ch.side {
            ChanSide::Send => (
                &mut round.send_parts,
                &mut round.send_flag,
                round.recv_parts.is_some(),
                "recv",
            ),
            ChanSide::Recv => (
                &mut round.recv_parts,
                &mut round.recv_flag,
                round.send_parts.is_some(),
                "send",
            ),
        };
        assert!(slot.is_none(), "channel end started twice in one round");
        *slot = Some(mine.clone());
        *flag_slot = Some(Rc::clone(&flag));
        if ch.side == ChanSide::Send && ch.kind == ChanKind::Persistent {
            // The whole persistent message is implicitly ready at start.
            round.ready.iter_mut().for_each(|r| *r = true);
        }
        if k.metrics.is_enabled() {
            let s = match ch.side {
                ChanSide::Send => "send",
                ChanSide::Recv => "recv",
            };
            k.metrics.counter_add(
                "mpi",
                "channel_starts",
                &[("kind", ch.kind.label()), ("side", s)],
                1,
            );
            if ch.side == ChanSide::Send {
                let label = ch.kind.label();
                let len = st.send.as_ref().unwrap().len;
                k.metrics
                    .counter_add("mpi", "messages", &[("protocol", label)], 1);
                k.metrics
                    .counter_add("mpi", "message_bytes", &[("protocol", label)], len);
            }
            if other_started {
                let waited = k
                    .now()
                    .since(st.cur.as_ref().unwrap().first_started)
                    .picos() as f64;
                k.metrics
                    .observe("mpi", "match_wait_ps", &[("side", waited_side)], waited);
            }
        }
        self.channel_try_launch(k, &state, &mut st);
        (mine, flag)
    }

    /// `MPI_Pready`: mark one partition of a partitioned send ready. Its
    /// bytes begin flying immediately if the receiver's round has started.
    pub fn channel_pready(&self, k: &mut Kernel, ch: &Channel, part: usize) {
        assert_eq!(ch.side, ChanSide::Send, "pready on a receive channel");
        assert_eq!(
            ch.kind,
            ChanKind::Partitioned,
            "pready on a persistent channel"
        );
        assert!(part < ch.parts, "partition index out of range");
        let state = Rc::clone(&self.channels.borrow()[ch.id]);
        let mut st = state.borrow_mut();
        if st.revoked {
            // The round already resolved as revoked; readiness is moot.
            return;
        }
        let round = st
            .cur
            .as_mut()
            .expect("pready before the send side started the round");
        assert!(
            round.send_parts.is_some(),
            "pready before the send side started the round"
        );
        assert!(!round.ready[part], "partition marked ready twice");
        round.ready[part] = true;
        if k.metrics.is_enabled() {
            k.metrics.counter_add("mpi", "partition_ready", &[], 1);
        }
        self.channel_try_launch(k, &state, &mut st);
    }

    /// Launch every partition that is ready and unlaunched, provided both
    /// sides of the round have started. Round 0 of a channel additionally
    /// pays the protocol handshake latency (rendezvous for large messages);
    /// later rounds reuse the negotiated match — the persistent win.
    fn channel_try_launch(
        &self,
        k: &mut Kernel,
        state: &Rc<RefCell<ChannelState>>,
        st: &mut ChannelState,
    ) {
        let Some(round) = st.cur.as_mut() else {
            return;
        };
        let (Some(send_parts), Some(recv_parts)) = (&round.send_parts, &round.recv_parts) else {
            return;
        };
        let send = st.send.as_ref().unwrap();
        let recv = st.recv.as_ref().unwrap();
        // Channel ends are asserted host-resident at init.
        let (path, shm) = self.host_route(&send.buf, send.rank, &recv.buf);
        let transport = if shm { "shm" } else { "net" };
        let label: &'static str = match (st.kind, shm) {
            (ChanKind::Persistent, true) => "MPI persistent shm",
            (ChanKind::Persistent, false) => "MPI persistent net",
            (ChanKind::Partitioned, true) => "MPI partitioned shm",
            (ChanKind::Partitioned, false) => "MPI partitioned net",
        };
        let extra = if st.rounds_done == 0 {
            self.protocol_latency(send.len)
        } else {
            SimDuration::ZERO
        };
        let track = self.rank_track[send.rank];
        for part in 0..st.parts {
            if !round.ready[part] || round.launched[part] {
                continue;
            }
            round.launched[part] = true;
            let (rel, bytes) = partition_range(send.len, st.parts, part);
            if k.metrics.is_enabled() {
                k.metrics
                    .counter_add("mpi", "transport_bytes", &[("transport", transport)], bytes);
            }
            let send_done = send_parts[part].clone();
            let recv_done = recv_parts[part].clone();
            let sbuf = send.buf.clone();
            let rbuf = recv.buf.clone();
            let (soff, roff) = (send.off + rel, recv.off + rel);
            let chan = Rc::clone(state);
            let path = path.clone();
            let start = k.now();
            k.schedule_in(extra, move |k| {
                k.start_flow(&path, bytes, move |k| {
                    rbuf.copy_from(roff, &sbuf, soff, bytes);
                    if k.trace.is_enabled() {
                        k.trace
                            .record(track, format!("{label} {bytes}B"), "mpi", start, k.now());
                    }
                    k.complete(&send_done);
                    k.complete(&recv_done);
                    let mut st = chan.borrow_mut();
                    // A kill may have revoked the round out from under an
                    // in-flight partition; the late finish is then a no-op.
                    if let Some(r) = st.cur.as_mut() {
                        r.remaining -= 1;
                        if r.remaining == 0 {
                            st.cur = None;
                            st.rounds_done += 1;
                        }
                    }
                });
            });
        }
    }

    // ----- out-of-band typed messages (setup metadata, IPC handles) -------

    /// Send a typed value to `(dst, tag)`. Delivery is charged
    /// `obj_latency`; payloads are not byte-serialized (they model small
    /// setup messages whose transfer time is latency-dominated).
    pub fn send_obj(
        self: &Rc<Self>,
        k: &mut Kernel,
        src_rank: usize,
        dst_rank: usize,
        tag: u64,
        obj: Box<dyn Any>,
    ) {
        let key = (dst_rank, src_rank, tag);
        let state = Rc::clone(self);
        k.schedule_in(self.cfg.obj_latency, move |k| {
            let mut q = state.objs.borrow_mut();
            let entry = q.entry(key).or_default();
            entry.items.push_back(obj);
            if let Some(w) = entry.waiters.pop_front() {
                drop(q);
                k.complete(&w);
            }
        });
    }

    /// Take the next typed value from `(src, tag)`, if one has arrived.
    /// Otherwise returns a completion to wait on before retrying.
    pub fn try_recv_obj(
        &self,
        k: &mut Kernel,
        dst_rank: usize,
        src_rank: usize,
        tag: u64,
    ) -> Result<Box<dyn Any>, Completion> {
        let mut q = self.objs.borrow_mut();
        let entry = q.entry((dst_rank, src_rank, tag)).or_default();
        match entry.items.pop_front() {
            Some(obj) => Ok(obj),
            None => {
                let c = k.completion();
                entry.waiters.push_back(c.clone());
                Err(c)
            }
        }
    }

    // ----- rank lifecycle (kill / shrink / respawn) ------------------------

    /// Whether `rank` is currently alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.life.borrow().alive[rank]
    }

    /// Number of currently alive ranks.
    pub fn alive_count(&self) -> usize {
        let life = self.life.borrow();
        life.alive.len() - life.dead
    }

    /// The currently alive ranks, ascending — the membership of the
    /// shrunken world every survivor agrees on (reads of shared state at
    /// one virtual instant are identical across ranks).
    pub fn alive_ranks(&self) -> Vec<usize> {
        let life = self.life.borrow();
        (0..life.alive.len()).filter(|&r| life.alive[r]).collect()
    }

    /// The communicator epoch: bumped on every kill and respawn. A
    /// fault-free world stays at epoch 0.
    pub fn failure_epoch(&self) -> u64 {
        self.life.borrow().epoch
    }

    /// A completion released when `rank` respawns, or `None` if it is
    /// already alive.
    pub fn respawn_completion(&self, k: &mut Kernel, rank: usize) -> Option<Completion> {
        let mut life = self.life.borrow_mut();
        if life.alive[rank] {
            return None;
        }
        let c = k.completion();
        life.respawn_waiters.push((rank, c.clone()));
        Some(c)
    }

    /// A completion released when every rank is alive, or `None` if the
    /// world is already whole.
    pub fn all_alive_completion(&self, k: &mut Kernel) -> Option<Completion> {
        let mut life = self.life.borrow_mut();
        if life.dead == 0 {
            return None;
        }
        let c = k.completion();
        life.all_alive_waiters.push(c.clone());
        Some(c)
    }

    /// Whether a channel handle has been revoked by a rank death. A
    /// revoked handle never transfers again; both ends must `*_init` a
    /// fresh channel (the re-handshake).
    pub fn channel_revoked(&self, ch: &Channel) -> bool {
        self.channels.borrow()[ch.id].borrow().revoked
    }

    /// Install the rank kill/respawn events of `schedule` as kernel
    /// timers, offsets measured from `base`. Link/device events are *not*
    /// installed here — pair with [`FaultSchedule::install_at`], which
    /// skips rank events; together the two passes install every event
    /// exactly once. A schedule without rank events registers nothing.
    pub fn install_rank_faults(
        self: &Rc<Self>,
        k: &mut Kernel,
        schedule: &FaultSchedule,
        base: SimTime,
    ) {
        for (at, rank, action) in schedule.rank_events() {
            assert!(rank < self.num_ranks, "rank fault target out of range");
            let st = Rc::clone(self);
            match action {
                FaultAction::Kill => {
                    k.schedule_at(base + at, move |k| st.kill_rank(k, rank));
                }
                FaultAction::Respawn => {
                    k.schedule_at(base + at, move |k| st.respawn_rank(k, rank));
                }
                _ => unreachable!("rank events carry only Kill/Respawn (validated at build)"),
            }
        }
    }

    /// Kill `rank`: the ULFM-style failure transition.
    ///
    /// * Pending (unmatched) sends/receives with `rank` as either endpoint
    ///   resolve as revoked. Matched transfers already in flight land
    ///   normally — the bytes were on the wire.
    /// * Every channel is revoked, communicator-wide (`MPI_Comm_revoke`):
    ///   in-flight rounds resolve as revoked, old handles are dead, and
    ///   the channel index is cleared so survivors and a respawned rank
    ///   re-handshake fresh channels under the same keys.
    /// * Receivers parked on out-of-band objects from `rank` are woken
    ///   (they re-park; see `RankCtx::recv_obj` — resilient protocols must
    ///   not block on a dead peer's setup messages).
    /// * The barrier stops counting `rank`: a round waiting only on dead
    ///   ranks releases to its survivors — the shrunken-world agreement.
    ///
    /// Idempotent; killing a dead rank is a no-op.
    pub fn kill_rank(self: &Rc<Self>, k: &mut Kernel, rank: usize) {
        {
            let mut life = self.life.borrow_mut();
            if !life.alive[rank] {
                return;
            }
            life.alive[rank] = false;
            life.dead += 1;
            life.epoch += 1;
        }
        let mut to_complete: Vec<Completion> = Vec::new();
        let mut revoked_ops = 0u64;
        {
            let mut q = self.queues.borrow_mut();
            for (key, mq) in q.iter_mut() {
                if key.0 != rank && key.1 != rank {
                    continue;
                }
                for msg in mq.sends.drain(..).chain(mq.recvs.drain(..)) {
                    msg.revoked.set(true);
                    to_complete.push(msg.done);
                    revoked_ops += 1;
                }
            }
        }
        {
            self.chan_index.borrow_mut().clear();
            let channels = self.channels.borrow();
            for chan in channels.iter() {
                let mut st = chan.borrow_mut();
                if st.revoked {
                    continue;
                }
                st.revoked = true;
                if let Some(round) = st.cur.take() {
                    for flag in [&round.send_flag, &round.recv_flag].into_iter().flatten() {
                        flag.set(true);
                    }
                    for parts in [round.send_parts, round.recv_parts].into_iter().flatten() {
                        to_complete.extend(parts);
                        revoked_ops += 1;
                    }
                }
            }
        }
        {
            let mut q = self.objs.borrow_mut();
            for (key, oq) in q.iter_mut() {
                if key.0 == rank || key.1 == rank {
                    to_complete.extend(oq.waiters.drain(..));
                }
            }
        }
        self.barrier_drop_rank(k, rank);
        for c in &to_complete {
            k.complete(c);
        }
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "rank_transitions", &[("action", "kill")], 1);
            if revoked_ops > 0 {
                k.metrics
                    .counter_add("mpisim", "revoked_ops", &[("when", "kill")], revoked_ops);
            }
        }
    }

    /// Respawn `rank`: it rejoins the world (epoch bumps again), waiters
    /// parked on its return — and, once the world is whole, on
    /// all-alive — are released, and the barrier counts it again.
    /// Idempotent; respawning a live rank is a no-op.
    pub fn respawn_rank(self: &Rc<Self>, k: &mut Kernel, rank: usize) {
        let mut wake: Vec<Completion> = Vec::new();
        {
            let mut life = self.life.borrow_mut();
            if life.alive[rank] {
                return;
            }
            life.alive[rank] = true;
            life.dead -= 1;
            life.epoch += 1;
            let mut i = 0;
            while i < life.respawn_waiters.len() {
                if life.respawn_waiters[i].0 == rank {
                    wake.push(life.respawn_waiters.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            if life.dead == 0 {
                wake.append(&mut life.all_alive_waiters);
            }
        }
        // If the rank is parked at the barrier (it arrived dead, or died
        // after arriving), its arrival counts again.
        {
            let mut b = self.barrier.borrow_mut();
            if b.arrived[rank] {
                b.alive_arrived += 1;
            }
        }
        self.barrier_maybe_release(k);
        for c in &wake {
            k.complete(c);
        }
        if k.metrics.is_enabled() {
            k.metrics
                .counter_add("mpisim", "rank_transitions", &[("action", "respawn")], 1);
        }
    }

    /// Barrier bookkeeping for a kill: the dead rank's arrival (if any)
    /// stops counting, and a round now waiting only on dead ranks releases
    /// to its survivors.
    fn barrier_drop_rank(&self, k: &mut Kernel, rank: usize) {
        {
            let mut b = self.barrier.borrow_mut();
            if b.arrived[rank] {
                b.alive_arrived -= 1;
            }
        }
        self.barrier_maybe_release(k);
    }

    /// One rank arrives at the barrier. Returns the round's release
    /// completion to park on.
    pub fn barrier_arrive(&self, k: &mut Kernel, rank: usize) -> Completion {
        let (me_alive, rel) = {
            let alive = self.is_alive(rank);
            let mut b = self.barrier.borrow_mut();
            debug_assert!(!b.arrived[rank], "rank re-entered barrier before release");
            b.arrived[rank] = true;
            if alive {
                b.alive_arrived += 1;
            }
            (alive, b.release.clone())
        };
        if me_alive {
            self.barrier_maybe_release(k);
        }
        rel
    }

    /// Release the barrier if every alive rank has arrived. The release
    /// delay models the `ceil(log2 n)` hops of a dissemination barrier,
    /// unchanged from the fault-free path.
    fn barrier_maybe_release(&self, k: &mut Kernel) {
        let alive_total = self.alive_count();
        let mut b = self.barrier.borrow_mut();
        if b.alive_arrived == 0 || b.alive_arrived != alive_total {
            return;
        }
        b.arrived.iter_mut().for_each(|f| *f = false);
        b.alive_arrived = 0;
        let rel = std::mem::replace(&mut b.release, k.completion());
        drop(b);
        let n = self.num_ranks;
        let hops = (n as f64).log2().ceil() as u64;
        let d = SimDuration::from_picos(self.cfg.barrier_hop.picos() * hops.max(1));
        k.schedule_in(d, move |k| k.complete(&rel));
    }
}

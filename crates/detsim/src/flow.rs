//! Fair-share flow network: models bulk data transfers over shared links.
//!
//! A *link* has a capacity (bytes/sec) and a fixed latency. A *flow* moves a
//! byte count over a path of links. Concurrent flows sharing a link divide
//! its capacity: each flow's rate is `min` over its path links of
//! `capacity / active-flow-count` ("bottleneck fair share"). This is a
//! slightly conservative approximation of max-min fairness — a flow
//! bottlenecked elsewhere still counts against a link's divisor — chosen
//! because rate changes then only propagate to flows that *directly share a
//! link* with the flow that started/finished, which keeps large simulations
//! (hundreds of nodes, tens of thousands of concurrent transfers) cheap and
//! exactly deterministic.
//!
//! Whenever the set of flows on any link changes (or a link's capacity
//! does), the affected flows are *touched*: their remaining byte counts
//! are settled at the current instant, each takes the sequence number the
//! touching call reserved, and each is marked dirty. Before the clock
//! leaves the instant, and before a rank resumes, the kernel *flushes*:
//! every dirty flow is re-rated once and its completion re-projected under
//! the sequence number of its last touch. Several joins and leaves at one
//! instant therefore cost one re-rating per flow, with the same virtual
//! times as re-rating at every touch (see [`Kernel::flush_reshares`] for
//! why this is exact).
//!
//! A flow's projected completion is not an event. It is one key
//! `(at, seq, FlowId)` in the [`FlowHeap`], an indexed binary min-heap
//! beside the kernel's event heap, and a re-projection moves that key in
//! place. [`Kernel::step`] pops whichever heap's top has the smaller
//! `(at, seq)`.
//!
//! ## Performance notes
//!
//! Reshares dominate large simulations (a 64-node fig12b step touches
//! ~1.05M flows, which the flushes re-rate ~0.41M times), so the data
//! structures are arranged to make one reshare allocation-free:
//!
//! * Each link caches its fair `share` (`capacity / flow-count`),
//!   recomputed only when membership changes — not per affected flow.
//! * Link membership is an unordered `Vec` of `(flow, hop)` entries with
//!   `swap_remove` deletion; each flow records its position in every hop's
//!   entry list so leaving a link is O(1) with a single position fix-up.
//! * Paths of up to [`PATH_INLINE`] hops are stored inline in the flow
//!   (internode host routes are at most 7 links), so starting a flow does
//!   not clone the path and resharing never allocates.
//! * The affected-flow set is a scratch `Vec` reused across reshares and
//!   never sorted: a flow listed twice is skipped by its touch stamp.
//! * The flow heap holds at most one key per flow, so a superseded
//!   projection is overwritten in place and nothing stale is left to pop
//!   or compact (a weak-64n step supersedes 359,040 projections).
//! * The heap's keys sit inline in its `Vec`, and each flow slot's
//!   position sits in a dense `u32` array, so a sift compares and moves
//!   keys without visiting a `Flow`.

use crate::kernel::{Action, Kernel};
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// Identifies a link in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) usize);

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(usize);

/// Paths up to this many hops live inline in the flow; longer ones spill
/// to the heap. The deepest route the topology builds (internode host
/// path: intranode hops + inject + eject + intranode hops) is 7 links.
const PATH_INLINE: usize = 8;

/// `Flow::seq` of a flow no reshare has touched yet; never reserved.
const UNTOUCHED: u64 = u64::MAX;

/// `FlowHeap::pos` of a flow slot with no queued completion.
const NOT_QUEUED: u32 = u32::MAX;

/// A flow's route plus, per hop, the flow's index into that link's entry
/// list (maintained by join/leave so leaving is O(1)).
enum FlowPath {
    Inline(u8, [(LinkId, u32); PATH_INLINE]),
    Heap(Vec<(LinkId, u32)>),
}

impl FlowPath {
    fn from_links(path: &[LinkId]) -> Self {
        if path.len() <= PATH_INLINE {
            let mut hops = [(LinkId(0), 0u32); PATH_INLINE];
            for (hop, &l) in hops.iter_mut().zip(path) {
                hop.0 = l;
            }
            FlowPath::Inline(path.len() as u8, hops)
        } else {
            FlowPath::Heap(path.iter().map(|&l| (l, 0)).collect())
        }
    }

    fn hops(&self) -> &[(LinkId, u32)] {
        match self {
            FlowPath::Inline(len, hops) => &hops[..*len as usize],
            FlowPath::Heap(hops) => hops,
        }
    }

    fn hops_mut(&mut self) -> &mut [(LinkId, u32)] {
        match self {
            FlowPath::Inline(len, hops) => &mut hops[..*len as usize],
            FlowPath::Heap(hops) => hops,
        }
    }

    fn set_pos(&mut self, hop: usize, pos: u32) {
        self.hops_mut()[hop].1 = pos;
    }
}

pub(crate) struct Link {
    name: String,
    capacity: f64, // bytes per second
    latency: SimDuration,
    /// Flows currently on this link, unordered, as `(flow, hop index in
    /// that flow's path)` so a swap-removed entry's owner can be fixed up.
    entries: Vec<(FlowId, u32)>,
    /// Cached fair share `capacity / entries.len()`; valid whenever the
    /// link has flows, recomputed only on membership change.
    share: f64,
    /// Cumulative bytes that have finished crossing this link (diagnostics).
    delivered: u64,
    /// Sum of current rates of flows on this link (diagnostics).
    load: f64,
    /// Peak of `load / capacity` observed (diagnostics).
    peak_util: f64,
    /// Time-integral of load (bytes "scheduled" through the link).
    busy_bytes: f64,
    /// Last time `load` changed.
    last_change: SimTime,
}

struct Flow {
    path: FlowPath,
    remaining: f64,
    total: u64,
    rate: f64,
    last_update: SimTime,
    /// Sequence number reserved by the reshare call that last touched the
    /// flow; its completion is keyed under it. [`UNTOUCHED`] until the
    /// first touch.
    seq: u64,
    /// Touched since the last flush and not yet re-rated. The flow's queued
    /// key, if any, is the superseded projection.
    dirty: bool,
    on_done: Option<Action>,
}

/// A flow's projected completion. It orders against events by
/// `(at, seq)`; flows touched by one reshare call share `seq` and order by
/// `fid`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct FlowKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) fid: FlowId,
}

/// Indexed binary min-heap of flow completions, at most one key per flow
/// slot: [`FlowHeap::set`] inserts a flow's key or moves it in place.
#[derive(Default)]
pub(crate) struct FlowHeap {
    /// The keys, inline so that a sift compares without visiting flows.
    keys: Vec<FlowKey>,
    /// Per flow slot, the index of its key in `keys`, or [`NOT_QUEUED`].
    pos: Vec<u32>,
}

impl FlowHeap {
    /// The earliest key.
    pub(crate) fn peek(&self) -> Option<&FlowKey> {
        self.keys.first()
    }

    /// Queue `key` as its flow's completion, replacing the key the flow
    /// already has queued; returns whether there was one.
    fn set(&mut self, key: FlowKey) -> bool {
        let slot = key.fid.0;
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, NOT_QUEUED);
        }
        match self.pos[slot] {
            NOT_QUEUED => {
                self.keys.push(key);
                self.sift_up(self.keys.len() - 1, key);
                false
            }
            i => {
                let i = i as usize;
                if key < self.keys[i] {
                    self.sift_up(i, key);
                } else {
                    self.sift_down(i, key);
                }
                true
            }
        }
    }

    /// Remove and return the earliest key.
    pub(crate) fn pop(&mut self) -> Option<FlowKey> {
        let last = self.keys.pop()?;
        let top = match self.keys.first() {
            Some(&top) => {
                self.sift_down(0, last);
                top
            }
            None => last,
        };
        self.pos[top.fid.0] = NOT_QUEUED;
        Some(top)
    }

    /// Store `key` at `i` or above it, moving the larger ancestors down.
    /// The key at `i` is overwritten.
    fn sift_up(&mut self, mut i: usize, key: FlowKey) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let up = self.keys[parent];
            if up <= key {
                break;
            }
            self.put(i, up, parent);
            i = parent;
        }
        self.keys[i] = key;
        self.pos[key.fid.0] = i as u32;
    }

    /// Store `key` at `i` or below it, moving the smaller descendants up.
    /// The key at `i` is overwritten.
    fn sift_down(&mut self, mut i: usize, key: FlowKey) {
        let n = self.keys.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.keys[child + 1] < self.keys[child] {
                child += 1;
            }
            let down = self.keys[child];
            if key <= down {
                break;
            }
            self.put(i, down, child);
            i = child;
        }
        self.keys[i] = key;
        self.pos[key.fid.0] = i as u32;
    }

    /// Move `key` from index `from` to index `to`.
    fn put(&mut self, to: usize, key: FlowKey, from: usize) {
        debug_assert_eq!(
            self.pos[key.fid.0] as usize, from,
            "flow heap position out of sync"
        );
        self.keys[to] = key;
        self.pos[key.fid.0] = to as u32;
    }
}

/// Container for links and flows; lives inside [`Kernel`].
pub(crate) struct FlowNet {
    links: Vec<Link>,
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
    active: usize,
    /// Reusable affected-flow buffer for joins/leaves (never held across
    /// user callbacks); may list a flow more than once.
    scratch: Vec<FlowId>,
    /// Flows touched since the last flush: dirty flows awaiting their
    /// re-rating, plus eagerly re-rated ones whose links still need a
    /// peak-utilization sample. A flow may be listed more than once.
    pub(crate) dirty: Vec<FlowId>,
    /// Projected completions of the active flows.
    pub(crate) heap: FlowHeap,
    /// Projections superseded so far: a queued key moved by a
    /// re-projection, or popped while its flow was dirty.
    pub(crate) superseded: u64,
}

impl FlowNet {
    pub(crate) fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            active: 0,
            scratch: Vec::new(),
            dirty: Vec::new(),
            heap: FlowHeap::default(),
            superseded: 0,
        }
    }

    fn alloc(&mut self, flow: Flow) -> FlowId {
        self.active += 1;
        if let Some(i) = self.free.pop() {
            debug_assert!(self.flows[i].is_none());
            self.flows[i] = Some(flow);
            FlowId(i)
        } else {
            self.flows.push(Some(flow));
            FlowId(self.flows.len() - 1)
        }
    }

    /// Whether the active flow `fid` awaits its re-rating.
    pub(crate) fn is_dirty(&self, fid: FlowId) -> bool {
        self.flows[fid.0]
            .as_ref()
            .expect("queued flow is live")
            .dirty
    }
}

/// Settle a link's busy-byte integral at `now`, then apply `delta` to its
/// load. When the metrics registry is enabled, also records the link's
/// utilization (time-weighted by the settled interval) and busy time.
fn settle_link(link: &mut Link, metrics: &mut Metrics, now: SimTime, delta: f64) {
    let dt = now.since(link.last_change);
    let secs = dt.as_secs_f64();
    link.busy_bytes += link.load * secs;
    link.last_change = now;
    let old_load = link.load;
    link.load += delta;
    if metrics.is_enabled() && dt > SimDuration::ZERO {
        let util = old_load / link.capacity;
        let name: &str = &link.name;
        metrics.observe_weighted("flow", "link_utilization", &[("link", name)], util, secs);
        if old_load > 0.0 {
            metrics.counter_add("flow", "link_busy_ps", &[("link", name)], dt.picos());
        }
    }
}

/// Re-rate `flow` at the bottleneck-fair rate, the min of its links'
/// cached shares, and move each link's load by the rate change.
fn rerate(flow: &mut Flow, links: &mut [Link], metrics: &mut Metrics, now: SimTime) {
    let mut rate = f64::INFINITY;
    for &(l, _) in flow.path.hops() {
        rate = rate.min(links[l.0].share);
    }
    for &(l, _) in flow.path.hops() {
        settle_link(&mut links[l.0], metrics, now, rate - flow.rate);
    }
    flow.rate = rate;
}

impl Kernel {
    /// Add a link with the given capacity (bytes/second) and one-way latency.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        capacity_bps: f64,
        latency: SimDuration,
    ) -> LinkId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive and finite"
        );
        self.flows.links.push(Link {
            name: name.into(),
            capacity: capacity_bps,
            latency,
            entries: Vec::new(),
            share: capacity_bps,
            delivered: 0,
            load: 0.0,
            peak_util: 0.0,
            busy_bytes: 0.0,
            last_change: SimTime::ZERO,
        });
        LinkId(self.flows.links.len() - 1)
    }

    /// Capacity of a link in bytes/second.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.flows.links[link.0].capacity
    }

    /// Change a link's capacity (bytes/second) mid-run — the degradation /
    /// repair hook used by fault injection.
    ///
    /// The link's utilization integral is settled at the *old* capacity
    /// first, then every flow currently crossing the link is re-settled at
    /// its old rate, re-rated against the new fair share, and has its
    /// completion re-projected — the same machinery a membership change
    /// uses, so the conservation invariants (busy-byte integral tracks
    /// delivered bytes, utilization ≤ 1) hold across the change. Flows not
    /// on this link are untouched: a flow's rate is the min of its links'
    /// shares, and only this link's share moved.
    ///
    /// Setting the current capacity is a no-op (no settlement, no events),
    /// so an installed-but-never-firing schedule keeps runs bit-identical.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive and finite"
        );
        if self.flows.links[link.0].capacity == capacity_bps {
            return;
        }
        let now = self.now();
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let l = &mut self.flows.links[link.0];
            // Flush the utilization integral while `capacity` still holds
            // the value the elapsed interval ran under.
            settle_link(l, &mut self.metrics, now, 0.0);
            l.capacity = capacity_bps;
            l.share = if l.entries.is_empty() {
                capacity_bps
            } else {
                capacity_bps / l.entries.len() as f64
            };
            affected.extend(l.entries.iter().map(|e| e.0));
        }
        self.reshare(&affected);
        affected.clear();
        self.flows.scratch = affected;
    }

    /// Change a link's one-way latency. Latency is charged once, up front,
    /// when a flow starts ([`Kernel::start_flow`]), so the new value applies
    /// only to flows started after this call; in-flight flows keep the
    /// latency they already paid.
    pub fn set_link_latency(&mut self, link: LinkId, latency: SimDuration) {
        self.flows.links[link.0].latency = latency;
    }

    /// One-way latency of a link.
    pub fn link_latency(&self, link: LinkId) -> SimDuration {
        self.flows.links[link.0].latency
    }

    /// Human-readable link name.
    pub fn link_name(&self, link: LinkId) -> &str {
        &self.flows.links[link.0].name
    }

    /// Total bytes delivered over a link so far.
    pub fn link_delivered(&self, link: LinkId) -> u64 {
        self.flows.links[link.0].delivered
    }

    /// Peak instantaneous utilization (sum of flow rates / capacity) seen on
    /// a link. Values above 1.0 indicate an over-allocation bug.
    pub fn link_peak_utilization(&self, link: LinkId) -> f64 {
        self.flows.links[link.0].peak_util
    }

    /// Bytes "scheduled" through the link according to the time-integral of
    /// its load. Should track [`Kernel::link_delivered`] closely; a large
    /// mismatch indicates settlement bugs.
    pub fn link_busy_bytes(&self, link: LinkId) -> f64 {
        self.flows.links[link.0].busy_bytes
    }

    /// Number of flows currently in the network (activated, not yet done).
    pub fn active_flows(&self) -> usize {
        self.flows.active
    }

    /// Sum of one-way latencies along `path`.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        path.iter().fold(SimDuration::ZERO, |acc, l| {
            acc + self.flows.links[l.0].latency
        })
    }

    /// Minimum capacity along `path` (the zero-contention bandwidth).
    pub fn path_capacity(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|l| self.flows.links[l.0].capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Start a transfer of `bytes` over `path`, running `on_done` when the
    /// last byte arrives. The path latency is charged up front (pipelined
    /// store-and-forward is not modeled; halo messages are large enough that
    /// latency is a small additive term). Zero-byte transfers still pay the
    /// latency.
    ///
    /// An empty path completes after zero time plus nothing — permitted for
    /// degenerate "local" transfers.
    pub fn start_flow(
        &mut self,
        path: &[LinkId],
        bytes: u64,
        on_done: impl FnOnce(&mut Kernel) + 'static,
    ) {
        if path.is_empty() {
            self.schedule_in(SimDuration::ZERO, on_done);
            return;
        }
        debug_assert!(
            path.iter()
                .all(|l| path.iter().filter(|m| *m == l).count() == 1),
            "flow paths must not repeat a link"
        );
        let latency = self.path_latency(path);
        let path = FlowPath::from_links(path);
        let on_done: Action = Box::new(on_done);
        // After the latency elapses, the flow joins the links and begins
        // consuming bandwidth.
        self.schedule_in(latency, move |k| k.activate_flow(path, bytes, on_done));
    }

    /// Join a flow onto its path links and give the affected set its first
    /// reshare. Runs after the path latency has elapsed.
    fn activate_flow(&mut self, path: FlowPath, bytes: u64, on_done: Action) {
        let now = self.now();
        let id = self.flows.alloc(Flow {
            path,
            remaining: bytes as f64,
            total: bytes,
            rate: 0.0,
            last_update: now,
            seq: UNTOUCHED,
            dirty: false,
            on_done: Some(on_done),
        });
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let net = &mut self.flows;
            // Split borrow: the flow lives in `net.flows`, membership in
            // `net.links`.
            let (links, flows) = (&mut net.links, &mut net.flows);
            let flow = flows[id.0].as_mut().expect("flow just allocated");
            for (hop, entry) in flow.path.hops_mut().iter_mut().enumerate() {
                let link = &mut links[entry.0 .0];
                affected.extend(link.entries.iter().map(|e| e.0));
                entry.1 = link.entries.len() as u32;
                link.entries.push((id, hop as u32));
                link.share = link.capacity / link.entries.len() as f64;
            }
        }
        affected.push(id);
        if self.metrics.is_enabled() {
            let flow = self.flows.flows[id.0]
                .as_ref()
                .expect("flow just allocated");
            for &(l, _) in flow.path.hops() {
                let name: &str = &self.flows.links[l.0].name;
                self.metrics
                    .gauge_add("flow", "link_active_flows", &[("link", name)], 1.0);
            }
            self.metrics.gauge_add("flow", "active_flows", &[], 1.0);
        }
        self.reshare(&affected);
        affected.clear();
        self.flows.scratch = affected;
    }

    /// Touch the `affected` flows after a share change on their links
    /// (duplicates welcome). Each flow's progress is settled at its old rate
    /// and the sequence number this call reserves becomes the one its
    /// completion will be keyed under; the re-rating itself waits for
    /// [`Kernel::flush_reshares`], which runs once per flow however many
    /// times the flow is touched before the clock advances or a rank
    /// resumes.
    ///
    /// Flows touched by one call share its sequence number and tie-break by
    /// `FlowId`: the order that consecutive numbers, handed out in ascending
    /// `FlowId`, would give them. A flow's `seq` doubles as its touch stamp:
    /// a duplicate entry finds it equal to the call's number and is
    /// skipped.
    ///
    /// A flow with no bytes left is re-rated and its completion keyed at
    /// once: it is the only projection that can land on the current instant
    /// (`SimDuration::from_secs_f64` rounds up), and keying it now keeps its
    /// place among the instant's events.
    fn reshare(&mut self, affected: &[FlowId]) {
        let now = self.now();
        let s = self.next_seq;
        self.next_seq += 1;
        let FlowNet {
            links,
            flows,
            dirty,
            heap,
            superseded,
            ..
        } = &mut self.flows;
        let metrics = &mut self.metrics;
        for &fid in affected {
            let flow = flows[fid.0].as_mut().expect("affected flow is live");
            if flow.seq == s {
                continue; // already touched by this call
            }
            flow.seq = s;
            // Settle progress at the old rate. Within one instant only the
            // first touch has `dt > 0`.
            let dt = now.since(flow.last_update).as_secs_f64();
            flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
            flow.last_update = now;
            if flow.remaining == 0.0 {
                debug_assert!(!flow.dirty, "drained flow left dirty");
                rerate(flow, links, metrics, now);
                let key = FlowKey {
                    at: now,
                    seq: s,
                    fid,
                };
                *superseded += u64::from(heap.set(key));
                dirty.push(fid);
            } else if !flow.dirty {
                flow.dirty = true;
                dirty.push(fid);
            }
        }
    }

    /// Re-rate every dirty flow once and key its completion under the
    /// sequence number of its last touch, moving its queued key in place;
    /// then sample the utilization peak of every link a flow touched since
    /// the last flush crosses.
    ///
    /// This is exact: inside one instant the touches settle no progress
    /// (`dt = 0`); every share change on a flow's links touches the flow,
    /// so its last touch saw the final shares and the rate computed here is
    /// the one that touch would have computed; and the reserved sequence
    /// number keeps every same-time tie-break. Only the order in which link
    /// loads are summed follows the touches, which moves diagnostics' low
    /// bits.
    ///
    /// The kernel flushes before its clock advances or it reports an empty
    /// queue ([`Kernel::step`]), before a rank resumes or `Sim::run`
    /// returns, and before [`Kernel::run_until`] returns, so rank code and
    /// callers never see a pending re-rating.
    #[inline(never)]
    pub(crate) fn flush_reshares(&mut self) {
        let now = self.now();
        let FlowNet {
            links,
            flows,
            dirty,
            heap,
            superseded,
            ..
        } = &mut self.flows;
        let metrics = &mut self.metrics;
        for &fid in dirty.iter() {
            let Some(flow) = flows[fid.0].as_mut().filter(|f| f.dirty) else {
                continue; // re-rated eagerly, or a duplicate entry
            };
            flow.dirty = false;
            rerate(flow, links, metrics, now);
            let eta = SimDuration::from_secs_f64(flow.remaining / flow.rate);
            assert!(eta > SimDuration::ZERO, "deferred completion landed on now");
            let key = FlowKey {
                at: now + eta,
                seq: flow.seq,
                fid,
            };
            *superseded += u64::from(heap.set(key));
        }
        // Peaks wait for the whole batch: mid-batch loads mix old and new
        // rates.
        for &fid in dirty.iter() {
            if let Some(flow) = flows[fid.0].as_ref() {
                for &(l, _) in flow.path.hops() {
                    let link = &mut links[l.0];
                    let u = link.load / link.capacity;
                    if u > link.peak_util {
                        link.peak_util = u;
                    }
                }
            }
        }
        dirty.clear();
    }

    /// Deliver a flow's last byte: detach it from its links, reshare the
    /// survivors, and run its callback. Called by the event loop when the
    /// flow's key pops from the flow heap and the flow is not dirty.
    pub(crate) fn finish_flow(&mut self, fid: FlowId) {
        let mut flow = self.flows.flows[fid.0].take().expect("flow vanished");
        self.flows.free.push(fid.0);
        self.flows.active -= 1;
        let now = self.now();
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let net = &mut self.flows;
            let (links, flows) = (&mut net.links, &mut net.flows);
            let metrics = &mut self.metrics;
            for (hop, &(l, pos)) in flow.path.hops().iter().enumerate() {
                let link = &mut links[l.0];
                let removed = link.entries.swap_remove(pos as usize);
                debug_assert_eq!(removed, (fid, hop as u32), "link entry out of sync");
                // The swapped-in entry moved; tell its owner.
                if let Some(&(moved, moved_hop)) = link.entries.get(pos as usize) {
                    flows[moved.0]
                        .as_mut()
                        .expect("dangling link entry")
                        .path
                        .set_pos(moved_hop as usize, pos);
                }
                link.share = if link.entries.is_empty() {
                    link.capacity
                } else {
                    link.capacity / link.entries.len() as f64
                };
                link.delivered += flow.total;
                settle_link(link, metrics, now, -flow.rate);
                if link.entries.is_empty() {
                    // Drop the rounding residue of the rate deltas: an idle
                    // link carries exactly no load.
                    link.load = 0.0;
                }
                if metrics.is_enabled() {
                    let name: &str = &links[l.0].name;
                    metrics.counter_add(
                        "flow",
                        "link_delivered_bytes",
                        &[("link", name)],
                        flow.total,
                    );
                    metrics.gauge_add("flow", "link_active_flows", &[("link", name)], -1.0);
                }
                affected.extend(links[l.0].entries.iter().map(|e| e.0));
            }
            if metrics.is_enabled() {
                metrics.gauge_add("flow", "active_flows", &[], -1.0);
            }
        }
        self.reshare(&affected);
        affected.clear();
        self.flows.scratch = affected;
        if let Some(cb) = flow.on_done.take() {
            cb(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::time::PS_PER_SEC;
    use std::cell::Cell;
    use std::rc::Rc;

    fn finish_time(k: &mut Kernel, done: &Rc<Cell<u64>>) -> f64 {
        k.run_to_completion();
        assert!(done.get() > 0, "flow never finished");
        k.now().as_secs_f64()
    }

    fn make_done(k: &mut Kernel) -> (Rc<Cell<u64>>, impl FnOnce(&mut Kernel) + 'static) {
        let _ = k;
        let done = Rc::new(Cell::new(0));
        let d2 = Rc::clone(&done);
        (done, move |k: &mut Kernel| {
            d2.set(k.now().picos().max(1));
        })
    }

    /// The indexed heap against a sorted reference. An LCG drives inserts,
    /// moves earlier, moves later and pops over a few `at` and `seq` values,
    /// so keys often tie on both and only `fid` orders them. Every pop must
    /// return the least queued `(at, seq, fid)`, and every stored position
    /// must point back at its flow's key.
    #[test]
    fn flow_heap_pops_in_key_order() {
        const SLOTS: usize = 48;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut heap = FlowHeap::default();
        let mut queued: Vec<Option<FlowKey>> = vec![None; SLOTS];
        let least = |queued: &[Option<FlowKey>]| queued.iter().flatten().min().copied();
        // Inserts, moves earlier, moves later (or to the same key), pops.
        let mut ops = [0usize; 4];
        for _ in 0..20_000 {
            if below(4) == 0 {
                let want = least(&queued);
                assert_eq!(heap.pop(), want);
                if let Some(key) = want {
                    queued[key.fid.0] = None;
                    ops[3] += 1;
                }
            } else {
                let slot = below(SLOTS as u64) as usize;
                let key = FlowKey {
                    at: SimTime::ZERO + SimDuration::from_picos(below(6)),
                    seq: below(4),
                    fid: FlowId(slot),
                };
                assert_eq!(heap.set(key), queued[slot].is_some());
                ops[match queued[slot] {
                    None => 0,
                    Some(old) if key < old => 1,
                    Some(_) => 2,
                }] += 1;
                queued[slot] = Some(key);
            }
            assert_eq!(heap.keys.len(), queued.iter().flatten().count());
            for (i, key) in heap.keys.iter().enumerate() {
                assert_eq!(heap.pos[key.fid.0] as usize, i, "position of {key:?}");
                assert_eq!(queued[key.fid.0], Some(*key));
            }
            for (slot, &pos) in heap.pos.iter().enumerate() {
                assert_eq!(pos == NOT_QUEUED, queued[slot].is_none(), "slot {slot}");
            }
        }
        while let Some(key) = heap.pop() {
            assert_eq!(Some(key), least(&queued));
            queued[key.fid.0] = None;
        }
        assert!(queued.iter().all(Option::is_none));
        assert!(ops.iter().all(|&n| n > 1_000), "ops {ops:?}");
    }

    #[test]
    fn solo_flow_runs_at_link_capacity() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 200, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 2.0).abs() < 1e-9, "expected 2s, got {t}");
    }

    #[test]
    fn latency_is_charged_up_front() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_secs_f64(0.5));
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 1.5).abs() < 1e-9, "expected 1.5s, got {t}");
    }

    #[test]
    fn two_flows_share_a_link_evenly() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        let (done2, cb2) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        k.start_flow(&[l], 100, cb2);
        k.run_to_completion();
        // Each gets 50 B/s -> both finish at t=2.
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 2.0).abs() < 1e-9, "t1={t1}");
        assert!((t2 - 2.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        // second flow arrives at t=0.5 (when flow 1 has 50 bytes left)
        let (done2, cb2) = make_done(&mut k);
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.start_flow(&[l], 100, cb2);
        });
        k.run_to_completion();
        // flow1: 50B at 100B/s then 50B at 50B/s -> done at t=1.5
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 1.5).abs() < 1e-6, "t1={t1}");
        // flow2: 50B at 50B/s (until t=1.5), then 50B at 100B/s -> t=2.0
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t2 - 2.0).abs() < 1e-6, "t2={t2}");
    }

    #[test]
    fn multi_link_path_bottlenecked_by_slowest() {
        let mut k = Kernel::new();
        let fast = k.add_link("fast", 1000.0, SimDuration::ZERO);
        let slow = k.add_link("slow", 10.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[fast, slow], 100, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 10.0).abs() < 1e-9, "expected 10s, got {t}");
    }

    #[test]
    fn empty_path_completes_immediately() {
        let mut k = Kernel::new();
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[], 12345, cb);
        k.run_to_completion();
        assert_eq!(k.now(), SimTime::ZERO);
        assert!(done.get() > 0);
    }

    #[test]
    fn zero_byte_flow_pays_latency_only() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_micros(7));
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 0, cb);
        k.run_to_completion();
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(7));
        assert!(done.get() > 0);
    }

    #[test]
    fn delivered_bytes_accumulate() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        for _ in 0..3 {
            k.start_flow(&[l], 50, |_| {});
        }
        k.run_to_completion();
        assert_eq!(k.link_delivered(l), 150);
        assert_eq!(k.active_flows(), 0);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::ZERO);
        let b = k.add_link("b", 100.0, SimDuration::ZERO);
        let (done_a, cb_a) = make_done(&mut k);
        let (done_b, cb_b) = make_done(&mut k);
        k.start_flow(&[a], 100, cb_a);
        k.start_flow(&[b], 100, cb_b);
        k.run_to_completion();
        let ta = done_a.get() as f64 / PS_PER_SEC as f64;
        let tb = done_b.get() as f64 / PS_PER_SEC as f64;
        assert!((ta - 1.0).abs() < 1e-9);
        assert!((tb - 1.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_conserve_bytes() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let total = Rc::new(Cell::new(0));
        let mut expected = 0u64;
        for i in 1..=64u64 {
            let bytes = i * 1000;
            expected += bytes;
            let total = Rc::clone(&total);
            // stagger starts
            k.schedule_in(SimDuration::from_nanos(i * 100), move |k| {
                k.start_flow(&[l], bytes, move |_| {
                    total.set(total.get() + bytes);
                });
            });
        }
        k.run_to_completion();
        assert_eq!(total.get(), expected);
        assert_eq!(k.link_delivered(l), expected);
        assert_eq!(k.active_flows(), 0);
    }

    #[test]
    fn capacity_cut_mid_flow_slows_completion() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        // At t=0.5 the flow has 50 B left; cut to 25 B/s -> 2 more seconds.
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(l, 25.0);
        });
        let t = finish_time(&mut k, &done);
        assert!((t - 2.5).abs() < 1e-9, "expected 2.5s, got {t}");
        assert_eq!(k.link_capacity(l), 25.0);
    }

    #[test]
    fn capacity_restore_speeds_completion_back_up() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 200, cb);
        // 0..0.5s at 100 B/s (50 B), 0.5..1.5s at 50 B/s (50 B), then back
        // to 100 B/s for the last 100 B -> finish at t=2.5.
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(l, 50.0);
        });
        k.schedule_in(SimDuration::from_secs_f64(1.5), move |k| {
            k.set_link_capacity(l, 100.0);
        });
        let t = finish_time(&mut k, &done);
        assert!((t - 2.5).abs() < 1e-9, "expected 2.5s, got {t}");
    }

    #[test]
    fn capacity_change_affects_only_flows_on_the_link() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::ZERO);
        let b = k.add_link("b", 100.0, SimDuration::ZERO);
        let (done_a, cb_a) = make_done(&mut k);
        let (done_b, cb_b) = make_done(&mut k);
        k.start_flow(&[a], 100, cb_a);
        k.start_flow(&[b], 100, cb_b);
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(a, 10.0);
        });
        k.run_to_completion();
        let ta = done_a.get() as f64 / PS_PER_SEC as f64;
        let tb = done_b.get() as f64 / PS_PER_SEC as f64;
        // a: 50 B at 100 B/s then 50 B at 10 B/s -> 5.5s; b untouched.
        assert!((ta - 5.5).abs() < 1e-6, "ta={ta}");
        assert!((tb - 1.0).abs() < 1e-9, "tb={tb}");
    }

    #[test]
    fn capacity_change_conserves_bytes_and_utilization() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let mut expected = 0u64;
        for i in 1..=32u64 {
            let bytes = i * 10_000;
            expected += bytes;
            k.schedule_in(SimDuration::from_nanos(i * 300), move |k| {
                k.start_flow(&[l], bytes, |_| {});
            });
        }
        // Degrade and restore while the flows are in flight.
        k.schedule_in(SimDuration::from_micros(20), move |k| {
            k.set_link_capacity(l, 2e8);
        });
        k.schedule_in(SimDuration::from_micros(400), move |k| {
            k.set_link_capacity(l, 1e9);
        });
        k.run_to_completion();
        assert_eq!(k.link_delivered(l), expected);
        assert_eq!(k.active_flows(), 0);
        let busy = k.link_busy_bytes(l);
        let delivered = expected as f64;
        assert!(
            (busy - delivered).abs() < delivered * 1e-6,
            "busy-byte integral {busy} diverged from delivered {delivered}"
        );
        let peak = k.link_peak_utilization(l);
        assert!(peak <= 1.0 + 1e-9, "peak utilization {peak} > 1");
    }

    #[test]
    fn setting_same_capacity_is_bit_identical_noop() {
        let run = |touch: bool| {
            let mut k = Kernel::new();
            let l = k.add_link("l", 12.5e9, SimDuration::from_nanos(500));
            let (done, cb) = make_done(&mut k);
            k.start_flow(&[l], 1_000_000, cb);
            k.start_flow(&[l], 777_777, |_| {});
            if touch {
                k.schedule_in(SimDuration::from_micros(10), move |k| {
                    k.set_link_capacity(l, 12.5e9);
                });
            }
            k.run_to_completion();
            done.get()
        };
        assert_eq!(
            run(false),
            run(true),
            "no-op capacity set perturbed completion time"
        );
    }

    #[test]
    fn latency_change_applies_to_new_flows_only() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_secs_f64(0.25));
        let (done, cb) = make_done(&mut k);
        // In-flight flow keeps the latency it paid at start.
        k.start_flow(&[l], 100, cb);
        k.schedule_in(SimDuration::from_secs_f64(0.1), move |k| {
            k.set_link_latency(l, SimDuration::from_secs_f64(1.0));
        });
        let (done2, cb2) = make_done(&mut k);
        k.schedule_in(SimDuration::from_secs_f64(2.0), move |k| {
            assert_eq!(k.link_latency(l), SimDuration::from_secs_f64(1.0));
            k.start_flow(&[l], 100, cb2);
        });
        k.run_to_completion();
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 1.25).abs() < 1e-9, "t1={t1}");
        assert!((t2 - 4.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn path_helpers() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::from_micros(1));
        let b = k.add_link("b", 50.0, SimDuration::from_micros(2));
        assert_eq!(k.path_latency(&[a, b]), SimDuration::from_micros(3));
        assert_eq!(k.path_capacity(&[a, b]), 50.0);
        assert_eq!(k.link_name(a), "a");
        assert_eq!(k.link_capacity(b), 50.0);
    }
}

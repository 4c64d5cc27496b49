//! Communication/computation overlap for time-stepped stencils.
//!
//! A stencil update of radius `r` needs halo data only for the cells within
//! `r` of a subdomain face. Everything deeper — the *interior* — depends on
//! resident data alone, so it can be computed while the halo exchange is in
//! flight. [`DistributedDomain::step_overlapped`] exploits that split:
//!
//! 1. issue the exchange asynchronously ([`DistributedDomain::exchange_start`]);
//! 2. launch the interior update on each subdomain's compute stream;
//! 3. drain the exchange ([`DistributedDomain::exchange_finish`]);
//! 4. launch the boundary update (now that halos are unpacked);
//! 5. sync compute streams.
//!
//! [`DistributedDomain::step_sequential`] is the baseline: exchange to
//! completion, then one full-volume update. Both variants move **exactly the
//! same halo bytes** through exactly the same transports — only the relative
//! ordering of compute and communication differs — so per-iteration time
//! comparisons between them isolate the overlap win (the `overlap` bench
//! pins this with NIC byte counters).
//!
//! Compute cost is modeled as memory traffic: a cell costs `bytes_per_cell`
//! of device bandwidth (for a memory-bound stencil, roughly
//! `quantities * elem_size * (1 + stencil points reread from cache misses)`;
//! the absolute value only scales the compute/communication ratio).

use mpisim::RankCtx;

use crate::domain::DistributedDomain;
use crate::local::LocalDomain;

/// Split a subdomain's cells into halo-independent interior and
/// halo-dependent boundary counts.
fn split_cells(l: &LocalDomain) -> (u64, u64) {
    let e = l.extent();
    let neg = l.radius().neg();
    let pos = l.radius().pos();
    let total = e[0] * e[1] * e[2];
    let mut interior = 1u64;
    for a in 0..3 {
        interior *= e[a].saturating_sub(neg[a] + pos[a]);
    }
    (interior, total - interior)
}

impl DistributedDomain {
    /// One non-overlapped time step: full halo exchange, then a single
    /// full-volume stencil update per subdomain.
    pub fn step_sequential(&self, ctx: &RankCtx, bytes_per_cell: u64) {
        self.exchange(ctx);
        for l in self.locals() {
            let (i, b) = split_cells(l);
            l.launch_compute(ctx.sim(), "stencil", (i + b) * bytes_per_cell, None);
        }
        for l in self.locals() {
            l.sync_compute(ctx.sim());
        }
    }

    /// One overlapped time step: the interior update runs while the halo
    /// exchange is in flight; the boundary update follows once halos have
    /// been unpacked. Delivered halo bytes are identical to
    /// [`Self::step_sequential`].
    pub fn step_overlapped(&self, ctx: &RankCtx, bytes_per_cell: u64) {
        let handle = self.exchange_start(ctx);
        for l in self.locals() {
            let (i, _) = split_cells(l);
            if i > 0 {
                l.launch_compute(ctx.sim(), "stencil-interior", i * bytes_per_cell, None);
            }
        }
        self.exchange_finish(ctx, handle);
        for l in self.locals() {
            let (_, b) = split_cells(l);
            if b > 0 {
                l.launch_compute(ctx.sim(), "stencil-boundary", b * bytes_per_cell, None);
            }
        }
        for l in self.locals() {
            l.sync_compute(ctx.sim());
        }
    }
}

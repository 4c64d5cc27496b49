//! Deep halos / temporal blocking: trade halo-exchange *size* for exchange
//! *frequency* (paper §VI, after SkelCL): allocate a radius-K halo for a
//! radius-1 stencil and exchange only every K steps, computing shrinking
//! ghost rings in between. Fewer synchronization points, super-linearly
//! more data per exchange — this example measures the trade-off and
//! verifies both schedules bit-for-bit against a serial reference.
//!
//! ```text
//! cargo run --release -p stencil-examples --bin deep_halo
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mpisim::{run_world, RankCtx, WorldConfig};
use stencil_core::{DistributedDomain, DomainBuilder, Methods, Neighborhood};
use stencil_examples::{jacobi_signed_region_work, SerialGrid};
use topo::summit::summit_cluster;

const DOMAIN: [u64; 3] = [72, 60, 48];
const STEPS: usize = 8; // must be a multiple of every tested K
const K: f32 = 0.07;

fn init(p: [u64; 3]) -> f32 {
    ((p[0] * 13 + p[1] * 7 + p[2] * 3) % 89) as f32
}

/// Run `STEPS` Jacobi steps exchanging every `period` steps with halo depth
/// `period` (period = 1 is the ordinary schedule). Returns elapsed virtual
/// seconds.
fn run_schedule(ctx: &RankCtx, dom: &DistributedDomain, period: usize) -> f64 {
    for local in dom.locals() {
        local.fill(0, init);
    }
    ctx.barrier();
    let t0 = ctx.wtime();
    let mut step = 0;
    while step < STEPS {
        dom.exchange(ctx); // refreshes halos to depth `period`
        for sub in 0..period {
            let (q_src, q_dst) = ((step + sub) % 2, (step + sub + 1) % 2);
            // After `sub` sub-steps the valid ghost depth has shrunk by
            // `sub`; compute the interior plus the still-computable rings so
            // the next sub-step has valid neighbors without communication.
            let ghost = (period - 1 - sub) as i64;
            let kernels: Vec<_> = dom
                .locals()
                .iter()
                .map(|l| {
                    let e = l.interior.extent;
                    let lo = [-ghost, -ghost, -ghost];
                    let hi = [
                        e[0] as i64 + ghost,
                        e[1] as i64 + ghost,
                        e[2] as i64 + ghost,
                    ];
                    let cells = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
                    l.launch_compute(
                        ctx.sim(),
                        "jacobi-deep",
                        cells as u64 * 32,
                        Some(jacobi_signed_region_work(l, q_src, q_dst, K, lo, hi)),
                    )
                })
                .collect();
            ctx.sim().wait_all(&kernels);
        }
        step += period;
        ctx.barrier();
    }
    ctx.wtime() - t0
}

fn verify(dom: &DistributedDomain) -> f32 {
    let mut reference = SerialGrid::init(DOMAIN, init);
    for _ in 0..STEPS {
        reference.jacobi_step(K);
    }
    let q_final = STEPS % 2;
    let mut worst = 0.0f32;
    for local in dom.locals() {
        let o = local.interior.origin;
        let e = local.interior.extent;
        for z in 0..e[2] {
            for y in 0..e[1] {
                for x in 0..e[0] {
                    let got = local.get_global_f32(q_final, [o[0] + x, o[1] + y, o[2] + z]);
                    let want =
                        reference.at((o[0] + x) as i64, (o[1] + y) as i64, (o[2] + z) as i64);
                    worst = worst.max((got - want).abs());
                }
            }
        }
    }
    worst
}

/// Per-configuration outcome: (exchange period, virtual seconds, max error
/// vs the serial reference, plan summary).
type RunResult = (usize, f64, f32, String);

fn main() {
    let results: Rc<RefCell<Vec<RunResult>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&results);
    run_world(WorldConfig::new(summit_cluster(1), 6), move |ctx| {
        for period in [1usize, 2, 4] {
            // One domain per period: the halo depth is the exchange period.
            let dom = DomainBuilder::new(DOMAIN)
                .radius(period as u64)
                .quantities(2)
                .neighborhood(Neighborhood::Full26)
                .methods(Methods::all())
                .build(ctx);
            let dt = run_schedule(ctx, &dom, period);
            let err = verify(&dom);
            if ctx.rank() == 0 {
                r2.borrow_mut()
                    .push((period, dt, err, dom.plan_summary().to_string()));
            }
            ctx.barrier();
        }
    });
    println!("deep_halo: {STEPS} Jacobi steps on {DOMAIN:?}, 1 node x 6 ranks");
    println!("(halo depth = exchange period; ghost rings computed redundantly in between)\n");
    for (period, dt, err, plan) in results.borrow().iter() {
        println!(
            "  exchange every {period} step(s), halo depth {period}: {:8.3} ms   err {err:e}",
            dt * 1e3
        );
        println!("      {plan}");
        assert_eq!(*err, 0.0, "deep-halo schedule must match the reference");
    }
    println!("\n  OK: all schedules bit-identical to the serial reference;");
    println!("  the sweet spot depends on message sizes vs per-exchange latency,");
    println!("  exactly the trade-off the paper's §VI describes.");
}

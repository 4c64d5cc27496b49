//! overlap — per-iteration stencil *step* time across transports and
//! schedules: the repo's headline metric, pushed past the nonblocking
//! frontier.
//!
//! Grid: transport (staged nonblocking / persistent channels / partitioned
//! channels) × schedule (sequential / comm-compute overlapped, see
//! `stencil_core::overlap`) × node count, on weak-scaled Summit shapes with
//! rendezvous-size faces — the regime where Collom et al.'s persistent and
//! partitioned transports pay off (docs/TRANSPORTS.md).
//!
//! Every cell moves **identical halo bytes** (pinned via NIC byte counters);
//! only per-iteration virtual time differs. Results are deterministic:
//! re-running this binary reproduces the committed artifact bit-for-bit on
//! the same code.
//!
//! Flags:
//! * `--quick`      2-node smoke grid (CI).
//! * `--json PATH`  write the grid as a JSON artifact (`BENCH_pr9.json`).
//! * `--validate`   exit non-zero unless, at the largest node count,
//!   persistent beats staged nonblocking and the overlapped schedule beats
//!   sequential (both per-iteration), and NIC bytes match across every
//!   transport and schedule.
//! * `--max-nodes N` cap the sweep (default 64; at least 4, its smallest
//!   point).

use std::cell::RefCell;
use std::rc::Rc;

use gpusim::DataMode;
use mpisim::{run_world, WorldConfig};
use stencil_bench::weak_scaling_extent;
use stencil_core::{DomainBuilder, Methods, Neighborhood};
use topo::summit::summit_cluster;

const RPN: usize = 6;
/// Per-GPU cells along each axis (weak scaling), sized so faces exceed the
/// eager threshold: staged pays the rendezvous every iteration, persistent
/// only on round 0.
const PER_GPU: u64 = 24;
/// Modeled compute traffic per cell per step (bytes of device bandwidth) —
/// sized so interior compute is comparable to the exchange, the regime
/// where overlap matters.
const BYTES_PER_CELL: u64 = 2000;
const STEPS: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Transport {
    Staged,
    Persistent,
    Partitioned,
}

impl Transport {
    fn label(self) -> &'static str {
        match self {
            Transport::Staged => "staged",
            Transport::Persistent => "persistent",
            Transport::Partitioned => "partitioned",
        }
    }

    fn methods(self) -> Methods {
        match self {
            Transport::Staged => Methods::all(),
            Transport::Persistent => Methods::all().with_persistent(),
            Transport::Partitioned => Methods::all().with_partitioned(),
        }
    }
}

struct Row {
    nodes: usize,
    transport: &'static str,
    mode: &'static str,
    per_iter_s: f64,
    nic_bytes: u64,
    plan: String,
}

fn run_cell(nodes: usize, transport: Transport, overlapped: bool) -> Row {
    let extent = weak_scaling_extent(PER_GPU, nodes * RPN);
    let methods = transport.methods();
    let cfg = WorldConfig::new(summit_cluster(nodes), RPN)
        .data_mode(DataMode::Virtual)
        .mpi_persistent(transport == Transport::Persistent)
        .mpi_partitioned(transport == Transport::Partitioned);
    let out: Rc<RefCell<(f64, String)>> = Rc::new(RefCell::new((0.0, String::new())));
    let o = Rc::clone(&out);
    let rep = run_world(cfg, move |ctx| {
        let dom = DomainBuilder::new([extent; 3])
            .radius(2)
            .quantities(2)
            .neighborhood(Neighborhood::Full26)
            .methods(methods)
            .build(ctx);
        ctx.barrier();
        // Warm-up step: channels pay their one-time match here, exactly as a
        // real solver pays it outside the timed loop.
        if overlapped {
            dom.step_overlapped(ctx, BYTES_PER_CELL);
        } else {
            dom.step_sequential(ctx, BYTES_PER_CELL);
        }
        ctx.barrier();
        let t0 = ctx.wtime();
        for _ in 0..STEPS {
            if overlapped {
                dom.step_overlapped(ctx, BYTES_PER_CELL);
            } else {
                dom.step_sequential(ctx, BYTES_PER_CELL);
            }
            ctx.barrier();
        }
        if ctx.rank() == 0 {
            let mut g = o.borrow_mut();
            g.0 = (ctx.wtime() - t0) / STEPS as f64;
            g.1 = dom.plan_summary().to_string();
        }
    });
    let (per_iter_s, plan) = out.borrow().clone();
    Row {
        nodes,
        transport: transport.label(),
        mode: if overlapped {
            "overlapped"
        } else {
            "sequential"
        },
        per_iter_s,
        nic_bytes: rep.nic_injected.iter().sum(),
        plan,
    }
}

fn find<'a>(rows: &'a [Row], nodes: usize, transport: &str, mode: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.nodes == nodes && r.transport == transport && r.mode == mode)
        .unwrap()
}

/// The pins `--validate` enforces. `strict` (non-quick, >= 64 nodes) also
/// demands minimum improvement margins.
fn validate(rows: &[Row], top: usize, strict: bool) -> Result<(), String> {
    // Identical delivered bytes: every transport and schedule at a given
    // node count injects exactly the same NIC traffic.
    for r in rows {
        let base = find(rows, r.nodes, "staged", "sequential");
        if r.nic_bytes != base.nic_bytes {
            return Err(format!(
                "NIC bytes diverge at {} nodes: {}/{} moved {} vs staged/sequential {}",
                r.nodes, r.transport, r.mode, r.nic_bytes, base.nic_bytes
            ));
        }
    }
    let staged = find(rows, top, "staged", "sequential").per_iter_s;
    let persistent = find(rows, top, "persistent", "sequential").per_iter_s;
    let overlapped = find(rows, top, "persistent", "overlapped").per_iter_s;
    // Quick mode (tiny grids) only demands "no worse"; the full sweep pins
    // real margins at scale.
    let (p_margin, o_margin) = if strict { (0.03, 0.05) } else { (0.0, 0.0) };
    if persistent >= staged * (1.0 - p_margin) {
        return Err(format!(
            "persistent must beat staged nonblocking by >= {:.0}% at {top} nodes: \
             {persistent:.6}s vs {staged:.6}s",
            p_margin * 100.0
        ));
    }
    if overlapped >= persistent * (1.0 - o_margin) {
        return Err(format!(
            "overlap must beat the sequential schedule by >= {:.0}% at {top} nodes: \
             {overlapped:.6}s vs {persistent:.6}s",
            o_margin * 100.0
        ));
    }
    Ok(())
}

fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\n  \"bench\": \"overlap\",\n  \"schema_version\": 1,\n");
    s.push_str(&format!(
        "  \"per_gpu_extent\": {PER_GPU},\n  \"bytes_per_cell\": {BYTES_PER_CELL},\n  \"steps\": {STEPS},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"nodes\": {}, \"transport\": \"{}\", \"mode\": \"{}\", \
             \"per_iter_s\": {:.9}, \"nic_bytes\": {}}}{}\n",
            r.nodes,
            r.transport,
            r.mode,
            r.per_iter_s,
            r.nic_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The node counts of the full sweep; `--max-nodes` caps it.
const SWEEP: [usize; 3] = [4, 16, 64];

struct Args {
    quick: bool,
    validate: bool,
    json: Option<String>,
    max_nodes: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        validate: false,
        json: None,
        max_nodes: 64,
    };
    let mut i = 0;
    while i < argv.len() {
        let operand = |i: usize| {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--validate" => {
                args.validate = true;
                i += 1;
            }
            "--json" => {
                args.json = Some(operand(i)?.clone());
                i += 2;
            }
            "--max-nodes" => {
                let n = operand(i)?;
                args.max_nodes = n
                    .parse()
                    .map_err(|_| format!("--max-nodes N: {n} is not a node count"))?;
                i += 2;
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (expected --quick / --validate / --json PATH / --max-nodes N)"
                ))
            }
        }
    }
    if !args.quick && args.max_nodes < SWEEP[0] {
        return Err(format!(
            "--max-nodes {} is below the sweep's smallest point ({} nodes)",
            args.max_nodes, SWEEP[0]
        ));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| panic!("{e}"));

    let node_counts: Vec<usize> = if args.quick {
        vec![2]
    } else {
        SWEEP.into_iter().filter(|&n| n <= args.max_nodes).collect()
    };
    let transports = [
        Transport::Staged,
        Transport::Persistent,
        Transport::Partitioned,
    ];

    println!("overlap: per-iteration step time, transport x schedule x nodes");
    println!(
        "  {:>5}  {:>12}  {:>10}  {:>12}  {:>14}",
        "nodes", "transport", "mode", "per-iter", "vs staged/seq"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &nodes in &node_counts {
        for &t in &transports {
            for overlapped in [false, true] {
                let row = run_cell(nodes, t, overlapped);
                let base = rows
                    .iter()
                    .find(|r| r.nodes == nodes && r.transport == "staged" && r.mode == "sequential")
                    .map(|r| r.per_iter_s)
                    .unwrap_or(row.per_iter_s);
                println!(
                    "  {:>5}  {:>12}  {:>10}  {:>9.3} ms  {:>13.2}x",
                    row.nodes,
                    row.transport,
                    row.mode,
                    row.per_iter_s * 1e3,
                    base / row.per_iter_s
                );
                rows.push(row);
            }
        }
    }
    println!("\nplan at {} nodes: {}", node_counts[0], rows[0].plan);

    if let Some(path) = args.json {
        std::fs::write(&path, to_json(&rows)).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("results written to {path}");
    }
    if args.validate {
        let top = *node_counts.last().expect("the sweep has a point");
        let strict = !args.quick && top >= 64;
        match validate(&rows, top, strict) {
            Ok(()) => println!(
                "validate: OK at {top} nodes ({})",
                if strict { "strict margins" } else { "quick" }
            ),
            Err(e) => {
                eprintln!("validate: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_names_a_bad_max_nodes() {
        assert_eq!(
            parse(&["--max-nodes"]).err().as_deref(),
            Some("--max-nodes needs a value")
        );
        assert_eq!(
            parse(&["--max-nodes", "2"]).err().as_deref(),
            Some("--max-nodes 2 is below the sweep's smallest point (4 nodes)")
        );
        assert_eq!(parse(&["--max-nodes", "4"]).map(|a| a.max_nodes), Ok(4));
        // `--quick` runs its own 2-node grid, so the floor does not apply.
        assert!(parse(&["--quick", "--max-nodes", "2"]).is_ok());
    }
}

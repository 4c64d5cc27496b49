//! Fig. 3: communication volume of alternative partitions of one 2D domain.
//!
//! The paper illustrates that for a fixed partition count, minimizing
//! subdomain surface-to-volume ratio minimizes total exchanged data:
//! a 2×2 split of a square beats 4×1, and 3×3 beats 9×1.

use stencil_core::dim3::Neighborhood;
use stencil_core::{Partition, Radius};

/// Total bytes exchanged per halo exchange across all subdomains (one
/// quantity, `r`-cell halos, 4-byte cells), counting every directed
/// transfer with periodic boundaries.
fn total_exchange_volume(p: &Partition, r: u64) -> u64 {
    let radius = Radius::constant(r);
    let mut total = 0u64;
    for (n, g) in p.all_subdomains() {
        let b = p.gpu_box(n, g);
        for d in Neighborhood::Full26.directions() {
            // 2D domains: skip z exchanges (extent 1 slab would still wrap,
            // matching the figure's 2D accounting when z dirs are excluded).
            if d.0[2] != 0 {
                continue;
            }
            let e = radius.halo_extent(b.extent, d);
            total += e[0] * e[1] * e[2] * 4;
        }
    }
    total
}

fn main() {
    stencil_bench::no_args();
    let domain = [60u64, 60, 1];
    let r = 1;
    println!("Fig. 3 — total exchanged bytes for partitions of a 60x60 domain (r={r})");
    println!("---------------------------------------------------------------------");
    let cases = [
        ("2x2 (chosen for 4)", [2usize, 2, 1]),
        ("4x1", [4, 1, 1]),
        ("3x3 (chosen for 9)", [3, 3, 1]),
        ("9x1", [9, 1, 1]),
    ];
    let mut results = Vec::new();
    for (name, dims) in cases {
        let p = Partition::with_dims(domain, [1, 1, 1], dims);
        let v = total_exchange_volume(&p, r);
        let b = p.gpu_box([0, 0, 0], [0, 0, 0]);
        println!(
            "  {:<20} subdomain {:>3}x{:<3} volume/subdomain {:>5}  total exchange {:>8} B",
            name,
            b.extent[0],
            b.extent[1],
            b.volume(),
            v
        );
        results.push((name, v));
    }
    println!();
    // The automatic chooser must pick the square-ish splits.
    let auto4 = Partition::new(domain, 1, 4);
    let auto9 = Partition::new(domain, 1, 9);
    println!(
        "  choose_dims picks {:?} for 4 parts, {:?} for 9 parts",
        auto4.gpu_dims, auto9.gpu_dims
    );
    assert!(results[0].1 < results[1].1, "2x2 must beat 4x1");
    assert!(results[2].1 < results[3].1, "3x3 must beat 9x1");
    assert_eq!(auto4.gpu_dims, [2, 2, 1]);
    assert_eq!(auto9.gpu_dims, [3, 3, 1]);
    println!("  OK: lower surface-to-volume partitions exchange less data");
}

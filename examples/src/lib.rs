//! Shared helpers for the example applications: host-side stencil compute
//! kernels (run as simulated-GPU work closures) and serial references for
//! verification.

#![warn(missing_docs)]

use gpusim::Work;
use stencil_core::LocalDomain;

/// Read an f32 from a raw local array.
#[inline]
fn get(arr: &[u8], dims: [u64; 3], x: u64, y: u64, z: u64) -> f32 {
    let i = (((z * dims[1] + y) * dims[0] + x) * 4) as usize;
    f32::from_le_bytes([arr[i], arr[i + 1], arr[i + 2], arr[i + 3]])
}

/// Write an f32 into a raw local array.
#[inline]
fn put(arr: &mut [u8], dims: [u64; 3], x: u64, y: u64, z: u64, v: f32) {
    let i = (((z * dims[1] + y) * dims[0] + x) * 4) as usize;
    arr[i..i + 4].copy_from_slice(&v.to_le_bytes());
}

/// Bytes of memory traffic a 7-point interior update touches (for the
/// simulated kernel's cost model): 8 reads/writes per cell.
pub fn jacobi_traffic(local: &LocalDomain) -> u64 {
    local.interior.extent.iter().product::<u64>() * 8 * 4
}

/// The shell of an interior box: the cell ranges *not* covered by the inner
/// box `[w, ext-w)` on every axis, expressed as up to 6 disjoint sub-boxes.
pub fn shell_boxes(ext: [u64; 3], w: u64) -> Vec<([u64; 3], [u64; 3])> {
    if ext.iter().any(|&e| e <= 2 * w) {
        return vec![([0, 0, 0], ext)]; // too thin: everything is shell
    }
    vec![
        // z slabs
        ([0, 0, 0], [ext[0], ext[1], w]),
        ([0, 0, ext[2] - w], [ext[0], ext[1], ext[2]]),
        // y slabs of the middle
        ([0, 0, w], [ext[0], w, ext[2] - w]),
        ([0, ext[1] - w, w], [ext[0], ext[1], ext[2] - w]),
        // x slabs of the core
        ([0, w, w], [w, ext[1] - w, ext[2] - w]),
        ([ext[0] - w, w, w], [ext[0], ext[1] - w, ext[2] - w]),
    ]
}

/// Build the simulated-kernel work closure for one 7-point Jacobi step,
/// `dst = (1-6k)·src + k·(sum of 6 face neighbors)`, over the box
/// `lo..hi`, reading halos exchanged beforehand. Bounds are
/// interior-relative and signed: `[0; 3]..extent` is the whole interior; a
/// sub-box splits a step into an inner region (computable while halos are
/// in flight) and the boundary [`shell_boxes`]; bounds past the interior
/// reach into the halo (temporal blocking / deep-halo schedules compute
/// ghost rings to skip exchanges). Panics unless every read stays inside
/// the allocated array.
pub fn jacobi_signed_region_work(
    local: &LocalDomain,
    q_src: usize,
    q_dst: usize,
    k: f32,
    lo: [i64; 3],
    hi: [i64; 3],
) -> Work {
    let src = local.array(q_src).clone();
    let dst = local.array(q_dst).clone();
    let dims = local.array_dims();
    let off = local.radius().neg();
    for a in 0..3 {
        assert!(
            lo[a] - 1 + off[a] as i64 >= 0,
            "region reads below the array"
        );
        assert!(
            ((hi[a] + off[a] as i64) as u64) < dims[a],
            "region reads beyond the array"
        );
    }
    Box::new(move || {
        if !src.has_data() {
            return;
        }
        src.with_data(|s| {
            dst.with_data(|d| {
                for z in lo[2]..hi[2] {
                    for y in lo[1]..hi[1] {
                        for x in lo[0]..hi[0] {
                            let ax = (x + off[0] as i64) as u64;
                            let ay = (y + off[1] as i64) as u64;
                            let az = (z + off[2] as i64) as u64;
                            let c = get(s, dims, ax, ay, az);
                            let n = get(s, dims, ax - 1, ay, az)
                                + get(s, dims, ax + 1, ay, az)
                                + get(s, dims, ax, ay - 1, az)
                                + get(s, dims, ax, ay + 1, az)
                                + get(s, dims, ax, ay, az - 1)
                                + get(s, dims, ax, ay, az + 1);
                            put(d, dims, ax, ay, az, (1.0 - 6.0 * k) * c + k * n);
                        }
                    }
                }
            })
        });
    })
}

/// Build the work closure for one leapfrog acoustic-wave step:
/// `next = 2·cur − prev + c²·laplacian(cur)` over the interior.
pub fn wave_step_work(
    local: &LocalDomain,
    q_prev: usize,
    q_cur: usize,
    q_next: usize,
    c2: f32,
) -> Work {
    let prev = local.array(q_prev).clone();
    let cur = local.array(q_cur).clone();
    let next = local.array(q_next).clone();
    let dims = local.array_dims();
    let off = local.radius().neg();
    let ext = local.interior.extent;
    Box::new(move || {
        if !cur.has_data() {
            return;
        }
        cur.with_data(|u| {
            prev.with_data(|p| {
                next.with_data(|n| {
                    for z in 0..ext[2] {
                        for y in 0..ext[1] {
                            for x in 0..ext[0] {
                                let (ax, ay, az) = (x + off[0], y + off[1], z + off[2]);
                                let u0 = get(u, dims, ax, ay, az);
                                let lap = get(u, dims, ax - 1, ay, az)
                                    + get(u, dims, ax + 1, ay, az)
                                    + get(u, dims, ax, ay - 1, az)
                                    + get(u, dims, ax, ay + 1, az)
                                    + get(u, dims, ax, ay, az - 1)
                                    + get(u, dims, ax, ay, az + 1)
                                    - 6.0 * u0;
                                let v = 2.0 * u0 - get(p, dims, ax, ay, az) + c2 * lap;
                                put(n, dims, ax, ay, az, v);
                            }
                        }
                    }
                })
            })
        });
    })
}

/// A serial single-array reference simulation on the full periodic domain,
/// for verifying the distributed results cell-by-cell.
pub struct SerialGrid {
    /// Domain extent.
    pub dims: [u64; 3],
    /// Current values, x-fastest.
    pub data: Vec<f32>,
}

impl SerialGrid {
    /// Initialize from a function of global coordinates.
    pub fn init(dims: [u64; 3], f: impl Fn([u64; 3]) -> f32) -> SerialGrid {
        let mut data = Vec::with_capacity((dims[0] * dims[1] * dims[2]) as usize);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    data.push(f([x, y, z]));
                }
            }
        }
        SerialGrid { dims, data }
    }

    /// Value at a (wrapped) coordinate.
    pub fn at(&self, x: i64, y: i64, z: i64) -> f32 {
        let d = self.dims;
        let (x, y, z) = (
            x.rem_euclid(d[0] as i64) as u64,
            y.rem_euclid(d[1] as i64) as u64,
            z.rem_euclid(d[2] as i64) as u64,
        );
        self.data[((z * d[1] + y) * d[0] + x) as usize]
    }

    /// One 7-point Jacobi step with periodic boundaries.
    pub fn jacobi_step(&mut self, k: f32) {
        let d = self.dims;
        let mut out = vec![0.0f32; self.data.len()];
        for z in 0..d[2] as i64 {
            for y in 0..d[1] as i64 {
                for x in 0..d[0] as i64 {
                    let c = self.at(x, y, z);
                    let n = self.at(x - 1, y, z)
                        + self.at(x + 1, y, z)
                        + self.at(x, y - 1, z)
                        + self.at(x, y + 1, z)
                        + self.at(x, y, z - 1)
                        + self.at(x, y, z + 1);
                    out[((z as u64 * d[1] + y as u64) * d[0] + x as u64) as usize] =
                        (1.0 - 6.0 * k) * c + k * n;
                }
            }
        }
        self.data = out;
    }

    /// One leapfrog wave step: computes `next` from (`prev`, `cur`) and
    /// stores it into `prev` (caller then swaps the roles).
    pub fn wave_step(prev: &mut SerialGrid, cur: &SerialGrid, c2: f32) {
        let d = cur.dims;
        let mut next = vec![0.0f32; cur.data.len()];
        for z in 0..d[2] as i64 {
            for y in 0..d[1] as i64 {
                for x in 0..d[0] as i64 {
                    let u0 = cur.at(x, y, z);
                    let lap = cur.at(x - 1, y, z)
                        + cur.at(x + 1, y, z)
                        + cur.at(x, y - 1, z)
                        + cur.at(x, y + 1, z)
                        + cur.at(x, y, z - 1)
                        + cur.at(x, y, z + 1)
                        - 6.0 * u0;
                    next[((z as u64 * d[1] + y as u64) * d[0] + x as u64) as usize] =
                        2.0 * u0 - prev.at(x, y, z) + c2 * lap;
                }
            }
        }
        prev.data = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_jacobi_conserves_mass() {
        let mut g = SerialGrid::init([6, 5, 4], |p| (p[0] + 2 * p[1] + 3 * p[2]) as f32);
        let before: f64 = g.data.iter().map(|&v| v as f64).sum();
        g.jacobi_step(0.1);
        let after: f64 = g.data.iter().map(|&v| v as f64).sum();
        assert!((before - after).abs() < 1e-2, "{before} vs {after}");
    }

    #[test]
    fn serial_jacobi_smooths_toward_mean() {
        let mut g = SerialGrid::init([8, 8, 8], |p| if p == [0, 0, 0] { 512.0 } else { 0.0 });
        for _ in 0..50 {
            g.jacobi_step(0.12);
        }
        let max = g.data.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max < 512.0 * 0.2, "spike must diffuse: max {max}");
    }

    #[test]
    fn shell_plus_inner_covers_interior() {
        let ext = [7u64, 6, 5];
        let w = 1;
        let shells = shell_boxes(ext, w);
        let mut count = vec![0u8; (ext[0] * ext[1] * ext[2]) as usize];
        let mark = |count: &mut Vec<u8>, lo: [u64; 3], hi: [u64; 3]| {
            for z in lo[2]..hi[2] {
                for y in lo[1]..hi[1] {
                    for x in lo[0]..hi[0] {
                        count[((z * ext[1] + y) * ext[0] + x) as usize] += 1;
                    }
                }
            }
        };
        for (lo, hi) in shells {
            mark(&mut count, lo, hi);
        }
        mark(&mut count, [w, w, w], [ext[0] - w, ext[1] - w, ext[2] - w]);
        assert!(count.iter().all(|&c| c == 1), "exact disjoint cover");
    }

    #[test]
    fn thin_domain_is_all_shell() {
        let shells = shell_boxes([2, 8, 8], 1);
        assert_eq!(shells.len(), 1);
        assert_eq!(shells[0], ([0, 0, 0], [2, 8, 8]));
    }

    #[test]
    fn wave_step_preserves_constant_state() {
        let cur = SerialGrid::init([5, 5, 5], |_| 3.0);
        let mut prev = SerialGrid::init([5, 5, 5], |_| 3.0);
        SerialGrid::wave_step(&mut prev, &cur, 0.05);
        assert!(prev.data.iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }
}

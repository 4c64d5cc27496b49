//! The per-GPU piece of a distributed domain: its arrays (one per
//! quantity), geometry, and host-side element access for initialization and
//! verification.

use gpusim::{Buffer, GpuMachine, Stream};

use crate::dim3::{Box3, Dim3, Idx3};
use crate::radius::Radius;
use crate::region::array_dims;

/// One subdomain, resident on one GPU. Element accessors are host-side
/// conveniences (free in virtual time) for initialization and checking;
/// simulated compute goes through kernel launches on [`Self::compute_stream`].
pub struct LocalDomain {
    /// Node-grid index of the owning node subdomain.
    pub node_idx: Idx3,
    /// GPU-grid index within the node.
    pub gpu_idx: Idx3,
    /// Interior cells in global coordinates.
    pub interior: Box3,
    /// Global device id hosting this subdomain.
    pub device: usize,
    pub(crate) arrays: Vec<Buffer>,
    pub(crate) dims: Dim3,
    pub(crate) radius: Radius,
    pub(crate) elem_size: usize,
    pub(crate) compute_stream: Stream,
    pub(crate) machine: GpuMachine,
}

impl LocalDomain {
    /// Local array dimensions (interior + halo).
    pub fn array_dims(&self) -> Dim3 {
        self.dims
    }

    /// Interior extent in cells.
    pub fn extent(&self) -> Dim3 {
        self.interior.extent
    }

    /// The stencil radius.
    pub fn radius(&self) -> Radius {
        self.radius
    }

    /// Bytes per cell.
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }

    /// Number of quantities.
    pub fn quantities(&self) -> usize {
        self.arrays.len()
    }

    /// The raw buffer of quantity `q` (advanced use: custom kernels).
    pub fn array(&self, q: usize) -> &Buffer {
        &self.arrays[q]
    }

    /// The stream compute kernels for this subdomain should use (distinct
    /// from exchange streams so computation and communication overlap).
    pub fn compute_stream(&self) -> Stream {
        self.compute_stream
    }

    /// Byte offset of a local cell (coordinates relative to the interior
    /// origin; negatives reach into the halo).
    pub fn local_offset(&self, q: usize, p: [i64; 3]) -> (usize, u64) {
        let neg = self.radius.neg();
        let mut idx = [0u64; 3];
        for a in 0..3 {
            let c = p[a] + neg[a] as i64;
            assert!(
                c >= 0 && (c as u64) < self.dims[a],
                "local coordinate {p:?} outside array (axis {a})"
            );
            idx[a] = c as u64;
        }
        let cell = (idx[2] * self.dims[1] + idx[1]) * self.dims[0] + idx[0];
        (q, cell * self.elem_size as u64)
    }

    /// Read an `f32` cell by local coordinates (halo reachable with
    /// negatives / extents beyond the interior).
    pub fn get_local_f32(&self, q: usize, p: [i64; 3]) -> f32 {
        let (q, off) = self.local_offset(q, p);
        let mut b = [0u8; 4];
        self.arrays[q].read(off, &mut b);
        f32::from_le_bytes(b)
    }

    /// Write an `f32` cell by local coordinates.
    pub fn set_local_f32(&self, q: usize, p: [i64; 3], v: f32) {
        let (q, off) = self.local_offset(q, p);
        self.arrays[q].write(off, &v.to_le_bytes());
    }

    /// Whether a global cell is in this subdomain's interior.
    pub fn owns(&self, p: Dim3) -> bool {
        self.interior.contains(p)
    }

    /// Read an `f32` cell by global coordinates (must be owned).
    pub fn get_global_f32(&self, q: usize, p: Dim3) -> f32 {
        assert!(self.owns(p), "cell {p:?} not in this subdomain");
        let o = self.interior.origin;
        self.get_local_f32(
            q,
            [
                (p[0] - o[0]) as i64,
                (p[1] - o[1]) as i64,
                (p[2] - o[2]) as i64,
            ],
        )
    }

    /// Initialize quantity `q` from a function of global coordinates
    /// (host-side, setup only).
    pub fn fill(&self, q: usize, f: impl Fn(Dim3) -> f32) {
        let o = self.interior.origin;
        let e = self.interior.extent;
        for z in 0..e[2] {
            for y in 0..e[1] {
                for x in 0..e[0] {
                    self.set_local_f32(
                        q,
                        [x as i64, y as i64, z as i64],
                        f([o[0] + x, o[1] + y, o[2] + z]),
                    );
                }
            }
        }
    }

    /// Launch a simulated compute kernel on this subdomain's compute
    /// stream: it charges `bytes` of memory traffic against the device
    /// engine and runs `work` (host-side, real data) when it completes.
    /// Returns the kernel's completion.
    pub fn launch_compute(
        &self,
        ctx: &detsim::SimCtx,
        label: &'static str,
        bytes: u64,
        work: Option<gpusim::Work>,
    ) -> detsim::Completion {
        self.machine
            .launch_kernel(ctx, self.compute_stream, label, bytes, work)
    }

    /// Block until this subdomain's compute stream drains.
    pub fn sync_compute(&self, ctx: &detsim::SimCtx) {
        self.machine.stream_sync(ctx, self.compute_stream);
    }

    /// Bytes of device memory this subdomain's arrays occupy.
    pub fn bytes(&self) -> u64 {
        self.arrays.iter().map(|a| a.len()).sum()
    }

    #[allow(clippy::too_many_arguments)] // internal constructor
    pub(crate) fn new(
        machine: &GpuMachine,
        k: &mut detsim::Kernel,
        node_idx: Idx3,
        gpu_idx: Idx3,
        interior: Box3,
        device: usize,
        quantities: usize,
        elem_size: usize,
        radius: Radius,
    ) -> Result<LocalDomain, gpusim::GpuError> {
        let dims = array_dims(interior.extent, &radius);
        let bytes = dims[0] * dims[1] * dims[2] * elem_size as u64;
        let mut arrays = Vec::with_capacity(quantities);
        for _ in 0..quantities {
            arrays.push(machine.alloc_device_untimed(device, bytes)?);
        }
        let compute_stream = machine.create_stream(k, device);
        Ok(LocalDomain {
            node_idx,
            gpu_idx,
            interior,
            device,
            arrays,
            dims,
            radius,
            elem_size,
            compute_stream,
            machine: machine.clone(),
        })
    }
}

impl std::fmt::Debug for LocalDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LocalDomain(node {:?}, gpu {:?}, dev {}, interior {:?}+{:?})",
            self.node_idx, self.gpu_idx, self.device, self.interior.origin, self.interior.extent
        )
    }
}

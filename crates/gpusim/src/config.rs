//! Cost-model constants for the simulated CUDA runtime, and the data mode
//! switch.

use detsim::SimDuration;

/// Whether simulated buffers carry real bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DataMode {
    /// Buffers are backed by host memory and every copy/kernel really moves
    /// bytes — numerics are end-to-end verifiable. Use for tests, examples,
    /// and small benchmarks.
    #[default]
    Full,
    /// Buffers track only sizes; copies and kernels charge virtual time but
    /// move no data. Use for paper-scale benchmarks (750³ per GPU × 1536
    /// GPUs would need terabytes of backing otherwise).
    Virtual,
}

/// Fixed costs and rates of the simulated GPUs and driver. Defaults model a
/// Summit node (V100, CUDA 10.1) at the fidelity the paper's effects need.
#[derive(Clone, Debug)]
pub struct GpuCostModel {
    /// CPU time consumed by the issuing thread per CUDA API call
    /// (`cudaMemcpyAsync`, kernel launch, `cudaEventRecord`, …). The paper's
    /// Fig. 9 shows this issue time is substantial when one rank drives
    /// many GPUs.
    pub call_overhead: SimDuration,
    /// GPU-side latency from a kernel reaching the head of its stream to
    /// doing useful work.
    pub kernel_launch_latency: SimDuration,
    /// Fixed device-side latency per memcpy, on top of link latency.
    pub memcpy_latency: SimDuration,
    /// Effective memory bandwidth of pack/unpack kernels (strided reads,
    /// coalesced writes), bytes/second. All concurrent kernels on one GPU
    /// share this.
    pub pack_bandwidth: f64,
    /// One-time cost of `cudaIpcOpenMemHandle` (setup phase only).
    pub ipc_open_overhead: SimDuration,
    /// Device memory capacity per GPU, bytes.
    pub device_mem_limit: u64,
}

impl Default for GpuCostModel {
    fn default() -> Self {
        GpuCostModel {
            call_overhead: SimDuration::from_micros(4),
            kernel_launch_latency: SimDuration::from_micros(4),
            memcpy_latency: SimDuration::from_micros(6),
            pack_bandwidth: 350e9,
            ipc_open_overhead: SimDuration::from_micros(100),
            device_mem_limit: 16 << 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GpuCostModel::default();
        assert!(c.pack_bandwidth > 100e9);
        assert_eq!(c.device_mem_limit, 16 << 30);
        assert!(c.call_overhead.picos() > 0);
        assert_eq!(DataMode::default(), DataMode::Full);
    }
}

//! Device identities and hardware specifications.
//!
//! A simulated machine contains GPUs and CPU sockets. Each device carries a
//! [`DeviceSpec`] describing the performance characteristics the cost models
//! in [`crate::cost`] consume. The default specs mirror the DGX-A100 used in
//! the paper's evaluation (§IV "Experimental Setup").

use std::fmt;

/// Identifies a device within a single machine node.
///
/// GPU ranks are dense `0..num_gpus`; the CPU (host) side of the node is a
/// distinct device so transfers to/from host memory can be routed over PCIe.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum DeviceId {
    /// GPU with the given rank on the node.
    Gpu(u32),
    /// The host CPU (both sockets modelled as one endpoint attached to host
    /// DRAM; socket-level NUMA effects are below the fidelity this
    /// reproduction needs).
    Cpu,
}

impl DeviceId {
    /// True if this is a GPU device.
    pub fn is_gpu(self) -> bool {
        matches!(self, DeviceId::Gpu(_))
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceId::Gpu(r) => write!(f, "GPU{r}"),
            DeviceId::Cpu => write!(f, "CPU"),
        }
    }
}

/// Kind of device, used by cost models to pick compute rates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// A massively-parallel accelerator (A100-class in the default config).
    Gpu,
    /// A multicore host CPU (2× AMD Rome 7742 in the default config).
    Cpu,
}

/// Static performance description of a device.
///
/// The defaults are taken from public A100/DGX-A100 numbers and from the
/// paper where it states them explicitly (e.g. 300 GB/s unidirectional
/// NVLink per GPU in §III-B).
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// What kind of device this is.
    pub kind: DeviceKind,
    /// Human-readable model name (for reports).
    pub name: &'static str,
    /// Peak dense fp32 throughput in FLOP/s. A100: 19.5 TFLOP/s.
    /// 2× AMD Rome 7742 (128 cores × ~35 GFLOP/s): ~4.5 TFLOP/s, of which a
    /// GNN data-loading path uses a small fraction.
    pub peak_flops_f32: f64,
    /// Local memory (HBM for GPUs, DRAM for the host) capacity in bytes.
    pub memory_capacity: u64,
    /// Local memory streaming bandwidth in bytes/s (A100: 1555 GB/s HBM2e;
    /// host: ~200 GB/s over 8 DDR4-3200 channels per socket, shared).
    pub memory_bandwidth: f64,
    /// Achievable fraction of `peak_flops_f32` for well-shaped dense kernels
    /// (cuBLAS-class GEMMs hit ~0.7–0.85 on A100; our model uses 0.6 to also
    /// absorb framework overhead around the kernels).
    pub dense_efficiency: f64,
    /// Achievable fraction of peak for sparse/irregular kernels (SpMM,
    /// SDDMM, sampling) — memory-bound, so far lower.
    pub sparse_efficiency: f64,
    /// Fixed overhead of launching one kernel / one parallel region.
    /// CUDA kernel launch ≈ 3–10 µs; we use 5 µs.
    pub kernel_launch_overhead_s: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-40GB as found in the paper's DGX-A100.
    pub fn a100_40gb() -> Self {
        DeviceSpec {
            kind: DeviceKind::Gpu,
            name: "A100-SXM4-40GB",
            peak_flops_f32: 19.5e12,
            memory_capacity: 40 * (1 << 30),
            memory_bandwidth: 1555.0e9,
            dense_efficiency: 0.60,
            sparse_efficiency: 0.08,
            kernel_launch_overhead_s: 5.0e-6,
        }
    }

    /// The DGX-A100 host: 2× AMD Rome 7742 (128 cores) + 1 TB DRAM.
    pub fn dgx_host() -> Self {
        DeviceSpec {
            kind: DeviceKind::Cpu,
            name: "2x AMD Rome 7742",
            peak_flops_f32: 4.5e12,
            memory_capacity: 1024 * (1 << 30),
            memory_bandwidth: 380.0e9,
            dense_efficiency: 0.30,
            sparse_efficiency: 0.02,
            // A parallel-for dispatch on the host is far cheaper than a CUDA
            // kernel launch.
            kernel_launch_overhead_s: 1.0e-6,
        }
    }

    /// Effective dense-compute rate in FLOP/s.
    pub fn dense_flops(&self) -> f64 {
        self.peak_flops_f32 * self.dense_efficiency
    }

    /// Effective sparse/irregular-compute rate in FLOP/s.
    pub fn sparse_flops(&self) -> f64 {
        self.peak_flops_f32 * self.sparse_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_accessors() {
        assert!(DeviceId::Gpu(0).is_gpu());
        assert!(!DeviceId::Cpu.is_gpu());
    }

    #[test]
    fn device_id_display_and_order() {
        assert_eq!(DeviceId::Gpu(5).to_string(), "GPU5");
        assert_eq!(DeviceId::Cpu.to_string(), "CPU");
        assert!(DeviceId::Gpu(0) < DeviceId::Gpu(1));
    }

    #[test]
    fn a100_spec_sane() {
        let s = DeviceSpec::a100_40gb();
        assert_eq!(s.kind, DeviceKind::Gpu);
        assert_eq!(s.memory_capacity, 40 * (1 << 30));
        // Effective dense rate must be below peak and above 10% of peak.
        assert!(s.dense_flops() < s.peak_flops_f32);
        assert!(s.dense_flops() > 0.1 * s.peak_flops_f32);
        assert!(s.sparse_flops() < s.dense_flops());
    }

    #[test]
    fn host_spec_sane() {
        let h = DeviceSpec::dgx_host();
        assert_eq!(h.kind, DeviceKind::Cpu);
        // The host has more capacity but far less compute than a GPU.
        assert!(h.memory_capacity > DeviceSpec::a100_40gb().memory_capacity);
        assert!(h.dense_flops() < DeviceSpec::a100_40gb().dense_flops());
    }
}

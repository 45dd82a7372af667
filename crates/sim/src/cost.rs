//! Calibrated cost models.
//!
//! Every constant in this module is fitted against a number the paper states
//! or plots; the doc comment on each item cites the source. The models are
//! deliberately simple (latency + volume/bandwidth, with a segment-size
//! efficiency curve for random access) — the paper's results are dominated by
//! *which link* data crosses and *how much* of it, which these models
//! capture.

use crate::device::DeviceSpec;
use crate::time::SimTime;
use crate::topology::{LinkKind, Path, Topology};

/// Which class of kernel a compute estimate is for; picks the efficiency
/// factor applied to the device's peak FLOP rate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelClass {
    /// Dense GEMM-shaped work (linear layers).
    Dense,
    /// Irregular, memory-bound work (SpMM, SDDMM, attention softmax over
    /// edges, sampling arithmetic).
    Sparse,
}

/// How a WholeMemory access reaches a remote GPU's memory (paper §II-B,
/// Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// GPUDirect Peer-to-Peer: load/store handled by hardware over NVLink.
    PeerAccess,
    /// CUDA Unified Memory: page fault → host interrupt → page migration.
    UnifiedMemory,
}

/// Cost model for the out-of-core NVMe storage tier below the DSM
/// (`wg_mem::ooc`). The shape mirrors the NVLink gather curve — a
/// per-request latency term plus a segment-size bandwidth knee — with
/// constants of a GIDS-class PCIe-4.0 datacenter SSD (PAPERS.md: "GPU-
/// initiated direct storage accesses"): reads below the 4 KiB native
/// page pay for the whole page, and per-request submission latency
/// amortizes over the device's queue depth, exactly as GIDS hides it
/// behind thousands of in-flight requests.
#[derive(Clone, Debug)]
pub struct StorageCostModel {
    /// Per-request submission + flash-access latency in seconds
    /// (~80 µs for a read-optimized datacenter NVMe drive).
    pub seek_latency_s: f64,
    /// In-flight requests the submission queues sustain; seek latency
    /// amortizes over this depth (GIDS keeps queues saturated, so the
    /// effective per-request latency is `seek / depth`).
    pub queue_depth: u32,
    /// Native flash page size in bytes: reads of smaller segments
    /// achieve bandwidth proportional to the segment size (the 4 KiB
    /// analogue of Figure 8's 64 B NVLink knee).
    pub knee_bytes: f64,
    /// Bandwidth achieved at exactly one page per request, bytes/s.
    pub knee_bandwidth: f64,
    /// Saturated sequential-read bandwidth, bytes/s (~6.8 GB/s for a
    /// PCIe-4.0 x4 drive).
    pub saturated_bandwidth: f64,
}

impl StorageCostModel {
    /// GIDS-class PCIe-4.0 NVMe constants.
    pub fn nvme() -> Self {
        StorageCostModel {
            seek_latency_s: 80.0e-6,
            queue_depth: 32,
            knee_bytes: 4096.0,
            knee_bandwidth: 6.0e9,
            saturated_bandwidth: 6.8e9,
        }
    }

    /// Achieved read bandwidth for random reads of `segment_bytes`-sized
    /// pieces — the same three-regime knee shape as
    /// [`CostModel::gather_busbw`], scaled to flash-page geometry.
    pub fn read_bandwidth(&self, segment_bytes: usize) -> f64 {
        let s = segment_bytes as f64;
        if s <= 0.0 {
            return 0.0;
        }
        if s < self.knee_bytes {
            // Sub-page reads transfer the whole page: proportional regime.
            self.knee_bandwidth * s / self.knee_bytes
        } else if s < 2.0 * self.knee_bytes {
            let t = (s - self.knee_bytes) / self.knee_bytes;
            self.knee_bandwidth + t * (self.saturated_bandwidth - self.knee_bandwidth)
        } else {
            self.saturated_bandwidth
        }
    }

    /// Time of one read request of `bytes`: its share of a seek
    /// (submission latency amortized over the queue depth) plus the
    /// transfer at the bandwidth a request of that size achieves — a
    /// sub-page request still moves a whole page. This is also the
    /// storage tier's merge rule: two requests are worth coalescing
    /// exactly when the merged request's time does not exceed the sum
    /// of theirs.
    pub fn request_time(&self, bytes: usize) -> SimTime {
        let seek = self.seek_latency_s / self.queue_depth.max(1) as f64;
        let transfer = if bytes == 0 {
            0.0
        } else {
            bytes as f64 / self.read_bandwidth(bytes)
        };
        SimTime::from_secs(seek + transfer)
    }

    /// Time to serve the read requests actually issued, given their
    /// sizes in bytes: one seek share per *request*, each request's
    /// bytes at the bandwidth its own size achieves. No requests cost
    /// zero: the tier prices nothing when nothing spills.
    pub fn requests_time(&self, request_bytes: impl IntoIterator<Item = usize>) -> SimTime {
        request_bytes
            .into_iter()
            .fold(SimTime::ZERO, |t, b| t + self.request_time(b))
    }

    /// Time to serve `requests` random reads of `segment_bytes` each —
    /// the uniform special case of [`requests_time`](Self::requests_time),
    /// and the price of a batch in which no two rows were worth merging.
    pub fn read_time(&self, requests: u64, segment_bytes: usize) -> SimTime {
        self.requests_time(std::iter::repeat_n(segment_bytes, requests as usize))
    }
}

/// The assembled cost model for one machine node.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Interconnect description used for routing and bandwidth.
    pub topology: Topology,
    /// Base GPUDirect P2P dependent-load latency in seconds.
    ///
    /// Table I: 1.35 µs for an 8 GB distributed allocation.
    pub p2p_base_latency_s: f64,
    /// Additional P2P latency per doubling of the distributed allocation
    /// size beyond 8 GB (TLB/page-table reach effects).
    ///
    /// Table I: latency grows 1.35 → 1.56 µs from 8 → 128 GB, i.e.
    /// ≈ 0.0525 µs per doubling.
    pub p2p_latency_per_doubling_s: f64,
    /// Unified-memory fault service ceiling in seconds (large allocations).
    ///
    /// Table I: UM latency saturates near 35.8 µs at 128 GB.
    pub um_saturation_latency_s: f64,
    /// UM latency model: `sat - amplitude * exp(-doublings / decay)`.
    /// Fitted so 8 GB → 20.8 µs, 16 GB → ~29.6 µs (Table I).
    pub um_amplitude_s: f64,
    /// Decay constant (in doublings) of the UM latency fit.
    pub um_decay_doublings: f64,
    /// Local HBM dependent-load latency (~500 ns on A100; only matters for
    /// the fraction of pointer-chase hops that land on the local GPU).
    pub local_hbm_latency_s: f64,
    /// Host DRAM dependent-load latency (~100 ns).
    pub host_dram_latency_s: f64,
    /// Random-read efficiency knee in bytes: below this, achieved NVLink
    /// bandwidth is proportional to the segment size.
    ///
    /// Figure 8: "when the random read segment size is less than 64 bytes,
    /// the achieved bandwidth is almost proportional to the segment size".
    pub gather_knee_bytes: f64,
    /// BusBW achieved at the knee (Figure 8: ≈181 GB/s at 64 B).
    pub gather_knee_busbw: f64,
    /// Saturated BusBW for segments ≥ 128 B (Figure 8: ≈230 GB/s).
    pub gather_saturated_busbw: f64,
    /// PCIe link latency per transfer (DMA setup + traversal), seconds.
    pub pcie_latency_s: f64,
    /// InfiniBand end-to-end latency per message, seconds (~2 µs HDR).
    pub ib_latency_s: f64,
    /// NCCL collective call overhead, seconds per operation (ring setup,
    /// kernel launches on every rank).
    pub nccl_op_overhead_s: f64,
    /// Effective bandwidth when the host CPU performs a random gather out of
    /// its own DRAM (index-gather loop, all cores): far below streaming
    /// bandwidth because every row is a cache miss.
    pub host_gather_bandwidth: f64,
    /// Aggregate CPU neighbor-sampling rate for a DGL-0.7-class parallel
    /// C++ sampler, in sampled edges per second (all cores).
    ///
    /// Calibrated against Table V: DGL spends ~20 s of a ~26–31 s
    /// ogbn-products epoch in sampling ≈ 5.5e9 sampled edges → ~2.8e8/s.
    pub cpu_sample_edges_per_s: f64,
    /// PyG-2.0-class sampler rate (Python-loop and torch-op overhead makes
    /// it roughly an order of magnitude slower than DGL's C++ sampler —
    /// Table V shows PyG epochs 7–9× DGL's on ogbn-products).
    pub pyg_sample_edges_per_s: f64,
    /// Per-GPU sampling rate of WholeGraph's fused path-doubling sampler,
    /// sampled edges per second (§III-C1; calibrated so the sampling slice
    /// of Figure 9's WholeGraph bars is small but visible).
    pub gpu_sample_edges_per_s: f64,
    /// Per-GPU rate of the AppendUnique hash-table op, in inserted keys/s.
    pub gpu_unique_keys_per_s: f64,
    /// NVMe tier below the DSM: prices the out-of-core row fetches of
    /// `wg_mem::ooc` (seek + per-byte bandwidth knee).
    pub storage: StorageCostModel,
}

impl CostModel {
    /// Cost model for the paper's DGX-A100.
    pub fn dgx_a100() -> Self {
        Self::for_topology(Topology::dgx_a100())
    }

    /// Cost model with DGX-A100 constants over a custom topology.
    pub fn for_topology(topology: Topology) -> Self {
        CostModel {
            topology,
            p2p_base_latency_s: 1.35e-6,
            p2p_latency_per_doubling_s: 0.0525e-6,
            um_saturation_latency_s: 36.2e-6,
            um_amplitude_s: 15.4e-6,
            um_decay_doublings: 1.1,
            local_hbm_latency_s: 0.5e-6,
            host_dram_latency_s: 0.1e-6,
            gather_knee_bytes: 64.0,
            gather_knee_busbw: 181.0e9,
            gather_saturated_busbw: 230.0e9,
            pcie_latency_s: 10.0e-6,
            ib_latency_s: 2.0e-6,
            nccl_op_overhead_s: 20.0e-6,
            host_gather_bandwidth: 12.0e9,
            cpu_sample_edges_per_s: 2.8e8,
            pyg_sample_edges_per_s: 3.0e7,
            gpu_sample_edges_per_s: 3.0e9,
            gpu_unique_keys_per_s: 8.0e9,
            storage: StorageCostModel::nvme(),
        }
    }

    /// Reference allocation size for the latency-growth terms (Table I
    /// starts at 8 GB).
    const LATENCY_REF_BYTES: f64 = 8.0 * (1u64 << 30) as f64;

    /// Doublings of `bytes` beyond the 8 GB reference (clamped at 0).
    fn doublings(bytes: u64) -> f64 {
        ((bytes as f64) / Self::LATENCY_REF_BYTES).log2().max(0.0)
    }

    /// Dependent-load latency of one GPUDirect P2P access into a
    /// distributed shared allocation of `dsm_bytes` (Table I, right column).
    pub fn p2p_access_latency(&self, dsm_bytes: u64) -> SimTime {
        SimTime::from_secs(
            self.p2p_base_latency_s + self.p2p_latency_per_doubling_s * Self::doublings(dsm_bytes),
        )
    }

    /// Dependent-load latency of one Unified-Memory access (page fault +
    /// migration) into a distributed allocation of `dsm_bytes` (Table I,
    /// left column).
    pub fn um_access_latency(&self, dsm_bytes: u64) -> SimTime {
        let d = Self::doublings(dsm_bytes);
        SimTime::from_secs(
            self.um_saturation_latency_s
                - self.um_amplitude_s * (-d / self.um_decay_doublings).exp(),
        )
    }

    /// Latency of a remote access under the given [`AccessMode`].
    pub fn remote_access_latency(&self, mode: AccessMode, dsm_bytes: u64) -> SimTime {
        match mode {
            AccessMode::PeerAccess => self.p2p_access_latency(dsm_bytes),
            AccessMode::UnifiedMemory => self.um_access_latency(dsm_bytes),
        }
    }

    /// Achieved NVLink **BusBW** (bandwidth seen by the hardware bus) when a
    /// GPU performs random reads of `segment_bytes`-sized contiguous pieces
    /// from peer memory — the Figure 8 curve.
    pub fn gather_busbw(&self, segment_bytes: usize) -> f64 {
        let s = segment_bytes as f64;
        if s <= 0.0 {
            return 0.0;
        }
        if s < self.gather_knee_bytes {
            // Proportional regime: every transaction wastes the rest of a
            // knee-sized flit.
            self.gather_knee_busbw * s / self.gather_knee_bytes
        } else if s < 2.0 * self.gather_knee_bytes {
            // Linear climb from the knee (181 GB/s @64 B) to saturation
            // (230 GB/s @128 B).
            let t = (s - self.gather_knee_bytes) / self.gather_knee_bytes;
            self.gather_knee_busbw + t * (self.gather_saturated_busbw - self.gather_knee_busbw)
        } else {
            self.gather_saturated_busbw
        }
    }

    /// Achieved **AlgoBW** for a random gather: on an `n`-GPU node, 1/n of
    /// the gathered rows are local, so the bus only carries (n-1)/n of the
    /// bytes the algorithm sees (§IV-C1: AlgoBW = BusBW · 8/7 on 8 GPUs).
    pub fn gather_algobw(&self, segment_bytes: usize) -> f64 {
        let n = self.topology.num_gpus.max(1) as f64;
        self.gather_busbw(segment_bytes) * n / (n - 1.0).max(1.0)
    }

    /// Time for one GPU to gather `rows` random rows of `row_bytes` each
    /// from the distributed shared memory (the one-kernel global gather of
    /// §III-C3), including one kernel launch.
    pub fn dsm_gather_time(&self, rows: u64, row_bytes: usize, spec: &DeviceSpec) -> SimTime {
        let bytes = rows as f64 * row_bytes as f64;
        let bw = self.gather_algobw(row_bytes);
        SimTime::from_secs(spec.kernel_launch_overhead_s + bytes / bw)
    }

    /// Time for a GPU to gather `rows` random rows of `row_bytes` each out
    /// of its **own HBM** — the price of feature-cache hits. Random reads
    /// of small segments waste bandwidth on HBM exactly as they do on
    /// NVLink, so the same Figure-8 knee curve applies as an efficiency
    /// fraction of the device's peak memory bandwidth. No launch overhead:
    /// cache hits ride the same kernel as the surrounding DSM gather.
    pub fn hbm_gather_time(&self, rows: u64, row_bytes: usize, spec: &DeviceSpec) -> SimTime {
        if rows == 0 {
            return SimTime::ZERO;
        }
        let efficiency = self.gather_busbw(row_bytes) / self.gather_saturated_busbw;
        let bw = spec.memory_bandwidth * efficiency;
        SimTime::from_secs(rows as f64 * row_bytes as f64 / bw)
    }

    /// Time to stream `bytes` contiguously across a resolved [`Path`].
    pub fn transfer_time(&self, bytes: u64, path: Path) -> SimTime {
        let (lat, bw) = match path.link {
            LinkKind::Local => (0.0, f64::INFINITY),
            LinkKind::NvLink => (self.p2p_base_latency_s, self.topology.nvlink_bandwidth),
            LinkKind::Pcie => (self.pcie_latency_s, self.topology.pcie_bandwidth),
            LinkKind::InfiniBand => (self.ib_latency_s, self.topology.node_ib_bandwidth()),
        };
        let eff = bw * path.bandwidth_share;
        if eff.is_infinite() {
            SimTime::from_secs(lat)
        } else {
            SimTime::from_secs(lat + bytes as f64 / eff)
        }
    }

    /// Time for `flops` floating-point operations of the given class on a
    /// device, including `kernels` launch overheads.
    pub fn compute_time(
        &self,
        flops: f64,
        class: KernelClass,
        spec: &DeviceSpec,
        kernels: u32,
    ) -> SimTime {
        let rate = match class {
            KernelClass::Dense => spec.dense_flops(),
            KernelClass::Sparse => spec.sparse_flops(),
        };
        SimTime::from_secs(spec.kernel_launch_overhead_s * kernels as f64 + flops / rate)
    }

    /// Time to stream `bytes` through a device's local memory system
    /// (memory-bound kernels such as elementwise ops).
    pub fn memory_stream_time(&self, bytes: u64, spec: &DeviceSpec) -> SimTime {
        SimTime::from_secs(spec.kernel_launch_overhead_s + bytes as f64 / spec.memory_bandwidth)
    }

    /// Time for the host CPU to gather `rows` random feature rows of
    /// `row_bytes` from host DRAM (the DGL/PyG feature-collection step).
    pub fn host_gather_time(&self, rows: u64, row_bytes: usize) -> SimTime {
        let bytes = rows as f64 * row_bytes as f64;
        SimTime::from_secs(bytes / self.host_gather_bandwidth)
    }

    /// Time for a GPU kernel to gather `rows` random rows of `row_bytes`
    /// directly out of host-pinned memory over PCIe (the "directly
    /// accessing these sparse features of CPU from GPU" alternative of
    /// §I), with `concurrent` GPUs sharing the uplinks.
    ///
    /// Random reads achieve a fraction of the link's streaming bandwidth
    /// (read-request round trips, partial-cacheline transactions); we use
    /// a segment-size efficiency curve with the same knee shape as the
    /// NVLink one, scaled to PCIe's longer ~1.3 µs round trip.
    pub fn pcie_zero_copy_gather_time(
        &self,
        rows: u64,
        row_bytes: usize,
        concurrent: u32,
        spec: &DeviceSpec,
    ) -> SimTime {
        // Efficiency knee at 256 B: smaller rows waste a full TLP.
        const KNEE_BYTES: f64 = 256.0;
        const PEAK_EFFICIENCY: f64 = 0.75;
        let s = row_bytes as f64;
        let eff = PEAK_EFFICIENCY * (s / (s + KNEE_BYTES)).min(1.0);
        let share = self.topology.pcie_share(concurrent);
        let bw = self.topology.pcie_bandwidth * share * eff;
        let bytes = rows as f64 * row_bytes as f64;
        SimTime::from_secs(spec.kernel_launch_overhead_s + self.pcie_latency_s + bytes / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn p2p_latency_reproduces_table1() {
        let m = CostModel::dgx_a100();
        // Paper Table I (µs): 8 GB → 1.35, 16 → 1.37, 32 → 1.43,
        // 64 → 1.51, 128 → 1.56. Our linear-in-doublings fit must land
        // within 0.05 µs of each.
        let expect = [(8, 1.35), (16, 1.37), (32, 1.43), (64, 1.51), (128, 1.56)];
        for (gb, us) in expect {
            let got = m.p2p_access_latency(gb * GB).as_micros();
            assert!(
                (got - us).abs() < 0.05,
                "P2P latency at {gb} GB: model {got:.3} µs vs paper {us} µs"
            );
        }
    }

    #[test]
    fn um_latency_reproduces_table1() {
        let m = CostModel::dgx_a100();
        // Paper Table I (µs): 20.8, 29.6, 32.5, 35.3, 35.8.
        let expect = [(8, 20.8), (16, 29.6), (32, 32.5), (64, 35.3), (128, 35.8)];
        for (gb, us) in expect {
            let got = m.um_access_latency(gb * GB).as_micros();
            assert!(
                (got - us).abs() < 1.5,
                "UM latency at {gb} GB: model {got:.2} µs vs paper {us} µs"
            );
        }
    }

    #[test]
    fn um_is_an_order_of_magnitude_slower_than_p2p() {
        let m = CostModel::dgx_a100();
        for gb in [8u64, 16, 32, 64, 128] {
            let ratio = m.um_access_latency(gb * GB) / m.p2p_access_latency(gb * GB);
            assert!(ratio > 10.0, "UM/P2P ratio at {gb} GB = {ratio:.1}");
        }
    }

    #[test]
    fn gather_busbw_reproduces_figure8() {
        let m = CostModel::dgx_a100();
        // Proportional regime below 64 B.
        let b4 = m.gather_busbw(4);
        let b32 = m.gather_busbw(32);
        assert!((b32 / b4 - 8.0).abs() < 0.01, "proportionality below knee");
        // ≈181 GB/s at 64 B.
        assert!((m.gather_busbw(64) - 181.0e9).abs() < 1e9);
        // ≈230 GB/s from 128 B on, and flat after.
        assert!((m.gather_busbw(128) - 230.0e9).abs() < 1e9);
        assert_eq!(m.gather_busbw(128), m.gather_busbw(4096));
        // Never exceeds the NVLink theoretical 300 GB/s.
        assert!(m.gather_busbw(4096) < 300.0e9);
    }

    #[test]
    fn algobw_is_8_over_7_of_busbw() {
        let m = CostModel::dgx_a100();
        let ratio = m.gather_algobw(512) / m.gather_busbw(512);
        assert!((ratio - 8.0 / 7.0).abs() < 1e-12);
        // §IV-C1: max AlgoBW = 300 / (7/8) ≈ 343 GB/s; saturated model
        // value must stay below that.
        assert!(m.gather_algobw(4096) < 343.0e9);
    }

    #[test]
    fn transfer_time_orders_links_correctly() {
        let m = CostModel::dgx_a100();
        let t = &m.topology;
        let bytes = GB;
        let nv = m.transfer_time(
            bytes,
            Path {
                link: LinkKind::NvLink,
                bandwidth_share: 1.0,
            },
        );
        let pcie = m.transfer_time(
            bytes,
            Path {
                link: LinkKind::Pcie,
                bandwidth_share: 0.5,
            },
        );
        let local = m.transfer_time(
            bytes,
            Path {
                link: LinkKind::Local,
                bandwidth_share: 1.0,
            },
        );
        assert!(local < nv && nv < pcie);
        // 1 GiB at 16 GB/s effective PCIe ≈ 67 ms.
        assert!((pcie.as_millis() - (bytes as f64 / (0.5 * t.pcie_bandwidth)) * 1e3).abs() < 1.0);
    }

    #[test]
    fn theoretical_nvlink_vs_pcie_speedup_matches_paper() {
        // §III-B: "WholeGraph has a theoretical speedup of 18.75X" —
        // 300 GB/s NVLink vs 16 GB/s per-GPU shared PCIe.
        let m = CostModel::dgx_a100();
        let shared = m.topology.pcie_bandwidth * m.topology.pcie_share(8);
        let speedup = m.topology.nvlink_bandwidth / shared;
        assert!((speedup - 18.75).abs() < 1e-9);
    }

    #[test]
    fn compute_time_scales_with_class() {
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        let dense = m.compute_time(1e12, KernelClass::Dense, &spec, 1);
        let sparse = m.compute_time(1e12, KernelClass::Sparse, &spec, 1);
        assert!(sparse > dense);
        // One empty kernel costs exactly the launch overhead.
        let empty = m.compute_time(0.0, KernelClass::Dense, &spec, 3);
        assert!((empty.as_micros() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn zero_copy_gather_sits_between_p2p_and_um() {
        // The §I design space: host zero-copy over PCIe is far slower than
        // the NVLink DSM gather but nowhere near UM's fault storm.
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        let rows = 500_000u64;
        let row_bytes = 512usize;
        let p2p = m.dsm_gather_time(rows, row_bytes, &spec);
        let zc = m.pcie_zero_copy_gather_time(rows, row_bytes, 8, &spec);
        assert!(zc > p2p * 5.0, "zero-copy {zc} vs p2p {p2p}");
        // Effective rate bounded by the shared PCIe uplink.
        let rate = (rows * row_bytes as u64) as f64 / zc.as_secs();
        assert!(
            rate < 16.0e9,
            "zero-copy rate {rate:.2e} exceeds shared PCIe"
        );
        assert!(rate > 4.0e9, "zero-copy rate {rate:.2e} implausibly low");
    }

    #[test]
    fn zero_copy_efficiency_improves_with_row_width() {
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        let narrow = m.pcie_zero_copy_gather_time(1_000_000, 64, 8, &spec);
        let wide = m.pcie_zero_copy_gather_time(125_000, 512, 8, &spec);
        // Same byte volume; wide rows waste fewer TLPs.
        assert!(wide < narrow, "wide {wide} !< narrow {narrow}");
    }

    #[test]
    fn hbm_hits_are_much_cheaper_than_dsm_gathers() {
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        // papers100M-width rows: HBM peak (1555 GB/s) vs saturated AlgoBW
        // (~263 GB/s) is ~6x; with launch overhead the gap only widens.
        let hbm = m.hbm_gather_time(1_000_000, 512, &spec);
        let dsm = m.dsm_gather_time(1_000_000, 512, &spec);
        assert!(dsm / hbm > 5.0, "dsm {dsm} vs hbm {hbm}");
        // No launch overhead and no cost at zero rows (the cached gather
        // adds this term unconditionally).
        assert_eq!(m.hbm_gather_time(0, 512, &spec), SimTime::ZERO);
        // The knee shape applies: byte-equal volumes of narrow rows are
        // strictly slower than wide ones.
        let narrow = m.hbm_gather_time(8_000_000, 16, &spec);
        let wide = m.hbm_gather_time(1_000_000, 128, &spec);
        assert!(narrow > wide, "narrow {narrow} !> wide {wide}");
    }

    #[test]
    fn storage_bandwidth_has_a_page_knee() {
        let s = StorageCostModel::nvme();
        // Proportional regime below one flash page: byte-equal volumes of
        // sub-page reads transfer whole pages, so bandwidth scales with
        // the segment size.
        let b64 = s.read_bandwidth(64);
        let b512 = s.read_bandwidth(512);
        assert!(
            (b512 / b64 - 8.0).abs() < 0.01,
            "proportionality below knee"
        );
        // One page per request achieves the knee bandwidth.
        assert!((s.read_bandwidth(4096) - 6.0e9).abs() < 1e6);
        // Saturated from two pages on, and flat after.
        assert_eq!(s.read_bandwidth(8192), s.read_bandwidth(1 << 20));
        assert!((s.read_bandwidth(8192) - 6.8e9).abs() < 1e6);
    }

    #[test]
    fn storage_seeks_amortize_over_queue_depth() {
        let s = StorageCostModel::nvme();
        // 32 requests (one full queue) of 400 B pay one seek's worth of
        // latency between them, not 32.
        let t = s.read_time(32, 400);
        let seek_share = s.seek_latency_s;
        assert!(t.as_secs() > seek_share, "seek term missing: {t}");
        assert!(
            t.as_secs() < 2.0 * seek_share + 32.0 * 400.0 / s.read_bandwidth(400),
            "seeks not amortized: {t}"
        );
        // Zero requests price zero — a fully-resident run must not pay
        // any storage time.
        assert_eq!(s.read_time(0, 400), SimTime::ZERO);
    }

    #[test]
    fn storage_prices_the_requests_issued() {
        let s = StorageCostModel::nvme();
        // The uniform list is read_time, bit for bit.
        assert_eq!(s.requests_time([400; 32]), s.read_time(32, 400));
        // A sub-page request pays its seek share and one whole page.
        let page = s.request_time(4096);
        assert_eq!(s.request_time(400), page);
        assert_eq!(s.request_time(1), page);
        // One ranged read over 32 adjacent rows pays one seek share and
        // streams past the knee: far cheaper than 32 sub-page requests.
        assert!(s.request_time(32 * 400) * 10.0 < s.read_time(32, 400));
        // Request time never falls as the request grows, so widening a
        // range across a gap always costs something.
        let sizes = [1, 400, 4095, 4096, 4097, 6000, 8191, 8192, 8193, 1 << 20];
        for w in sizes.windows(2) {
            assert!(s.request_time(w[0]) <= s.request_time(w[1]), "{w:?}");
        }
    }

    #[test]
    fn storage_reads_are_much_slower_than_dsm_gathers() {
        // The tier ordering the whole OOC design rests on: cache (HBM)
        // < DSM (NVLink) << disk (NVMe), at feature-row granularity.
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        let rows = 100_000u64;
        let row_bytes = 400usize; // 100 f32 features
        let hbm = m.hbm_gather_time(rows, row_bytes, &spec);
        let dsm = m.dsm_gather_time(rows, row_bytes, &spec);
        let disk = m.storage.read_time(rows, row_bytes);
        assert!(hbm < dsm, "hbm {hbm} !< dsm {dsm}");
        assert!(disk / dsm > 10.0, "disk {disk} vs dsm {dsm}");
    }

    #[test]
    fn dsm_gather_saturates_for_wide_rows() {
        let m = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        // 1M rows of 512 B (papers100M feature rows) — should achieve close
        // to saturated AlgoBW.
        let rows = 1_000_000u64;
        let t = m.dsm_gather_time(rows, 512, &spec);
        let achieved = (rows * 512) as f64 / t.as_secs();
        assert!(achieved > 0.9 * m.gather_algobw(512));
    }
}

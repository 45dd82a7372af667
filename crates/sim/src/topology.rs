//! Interconnect topology of a simulated node.
//!
//! The default topology mirrors Figure 6 of the paper (DGX-A100):
//!
//! * all 8 GPUs attach to an NVSwitch fabric — every GPU has 300 GB/s of
//!   unidirectional NVLink bandwidth into the switch, so any GPU↔GPU pair
//!   communicates at NVLink rate without contention on the switch itself;
//! * GPUs attach to the host through PCIe 4.0 x16 switches, **two GPUs (and
//!   two IB NICs) per uplink** — when all GPUs stream from host memory each
//!   gets only half of the 32 GB/s x16 bandwidth (§III-B: "each GPU can get
//!   only one half of the PCIe 4.0 x16 bandwidth, namely 16 GB/s");
//! * each GPU pair shares two ConnectX-6 HDR InfiniBand NICs (200 Gb/s
//!   each) for inter-node traffic.

use crate::device::DeviceId;

/// The kind of link a transfer crosses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LinkKind {
    /// Local access within one device's memory (HBM or host DRAM).
    Local,
    /// GPU↔GPU over NVLink/NVSwitch (GPUDirect P2P path).
    NvLink,
    /// GPU↔host over a PCIe 4.0 x16 uplink (possibly shared).
    Pcie,
    /// Node↔node over InfiniBand.
    InfiniBand,
}

/// A resolved route between two endpoints plus the contention factor the
/// cost model must apply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Path {
    /// The bottleneck link kind on the route.
    pub link: LinkKind,
    /// Fraction of the link's nominal bandwidth available to this transfer
    /// (e.g. 0.5 when two GPUs share a PCIe uplink and both are active).
    pub bandwidth_share: f64,
}

/// Interconnect description of one machine node.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of GPUs on the node.
    pub num_gpus: u32,
    /// Unidirectional NVLink bandwidth per GPU into the switch, bytes/s.
    /// DGX-A100: 300 GB/s (600 GB/s bidirectional).
    pub nvlink_bandwidth: f64,
    /// PCIe uplink bandwidth, bytes/s. PCIe 4.0 x16 ≈ 32 GB/s.
    pub pcie_bandwidth: f64,
    /// GPUs sharing one PCIe uplink (DGX-A100: 2).
    pub gpus_per_pcie_switch: u32,
    /// InfiniBand bandwidth per NIC, bytes/s. ConnectX-6 HDR: 200 Gb/s = 25 GB/s.
    pub ib_bandwidth_per_nic: f64,
    /// Number of IB NICs on the node (DGX-A100: 8 compute NICs).
    pub num_nics: u32,
}

impl Topology {
    /// The DGX-A100 topology of the paper's evaluation (Figure 6).
    pub fn dgx_a100() -> Self {
        Topology {
            num_gpus: 8,
            nvlink_bandwidth: 300.0e9,
            pcie_bandwidth: 32.0e9,
            gpus_per_pcie_switch: 2,
            ib_bandwidth_per_nic: 25.0e9,
            num_nics: 8,
        }
    }

    /// A DGX-like node with a custom GPU count (used by tests and scaled
    /// experiments; bandwidth characteristics stay per-GPU identical).
    pub fn dgx_like(num_gpus: u32) -> Self {
        Topology {
            num_gpus,
            ..Topology::dgx_a100()
        }
    }

    /// Resolve the route between `src` (where the data lives) and `dst`
    /// (the device performing the access).
    ///
    /// `concurrent_gpus_on_pcie` is how many GPUs are simultaneously
    /// streaming over PCIe — the caller (usually a pipeline running the same
    /// phase on every GPU) knows this; 0 or 1 means no sharing.
    pub fn path(&self, src: DeviceId, dst: DeviceId, concurrent_gpus_on_pcie: u32) -> Path {
        if src == dst {
            return Path {
                link: LinkKind::Local,
                bandwidth_share: 1.0,
            };
        }
        match (src, dst) {
            (DeviceId::Gpu(_), DeviceId::Gpu(_)) => Path {
                link: LinkKind::NvLink,
                bandwidth_share: 1.0,
            },
            (DeviceId::Cpu, DeviceId::Gpu(_)) | (DeviceId::Gpu(_), DeviceId::Cpu) => Path {
                link: LinkKind::Pcie,
                bandwidth_share: self.pcie_share(concurrent_gpus_on_pcie),
            },
            (DeviceId::Cpu, DeviceId::Cpu) => Path {
                link: LinkKind::Local,
                bandwidth_share: 1.0,
            },
        }
    }

    /// Fraction of a PCIe uplink available to one GPU when `concurrent`
    /// GPUs are streaming simultaneously.
    ///
    /// With `gpus_per_pcie_switch = 2` and all 8 GPUs active this is 0.5 —
    /// the §III-B "16 GB/s per GPU" situation.
    pub fn pcie_share(&self, concurrent: u32) -> f64 {
        if concurrent <= 1 {
            return 1.0;
        }
        // GPUs are distributed round-robin over the uplinks; contention on
        // one uplink is the number of active GPUs mapped onto it.
        let uplinks = (self.num_gpus / self.gpus_per_pcie_switch).max(1);
        let per_uplink = (concurrent as f64 / uplinks as f64).ceil().max(1.0);
        1.0 / per_uplink
    }

    /// Aggregate InfiniBand bandwidth of the node in bytes/s.
    pub fn node_ib_bandwidth(&self) -> f64 {
        self.ib_bandwidth_per_nic * self.num_nics as f64
    }

    /// All GPU device ids on this node.
    pub fn gpus(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.num_gpus).map(DeviceId::Gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_defaults_match_paper() {
        let t = Topology::dgx_a100();
        assert_eq!(t.num_gpus, 8);
        assert_eq!(t.nvlink_bandwidth, 300.0e9);
        assert_eq!(t.pcie_bandwidth, 32.0e9);
        assert_eq!(t.gpus_per_pcie_switch, 2);
    }

    #[test]
    fn gpu_to_gpu_uses_nvlink_with_peer_access() {
        let t = Topology::dgx_a100();
        let p = t.path(DeviceId::Gpu(0), DeviceId::Gpu(5), 8);
        assert_eq!(p.link, LinkKind::NvLink);
        assert_eq!(p.bandwidth_share, 1.0);
    }

    #[test]
    fn local_access_is_local() {
        let t = Topology::dgx_a100();
        assert_eq!(
            t.path(DeviceId::Gpu(2), DeviceId::Gpu(2), 8).link,
            LinkKind::Local
        );
        assert_eq!(
            t.path(DeviceId::Cpu, DeviceId::Cpu, 0).link,
            LinkKind::Local
        );
    }

    #[test]
    fn pcie_sharing_halves_bandwidth_when_all_gpus_stream() {
        let t = Topology::dgx_a100();
        // 8 GPUs over 4 uplinks => 2 per uplink => each gets half.
        assert_eq!(t.pcie_share(8), 0.5);
        // A single active GPU owns its uplink.
        assert_eq!(t.pcie_share(1), 1.0);
        assert_eq!(t.pcie_share(0), 1.0);
        // The host->GPU path reflects this: 32 GB/s * 0.5 = 16 GB/s (§III-B).
        let p = t.path(DeviceId::Cpu, DeviceId::Gpu(0), 8);
        assert_eq!(p.link, LinkKind::Pcie);
        let effective = t.pcie_bandwidth * p.bandwidth_share;
        assert_eq!(effective, 16.0e9);
    }

    #[test]
    fn pcie_share_with_fewer_gpus() {
        let t = Topology::dgx_like(4); // 4 GPUs -> 2 uplinks
        assert_eq!(t.pcie_share(4), 0.5);
        assert_eq!(t.pcie_share(2), 1.0);
    }

    #[test]
    fn gpu_iterator() {
        let t = Topology::dgx_like(3);
        let gpus: Vec<_> = t.gpus().collect();
        assert_eq!(
            gpus,
            vec![DeviceId::Gpu(0), DeviceId::Gpu(1), DeviceId::Gpu(2)]
        );
    }

    #[test]
    fn node_ib_aggregate() {
        let t = Topology::dgx_a100();
        assert_eq!(t.node_ib_bandwidth(), 200.0e9);
    }
}

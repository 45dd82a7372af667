//! # wg-sim — simulated multi-GPU machine substrate
//!
//! WholeGraph (SC '22) runs on a DGX-A100: 8 NVIDIA A100 GPUs joined by
//! NVSwitch (300 GB/s unidirectional NVLink per GPU), pairs of GPUs sharing a
//! PCIe 4.0 x16 uplink with two InfiniBand NICs, and two 64-core AMD Rome
//! CPUs. This crate reproduces that machine in software so the rest of the
//! workspace can execute the paper's algorithms *for real* (real bytes moved
//! between per-device memory regions, real sampling, real training math)
//! while charging **simulated device time** from calibrated cost models.
//!
//! The crate provides:
//!
//! * [`device`] — device identities and hardware specifications,
//! * [`topology`] — the interconnect graph (NVLink/NVSwitch, PCIe, IB, host
//!   memory) and path resolution between endpoints,
//! * [`time`] — the simulated time type,
//! * [`cost`] — calibrated latency/bandwidth/compute cost models (every
//!   constant cites the paper table or figure it is fitted against),
//! * [`memory`] — per-device memory capacity accounting (Table IV),
//! * [`trace`] — busy/idle utilization traces (Figure 12),
//! * [`collective`] — cost models for AllGather / AllReduce / AlltoAllV,
//! * [`machine`] — the assembled [`machine::Machine`], with one simulated
//!   clock and one trace per node (its GPUs train in lockstep), and the
//!   cross-machine [`machine::cluster_barrier`].
//!
//! Nothing here depends on CUDA; a "kernel" elsewhere in the workspace is a
//! rayon parallel loop whose simulated duration is computed by these models.

#![forbid(unsafe_code)]

pub mod collective;
pub mod cost;
pub mod device;
pub mod machine;
pub mod memory;
pub mod time;
pub mod topology;
pub mod trace;

pub use cost::CostModel;
pub use device::{DeviceId, DeviceKind, DeviceSpec};
pub use machine::{cluster_barrier, Machine, MachineConfig};
pub use memory::{MemoryAccounting, MemoryPool};
pub use time::SimTime;
pub use topology::{LinkKind, Path, Topology};
pub use trace::{Phase, TraceEvent, UtilizationTrace};

//! # wg-mem — the WholeMemory multi-GPU distributed shared memory library
//!
//! This crate reproduces §III-B of the WholeGraph paper: a library that
//! treats the device memory of all GPUs on a node as **one logically shared
//! address space**. On the real system each GPU process allocates its
//! partition, exports a CUDA IPC handle, the handles are AllGathered, and
//! every device ends up with a *memory pointer table* through which it can
//! directly load/store any peer's memory — the GPUDirect P2P path. Here a
//! [`WholeMemory`] owns one region per GPU, its rank-indexed region vector
//! is that pointer table, and the one-time setup is priced, not re-enacted.
//!
//! On top of the address space the crate implements the paper's
//! communication primitives:
//!
//! * [`handle`] — [`WholeMemory`], the distributed allocation itself, with
//!   chunked row partitioning and global addressing;
//! * [`ipc`] — the closed-form price of the IPC setup (`cudaMalloc`,
//!   AllGather of handles, opening peer handles);
//! * [`access`] — element-level global reads/writes and address
//!   translation;
//! * [`gather`] — the **one-kernel global gather** of §III-C3 (each GPU
//!   directly reads peer memory; NVLink handles the communication): one
//!   `plan` / `execute` pair on a [`TierStack`], whose two optional
//!   members are the next two modules. The tiers price reads; the DSM
//!   serves them — every row is copied from the region that owns it;
//! * [`cache`] — the hotness-aware per-device feature cache directory
//!   (static replication of the top-K hot set, or dynamic CLOCK
//!   eviction) that prices remote gathers as local-HBM hits — cost
//!   changes, values never do;
//! * [`ooc`] — the out-of-core tier *below* the DSM: a residency map
//!   marking which rows a storage budget keeps in device memory, and a
//!   batched prefetch queue turning each gather plan's non-resident rows
//!   into coalesced ranged requests, the NVMe storage cost model pricing
//!   exactly that request list — again, cost changes, values never do;
//! * [`nccl`] — the 5-step distributed-memory gather baseline of Figure 4
//!   (bucket → exchange counts → alltoallv IDs → local gather → alltoallv
//!   features → reorder), used by Figure 10;
//! * [`probe`] — the microbenchmarks behind Table I (UM vs P2P pointer
//!   chase) and Figure 8 (random-read bandwidth vs segment size).
//!
//! All data movement is real (bytes are copied between per-device regions
//! by rayon-parallel loops standing in for CUDA kernels); the simulated
//! elapsed time of every operation comes from the calibrated cost models in
//! [`wg_sim`].

#![forbid(unsafe_code)]

pub mod access;
pub mod cache;
pub mod gather;
pub mod handle;
pub mod ipc;
pub mod nccl;
pub mod ooc;
pub mod probe;

pub use access::{ChunkLocator, Element};
pub use cache::{CacheMode, FeatureCache};
pub use gather::{GatherStats, RowPlan, StorageIo, TierStack};
pub use handle::WholeMemory;
pub use nccl::NcclGatherStats;
pub use ooc::{OocTier, MAX_TRANSFER_BYTES};

//! # WholeGraph — a fast GNN training framework on a multi-GPU distributed
//! # shared memory architecture (Rust reproduction)
//!
//! This crate is the user-facing façade of the reproduction of *WholeGraph*
//! (Yang, Liu, Qi & Lai — SC '22). The paper's system stores the graph
//! structure and node features across the device memories of all GPUs in a
//! node, accessed directly through GPUDirect P2P mappings, and runs
//! sampling, feature gathering and GNN layer compute entirely on the GPUs —
//! eliminating the CPU↔GPU pipeline that bottlenecks DGL/PyG.
//!
//! Everything executes for real on a **simulated machine** (see
//! [`wg_sim`]): kernels are rayon loops, device time comes from cost models
//! calibrated against the paper's own microbenchmarks. See `DESIGN.md` at
//! the repository root for the full substitution table.
//!
//! ## Quick start
//!
//! ```
//! use wholegraph::prelude::*;
//!
//! // A small learnable stand-in for ogbn-products on an 8-GPU "DGX".
//! let dataset = std::sync::Arc::new(SyntheticDataset::generate(
//!     DatasetKind::OgbnProducts, 2000, 42));
//! let machine = Machine::dgx_a100();
//! let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
//!     .with_seed(42);
//! let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();
//! let report = pipe.train_epoch(0);
//! assert!(report.loss.is_finite());
//! ```
//!
//! ## Modules
//!
//! * [`framework`] — the three systems under comparison: WholeGraph and
//!   the DGL/PyG-style host-memory baselines;
//! * [`convert`] — sampled-block → sparse-kernel format conversion;
//! * [`pipeline`] — the per-iteration engine (one straight-line sample →
//!   gather → train iteration, laid onto the machine wave by wave) with
//!   per-phase simulated timing and utilization traces;
//! * [`trainer`] — multi-epoch training and evaluation (accuracy
//!   experiments: Table III, Figure 7);
//! * [`multinode`] — data-parallel multi-node scaling (§III-D,
//!   Figure 13);
//! * [`observability`] — merged host-span / simulated-device Chrome
//!   trace export (pairs with the `wg-trace` crate);
//! * [`memstats`] — per-GPU memory accounting by phase (Table IV).
//!
//! The `wg` binary (the `wg-cli` crate) exposes dataset generation, IO,
//! training, and online serving from the command line.

pub mod convert;
pub mod framework;
pub mod memstats;
pub mod multinode;
pub mod observability;
pub mod pipeline;
pub mod trainer;

pub use framework::Framework;
pub use pipeline::{
    CacheConfig, EpochOccupancy, EpochReport, FeaturePlacement, InferenceReport, Pipeline,
    PipelineConfig, ServeTimes, StorageConfig, StorageIo, SERVE_EPOCH,
};
pub use trainer::{TrainOutcome, Trainer, TrainerConfig};

/// Convenient re-exports for applications.
pub mod prelude {
    pub use crate::framework::Framework;
    pub use crate::multinode::{MultiNode, MultiNodeConfig, MultiNodeEpochReport, SyncConfig};
    pub use crate::pipeline::{
        CacheConfig, EpochOccupancy, EpochReport, FeaturePlacement, Pipeline, PipelineConfig,
        ServeTimes, StorageConfig, StorageIo, SERVE_EPOCH,
    };
    pub use crate::trainer::{TrainOutcome, Trainer, TrainerConfig};
    pub use wg_gnn::{GnnConfig, GnnModel, LayerProvider, ModelKind};
    pub use wg_graph::{DatasetKind, DegreeProfile, SyntheticDataset};
    pub use wg_mem::CacheMode;
    pub use wg_sample::SamplerConfig;
    pub use wg_sim::{Machine, MachineConfig, SimTime};
}

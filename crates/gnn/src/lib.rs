//! # wg-gnn — GNN layers and models
//!
//! The three models of the paper's evaluation — **GCN**, **GraphSage**
//! (mean aggregation) and **GAT** (4 heads) — built from the g-SpMM /
//! g-SDDMM / edge-softmax message-passing ops of §III-C4 on the
//! [`wg_autograd`] tape. All models follow the paper's evaluation shape:
//! 3 layers, hidden size 256, batch 512, fanout 30 per layer (configurable
//! in [`model::GnnConfig`]).
//!
//! [`provider`] models the paper's **layer providers** (§III-A / §IV-C5):
//! the same mathematical layers can be executed by WholeGraph's native
//! fused kernels or by DGL/PyG layer implementations, which spend more
//! kernel launches and achieve lower kernel efficiency — the source of the
//! "up to 1.31×/2.43× faster than WholeGraph using DGL/PyG layers" result
//! in Figure 11.

#![forbid(unsafe_code)]

pub mod cost;
pub mod model;
pub mod provider;

pub use cost::train_step_time;
pub use model::{GnnConfig, GnnModel, ModelKind};
pub use provider::LayerProvider;

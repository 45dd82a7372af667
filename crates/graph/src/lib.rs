//! # wg-graph — graph storage for WholeGraph
//!
//! Implements the multi-GPU graph storage of §III-B: nodes are assigned to
//! GPUs by a hash of their node ID, every node gets a **GlobalID** composed
//! of its rank ID and local ID, edges are stored together with their source
//! node, and node features are co-located with the node — all inside
//! [`wg_mem::WholeMemory`] distributed allocations so any GPU can read any
//! node's adjacency or features directly.
//!
//! Modules:
//!
//! * [`csr`] — host-side CSR graphs and the builder used by generators;
//! * [`global_id`] — the rank‖local GlobalID packing;
//! * [`partition`] — hash partitioning of nodes onto GPUs;
//! * [`store`] — [`store::MultiGpuGraph`], the distributed graph +
//!   feature store (plus [`store::HostGraph`], the host-memory layout the
//!   DGL/PyG baselines use);
//! * [`gen`] — synthetic generators (Erdős–Rényi, R-MAT, SBM with
//!   class-correlated features);
//! * [`datasets`] — scaled stand-ins for the paper's four evaluation
//!   graphs (Table II).

#![forbid(unsafe_code)]

pub mod csr;
pub mod datasets;
pub mod gen;
pub mod global_id;
pub mod io;
pub mod partition;
pub mod store;

/// Node identifier in the *original* (dataset) numbering.
pub type NodeId = u64;

pub use csr::Csr;
pub use datasets::{DatasetKind, DegreeProfile, SyntheticDataset};
pub use global_id::GlobalId;
pub use partition::HashPartition;
pub use store::{HostGraph, MultiGpuGraph};

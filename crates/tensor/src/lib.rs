//! # wg-tensor — dense and sparse tensor math
//!
//! The numeric substrate under WholeGraph's GNN layers. Dense kernels
//! ([`matrix`], [`ops`]) are rayon-parallel row-blocked loops standing in
//! for cuBLAS/elementwise CUDA kernels; sparse kernels ([`sparse`])
//! implement the paper's §III-C4 ops:
//!
//! * **g-SpMM** — generalized sparse-matrix × dense-matrix: message
//!   passing from source nodes to destination nodes over a sampled
//!   sub-graph CSR, with optional per-edge (per-head) weights;
//! * **g-SDDMM** — generalized sampled-dense-dense matrix multiplication:
//!   per-edge values from dst/src feature pairs (attention logits, SpMM's
//!   backward w.r.t. edge weights);
//! * the backward of g-SpMM w.r.t. source features runs on the
//!   *untransposed* CSR with **atomic adds**, using the AppendUnique
//!   duplicate counts to downgrade the atomic to a plain store for nodes
//!   sampled exactly once — exactly the paper's optimization;
//! * **edge softmax** over each destination's incoming edges (GAT).
//!
//! [`heap`] is the counting allocator the workspace's allocation and
//! peak-heap contracts are checked under.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod heap;
pub mod matrix;
pub mod ops;
pub mod simd;
pub mod sparse;

pub use matrix::Matrix;
pub use sparse::{Agg, BlockCsr};

//! # wg-sample — WholeGraph's sampling ops (§III-C)
//!
//! Mini-batch GNN training needs, per iteration: random neighbor sampling
//! without replacement for every target node, deduplication of the sampled
//! node set, and construction of the computation sub-graph. WholeGraph
//! moves all three onto the GPU; this crate reproduces them:
//!
//! * [`wrs`] — sampling without replacement: **Algorithm 1** (fully
//!   parallel, path doubling) verbatim, and the host kernel
//!   [`sample_small`], sequential Fisher–Yates over the same draws — the
//!   same output, tested draw for draw against Algorithm 1 and a
//!   reference Fisher–Yates;
//! * [`radix`] — the packed 64-bit radix sort the paper uses inside
//!   Algorithm 1 ("we pack 32-bit array `r[M]` and its index array to one
//!   64-bit array ... then use radix-sort");
//! * [`hashtable`] — a GPU-style (Warpcore-like) open-addressing hash
//!   table with atomic CAS insertion, one packed 16-byte slot per key;
//! * [`prefix`] — exclusive prefix sums (used for sub-graph ID
//!   assignment);
//! * [`mod@append_unique`] — the **AppendUnique** op of §III-C2 / Figure 5:
//!   targets first, hash-based dedup, first-occurrence + prefix-sum ID
//!   assignment, duplicate counts (consumed by the g-SpMM backward
//!   optimization), plus the sort-based baseline other frameworks use;
//! * [`neighbor`] — multi-layer neighbor sampling over either the
//!   multi-GPU store or the host store (the same algorithm parameterized by
//!   a [`neighbor::GraphAccess`], so WholeGraph and the DGL/PyG-style
//!   baselines provably sample identical sub-graphs), with per-backend
//!   simulated cost accounting.
//!
//! The kernels' positional writes — each frontier node's CSR range in the
//! sampler, each chunk's exclusive-scan range in AppendUnique — go through
//! the rayon shim's `par_ranges_mut`, which hands every task its own
//! `split_at_mut` borrow, so the crate is `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]

pub mod append_unique;
pub mod hashtable;
pub mod neighbor;
pub mod prefix;
pub mod radix;
pub mod wrs;

pub use append_unique::{
    append_unique, append_unique_into, append_unique_sorted, AppendUniqueResult,
    AppendUniqueScratch,
};
pub use neighbor::{
    sample_minibatch, sample_minibatch_into, sample_minibatch_reference, GraphAccess,
    HostGraphAccess, MiniBatch, MultiGpuAccess, SampleBlock, SampleScratch, SampleStats,
    SamplerBackend, SamplerConfig,
};
pub use wrs::{sample_small, sample_without_replacement, PathDoublingSampler, STACK_FANOUT_MAX};

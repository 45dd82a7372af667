//! Multi-node data-parallel **execution** (§III-D, Figure 13).
//!
//! "Each machine node holds one replica of the graph structure and graph
//! features ... Sampling and gathering feature ops are proceeded using
//! graph and feature stored in local machine node. ... all GPUs
//! synchronize the computed gradients with each other using the Allreduce
//! communication."
//!
//! This module executes exactly that: N simulated machines, each running
//! its own [`Pipeline`](crate::pipeline::Pipeline) over a full replica of
//! the dataset and its own shard of the training set, with gradients
//! synchronized through the inter-node ring AllReduce of
//! [`wg_sim::collective`] — the only traffic that crosses InfiniBand.
//! The pieces:
//!
//! * [`exec`] — [`MultiNode`], the cluster executor: the per-node train
//!   shards, the per-wave loop (every node runs one deferred-step
//!   iteration, gradients sync, all replicas step in lockstep), per-node
//!   epoch reports from [`Schedule`](crate::pipeline::Schedule), and the
//!   trailing [`wg_sim::cluster_barrier`].
//! * [`sync`] — [`GradSync`]: the per-wave gradient AllReduce that
//!   averages the active replicas' gradients into every replica.
//! * [`sweep`] — [`executed_sweep`]: one executed epoch per node count.
//!
//! Correctness bar: at N=1 the executed epoch is **bit-identical** to
//! [`Pipeline::train_epoch`](crate::pipeline::Pipeline::train_epoch) —
//! same losses, same simulated times — because the local batch shard is
//! the whole training set in the same shuffle order, the inter-node
//! AllReduce term is exactly zero, and the gradient sync is a complete
//! no-op. At N>1 every node's sample, gather and train times are bitwise
//! a lone pipeline's on its shard; the numerics follow synchronized
//! data-parallel SGD over partitioned shards (loss parity within
//! tolerance, not bit equality — batch compositions differ).

pub mod exec;
pub mod sweep;
pub mod sync;

pub use exec::{MultiNode, MultiNodeConfig, MultiNodeEpochReport, NodeEpochReport};
pub use sweep::{executed_sweep, ExecutedPoint};
pub use sync::{GradSync, SyncConfig, WaveSync};

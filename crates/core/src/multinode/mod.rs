//! Multi-node data-parallel **execution** (§III-D, Figure 13).
//!
//! "Each machine node holds one replica of the graph structure and graph
//! features ... Sampling and gathering feature ops are proceeded using
//! graph and feature stored in local machine node. ... all GPUs
//! synchronize the computed gradients with each other using the Allreduce
//! communication."
//!
//! Earlier revisions *projected* multi-node scaling from single-node
//! means (that projection survives as [`projected_sweep`]); this module
//! **executes** it: N simulated machines, each running its own
//! [`Pipeline`](crate::pipeline::Pipeline) over a machine-level
//! [`wg_graph::HashPartition`] of the training set, with halo
//! (boundary-node) feature fetches priced through [`wg_mem::halo`] and
//! gradients synchronized through the inter-node ring AllReduce of
//! [`wg_sim::collective`]. The pieces:
//!
//! * [`partition_plan`] — the machine-level graph partition: per-node
//!   training shards plus [`wg_graph::PartitionQuality`] (edge cut,
//!   boundary set, balance).
//! * [`exec`] — [`MultiNode`], the cluster executor: the per-wave loop
//!   (every node runs one deferred-step iteration, gradients sync, all
//!   replicas step in lockstep), per-node epoch reports from
//!   [`Schedule`](crate::pipeline::Schedule), and the trailing
//!   [`wg_sim::cluster_barrier`].
//! * [`sync`] — [`GradSync`]: the per-wave gradient AllReduce that
//!   averages the active replicas' gradients into every replica.
//! * [`sweep`] — [`executed_sweep`] (run one epoch per node count) and
//!   the legacy mean-based [`projected_sweep`].
//!
//! Correctness bar: at N=1 the executed epoch is **bit-identical** to
//! [`Pipeline::train_epoch`](crate::pipeline::Pipeline::train_epoch) —
//! same losses, same simulated times — because the local batch shard is
//! the whole training set in the same shuffle order, the halo and
//! inter-node AllReduce terms are exactly zero, and the gradient sync is
//! a complete no-op. At N>1 the numerics follow synchronized
//! data-parallel SGD over partitioned shards (loss parity within
//! tolerance, not bit equality — batch compositions differ).

pub mod exec;
pub mod partition_plan;
pub mod sweep;
pub mod sync;

pub use exec::{MultiNode, MultiNodeConfig, MultiNodeEpochReport, NodeEpochReport};
pub use partition_plan::PartitionPlan;
pub use sweep::{executed_sweep, projected_sweep, ExecutedPoint, ScalingPoint};
pub use sync::{GradSync, SyncConfig, WaveSync};

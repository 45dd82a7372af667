//! The multi-node cluster executor: N machines, N pipeline replicas, one
//! synchronized training stream per wave.
//!
//! Execution model (paper §III-D): every machine holds a replica of the
//! graph and features, trains on its own shard of the training split, and
//! synchronizes gradients with the other machines after each wave.
//! Structurally:
//!
//! 1. [`PartitionPlan`] splits the training split by the machine-level
//!    hash partition; each node shuffles and batches its shard with the
//!    same seed schedule as
//!    [`Pipeline::train_epoch`](crate::pipeline::Pipeline::train_epoch).
//! 2. Per wave, every node with batches left runs one deferred-step
//!    iteration on its own simulated [`wg_sim::Machine`] (sample → halo
//!    fetch → gather → train); halo rows — input rows owned by another
//!    machine — are priced over IB by [`wg_mem::halo`].
//! 3. [`GradSync`] averages gradients across replicas (optionally top-k
//!    compressed, or replaced by delayed parameter averaging), the
//!    inter-node ring AllReduce time is charged to the wave's comm
//!    phase, and replicas step.
//! 4. At epoch end each node's iteration results are scheduled by the
//!    pipeline's configured
//!    [`ExecMode`](crate::pipeline::ExecMode) (`Pipeline::finish_epoch`
//!    → per-node [`EpochReport`]), and [`wg_sim::cluster_barrier`]
//!    aligns the machines: the epoch takes as long as the slowest node.
//!
//! At `nodes == 1` every multi-node term is exactly zero and the run is
//! bit-identical to the single pipeline (see the module docs of
//! [`crate::multinode`]).

use std::sync::Arc;

use wg_graph::{NodeId, SyntheticDataset};
use wg_sim::memory::OutOfMemory;
use wg_sim::{cluster_barrier, Machine, MachineConfig, SimTime};

use crate::multinode::partition_plan::PartitionPlan;
use crate::multinode::sync::{GradSync, SyncConfig};
use crate::pipeline::{
    epoch_order_into, DistContext, EpochReport, IterationResult, Pipeline, PipelineConfig,
};

/// Shape of the simulated cluster.
#[derive(Clone, Debug)]
pub struct MultiNodeConfig {
    /// Number of machine nodes.
    pub nodes: u32,
    /// GPUs per machine (each node is a dgx-like box).
    pub gpus_per_node: u32,
    /// Gradient synchronization mode.
    pub sync: SyncConfig,
}

impl MultiNodeConfig {
    /// `nodes` dgx-like 8-GPU machines with full per-wave gradient sync.
    pub fn new(nodes: u32) -> Self {
        MultiNodeConfig {
            nodes,
            gpus_per_node: 8,
            sync: SyncConfig::default(),
        }
    }

    /// Override GPUs per node.
    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus_per_node = gpus;
        self
    }

    /// Override the gradient sync mode.
    pub fn with_sync(mut self, sync: SyncConfig) -> Self {
        self.sync = sync;
        self
    }
}

/// One node's view of an executed epoch.
#[derive(Clone, Debug)]
pub struct NodeEpochReport {
    /// Machine rank.
    pub node: u32,
    /// The node's pipeline epoch report (`None` if its shard was empty).
    pub report: Option<EpochReport>,
    /// Input feature rows this node fetched from other machines.
    pub halo_rows: u64,
    /// Bytes those halo rows moved over IB.
    pub halo_bytes: u64,
    /// Iterations the node executed.
    pub iterations: usize,
}

/// Cluster-level report of one executed epoch.
#[derive(Clone, Debug)]
pub struct MultiNodeEpochReport {
    /// Machines in the run.
    pub nodes: u32,
    /// Cluster epoch time: the slowest node's epoch (all machines
    /// rendezvous at the trailing barrier, so the cluster advances at
    /// the pace of its slowest member). At N=1 this is bitwise the
    /// single pipeline's `epoch_time`.
    pub epoch_time: SimTime,
    /// Mean training loss over all executed iterations (node-major, the
    /// same reduction [`EpochReport`] uses — bitwise identical at N=1).
    pub loss: f32,
    /// Training accuracy over all executed iterations.
    pub train_accuracy: f64,
    /// Iterations executed across all nodes.
    pub executed_iterations: usize,
    /// Synchronization waves the epoch ran.
    pub waves: usize,
    /// Inter-node bytes each node moved for gradient sync over the epoch.
    pub sync_bytes: u64,
    /// Inter-node time spent in gradient sync over the epoch.
    pub sync_time: SimTime,
    /// Per-iteration losses, node-major (node 0's iterations first).
    pub losses: Vec<f32>,
    /// Per-node reports.
    pub per_node: Vec<NodeEpochReport>,
}

/// The multi-node executor: one [`Pipeline`] replica per machine plus the
/// cross-node gradient synchronizer.
pub struct MultiNode {
    cfg: MultiNodeConfig,
    plan: PartitionPlan,
    pipes: Vec<Pipeline>,
    sync: GradSync,
}

impl MultiNode {
    /// Build `cfg.nodes` machines, each with its own pipeline replica
    /// over (a full local copy of) `dataset`, sharded by a machine-level
    /// hash partition.
    pub fn new(
        dataset: Arc<SyntheticDataset>,
        pipe_cfg: PipelineConfig,
        cfg: MultiNodeConfig,
    ) -> Result<Self, OutOfMemory> {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let plan = PartitionPlan::new(&dataset, cfg.nodes);
        let mut pipes = Vec::with_capacity(cfg.nodes as usize);
        for k in 0..cfg.nodes {
            let machine = Machine::new(MachineConfig::dgx_like(cfg.gpus_per_node));
            let mut pipe = Pipeline::new(machine, Arc::clone(&dataset), pipe_cfg.clone())?;
            pipe.dist = Some(DistContext::new(k, Arc::clone(plan.partition())));
            pipes.push(pipe);
        }
        let cost = pipes[0].machine().cost().clone();
        let sync = GradSync::new(cfg.sync.clone(), cost, cfg.nodes);
        Ok(MultiNode {
            cfg,
            plan,
            pipes,
            sync,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MultiNodeConfig {
        &self.cfg
    }

    /// The machine-level partition plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Node `k`'s pipeline replica.
    pub fn pipeline(&self, k: u32) -> &Pipeline {
        &self.pipes[k as usize]
    }

    /// Every node's simulated machine (for cluster trace export).
    pub fn machines(&self) -> Vec<&Machine> {
        self.pipes.iter().map(|p| p.machine()).collect()
    }

    /// Node `k`'s shuffled batches for `epoch` — the same shuffle-seed
    /// schedule as [`Pipeline::epoch_batches`], applied to the node's
    /// shard. At `nodes == 1` the shard is the whole train split in
    /// dataset order, so the batches are identical to the single-node
    /// epoch's.
    pub fn local_batches(&self, k: u32, epoch: u64) -> Vec<Vec<NodeId>> {
        let cfg = self.pipes[k as usize].config();
        let mut order = Vec::new();
        epoch_order_into(self.plan.local_train(k), cfg.seed, epoch, &mut order);
        order
            .chunks(cfg.batch_size)
            .map(<[NodeId]>::to_vec)
            .collect()
    }

    /// Execute one data-parallel epoch across all nodes.
    pub fn train_epoch(&mut self, epoch: u64) -> MultiNodeEpochReport {
        let _span = wg_trace::span!("multinode.epoch");
        let nodes = self.cfg.nodes as usize;
        let batches: Vec<Vec<Vec<NodeId>>> = (0..self.cfg.nodes)
            .map(|k| self.local_batches(k, epoch))
            .collect();
        let waves = batches.iter().map(Vec::len).max().unwrap_or(0);
        let mut results: Vec<Vec<IterationResult>> = vec![Vec::new(); nodes];
        let mut active: Vec<usize> = Vec::with_capacity(nodes);
        let mut sync_time = SimTime::ZERO;
        let mut sync_bytes: u64 = 0;
        let delayed = self.sync.config().is_delayed();
        for wave in 0..waves {
            active.clear();
            for k in 0..nodes {
                if let Some(batch) = batches[k].get(wave) {
                    let r = self.pipes[k].run_iteration_deferred(epoch, wave as u64, batch);
                    results[k].push(r);
                    active.push(k);
                }
            }
            if delayed {
                // Delayed partial aggregation: local step first, periodic
                // parameter averaging after (DistGNN-style).
                for &k in &active {
                    self.pipes[k].apply_step();
                }
            }
            let ws = {
                let mut replicas: Vec<&mut wg_autograd::Params> =
                    self.pipes.iter_mut().map(|p| &mut p.model.params).collect();
                self.sync.sync_wave(wave as u64, &mut replicas, &active)
            };
            if !delayed {
                // Synchronized DDP: every replica received the same
                // averaged gradients, so every replica steps — parameters
                // (and optimizer moments) stay bitwise in lockstep.
                for p in &mut self.pipes {
                    p.apply_step();
                }
            }
            if ws.time > SimTime::ZERO {
                for &k in &active {
                    results[k]
                        .last_mut()
                        .expect("active node ran this wave")
                        .times
                        .comm += ws.time;
                }
            }
            sync_time += ws.time;
            sync_bytes += ws.bytes;
        }
        {
            // Delayed mode drifts between periodic syncs; flush so the
            // replicas agree before evaluation.
            let mut replicas: Vec<&mut wg_autograd::Params> =
                self.pipes.iter_mut().map(|p| &mut p.model.params).collect();
            if let Some(ws) = self.sync.finish_epoch(&mut replicas) {
                sync_time += ws.time;
                sync_bytes += ws.bytes;
            }
        }
        // Per-node accounting: hand each node's iterations to its
        // configured `ExecMode` (charges each machine's clock and trace).
        let mut per_node = Vec::with_capacity(nodes);
        for (k, node_results) in results.iter().enumerate() {
            let report = if node_results.is_empty() {
                None
            } else {
                Some(self.pipes[k].finish_epoch(node_results, node_results.len()))
            };
            let (halo_rows, halo_bytes) = self.pipes[k].take_halo_stats();
            per_node.push(NodeEpochReport {
                node: k as u32,
                report,
                halo_rows,
                halo_bytes,
                iterations: node_results.len(),
            });
        }
        // The slowest node sets the cluster epoch time. Each per-node
        // report measures its own epoch with the node's configured
        // `ExecMode` (phase-sum for serial, schedule length for
        // overlapped), so the max — not a clock subtraction, which
        // accumulates float error in a different order — is the honest
        // cluster figure, and bitwise the pipeline's at N=1.
        let epoch_time = per_node
            .iter()
            .filter_map(|n| n.report.map(|r| r.epoch_time))
            .fold(SimTime::ZERO, SimTime::max);
        // Rendezvous: idle the faster machines up to the slowest so the
        // next epoch (and the exported traces) start aligned.
        {
            let mut machines: Vec<&mut Machine> =
                self.pipes.iter_mut().map(|p| p.machine_mut()).collect();
            cluster_barrier(&mut machines);
        }
        // Cluster numerics, node-major — the same reductions
        // `ExecMode::finish_epoch` applies, so N=1 is bitwise identical.
        let losses: Vec<f32> = results.iter().flatten().map(|r| r.loss).collect();
        let loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        let correct: usize = results.iter().flatten().map(|r| r.correct).sum();
        let seen: usize = results.iter().flatten().map(|r| r.batch).sum();
        let executed_iterations = losses.len();
        MultiNodeEpochReport {
            nodes: self.cfg.nodes,
            epoch_time,
            loss,
            train_accuracy: correct as f64 / seen.max(1) as f64,
            executed_iterations,
            waves,
            sync_bytes,
            sync_time,
            losses,
            per_node,
        }
    }

    /// Evaluate accuracy on a node set via node 0's replica (after a
    /// synchronized epoch all replicas hold the same parameters).
    pub fn evaluate(&mut self, nodes: &[NodeId]) -> f64 {
        self.pipes[0].evaluate(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use crate::pipeline::ExecMode;
    use wg_gnn::ModelKind;
    use wg_graph::DatasetKind;

    fn dataset() -> Arc<SyntheticDataset> {
        Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1500,
            5,
        ))
    }

    fn pipe_cfg() -> PipelineConfig {
        let mut cfg =
            PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(11);
        cfg.batch_size = 32;
        cfg
    }

    fn cluster(nodes: u32) -> MultiNode {
        MultiNode::new(
            dataset(),
            pipe_cfg(),
            MultiNodeConfig::new(nodes).with_gpus(2),
        )
        .unwrap()
    }

    #[test]
    fn single_node_execution_is_bit_identical_to_the_pipeline() {
        let mut mn = cluster(1);
        let r = mn.train_epoch(0);
        let machine = Machine::new(MachineConfig::dgx_like(2));
        let mut single = Pipeline::new(machine, dataset(), pipe_cfg()).unwrap();
        let s = single.train_epoch(0);
        // Same losses bit for bit, same accuracy, same simulated times.
        assert_eq!(r.loss.to_bits(), s.loss.to_bits());
        assert_eq!(r.train_accuracy, s.train_accuracy);
        assert_eq!(r.executed_iterations, s.executed_iterations);
        assert_eq!(r.epoch_time, s.epoch_time);
        let nr = r.per_node[0].report.expect("node 0 trained");
        assert_eq!(nr.loss.to_bits(), s.loss.to_bits());
        assert_eq!(nr.epoch_time, s.epoch_time);
        assert_eq!(nr.sample_time, s.sample_time);
        assert_eq!(nr.gather_time, s.gather_time);
        assert_eq!(nr.comm_time, s.comm_time);
        // No multi-node terms at N=1.
        assert_eq!(r.sync_bytes, 0);
        assert!(r.sync_time.is_zero());
        assert_eq!(r.per_node[0].halo_rows, 0);
        // ... and the model parameters end up bitwise identical too.
        let a = &mn.pipeline(0).model.params;
        let b = &single.model.params;
        for id in a.ids() {
            let ab: Vec<u32> = a.value(id).data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.value(id).data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn two_node_losses_stay_close_to_single_node() {
        // Partitioned shards change batch composition, so the epoch-mean
        // loss differs from single-node — but synchronized data-parallel
        // SGD over the same data must land in the same neighborhood.
        // Tolerance documented in DESIGN.md §9: 15% relative on the
        // epoch-mean loss at test scale.
        let machine = Machine::new(MachineConfig::dgx_like(2));
        let mut single = Pipeline::new(machine, dataset(), pipe_cfg()).unwrap();
        let s = single.train_epoch(0);
        for nodes in [2u32, 4] {
            let mut mn = cluster(nodes);
            let r = mn.train_epoch(0);
            // Per-shard ceil batching can add a trailing partial batch
            // per node, so the cluster executes at least as many
            // iterations as the single pipeline, never fewer.
            assert!(r.executed_iterations >= s.executed_iterations);
            let rel = (r.loss - s.loss).abs() / s.loss.abs();
            assert!(
                rel < 0.15,
                "{nodes}-node loss {} vs single {} (rel {rel})",
                r.loss,
                s.loss
            );
            assert!(r.sync_bytes > 0);
            assert!(r.sync_time > SimTime::ZERO);
        }
    }

    #[test]
    fn replicas_stay_in_bitwise_lockstep_under_full_sync() {
        let mut mn = cluster(3);
        mn.train_epoch(0);
        let p0 = &mn.pipeline(0).model.params;
        for k in 1..3 {
            let pk = &mn.pipeline(k).model.params;
            for id in p0.ids() {
                let a: Vec<u32> = p0.value(id).data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = pk.value(id).data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "replica {k} diverged on {id:?}");
            }
        }
    }

    #[test]
    fn halo_traffic_appears_only_with_multiple_nodes() {
        let mut mn = cluster(2);
        let r = mn.train_epoch(0);
        // Hash partitioning cuts most edges, so two-node sampling pulls
        // remote input rows on essentially every batch.
        for n in &r.per_node {
            assert!(n.halo_rows > 0, "node {} saw no halo rows", n.node);
            assert!(n.halo_bytes > 0);
            let rep = n.report.unwrap();
            assert!(rep.gather_time > SimTime::ZERO);
        }
        // Epoch time covers the slowest node.
        for n in &r.per_node {
            assert!(r.epoch_time >= n.report.unwrap().epoch_time);
        }
    }

    #[test]
    fn compression_reduces_sync_traffic_and_still_trains() {
        let mut full = cluster(2);
        let rf = full.train_epoch(0);
        let mut mn = MultiNode::new(
            dataset(),
            pipe_cfg(),
            MultiNodeConfig::new(2).with_gpus(2).with_sync(SyncConfig {
                compress_topk: Some(0.1),
                delayed_agg_period: 1,
            }),
        )
        .unwrap();
        let rc = mn.train_epoch(0);
        assert!(rc.loss.is_finite() && rc.loss > 0.0);
        assert!(
            rc.sync_bytes < rf.sync_bytes / 2,
            "top-k {} !<< full {}",
            rc.sync_bytes,
            rf.sync_bytes
        );
        assert!(rc.sync_time < rf.sync_time);
    }

    #[test]
    fn delayed_aggregation_syncs_fewer_waves() {
        let mut mn = MultiNode::new(
            dataset(),
            pipe_cfg(),
            MultiNodeConfig::new(2).with_gpus(2).with_sync(SyncConfig {
                compress_topk: None,
                delayed_agg_period: 4,
            }),
        )
        .unwrap();
        let r = mn.train_epoch(0);
        assert!(r.loss.is_finite() && r.loss > 0.0);
        let mut full = cluster(2);
        let rf = full.train_epoch(0);
        assert!(
            r.sync_bytes < rf.sync_bytes,
            "delayed {} !< full {}",
            r.sync_bytes,
            rf.sync_bytes
        );
        // After the end-of-epoch flush the replicas agree again.
        let p0 = &mn.pipeline(0).model.params;
        let p1 = &mn.pipeline(1).model.params;
        for id in p0.ids() {
            let a: Vec<u32> = p0.value(id).data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = p1.value(id).data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn overlapped_executor_carries_through_per_node() {
        // DGL's big input phases and a 1-GPU node (several waves per
        // shard) make the overlap win strict on every node.
        let mut cfg = PipelineConfig::tiny(Framework::Dgl, ModelKind::GraphSage).with_seed(11);
        cfg.batch_size = 16;
        cfg.exec = ExecMode::Overlapped;
        let mut mn = MultiNode::new(dataset(), cfg, MultiNodeConfig::new(2).with_gpus(1)).unwrap();
        let r = mn.train_epoch(0);
        assert!(r.loss.is_finite());
        for n in &r.per_node {
            let rep = n.report.unwrap();
            assert!(
                rep.iterations >= 2,
                "node {} needs waves to overlap",
                n.node
            );
            // Overlap: schedule shorter than the phase-time sum.
            assert!(
                rep.epoch_time < rep.sample_time + rep.gather_time + rep.train_time + rep.comm_time
            );
        }
    }
}

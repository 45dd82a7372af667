//! The multi-node cluster executor: N machines, N pipeline replicas, one
//! synchronized training stream per wave.
//!
//! Execution model (paper §III-D): every machine holds a full replica of
//! the graph and features, trains on its own shard of the training split,
//! and synchronizes gradients with the other machines after each wave.
//! Shard → local pipeline → AllReduce:
//!
//! 1. `train_shards` splits the training split by a machine-level
//!    [`HashPartition`] of the node ids; each node shuffles and batches its
//!    shard with the same seed schedule as
//!    [`Pipeline::train_epoch`](crate::pipeline::Pipeline::train_epoch).
//! 2. Per wave, every node with batches left runs one deferred-step
//!    iteration on its own simulated [`wg_sim::Machine`] — sample, gather
//!    and train, all from its local replica, exactly as a lone pipeline
//!    would.
//! 3. [`GradSync`] averages gradients across replicas, the inter-node
//!    ring AllReduce time is charged to the node's comm phase — the only
//!    traffic that crosses InfiniBand — and every replica steps. A node's
//!    clock lays its batches out `gpus_per_node` to a wave, so each of its
//!    clock waves carries the syncs of all the batches it covers.
//! 4. At epoch end each node's iteration results are scheduled by
//!    [`Schedule`](crate::pipeline::Schedule) (`Pipeline::finish_epoch`
//!    → per-node [`EpochReport`]), and [`wg_sim::cluster_barrier`]
//!    aligns the machines: the epoch takes as long as the slowest node.
//!
//! At `nodes == 1` every multi-node term is exactly zero and the run is
//! bit-identical to the single pipeline (see the module docs of
//! [`crate::multinode`]).

use std::sync::Arc;

use wg_graph::{HashPartition, NodeId, SyntheticDataset};
use wg_sim::memory::OutOfMemory;
use wg_sim::{cluster_barrier, Machine, MachineConfig, SimTime};

use crate::multinode::sync::{GradSync, SyncConfig};
use crate::pipeline::{epoch_order_into, EpochReport, IterationResult, Pipeline, PipelineConfig};

/// Shape of the simulated cluster.
#[derive(Clone, Debug)]
pub struct MultiNodeConfig {
    /// Number of machine nodes.
    pub nodes: u32,
    /// GPUs per machine (each node is a dgx-like box).
    pub gpus_per_node: u32,
}

impl MultiNodeConfig {
    /// `nodes` dgx-like 8-GPU machines with full per-wave gradient sync.
    pub fn new(nodes: u32) -> Self {
        MultiNodeConfig {
            nodes,
            gpus_per_node: 8,
        }
    }

    /// Override GPUs per node.
    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus_per_node = gpus;
        self
    }

    /// A no-op: the gradient sync has one mode. It exists only because
    /// the out-of-tree `benchmark/` package calls it.
    pub fn with_sync(self, _sync: SyncConfig) -> Self {
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
    /// Always 0: a node gathers every row from its own replica. Kept
    /// only for `benchmark/`; deleted with ROADMAP item 4(a).
    pub halo_rows: u64,
    /// Always 0, as `halo_rows`. Kept only for `benchmark/`; deleted with
    /// ROADMAP item 4(a).
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

/// Each machine's training shard: the train vertices a machine-level
/// hash partition assigns it, in dataset train-split order — so at
/// `nodes == 1` the single shard *is* `dataset.train`, the first link in
/// the N=1 bit-identity chain.
fn train_shards(dataset: &SyntheticDataset, nodes: u32) -> Vec<Vec<NodeId>> {
    let owners = HashPartition::new(dataset.graph.num_nodes(), nodes);
    let mut shards = vec![Vec::new(); nodes as usize];
    for &v in &dataset.train {
        shards[owners.rank_of(v) as usize].push(v);
    }
    shards
}

/// The multi-node executor: one [`Pipeline`] replica per machine plus the
/// cross-node gradient synchronizer.
pub struct MultiNode {
    cfg: MultiNodeConfig,
    shards: Vec<Vec<NodeId>>,
    pipes: Vec<Pipeline>,
    sync: GradSync,
}

impl MultiNode {
    /// Build `cfg.nodes` machines, each with its own pipeline replica
    /// over (a full local copy of) `dataset`, training on its
    /// `train_shards` shard.
    pub fn new(
        dataset: Arc<SyntheticDataset>,
        pipe_cfg: PipelineConfig,
        cfg: MultiNodeConfig,
    ) -> Result<Self, OutOfMemory> {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let shards = train_shards(&dataset, cfg.nodes);
        let pipes = (0..cfg.nodes)
            .map(|_| {
                let machine = Machine::new(MachineConfig::dgx_like(cfg.gpus_per_node));
                Pipeline::new(machine, Arc::clone(&dataset), pipe_cfg.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cost = pipes[0].machine().cost().clone();
        let sync = GradSync::new(cost, cfg.nodes);
        Ok(MultiNode {
            cfg,
            shards,
            pipes,
            sync,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MultiNodeConfig {
        &self.cfg
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
        epoch_order_into(&self.shards[k as usize], cfg.seed, epoch, &mut order);
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
        for wave in 0..waves {
            active.clear();
            for k in 0..nodes {
                if let Some(batch) = batches[k].get(wave) {
                    let r = self.pipes[k].run_iteration_deferred(epoch, wave as u64, batch);
                    results[k].push(r);
                    active.push(k);
                }
            }
            let ws = {
                let mut replicas: Vec<&mut wg_autograd::Params> =
                    self.pipes.iter_mut().map(|p| &mut p.model.params).collect();
                self.sync.sync_wave(&mut replicas, &active)
            };
            // Synchronized DDP: every replica received the same averaged
            // gradients, so every replica steps — parameters (and
            // optimizer moments) stay bitwise in lockstep.
            for p in &mut self.pipes {
                p.apply_step();
            }
            // A node's schedule lays its batches out `gpus_per_node` to a
            // clock wave and charges each clock wave with its first
            // batch's times, so every sync goes to the batch that stands
            // for the clock wave this batch falls in: the node's clock then
            // charges every sync the numerics ran.
            if ws.time > SimTime::ZERO {
                let per_wave = self.cfg.gpus_per_node.max(1) as usize;
                for &k in &active {
                    results[k][wave / per_wave].times.comm += ws.time;
                }
            }
            sync_time += ws.time;
            sync_bytes += ws.bytes;
        }
        // Per-node accounting: schedule each node's iterations (charges
        // each machine's clock and trace).
        let mut per_node = Vec::with_capacity(nodes);
        for (k, node_results) in results.iter().enumerate() {
            let report = if node_results.is_empty() {
                None
            } else {
                Some(self.pipes[k].finish_epoch(node_results, node_results.len()))
            };
            per_node.push(NodeEpochReport {
                node: k as u32,
                report,
                halo_rows: 0,
                halo_bytes: 0,
                iterations: node_results.len(),
            });
        }
        // The slowest node sets the cluster epoch time. Each per-node
        // report measures its own epoch as its phase-time sum, so the
        // max — not a clock subtraction, which accumulates float error in
        // a different order — is the honest cluster figure, and bitwise
        // the pipeline's at N=1.
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
        // `Schedule::finish_epoch` applies, so N=1 is bitwise identical.
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
        // Three nodes run every wave together (the averaging path). Two
        // nodes end on a wave only one of them runs (3 batches against
        // 2), whose gradients reach the idle replica through the verbatim
        // broadcast.
        for nodes in [3u32, 2] {
            let mut mn = cluster(nodes);
            let r = mn.train_epoch(0);
            let mut iters: Vec<usize> = r.per_node.iter().map(|n| n.iterations).collect();
            iters.sort_unstable();
            let single_trailing_wave = iters[iters.len() - 1] > iters[iters.len() - 2];
            assert_eq!(single_trailing_wave, nodes == 2, "{nodes} nodes: {iters:?}");
            let p0 = &mn.pipeline(0).model.params;
            for k in 1..nodes {
                let pk = &mn.pipeline(k).model.params;
                for id in p0.ids() {
                    let a: Vec<u32> = p0.value(id).data().iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u32> = pk.value(id).data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(a, b, "{nodes} nodes: replica {k} diverged on {id:?}");
                }
            }
        }
    }

    #[test]
    fn a_node_is_a_lone_pipeline_plus_the_allreduce() {
        // Each node samples and gathers from its own full replica, so the
        // only inter-node cost is the per-wave gradient AllReduce (§III-D):
        // a node's sample, gather, storage and train times are bitwise
        // those of a lone pipeline on the same machine running the node's
        // batches, and its comm time exceeds the lone pipeline's by
        // exactly the wave syncs: one per batch, each clock wave (two
        // batches on these 2-GPU nodes) carrying those of its batches.
        let nodes = 4;
        let mut mn = cluster(nodes);
        let r = mn.train_epoch(0);
        for n in &r.per_node {
            let rep = n.report.expect("every shard is non-empty at this scale");
            let machine = Machine::new(MachineConfig::dgx_like(2));
            let mut lone = Pipeline::new(machine, dataset(), pipe_cfg()).unwrap();
            let results: Vec<IterationResult> = mn
                .local_batches(n.node, 0)
                .iter()
                .enumerate()
                .map(|(i, batch)| lone.run_iteration(0, i as u64, batch, true))
                .collect();
            let l = lone.finish_epoch(&results, results.len());
            assert_eq!(rep.sample_time, l.sample_time, "node {}", n.node);
            assert!(rep.gather_time > SimTime::ZERO);
            assert_eq!(rep.gather_time, l.gather_time, "node {}", n.node);
            assert_eq!(rep.storage_time, l.storage_time, "node {}", n.node);
            assert_eq!(rep.train_time, l.train_time, "node {}", n.node);
            let wave_sync = wg_sim::collective::allreduce_inter_node(
                lone.machine().cost(),
                lone.model.params.param_bytes(),
                nodes,
            );
            assert!(wave_sync > SimTime::ZERO);
            let comm = results
                .chunks(2)
                .map(|wave| (wave, wave[0].times.comm))
                .fold(SimTime::ZERO, |t, (wave, intra)| {
                    t + wave.iter().fold(intra, |c, _| c + wave_sync)
                });
            assert_eq!(rep.comm_time, comm, "node {}", n.node);
            assert!(r.epoch_time >= rep.epoch_time);
        }
    }

    #[test]
    fn a_multi_gpu_node_is_charged_every_wave_sync() {
        // Two GPUs per node: a node's clock lays its batches out two to a
        // wave, but the numerics sync after every batch. A node that runs
        // in every wave must be charged the whole cluster sync time.
        let mut mn = cluster(4);
        let r = mn.train_epoch(0);
        assert!(r.sync_time > SimTime::ZERO);
        let mut full = 0;
        for n in r.per_node.iter().filter(|n| n.iterations == r.waves) {
            let rep = n.report.expect("a node that ran every wave");
            let machine = Machine::new(MachineConfig::dgx_like(2));
            let mut lone = Pipeline::new(machine, dataset(), pipe_cfg()).unwrap();
            let results: Vec<IterationResult> = mn
                .local_batches(n.node, 0)
                .iter()
                .enumerate()
                .map(|(i, batch)| lone.run_iteration(0, i as u64, batch, true))
                .collect();
            let l = lone.finish_epoch(&results, results.len());
            let charged = rep.comm_time - l.comm_time;
            let gap = (charged - r.sync_time).as_secs().abs();
            assert!(
                gap <= 1e-9 * r.sync_time.as_secs(),
                "node {}: charged {charged} of sync {}",
                n.node,
                r.sync_time
            );
            full += 1;
        }
        assert!(full > 0, "no node ran every wave");
    }

    #[test]
    fn single_node_shard_is_the_whole_train_split_in_order() {
        let ds = dataset();
        assert_eq!(train_shards(&ds, 1), vec![ds.train.clone()]);
    }

    #[test]
    fn shards_are_a_disjoint_cover_of_the_train_split() {
        let ds = dataset();
        let owners = HashPartition::new(ds.graph.num_nodes(), 4);
        let shards = train_shards(&ds, 4);
        let mut seen = std::collections::HashSet::new();
        for (k, shard) in shards.iter().enumerate() {
            for &v in shard {
                assert_eq!(owners.rank_of(v), k as u32);
                assert!(seen.insert(v), "vertex {v} in two shards");
            }
        }
        assert_eq!(seen.len(), ds.train.len());
        // Hash sharding of a sizeable train split stays roughly balanced:
        // the largest shard is under 1.5x the ideal size.
        let largest = shards.iter().map(Vec::len).max().unwrap();
        let imbalance = largest as f64 * 4.0 / ds.train.len() as f64;
        assert!(imbalance < 1.5, "train imbalance {imbalance}");
    }

    #[test]
    fn shards_preserve_dataset_order() {
        let ds = dataset();
        let owners = HashPartition::new(ds.graph.num_nodes(), 3);
        for (k, shard) in train_shards(&ds, 3).iter().enumerate() {
            let filtered: Vec<_> = ds
                .train
                .iter()
                .copied()
                .filter(|&v| owners.rank_of(v) == k as u32)
                .collect();
            assert_eq!(shard, &filtered);
        }
    }
}

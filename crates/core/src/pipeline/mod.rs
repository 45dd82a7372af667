//! The per-iteration training engine.
//!
//! Every framework executes the same four-step iteration the paper
//! describes (Figure 1): **sample** the multi-layer sub-graph, **gather**
//! the input features, move them to the training GPU, and **train**. What
//! differs — and what produces every performance figure in the paper — is
//! *where* each step runs and *which link* the data crosses:
//!
//! | step | WholeGraph | DGL / PyG |
//! |---|---|---|
//! | sampling | fused GPU kernels over DSM | CPU sampler over host CSR |
//! | gather | one-kernel P2P gather over NVLink | CPU gather + PCIe copy |
//! | training | native fused layers | DGL/PyG layer implementations |
//!
//! The *numerics* are identical across frameworks (same seeds → same
//! sub-graphs → same math), which is how the paper's Table III accuracy
//! parity falls out; only the simulated time accounting differs.
//!
//! # Structure
//!
//! The iteration is one straight-line function,
//! `Pipeline::run_iteration_inner`: sample → price the sampling → gather
//! → forward → loss → backward → step → price the training and its
//! AllReduce. The order never varies. What the paper's evaluation does
//! vary — where a row lives — sits behind one seam, `store`, the
//! `FeatureStore` trait: what fetching a feature row costs (DSM with its
//! cache and disk tiers, host-mapped, or host DRAM) is decided behind it,
//! once, at build time. Nothing in this module or the schedule knows
//! which store it is running on.
//!
//! Around it: [`executor`] — [`Schedule`], which lays the priced
//! iterations onto the machine; [`config`] — [`PipelineConfig`],
//! [`FeaturePlacement`]; [`report`] — iteration/epoch reports, including
//! the per-phase busy/idle occupancy derived from the recorded traces.
//! Training and the two forward-only passes (evaluation and serving)
//! share one forward: `Pipeline::forward`.
//!
//! Timing model: with `G` GPUs training data-parallel, iterations are
//! processed in **waves** of `G` (one batch per GPU). We execute
//! iterations one after another (mathematically a single training stream
//! — what synchronized DDP computes); an iteration does the real math
//! and prices its phases but never touches the machine's clock. The
//! per-iteration phase times then go to [`Schedule::finish_epoch`],
//! which charges simulated wave time to the node's one clock (its GPUs
//! run each wave in lockstep) and records the busy/idle trace intervals
//! that Figure 12 plots.

pub mod config;
pub mod executor;
pub mod report;
mod store;

pub use config::{CacheConfig, FeaturePlacement, PipelineConfig, StorageConfig};
pub use executor::Schedule;
pub use report::{
    EpochOccupancy, EpochReport, IterTimes, IterationResult, PhaseOccupancy, StorageIo,
};

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::SmallRng;

use wg_autograd::{Adam, Optimizer, Tape};
use wg_gnn::cost::train_step_time;
use wg_gnn::{GnnModel, LayerProvider};
use wg_graph::{NodeId, SyntheticDataset};
use wg_sample::{MiniBatch, SampleScratch, SampleStats, SamplerConfig};
use wg_sim::collective::allreduce_intra_node;
use wg_sim::memory::OutOfMemory;
use wg_sim::{DeviceId, Machine, SimTime};
use wg_tensor::ops::{argmax_rows_into, softmax_cross_entropy_into};
use wg_tensor::{BlockCsr, Matrix};

use crate::convert::{minibatch_blocks_into, minibatch_shapes};
use store::{FeatureStore, Gathered};

/// Recycled per-iteration buffers (DESIGN.md, "Hot-path memory
/// discipline"): the sampler's scratch arena, the mini-batch shell and
/// the feature buffer, so steady-state iterations reuse warm capacity
/// instead of reallocating it every batch.
#[derive(Default)]
struct IterScratch {
    sample: SampleScratch,
    /// One shell is enough: training, evaluation and serving passes run
    /// one after another on a pipeline, never two in flight.
    minibatch: MiniBatch,
    feature_buf: Vec<f32>,
    /// The persistent autograd tape. Its [`wg_autograd::Workspace`] pool
    /// recycles every activation, gradient, and kernel scratch buffer
    /// across batches — `Tape::reset` between iterations returns all node
    /// matrices to the pool instead of freeing them.
    tape: Tape,
    /// Pooled CSR block list: `Arc::get_mut` succeeds in steady state
    /// (the tape's op-held clones are dropped by the reset above), so the
    /// conversion rebuilds the CSRs in place.
    blocks: Vec<Arc<BlockCsr>>,
    labels: Vec<u32>,
    preds: Vec<u32>,
    ce_losses: Vec<f32>,
    /// Pooled epoch shuffle order and per-iteration result list.
    epoch_order: Vec<NodeId>,
    results: Vec<IterationResult>,
}

/// What a training iteration does once it has the loss.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Nothing: forward with dropout off, no backward, no AllReduce — a
    /// timing-only run that moves no parameter and no optimizer state.
    Skip,
    /// Backward, then the optimizer step.
    Apply,
    /// Backward only: gradients are left in the parameters for the
    /// multi-node executor to average across replicas before
    /// [`Pipeline::apply_step`].
    Defer,
}

/// `ids` in the order epoch `epoch` visits them, into `order`. This is
/// the one definition of the epoch shuffle: a lone pipeline and every
/// multi-node replica (over its shard) draw from it, which is what keeps
/// an N=1 cluster bit-identical to the pipeline.
pub(crate) fn epoch_order_into(ids: &[NodeId], seed: u64, epoch: u64, order: &mut Vec<NodeId>) {
    order.clear();
    order.extend_from_slice(ids);
    order.shuffle(&mut SmallRng::seed_from_u64(
        seed ^ epoch.wrapping_mul(0x9e37),
    ));
}

/// The fixed sampling epoch for [`Pipeline::serve_forward`]: far from
/// every training epoch and from evaluation's `u64::MAX`, so its per-node
/// RNG streams collide with no other pass's. (`u64::MAX - 1` is free;
/// moving serving there would change every served answer.) Every serving
/// pass also pins the iteration index to 0, making a query node's sampled
/// ego-graph a pure function of its stable id — the property `wg-serve`'s
/// coalescer relies on for bit-identity.
pub const SERVE_EPOCH: u64 = u64::MAX - 2;

/// Simulated phase times of one [`Pipeline::serve_forward`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeTimes {
    /// Neighbor-sampling kernel time.
    pub sample: SimTime,
    /// Feature-gather time (cache hits priced at local-HBM cost).
    pub gather: SimTime,
    /// Forward-pass compute time.
    pub compute: SimTime,
    /// Out-of-core storage-tier time of this pass's gather — already
    /// part of `gather`, not re-added by [`total`](Self::total).
    pub storage: SimTime,
    /// Storage-tier traffic behind `storage`.
    pub storage_io: StorageIo,
}

impl ServeTimes {
    /// Sum of the three phases — the batch's service time on its GPU.
    pub fn total(&self) -> SimTime {
        self.sample + self.gather + self.compute
    }
}

/// Multi-node execution context attached to a pipeline replica by the
/// [`crate::multinode`] executor: which machine this replica is, the
/// machine-level feature partition, and accumulated halo traffic.
pub(crate) struct DistContext {
    /// This replica's machine rank.
    pub node: u32,
    /// Machine-level feature partition over stable dataset node ids —
    /// input rows owned by another machine are halo rows, charged an IB
    /// fetch.
    pub partition: Arc<wg_graph::HashPartition>,
    /// Halo rows accumulated since the last [`Pipeline::take_halo_stats`].
    pub halo_rows: u64,
    /// Halo bytes accumulated since the last take.
    pub halo_bytes: u64,
}

impl DistContext {
    pub(crate) fn new(node: u32, partition: Arc<wg_graph::HashPartition>) -> Self {
        DistContext {
            node,
            partition,
            halo_rows: 0,
            halo_bytes: 0,
        }
    }
}

/// An end-to-end training pipeline for one framework on one dataset.
pub struct Pipeline {
    cfg: PipelineConfig,
    machine: Machine,
    dataset: Arc<SyntheticDataset>,
    /// The graph + feature store the framework trains from, with
    /// whatever cache and storage tiers the configuration attached.
    store: Box<dyn FeatureStore>,
    /// The model under training (exposed for inspection).
    pub model: GnnModel,
    opt: Adam,
    provider: LayerProvider,
    setup_time: SimTime,
    sampler_cfg: SamplerConfig,
    scratch: IterScratch,
    /// Present when this pipeline is one replica of a multi-node run.
    pub(crate) dist: Option<DistContext>,
    /// Snapshot of the freshly initialized parameters, so
    /// [`reset_training_state`](Self::reset_training_state) can replay
    /// training from the same starting point without rebuilding the
    /// pipeline (and losing its warm buffer pools).
    init_params: Vec<Matrix>,
}

impl Pipeline {
    /// Build the pipeline: loads the dataset into the framework's store
    /// (DSM for WholeGraph, host DRAM for DGL/PyG) and initializes the
    /// model.
    pub fn new(
        machine: Machine,
        dataset: Arc<SyntheticDataset>,
        cfg: PipelineConfig,
    ) -> Result<Self, OutOfMemory> {
        let (store, setup_time) = store::build(&machine, &dataset, &cfg)?;
        let gnn_cfg = cfg.gnn_config(dataset.feature_dim, dataset.num_classes);
        let model = GnnModel::new(gnn_cfg, cfg.seed);
        let opt = Adam::new(cfg.lr);
        let provider = cfg
            .provider_override
            .unwrap_or(cfg.framework.default_provider());
        let sampler_cfg = SamplerConfig {
            fanouts: cfg.fanouts.clone(),
            seed: cfg.seed,
        };
        let init_params = model
            .params
            .ids()
            .map(|id| model.params.value(id).clone())
            .collect();
        Ok(Pipeline {
            cfg,
            machine,
            dataset,
            store,
            model,
            opt,
            provider,
            setup_time,
            sampler_cfg,
            scratch: IterScratch::default(),
            dist: None,
            init_params,
        })
    }

    /// Drain the halo rows/bytes accumulated since the last call (zero
    /// for single-node pipelines).
    pub(crate) fn take_halo_stats(&mut self) -> (u64, u64) {
        match &mut self.dist {
            Some(d) => {
                let out = (d.halo_rows, d.halo_bytes);
                d.halo_rows = 0;
                d.halo_bytes = 0;
                out
            }
            None => (0, 0),
        }
    }

    /// Restore parameters, optimizer moments, and the machine's clock and
    /// trace to their just-constructed state — *without* dropping any
    /// pooled scratch buffers. Benches use this to replay bit-identical
    /// epochs against warm pools instead of rebuilding the pipeline.
    pub fn reset_training_state(&mut self) {
        let ids: Vec<_> = self.model.params.ids().collect();
        for (id, init) in ids.into_iter().zip(&self.init_params) {
            self.model
                .params
                .value_mut(id)
                .data_mut()
                .copy_from_slice(init.data());
        }
        self.model.params.zero_grads();
        self.opt.reset();
        self.machine.reset_time();
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The simulated machine (clock, trace, memory accounting).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (trace reset between experiments).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// One-time distributed-shared-memory setup time (zero for host
    /// pipelines).
    pub fn setup_time(&self) -> SimTime {
        self.setup_time
    }

    /// The epoch schedule. The pipeline's own epochs go through it
    /// already; this accessor exists for the out-of-tree `benchmark/`
    /// package, which runs each iteration itself and then charges the
    /// epoch with [`Schedule::finish_epoch`].
    pub fn executor(&self) -> Schedule {
        Schedule
    }

    /// Iterations per epoch (ceil of train split / batch size).
    pub fn iters_per_epoch(&self) -> usize {
        self.dataset.train.len().div_ceil(self.cfg.batch_size)
    }

    /// The dataset under training.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// Sample the sub-graph seeded at `nodes` into the pooled mini-batch
    /// shell; the caller hands it back to `scratch.minibatch` when done.
    fn sample(&mut self, nodes: &[NodeId], epoch: u64, iter: u64) -> (MiniBatch, SampleStats) {
        let mut mb = std::mem::take(&mut self.scratch.minibatch);
        let (cfg, scratch) = (&self.sampler_cfg, &mut self.scratch.sample);
        let stats = self.store.sample(nodes, cfg, epoch, iter, scratch, &mut mb);
        (mb, stats)
    }

    /// Simulated sampling time of one mini-batch — the same price whether
    /// a training iteration or a forward-only pass drew it.
    fn train_sample_time(&self, stats: SampleStats) -> SimTime {
        let cost = self.machine.cost();
        let gpu_spec = self.machine.spec(DeviceId::Gpu(0));
        let sampler = self.cfg.framework.sampler_backend();
        let mut t_sample = sampler.sample_time(cost, gpu_spec, stats);
        if !self.cfg.framework.uses_dsm() {
            // Host pipelines also run the CPU-side sub-graph construction
            // (unique etc.) inside the sampling phase:
            t_sample +=
                SimTime::from_secs(stats.keys_inserted as f64 / cost.cpu_sample_edges_per_s);
            // ... and, crucially, all G trainer processes contend for the
            // same host cores: the sampler rates are *aggregate* CPU
            // rates, so when G GPUs each demand a mini-batch per wave,
            // each wave pays G iterations' worth of CPU sampling. This is
            // why DGL/PyG epochs do not shrink 8x on an 8-GPU node while
            // WholeGraph's GPU sampling does.
            t_sample = t_sample * self.machine.num_gpus() as f64;
        }
        t_sample
    }

    /// Gather the input features of a mini-batch on GPU `rank` (training
    /// round-robins iterations across the data-parallel ranks; serving
    /// pins the rank its batch was dispatched to).
    ///
    /// The returned time includes the machine-level halo exchange: input
    /// rows whose features another machine owns are fetched over IB
    /// before the local gather. Exactly [`SimTime::ZERO`] for single-node
    /// runs (no `dist` context, one rank, or no halo rows) — the numerics
    /// are untouched either way (the values come from the local replica;
    /// the exchange only costs time, per the repo's caching convention).
    fn gather(&mut self, mb: &MiniBatch, rank: u32) -> Gathered {
        let input = mb.input_nodes();
        let row_bytes = self.dataset.feature_dim * 4;
        let t_halo = match self.dist.as_mut() {
            Some(dist) if dist.partition.ranks() > 1 => {
                let nodes = dist.partition.ranks();
                let halo = self
                    .store
                    .halo_rows(input, &dist.partition, dist.node, rank);
                let ex = wg_mem::halo::halo_exchange(
                    self.machine.cost(),
                    input.len() as u64,
                    halo,
                    row_bytes,
                    nodes,
                );
                dist.halo_rows += ex.halo_rows;
                dist.halo_bytes += ex.halo_bytes;
                ex.time
            }
            _ => SimTime::ZERO,
        };
        wg_trace::counter!(
            "pipeline.gather.feature_bytes",
            (input.len() * row_bytes) as f64
        );
        let buf = std::mem::take(&mut self.scratch.feature_buf);
        let mut gathered = self.store.gather(mb, rank, &self.machine, buf);
        gathered.time += t_halo;
        gathered
    }

    /// The forward pass training, evaluation and serving all run: convert
    /// the mini-batch's blocks, run the model over the gathered `input` on
    /// the pooled tape (`train` turns dropout on, drawn from `seed`), argmax
    /// the logits — then let `then` read or extend the tape (`out` is the
    /// logits node) before the gathered-input buffer and the scratch go
    /// back to their pools. Everything
    /// transient comes out of the iteration scratch — the persistent tape
    /// (whose workspace pool recycles all forward activations and
    /// backward gradients), the CSR block list, the prediction buffer —
    /// taken out so `then` can still borrow the pipeline, and put back at
    /// the end: steady-state passes allocate nothing here.
    fn forward<R>(
        &mut self,
        mb: &MiniBatch,
        input: Matrix,
        train: bool,
        seed: u64,
        then: impl FnOnce(&mut Self, &mut Tape, wg_autograd::NodeId, &[u32]) -> R,
    ) -> R {
        // Reset first: it drops the previous pass's op-held clones of the
        // blocks, so the conversion can rebuild the CSRs in place.
        let mut tape = std::mem::take(&mut self.scratch.tape);
        tape.reset();
        let mut blocks = std::mem::take(&mut self.scratch.blocks);
        minibatch_blocks_into(mb, &mut blocks);
        let out = self.model.forward(&mut tape, &blocks, input, train, seed);
        let mut preds = std::mem::take(&mut self.scratch.preds);
        argmax_rows_into(tape.value(out), &mut preds);
        let r = then(self, &mut tape, out, &preds);
        // The tape is done with the gathered-input matrix; reclaim its
        // buffer for the next pass's gather.
        let buf = tape.take_value(wg_autograd::NodeId::first()).into_vec();
        if buf.capacity() > self.scratch.feature_buf.capacity() {
            self.scratch.feature_buf = buf;
        }
        self.scratch.tape = tape;
        self.scratch.blocks = blocks;
        self.scratch.preds = preds;
        r
    }

    /// Execute one full iteration (sample → gather → train). `update`
    /// applies the optimizer; pass `false` for timing-only runs.
    pub fn run_iteration(
        &mut self,
        epoch: u64,
        iter: u64,
        batch_nodes: &[NodeId],
        update: bool,
    ) -> IterationResult {
        let mut wall = [Duration::ZERO; 3];
        self.run_iteration_timed(epoch, iter, batch_nodes, update, &mut wall)
    }

    /// [`run_iteration`](Self::run_iteration), additionally accumulating
    /// the *host* wall-clock time each phase spends into `wall` (sample,
    /// gather, train) — the wallclock bench uses this to report where the
    /// real time goes. Numerics are identical.
    pub fn run_iteration_timed(
        &mut self,
        epoch: u64,
        iter: u64,
        batch_nodes: &[NodeId],
        update: bool,
        wall: &mut [Duration; 3],
    ) -> IterationResult {
        let step = if update { Step::Apply } else { Step::Skip };
        self.run_iteration_inner(epoch, iter, batch_nodes, step, wall)
    }

    /// Like [`run_iteration`](Self::run_iteration) with `update = true`,
    /// but stops after backward: gradients are left in the parameters for
    /// the multi-node executor to average across replicas, after which
    /// [`apply_step`](Self::apply_step) finishes the update. With an
    /// immediate `apply_step` the sequence zero-grads → backward → step
    /// is exactly what [`run_iteration`](Self::run_iteration) executes,
    /// which is what makes N=1 multi-node runs bit-identical.
    pub fn run_iteration_deferred(
        &mut self,
        epoch: u64,
        iter: u64,
        batch_nodes: &[NodeId],
    ) -> IterationResult {
        let mut wall = [Duration::ZERO; 3];
        self.run_iteration_inner(epoch, iter, batch_nodes, Step::Defer, &mut wall)
    }

    /// Apply the optimizer step deferred by
    /// [`run_iteration_deferred`](Self::run_iteration_deferred).
    pub fn apply_step(&mut self) {
        self.opt.step(&mut self.model.params);
    }

    /// The iteration: does the real math of every phase and prices it,
    /// but never touches the machine's clock or trace — laying the
    /// times onto the timeline is [`Schedule::finish_epoch`]'s job.
    fn run_iteration_inner(
        &mut self,
        epoch: u64,
        iter: u64,
        batch_nodes: &[NodeId],
        step: Step,
        wall: &mut [Duration; 3],
    ) -> IterationResult {
        let t0 = Instant::now();
        let (mb, sample_stats, t_sample) = {
            let _s = wg_trace::span!("pipeline.sample");
            let (mb, stats) = self.sample(batch_nodes, epoch, iter);
            (mb, stats, self.train_sample_time(stats))
        };
        let t1 = Instant::now();
        let gathered = {
            let _s = wg_trace::span!("pipeline.gather");
            // Iterations round-robin across the data-parallel ranks.
            let rank = (iter % self.machine.num_gpus() as u64) as u32;
            self.gather(&mb, rank)
        };
        let t2 = Instant::now();
        let train_span = wg_trace::span!("pipeline.train");
        let update = step != Step::Skip;
        let dropout_seed = self.cfg.seed ^ epoch.rotate_left(13) ^ iter;
        let (loss, correct) = self.forward(
            &mb,
            gathered.features,
            update,
            dropout_seed,
            |p, tape, out, preds| {
                let mut labels = std::mem::take(&mut p.scratch.labels);
                labels.clear();
                let dataset_labels = &p.dataset.labels;
                labels.extend(batch_nodes.iter().map(|&v| dataset_labels[v as usize]));
                let (rows, cols) = {
                    let logits = tape.value(out);
                    (logits.rows(), logits.cols())
                };
                let mut grad = tape.alloc(rows, cols);
                let mut ce_losses = std::mem::take(&mut p.scratch.ce_losses);
                let loss =
                    softmax_cross_entropy_into(tape.value(out), &labels, &mut grad, &mut ce_losses);
                let correct = preds.iter().zip(&labels).filter(|(pr, l)| pr == l).count();
                match step {
                    Step::Skip => tape.recycle(grad),
                    Step::Apply | Step::Defer => {
                        p.model.params.zero_grads();
                        tape.backward(out, grad, &mut p.model.params);
                        if step == Step::Apply {
                            p.opt.step(&mut p.model.params);
                        }
                    }
                }
                p.scratch.labels = labels;
                p.scratch.ce_losses = ce_losses;
                (loss, correct)
            },
        );
        let shapes = minibatch_shapes(&mb);
        self.scratch.minibatch = mb;
        let cost = self.machine.cost();
        let t_train = train_step_time(
            &self
                .cfg
                .gnn_config(self.dataset.feature_dim, self.dataset.num_classes),
            &shapes,
            self.provider,
            cost,
            self.machine.spec(DeviceId::Gpu(0)),
            self.model.params.num_scalars(),
        );
        let t_comm = if update {
            // Ring allreduce moves 2*(G-1)/G of the gradient bytes per rank.
            let g = self.machine.num_gpus() as f64;
            let param_bytes = self.model.params.param_bytes();
            let allreduce_bytes = param_bytes as f64 * 2.0 * (g - 1.0) / g;
            wg_trace::counter!("pipeline.allreduce.bytes", allreduce_bytes);
            allreduce_intra_node(cost, param_bytes, self.machine.num_gpus())
        } else {
            SimTime::ZERO
        };
        drop(train_span);
        let t3 = Instant::now();
        wall[0] += t1 - t0;
        wall[1] += t2 - t1;
        wall[2] += t3 - t2;
        IterationResult {
            times: IterTimes {
                sample: t_sample,
                gather: gathered.time,
                train: t_train,
                // The AllReduce is priced here and scheduled as its own
                // `Communication` span.
                comm: t_comm,
                // Already inside `gather`; carried beside it.
                storage: gathered.storage_time,
            },
            storage_io: gathered.storage_io,
            loss,
            correct,
            batch: batch_nodes.len(),
            shapes,
            sample_stats,
        }
    }

    /// The epoch's shuffled batches.
    pub fn epoch_batches(&self, epoch: u64) -> Vec<Vec<NodeId>> {
        let mut order = Vec::new();
        epoch_order_into(&self.dataset.train, self.cfg.seed, epoch, &mut order);
        order
            .chunks(self.cfg.batch_size)
            .map(<[NodeId]>::to_vec)
            .collect()
    }

    /// Train a full epoch, executing every iteration.
    pub fn train_epoch(&mut self, epoch: u64) -> EpochReport {
        self.train_epoch_timed(epoch).0
    }

    /// [`train_epoch`](Self::train_epoch) plus the host wall-clock split
    /// across the three phases. The shuffle order and result list come
    /// from the iteration scratch, so steady-state epochs reuse warm
    /// capacity; batch order is identical to [`epoch_batches`].
    ///
    /// [`epoch_batches`]: Self::epoch_batches
    pub fn train_epoch_timed(&mut self, epoch: u64) -> (EpochReport, [Duration; 3]) {
        let _epoch_span = wg_trace::span!("pipeline.epoch");
        let mut order = std::mem::take(&mut self.scratch.epoch_order);
        epoch_order_into(&self.dataset.train, self.cfg.seed, epoch, &mut order);
        let mut results = std::mem::take(&mut self.scratch.results);
        results.clear();
        let bs = self.cfg.batch_size;
        let iters = order.len().div_ceil(bs);
        let mut wall = [Duration::ZERO; 3];
        for i in 0..iters {
            let batch = &order[i * bs..((i + 1) * bs).min(order.len())];
            let r = self.run_iteration_timed(epoch, i as u64, batch, true, &mut wall);
            results.push(r);
        }
        let report = self.finish_epoch(&results, iters);
        self.scratch.epoch_order = order;
        self.scratch.results = results;
        (report, wall)
    }

    /// Measure an epoch by executing only `real_iters` iterations and
    /// extrapolating the rest (performance experiments on large stand-ins;
    /// iterations are statistically identical, so a few representatives
    /// pin the per-wave time).
    pub fn measure_epoch(&mut self, epoch: u64, real_iters: usize) -> EpochReport {
        let batches = self.epoch_batches(epoch);
        let n = real_iters.clamp(1, batches.len());
        let mut results = Vec::with_capacity(n);
        for (i, batch) in batches.iter().take(n).enumerate() {
            results.push(self.run_iteration(epoch, i as u64, batch, true));
        }
        self.finish_epoch(&results, batches.len())
    }

    /// Hand the executed iterations to [`Schedule::finish_epoch`], which
    /// charges the machine's clock and trace wave by wave and builds the
    /// epoch report.
    pub(crate) fn finish_epoch(
        &mut self,
        results: &[IterationResult],
        total_iters: usize,
    ) -> EpochReport {
        Schedule.finish_epoch(&mut self.machine, self.cfg.framework, results, total_iters)
    }

    /// One forward-only pass over `nodes`: sample at the coordinates
    /// `at = (epoch, iter)`, gather on GPU `rank`, run the model with
    /// dropout off, argmax — no backward, no collective communication.
    /// `read` sees the logits and the predictions (one row per node, in
    /// input order) before the pass's buffers go back to their pools.
    /// Returns the simulated phase times.
    fn forward_only(
        &mut self,
        nodes: &[NodeId],
        at: (u64, u64),
        rank: u32,
        read: impl FnOnce(&Matrix, &[u32]),
    ) -> ServeTimes {
        debug_assert!(rank < self.machine.num_gpus());
        let (mb, stats) = {
            let _s = wg_trace::span!("pipeline.forward.sample");
            self.sample(nodes, at.0, at.1)
        };
        let gathered = {
            let _s = wg_trace::span!("pipeline.forward.gather");
            self.gather(&mb, rank)
        };
        let _s = wg_trace::span!("pipeline.forward.compute");
        self.forward(&mb, gathered.features, false, 0, |_, tape, out, preds| {
            read(tape.value(out), preds)
        });
        let (cost, gpu_spec) = (self.machine.cost(), self.machine.spec(DeviceId::Gpu(rank)));
        let gnn_cfg = self
            .cfg
            .gnn_config(self.dataset.feature_dim, self.dataset.num_classes);
        let shapes = minibatch_shapes(&mb);
        let times = ServeTimes {
            sample: self.train_sample_time(stats),
            gather: gathered.time,
            compute: wg_gnn::cost::eval_step_time(&gnn_cfg, &shapes, self.provider, cost, gpu_spec),
            storage: gathered.storage_time,
            storage_io: gathered.storage_io,
        };
        self.scratch.minibatch = mb;
        times
    }

    /// One serving forward pass over a (possibly coalesced) set of query
    /// nodes: sample → gather → forward, no backward, no collective
    /// communication (§I: WholeGraph's ops "also can be used in inference
    /// scenarios, since it does not require collective communication").
    /// Appends one prediction and one per-row logits checksum (FNV-1a over
    /// the output row's bit patterns) per query node, in input order, and
    /// returns the simulated phase times.
    ///
    /// Sampling runs at the **fixed** coordinates (`SERVE_EPOCH`,
    /// iteration 0), so each node's per-node RNG stream — keyed on its
    /// stable id, never its batch position — draws the same neighbors no
    /// matter which other nodes share the batch. Combined with the
    /// per-row-local forward pass (dropout off; `dup_count` is consumed
    /// only by backward), this makes a coalesced batch bit-identical to
    /// running each request alone, which is the correctness contract of
    /// `wg-serve`'s micro-batching coalescer. The per-row checksums are
    /// the witness: row-position-invariant, so the serve layer can
    /// compare coalesced and sequential executions request by request.
    ///
    /// `rank` is the GPU whose timeline (and feature cache) this pass
    /// uses. `nodes` must be duplicate-free (the sampler's frontier
    /// contract); `wg-serve`'s coalescer dedups via `append_unique`.
    pub fn serve_forward(
        &mut self,
        nodes: &[NodeId],
        rank: u32,
        out_preds: &mut Vec<u32>,
        out_checksums: &mut Vec<u64>,
    ) -> ServeTimes {
        use wg_tensor::simd::{fnv1a_f32, FNV_OFFSET};
        self.forward_only(nodes, (SERVE_EPOCH, 0), rank, |logits, preds| {
            out_preds.extend_from_slice(preds);
            out_checksums.extend((0..nodes.len()).map(|i| fnv1a_f32(FNV_OFFSET, logits.row(i))));
        })
    }

    /// Evaluate accuracy on a node set (validation or test split) with
    /// sampled inference: the share of `nodes` whose argmax prediction
    /// equals the label.
    pub fn evaluate(&mut self, nodes: &[NodeId]) -> f64 {
        let (mut correct, mut total) = (0u64, 0u64);
        let dataset = Arc::clone(&self.dataset);
        let gpus = self.machine.num_gpus() as u64;
        for (i, batch) in nodes.chunks(self.cfg.batch_size).enumerate() {
            let i = i as u64;
            self.forward_only(batch, (u64::MAX, i), (i % gpus) as u32, |_, preds| {
                for (pred, &v) in preds.iter().zip(batch) {
                    correct += u64::from(*pred == dataset.labels[v as usize]);
                    total += 1;
                }
            });
        }
        correct as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use wg_gnn::ModelKind;
    use wg_graph::DatasetKind;
    use wg_mem::CacheMode;
    use wg_sim::MachineConfig;

    fn dataset() -> Arc<SyntheticDataset> {
        Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1500,
            5,
        ))
    }

    fn pipeline(fw: Framework, model: ModelKind) -> Pipeline {
        let machine = Machine::new(MachineConfig::dgx_like(4));
        let cfg = PipelineConfig::tiny(fw, model).with_seed(11);
        Pipeline::new(machine, dataset(), cfg).unwrap()
    }

    #[test]
    fn wholegraph_epoch_runs_and_reports() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        let r = p.train_epoch(0);
        assert!(r.loss.is_finite() && r.loss > 0.0);
        assert_eq!(r.iterations, p.iters_per_epoch());
        assert_eq!(r.executed_iterations, r.iterations);
        assert!(r.epoch_time > SimTime::ZERO);
        assert!(r.sample_time > SimTime::ZERO);
        assert!(r.gather_time > SimTime::ZERO);
        assert!(r.train_time > SimTime::ZERO);
        // Serial occupancy: the busy/idle union covers the epoch exactly.
        let span = r.occupancy.busy + r.occupancy.idle;
        assert!((span.as_secs() - r.epoch_time.as_secs()).abs() < 1e-9);
        // WholeGraph keeps the GPU busy in every phase.
        assert!(
            r.occupancy.utilization() > 0.99,
            "{}",
            r.occupancy.utilization()
        );
    }

    #[test]
    fn all_frameworks_train_all_models_one_iteration() {
        for fw in Framework::ALL {
            for model in ModelKind::ALL {
                let mut p = pipeline(fw, model);
                let batch: Vec<NodeId> = p.dataset().train[..32].to_vec();
                let r = p.run_iteration(0, 0, &batch, true);
                assert!(r.loss.is_finite(), "{fw:?}/{model:?}");
                assert!(r.times.total() > SimTime::ZERO);
            }
        }
    }

    /// FNV-1a over every parameter's bit pattern.
    fn params_fnv(p: &Pipeline) -> u64 {
        use wg_tensor::simd::{fnv1a_f32, FNV_OFFSET};
        let params = &p.model.params;
        params
            .ids()
            .fold(FNV_OFFSET, |h, id| fnv1a_f32(h, params.value(id).data()))
    }

    #[test]
    fn timing_only_iterations_move_no_parameter_and_no_optimizer_state() {
        for fw in [Framework::WholeGraph, Framework::Dgl] {
            let mut p = pipeline(fw, ModelKind::GraphSage);
            let batch: Vec<NodeId> = p.dataset().train[..32].to_vec();
            let before = params_fnv(&p);
            let a = p.run_iteration(0, 0, &batch, false);
            let b = p.run_iteration(0, 0, &batch, false);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{fw:?}");
            assert_eq!(a.correct, b.correct, "{fw:?}");
            assert_eq!(a.times.total(), b.times.total(), "{fw:?}");
            assert_eq!(
                a.times.comm,
                SimTime::ZERO,
                "{fw:?}: no AllReduce without grads"
            );
            assert_eq!(params_fnv(&p), before, "{fw:?}: a parameter moved");
            // Adam's moments and step count feed its first update, so an
            // update after the timing-only runs matches a fresh
            // pipeline's only if they left the optimizer untouched too.
            let mut fresh = pipeline(fw, ModelKind::GraphSage);
            for iter in 0..2 {
                let c = p.run_iteration(0, iter, &batch, true);
                let f = fresh.run_iteration(0, iter, &batch, true);
                assert_eq!(c.loss.to_bits(), f.loss.to_bits(), "{fw:?} iter {iter}");
                assert_eq!(params_fnv(&p), params_fnv(&fresh), "{fw:?} iter {iter}");
            }
            assert_ne!(params_fnv(&p), before, "{fw:?}: the update must move them");
        }
    }

    #[test]
    fn deferred_iteration_plus_apply_step_is_the_immediate_update() {
        for fw in [Framework::WholeGraph, Framework::Dgl] {
            let mut now = pipeline(fw, ModelKind::GraphSage);
            let mut later = pipeline(fw, ModelKind::GraphSage);
            let batch: Vec<NodeId> = now.dataset().train[..32].to_vec();
            // Two iterations: the second starts from stale gradients and
            // nonzero moments.
            for iter in 0..2 {
                let a = now.run_iteration(0, iter, &batch, true);
                let before_step = params_fnv(&later);
                let b = later.run_iteration_deferred(0, iter, &batch);
                assert_eq!(params_fnv(&later), before_step, "{fw:?}: deferred stepped");
                later.apply_step();
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{fw:?} iter {iter}");
                assert_eq!(a.correct, b.correct, "{fw:?} iter {iter}");
                assert_eq!(a.times.comm, b.times.comm, "{fw:?} iter {iter}");
                assert_eq!(params_fnv(&now), params_fnv(&later), "{fw:?} iter {iter}");
            }
        }
    }

    #[test]
    fn wholegraph_is_faster_than_dgl_than_pyg() {
        // The headline result at test scale: epoch time ordering.
        let mut times = Vec::new();
        for fw in [Framework::WholeGraph, Framework::Dgl, Framework::Pyg] {
            let machine = Machine::new(MachineConfig::dgx_like(4));
            let cfg = PipelineConfig::tiny(fw, ModelKind::GraphSage).with_seed(11);
            let mut p = Pipeline::new(machine, dataset(), cfg).unwrap();
            let r = p.measure_epoch(0, 2);
            times.push((fw, r.epoch_time));
        }
        assert!(
            times[0].1 < times[1].1,
            "WG {} !< DGL {}",
            times[0].1,
            times[1].1
        );
        assert!(
            times[1].1 < times[2].1,
            "DGL {} !< PyG {}",
            times[1].1,
            times[2].1
        );
    }

    /// A paper-shaped (but test-sized) pipeline: 8 GPUs, realistic batch
    /// and fanout so the bottleneck asymmetries of Figures 9/12 are
    /// visible (at toy scale, kernel-launch overheads dominate instead).
    fn paper_ish_pipeline(fw: Framework, model: ModelKind) -> Pipeline {
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            300,
            7,
        ));
        let machine = Machine::new(MachineConfig::dgx_like(8));
        let cfg = PipelineConfig {
            hidden: 64,
            fanouts: vec![15, 15],
            batch_size: 256,
            ..PipelineConfig::tiny(fw, model).with_seed(5)
        };
        Pipeline::new(machine, dataset, cfg).unwrap()
    }

    #[test]
    fn dgl_bottleneck_is_sampling_and_gather() {
        // Figure 9: "for PyG and DGL, the sampling and gathering features
        // take most part of the time".
        let mut p = paper_ish_pipeline(Framework::Dgl, ModelKind::GraphSage);
        let r = p.measure_epoch(0, 2);
        assert!(
            r.sample_time + r.gather_time > r.train_time,
            "sample {} + gather {} vs train {}",
            r.sample_time,
            r.gather_time,
            r.train_time
        );
        // For WholeGraph the input phases are *much smaller* than training.
        let mut p = paper_ish_pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        let r = p.measure_epoch(0, 2);
        assert!(
            r.sample_time + r.gather_time < r.train_time,
            "WG: sample {} + gather {} vs train {}",
            r.sample_time,
            r.gather_time,
            r.train_time
        );
    }

    #[test]
    fn gpu_utilization_high_for_wholegraph_low_for_host_pipelines() {
        // Figure 12's shape.
        let mut wg = paper_ish_pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        wg.measure_epoch(0, 2);
        let end = wg.machine().now();
        let u_wg = wg.machine().trace().utilization(SimTime::ZERO, end);
        let mut dgl = paper_ish_pipeline(Framework::Dgl, ModelKind::GraphSage);
        dgl.measure_epoch(0, 2);
        let end = dgl.machine().now();
        let u_dgl = dgl.machine().trace().utilization(SimTime::ZERO, end);
        assert!(u_wg > 0.95, "WholeGraph utilization {u_wg}");
        assert!(u_dgl < 0.5, "DGL utilization {u_dgl}");
    }

    #[test]
    fn losses_match_across_frameworks_with_same_seed() {
        // Table III / Figure 7: same seeds → same sub-graphs → (numerically
        // near-)identical training. Dropout is 0 in the tiny config, so
        // only unique-order float summation differences remain.
        let mut wg = pipeline(Framework::WholeGraph, ModelKind::Gcn);
        let mut dgl = pipeline(Framework::Dgl, ModelKind::Gcn);
        let batch: Vec<NodeId> = wg.dataset().train[..64].to_vec();
        let a = wg.run_iteration(0, 0, &batch, true);
        let b = dgl.run_iteration(0, 0, &batch, true);
        assert!(
            (a.loss - b.loss).abs() < 1e-3 * (1.0 + a.loss.abs()),
            "losses diverge: {} vs {}",
            a.loss,
            b.loss
        );
        assert_eq!(a.sample_stats.edges_sampled, b.sample_stats.edges_sampled);
    }

    #[test]
    fn measure_epoch_extrapolates() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::Gcn);
        let r = p.measure_epoch(0, 1);
        assert_eq!(r.executed_iterations, 1);
        assert!(r.iterations >= 1);
    }

    #[test]
    fn evaluate_returns_sane_accuracy() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        let val = p.dataset().val.clone();
        let acc = p.evaluate(&val);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn evaluate_is_the_share_of_argmax_predictions_matching_labels() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        p.train_epoch(0);
        let val = p.dataset().val.clone();
        let acc = p.evaluate(&val);
        // The same passes evaluate runs — batch `i` sampled at `(u64::MAX,
        // i)` on GPU `i % gpus` — with the argmax taken here from the logits.
        let (labels, gpus) = (p.dataset().labels.clone(), p.machine().num_gpus() as u64);
        let mut correct = 0usize;
        for (i, batch) in val.chunks(p.cfg.batch_size).enumerate() {
            let i = i as u64;
            p.forward_only(batch, (u64::MAX, i), (i % gpus) as u32, |logits, preds| {
                let argmax = wg_tensor::ops::argmax_rows(logits);
                assert_eq!(&argmax[..batch.len()], preds);
                correct += batch
                    .iter()
                    .zip(&argmax)
                    .filter(|&(&v, &pred)| labels[v as usize] == pred)
                    .count();
            });
        }
        assert!(correct > 0, "a trained model gets some of the split right");
        assert_eq!(acc.to_bits(), (correct as f64 / val.len() as f64).to_bits());
    }

    /// Every query node's prediction and logits checksum, in input order,
    /// served `batch_size` nodes to a pass round-robin over the GPUs, and
    /// each pass's phase times.
    fn serve_all(p: &mut Pipeline, nodes: &[NodeId]) -> (Vec<u32>, Vec<u64>, Vec<ServeTimes>) {
        let (mut preds, mut sums, mut times) = (Vec::new(), Vec::new(), Vec::new());
        let gpus = p.machine().num_gpus() as usize;
        for (i, batch) in nodes.chunks(p.config().batch_size).enumerate() {
            times.push(p.serve_forward(batch, (i % gpus) as u32, &mut preds, &mut sums));
        }
        (preds, sums, times)
    }

    #[test]
    fn inference_predicts_every_node_without_comm() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::GraphSage);
        let nodes: Vec<NodeId> = (0..150u64).collect();
        let (preds, sums, times) = serve_all(&mut p, &nodes);
        assert_eq!((preds.len(), sums.len()), (150, 150));
        assert!(preds
            .iter()
            .all(|&c| (c as usize) < p.dataset().num_classes));
        assert_eq!(times.len(), 150usize.div_ceil(p.config().batch_size));
        let total = times.iter().fold(SimTime::ZERO, |t, x| t + x.total());
        assert!(total > SimTime::ZERO);
        // Inference is cheaper per batch than training (no backward, no
        // AllReduce).
        let batch: Vec<NodeId> = nodes[..64].to_vec();
        let it = p.run_iteration(0, 0, &batch, true);
        let train_total = it.times.total();
        let per_batch_infer = total / times.len() as f64;
        assert!(
            per_batch_infer < train_total,
            "infer {per_batch_infer} !< train {train_total}"
        );
    }

    /// A forward-only pass prices the batch it sampled exactly as a
    /// training iteration prices the same batch: on the host frameworks
    /// that includes CPU sub-graph construction and the G-way contention
    /// for host cores (ROADMAP item 2(c)); on the DSM both terms are zero.
    #[test]
    fn inference_prices_sampling_like_training() {
        for fw in [Framework::WholeGraph, Framework::Dgl, Framework::Pyg] {
            let mut p = pipeline(fw, ModelKind::Gcn);
            let nodes: Vec<NodeId> = (0..p.config().batch_size as u64).collect();
            let (_, _, times) = serve_all(&mut p, &nodes);
            assert_eq!(times.len(), 1);
            // `serve_forward` samples at the coordinates (SERVE_EPOCH, 0).
            let it = p.run_iteration(SERVE_EPOCH, 0, &nodes, false);
            assert_eq!(times[0].sample, it.times.sample, "{fw:?}");
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let mut p = pipeline(Framework::WholeGraph, ModelKind::Gcn);
        let nodes: Vec<NodeId> = (0..80u64).collect();
        let (a, a_sums, _) = serve_all(&mut p, &nodes);
        let (b, b_sums, _) = serve_all(&mut p, &nodes);
        assert_eq!((a, a_sums), (b, b_sums));
    }

    #[test]
    fn feature_placements_compute_identically_but_cost_differently() {
        // The storage-mode ablation: P2P, UM and host zero-copy move the
        // same bytes and train the same model; only the simulated gather
        // time changes, ordered P2P < HostMapped < UM.
        let mut results = Vec::new();
        for placement in [
            FeaturePlacement::DeviceP2p,
            FeaturePlacement::HostMapped,
            FeaturePlacement::DeviceUnifiedMemory,
        ] {
            let machine = Machine::new(MachineConfig::dgx_like(4));
            let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn)
                .with_seed(44)
                .with_feature_placement(placement);
            let mut p = Pipeline::new(machine, dataset(), cfg).unwrap();
            let batch: Vec<NodeId> = p.dataset().train[..48].to_vec();
            let r = p.run_iteration(0, 0, &batch, false);
            results.push((placement, r));
        }
        let base_loss = results[0].1.loss;
        for (pl, r) in &results {
            assert!(
                (r.loss - base_loss).abs() < 1e-3 * (1.0 + base_loss.abs()),
                "{pl:?} loss {} vs {base_loss}",
                r.loss
            );
        }
        let p2p = results[0].1.times.gather;
        let mapped = results[1].1.times.gather;
        let um = results[2].1.times.gather;
        assert!(p2p < mapped, "P2P {p2p} !< host-mapped {mapped}");
        assert!(mapped < um, "host-mapped {mapped} !< UM {um}");
    }

    /// Train two epochs with the given tiers — zero rows is a tier off —
    /// and return the second epoch's report: the small batch gives every
    /// rank several iterations, so epoch 0 warms a CLOCK cache and epoch
    /// 1 measures it in steady state.
    fn epoch_with_tiers(cache: (usize, CacheMode), budget_rows: usize) -> EpochReport {
        let machine = Machine::new(MachineConfig::dgx_like(4));
        let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
            .with_seed(11)
            .with_cache(cache.0, cache.1)
            .with_storage(budget_rows);
        cfg.batch_size = 16;
        let mut p = Pipeline::new(machine, dataset(), cfg).unwrap();
        p.train_epoch(0);
        p.train_epoch(1)
    }

    /// The cache off.
    const NO_CACHE: (usize, CacheMode) = (0, CacheMode::Static);

    #[test]
    fn epoch_numerics_are_bit_identical_with_any_cache() {
        // The cache contract at pipeline scope: every mode × size
        // (disabled, small, ≥ working set) trains to bit-identical loss
        // and accuracy — caching moves cost, never values.
        let base = epoch_with_tiers(NO_CACHE, 0);
        for mode in [CacheMode::Static, CacheMode::Clock] {
            for rows in [0usize, 64, 1_000_000] {
                let r = epoch_with_tiers((rows, mode), 0);
                assert_eq!(
                    base.loss.to_bits(),
                    r.loss.to_bits(),
                    "{mode:?} cache of {rows} rows changed the loss"
                );
                assert_eq!(base.train_accuracy, r.train_accuracy, "{mode:?}/{rows}");
            }
        }
    }

    #[test]
    fn cache_hits_cut_gather_and_epoch_time() {
        let base = epoch_with_tiers(NO_CACHE, 0);
        for mode in [CacheMode::Static, CacheMode::Clock] {
            let cached = epoch_with_tiers((512, mode), 0);
            assert!(
                cached.gather_time < base.gather_time,
                "{mode:?}: cached gather {} !< uncached {}",
                cached.gather_time,
                base.gather_time
            );
            assert!(
                cached.epoch_time < base.epoch_time,
                "{mode:?}: cached epoch {} !< uncached {}",
                cached.epoch_time,
                base.epoch_time
            );
        }
        // A zero-capacity cache is cost-identical to no cache at all.
        let off = epoch_with_tiers((0, CacheMode::Clock), 0);
        assert_eq!(off.gather_time, base.gather_time);
        assert_eq!(off.epoch_time, base.epoch_time);
    }

    #[test]
    fn epoch_numerics_are_bit_identical_through_the_disk_tier() {
        // The storage contract at pipeline scope: training through the
        // disk tier at any residency — nothing resident, a 25%-ish
        // budget, everything resident — produces bit-identical loss and
        // accuracy to the pure in-memory run. Values never move; only
        // the priced storage time does.
        let base = epoch_with_tiers(NO_CACHE, 0);
        assert_eq!(base.storage_time, SimTime::ZERO);
        for budget in [1usize, 400, usize::MAX] {
            let r = epoch_with_tiers(NO_CACHE, budget);
            assert_eq!(
                base.loss.to_bits(),
                r.loss.to_bits(),
                "budget {budget} changed the loss"
            );
            assert_eq!(base.train_accuracy, r.train_accuracy, "budget {budget}");
        }
    }

    #[test]
    fn disk_tier_charges_storage_time_and_prefetch_overlaps_it() {
        let base = epoch_with_tiers(NO_CACHE, 0);
        // Partial residency: NVMe reads are priced into the gather, and
        // the double-buffered prefetch hides part of them behind compute
        // (strictly, since every wave trains for a nonzero time).
        let partial = epoch_with_tiers(NO_CACHE, 400);
        assert!(partial.storage_time > SimTime::ZERO);
        assert!(
            partial.gather_time > base.gather_time,
            "disk reads must slow the gather: {} vs {}",
            partial.gather_time,
            base.gather_time
        );
        assert!(
            partial.storage_exposed_time < partial.storage_time,
            "prefetch overlap must beat blocking: exposed {} vs blocking {}",
            partial.storage_exposed_time,
            partial.storage_time
        );
        // The priced reads are the issued ones: file-adjacent rows
        // coalesce, and a range pays for the gaps it bridges.
        let io = partial.storage_io;
        assert!(io.rows > 0 && io.bytes == io.rows * 400, "{io:?}");
        assert!(io.requests > 0 && io.requests <= io.rows, "{io:?}");
        assert!(io.read_bytes >= io.bytes, "{io:?}");
        // Full residency: the tier is built and the tiered path runs,
        // but zero rows are disk-served — cost-identical to in-memory.
        let full = epoch_with_tiers(NO_CACHE, usize::MAX);
        assert_eq!(full.storage_time, SimTime::ZERO);
        assert_eq!(full.storage_exposed_time, SimTime::ZERO);
        assert_eq!(full.storage_io, StorageIo::default());
        assert_eq!(full.gather_time, base.gather_time);
        assert_eq!(full.epoch_time, base.epoch_time);
    }

    #[test]
    fn dsm_setup_time_only_for_wholegraph() {
        let wg = pipeline(Framework::WholeGraph, ModelKind::Gcn);
        let dgl = pipeline(Framework::Dgl, ModelKind::Gcn);
        assert!(wg.setup_time() > SimTime::ZERO);
        assert!(dgl.setup_time().is_zero());
    }
}

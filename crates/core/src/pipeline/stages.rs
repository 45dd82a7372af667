//! The three iteration stages (sample → gather → train) behind the
//! [`Stage`] trait.
//!
//! Each stage performs its *real* computation (sampling, feature
//! movement, forward/backward/optimizer math) against the pipeline's
//! store and model, and returns the *simulated* time that phase costs on
//! the machine under the configured framework. Stages never touch the
//! machine's clocks or traces — that is the executor's job — which is
//! what lets the serial and overlapped executors schedule the same
//! stages differently while producing bit-identical numerics.

use wg_autograd::Optimizer;
use wg_gnn::cost::train_step_time;
use wg_sample::SampleStats;
use wg_sim::collective::allreduce_intra_node;
use wg_sim::trace::Phase;
use wg_sim::SimTime;
use wg_tensor::ops::{argmax_rows_into, softmax_cross_entropy_into};
use wg_tensor::Matrix;

use crate::convert::{minibatch_blocks_into, minibatch_shapes};
use crate::pipeline::report::{IterTimes, IterationResult, StorageIo};
use crate::pipeline::Pipeline;
use wg_graph::NodeId;
use wg_sample::MiniBatch;

/// Mutable state threaded through one iteration's stages.
pub struct IterContext<'p> {
    pub(crate) pipeline: &'p mut Pipeline,
    /// Epoch index (seeds shuffling and dropout).
    pub epoch: u64,
    /// Iteration index within the epoch.
    pub iter: u64,
    /// Whether the optimizer applies updates (false = timing-only run).
    pub update: bool,
    /// Leave the optimizer step to [`Pipeline::apply_step`] — the
    /// multi-node executor averages gradients across replicas between
    /// backward and step.
    pub(crate) defer_step: bool,
    pub(crate) batch_nodes: &'p [NodeId],
    pub(crate) minibatch: Option<MiniBatch>,
    pub(crate) sample_stats: SampleStats,
    pub(crate) features: Option<Matrix>,
    pub(crate) loss: f32,
    pub(crate) correct: usize,
    pub(crate) shapes: Vec<wg_gnn::cost::BlockShape>,
    pub(crate) comm: SimTime,
    /// The gather's out-of-core storage sub-component (already inside
    /// the gather stage's time) and the traffic behind it, left here by
    /// [`GatherStage`] the way [`TrainStage`] leaves `comm`.
    pub(crate) storage: (SimTime, StorageIo),
}

impl<'p> IterContext<'p> {
    /// A fresh context for one iteration over `batch_nodes`.
    pub(crate) fn new(
        pipeline: &'p mut Pipeline,
        epoch: u64,
        iter: u64,
        batch_nodes: &'p [NodeId],
        update: bool,
    ) -> Self {
        IterContext {
            pipeline,
            epoch,
            iter,
            update,
            defer_step: false,
            batch_nodes,
            minibatch: None,
            sample_stats: SampleStats::default(),
            features: None,
            loss: 0.0,
            correct: 0,
            shapes: Vec::new(),
            comm: SimTime::ZERO,
            storage: Default::default(),
        }
    }

    /// Assemble the iteration result from the completed stages' output,
    /// returning the iteration's transient buffers to the pipeline's
    /// recycle pools on the way out.
    pub(crate) fn into_result(mut self, times: IterTimes) -> IterationResult {
        if let Some(mb) = self.minibatch.take() {
            self.pipeline.recycle_minibatch(mb);
        }
        IterationResult {
            times,
            storage_io: self.storage.1,
            loss: self.loss,
            correct: self.correct,
            batch: self.batch_nodes.len(),
            shapes: self.shapes,
            sample_stats: self.sample_stats,
        }
    }
}

/// One stage of the iteration: runs its real computation and returns the
/// simulated time the phase costs. Implementations are framework-aware —
/// they consult the pipeline's [`crate::framework::Framework`] for where
/// the work runs (GPU kernels vs. contended host cores) and price it
/// accordingly.
pub trait Stage {
    /// The trace label executors record this stage's spans under.
    fn phase(&self) -> Phase;

    /// Execute the stage against `ctx`, returning its simulated duration.
    fn run(&self, ctx: &mut IterContext<'_>) -> SimTime;
}

/// Sampling: build the multi-layer sub-graph. GPU-side fused kernels for
/// WholeGraph; a contended host-side sampler for the DGL/PyG baselines.
pub struct SampleStage;

impl Stage for SampleStage {
    fn phase(&self) -> Phase {
        Phase::Sampling
    }

    fn run(&self, ctx: &mut IterContext<'_>) -> SimTime {
        let p = &mut *ctx.pipeline;
        let (mb, sample_stats) = p.sample(ctx.batch_nodes, ctx.epoch, ctx.iter);
        let gpu_spec = p.machine.spec(wg_sim::DeviceId::Gpu(0));
        let mut t_sample =
            p.cfg
                .framework
                .sampler_backend()
                .sample_time(p.machine.cost(), gpu_spec, sample_stats);
        if !p.cfg.framework.uses_dsm() {
            // Host pipelines also run the CPU-side sub-graph construction
            // (unique etc.) inside the sampling phase:
            t_sample += SimTime::from_secs(
                sample_stats.keys_inserted as f64 / p.machine.cost().cpu_sample_edges_per_s,
            );
            // ... and, crucially, all G trainer processes contend for the
            // same host cores: the sampler rates are *aggregate* CPU
            // rates, so when G GPUs each demand a mini-batch per wave,
            // each wave pays G iterations' worth of CPU sampling. This is
            // why DGL/PyG epochs do not shrink 8x on an 8-GPU node while
            // WholeGraph's GPU sampling does.
            t_sample = t_sample * p.machine.num_gpus() as f64;
        }
        ctx.minibatch = Some(mb);
        ctx.sample_stats = sample_stats;
        t_sample
    }
}

/// Gather: materialize the mini-batch's input features. A one-kernel
/// P2P/zero-copy gather for WholeGraph; CPU gather + PCIe copy for the
/// host baselines.
pub struct GatherStage;

impl Stage for GatherStage {
    fn phase(&self) -> Phase {
        Phase::Gather
    }

    fn run(&self, ctx: &mut IterContext<'_>) -> SimTime {
        // Take the batch out so the pipeline can be borrowed mutably (its
        // gather scratch buffers live behind the same `&mut`).
        let mb = ctx
            .minibatch
            .take()
            .expect("gather requires a sampled mini-batch");
        // Iterations round-robin across the data-parallel ranks.
        let rank = (ctx.iter % ctx.pipeline.machine.num_gpus() as u64) as u32;
        let gathered = ctx.pipeline.gather(&mb, rank);
        ctx.minibatch = Some(mb);
        ctx.features = Some(gathered.features);
        ctx.storage = (gathered.storage_time, gathered.storage_io);
        gathered.time
    }
}

/// Train: forward, loss, backward, optimizer step — plus the gradient
/// AllReduce, whose cost the stage leaves in [`IterContext`] for the
/// executor to schedule as its own `Communication` span.
pub struct TrainStage;

impl Stage for TrainStage {
    fn phase(&self) -> Phase {
        Phase::Training
    }

    fn run(&self, ctx: &mut IterContext<'_>) -> SimTime {
        let p = &mut *ctx.pipeline;
        let mb = ctx
            .minibatch
            .as_ref()
            .expect("train requires a sampled mini-batch");
        let features = ctx
            .features
            .take()
            .expect("train requires gathered features");
        // Everything transient below comes out of the iteration scratch:
        // the persistent tape (whose workspace pool recycles all forward
        // activations and backward gradients), the CSR block list, and the
        // label/prediction/loss buffers. Taken out so the pipeline can
        // still be borrowed while they are in use, and put back at the
        // end — steady-state iterations allocate nothing here.
        let mut tape = std::mem::take(&mut p.scratch.tape);
        tape.reset();
        let mut blocks = std::mem::take(&mut p.scratch.blocks);
        minibatch_blocks_into(mb, &mut blocks);
        let shapes = minibatch_shapes(mb);
        let out = p.model.forward(
            &mut tape,
            &blocks,
            features,
            ctx.update,
            p.cfg.seed ^ ctx.epoch.rotate_left(13) ^ ctx.iter,
        );
        let mut labels = std::mem::take(&mut p.scratch.labels);
        labels.clear();
        let dataset_labels = &p.dataset.labels;
        labels.extend(ctx.batch_nodes.iter().map(|&v| dataset_labels[v as usize]));
        let (rows, cols) = {
            let logits = tape.value(out);
            (logits.rows(), logits.cols())
        };
        let mut grad = tape.alloc(rows, cols);
        let mut ce_losses = std::mem::take(&mut p.scratch.ce_losses);
        let loss = softmax_cross_entropy_into(tape.value(out), &labels, &mut grad, &mut ce_losses);
        let mut preds = std::mem::take(&mut p.scratch.preds);
        argmax_rows_into(tape.value(out), &mut preds);
        ctx.correct = preds.iter().zip(&labels).filter(|(pr, l)| pr == l).count();
        ctx.loss = loss;
        if ctx.update {
            p.model.params.zero_grads();
            tape.backward(out, grad, &mut p.model.params);
            if !ctx.defer_step {
                p.opt.step(&mut p.model.params);
            }
        } else {
            tape.recycle(grad);
        }
        // The tape is done with the gathered-input matrix; reclaim its
        // buffer for the next iteration's gather.
        p.reclaim_feature_buf(tape.take_value(wg_autograd::NodeId::first()).into_vec());
        p.scratch.tape = tape;
        p.scratch.blocks = blocks;
        p.scratch.labels = labels;
        p.scratch.ce_losses = ce_losses;
        p.scratch.preds = preds;
        let gpu_spec = p.machine.spec(wg_sim::DeviceId::Gpu(0));
        let t_train = train_step_time(
            &p.cfg
                .gnn_config(p.dataset.feature_dim, p.dataset.num_classes),
            &shapes,
            p.provider,
            p.machine.cost(),
            gpu_spec,
            p.model.params.num_scalars(),
        );
        ctx.comm = if ctx.update {
            // Ring allreduce moves 2*(G-1)/G of the gradient bytes per rank.
            let g = p.machine.num_gpus() as f64;
            let allreduce_bytes = p.model.params.param_bytes() as f64 * 2.0 * (g - 1.0) / g;
            wg_trace::counter!("pipeline.allreduce.bytes", allreduce_bytes);
            if let Some(dist) = &p.dist {
                // Per-node attribution: the global counter sums over all
                // replicas; this one lets the sweep split comm by node.
                wg_trace::metrics::add_dyn(&dist.allreduce_bytes_metric, allreduce_bytes);
            }
            allreduce_intra_node(
                p.machine.cost(),
                p.model.params.param_bytes(),
                p.machine.num_gpus(),
            )
        } else {
            SimTime::ZERO
        };
        ctx.shapes = shapes;
        t_train
    }
}

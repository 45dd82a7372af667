//! The fine split of a training iteration, replayed outside the pipeline.
//!
//! `run_iteration_timed` reports three stage walls; to see inside them the
//! traced pass re-executes the same `(epoch, iter)` minibatch through the
//! layers' public functions, one span per call:
//!
//! `sample_minibatch_into` → `append_unique_into` → `convert` →
//! `GnnModel::forward` → `softmax_cross_entropy_into` → `Tape::backward` →
//! `Optimizer::step`, plus the tensor kernels on the largest block.
//!
//! Gather is deliberately not replayed: its public entry points are the
//! ones ROADMAP item 1 replaces, so gather is timed through the
//! pipeline's own gather wall and the `wg_trace` counters instead.

use std::sync::Arc;
use std::time::Instant;

use wg_autograd::{Adam, Optimizer, Tape};
use wg_gnn::{GnnConfig, GnnModel};
use wg_graph::{MultiGpuGraph, NodeId, SyntheticDataset};
use wg_sample::append_unique::AppendUniqueScratch;
use wg_sample::{
    append_unique_into, sample_minibatch_into, GraphAccess, MiniBatch, MultiGpuAccess,
    SampleScratch, SampleStats, SamplerConfig,
};
use wg_sim::Machine;
use wg_tensor::ops::{matmul_flops, matmul_into, softmax_cross_entropy_into};
use wg_tensor::sparse::{
    edge_softmax, edge_softmax_backward, sddmm, spmm_backward_src_into, spmm_into, ReverseScratch,
};
use wg_tensor::{Agg, BlockCsr, Matrix};
use wholegraph::convert::minibatch_blocks_into;
use wholegraph::prelude::PipelineConfig;

use crate::alloc::HEAP;
use crate::common::ms;
use crate::span::Recorder;
use crate::stats;

pub struct Replay {
    dataset: Arc<SyntheticDataset>,
    store: MultiGpuGraph,
    sampler: SamplerConfig,
    model: GnnModel,
    opt: Adam,
    seed: u64,
    tape: Tape,
    scratch: SampleScratch,
    mb: MiniBatch,
    blocks: Vec<Arc<BlockCsr>>,
    handles: Vec<u64>,
    feature_buf: Vec<f32>,
    labels: Vec<u32>,
    ce_losses: Vec<f32>,
    au: AppendUniqueScratch,
    au_neighbors: Vec<u64>,
    au_out: (Vec<u64>, Vec<u32>, Vec<u32>),
}

pub struct ReplayOut {
    pub stats: SampleStats,
    /// Heap allocations from `convert` through `Optimizer::step`.
    pub train_allocs: u64,
}

impl Replay {
    /// A second store, model and optimizer with the pipeline's own
    /// configuration. `store_build` is timed by the caller.
    pub fn store(dataset: &SyntheticDataset, gpus: u32) -> MultiGpuGraph {
        let machine = Machine::new(wg_sim::MachineConfig::dgx_like(gpus));
        MultiGpuGraph::build(
            machine.cost(),
            gpus,
            &dataset.graph,
            &dataset.features,
            dataset.feature_dim,
            &machine.memory(),
        )
        .expect("the stand-in graph fits the simulated machine")
    }

    pub fn new(cfg: &PipelineConfig, dataset: Arc<SyntheticDataset>, store: MultiGpuGraph) -> Self {
        let gnn = GnnConfig {
            kind: cfg.model,
            in_dim: dataset.feature_dim,
            hidden: cfg.hidden,
            num_classes: dataset.num_classes,
            num_layers: cfg.num_layers,
            heads: cfg.heads,
            dropout: cfg.dropout,
        };
        Replay {
            model: GnnModel::new(gnn, cfg.seed),
            opt: Adam::new(cfg.lr),
            sampler: SamplerConfig {
                fanouts: cfg.fanouts.clone(),
                seed: cfg.seed,
            },
            seed: cfg.seed,
            dataset,
            store,
            tape: Tape::new(),
            scratch: SampleScratch::default(),
            mb: MiniBatch::empty(),
            blocks: Vec::new(),
            handles: Vec::new(),
            feature_buf: Vec::new(),
            labels: Vec::new(),
            ce_losses: Vec::new(),
            au: AppendUniqueScratch::default(),
            au_neighbors: Vec::new(),
            au_out: Default::default(),
        }
    }

    /// Re-run iteration `(epoch, iter)` over `batch`, one span per layer
    /// call, all under one `replay` span.
    pub fn iteration(
        &mut self,
        rec: &mut Recorder,
        epoch: u64,
        iter: u64,
        batch: &[NodeId],
    ) -> ReplayOut {
        let root = rec.begin("replay");
        let access = MultiGpuAccess::new(&self.store);
        self.handles.clear();
        self.handles
            .extend(batch.iter().map(|&v| access.handle_of(v)));

        let s = rec.begin("sample.minibatch");
        let stats = sample_minibatch_into(
            &access,
            &self.handles,
            &self.sampler,
            epoch,
            iter,
            &mut self.scratch,
            &mut self.mb,
        );
        rec.end(s);

        // AppendUnique alone, on the deepest (largest) layer: the sampler
        // keeps its flat neighbor list private, but the block's indices
        // point every sampled edge at its entry of the next frontier.
        let deepest = self.mb.blocks.len() - 1;
        let next = &self.mb.frontiers[deepest + 1];
        self.au_neighbors.clear();
        self.au_neighbors.extend(
            self.mb.blocks[deepest]
                .indices
                .iter()
                .map(|&i| next[i as usize]),
        );
        let s = rec.begin("sample.append_unique");
        append_unique_into(
            &self.mb.frontiers[deepest],
            &self.au_neighbors,
            &mut self.au,
            &mut self.au_out.0,
            &mut self.au_out.1,
            &mut self.au_out.2,
        );
        rec.end(s);

        // Input features straight from the dataset (no gather replay).
        let dim = self.dataset.feature_dim;
        let mut feats = std::mem::take(&mut self.feature_buf);
        feats.clear();
        for &h in self.mb.input_nodes() {
            let v = access.stable_id(h) as usize;
            feats.extend_from_slice(&self.dataset.features[v * dim..(v + 1) * dim]);
        }
        let features = Matrix::from_vec(self.mb.input_nodes().len(), dim, feats);
        self.labels.clear();
        self.labels
            .extend(batch.iter().map(|&v| self.dataset.labels[v as usize]));

        let allocs_before = HEAP.allocs();
        let s = rec.begin("gnn.convert");
        minibatch_blocks_into(&self.mb, &mut self.blocks);
        rec.end(s);

        let s = rec.begin("gnn.forward");
        self.tape.reset();
        let out = self.model.forward(
            &mut self.tape,
            &self.blocks,
            features,
            true,
            self.seed ^ epoch.rotate_left(13) ^ iter,
        );
        rec.end(s);

        let s = rec.begin("gnn.loss");
        let (rows, cols) = {
            let logits = self.tape.value(out);
            (logits.rows(), logits.cols())
        };
        let mut grad = self.tape.alloc(rows, cols);
        let loss = softmax_cross_entropy_into(
            self.tape.value(out),
            &self.labels,
            &mut grad,
            &mut self.ce_losses,
        );
        rec.end(s);
        std::hint::black_box(loss);

        let s = rec.begin("autograd.backward");
        self.model.params.zero_grads();
        self.tape.backward(out, grad, &mut self.model.params);
        rec.end(s);

        let s = rec.begin("autograd.optimizer");
        self.opt.step(&mut self.model.params);
        rec.end(s);
        let train_allocs = HEAP.allocs() - allocs_before;

        self.feature_buf = self
            .tape
            .take_value(wg_autograd::NodeId::first())
            .into_vec();
        rec.end(root);
        ReplayOut {
            stats,
            train_allocs,
        }
    }

    /// p50 host ms of each tensor kernel family on the last replayed
    /// iteration's largest block, `reps` calls each. Returns
    /// `(metric name, ms)` pairs plus the matmul's GFLOP/s.
    pub fn kernels(
        &mut self,
        rec: &mut Recorder,
        hidden: usize,
        heads: usize,
        reps: usize,
    ) -> Vec<(&'static str, f64)> {
        let block = Arc::clone(self.blocks.last().expect("replay an iteration first"));
        let dim = self.dataset.feature_dim;
        let fill = |rows: usize, cols: usize, salt: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17 + salt) % 97) as f32 / 97.0 - 0.5
            })
        };
        let src_in = fill(block.num_src, dim, 1);
        let weight = fill(dim, hidden, 2);
        let grad_dst = fill(block.num_dst, dim, 3);
        let a_dst = fill(block.num_dst, hidden, 4);
        let b_src = fill(block.num_src, hidden, 5);
        let mut out = Matrix::empty();
        let mut rev = ReverseScratch::default();

        let root = rec.begin("kernels");
        let timed = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
            let mut v = Vec::with_capacity(reps);
            for _ in 0..reps {
                let s = rec.begin(name);
                f();
                v.push(ms(rec.end(s)));
            }
            stats::p50(&v)
        };
        let mut results = Vec::new();
        let t = timed(rec, "tensor.matmul", &mut || {
            matmul_into(&src_in, &weight, &mut out);
            std::hint::black_box(&out);
        });
        results.push(("tensor.matmul_ms", t));
        results.push((
            "tensor.matmul_gflops",
            matmul_flops(block.num_src, dim, hidden) / (t * 1e-3) / 1e9,
        ));
        let t = timed(rec, "tensor.spmm", &mut || {
            spmm_into(&block, &src_in, None, 1, Agg::Mean, &mut out);
            std::hint::black_box(&out);
        });
        results.push(("tensor.spmm_ms", t));
        let t = timed(rec, "tensor.spmm_bwd", &mut || {
            spmm_backward_src_into(&block, &grad_dst, None, 1, Agg::Mean, &mut out, &mut rev);
            std::hint::black_box(&out);
        });
        results.push(("tensor.spmm_bwd_ms", t));
        let mut logits = Matrix::empty();
        let t = timed(rec, "tensor.sddmm", &mut || {
            logits = sddmm(&block, &a_dst, &b_src, heads, Agg::Sum);
        });
        results.push(("tensor.sddmm_ms", t));
        let mut soft = Matrix::empty();
        let t = timed(rec, "tensor.edge_softmax", &mut || {
            soft = edge_softmax(&block, &logits);
        });
        results.push(("tensor.edge_softmax_ms", t));
        let t = timed(rec, "tensor.edge_softmax_bwd", &mut || {
            std::hint::black_box(edge_softmax_backward(&block, &soft, &logits));
        });
        results.push(("tensor.edge_softmax_bwd_ms", t));
        rec.end(root);
        results
    }
}

/// Sustained single-thread copy bandwidth of this host, GB/s — the ceiling
/// `mem.gather_gbps` is read against. Median of five 64 MiB copies.
pub fn host_copy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut v = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        v.push(BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&v)
}

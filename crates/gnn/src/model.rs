//! GNN model definitions.
//!
//! All three models share the sampled-mini-batch forward structure: the
//! gathered input features cover the deepest frontier; each layer consumes
//! one [`BlockCsr`] (deepest block first) and produces features for the
//! next-smaller frontier, whose nodes are a *prefix* of the current one
//! (AppendUnique's targets-first layout — `Tape::top_rows` extracts the
//! destination slice without re-gathering).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use wg_autograd::{NodeId, ParamId, Params, Tape};
use wg_tensor::sparse::{Agg, BlockCsr};
use wg_tensor::Matrix;

/// Which GNN architecture (paper §IV "GNN Models").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ModelKind {
    /// Graph convolution (with the sampling strategy the paper adds to it).
    Gcn,
    /// GraphSage with mean aggregation.
    GraphSage,
    /// Graph attention network (4 heads in the paper).
    Gat,
}

impl ModelKind {
    /// The paper's three models, in its table order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GraphSage => "GraphSage",
            ModelKind::Gat => "GAT",
        }
    }
}

/// Model hyperparameters. Defaults follow the paper: 3 layers, hidden 256,
/// 4 GAT heads.
#[derive(Clone, Debug)]
pub struct GnnConfig {
    /// Architecture.
    pub kind: ModelKind,
    /// Input feature width.
    pub in_dim: usize,
    /// Hidden width per layer (256 in the paper).
    pub hidden: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Layer count (3 in the paper).
    pub num_layers: usize,
    /// Attention heads for GAT (4 in the paper). Hidden width must be
    /// divisible by this.
    pub heads: usize,
    /// Dropout rate applied to layer inputs during training.
    pub dropout: f32,
}

impl GnnConfig {
    /// The paper's evaluation configuration for a given model and dataset
    /// shape.
    pub fn paper(kind: ModelKind, in_dim: usize, num_classes: usize) -> Self {
        GnnConfig {
            kind,
            in_dim,
            hidden: 256,
            num_classes,
            num_layers: 3,
            heads: 4,
            dropout: 0.5,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(kind: ModelKind, in_dim: usize, num_classes: usize) -> Self {
        GnnConfig {
            kind,
            in_dim,
            hidden: 16,
            num_classes,
            num_layers: 2,
            heads: 2,
            dropout: 0.0,
        }
    }
}

enum LayerParams {
    Gcn {
        w: ParamId,
        b: ParamId,
    },
    Sage {
        w_self: ParamId,
        w_neigh: ParamId,
        b: ParamId,
    },
    Gat {
        w: ParamId,
        a_dst: ParamId,
        a_src: ParamId,
        b: ParamId,
    },
}

/// A GNN model: parameter store + per-layer parameter handles.
pub struct GnnModel {
    /// Configuration.
    pub cfg: GnnConfig,
    /// Trainable parameters.
    pub params: Params,
    layers: Vec<LayerParams>,
}

impl GnnModel {
    /// Build and initialize a model.
    pub fn new(cfg: GnnConfig, seed: u64) -> Self {
        assert!(cfg.num_layers >= 1);
        if cfg.kind == ModelKind::Gat {
            assert_eq!(cfg.hidden % cfg.heads, 0, "heads must divide hidden");
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut params = Params::new();
        let mut layers = Vec::with_capacity(cfg.num_layers);
        for l in 0..cfg.num_layers {
            let in_dim = if l == 0 { cfg.in_dim } else { cfg.hidden };
            let out_dim = if l == cfg.num_layers - 1 {
                cfg.num_classes
            } else {
                cfg.hidden
            };
            let lp = match cfg.kind {
                ModelKind::Gcn => LayerParams::Gcn {
                    w: params.add_xavier(&format!("gcn{l}.w"), in_dim, out_dim, &mut rng),
                    b: params.add_bias(&format!("gcn{l}.b"), out_dim),
                },
                ModelKind::GraphSage => LayerParams::Sage {
                    w_self: params.add_xavier(
                        &format!("sage{l}.w_self"),
                        in_dim,
                        out_dim,
                        &mut rng,
                    ),
                    w_neigh: params.add_xavier(
                        &format!("sage{l}.w_neigh"),
                        in_dim,
                        out_dim,
                        &mut rng,
                    ),
                    b: params.add_bias(&format!("sage{l}.b"), out_dim),
                },
                ModelKind::Gat => {
                    // Hidden layers use `heads` heads over out_dim channels;
                    // the final layer collapses to a single head.
                    let heads = if l == cfg.num_layers - 1 {
                        1
                    } else {
                        cfg.heads
                    };
                    // Attention vectors project the full layer width onto
                    // one score per head (a mild simplification of
                    // per-head-slice projection; heads still attend
                    // independently through their own score columns).
                    let _ = heads;
                    LayerParams::Gat {
                        w: params.add_xavier(&format!("gat{l}.w"), in_dim, out_dim, &mut rng),
                        a_dst: params.add_xavier(
                            &format!("gat{l}.a_dst"),
                            out_dim,
                            heads,
                            &mut rng,
                        ),
                        a_src: params.add_xavier(
                            &format!("gat{l}.a_src"),
                            out_dim,
                            heads,
                            &mut rng,
                        ),
                        b: params.add_bias(&format!("gat{l}.b"), out_dim),
                    }
                }
            };
            layers.push(lp);
        }
        GnnModel {
            cfg,
            params,
            layers,
        }
    }

    /// Heads used by layer `l`.
    pub fn layer_heads(&self, l: usize) -> usize {
        match self.cfg.kind {
            ModelKind::Gat if l < self.cfg.num_layers - 1 => self.cfg.heads,
            ModelKind::Gat => 1,
            _ => 1,
        }
    }

    /// Forward pass over a sampled mini-batch.
    ///
    /// `blocks` are ordered **outermost first** (as produced by the
    /// sampler: `blocks[0]`'s destinations are the training batch); the
    /// model consumes them in reverse. `input` holds the gathered features
    /// of the deepest frontier (`blocks.last().num_src` rows) and is
    /// recorded as a constant ([`Tape::input`]): `backward` computes
    /// parameter gradients only. Returns the logits node
    /// (`blocks[0].num_dst` rows).
    ///
    /// Every intermediate activation (and, in `backward`, every gradient)
    /// is drawn from the tape's [`wg_autograd::Workspace`] pool, so a
    /// caller that keeps one tape across batches — calling `Tape::reset`
    /// between them — runs steady-state forward/backward passes without
    /// heap allocation, bit-identically to fresh tapes (see the
    /// `persistent_workspace_training_is_bit_identical` test).
    pub fn forward(
        &self,
        tape: &mut Tape,
        blocks: &[Arc<BlockCsr>],
        input: Matrix,
        training: bool,
        dropout_seed: u64,
    ) -> NodeId {
        let mut x = tape.input(input);
        assert_eq!(blocks.len(), self.cfg.num_layers, "one block per layer");
        assert_eq!(
            tape.value(x).rows(),
            blocks.last().unwrap().num_src,
            "input features must cover the deepest frontier"
        );
        for (l, layer) in self.layers.iter().enumerate() {
            let block = Arc::clone(&blocks[blocks.len() - 1 - l]);
            if training && self.cfg.dropout > 0.0 {
                x = tape.dropout(x, self.cfg.dropout, dropout_seed ^ ((l as u64) << 32));
            }
            x = self.layer_forward(tape, layer, l, block, x);
            // GAT's ELU runs inside its aggregation (`Tape::gat_aggregate`).
            if l + 1 < self.cfg.num_layers && self.cfg.kind != ModelKind::Gat {
                x = tape.relu(x);
            }
            // `x` becomes the src features of the next (smaller) block.
        }
        x
    }

    fn layer_forward(
        &self,
        tape: &mut Tape,
        layer: &LayerParams,
        l: usize,
        block: Arc<BlockCsr>,
        x: NodeId,
    ) -> NodeId {
        match layer {
            LayerParams::Gcn { w, b } => {
                // Sampled GCN: mean-aggregate neighbors, average with the
                // node's own embedding (self-loop of the normalized
                // adjacency), then linear.
                let agg = tape.spmm(Arc::clone(&block), x, Agg::Mean);
                let own = tape.top_rows(x, block.num_dst);
                let sum = tape.add(agg, own);
                let half = tape.scale(sum, 0.5);
                let wi = tape.param(&self.params, *w);
                let bi = tape.param(&self.params, *b);
                let h = tape.matmul(half, wi);
                tape.bias(h, bi)
            }
            LayerParams::Sage { w_self, w_neigh, b } => {
                let agg = tape.spmm(Arc::clone(&block), x, Agg::Mean);
                let own = tape.top_rows(x, block.num_dst);
                let wsi = tape.param(&self.params, *w_self);
                let wni = tape.param(&self.params, *w_neigh);
                let bi = tape.param(&self.params, *b);
                let hs = tape.matmul(own, wsi);
                let hn = tape.matmul(agg, wni);
                let h = tape.add(hs, hn);
                tape.bias(h, bi)
            }
            LayerParams::Gat { w, a_dst, a_src, b } => {
                let heads = self.layer_heads(l);
                let wi = tape.param(&self.params, *w);
                let h = tape.matmul(x, wi); // [num_src, out_dim]
                let adi = tape.param(&self.params, *a_dst);
                let asi = tape.param(&self.params, *a_src);
                // [num_src, 2·heads]: the dst scores are its first rows.
                let scores = tape.attention_scores(h, adi, asi);
                let att = tape.edge_attention(Arc::clone(&block), scores, 0.2); // [E, heads]
                let bi = tape.param(&self.params, *b);
                let elu = (l + 1 < self.cfg.num_layers).then_some(1.0);
                tape.gat_aggregate(block, h, att, heads, bi, elu)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_tensor::ops::softmax_cross_entropy;

    /// Two nested blocks for a 2-layer model:
    /// block deep: 3 dst → 5 src; block outer: 2 dst → 3 src.
    fn blocks() -> Vec<Arc<BlockCsr>> {
        let outer = BlockCsr {
            num_dst: 2,
            num_src: 3,
            offsets: vec![0, 2, 3],
            indices: vec![1, 2, 2],
            dup_count: vec![0, 1, 2],
        };
        let deep = BlockCsr {
            num_dst: 3,
            num_src: 5,
            offsets: vec![0, 2, 3, 5],
            indices: vec![3, 4, 2, 0, 4],
            dup_count: vec![1, 0, 1, 1, 2],
        };
        outer.validate();
        deep.validate();
        vec![Arc::new(outer), Arc::new(deep)]
    }

    fn input() -> Matrix {
        Matrix::from_fn(5, 6, |i, j| ((i * 7 + j) as f32).sin())
    }

    #[test]
    fn all_models_produce_batch_sized_logits() {
        for kind in ModelKind::ALL {
            let cfg = GnnConfig::tiny(kind, 6, 4);
            let model = GnnModel::new(cfg, 42);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &blocks(), input(), false, 0);
            let v = tape.value(out);
            assert_eq!((v.rows(), v.cols()), (2, 4), "{kind:?}");
            assert!(
                v.data().iter().all(|x| x.is_finite()),
                "{kind:?} produced non-finite logits"
            );
        }
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode() {
        let cfg = GnnConfig::tiny(ModelKind::GraphSage, 6, 4);
        let model = GnnModel::new(cfg, 7);
        let run = || {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &blocks(), input(), false, 0);
            tape.value(out).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adam_steps_reduce_loss_for_every_model() {
        use wg_autograd::{Adam, Optimizer};
        for kind in ModelKind::ALL {
            let cfg = GnnConfig::tiny(kind, 6, 4);
            let mut model = GnnModel::new(cfg, 3);
            let labels = [1u32, 3];
            let loss_of = |model: &GnnModel| {
                let mut tape = Tape::new();
                let out = model.forward(&mut tape, &blocks(), input(), false, 0);
                softmax_cross_entropy(tape.value(out), &labels).0
            };
            let loss0 = loss_of(&model);
            let mut opt = Adam::new(0.01);
            for _ in 0..5 {
                let mut tape = Tape::new();
                let out = model.forward(&mut tape, &blocks(), input(), false, 0);
                let (_, grad) = softmax_cross_entropy(tape.value(out), &labels);
                model.params.zero_grads();
                tape.backward(out, grad, &mut model.params);
                opt.step(&mut model.params);
            }
            let loss1 = loss_of(&model);
            assert!(loss1 < loss0, "{kind:?}: loss {loss0} -> {loss1}");
        }
    }

    #[test]
    fn persistent_workspace_training_is_bit_identical() {
        // The tentpole guarantee of the allocation-free training path:
        // recycling every activation/gradient buffer through one shared
        // workspace across steps changes nothing — weights and losses are
        // bit-for-bit those of fresh per-step tapes, for every model
        // (dropout on, so the pooled mask path is exercised too).
        use wg_autograd::{Adam, Optimizer};
        use wg_tensor::ops::softmax_cross_entropy_into;
        for kind in ModelKind::ALL {
            let labels = [1u32, 3];
            let train = |persistent: bool| -> Vec<u32> {
                let mut cfg = GnnConfig::tiny(kind, 6, 4);
                cfg.dropout = 0.3;
                let mut model = GnnModel::new(cfg, 9);
                let mut opt = Adam::new(0.05);
                let mut tape = Tape::new();
                let mut bits = Vec::new();
                for step in 0..4u64 {
                    if persistent {
                        tape.reset();
                    } else {
                        tape = Tape::new();
                    }
                    let out = model.forward(&mut tape, &blocks(), input(), true, step);
                    let mut grad = tape.alloc(0, 0);
                    let mut losses = Vec::new();
                    let loss = softmax_cross_entropy_into(
                        tape.value(out),
                        &labels,
                        &mut grad,
                        &mut losses,
                    );
                    bits.push(loss.to_bits());
                    model.params.zero_grads();
                    tape.backward(out, grad, &mut model.params);
                    opt.step(&mut model.params);
                }
                for id in model.params.ids().collect::<Vec<_>>() {
                    bits.extend(model.params.value(id).data().iter().map(|x| x.to_bits()));
                }
                bits
            };
            assert_eq!(train(true), train(false), "{kind:?}");
        }
    }

    #[test]
    fn gat_and_sage_have_more_parameters_than_gcn() {
        // The paper attributes GAT's smaller speedup to its larger
        // parameter/compute footprint; the *compute* ordering is asserted
        // in `cost::tests`. Parameter-wise, GAT and GraphSage both exceed
        // plain GCN (attention vectors / the second weight matrix).
        let n = |kind| {
            GnnModel::new(GnnConfig::paper(kind, 100, 16), 0)
                .params
                .num_scalars()
        };
        assert!(n(ModelKind::Gat) > n(ModelKind::Gcn));
        assert!(n(ModelKind::GraphSage) > n(ModelKind::Gcn));
    }

    #[test]
    fn paper_config_matches_evaluation_setup() {
        let cfg = GnnConfig::paper(ModelKind::GraphSage, 128, 172);
        assert_eq!(cfg.hidden, 256);
        assert_eq!(cfg.num_layers, 3);
        assert_eq!(cfg.heads, 4);
    }

    #[test]
    #[should_panic(expected = "one block per layer")]
    fn wrong_block_count_panics() {
        let cfg = GnnConfig::tiny(ModelKind::Gcn, 6, 4);
        let model = GnnModel::new(cfg, 0);
        let mut tape = Tape::new();
        let b = blocks();
        model.forward(&mut tape, &b[..1], input(), false, 0);
    }
}

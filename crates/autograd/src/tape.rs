//! The autograd tape.
//!
//! A define-by-run tape: every forward op appends a node recording its
//! inputs (and whatever saved state its backward needs); `backward` seeds a
//! gradient at the output node and walks the tape in reverse, accumulating
//! into intermediate grads and, for parameter leaves, into the [`Params`]
//! store. This mirrors how WholeGraph leans on PyTorch autograd while
//! supplying custom forward/backward kernels for the sparse ops.
//!
//! Like PyTorch's `requires_grad`, every node records at creation whether
//! any gradient is wanted below it (`needs_grad`: true for parameters and
//! [`Tape::leaf`] inputs, false for [`Tape::input`] constants, otherwise
//! the OR of its operands), and `backward` runs no kernel for an operand
//! that does not: the gradient w.r.t. the gathered features — the widest
//! g-SpMM backward and `dL/dX` matmul of a GNN — is never computed unless
//! the caller asked for it with `leaf`.

#![allow(clippy::needless_range_loop)] // kernel-style indexed loops

use std::sync::Arc;

use wg_tensor::matrix::Matrix;
use wg_tensor::ops;
use wg_tensor::sparse::{self, Agg, BlockCsr};

use crate::params::{ParamId, Params};
use crate::workspace::Workspace;

/// Handle to a tape node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(usize);

impl NodeId {
    /// The first node recorded on a tape. `GnnModel::forward` records its
    /// gathered-input matrix first, so this is how callers reclaim that
    /// buffer ([`Tape::take_value`]) after `backward`.
    pub fn first() -> NodeId {
        NodeId(0)
    }
}

enum Op {
    /// Input leaf: a constant ([`Tape::input`]) or, when the node needs a
    /// gradient, a [`Tape::leaf`] whose gradient the caller reads back.
    Input,
    /// Parameter leaf: gradient flows into `Params`.
    Param(ParamId),
    /// `a · b`.
    Matmul(NodeId, NodeId),
    /// `a + b` (same shape).
    Add(NodeId, NodeId),
    /// `x + bias` (bias is a `[1, n]` node broadcast over rows).
    Bias(NodeId, NodeId),
    /// ReLU; saved input is the argument node's value.
    Relu(NodeId),
    /// ELU; backward uses this node's own (output) value.
    Elu(NodeId, f32),
    /// LeakyReLU with slope; saved input is the argument's value.
    LeakyRelu(NodeId, f32),
    /// Inverted dropout with saved mask.
    Dropout(NodeId, Vec<f32>),
    /// First `n` rows of `x` (targets-first feature reuse).
    TopRows(NodeId, usize),
    /// `x * s`.
    Scale(NodeId, f32),
    /// g-SpMM over a block (optionally edge-weighted, multi-head).
    Spmm {
        src: NodeId,
        weights: Option<NodeId>,
        block: Arc<BlockCsr>,
        heads: usize,
        agg: Agg,
    },
    /// Per-dst edge softmax; backward uses this node's output value.
    EdgeSoftmax {
        logits: NodeId,
        block: Arc<BlockCsr>,
    },
    /// Per-edge sum of a dst-side and a src-side per-node score:
    /// `out[e, h] = dst[d(e), h] + src[s(e), h]` (GAT attention logits).
    EdgeScores {
        dst: NodeId,
        src: NodeId,
        block: Arc<BlockCsr>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// Whether `backward` must deliver a gradient to this node (see the
    /// module docs).
    needs_grad: bool,
}

/// An autograd tape (one forward pass at a time). Owns a [`Workspace`]
/// buffer pool: [`Tape::reset`] recycles every node's value, gradient and
/// saved op state back into the pool, so a long-lived tape that is reset
/// between batches records subsequent passes without heap allocation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    ws: Workspace,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the tape for the next forward pass, recycling every node's
    /// buffers into the workspace pool. The node list keeps its capacity,
    /// so a reset tape records the same op sequence allocation-free.
    pub fn reset(&mut self) {
        let Tape { nodes, ws } = self;
        for node in nodes.drain(..) {
            ws.recycle_matrix(node.value);
            if let Some(g) = node.grad {
                ws.recycle_matrix(g);
            }
            if let Op::Dropout(_, mask) = node.op {
                ws.recycle_f32(mask);
            }
        }
    }

    /// A pooled zero matrix from the tape's workspace — the generalized
    /// counterpart of [`Tape::take_value`] for callers (loss gradients,
    /// scratch) that want to participate in the tape's buffer recycling.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        self.ws.matrix_zeros(rows, cols)
    }

    /// Return a matrix taken via [`Tape::alloc`]/[`Tape::take_value`] to
    /// the workspace pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.ws.recycle_matrix(m);
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let needs_grad = match &op {
            Op::Input => false,
            Op::Param(_) => true,
            Op::Relu(x)
            | Op::Elu(x, _)
            | Op::LeakyRelu(x, _)
            | Op::Dropout(x, _)
            | Op::TopRows(x, _)
            | Op::Scale(x, _) => self.needs(*x),
            Op::Matmul(a, b) | Op::Add(a, b) | Op::Bias(a, b) => self.needs(*a) || self.needs(*b),
            Op::Spmm { src, weights, .. } => {
                self.needs(*src) || weights.is_some_and(|w| self.needs(w))
            }
            Op::EdgeSoftmax { logits, .. } => self.needs(*logits),
            Op::EdgeScores { dst, src, .. } => self.needs(*dst) || self.needs(*src),
        };
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Gradient of a node after `backward` (None if no gradient reached it
    /// — always the case for [`Tape::input`] constants and anything
    /// computed only from them).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Move a node's value matrix out of the tape, leaving an empty matrix
    /// behind. Lets callers reclaim a large buffer (e.g. the gathered input
    /// features at [`NodeId::first`]) once the tape is done with it — after
    /// `backward`, before the tape is dropped.
    pub fn take_value(&mut self, id: NodeId) -> Matrix {
        std::mem::replace(
            &mut self.nodes[id.0].value,
            Matrix::from_vec(0, 0, Vec::new()),
        )
    }

    /// Constant input (e.g. gathered features): takes no gradient, and
    /// `backward` computes none for it.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input)
    }

    /// An input whose gradient is kept (e.g. gathered rows of a learnable
    /// embedding table): read it back with [`Tape::grad`] after `backward`.
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        let id = self.push(value, Op::Input);
        self.nodes[id.0].needs_grad = true;
        id
    }

    /// Parameter leaf: snapshots the current value from `params`.
    pub fn param(&mut self, params: &Params, id: ParamId) -> NodeId {
        let v = self.ws.matrix_from(params.value(id));
        self.push(v, Op::Param(id))
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self
            .ws
            .matrix_stale(self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        ops::matmul_into(&self.nodes[a.0].value, &self.nodes[b.0].value, &mut v);
        self.push(v, Op::Matmul(a, b))
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[a.0].value);
        ops::add_into(&self.nodes[a.0].value, &self.nodes[b.0].value, &mut v);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast-add a `[1, n]` bias node to every row of `x`.
    pub fn bias(&mut self, x: NodeId, b: NodeId) -> NodeId {
        assert_eq!(self.nodes[b.0].value.rows(), 1, "bias must be a row vector");
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        let bias = self.nodes[b.0].value.row(0);
        ops::add_bias(&self.nodes[x.0].value, bias, &mut v);
        self.push(v, Op::Bias(x, b))
    }

    /// ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        ops::relu(&self.nodes[x.0].value, &mut v);
        self.push(v, Op::Relu(x))
    }

    /// ELU (GAT's activation).
    pub fn elu(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        ops::elu(&self.nodes[x.0].value, alpha, &mut v);
        self.push(v, Op::Elu(x, alpha))
    }

    /// LeakyReLU (GAT attention logits).
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        ops::leaky_relu(&self.nodes[x.0].value, slope, &mut v);
        self.push(v, Op::LeakyRelu(x, slope))
    }

    /// Inverted dropout (training mode; pass `p = 0` to disable).
    pub fn dropout(&mut self, x: NodeId, p: f32, seed: u64) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        let mut mask = self.ws.take_f32_stale(if p == 0.0 { 0 } else { v.len() });
        ops::dropout_into(&self.nodes[x.0].value, p, seed, &mut v, &mut mask);
        self.push(v, Op::Dropout(x, mask))
    }

    /// First `n` rows of `x`.
    pub fn top_rows(&mut self, x: NodeId, n: usize) -> NodeId {
        let cols = self.nodes[x.0].value.cols();
        let mut buf = self.ws.take_f32(n * cols);
        buf.extend_from_slice(&self.nodes[x.0].value.data()[..n * cols]);
        let v = Matrix::from_vec(n, cols, buf);
        self.push(v, Op::TopRows(x, n))
    }

    /// `x · s`.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let mut v = self.ws.matrix_stale_like(&self.nodes[x.0].value);
        ops::scale(&self.nodes[x.0].value, s, &mut v);
        self.push(v, Op::Scale(x, s))
    }

    /// g-SpMM message passing over `block` (optionally edge-weighted,
    /// multi-head).
    pub fn spmm(
        &mut self,
        block: Arc<BlockCsr>,
        src: NodeId,
        weights: Option<NodeId>,
        heads: usize,
        agg: Agg,
    ) -> NodeId {
        let mut v = self
            .ws
            .matrix_with_capacity(block.num_dst * self.nodes[src.0].value.cols());
        {
            let w = weights.map(|w| &self.nodes[w.0].value);
            sparse::spmm_into(&block, &self.nodes[src.0].value, w, heads, agg, &mut v);
        }
        self.push(
            v,
            Op::Spmm {
                src,
                weights,
                block,
                heads,
                agg,
            },
        )
    }

    /// A pooled matrix able to hold one row per edge of `block`, as wide
    /// as node `like` — the shape of every per-edge GAT intermediate.
    fn edge_matrix(&mut self, block: &BlockCsr, like: NodeId) -> Matrix {
        let heads = self.nodes[like.0].value.cols();
        self.ws.matrix_with_capacity(block.num_edges() * heads)
    }

    /// Per-dst, per-head edge softmax over `block`.
    pub fn edge_softmax(&mut self, block: Arc<BlockCsr>, logits: NodeId) -> NodeId {
        let mut v = self.edge_matrix(&block, logits);
        sparse::edge_softmax_into(&block, &self.nodes[logits.0].value, &mut v);
        self.push(v, Op::EdgeSoftmax { logits, block })
    }

    /// GAT attention logits: `out[e, h] = dst_scores[d(e), h] +
    /// src_scores[s(e), h]` over the block's edges.
    pub fn edge_scores(&mut self, block: Arc<BlockCsr>, dst: NodeId, src: NodeId) -> NodeId {
        let mut v = self.edge_matrix(&block, dst);
        let (d, s) = (&self.nodes[dst.0].value, &self.nodes[src.0].value);
        sparse::edge_scores_into(&block, d, s, &mut v);
        self.push(v, Op::EdgeScores { dst, src, block })
    }

    /// Backward pass: seed `seed_grad` at `output` and accumulate
    /// parameter gradients into `params`.
    pub fn backward(&mut self, output: NodeId, seed_grad: Matrix, params: &mut Params) {
        {
            let out = &mut self.nodes[output.0];
            assert_eq!(
                (out.value.rows(), out.value.cols()),
                (seed_grad.rows(), seed_grad.cols()),
                "seed gradient shape mismatch"
            );
            out.grad = Some(seed_grad);
        }
        for i in (0..=output.0).rev() {
            // Only `output` itself can hold a gradient it has no use for.
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // Re-insert so callers can inspect grads afterwards.
            self.propagate(i, &grad, params);
            self.nodes[i].grad = Some(grad);
        }
    }

    /// Add contribution `g` to a node's gradient — or hand it back to the
    /// pool when the node takes none (kernels that produce both operands'
    /// gradients at once; single-operand kernels are skipped instead).
    fn accumulate(&mut self, id: NodeId, g: Matrix) {
        if !self.needs(id) {
            self.ws.recycle_matrix(g);
            return;
        }
        let slot = &mut self.nodes[id.0].grad;
        match slot {
            None => *slot = Some(g),
            Some(acc) => {
                for (a, b) in acc.data_mut().iter_mut().zip(g.data()) {
                    *a += b;
                }
                // The merged contribution goes straight back to the pool.
                self.ws.recycle_matrix(g);
            }
        }
    }

    fn propagate(&mut self, i: usize, grad: &Matrix, params: &mut Params) {
        // Take op by reference via a raw split to satisfy the borrow
        // checker: ops never alias the node's own grad slot.
        let op = std::ptr::addr_of!(self.nodes[i].op);
        // SAFETY: `accumulate` only touches *other* nodes' grad slots and
        // the workspace pool, and never resizes `self.nodes`; the op enum
        // itself is not mutated.
        let op: &Op = unsafe { &*op };
        match op {
            Op::Input => {}
            Op::Param(pid) => params.accumulate_grad(*pid, grad),
            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let mut ga = self
                        .ws
                        .matrix_stale(grad.rows(), self.nodes[b.0].value.rows());
                    ops::matmul_nt_into(
                        grad,
                        &self.nodes[b.0].value,
                        &mut ga,
                        &mut self.ws.nt_scratch,
                    );
                    self.accumulate(a, ga);
                }
                if self.needs(b) {
                    let mut gb = self
                        .ws
                        .matrix_stale(self.nodes[a.0].value.cols(), grad.cols());
                    ops::matmul_tn_into(
                        &self.nodes[a.0].value,
                        grad,
                        &mut gb,
                        &mut self.ws.tn_scratch,
                    );
                    self.accumulate(b, gb);
                }
            }
            Op::Add(a, b) => {
                for operand in [*a, *b] {
                    if self.needs(operand) {
                        let g = self.ws.matrix_from(grad);
                        self.accumulate(operand, g);
                    }
                }
            }
            Op::Bias(x, b) => {
                let (x, b) = (*x, *b);
                if self.needs(x) {
                    let gx = self.ws.matrix_from(grad);
                    self.accumulate(x, gx);
                }
                if self.needs(b) {
                    let mut gb = self.ws.matrix_zeros(1, grad.cols());
                    ops::sum_rows_into(grad, gb.data_mut());
                    self.accumulate(b, gb);
                }
            }
            Op::Relu(x) => {
                let x = *x;
                let mut g = self.ws.matrix_stale_like(grad);
                ops::relu_backward(grad, &self.nodes[x.0].value, &mut g);
                self.accumulate(x, g);
            }
            Op::Elu(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                let mut g = self.ws.matrix_stale_like(grad);
                ops::elu_backward(grad, &self.nodes[i].value, alpha, &mut g);
                self.accumulate(x, g);
            }
            Op::LeakyRelu(x, slope) => {
                let (x, slope) = (*x, *slope);
                let mut g = self.ws.matrix_stale_like(grad);
                ops::leaky_relu_backward(grad, &self.nodes[x.0].value, slope, &mut g);
                self.accumulate(x, g);
            }
            Op::Dropout(x, mask) => {
                let x = *x;
                let mut g = self.ws.matrix_stale_like(grad);
                ops::dropout_backward(grad, mask, &mut g);
                self.accumulate(x, g);
            }
            Op::TopRows(x, n) => {
                let (x, n) = (*x, *n);
                let (rows, cols) = {
                    let src = &self.nodes[x.0].value;
                    (src.rows(), src.cols())
                };
                let mut g = self.ws.matrix_zeros(rows, cols);
                g.data_mut()[..n * cols].copy_from_slice(grad.data());
                self.accumulate(x, g);
            }
            Op::Scale(x, s) => {
                let (x, s) = (*x, *s);
                let mut g = self.ws.matrix_stale_like(grad);
                ops::scale(grad, s, &mut g);
                self.accumulate(x, g);
            }
            Op::Spmm {
                src,
                weights,
                block,
                heads,
                agg,
            } => {
                let (src, weights, heads, agg) = (*src, *weights, *heads, *agg);
                let block = Arc::clone(block);
                if self.needs(src) {
                    let mut gsrc = self.ws.matrix_with_capacity(block.num_src * grad.cols());
                    let w = weights.map(|w| &self.nodes[w.0].value);
                    sparse::spmm_backward_src_into(
                        &block,
                        grad,
                        w,
                        heads,
                        agg,
                        &mut gsrc,
                        &mut self.ws.rev,
                    );
                    self.accumulate(src, gsrc);
                }
                if let Some(w) = weights.filter(|&w| self.needs(w)) {
                    // dL/dw = g-SDDMM(grad_dst, src) with the forward scale.
                    let mut gw = self.edge_matrix(&block, w);
                    let h = &self.nodes[src.0].value;
                    sparse::sddmm_into(&block, grad, h, heads, agg, &mut gw);
                    self.accumulate(w, gw);
                }
            }
            Op::EdgeSoftmax { logits, block } => {
                let logits = *logits;
                let mut g = self.edge_matrix(block, logits);
                sparse::edge_softmax_backward_into(block, &self.nodes[i].value, grad, &mut g);
                self.accumulate(logits, g);
            }
            Op::EdgeScores { dst, src, block } => {
                let (dst, src) = (*dst, *src);
                let heads = grad.cols();
                let mut gd = self.ws.matrix_with_capacity(block.num_dst * heads);
                let mut gs = self.ws.matrix_with_capacity(block.num_src * heads);
                sparse::edge_scores_backward_into(block, grad, &mut gd, &mut gs);
                self.accumulate(dst, gd);
                self.accumulate(src, gs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use wg_tensor::ops::softmax_cross_entropy;

    fn randm(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn tiny_block() -> Arc<BlockCsr> {
        Arc::new(BlockCsr {
            num_dst: 2,
            num_src: 4,
            offsets: vec![0, 2, 3],
            indices: vec![2, 3, 2],
            dup_count: vec![0, 0, 2, 1],
        })
    }

    /// Scalar loss = <output, probe> used for finite-difference checks.
    fn probe_loss(out: &Matrix, probe: &Matrix) -> f32 {
        out.data()
            .iter()
            .zip(probe.data())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Check d(probe_loss ∘ f)/d(param) by central differences against the
    /// tape's accumulated parameter gradient.
    fn check_param_grad(
        build: &dyn Fn(&Params, &mut Tape) -> NodeId,
        params: &mut Params,
        pid: ParamId,
        probe: &Matrix,
    ) {
        let mut tape = Tape::new();
        let out = build(params, &mut tape);
        params.zero_grads();
        tape.backward(out, probe.clone(), params);
        let analytic = params.grad(pid).clone();

        let eps = 1e-3f32;
        for idx in 0..params.value(pid).len().min(6) {
            let orig = params.value(pid).data()[idx];
            params.value_mut(pid).data_mut()[idx] = orig + eps;
            let mut tp = Tape::new();
            let op = build(params, &mut tp);
            let lp = probe_loss(tp.value(op), probe);
            params.value_mut(pid).data_mut()[idx] = orig - eps;
            let mut tm = Tape::new();
            let om = build(params, &mut tm);
            let lm = probe_loss(tm.value(om), probe);
            params.value_mut(pid).data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "param elem {idx}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn linear_layer_gradients() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut params = Params::new();
        let w = params.add_xavier("w", 4, 3, &mut rng);
        let b = params.add_bias("b", 3);
        params
            .value_mut(b)
            .data_mut()
            .copy_from_slice(&[0.1, -0.2, 0.3]);
        let x = randm(5, 4, 2);
        let probe = randm(5, 3, 3);
        let xc = x.clone();
        let build = move |p: &Params, t: &mut Tape| {
            let xi = t.input(xc.clone());
            let wi = t.param(p, w);
            let bi = t.param(p, b);
            let h = t.matmul(xi, wi);
            t.bias(h, bi)
        };
        check_param_grad(&build, &mut params, w, &probe);
        check_param_grad(&build, &mut params, b, &probe);
    }

    #[test]
    fn relu_mlp_gradients() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut params = Params::new();
        let w1 = params.add_xavier("w1", 3, 4, &mut rng);
        let w2 = params.add_xavier("w2", 4, 2, &mut rng);
        let x = randm(6, 3, 5);
        let probe = randm(6, 2, 6);
        let build = move |p: &Params, t: &mut Tape| {
            let xi = t.input(x.clone());
            let w1i = t.param(p, w1);
            let w2i = t.param(p, w2);
            let h = t.matmul(xi, w1i);
            let h = t.relu(h);
            t.matmul(h, w2i)
        };
        check_param_grad(&build, &mut params, w1, &probe);
        check_param_grad(&build, &mut params, w2, &probe);
    }

    #[test]
    fn spmm_layer_gradients() {
        let mut rng = SmallRng::seed_from_u64(7);
        let block = tiny_block();
        let mut params = Params::new();
        let w = params.add_xavier("w", 4, 3, &mut rng);
        let x = randm(4, 4, 8);
        let probe = randm(2, 3, 9);
        let b2 = Arc::clone(&block);
        let build = move |p: &Params, t: &mut Tape| {
            let xi = t.input(x.clone());
            let wi = t.param(p, w);
            let h = t.matmul(xi, wi); // [4,3] per-src transform
            t.spmm(Arc::clone(&b2), h, None, 1, Agg::Mean)
        };
        check_param_grad(&build, &mut params, w, &probe);
    }

    #[test]
    fn gat_attention_path_gradients() {
        // Full single-head GAT attention: scores -> leakyrelu -> softmax ->
        // weighted spmm, differentiated end to end.
        let mut rng = SmallRng::seed_from_u64(11);
        let block = tiny_block();
        let mut params = Params::new();
        let w = params.add_xavier("w", 3, 4, &mut rng);
        let a_dst = params.add_xavier("a_dst", 4, 1, &mut rng);
        let a_src = params.add_xavier("a_src", 4, 1, &mut rng);
        let x = randm(4, 3, 12);
        let probe = randm(2, 4, 13);
        let blk = Arc::clone(&block);
        let build = move |p: &Params, t: &mut Tape| {
            let xi = t.input(x.clone());
            let wi = t.param(p, w);
            let h = t.matmul(xi, wi); // [num_src, 4]
            let adi = t.param(p, a_dst);
            let asi = t.param(p, a_src);
            let sd_all = t.matmul(h, adi); // [num_src, 1]
            let sd = t.top_rows(sd_all, blk.num_dst);
            let ss = t.matmul(h, asi); // [num_src, 1]
            let logits = t.edge_scores(Arc::clone(&blk), sd, ss);
            let logits = t.leaky_relu(logits, 0.2);
            let att = t.edge_softmax(Arc::clone(&blk), logits);
            t.spmm(Arc::clone(&blk), h, Some(att), 1, Agg::Sum)
        };
        check_param_grad(&build, &mut params, w, &probe);
        check_param_grad(&build, &mut params, a_dst, &probe);
        check_param_grad(&build, &mut params, a_src, &probe);
    }

    #[test]
    fn top_rows_gradients() {
        // The parameter feeds the rows `top_rows` keeps and the rows it
        // drops; only the kept rows may carry gradient back.
        let mut rng = SmallRng::seed_from_u64(20);
        let mut params = Params::new();
        let w = params.add_xavier("w", 3, 2, &mut rng);
        let x = randm(5, 3, 21);
        let probe = randm(3, 2, 22);
        let build = move |p: &Params, t: &mut Tape| {
            let xi = t.input(x.clone());
            let wi = t.param(p, w);
            let h = t.matmul(xi, wi); // [5,2]
            t.top_rows(h, 3) // [3,2]
        };
        check_param_grad(&build, &mut params, w, &probe);
    }

    #[test]
    fn end_to_end_training_step_reduces_loss() {
        // One gradient-descent step on a tiny classification problem must
        // reduce the loss.
        let mut rng = SmallRng::seed_from_u64(30);
        let mut params = Params::new();
        let w = params.add_xavier("w", 4, 3, &mut rng);
        let x = randm(8, 4, 31);
        let labels: Vec<u32> = (0..8).map(|i| (i % 3) as u32).collect();

        let run = |params: &Params| -> (f32, Matrix) {
            let mut t = Tape::new();
            let xi = t.input(x.clone());
            let wi = t.param(params, w);
            let out = t.matmul(xi, wi);
            let (loss, grad) = softmax_cross_entropy(t.value(out), &labels);
            (loss, grad)
        };
        let (loss0, _) = run(&params);
        // Proper step: forward, backward, SGD update.
        let mut t = Tape::new();
        let xi = t.input(x.clone());
        let wi = t.param(&params, w);
        let out = t.matmul(xi, wi);
        let (_, grad) = softmax_cross_entropy(t.value(out), &labels);
        params.zero_grads();
        t.backward(out, grad, &mut params);
        let g = params.grad(w).clone();
        for (v, gv) in params.value_mut(w).data_mut().iter_mut().zip(g.data()) {
            *v -= 0.5 * gv;
        }
        let (loss1, _) = run(&params);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
    }

    #[test]
    fn reset_tape_reuse_is_bit_identical_to_fresh_tapes() {
        // The same three-step training loop run (a) with one long-lived
        // tape reset between steps and (b) with a fresh tape per step must
        // produce bit-identical parameter values: pooling recycles
        // buffers, never changes the math.
        let block = tiny_block();
        let x = randm(4, 4, 40);
        let labels: Vec<u32> = vec![0, 2, 1, 0][..2].to_vec();

        let train = |fresh_tapes: bool| -> Vec<f32> {
            let mut rng = SmallRng::seed_from_u64(41);
            let mut params = Params::new();
            let w = params.add_xavier("w", 4, 3, &mut rng);
            let b = params.add_bias("b", 3);
            let mut tape = Tape::new();
            for step in 0..3 {
                if fresh_tapes {
                    tape = Tape::new();
                } else {
                    tape.reset();
                }
                let xi = tape.input(x.clone());
                let wi = tape.param(&params, w);
                let bi = tape.param(&params, b);
                let h = tape.matmul(xi, wi);
                let h = tape.spmm(Arc::clone(&block), h, None, 1, Agg::Mean);
                let h = tape.bias(h, bi);
                let h = tape.relu(h);
                let out = tape.dropout(h, 0.25, 7 + step);
                let (_, grad) = softmax_cross_entropy(tape.value(out), &labels);
                params.zero_grads();
                tape.backward(out, grad, &mut params);
                let g = params.grad(w).clone();
                for (v, gv) in params.value_mut(w).data_mut().iter_mut().zip(g.data()) {
                    *v -= 0.1 * gv;
                }
            }
            let mut flat = params.value(w).data().to_vec();
            flat.extend_from_slice(params.value(b).data());
            flat
        };

        let pooled = train(false);
        let fresh = train(true);
        assert_eq!(
            pooled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    /// `input` vs `leaf` differ only in what `backward` skips: the same
    /// network over a constant input and over a gradient-taking leaf must
    /// accumulate bit-identical parameter gradients, while only the leaf
    /// (and nothing computed from constants alone) ends up with a gradient.
    #[test]
    fn constant_input_skips_its_gradient_and_moves_no_parameter_bit() {
        let block = tiny_block();
        let run = |as_leaf: bool| {
            let mut rng = SmallRng::seed_from_u64(51);
            let mut params = Params::new();
            let w = params.add_xavier("w", 3, 4, &mut rng);
            let b = params.add_bias("b", 4);
            let a_dst = params.add_xavier("a_dst", 4, 2, &mut rng);
            let a_src = params.add_xavier("a_src", 4, 2, &mut rng);
            let mut t = Tape::new();
            let x = if as_leaf {
                t.leaf(randm(4, 3, 52))
            } else {
                t.input(randm(4, 3, 52))
            };
            // GCN-style prologue on the raw input (every op here has only
            // constant operands under `input`) ...
            let agg = t.spmm(Arc::clone(&block), x, None, 1, Agg::Mean);
            let own = t.top_rows(x, block.num_dst);
            let sum = t.add(agg, own);
            let half = t.scale(sum, 0.5);
            let half = t.dropout(half, 0.25, 9);
            // ... a linear layer, whose `dL/dX` is the skippable matmul ...
            let (wi, bi) = (t.param(&params, w), t.param(&params, b));
            let h = t.matmul(half, wi);
            let h = t.bias(h, bi);
            let h = t.relu(h);
            // ... and a two-head GAT layer over a 1-dst/2-src block.
            let blk = Arc::new(BlockCsr {
                num_dst: 1,
                num_src: 2,
                offsets: vec![0, 2],
                indices: vec![0, 1],
                dup_count: vec![1, 1],
            });
            let (adi, asi) = (t.param(&params, a_dst), t.param(&params, a_src));
            let s_all = t.matmul(h, adi);
            let s_dst = t.top_rows(s_all, 1);
            let s_src = t.matmul(h, asi);
            let logits = t.edge_scores(Arc::clone(&blk), s_dst, s_src);
            let logits = t.leaky_relu(logits, 0.2);
            let att = t.edge_softmax(Arc::clone(&blk), logits);
            let out = t.spmm(blk, h, Some(att), 2, Agg::Sum);
            params.zero_grads();
            t.backward(out, randm(1, 4, 53), &mut params);
            let bits: Vec<u32> = [w, b, a_dst, a_src]
                .iter()
                .flat_map(|&p| params.grad(p).data().iter().map(|v| v.to_bits()))
                .collect();
            assert!(
                bits.iter().any(|&v| v != 0),
                "no gradient reached the params"
            );
            let constants_with_grad = [x, agg, own, sum, half]
                .iter()
                .filter(|&&n| t.grad(n).is_some())
                .count();
            (bits, t.grad(NodeId::first()).cloned(), constants_with_grad)
        };
        let (input_bits, input_grad, input_reached) = run(false);
        let (leaf_bits, leaf_grad, leaf_reached) = run(true);
        assert_eq!(input_bits, leaf_bits);
        assert!(
            input_grad.is_none(),
            "a constant input must take no gradient"
        );
        assert_eq!(input_reached, 0, "ops over constants must take no gradient");
        let leaf_grad = leaf_grad.expect("a leaf must keep its gradient");
        assert_eq!((leaf_grad.rows(), leaf_grad.cols()), (4, 3));
        assert!(leaf_grad.data().iter().any(|&v| v != 0.0));
        assert_eq!(leaf_reached, 5);
    }

    /// Dropout's backward is `grad · mask` with the mask the forward drew:
    /// `keep` where the output survived, `0.0` where it was dropped — read
    /// back here from the forward output itself — and `p = 0` passes the
    /// gradient through untouched.
    #[test]
    fn dropout_backward_routes_through_the_drawn_mask() {
        let x = Matrix::from_fn(9, 37, |i, j| 1.0 + (i * 37 + j) as f32);
        let g = randm(9, 37, 71);
        for p in [0.0f32, 0.1, 0.5, 0.9] {
            let mut params = Params::new();
            let mut t = Tape::new();
            let xi = t.leaf(x.clone());
            let out = t.dropout(xi, p, 72);
            t.backward(out, g.clone(), &mut params);
            let keep = 1.0 / (1.0 - p);
            let (y, gx) = (t.value(out), t.grad(xi).expect("leaf gradient"));
            let mut dropped = 0;
            for ((&y, &x), (&g, &gx)) in
                (y.data().iter().zip(x.data())).zip(g.data().iter().zip(gx.data()))
            {
                // `x > 0`, so the output is `+0.0` exactly where it dropped.
                let m = if y.to_bits() == 0 { 0.0 } else { keep };
                dropped += usize::from(m == 0.0);
                assert_eq!(y.to_bits(), (x * m).to_bits());
                let want = if p == 0.0 { g } else { g * m };
                assert_eq!(gx.to_bits(), want.to_bits(), "p {p}");
            }
            let share = dropped as f32 / x.len() as f32;
            assert!((share - p).abs() < 0.08, "p {p}: dropped {share}");
        }
    }

    #[test]
    fn alloc_and_recycle_round_trip_through_reset() {
        let mut tape = Tape::new();
        let m = tape.alloc(4, 4);
        assert_eq!(m.data(), &[0.0; 16]);
        tape.recycle(m);
        // A reset tape hands pooled buffers back out without allocating a
        // larger one for a smaller request.
        tape.reset();
        let m2 = tape.alloc(2, 2);
        assert!(m2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grad_accumulates_across_fanout() {
        // A node used twice receives the sum of both downstream grads.
        let mut params = Params::new();
        let w = params.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut t = Tape::new();
        let wi = t.param(&params, w);
        let sum = t.add(wi, wi);
        params.zero_grads();
        t.backward(sum, Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut params);
        assert_eq!(params.grad(w).data(), &[2.0, 2.0]);
    }
}

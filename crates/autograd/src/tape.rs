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
//!
//! Like PyTorch's saved tensors, a buffer lives only until its last use.
//! `Op::backward_reads` says what each backward reads besides its
//! incoming gradient; `backward` uses it to return every value no recorded
//! backward reads to the [`Workspace`] before the walk starts, and once
//! the walk has passed a node — all of whose readers have higher ids — it
//! returns that node's value, gradient and dropout mask too. The kernels
//! and their order are unchanged; only the live set shrinks, and the walk's
//! own allocations reuse what it released. After `backward`, gradients
//! remain only for [`Tape::input`]/[`Tape::leaf`] nodes and values only
//! for those and the output; reading any other panics.

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
    /// Inverted dropout with probability `p` and its saved keep-mask, one
    /// bit per element.
    Dropout { x: NodeId, p: f32, mask: Vec<u64> },
    /// First `n` rows of `x`, which has `src_rows` rows (targets-first
    /// feature reuse).
    TopRows {
        x: NodeId,
        n: usize,
        src_rows: usize,
    },
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

impl Op {
    /// What this op's backward reads besides its incoming gradient: the
    /// operand values, and whether it reads its own output value. The one
    /// liveness table — shapes a backward needs come from the op itself
    /// or from the gradient, never from a value not listed here.
    fn backward_reads(&self) -> ([Option<NodeId>; 2], bool) {
        match self {
            // `dL/da = g·bᵀ`, `dL/db = aᵀ·g`.
            Op::Matmul(a, b) => ([Some(*a), Some(*b)], false),
            // Masks of the forward input's sign.
            Op::Relu(x) | Op::LeakyRelu(x, _) => ([Some(*x), None], false),
            // `y + alpha` / the softmax Jacobian from the output.
            Op::Elu(..) | Op::EdgeSoftmax { .. } => ([None, None], true),
            // `dL/dh` weighs by the edge weights, `dL/dα` is an SDDMM
            // with `h`; unweighted, the src gradient is the reverse
            // aggregation of `g` alone.
            Op::Spmm {
                src,
                weights: Some(w),
                ..
            } => ([Some(*src), Some(*w)], false),
            Op::Input
            | Op::Param(_)
            | Op::Add(..)
            | Op::Bias(..)
            | Op::Dropout { .. }
            | Op::TopRows { .. }
            | Op::Scale(..)
            | Op::Spmm { weights: None, .. }
            | Op::EdgeScores { .. } => ([None, None], false),
        }
    }
}

struct Node {
    /// `None` once released (or taken by [`Tape::take_value`]).
    value: Option<Matrix>,
    grad: Option<Matrix>,
    op: Op,
    /// Whether `backward` must deliver a gradient to this node (see the
    /// module docs).
    needs_grad: bool,
    /// Whether a backward that will run reads this node's value: set when
    /// a reader that takes a gradient is recorded (a node that takes none
    /// runs no backward).
    read: bool,
    /// The backward walk has passed this node and released its gradient.
    passed: bool,
}

/// An autograd tape (one forward pass at a time). Owns a [`Workspace`]
/// buffer pool: `backward` returns each value, gradient and dropout mask
/// to the pool after its last use (see the module docs) and
/// [`Tape::reset`] returns whatever is left, so a long-lived tape that is
/// reset between batches records subsequent passes without heap
/// allocation.
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

    /// Clear the tape for the next forward pass, recycling every buffer a
    /// node still holds into the workspace pool. The node list keeps its
    /// capacity, so a reset tape records the same op sequence
    /// allocation-free.
    pub fn reset(&mut self) {
        let Tape { nodes, ws } = self;
        for mut node in nodes.drain(..) {
            release(ws, &mut node, false);
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
            | Op::Dropout { x, .. }
            | Op::TopRows { x, .. }
            | Op::Scale(x, _) => self.needs_grad(*x),
            Op::Matmul(a, b) | Op::Add(a, b) | Op::Bias(a, b) => {
                self.needs_grad(*a) || self.needs_grad(*b)
            }
            Op::Spmm { src, weights, .. } => {
                self.needs_grad(*src) || weights.is_some_and(|w| self.needs_grad(w))
            }
            Op::EdgeSoftmax { logits, .. } => self.needs_grad(*logits),
            Op::EdgeScores { dst, src, .. } => self.needs_grad(*dst) || self.needs_grad(*src),
        };
        let (operands, own_output) = op.backward_reads();
        if needs_grad {
            for x in operands.into_iter().flatten() {
                self.nodes[x.0].read = true;
            }
        }
        self.nodes.push(Node {
            value: Some(value),
            grad: None,
            op,
            needs_grad,
            read: needs_grad && own_output,
            passed: false,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Whether `backward` delivers a gradient to this node: false for
    /// [`Tape::input`] constants and everything computed only from them.
    pub fn needs_grad(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Value of a node. Panics once `backward` has released it — every
    /// node's but the inputs' and the output's.
    pub fn value(&self, id: NodeId) -> &Matrix {
        value_of(&self.nodes, id)
    }

    /// Gradient of an input node after `backward` (None if no gradient
    /// reached it — always the case for [`Tape::input`] constants). Panics
    /// for any other node `backward` has passed: its gradient went back to
    /// the pool (a parameter's lives on in [`Params`]).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        let node = &self.nodes[id.0];
        assert!(
            !node.passed,
            "tape node {}: gradient was released after its last use",
            id.0
        );
        node.grad.as_ref()
    }

    /// Move a node's value matrix out of the tape. Lets callers reclaim a
    /// large buffer (e.g. the gathered input features at
    /// [`NodeId::first`]) once the tape is done with it — after
    /// `backward`, before the tape is reset.
    pub fn take_value(&mut self, id: NodeId) -> Matrix {
        self.nodes[id.0]
            .value
            .take()
            .unwrap_or_else(|| panic!("tape node {}: value already released or taken", id.0))
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
        let (av, bv) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
        let mut v = self.ws.matrix_stale(av.rows(), bv.cols());
        ops::matmul_into(av, bv, &mut v);
        self.push(v, Op::Matmul(a, b))
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
        let mut v = self.ws.matrix_stale_like(av);
        ops::add_into(av, bv, &mut v);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast-add a `[1, n]` bias node to every row of `x`.
    pub fn bias(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let (xv, bv) = (value_of(&self.nodes, x), value_of(&self.nodes, b));
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        let mut v = self.ws.matrix_stale_like(xv);
        ops::add_bias(xv, bv.row(0), &mut v);
        self.push(v, Op::Bias(x, b))
    }

    /// ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let mut v = self.ws.matrix_stale_like(xv);
        ops::relu(xv, &mut v);
        self.push(v, Op::Relu(x))
    }

    /// ELU (GAT's activation).
    pub fn elu(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let mut v = self.ws.matrix_stale_like(xv);
        ops::elu(xv, alpha, &mut v);
        self.push(v, Op::Elu(x, alpha))
    }

    /// LeakyReLU (GAT attention logits).
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let mut v = self.ws.matrix_stale_like(xv);
        ops::leaky_relu(xv, slope, &mut v);
        self.push(v, Op::LeakyRelu(x, slope))
    }

    /// Inverted dropout (training mode; pass `p = 0` to disable).
    pub fn dropout(&mut self, x: NodeId, p: f32, seed: u64) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let mut v = self.ws.matrix_stale_like(xv);
        let words = xv.rows() * ops::dropout_mask_words(xv.cols());
        let mut mask = self.ws.take_u64(if p == 0.0 { 0 } else { words });
        ops::dropout_into(xv, p, seed, &mut v, &mut mask);
        self.push(v, Op::Dropout { x, p, mask })
    }

    /// First `n` rows of `x`.
    pub fn top_rows(&mut self, x: NodeId, n: usize) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let (src_rows, cols) = (xv.rows(), xv.cols());
        let mut buf = self.ws.take_f32(n * cols);
        buf.extend_from_slice(&xv.data()[..n * cols]);
        let v = Matrix::from_vec(n, cols, buf);
        self.push(v, Op::TopRows { x, n, src_rows })
    }

    /// `x · s`.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let xv = value_of(&self.nodes, x);
        let mut v = self.ws.matrix_stale_like(xv);
        ops::scale(xv, s, &mut v);
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
        let sv = value_of(&self.nodes, src);
        let w = weights.map(|w| value_of(&self.nodes, w));
        let mut v = self.ws.matrix_with_capacity(block.num_dst * sv.cols());
        sparse::spmm_into(&block, sv, w, heads, agg, &mut v);
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

    /// Per-dst, per-head edge softmax over `block`.
    pub fn edge_softmax(&mut self, block: Arc<BlockCsr>, logits: NodeId) -> NodeId {
        let lv = value_of(&self.nodes, logits);
        // One row per edge, one column per head, like every per-edge
        // GAT intermediate.
        let mut v = self.ws.matrix_with_capacity(block.num_edges() * lv.cols());
        sparse::edge_softmax_into(&block, lv, &mut v);
        self.push(v, Op::EdgeSoftmax { logits, block })
    }

    /// GAT attention logits: `out[e, h] = dst_scores[d(e), h] +
    /// src_scores[s(e), h]` over the block's edges.
    pub fn edge_scores(&mut self, block: Arc<BlockCsr>, dst: NodeId, src: NodeId) -> NodeId {
        let (d, s) = (value_of(&self.nodes, dst), value_of(&self.nodes, src));
        let mut v = self.ws.matrix_with_capacity(block.num_edges() * d.cols());
        sparse::edge_scores_into(&block, d, s, &mut v);
        self.push(v, Op::EdgeScores { dst, src, block })
    }

    /// Backward pass: seed `seed_grad` at `output` and accumulate
    /// parameter gradients into `params`, returning every buffer to the
    /// pool after its last use (see the module docs).
    pub fn backward(&mut self, output: NodeId, seed_grad: Matrix, params: &mut Params) {
        let out = value_of(&self.nodes, output);
        assert_eq!(
            (out.rows(), out.cols()),
            (seed_grad.rows(), seed_grad.cols()),
            "seed gradient shape mismatch"
        );
        self.nodes[output.0].grad = Some(seed_grad);
        self.release_unread(output);
        for i in (0..=output.0).rev() {
            // Only `output` itself can hold a gradient it has no use for.
            if self.nodes[i].needs_grad {
                if let Some(grad) = self.nodes[i].grad.take() {
                    self.propagate(i, &grad, params);
                    self.nodes[i].grad = Some(grad);
                }
            }
            // Every reader of node `i` has a higher id and has run; an
            // input keeps its value and (a leaf's) gradient for the caller.
            let node = &mut self.nodes[i];
            if !matches!(node.op, Op::Input) {
                release(&mut self.ws, node, i == output.0);
                node.passed = true;
            }
        }
    }

    /// Return to the pool every value below `output` that no backward
    /// which will run reads — inputs excepted.
    fn release_unread(&mut self, output: NodeId) {
        for node in &mut self.nodes[..output.0] {
            if !node.read && !matches!(node.op, Op::Input) {
                if let Some(v) = node.value.take() {
                    self.ws.recycle_matrix(v);
                }
            }
        }
    }

    /// Add contribution `g` to a node's gradient — or hand it back to the
    /// pool when the node takes none (kernels that produce both operands'
    /// gradients at once; single-operand kernels are skipped instead).
    fn accumulate(&mut self, id: NodeId, g: Matrix) {
        if !self.needs_grad(id) {
            self.ws.recycle_matrix(g);
            return;
        }
        let slot = &mut self.nodes[id.0].grad;
        match slot {
            None => *slot = Some(g),
            Some(acc) => {
                assert_eq!(
                    (acc.rows(), acc.cols()),
                    (g.rows(), g.cols()),
                    "tape node {}: gradient contribution shape mismatch",
                    id.0
                );
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
        let own = NodeId(i);
        match op {
            Op::Input => {}
            Op::Param(pid) => params.accumulate_grad(*pid, grad),
            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs_grad(a) {
                    let mut ga = self
                        .ws
                        .matrix_stale(grad.rows(), value_of(&self.nodes, b).rows());
                    ops::matmul_nt_into(
                        grad,
                        value_of(&self.nodes, b),
                        &mut ga,
                        &mut self.ws.nt_scratch,
                    );
                    self.accumulate(a, ga);
                }
                if self.needs_grad(b) {
                    let mut gb = self
                        .ws
                        .matrix_stale(value_of(&self.nodes, a).cols(), grad.cols());
                    ops::matmul_tn_into(
                        value_of(&self.nodes, a),
                        grad,
                        &mut gb,
                        &mut self.ws.tn_scratch,
                    );
                    self.accumulate(b, gb);
                }
            }
            Op::Add(a, b) => {
                for operand in [*a, *b] {
                    if self.needs_grad(operand) {
                        let g = self.ws.matrix_from(grad);
                        self.accumulate(operand, g);
                    }
                }
            }
            Op::Bias(x, b) => {
                let (x, b) = (*x, *b);
                if self.needs_grad(x) {
                    let gx = self.ws.matrix_from(grad);
                    self.accumulate(x, gx);
                }
                if self.needs_grad(b) {
                    let mut gb = self.ws.matrix_zeros(1, grad.cols());
                    ops::sum_rows_into(grad, gb.data_mut());
                    self.accumulate(b, gb);
                }
            }
            Op::Relu(x) => {
                let x = *x;
                let mut g = self.ws.matrix_stale_like(grad);
                ops::relu_backward(grad, value_of(&self.nodes, x), &mut g);
                self.accumulate(x, g);
            }
            Op::Elu(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                let mut g = self.ws.matrix_stale_like(grad);
                ops::elu_backward(grad, value_of(&self.nodes, own), alpha, &mut g);
                self.accumulate(x, g);
            }
            Op::LeakyRelu(x, slope) => {
                let (x, slope) = (*x, *slope);
                let mut g = self.ws.matrix_stale_like(grad);
                ops::leaky_relu_backward(grad, value_of(&self.nodes, x), slope, &mut g);
                self.accumulate(x, g);
            }
            Op::Dropout { x, p, mask } => {
                let x = *x;
                let mut g = self.ws.matrix_stale_like(grad);
                ops::dropout_backward(grad, mask, *p, &mut g);
                self.accumulate(x, g);
            }
            Op::TopRows { x, n, src_rows } => {
                let (x, n, cols) = (*x, *n, grad.cols());
                let mut g = self.ws.matrix_zeros(*src_rows, cols);
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
                if self.needs_grad(src) {
                    let mut gsrc = self.ws.matrix_with_capacity(block.num_src * grad.cols());
                    let w = weights.map(|w| value_of(&self.nodes, w));
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
                if let Some(w) = weights.filter(|&w| self.needs_grad(w)) {
                    // dL/dw = g-SDDMM(grad_dst, src) with the forward scale.
                    let mut gw = self.ws.matrix_with_capacity(block.num_edges() * heads);
                    let h = value_of(&self.nodes, src);
                    sparse::sddmm_into(&block, grad, h, heads, agg, &mut gw);
                    self.accumulate(w, gw);
                }
            }
            Op::EdgeSoftmax { logits, block } => {
                let logits = *logits;
                let mut g = self
                    .ws
                    .matrix_with_capacity(block.num_edges() * grad.cols());
                sparse::edge_softmax_backward_into(block, value_of(&self.nodes, own), grad, &mut g);
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

/// `id`'s value; panics naming the node once it has been released.
fn value_of(nodes: &[Node], id: NodeId) -> &Matrix {
    nodes[id.0].value.as_ref().unwrap_or_else(|| {
        panic!(
            "tape node {}: value was released after its last use (or taken)",
            id.0
        )
    })
}

/// Return a node's buffers to the pool: its gradient, its dropout mask
/// and, unless `keep_value`, its value.
fn release(ws: &mut Workspace, node: &mut Node, keep_value: bool) {
    if !keep_value {
        if let Some(v) = node.value.take() {
            ws.recycle_matrix(v);
        }
    }
    if let Some(g) = node.grad.take() {
        ws.recycle_matrix(g);
    }
    if let Op::Dropout { mask, .. } = &mut node.op {
        ws.recycle_u64(std::mem::take(mask));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use wg_tensor::ops::softmax_cross_entropy;

    thread_local! {
        /// Heap allocations made by this thread (tests run one per thread).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    // SAFETY: defers every operation to `System`; the counter is a
    // const-initialised thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|a| a.set(a.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|a| a.set(a.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

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
    /// (and nothing computed from constants alone) takes a gradient.
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
                .filter(|&&n| t.needs_grad(n))
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
    /// gradient through untouched — at row widths below, at and across
    /// the bit mask's 64-bit word.
    #[test]
    fn dropout_backward_routes_through_the_drawn_mask() {
        for (rows, cols) in [(9, 37), (9, 64), (9, 130)] {
            check_dropout_through_the_tape(rows, cols);
        }
    }

    fn check_dropout_through_the_tape(rows: usize, cols: usize) {
        let x = Matrix::from_fn(rows, cols, |i, j| 1.0 + (i * cols + j) as f32);
        let g = randm(rows, cols, 71);
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
                assert_eq!(gx.to_bits(), want.to_bits(), "{rows}x{cols} p {p}");
            }
            let share = dropped as f32 / x.len() as f32;
            assert!(
                (share - p).abs() < 0.08,
                "{rows}x{cols} p {p}: dropped {share}"
            );
        }
    }

    /// A GCN-like layer with dropout over a gradient-taking `[4, 3]` leaf
    /// and [`tiny_block`]; returns `[leaf, a released intermediate,
    /// output]`.
    fn record_pass(
        t: &mut Tape,
        params: &Params,
        (w, b): (ParamId, ParamId),
        (block, input): (&Arc<BlockCsr>, Matrix),
    ) -> [NodeId; 3] {
        let x = t.leaf(input);
        let agg = t.spmm(Arc::clone(block), x, None, 1, Agg::Mean);
        let own = t.top_rows(x, 2);
        let sum = t.add(agg, own);
        let h = t.dropout(sum, 0.5, 82);
        let (wi, bi) = (t.param(params, w), t.param(params, b));
        let h = t.matmul(h, wi);
        let out = t.bias(h, bi);
        [x, sum, out]
    }

    fn two_param_model() -> (Params, ParamId, ParamId) {
        let mut rng = SmallRng::seed_from_u64(80);
        let mut params = Params::new();
        let w = params.add_xavier("w", 3, 5, &mut rng);
        let b = params.add_bias("b", 5);
        (params, w, b)
    }

    #[test]
    fn leaf_gradients_and_the_output_value_survive_backward() {
        let (mut params, w, b) = two_param_model();
        let mut t = Tape::new();
        let [x, _, out] = record_pass(&mut t, &params, (w, b), (&tiny_block(), randm(4, 3, 81)));
        let want_out = t.value(out).clone();
        t.backward(out, randm(2, 5, 83), &mut params);
        assert_eq!(t.value(out).data(), want_out.data());
        let gx = t.grad(x).expect("a leaf keeps its gradient");
        assert_eq!((gx.rows(), gx.cols()), (4, 3));
        assert_eq!(t.value(x).rows(), 4, "inputs keep their values");
        assert!(params.grad(w).data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "tape node 3: value was released")]
    fn reading_a_released_value_panics() {
        let (mut params, w, b) = two_param_model();
        let mut t = Tape::new();
        let [_, sum, out] = record_pass(&mut t, &params, (w, b), (&tiny_block(), randm(4, 3, 81)));
        assert_eq!(sum, NodeId(3));
        t.backward(out, randm(2, 5, 83), &mut params);
        t.value(sum);
    }

    #[test]
    #[should_panic(expected = "tape node 3: gradient was released")]
    fn reading_a_released_gradient_panics() {
        let (mut params, w, b) = two_param_model();
        let mut t = Tape::new();
        let [_, sum, out] = record_pass(&mut t, &params, (w, b), (&tiny_block(), randm(4, 3, 81)));
        t.backward(out, randm(2, 5, 83), &mut params);
        t.grad(sum);
    }

    /// Buffers released mid-walk return to the pool, so once a pass has
    /// warmed it a reset tape records, differentiates and resets the same
    /// pass without asking the allocator for anything.
    #[test]
    fn a_reset_tape_replays_the_same_pass_without_allocating() {
        let (mut params, w, b) = two_param_model();
        let seed = randm(2, 5, 83);
        let mut t = Tape::new();
        let (block, mut input) = (tiny_block(), randm(4, 3, 81));
        let pass = |t: &mut Tape, params: &mut Params, input: Matrix| {
            t.reset();
            let [x, _, out] = record_pass(t, params, (w, b), (&block, input));
            let mut g = t.alloc(2, 5);
            g.data_mut().copy_from_slice(seed.data());
            t.backward(out, g, params);
            // The input comes back out, as the pipeline reclaims it.
            t.take_value(x)
        };
        for _ in 0..2 {
            input = pass(&mut t, &mut params, input);
        }
        let before = ALLOCS.with(Cell::get);
        let input = pass(&mut t, &mut params, input);
        assert_eq!(ALLOCS.with(Cell::get) - before, 0, "warm pass allocated");
        assert_eq!((input.rows(), input.cols()), (4, 3));
    }

    #[test]
    #[should_panic(expected = "tape node 0: gradient contribution shape mismatch")]
    fn a_misshapen_gradient_contribution_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 3));
        t.accumulate(x, Matrix::zeros(2, 3));
        t.accumulate(x, Matrix::zeros(3, 2));
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

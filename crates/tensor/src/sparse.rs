//! g-SpMM / g-SDDMM sparse kernels (§III-C4).
//!
//! "For message passing, it is a g-SpMM pattern as the message passes from
//! edges to the target node and aggregates in the target node. ...
//! Backward edge weights can be done by a g-SDDMM also on the CSR matrix.
//! Backward dense feature input should be g-SpMM on the transposed CSR
//! matrix, this can be done by computing on the original CSR matrix and
//! using atomic add operations to avoid the sparse matrix transpose."
//!
//! The paper's atomic scatter commits float adds in race order, so its
//! results vary run to run. [`spmm_backward_src_into`] instead gathers
//! over a transposed CSR (built with a stable counting sort), accumulating
//! each source row's
//! contributions in ascending edge order — bit-identical at any thread
//! count.
//!
//! Every kernel comes in the three forms of [`crate::ops`]: a
//! `*_reference` oracle (the plain loop), a pooled `*_into` kernel whose
//! inner loops dispatch through [`crate::simd`], and an `*_into_with`
//! twin pinned to an explicit [`Level`].

#![allow(clippy::needless_range_loop)] // kernel-style indexed loops mirror the CUDA code

use rayon::prelude::*;

use crate::matrix::Matrix;
use crate::simd::{self, Level};

/// Aggregation applied over each destination's incoming messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Plain sum.
    Sum,
    /// Mean over the destination's sampled in-edges (GraphSage's mean
    /// aggregator; also our sampled-GCN normalization).
    Mean,
}

/// A sampled bipartite sub-graph in CSR form: `num_dst` destination rows,
/// columns indexing a `num_src`-node source space (whose first `num_dst`
/// entries are the destinations themselves — AppendUnique's targets-first
/// layout).
#[derive(Clone, Debug)]
pub struct BlockCsr {
    /// Destination node count.
    pub num_dst: usize,
    /// Source node count.
    pub num_src: usize,
    /// CSR offsets (`num_dst + 1`).
    pub offsets: Vec<u32>,
    /// Column indices (`offsets[num_dst]` entries, each `< num_src`).
    pub indices: Vec<u32>,
    /// AppendUnique duplicate counts per source node (how many times each
    /// was sampled).
    pub dup_count: Vec<u32>,
}

impl BlockCsr {
    /// Sampled edge count.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// In-degree of a destination.
    #[inline]
    pub fn degree(&self, dst: usize) -> usize {
        (self.offsets[dst + 1] - self.offsets[dst]) as usize
    }

    /// Edge range `[lo, hi)` of a destination.
    #[inline]
    fn edges(&self, dst: usize) -> (usize, usize) {
        (self.offsets[dst] as usize, self.offsets[dst + 1] as usize)
    }

    /// Validate structural invariants (debug aid; O(E)).
    pub fn validate(&self) {
        assert_eq!(self.offsets.len(), self.num_dst + 1);
        assert_eq!(self.offsets[0], 0);
        assert_eq!(*self.offsets.last().unwrap() as usize, self.indices.len());
        assert!(self.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(self.indices.iter().all(|&c| (c as usize) < self.num_src));
        assert_eq!(self.dup_count.len(), self.num_src);
        assert!(
            self.num_dst <= self.num_src,
            "targets must be a prefix of the source space"
        );
    }
}

/// Per-message scale applied during aggregation.
#[inline]
fn agg_scale(agg: Agg, degree: usize) -> f32 {
    match agg {
        Agg::Sum => 1.0,
        Agg::Mean => {
            if degree == 0 {
                0.0
            } else {
                1.0 / degree as f32
            }
        }
    }
}

/// Shape checks shared by the g-SpMM forms; returns `head_dim`.
fn spmm_head_dim(
    block: &BlockCsr,
    channels: usize,
    edge_weights: Option<&Matrix>,
    heads: usize,
) -> usize {
    assert!(
        heads >= 1 && channels.is_multiple_of(heads),
        "heads must divide channels"
    );
    if let Some(w) = edge_weights {
        assert_eq!(w.rows(), block.num_edges());
        assert_eq!(w.cols(), heads);
    }
    channels / heads
}

/// g-SpMM forward — the original unblocked loop, kept as the bit-exactness
/// oracle for [`spmm_into`].
///
/// `src`: `[num_src, H·D]` source features. `edge_weights`: optional
/// `[E, H]` per-edge per-head weights (`heads` must divide `src.cols()`);
/// `None` means weight 1 on a single head spanning all channels.
pub fn spmm_reference(
    block: &BlockCsr,
    src: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
) -> Matrix {
    assert_eq!(src.rows(), block.num_src, "src feature rows != num_src");
    let channels = src.cols();
    let head_dim = spmm_head_dim(block, channels, edge_weights, heads);
    let mut out = Matrix::zeros(block.num_dst, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(d, orow)| {
            let (lo, hi) = block.edges(d);
            let scale = agg_scale(agg, hi - lo);
            for e in lo..hi {
                let s = block.indices[e] as usize;
                let srow = src.row(s);
                match edge_weights {
                    None => {
                        for (o, &x) in orow.iter_mut().zip(srow) {
                            *o += scale * x;
                        }
                    }
                    Some(w) => {
                        let wrow = w.row(e);
                        for h in 0..heads {
                            let wh = scale * wrow[h];
                            let base = h * head_dim;
                            for j in 0..head_dim {
                                orow[base + j] += wh * srow[base + j];
                            }
                        }
                    }
                }
            }
        });
    out
}

/// Channel-tile width of the blocked spmm kernels: per-tile accumulators
/// live in registers across a row's whole edge list, so the output row is
/// stored once per tile instead of read-modify-written per edge.
const SPMM_CB: usize = 32;

/// g-SpMM forward into a caller-provided output (re-shaped in place,
/// capacity reused). Register-tiled: every output element accumulates its
/// edges in ascending edge order with the same `agg` scaling (and per-edge
/// head weight), so results are bit-identical to [`spmm_reference`] at any
/// thread count.
pub fn spmm_into(
    block: &BlockCsr,
    src: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
) {
    spmm_into_with(simd::level(), block, src, edge_weights, heads, agg, out);
}

/// [`spmm_into`] at an explicit SIMD [`Level`].
#[allow(clippy::too_many_arguments)]
pub fn spmm_into_with(
    level: Level,
    block: &BlockCsr,
    src: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
) {
    assert_eq!(src.rows(), block.num_src, "src feature rows != num_src");
    let channels = src.cols();
    let head_dim = spmm_head_dim(block, channels, edge_weights, heads);
    out.reset_shape(block.num_dst, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(d, orow)| {
            let (lo, hi) = block.edges(d);
            if lo == hi {
                return; // isolated dst: the zero row `reset_shape` left
            }
            let scale = agg_scale(agg, hi - lo);
            let edges = &block.indices[lo..hi];
            let x = src.data();
            // The unweighted loop is spelled out with a literal `None`
            // rather than shared with the per-head loop below: routing it
            // through a closure or a runtime `Option` measured 5-15%
            // slower at 16 channels (GCN/GraphSAGE's path).
            let Some(w) = edge_weights else {
                let mut j0 = 0;
                while j0 < channels {
                    let cb = SPMM_CB.min(channels - j0);
                    let mut acc = [0.0f32; SPMM_CB];
                    let tile = &mut acc[..cb];
                    simd::spmm_gather_rowtile(level, edges, None, x, channels, j0, scale, tile);
                    orow[j0..j0 + cb].copy_from_slice(tile);
                    j0 += cb;
                }
                return;
            };
            // A head's weight is a per-edge scalar on its `head_dim`
            // columns, so the same register tiles apply head by head.
            for h in 0..heads {
                let wh = Some((&w.data()[lo * heads + h..], heads));
                let mut j0 = h * head_dim;
                while j0 < (h + 1) * head_dim {
                    let cb = SPMM_CB.min((h + 1) * head_dim - j0);
                    let mut acc = [0.0f32; SPMM_CB];
                    let tile = &mut acc[..cb];
                    simd::spmm_gather_rowtile(level, edges, wh, x, channels, j0, scale, tile);
                    orow[j0..j0 + cb].copy_from_slice(tile);
                    j0 += cb;
                }
            }
        });
}

/// Allocating wrapper over [`spmm_into`].
pub fn spmm(
    block: &BlockCsr,
    src: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
) -> Matrix {
    let mut out = Matrix::empty();
    spmm_into(block, src, edge_weights, heads, agg, &mut out);
    out
}

/// The transposed adjacency of a [`BlockCsr`]: for every source node, its
/// incoming edges (and their destinations) in **ascending edge order** —
/// the deterministic gather order for the backward kernels. The buffers
/// are pooled: `ReverseScratch` is rebuilt in place every backward call,
/// so a warm scratch performs zero heap allocations.
#[derive(Default)]
pub struct ReverseScratch {
    offsets: Vec<u32>,
    edges: Vec<u32>,
    dsts: Vec<u32>,
    next: Vec<u32>,
}

/// Build the transpose with a stable counting sort over the edge list.
/// O(E) and sequential: the fill is a trivial fraction of the channel-wide
/// accumulation that follows, and stability is what buys determinism.
fn reverse_csr_into(block: &BlockCsr, rev: &mut ReverseScratch) {
    rev.offsets.clear();
    rev.offsets.resize(block.num_src + 1, 0);
    for &c in &block.indices {
        rev.offsets[c as usize + 1] += 1;
    }
    for s in 0..block.num_src {
        rev.offsets[s + 1] += rev.offsets[s];
    }
    rev.edges.clear();
    rev.edges.resize(block.indices.len(), 0);
    rev.dsts.clear();
    rev.dsts.resize(block.indices.len(), 0);
    rev.next.clear();
    rev.next.extend_from_slice(&rev.offsets[..block.num_src]);
    for d in 0..block.num_dst {
        for e in block.offsets[d] as usize..block.offsets[d + 1] as usize {
            let s = block.indices[e] as usize;
            let pos = rev.next[s] as usize;
            rev.next[s] += 1;
            rev.edges[pos] = e as u32;
            rev.dsts[pos] = d as u32;
        }
    }
}

/// g-SpMM backward w.r.t. source features — the original unblocked
/// transpose-gather, kept as the oracle for [`spmm_backward_src_into`].
pub fn spmm_backward_src_reference(
    block: &BlockCsr,
    grad_dst: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
) -> Matrix {
    assert_eq!(grad_dst.rows(), block.num_dst);
    let channels = grad_dst.cols();
    let head_dim = spmm_head_dim(block, channels, edge_weights, heads);
    let mut rev = ReverseScratch::default();
    reverse_csr_into(block, &mut rev);
    let mut out = Matrix::zeros(block.num_src, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(s, orow)| {
            for i in rev.offsets[s] as usize..rev.offsets[s + 1] as usize {
                let e = rev.edges[i] as usize;
                let d = rev.dsts[i] as usize;
                let scale = agg_scale(agg, block.degree(d));
                let grow = grad_dst.row(d);
                match edge_weights {
                    None => {
                        for (o, &g) in orow.iter_mut().zip(grow) {
                            *o += scale * g;
                        }
                    }
                    Some(w) => {
                        let wrow = w.row(e);
                        for h in 0..heads {
                            let wh = scale * wrow[h];
                            let base = h * head_dim;
                            for j in 0..head_dim {
                                orow[base + j] += wh * grow[base + j];
                            }
                        }
                    }
                }
            }
        });
    out
}

/// g-SpMM backward w.r.t. source features — deterministic variant: a
/// gather over the transposed CSR, parallel across source rows, each row
/// accumulating its incoming gradients in ascending edge order. Results
/// are bit-identical at any thread count (the autograd tape uses this).
/// Register-tiled like [`spmm_into`]; writes into a caller-provided
/// output and rebuilds the transpose in pooled scratch, so warm calls
/// allocate nothing.
pub fn spmm_backward_src_into(
    block: &BlockCsr,
    grad_dst: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
    rev: &mut ReverseScratch,
) {
    spmm_backward_src_into_with(
        simd::level(),
        block,
        grad_dst,
        edge_weights,
        heads,
        agg,
        out,
        rev,
    );
}

/// [`spmm_backward_src_into`] at an explicit SIMD [`Level`].
#[allow(clippy::too_many_arguments)]
pub fn spmm_backward_src_into_with(
    level: Level,
    block: &BlockCsr,
    grad_dst: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
    rev: &mut ReverseScratch,
) {
    assert_eq!(grad_dst.rows(), block.num_dst);
    let channels = grad_dst.cols();
    let head_dim = spmm_head_dim(block, channels, edge_weights, heads);
    reverse_csr_into(block, rev);
    let rev = &*rev;
    let mean = agg == Agg::Mean;
    out.reset_shape(block.num_src, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(s, orow)| {
            let (lo, hi) = (rev.offsets[s] as usize, rev.offsets[s + 1] as usize);
            if lo == hi {
                return; // never sampled as a source: zero gradient
            }
            let dsts = &rev.dsts[lo..hi];
            let (offs, g) = (&block.offsets[..], grad_dst.data());
            let Some(w) = edge_weights else {
                let mut j0 = 0;
                while j0 < channels {
                    let cb = SPMM_CB.min(channels - j0);
                    let mut acc = [0.0f32; SPMM_CB];
                    let tile = &mut acc[..cb];
                    simd::spmm_scatter_rowtile(
                        level, dsts, None, offs, mean, g, channels, j0, tile,
                    );
                    orow[j0..j0 + cb].copy_from_slice(tile);
                    j0 += cb;
                }
                return;
            };
            for h in 0..heads {
                let wh = Some((&w.data()[h..], &rev.edges[lo..hi], heads));
                let mut j0 = h * head_dim;
                while j0 < (h + 1) * head_dim {
                    let cb = SPMM_CB.min((h + 1) * head_dim - j0);
                    let mut acc = [0.0f32; SPMM_CB];
                    let tile = &mut acc[..cb];
                    simd::spmm_scatter_rowtile(level, dsts, wh, offs, mean, g, channels, j0, tile);
                    orow[j0..j0 + cb].copy_from_slice(tile);
                    j0 += cb;
                }
            }
        });
}

/// Allocating wrapper over [`spmm_backward_src_into`].
pub fn spmm_backward_src(
    block: &BlockCsr,
    grad_dst: &Matrix,
    edge_weights: Option<&Matrix>,
    heads: usize,
    agg: Agg,
) -> Matrix {
    let mut out = Matrix::empty();
    let mut rev = ReverseScratch::default();
    spmm_backward_src_into(
        block,
        grad_dst,
        edge_weights,
        heads,
        agg,
        &mut out,
        &mut rev,
    );
    out
}

/// Re-shape the `[E, heads]` edge matrix `out` and hand every destination
/// its own rows: `f(d, lo, rows)` runs in parallel over destinations with
/// `rows = out[lo*heads..hi*heads]`, the destination's edge range.
fn for_each_dst_edges(
    block: &BlockCsr,
    heads: usize,
    out: &mut Matrix,
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let num_edges = block.num_edges();
    assert_eq!(block.offsets.len(), block.num_dst + 1);
    assert!(
        block.offsets.windows(2).all(|w| w[0] <= w[1])
            && block.offsets[block.num_dst] as usize == num_edges,
        "offsets must ascend to the edge count"
    );
    out.reset_shape(num_edges, heads);
    let out_ptr = out.data_mut().as_mut_ptr() as usize;
    (0..block.num_dst).into_par_iter().for_each(|d| {
        let (lo, hi) = block.edges(d);
        // SAFETY: the offsets ascend to `num_edges` (asserted above), so
        // the destinations' edge ranges are disjoint sub-ranges of the
        // `num_edges * heads` floats `out` holds: each task writes a
        // private slice.
        let rows = unsafe {
            std::slice::from_raw_parts_mut((out_ptr as *mut f32).add(lo * heads), (hi - lo) * heads)
        };
        f(d, lo, rows);
    });
}

/// Shape checks shared by the g-SDDMM forms; returns `head_dim`.
fn sddmm_head_dim(block: &BlockCsr, a_dst: &Matrix, b_src: &Matrix, heads: usize) -> usize {
    assert_eq!(a_dst.rows(), block.num_dst);
    assert_eq!(b_src.rows(), block.num_src);
    assert_eq!(a_dst.cols(), b_src.cols());
    assert!(heads >= 1 && a_dst.cols().is_multiple_of(heads));
    a_dst.cols() / heads
}

/// g-SDDMM — the original per-edge loop (one dependent scalar add per
/// multiply), kept as the bit-exactness oracle for [`sddmm_into`].
pub fn sddmm_reference(
    block: &BlockCsr,
    a_dst: &Matrix,
    b_src: &Matrix,
    heads: usize,
    agg: Agg,
) -> Matrix {
    let head_dim = sddmm_head_dim(block, a_dst, b_src, heads);
    let mut out = Matrix::zeros(block.num_edges(), heads);
    for d in 0..block.num_dst {
        let (lo, hi) = block.edges(d);
        let scale = agg_scale(agg, hi - lo);
        let arow = a_dst.row(d);
        for e in lo..hi {
            let brow = b_src.row(block.indices[e] as usize);
            for h in 0..heads {
                let base = h * head_dim;
                let mut acc = 0.0f32;
                for j in 0..head_dim {
                    acc += arow[base + j] * brow[base + j];
                }
                out.set(e, h, scale * acc);
            }
        }
    }
    out
}

/// g-SDDMM into a caller-provided `[E, heads]` output: per-edge, per-head
/// dot products `out[e,h] = scale_d · <a_dst[d], b_src[s]>_h` for each edge
/// `d←s`. This is both the GAT attention-logit kernel and the backward of
/// weighted g-SpMM w.r.t. the edge weights (`a = grad_dst, b = src`, with
/// the forward's aggregation scale). Parallel over destinations, whose
/// edges share `a_dst[d]`; each dot product is summed in ascending channel
/// order — bit-identical to [`sddmm_reference`].
pub fn sddmm_into(
    block: &BlockCsr,
    a_dst: &Matrix,
    b_src: &Matrix,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
) {
    sddmm_into_with(simd::level(), block, a_dst, b_src, heads, agg, out);
}

/// [`sddmm_into`] at an explicit SIMD [`Level`].
#[allow(clippy::too_many_arguments)]
pub fn sddmm_into_with(
    level: Level,
    block: &BlockCsr,
    a_dst: &Matrix,
    b_src: &Matrix,
    heads: usize,
    agg: Agg,
    out: &mut Matrix,
) {
    sddmm_head_dim(block, a_dst, b_src, heads);
    let (b, ldb) = (b_src.data(), b_src.cols());
    for_each_dst_edges(block, heads, out, |d, lo, rows| {
        let srcs = &block.indices[lo..lo + rows.len() / heads];
        let scale = agg_scale(agg, srcs.len());
        simd::sddmm_dst(level, a_dst.row(d), b, ldb, srcs, heads, scale, rows);
    });
}

/// Allocating wrapper over [`sddmm_into`].
pub fn sddmm(block: &BlockCsr, a_dst: &Matrix, b_src: &Matrix, heads: usize, agg: Agg) -> Matrix {
    let mut out = Matrix::empty();
    sddmm_into(block, a_dst, b_src, heads, agg, &mut out);
    out
}

/// Edge softmax — the original clone-then-normalize-in-place loop, kept
/// as the oracle for [`edge_softmax_into`].
pub fn edge_softmax_reference(block: &BlockCsr, logits: &Matrix) -> Matrix {
    assert_eq!(logits.rows(), block.num_edges());
    let heads = logits.cols();
    let mut out = logits.clone();
    for d in 0..block.num_dst {
        let (lo, hi) = block.edges(d);
        let rows = &mut out.data_mut()[lo * heads..hi * heads];
        for h in 0..heads {
            let mut max = f32::NEG_INFINITY;
            for e in 0..hi - lo {
                max = max.max(rows[e * heads + h]);
            }
            let mut denom = 0.0f32;
            for e in 0..hi - lo {
                let v = (rows[e * heads + h] - max).exp();
                rows[e * heads + h] = v;
                denom += v;
            }
            for e in 0..hi - lo {
                rows[e * heads + h] /= denom;
            }
        }
    }
    out
}

/// Softmax over each destination's incoming edges, per head (GAT's
/// attention normalization), `[E, H]` in and out, written into a
/// caller-provided output one destination at a time. Bit-identical to
/// [`edge_softmax_reference`] for finite logits.
pub fn edge_softmax_into(block: &BlockCsr, logits: &Matrix, out: &mut Matrix) {
    edge_softmax_into_with(simd::level(), block, logits, out);
}

/// [`edge_softmax_into`] at an explicit SIMD [`Level`].
pub fn edge_softmax_into_with(level: Level, block: &BlockCsr, logits: &Matrix, out: &mut Matrix) {
    assert_eq!(logits.rows(), block.num_edges());
    let heads = logits.cols();
    for_each_dst_edges(block, heads, out, |_, lo, rows| {
        let src = &logits.data()[lo * heads..lo * heads + rows.len()];
        simd::edge_softmax_dst(level, src, heads, rows);
    });
}

/// Allocating wrapper over [`edge_softmax_into`].
pub fn edge_softmax(block: &BlockCsr, logits: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    edge_softmax_into(block, logits, &mut out);
    out
}

/// Edge-softmax backward — the original bounds-checked loop, kept as the
/// oracle for [`edge_softmax_backward_into`].
pub fn edge_softmax_backward_reference(block: &BlockCsr, soft: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(soft.rows(), block.num_edges());
    assert_eq!(grad.rows(), block.num_edges());
    let heads = soft.cols();
    let mut out = Matrix::zeros(block.num_edges(), heads);
    for d in 0..block.num_dst {
        let (lo, hi) = block.edges(d);
        for h in 0..heads {
            let mut dot = 0.0f32;
            for e in lo..hi {
                dot += soft.get(e, h) * grad.get(e, h);
            }
            for e in lo..hi {
                out.set(e, h, soft.get(e, h) * (grad.get(e, h) - dot));
            }
        }
    }
    out
}

/// Backward of [`edge_softmax`] into a caller-provided output: given the
/// forward output `soft` and upstream gradient `grad`, the gradient
/// w.r.t. the logits `g_e = soft_e · (grad_e − Σ_f soft_f · grad_f)` per
/// destination, per head.
pub fn edge_softmax_backward_into(
    block: &BlockCsr,
    soft: &Matrix,
    grad: &Matrix,
    out: &mut Matrix,
) {
    edge_softmax_backward_into_with(simd::level(), block, soft, grad, out);
}

/// [`edge_softmax_backward_into`] at an explicit SIMD [`Level`].
pub fn edge_softmax_backward_into_with(
    level: Level,
    block: &BlockCsr,
    soft: &Matrix,
    grad: &Matrix,
    out: &mut Matrix,
) {
    assert_eq!(soft.rows(), block.num_edges());
    assert_eq!((grad.rows(), grad.cols()), (soft.rows(), soft.cols()));
    let heads = soft.cols();
    for_each_dst_edges(block, heads, out, |_, lo, rows| {
        let span = lo * heads..lo * heads + rows.len();
        let (s, g) = (&soft.data()[span.clone()], &grad.data()[span]);
        simd::edge_softmax_backward_dst(level, s, g, heads, rows);
    });
}

/// Allocating wrapper over [`edge_softmax_backward_into`].
pub fn edge_softmax_backward(block: &BlockCsr, soft: &Matrix, grad: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    edge_softmax_backward_into(block, soft, grad, &mut out);
    out
}

/// GAT attention logits into a caller-provided `[E, heads]` output:
/// `out[e, h] = dst_scores[d(e), h] + src_scores[s(e), h]`.
pub fn edge_scores_into(
    block: &BlockCsr,
    dst_scores: &Matrix,
    src_scores: &Matrix,
    out: &mut Matrix,
) {
    assert_eq!(dst_scores.rows(), block.num_dst);
    assert_eq!(src_scores.rows(), block.num_src);
    assert_eq!(dst_scores.cols(), src_scores.cols());
    let heads = dst_scores.cols();
    for_each_dst_edges(block, heads, out, |d, lo, rows| {
        let drow = dst_scores.row(d);
        for (orow, &s) in rows.chunks_exact_mut(heads).zip(&block.indices[lo..]) {
            for ((o, &dv), &sv) in orow.iter_mut().zip(drow).zip(src_scores.row(s as usize)) {
                *o = dv + sv;
            }
        }
    });
}

/// Backward of [`edge_scores_into`]: every edge's `[heads]` gradient is
/// added to its destination's row of `grad_dst` and its source's row of
/// `grad_src`, serially in edge order (sources are shared between
/// destinations, and the edge order fixes each sum's bits).
pub fn edge_scores_backward_into(
    block: &BlockCsr,
    grad: &Matrix,
    grad_dst: &mut Matrix,
    grad_src: &mut Matrix,
) {
    assert_eq!(grad.rows(), block.num_edges());
    let heads = grad.cols();
    grad_dst.reset_shape(block.num_dst, heads);
    grad_src.reset_shape(block.num_src, heads);
    for d in 0..block.num_dst {
        let (lo, hi) = block.edges(d);
        for e in lo..hi {
            let srow = grad_src.row_mut(block.indices[e] as usize);
            for ((g, dv), sv) in grad.row(e).iter().zip(grad_dst.row_mut(d)).zip(srow) {
                *dv += g;
                *sv += g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;

    /// Tiny block: 2 dst, 4 src (dst 0,1 are src 0,1).
    /// dst0 ← {src2, src3}; dst1 ← {src2}.
    fn tiny_block() -> BlockCsr {
        let b = BlockCsr {
            num_dst: 2,
            num_src: 4,
            offsets: vec![0, 2, 3],
            indices: vec![2, 3, 2],
            dup_count: vec![0, 0, 2, 1],
        };
        b.validate();
        b
    }

    fn randm(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Dense reference: materialize the (scaled, weighted) adjacency and
    /// multiply.
    fn dense_spmm(
        block: &BlockCsr,
        src: &Matrix,
        w: Option<&Matrix>,
        heads: usize,
        agg: Agg,
    ) -> Matrix {
        let channels = src.cols();
        let head_dim = channels / heads;
        let mut out = Matrix::zeros(block.num_dst, channels);
        for d in 0..block.num_dst {
            let lo = block.offsets[d] as usize;
            let hi = block.offsets[d + 1] as usize;
            let scale = agg_scale(agg, hi - lo);
            for e in lo..hi {
                let s = block.indices[e] as usize;
                for h in 0..heads {
                    let wh = w.map_or(1.0, |w| w.get(e, h)) * scale;
                    for j in 0..head_dim {
                        let c = h * head_dim + j;
                        out.set(d, c, out.get(d, c) + wh * src.get(s, c));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn spmm_sum_matches_dense() {
        let b = tiny_block();
        let src = randm(4, 6, 1);
        let got = spmm(&b, &src, None, 1, Agg::Sum);
        assert!(got.max_abs_diff(&dense_spmm(&b, &src, None, 1, Agg::Sum)) < 1e-6);
    }

    #[test]
    fn spmm_mean_divides_by_degree() {
        let b = tiny_block();
        let src = randm(4, 3, 2);
        let got = spmm(&b, &src, None, 1, Agg::Mean);
        // dst0 has 2 in-edges: mean = (src2 + src3)/2.
        for j in 0..3 {
            let expect = (src.get(2, j) + src.get(3, j)) / 2.0;
            assert!((got.get(0, j) - expect).abs() < 1e-6);
        }
        // dst1: only src2.
        for j in 0..3 {
            assert!((got.get(1, j) - src.get(2, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_multihead_spmm_matches_dense() {
        let b = tiny_block();
        let heads = 2;
        let src = randm(4, 8, 3);
        let w = randm(b.num_edges(), heads, 4);
        let got = spmm(&b, &src, Some(&w), heads, Agg::Sum);
        assert!(got.max_abs_diff(&dense_spmm(&b, &src, Some(&w), heads, Agg::Sum)) < 1e-6);
    }

    #[test]
    fn backward_src_is_adjoint_of_forward() {
        // <spmm(x), g> == <x, spmm_backward_src(g)> for all x, g — the
        // defining property of the transpose.
        let b = tiny_block();
        for agg in [Agg::Sum, Agg::Mean] {
            let x = randm(4, 5, 10);
            let g = randm(2, 5, 11);
            let fwd = spmm(&b, &x, None, 1, agg);
            let bwd = spmm_backward_src(&b, &g, None, 1, agg);
            let lhs: f32 = fwd.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-4, "{agg:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn backward_weights_via_sddmm_matches_finite_difference() {
        let b = tiny_block();
        let heads = 1;
        let src = randm(4, 4, 20);
        let w = randm(b.num_edges(), heads, 21);
        let g = randm(2, 4, 22);
        // Analytic: dL/dw_e = scale_d · <g[d], src[s]> = sddmm(g, src).
        let gw = sddmm(&b, &g, &src, heads, Agg::Sum);
        let eps = 1e-3;
        for e in 0..b.num_edges() {
            let mut wp = w.clone();
            wp.set(e, 0, w.get(e, 0) + eps);
            let mut wm = w.clone();
            wm.set(e, 0, w.get(e, 0) - eps);
            let loss = |w: &Matrix| -> f32 {
                spmm(&b, &src, Some(w), heads, Agg::Sum)
                    .data()
                    .iter()
                    .zip(g.data())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let fd = (loss(&wp) - loss(&wm)) / (2.0 * eps);
            assert!(
                (fd - gw.get(e, 0)).abs() < 1e-2,
                "edge {e}: fd {fd} vs {}",
                gw.get(e, 0)
            );
        }
    }

    #[test]
    fn edge_softmax_rows_sum_to_one_per_dst() {
        let b = tiny_block();
        let logits = randm(b.num_edges(), 2, 30);
        let soft = edge_softmax(&b, &logits);
        for h in 0..2 {
            let s0 = soft.get(0, h) + soft.get(1, h); // dst0's edges
            assert!((s0 - 1.0).abs() < 1e-6);
            assert!((soft.get(2, h) - 1.0).abs() < 1e-6); // dst1's single edge
        }
        assert!(soft.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn edge_softmax_backward_matches_finite_difference() {
        let b = tiny_block();
        let logits = randm(b.num_edges(), 1, 40);
        let up = randm(b.num_edges(), 1, 41);
        let soft = edge_softmax(&b, &logits);
        let grad = edge_softmax_backward(&b, &soft, &up);
        let eps = 1e-3;
        let loss = |l: &Matrix| -> f32 {
            edge_softmax(&b, l)
                .data()
                .iter()
                .zip(up.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for e in 0..b.num_edges() {
            let mut lp = logits.clone();
            lp.set(e, 0, logits.get(e, 0) + eps);
            let mut lm = logits.clone();
            lm.set(e, 0, logits.get(e, 0) - eps);
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!((fd - grad.get(e, 0)).abs() < 1e-2, "edge {e}");
        }
    }

    /// Random block with a dense duplicate structure (sources shared by
    /// many destinations).
    fn random_block(seed: u64, num_dst: usize, num_src: usize, max_deg: usize) -> BlockCsr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for _ in 0..num_dst {
            let deg = rng.gen_range(0..=max_deg);
            for _ in 0..deg {
                indices.push(rng.gen_range(0..num_src as u32));
            }
            offsets.push(indices.len() as u32);
        }
        let mut dup = vec![0u32; num_src];
        for &c in &indices {
            dup[c as usize] += 1;
        }
        let b = BlockCsr {
            num_dst,
            num_src,
            offsets,
            indices,
            dup_count: dup,
        };
        b.validate();
        b
    }

    /// The default backward must be bit-identical between the parallel
    /// pool and the forced-sequential schedule.
    #[test]
    fn deterministic_backward_is_bit_identical_across_schedules() {
        rayon::init_threads(4);
        let b = random_block(70, 128, 160, 12);
        let g = randm(128, 16, 71);
        let seq_src = rayon::run_sequential(|| spmm_backward_src(&b, &g, None, 1, Agg::Mean));
        for _ in 0..3 {
            let par_src = spmm_backward_src(&b, &g, None, 1, Agg::Mean);
            assert!(par_src
                .data()
                .iter()
                .zip(seq_src.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn spmm_matches_dense_on_random_blocks(
            num_dst in 1usize..12,
            extra_src in 0usize..12,
            seed in 0u64..500,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let num_src = num_dst + extra_src;
            let mut offsets = vec![0u32];
            let mut indices = Vec::new();
            for _ in 0..num_dst {
                let deg = rng.gen_range(0..5usize);
                for _ in 0..deg {
                    indices.push(rng.gen_range(0..num_src as u32));
                }
                offsets.push(indices.len() as u32);
            }
            let mut dup = vec![0u32; num_src];
            for &c in &indices {
                dup[c as usize] += 1;
            }
            let b = BlockCsr { num_dst, num_src, offsets, indices, dup_count: dup };
            b.validate();
            let src = randm(num_src, 4, seed + 1);
            for agg in [Agg::Sum, Agg::Mean] {
                let got = spmm(&b, &src, None, 1, agg);
                prop_assert!(got.max_abs_diff(&dense_spmm(&b, &src, None, 1, agg)) < 1e-5);
                // Adjoint check.
                let g = randm(num_dst, 4, seed + 2);
                let bwd = spmm_backward_src(&b, &g, None, 1, agg);
                let lhs: f32 = got.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
                let rhs: f32 = src.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
                prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
            }
        }

        /// The channel-blocked forward/backward kernels must match the
        /// unblocked reference kernels *in bits* on arbitrary blocks and
        /// channel widths (tile-divisible or not), with warm pooled
        /// buffers reused across calls.
        #[test]
        fn blocked_spmm_is_bit_identical_to_reference(
            num_dst in 1usize..12,
            extra_src in 0usize..12,
            channels in 1usize..70,
            seed in 0u64..500,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xb10c);
            let num_src = num_dst + extra_src;
            let mut offsets = vec![0u32];
            let mut indices = Vec::new();
            for _ in 0..num_dst {
                let deg = rng.gen_range(0..5usize);
                for _ in 0..deg {
                    indices.push(rng.gen_range(0..num_src as u32));
                }
                offsets.push(indices.len() as u32);
            }
            let mut dup = vec![0u32; num_src];
            for &c in &indices {
                dup[c as usize] += 1;
            }
            let b = BlockCsr { num_dst, num_src, offsets, indices, dup_count: dup };
            let src = randm(num_src, channels, seed + 1);
            let g = randm(num_dst, channels, seed + 2);
            let bits = |a: &Matrix, r: &Matrix| {
                a.data().iter().zip(r.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            // Dirty pooled buffers: contents must be fully overwritten.
            let mut out = Matrix::from_fn(2, 2, |_, _| f32::NAN);
            let mut bwd = Matrix::from_fn(3, 1, |_, _| f32::NAN);
            let mut rev = ReverseScratch::default();
            for agg in [Agg::Sum, Agg::Mean] {
                spmm_into(&b, &src, None, 1, agg, &mut out);
                prop_assert!(bits(&out, &spmm_reference(&b, &src, None, 1, agg)));
                spmm_backward_src_into(&b, &g, None, 1, agg, &mut bwd, &mut rev);
                prop_assert!(bits(&bwd, &spmm_backward_src_reference(&b, &g, None, 1, agg)));
            }
        }
    }
}

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
//! The unweighted g-SpMM that GCN and GraphSAGE run comes in the three
//! forms of [`crate::ops`]: a `*_reference` oracle (the plain loop), a
//! pooled `*_into` kernel whose inner loops dispatch through
//! [`crate::simd`], and an `*_into_with` twin pinned to an explicit
//! [`Level`]. The GAT layer runs fused kernels ([`edge_attention_into`],
//! [`gat_aggregate_into`] and their backwards, each with its `*_with`
//! twin). The unfused GAT kernels they replaced keep one body each, the
//! plain loop: [`sddmm`], [`edge_softmax`], [`edge_softmax_backward`]
//! and the weighted forms of [`spmm_reference`] /
//! [`spmm_backward_src_reference`] are the fused kernels' oracles.

#![allow(clippy::needless_range_loop)] // kernel-style indexed loops mirror the CUDA code

use std::sync::atomic::{AtomicU32, Ordering};

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
/// oracle for [`spmm_into`] (unweighted) and [`gat_aggregate_into`]
/// (weighted).
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
/// edges in ascending edge order with the same `agg` scaling, so results
/// are bit-identical to [`spmm_reference`] at any thread count. `heads`
/// and `edge_weights` keep the weighted form's signature (see
/// [`spmm_into_with`]).
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

/// [`spmm_into`] at an explicit SIMD [`Level`]. The register tiles serve
/// the unweighted form every model runs (GAT aggregates through
/// [`gat_aggregate_into`]); a weighted call gets [`spmm_reference`]'s
/// result.
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
    if edge_weights.is_some() {
        *out = spmm_reference(block, src, edge_weights, heads, agg);
        return;
    }
    assert_eq!(src.rows(), block.num_src, "src feature rows != num_src");
    let channels = src.cols();
    spmm_head_dim(block, channels, None, heads);
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
            let mut j0 = 0;
            while j0 < channels {
                let cb = SPMM_CB.min(channels - j0);
                let mut acc = [0.0f32; SPMM_CB];
                let tile = &mut acc[..cb];
                simd::spmm_gather_rowtile(
                    level,
                    edges,
                    None,
                    src.data(),
                    channels,
                    j0,
                    scale,
                    tile,
                    &[],
                );
                orow[j0..j0 + cb].copy_from_slice(tile);
                j0 += cb;
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
/// incoming edges in **ascending edge order** — the deterministic gather
/// order for the backward kernels. The unweighted backward needs only
/// each edge's destination (`dsts`); the GAT walk needs the edge id too,
/// packed with it into one `dst << 32 | edge` word (`pairs`), so either
/// build scatters one value per edge. The buffers are pooled:
/// `ReverseScratch` is rebuilt in place every backward call, so a warm
/// scratch performs zero heap allocations.
#[derive(Default)]
pub struct ReverseScratch {
    offsets: Vec<u32>,
    next: Vec<u32>,
    dsts: Vec<u32>,
    pairs: Vec<u64>,
}

/// Build the transpose with a stable counting sort over the edge list,
/// storing `entry(d, e)` for every edge `e` of destination `d` at its
/// slot in `out`. O(E) and sequential: the fill is a trivial fraction of
/// the channel-wide accumulation that follows, and stability is what
/// buys determinism.
fn reverse_csr_into<T: Copy + Default>(
    block: &BlockCsr,
    offsets: &mut Vec<u32>,
    next: &mut Vec<u32>,
    out: &mut Vec<T>,
    entry: impl Fn(u32, u32) -> T,
) {
    offsets.clear();
    offsets.resize(block.num_src + 1, 0);
    for &c in &block.indices {
        offsets[c as usize + 1] += 1;
    }
    for s in 0..block.num_src {
        offsets[s + 1] += offsets[s];
    }
    out.clear();
    out.resize(block.indices.len(), T::default());
    next.clear();
    next.extend_from_slice(&offsets[..block.num_src]);
    for d in 0..block.num_dst {
        for e in block.offsets[d]..block.offsets[d + 1] {
            let s = block.indices[e as usize] as usize;
            let pos = next[s] as usize;
            next[s] += 1;
            out[pos] = entry(d as u32, e);
        }
    }
}

impl ReverseScratch {
    /// Rebuild as the transpose of `block`, each source's incoming edges
    /// as their destinations.
    fn build_dsts(&mut self, block: &BlockCsr) {
        reverse_csr_into(
            block,
            &mut self.offsets,
            &mut self.next,
            &mut self.dsts,
            |d, _| d,
        );
    }

    /// Rebuild as the transpose of `block`, each source's incoming edges
    /// as packed `dst << 32 | edge` words.
    fn build_pairs(&mut self, block: &BlockCsr) {
        reverse_csr_into(
            block,
            &mut self.offsets,
            &mut self.next,
            &mut self.pairs,
            |d, e| u64::from(d) << 32 | u64::from(e),
        );
    }

    /// Source `s`'s slot range in the built list.
    #[inline]
    fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }
}

/// g-SpMM backward w.r.t. source features — the original unblocked
/// transpose-gather, kept as the oracle for [`spmm_backward_src_into`]
/// (unweighted) and the `dL/dh` of [`gat_aggregate_backward_into`]
/// (weighted).
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
    rev.build_pairs(block);
    let mut out = Matrix::zeros(block.num_src, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(s, orow)| {
            for &pair in &rev.pairs[rev.range(s)] {
                let (d, e) = simd::unpack_edge(pair);
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

/// [`spmm_backward_src_into`] at an explicit SIMD [`Level`]. Like
/// [`spmm_into_with`], the register tiles serve the unweighted form; a
/// weighted call gets [`spmm_backward_src_reference`]'s result.
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
    if edge_weights.is_some() {
        *out = spmm_backward_src_reference(block, grad_dst, edge_weights, heads, agg);
        return;
    }
    assert_eq!(grad_dst.rows(), block.num_dst);
    let channels = grad_dst.cols();
    spmm_head_dim(block, channels, None, heads);
    rev.build_dsts(block);
    let rev = &*rev;
    let mean = agg == Agg::Mean;
    out.reset_shape(block.num_src, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(s, orow)| {
            let dsts = &rev.dsts[rev.range(s)];
            if dsts.is_empty() {
                return; // never sampled as a source: zero gradient
            }
            let (offs, g) = (&block.offsets[..], grad_dst.data());
            let mut j0 = 0;
            while j0 < channels {
                let cb = SPMM_CB.min(channels - j0);
                let mut acc = [0.0f32; SPMM_CB];
                let tile = &mut acc[..cb];
                simd::spmm_scatter_rowtile(level, dsts, offs, mean, g, channels, j0, tile);
                orow[j0..j0 + cb].copy_from_slice(tile);
                j0 += cb;
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

/// g-SDDMM: per-edge, per-head dot products `out[e,h] = scale_d ·
/// <a_dst[d], b_src[s]>_h` for each edge `d←s`, each summed in ascending
/// channel order from `0.0` (one dependent scalar add per multiply). This
/// is both the GAT attention-logit kernel and the backward of weighted
/// g-SpMM w.r.t. the edge weights (`a = grad_dst, b = src`, with the
/// forward's aggregation scale) — the oracle of the `dL/d att` that
/// [`gat_aggregate_backward_into`] produces.
pub fn sddmm(block: &BlockCsr, a_dst: &Matrix, b_src: &Matrix, heads: usize, agg: Agg) -> Matrix {
    assert_eq!(a_dst.rows(), block.num_dst);
    assert_eq!(b_src.rows(), block.num_src);
    assert_eq!(a_dst.cols(), b_src.cols());
    assert!(heads >= 1 && a_dst.cols().is_multiple_of(heads));
    let head_dim = a_dst.cols() / heads;
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

/// Softmax over each destination's incoming edges, per head (GAT's
/// attention normalization), `[E, H]` in and out: per head, the max, then
/// `exp(x - max)` with a running denominator, then the divide, each over
/// the edges in order — the sequence [`simd::edge_softmax_dst`] runs
/// inside [`edge_attention_into`], whose oracle this is.
pub fn edge_softmax(block: &BlockCsr, logits: &Matrix) -> Matrix {
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

/// Backward of [`edge_softmax`]: given the forward output `soft` and
/// upstream gradient `grad`, the gradient w.r.t. the logits `g_e = soft_e
/// · (grad_e − Σ_f soft_f · grad_f)` per destination, per head, the dot
/// summed over the edges in order — the oracle of
/// [`simd::edge_softmax_backward_dst`].
pub fn edge_softmax_backward(block: &BlockCsr, soft: &Matrix, grad: &Matrix) -> Matrix {
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

/// GAT edge attention in one op: for every edge `d ← s` and head `h`,
/// the logit `x = scores[d, h] + scores[s, heads + h]`, its LeakyReLU
/// (`x * slope` where `x < 0.0`), then the softmax over `d`'s edges, each
/// destination's rows written straight into `out: [E, heads]`. `scores:
/// [num_src, 2·heads]` holds the destination scores in its first `heads`
/// columns and the source scores in the rest (see
/// [`crate::ops::attention_scores_into`]). Bit-identical to the unfused
/// chain `edge_softmax(leaky_relu(s_dst[d] + s_src[s]))`: the same adds,
/// the same select and [`simd::edge_softmax_dst`], [`edge_softmax`]'s
/// sequence — only the `[E, heads]` logits and their LeakyReLU are never
/// stored.
pub fn edge_attention_into(block: &BlockCsr, scores: &Matrix, slope: f32, out: &mut Matrix) {
    edge_attention_into_with(simd::level(), block, scores, slope, out);
}

/// [`edge_attention_into`] at an explicit SIMD [`Level`].
pub fn edge_attention_into_with(
    level: Level,
    block: &BlockCsr,
    scores: &Matrix,
    slope: f32,
    out: &mut Matrix,
) {
    let heads = attention_heads(block, scores);
    // Stale contents stay: the destinations' ranges cover every edge and
    // each destination writes all of its rows.
    out.set_shape(block.num_edges(), heads);
    dst_rows(block, heads, out.data_mut()).for_each(|(d, rows)| {
        let lo = block.offsets[d] as usize;
        let sd = &scores.row(d)[..heads];
        for (orow, &s) in rows.chunks_exact_mut(heads).zip(&block.indices[lo..]) {
            let ss = &scores.row(s as usize)[heads..];
            for ((o, &dv), &sv) in orow.iter_mut().zip(sd).zip(ss) {
                let x = dv + sv;
                let scaled = x * slope;
                *o = if x < 0.0 { scaled } else { x };
            }
        }
        simd::edge_softmax_dst(level, rows, heads);
    });
}

/// Every destination `d` paired with its own rows `data[lo*heads ..
/// hi*heads]` of the `[E, heads]` edge data, as a parallel iterator.
fn dst_rows<'a>(
    block: &'a BlockCsr,
    heads: usize,
    data: &'a mut [f32],
) -> impl IndexedParallelIterator<Item = (usize, &'a mut [f32])> {
    assert_eq!(block.offsets.len(), block.num_dst + 1);
    assert_eq!(block.offsets[0], 0, "offsets must start at 0");
    data.par_ranges_mut(&block.offsets, heads).enumerate()
}

/// Head count of a `[num_src, 2·heads]` attention-score matrix.
fn attention_heads(block: &BlockCsr, scores: &Matrix) -> usize {
    assert_eq!(scores.rows(), block.num_src, "scores must cover num_src");
    assert!(
        scores.cols() >= 2 && scores.cols().is_multiple_of(2),
        "scores hold a dst and a src half"
    );
    scores.cols() / 2
}

/// Backward of [`edge_attention_into`]. `grad: [E, heads]` comes in as
/// `dL/d att` and is overwritten, destination by destination, with
/// `dL/d logit`: the edge-softmax backward of `att` (the forward output),
/// then LeakyReLU's `g * slope` where the logit — recomputed from
/// `scores` with the forward's add — is negative. `out: [num_src,
/// 2·heads]` receives `dL/d scores`: the destination half sums each
/// destination's edge gradients in edge order (zero below row
/// `num_dst`), the source half each source's, over all edges in
/// ascending order — the sums of the unfused edge-scores backward.
pub fn edge_attention_backward_into(
    block: &BlockCsr,
    scores: &Matrix,
    att: &Matrix,
    slope: f32,
    grad: &mut Matrix,
    out: &mut Matrix,
) {
    edge_attention_backward_into_with(simd::level(), block, scores, att, slope, grad, out);
}

/// [`edge_attention_backward_into`] at an explicit SIMD [`Level`].
pub fn edge_attention_backward_into_with(
    level: Level,
    block: &BlockCsr,
    scores: &Matrix,
    att: &Matrix,
    slope: f32,
    grad: &mut Matrix,
    out: &mut Matrix,
) {
    let heads = attention_heads(block, scores);
    assert_eq!((att.rows(), att.cols()), (block.num_edges(), heads));
    assert_eq!((grad.rows(), grad.cols()), (att.rows(), att.cols()));
    out.reset_shape(block.num_src, 2 * heads);
    // Destination `d` also owns the first `heads` floats of output row `d`.
    assert!(
        block.num_dst <= block.num_src,
        "destinations are sources too"
    );
    dst_rows(block, heads, grad.data_mut())
        .zip(out.data_mut().par_chunks_mut(2 * heads))
        .for_each(|((d, g), orow)| {
            let lo = block.offsets[d] as usize;
            let soft = &att.data()[lo * heads..lo * heads + g.len()];
            simd::edge_softmax_backward_dst(level, soft, g, heads);
            let gd = &mut orow[..heads];
            let sd = &scores.row(d)[..heads];
            for (grow, &s) in g.chunks_exact_mut(heads).zip(&block.indices[lo..]) {
                let ss = &scores.row(s as usize)[heads..];
                for (((gv, &dv), &sv), acc) in grow.iter_mut().zip(sd).zip(ss).zip(gd.iter_mut()) {
                    let scaled = *gv * slope;
                    *gv = if dv + sv < 0.0 { scaled } else { *gv };
                    *acc += *gv;
                }
            }
        });
    // The source half: serially in edge order, as sources are shared.
    let (g, od) = (grad.data(), out.data_mut());
    for (grow, &s) in g.chunks_exact(heads).zip(&block.indices) {
        let orow = &mut od[s as usize * 2 * heads + heads..][..heads];
        for (o, &gv) in orow.iter_mut().zip(grow) {
            *o += gv;
        }
    }
}

/// Channel-tile width of [`gat_aggregate_into`]: a 64-channel head in one
/// sweep over the destination's edges (eight YMM accumulators).
const GAT_CB: usize = 64;

/// How many edges ahead [`gat_aggregate_into`]'s first tile prefetches a
/// whole source row. Every tile of a destination walks the same rows, so
/// the first tile's pass pulls each one in once, all its lines at a time,
/// and the later tiles find it in cache. Four edges of a 64-channel tile
/// are enough time for a DRAM miss to land, and the 4 x 1 KiB of rows in
/// flight stay far below L1 on the paper's 256-channel layers.
const GAT_AHEAD: usize = 4;

/// GAT aggregation in one op: the weighted multi-head g-SpMM under sum
/// aggregation (`att: [E, heads]` the edge weights, as in
/// [`spmm_reference`]), with `x + bias` and — on hidden layers — ELU's
/// `alpha · (exp(x) - 1)` where `x < 0.0` applied to each register tile
/// before it is stored. The same operations as `elu(add_bias(spmm(..)))`
/// — libm `exp` on exactly the negative lanes, as [`crate::ops::elu`]
/// calls it — with no pre-bias or pre-activation buffer.
#[allow(clippy::too_many_arguments)]
pub fn gat_aggregate_into(
    block: &BlockCsr,
    h: &Matrix,
    att: &Matrix,
    heads: usize,
    bias: &[f32],
    elu: Option<f32>,
    out: &mut Matrix,
) {
    gat_aggregate_into_with(simd::level(), block, h, att, heads, bias, elu, out);
}

/// [`gat_aggregate_into`] at an explicit SIMD [`Level`].
#[allow(clippy::too_many_arguments)]
pub fn gat_aggregate_into_with(
    level: Level,
    block: &BlockCsr,
    h: &Matrix,
    att: &Matrix,
    heads: usize,
    bias: &[f32],
    elu: Option<f32>,
    out: &mut Matrix,
) {
    assert_eq!(h.rows(), block.num_src, "src feature rows != num_src");
    let channels = h.cols();
    let head_dim = spmm_head_dim(block, channels, Some(att), heads);
    assert_eq!(bias.len(), channels, "bias width mismatch");
    // Stale contents stay: every element is stored once below.
    out.set_shape(block.num_dst, channels);
    out.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(d, orow)| {
            let (lo, hi) = block.edges(d);
            let edges = &block.indices[lo..hi];
            // The rows the first tile warms: `GAT_AHEAD` edges on, running
            // into the next destination's first edges.
            let end = block.indices.len();
            let ahead = &block.indices[(lo + GAT_AHEAD).min(end)..(hi + GAT_AHEAD).min(end)];
            for hd in 0..heads {
                let mut j0 = hd * head_dim;
                while j0 < (hd + 1) * head_dim {
                    let cb = GAT_CB.min((hd + 1) * head_dim - j0);
                    let mut acc = [0.0f32; GAT_CB];
                    let tile = &mut acc[..cb];
                    if lo < hi {
                        let wh = Some((&att.data()[lo * heads + hd..], heads));
                        let (x, warm) = (h.data(), if j0 == 0 { ahead } else { &[] });
                        simd::spmm_gather_rowtile(
                            level, edges, wh, x, channels, j0, 1.0, tile, warm,
                        );
                    }
                    bias_act_store(tile, &bias[j0..j0 + cb], elu, &mut orow[j0..j0 + cb]);
                    j0 += cb;
                }
            }
        });
}

/// The aggregation's tile store: `out = acc + bias`, then under `elu =
/// Some(alpha)` `alpha · (exp(x) - 1)` on the lanes where that sum `x` is
/// negative — gathered into a bitmask first, so `exp` runs on exactly
/// those lanes and no branch tests the data. The selected lanes hold what
/// [`crate::ops::elu`]'s per-element select picks.
#[inline]
fn bias_act_store(acc: &[f32], bias: &[f32], elu: Option<f32>, out: &mut [f32]) {
    let mut negative = 0u64;
    for (lane, ((o, &a), &b)) in out.iter_mut().zip(acc).zip(bias).enumerate() {
        let x = a + b;
        *o = x;
        negative |= u64::from(x < 0.0) << lane;
    }
    if let Some(alpha) = elu {
        while negative != 0 {
            let lane = negative.trailing_zeros() as usize;
            negative &= negative - 1;
            out[lane] = alpha * (out[lane].exp() - 1.0);
        }
    }
}

/// Backward of [`gat_aggregate_into`]; under ELU, `elu` holds its
/// `alpha` and the forward output `y`. `grad: [num_dst, channels]` is
/// rewritten in its own buffer to the gradient at the pre-activation —
/// ELU's `g · (y + alpha)` where `y < 0.0` — while the
/// same row-ordered pass sums it into `dbias` (from `0.0`, row by row, as
/// [`crate::ops::sum_rows_into`] does). Then one reverse-CSR walk over
/// the sources produces both `dh: [num_src, channels]` and `datt: [E,
/// heads]` ([`simd::weighted_spmm_backward_row`]): per source row, each
/// incoming edge's gradient row is read once for `dL/dh` (the sums of
/// [`spmm_backward_src_reference`]) and `dL/d att` (those of [`sddmm`]
/// with `a = grad`, `b = h`).
#[allow(clippy::too_many_arguments)]
pub fn gat_aggregate_backward_into(
    block: &BlockCsr,
    grad: &mut Matrix,
    elu: Option<(f32, &Matrix)>,
    h: &Matrix,
    att: &Matrix,
    dh: &mut Matrix,
    datt: &mut Matrix,
    dbias: &mut [f32],
    rev: &mut ReverseScratch,
) {
    gat_aggregate_backward_into_with(
        simd::level(),
        block,
        grad,
        elu,
        h,
        att,
        dh,
        datt,
        dbias,
        rev,
    );
}

/// [`gat_aggregate_backward_into`] at an explicit SIMD [`Level`].
#[allow(clippy::too_many_arguments)]
pub fn gat_aggregate_backward_into_with(
    level: Level,
    block: &BlockCsr,
    grad: &mut Matrix,
    elu: Option<(f32, &Matrix)>,
    h: &Matrix,
    att: &Matrix,
    dh: &mut Matrix,
    datt: &mut Matrix,
    dbias: &mut [f32],
    rev: &mut ReverseScratch,
) {
    let channels = h.cols();
    assert_eq!(h.rows(), block.num_src, "src feature rows != num_src");
    assert_eq!((grad.rows(), grad.cols()), (block.num_dst, channels));
    assert_eq!(dbias.len(), channels, "bias width mismatch");
    let heads = att.cols();
    spmm_head_dim(block, channels, Some(att), heads);
    if let Some((_, y)) = elu {
        assert_eq!((y.rows(), y.cols()), (grad.rows(), grad.cols()));
    }
    dbias.fill(0.0);
    for (i, grow) in grad
        .data_mut()
        .chunks_exact_mut(channels.max(1))
        .enumerate()
    {
        if let Some((alpha, y)) = elu {
            for (g, &yv) in grow.iter_mut().zip(y.row(i)) {
                let scaled = *g * (yv + alpha);
                *g = if yv < 0.0 { scaled } else { *g };
            }
        }
        for (b, &g) in dbias.iter_mut().zip(grow.iter()) {
            *b += g;
        }
    }
    rev.build_pairs(block);
    let rev = &*rev;
    // Every edge has one source, so every `datt` row is stored once.
    datt.set_shape(block.num_edges(), heads);
    let datt = atomic_bits(datt.data_mut());
    dh.set_shape(block.num_src, channels);
    let (g, w) = (grad.data(), att.data());
    dh.data_mut()
        .par_chunks_mut(channels.max(1))
        .enumerate()
        .for_each(|(s, dhrow)| {
            let next = if s + 1 < block.num_src {
                &rev.pairs[rev.range(s + 1)]
            } else {
                &[][..]
            };
            // The edge weights and the `dL/dα` lines of the next source's
            // edges sit at random edge ids: ask for them one source ahead,
            // the walk of this one hides their latency.
            for &pair in next {
                let e = simd::unpack_edge(pair).1;
                simd::prefetch(&w[e * heads..][..heads], false);
                simd::prefetch(&datt[e * heads..][..heads], true);
            }
            simd::weighted_spmm_backward_row(
                level,
                &rev.pairs[rev.range(s)],
                w,
                heads,
                g,
                h.row(s),
                dhrow,
                next,
                |e, hd, v| datt[e * heads + hd].store(v.to_bits(), Ordering::Relaxed),
            );
        });
}

/// `data` as atomics holding the same bits: tasks that each own a
/// scattered set of its elements store through one shared view. A relaxed
/// store is a plain store on x86_64.
fn atomic_bits(data: &mut [f32]) -> &[AtomicU32] {
    const _: () = assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<f32>());
    // SAFETY: `AtomicU32` has the size and bit validity of `u32`, so of
    // `f32`, and the same alignment (asserted above); the view borrows
    // `data` exclusively for its whole life, so no plain access overlaps
    // the atomic ones.
    unsafe { std::slice::from_raw_parts(data.as_mut_ptr().cast::<AtomicU32>(), data.len()) }
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

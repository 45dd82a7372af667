//! The SIMD leg of the bit-identity contract.
//!
//! Every vectorized kernel must produce the *same bits* as the scalar
//! path and as the naive reference — the AVX2 kernels only block across
//! independent output lanes, never inside a per-element reduction, so
//! there is no tolerance anywhere in this file: all comparisons are
//! `to_bits()` equality. Shapes deliberately straddle every tile
//! boundary (j widths around 8/16/32, k % 8 != 0, empty matrices), and
//! the forced-`Scalar` vs forced-`Avx2` tests pin the two code paths
//! against each other directly (gated on host AVX2 support — the
//! dispatched-vs-reference tests run everywhere). The two-worker pool
//! leg lives in `simd_equivalence_threads2.rs`.
//!
//! The second half pins the GAT kernels — the edge-softmax row kernels,
//! the weighted multi-head g-SpMM tiles and the one-walk backward inside
//! the fused aggregation, and the narrow-`n`/`k` matmuls — against the
//! plain oracle loops (`sddmm`, `edge_softmax`, `edge_softmax_backward`,
//! the weighted `spmm_*_reference`), always writing into dirty
//! (NaN-filled, wrongly shaped) pooled buffers, and the GAT layer's fused
//! kernels against the unfused chain of those oracles. Nothing is
//! `#[cfg]`-gated: off x86, or under CI's
//! `WG_SIMD=scalar` leg, the scalar-vs-reference comparisons still run.
//!
//! The last part pins what the training loop actually feeds the dense
//! path (the checks live in `common/mod.rs`, shared with the two-worker
//! leg): matmuls whose `A` is 0–100 % zeros with `±inf`/NaN behind the
//! skipped entries, every elementwise op against its one-line scalar
//! definition on special values, and dropout against the loop it replaced.

mod common;

use common::{assert_bits_eq, dirty, levels, mat};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::ops::Range;
use wg_tensor::ops::{
    self, attention_scores_backward_into_with, attention_scores_into_with, matmul_into_with,
    matmul_nt_into_with, matmul_nt_reference, matmul_reference, matmul_tn_into_with,
    matmul_tn_reference,
};
use wg_tensor::simd::{self, Level};
use wg_tensor::sparse::{
    edge_attention_backward_into_with, edge_attention_into_with, edge_softmax,
    edge_softmax_backward, gat_aggregate_backward_into_with, gat_aggregate_into_with, sddmm,
    spmm_backward_src_into_with, spmm_backward_src_reference, spmm_into_with, spmm_reference, Agg,
    BlockCsr, ReverseScratch,
};
use wg_tensor::Matrix;

fn block(dst: usize, src: usize, fanout: usize, seed: u64) -> BlockCsr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for _ in 0..dst {
        for _ in 0..rng.gen_range(0..=fanout) {
            indices.push(rng.gen_range(0..src as u32));
        }
        offsets.push(indices.len() as u32);
    }
    let mut dup = vec![0u32; src];
    for &c in &indices {
        dup[c as usize] += 1;
    }
    BlockCsr {
        num_dst: dst,
        num_src: src,
        offsets,
        indices,
        dup_count: dup,
    }
}

/// Shapes that straddle every lane-block boundary of the 8/16/32-wide
/// column tiles, plus k remainders that are not multiples of the unroll.
const DENSE_SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (3, 5, 7),    // below one lane
    (2, 9, 8),    // exactly one lane
    (5, 11, 9),   // one lane + scalar tail
    (4, 17, 15),  // just under two lanes
    (6, 13, 31),  // just under the 32-wide block
    (9, 21, 33),  // 32-block + 1 tail column
    (17, 30, 40), // 32 + 8 blocks
    (33, 67, 57), // 32 + 16 + 8 + tail, k % 8 = 3
    (12, 256, 48),
];

/// The three matmuls at `level` against their oracles on one shape.
fn check_dense(level: Level, m: usize, k: usize, n: usize, seed: u64) {
    let a = mat(m, k, seed);
    let b = mat(k, n, seed ^ 0x5a);
    let at = mat(k, m, seed ^ 0xa5);
    let bt = mat(n, k, seed ^ 0x3c);
    let name = format!("{} {m}x{k}x{n}", level.name());

    let mut c = Matrix::empty();
    matmul_into_with(level, &a, &b, &mut c);
    assert_bits_eq(&c, &matmul_reference(&a, &b), &format!("matmul/{name}"));

    let mut scratch = Vec::new();
    matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
    assert_bits_eq(
        &c,
        &matmul_tn_reference(&at, &b),
        &format!("matmul_tn/{name}"),
    );

    matmul_nt_into_with(level, &a, &bt, &mut c, &mut scratch);
    assert_bits_eq(
        &c,
        &matmul_nt_reference(&a, &bt),
        &format!("matmul_nt/{name}"),
    );
}

/// The shapes above, then every panel width the tile is compiled for:
/// `n` in `1..=32` (one panel; up to 8 the narrow kernels) and `32 + n`
/// (a full panel, then a ragged one of `n`), over 5 rows — two 2-row
/// tiles and a lone row.
#[test]
fn dense_kernels_bit_identical_at_every_level() {
    for level in levels() {
        for (i, &(m, k, n)) in DENSE_SHAPES.iter().enumerate() {
            check_dense(level, m, k, n, 100 + i as u64);
        }
        for w in 1..=32 {
            for n in [w, 32 + w] {
                check_dense(level, 5, 19, n, 200 + n as u64);
            }
        }
    }
}

#[test]
fn empty_matrices_at_every_level() {
    for level in levels() {
        for (m, k, n) in [(0usize, 4usize, 4usize), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = mat(m, k, 9);
            let b = mat(k, n, 10);
            let mut c = Matrix::empty();
            matmul_into_with(level, &a, &b, &mut c);
            assert_bits_eq(&c, &matmul_reference(&a, &b), "matmul empty");

            let at = mat(k, m, 11);
            let mut scratch = Vec::new();
            matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
            assert_bits_eq(&c, &matmul_tn_reference(&at, &b), "matmul_tn empty");

            let bt = mat(n, k, 12);
            matmul_nt_into_with(level, &a, &bt, &mut c, &mut scratch);
            assert_bits_eq(&c, &matmul_nt_reference(&a, &bt), "matmul_nt empty");
        }
        // An all-empty graph block: every dst has zero edges.
        let b = block(6, 9, 0, 13);
        assert!(b.indices.is_empty());
        let x = mat(9, 17, 14);
        let mut out = Matrix::empty();
        spmm_into_with(level, &b, &x, None, 1, Agg::Mean, &mut out);
        assert_bits_eq(
            &out,
            &spmm_reference(&b, &x, None, 1, Agg::Mean),
            "spmm empty",
        );
    }
}

#[test]
fn spmm_kernels_bit_identical_at_every_level() {
    for level in levels() {
        for (dst, src, fanout, channels, seed) in [
            (1usize, 2usize, 1usize, 1usize, 20u64),
            (7, 15, 3, 9, 21),    // one lane + tail
            (23, 60, 5, 31, 22),  // just under a lane block
            (40, 100, 8, 33, 23), // 32 + tail
            (16, 50, 4, 64, 24),
        ] {
            let b = block(dst, src, fanout, seed);
            let x = mat(src, channels, seed ^ 0x77);
            let name = level.name();
            for agg in [Agg::Mean, Agg::Sum] {
                let mut y = Matrix::empty();
                spmm_into_with(level, &b, &x, None, 1, agg, &mut y);
                assert_bits_eq(
                    &y,
                    &spmm_reference(&b, &x, None, 1, agg),
                    &format!("spmm/{name}"),
                );
                let mut g = Matrix::empty();
                let mut rev = ReverseScratch::default();
                spmm_backward_src_into_with(level, &b, &y, None, 1, agg, &mut g, &mut rev);
                assert_bits_eq(
                    &g,
                    &spmm_backward_src_reference(&b, &y, None, 1, agg),
                    &format!("spmm_backward/{name}"),
                );
            }
        }
    }
}

/// The load-bearing test of the whole scheme: the forced-AVX2 path must
/// produce the same bits as the forced-scalar path, kernel by kernel —
/// not merely both matching the reference. Skipped (trivially green) on
/// hosts without AVX2; the scalar-vs-reference leg above still runs.
#[test]
fn forced_scalar_and_forced_avx2_agree_bitwise() {
    if !simd::avx2_available() {
        eprintln!("host has no AVX2 — forced-level cross-check skipped");
        return;
    }
    for (i, &(m, k, n)) in DENSE_SHAPES.iter().enumerate() {
        let seed = 300 + i as u64;
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x11);
        let (mut cs, mut cv) = (Matrix::empty(), Matrix::empty());
        matmul_into_with(Level::Scalar, &a, &b, &mut cs);
        matmul_into_with(Level::Avx2, &a, &b, &mut cv);
        assert_bits_eq(&cs, &cv, "matmul scalar-vs-avx2");

        let at = mat(k, m, seed ^ 0x22);
        let (mut ss, mut sv) = (Vec::new(), Vec::new());
        matmul_tn_into_with(Level::Scalar, &at, &b, &mut cs, &mut ss);
        matmul_tn_into_with(Level::Avx2, &at, &b, &mut cv, &mut sv);
        assert_bits_eq(&cs, &cv, "matmul_tn scalar-vs-avx2");

        let bt = mat(n, k, seed ^ 0x33);
        matmul_nt_into_with(Level::Scalar, &a, &bt, &mut cs, &mut ss);
        matmul_nt_into_with(Level::Avx2, &a, &bt, &mut cv, &mut sv);
        assert_bits_eq(&cs, &cv, "matmul_nt scalar-vs-avx2");
    }
    let b = block(31, 77, 6, 40);
    // Every channel count up to 72: the 32/16/8/4/2/1 blocks of a 32-wide
    // tile and each tail.
    for channels in 1usize..=72 {
        let x = mat(77, channels, 41);
        for agg in [Agg::Mean, Agg::Sum] {
            let (mut ys, mut yv) = (Matrix::empty(), Matrix::empty());
            spmm_into_with(Level::Scalar, &b, &x, None, 1, agg, &mut ys);
            spmm_into_with(Level::Avx2, &b, &x, None, 1, agg, &mut yv);
            assert_bits_eq(&ys, &yv, "spmm scalar-vs-avx2");

            let (mut gs, mut gv) = (Matrix::empty(), Matrix::empty());
            let mut rev = ReverseScratch::default();
            spmm_backward_src_into_with(Level::Scalar, &b, &ys, None, 1, agg, &mut gs, &mut rev);
            spmm_backward_src_into_with(Level::Avx2, &b, &ys, None, 1, agg, &mut gv, &mut rev);
            assert_bits_eq(&gs, &gv, "spmm_backward scalar-vs-avx2");
        }
    }
}

/// The score projections at head counts whose concatenated `[a_dst |
/// a_src]` leaves the narrow kernels (16 columns: one panel) and spans
/// several 32-wide panels (40 columns), forward and backward.
#[test]
fn attention_scores_match_the_two_products_at_wide_head_counts() {
    for (heads, c) in [(8usize, 24usize), (20, 60)] {
        let seed = 8000 + heads as u64;
        let h = features_with_zeros(37, c, seed);
        let (a_dst, a_src) = (mat(c, heads, seed ^ 1), mat(c, heads, seed ^ 2));
        let g = mat(37, 2 * heads, seed ^ 3);
        let acc0 = mat(37, c, seed ^ 4);
        let dst_part = matmul_nt_reference(&cols(&g, 0, heads), &a_dst);
        let src_part = matmul_nt_reference(&cols(&g, heads, 2 * heads), &a_src);
        let mut want = acc0.clone();
        for ((w, &d), &s) in want
            .data_mut()
            .iter_mut()
            .zip(dst_part.data())
            .zip(src_part.data())
        {
            *w = (*w + d) + s;
        }
        for level in levels() {
            let what = format!("{} heads {heads}", level.name());
            let mut scores = dirty();
            attention_scores_into_with(level, &h, &a_dst, &a_src, &mut scores);
            let halves = [cols(&scores, 0, heads), cols(&scores, heads, 2 * heads)];
            assert_bits_eq(
                &halves[0],
                &matmul_reference(&h, &a_dst),
                &format!("scores dst {what}"),
            );
            assert_bits_eq(
                &halves[1],
                &matmul_reference(&h, &a_src),
                &format!("scores src {what}"),
            );
            let (mut dh, mut scratch) = (acc0.clone(), Vec::new());
            attention_scores_backward_into_with(
                level,
                &g,
                &a_dst,
                &a_src,
                &mut dh,
                false,
                &mut scratch,
            );
            assert_bits_eq(&dh, &want, &format!("scores dh {what}"));
        }
    }
}

/// The fused GAT kernels, forced scalar against forced AVX2, end to end
/// through one layer's forward and backward.
#[test]
fn fused_gat_kernels_agree_across_levels() {
    if !simd::avx2_available() {
        eprintln!("host has no AVX2 — forced-level cross-check skipped");
        return;
    }
    for heads in [1usize, 2, 4] {
        // 127 = 64 + 32 + 16 + 8 + 4 + 2 + 1: every channel block of the
        // aggregation and of the walk's `dL/dh`.
        for head_dim in [16usize, 60, 64, 127] {
            let b = gat_grid_block(90 + head_dim as u64);
            let seed = 900 + heads as u64 * 100 + head_dim as u64;
            let scalar = gat_fused_outputs(Level::Scalar, &b, heads, head_dim, seed);
            let avx2 = gat_fused_outputs(Level::Avx2, &b, heads, head_dim, seed);
            for (i, (s, v)) in scalar.iter().zip(&avx2).enumerate() {
                assert_bits_eq(
                    s,
                    v,
                    &format!("fused output {i}, heads {heads} dim {head_dim}"),
                );
            }
        }
    }
}

/// A block whose destination `d` has exactly `degrees[d]` sampled edges.
fn block_with_degrees(degrees: &[usize], extra_src: usize, seed: u64) -> BlockCsr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let num_src = degrees.len() + extra_src;
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for &deg in degrees {
        for _ in 0..deg {
            indices.push(rng.gen_range(0..num_src as u32));
        }
        offsets.push(indices.len() as u32);
    }
    let mut dup_count = vec![0u32; num_src];
    for &s in &indices {
        dup_count[s as usize] += 1;
    }
    let b = BlockCsr {
        num_dst: degrees.len(),
        num_src,
        offsets,
        indices,
        dup_count,
    };
    b.validate();
    b
}

/// Degree 0, 1, one short of / exactly / one past a lane group, the
/// paper's fanout 30 (3 groups + 6), past the 32-edge chunk, and mixed.
fn degree_patterns() -> Vec<Vec<usize>> {
    let mut p: Vec<Vec<usize>> = [0usize, 1, 7, 8, 9, 30, 33]
        .iter()
        .map(|&d| vec![d; 5])
        .collect();
    p.push(vec![30, 0, 9, 1, 8, 70, 7, 0, 33, 16]);
    p
}

/// `f(span, rows)` for every destination's rows of the `[E, heads]` edge
/// matrix `m`, `span` being their range in `m`'s data.
fn for_each_dst(b: &BlockCsr, m: &mut Matrix, mut f: impl FnMut(Range<usize>, &mut [f32])) {
    let heads = m.cols();
    for d in 0..b.num_dst {
        let span = b.offsets[d] as usize * heads..b.offsets[d + 1] as usize * heads;
        f(span.clone(), &mut m.data_mut()[span]);
    }
}

/// The edge-softmax row kernel at `level`, destination by destination.
fn softmax_rows(level: Level, b: &BlockCsr, logits: &Matrix) -> Matrix {
    let (mut x, heads) = (logits.clone(), logits.cols());
    for_each_dst(b, &mut x, |_, rows| {
        simd::edge_softmax_dst(level, rows, heads)
    });
    x
}

/// Every GAT sparse kernel that ships, at every level, against its plain
/// oracle loop on one block and one `(heads, head_dim)` shape: the
/// edge-softmax row kernels destination by destination, and the weighted
/// g-SpMM tiles and the one-walk backward through the fused aggregation
/// (with no ELU and a `-0.0` bias, which adds nothing to any sum).
fn check_sparse_kernels(b: &BlockCsr, heads: usize, head_dim: usize, seed: u64) {
    let channels = heads * head_dim;
    let (e, what) = (b.num_edges(), format!("heads {heads} x dim {head_dim}"));
    let g = mat(b.num_dst, channels, seed);
    let h = mat(b.num_src, channels, seed ^ 0x51);
    let w = mat(e, heads, seed ^ 0x77);
    let up = mat(e, heads, seed ^ 0x99);
    let soft = edge_softmax(b, &w);
    let soft_bwd = edge_softmax_backward(b, &soft, &up);
    let want_y = spmm_reference(b, &h, Some(&w), heads, Agg::Sum);
    let want_dh = spmm_backward_src_reference(b, &g, Some(&w), heads, Agg::Sum);
    let want_dw = sddmm(b, &g, &h, heads, Agg::Sum);
    let no_bias = vec![-0.0f32; channels];
    for level in levels() {
        let what = format!("{} {what}", level.name());
        assert_bits_eq(
            &softmax_rows(level, b, &w),
            &soft,
            &format!("edge_softmax {what}"),
        );
        let mut grad = up.clone();
        for_each_dst(b, &mut grad, |span, rows| {
            simd::edge_softmax_backward_dst(level, &soft.data()[span], rows, heads)
        });
        assert_bits_eq(&grad, &soft_bwd, &format!("edge_softmax_bwd {what}"));

        let mut y = dirty();
        gat_aggregate_into_with(level, b, &h, &w, heads, &no_bias, None, &mut y);
        assert_bits_eq(&y, &want_y, &format!("spmm_weighted {what}"));
        let mut grad = g.clone();
        let (mut dh, mut dw, mut db) = (dirty(), dirty(), vec![f32::NAN; channels]);
        let mut rev = ReverseScratch::default();
        gat_aggregate_backward_into_with(
            level, b, &mut grad, None, &h, &w, &mut dh, &mut dw, &mut db, &mut rev,
        );
        assert_bits_eq(&dh, &want_dh, &format!("spmm_weighted_bwd {what}"));
        assert_bits_eq(&dw, &want_dw, &format!("sddmm {what}"));
    }
}

#[test]
fn gat_sparse_kernels_match_their_oracles_on_the_shape_grid() {
    for (p, degrees) in degree_patterns().iter().enumerate() {
        let b = block_with_degrees(degrees, 11, 40 + p as u64);
        for heads in [1usize, 2, 4] {
            for head_dim in [5usize, 8, 16, 64] {
                check_sparse_kernels(&b, heads, head_dim, 1000 * p as u64 + head_dim as u64);
            }
        }
    }
}

/// Softmax rows that overflow a naive `exp` and rows that are constant:
/// the max subtraction is part of the pinned float sequence. The row
/// kernel runs them at every level (4 and 8 heads take the AVX2 kernel).
#[test]
fn edge_softmax_is_bit_identical_on_extreme_logits() {
    let b = block_with_degrees(&[30, 9, 1, 0, 8], 4, 7);
    for heads in [1usize, 4, 8] {
        let mut logits = mat(b.num_edges(), heads, 8);
        for (i, v) in logits.data_mut().iter_mut().enumerate() {
            *v = match i % 5 {
                0 => 88.0 + *v,
                1 => -104.0 * v.abs(),
                2 => 0.0,
                _ => *v,
            };
        }
        let want = edge_softmax(&b, &logits);
        assert!(want.data().iter().all(|v| v.is_finite()));
        for level in levels() {
            let out = softmax_rows(level, &b, &logits);
            assert_bits_eq(&out, &want, &format!("edge_softmax/{}", level.name()));
        }
    }
}

/// The per-element edge-scores loop (the tape's old `get`/`set` form):
/// logits `s_dst[d] + s_src[s]` per edge and head, and its backward —
/// every edge's gradient added to its destination's and its source's row
/// in edge order — as one `[num_src, 2·heads]` matrix, destination half
/// first.
fn edge_scores_loop(b: &BlockCsr, scores: &Matrix, grad: Option<&Matrix>) -> Matrix {
    let heads = scores.cols() / 2;
    let mut logits = Matrix::zeros(b.num_edges(), heads);
    let mut back = Matrix::zeros(b.num_src, 2 * heads);
    for d in 0..b.num_dst {
        for e in b.offsets[d] as usize..b.offsets[d + 1] as usize {
            let s = b.indices[e] as usize;
            for h in 0..heads {
                logits.set(e, h, scores.get(d, h) + scores.get(s, heads + h));
                if let Some(g) = grad {
                    back.set(d, h, back.get(d, h) + g.get(e, h));
                    back.set(s, heads + h, back.get(s, heads + h) + g.get(e, h));
                }
            }
        }
    }
    if grad.is_some() {
        back
    } else {
        logits
    }
}

/// Scores whose sums straddle zero: entries from a small set with `±0.0`
/// and exact negatives of each other, so that logits land on `+0.0`,
/// `-0.0` and both sides of zero, mixed with random values.
fn straddling_scores(rows: usize, heads: usize, seed: u64) -> Matrix {
    const SET: [f32; 7] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 0.25];
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, 2 * heads, |_, _| {
        if rng.gen_bool(0.6) {
            SET[rng.gen_range(0..SET.len())]
        } else {
            rng.gen_range(-1.0f32..1.0)
        }
    })
}

/// The fused edge attention equals the unfused chain — the per-element
/// edge-scores loop, `ops::leaky_relu`, `edge_softmax` and back
/// through `edge_softmax_backward` and
/// `ops::leaky_relu_backward` — bit for bit, on logits at and around
/// `±0.0`.
#[test]
fn edge_scores_match_the_per_element_loop() {
    for degrees in degree_patterns() {
        let b = block_with_degrees(&degrees, 6, 3);
        for heads in [1usize, 2, 4] {
            let scores = straddling_scores(b.num_src, heads, 4);
            let up = mat(b.num_edges(), heads, 6);
            let logits = edge_scores_loop(&b, &scores, None);
            let mut leaky = Matrix::empty();
            ops::leaky_relu(&logits, 0.2, &mut leaky);
            let soft = edge_softmax(&b, &leaky);
            let mut dlogit = Matrix::empty();
            let dleaky = edge_softmax_backward(&b, &soft, &up);
            ops::leaky_relu_backward(&dleaky, &logits, 0.2, &mut dlogit);
            let dscores = edge_scores_loop(&b, &scores, Some(&dlogit));
            for level in levels() {
                let what = format!("{} heads {heads} degrees {degrees:?}", level.name());
                let mut att = dirty();
                edge_attention_into_with(level, &b, &scores, 0.2, &mut att);
                assert_bits_eq(&att, &soft, &format!("edge_attention {what}"));
                let (mut grad, mut out) = (up.clone(), dirty());
                edge_attention_backward_into_with(
                    level, &b, &scores, &att, 0.2, &mut grad, &mut out,
                );
                assert_bits_eq(&grad, &dlogit, &format!("edge_attention dlogit {what}"));
                assert_bits_eq(&out, &dscores, &format!("edge_attention dscores {what}"));
            }
        }
    }
}

/// `h` with exact zeros (the projections' zero-skip) and special rows.
fn features_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut h = mat(rows, cols, seed);
    for (i, v) in h.data_mut().iter_mut().enumerate() {
        if i % 5 == 2 {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    h
}

/// Columns `c0..c1` of `m`.
fn cols(m: &Matrix, c0: usize, c1: usize) -> Matrix {
    Matrix::from_fn(m.rows(), c1 - c0, |i, j| m.get(i, c0 + j))
}

/// What every fused GAT kernel produces at one level, for the cross-level
/// comparison.
fn gat_fused_outputs(
    level: Level,
    b: &BlockCsr,
    heads: usize,
    head_dim: usize,
    seed: u64,
) -> Vec<Matrix> {
    let c = heads * head_dim;
    let h = features_with_zeros(b.num_src, c, seed);
    let (a_dst, a_src) = (mat(c, heads, seed ^ 1), mat(c, heads, seed ^ 2));
    let (mut scores, mut att, mut y) = (dirty(), dirty(), dirty());
    attention_scores_into_with(level, &h, &a_dst, &a_src, &mut scores);
    edge_attention_into_with(level, b, &scores, 0.2, &mut att);
    let bias = mat(1, c, seed ^ 3);
    gat_aggregate_into_with(level, b, &h, &att, heads, bias.row(0), Some(1.0), &mut y);
    let mut grad = mat(b.num_dst, c, seed ^ 4);
    let (mut dh, mut datt, mut dbias) = (dirty(), dirty(), vec![f32::NAN; c]);
    let mut rev = ReverseScratch::default();
    gat_aggregate_backward_into_with(
        level,
        b,
        &mut grad,
        Some((1.0, &y)),
        &h,
        &att,
        &mut dh,
        &mut datt,
        &mut dbias,
        &mut rev,
    );
    let mut dscores = dirty();
    edge_attention_backward_into_with(level, b, &scores, &att, 0.2, &mut datt, &mut dscores);
    let mut scratch = Vec::new();
    attention_scores_backward_into_with(
        level,
        &dscores,
        &a_dst,
        &a_src,
        &mut dh,
        false,
        &mut scratch,
    );
    vec![
        scores,
        att,
        y,
        grad,
        Matrix::from_vec(1, c, dbias),
        datt,
        dscores,
        dh,
    ]
}

/// A block with an isolated destination, degree-1 destinations, a source
/// no edge samples, and the paper's fanout.
fn gat_grid_block(seed: u64) -> BlockCsr {
    let mut b = block_with_degrees(&[30, 0, 1, 9, 1, 33, 7, 8], 5, seed);
    let never = b.num_src as u32 - 1;
    for s in &mut b.indices {
        if *s == never {
            *s = 0;
        }
    }
    b.dup_count = vec![0; b.num_src];
    for &s in &b.indices {
        b.dup_count[s as usize] += 1;
    }
    b.validate();
    b
}

/// The GAT layer's four fused kernels against the unfused chain of kept
/// whole-matrix kernels and oracles, bit for bit, at every level: heads
/// 1/2/4, head widths 16/60/64 (60: a ragged channel tile), an isolated
/// destination, degree-1 destinations and a never-sampled source.
#[test]
fn gat_fused_ops_equal_the_unfused_chain() {
    for heads in [1usize, 2, 4] {
        for head_dim in [16usize, 60, 64] {
            let seed = 7000 + 10 * heads as u64 + head_dim as u64;
            let b = gat_grid_block(seed);
            let c = heads * head_dim;
            let what = |level: Level| format!("{} heads {heads} dim {head_dim}", level.name());
            let h = features_with_zeros(b.num_src, c, seed);
            let (a_dst, a_src) = (mat(c, heads, seed ^ 1), mat(c, heads, seed ^ 2));
            let w = mat(b.num_edges(), heads, seed ^ 5);
            let bias = mat(1, c, seed ^ 3);
            let up = mat(b.num_dst, c, seed ^ 4);
            // The score projections and their gradients: `h·a`, `g·aᵀ`
            // added in the tape's order, `hᵀ·g` column by column.
            let proj = [matmul_reference(&h, &a_dst), matmul_reference(&h, &a_src)];
            let mut g = mat(b.num_src, 2 * heads, seed ^ 6);
            for i in b.num_dst..b.num_src {
                for j in 0..heads {
                    g.set(i, j, 0.0); // the rows `top_rows` fed no gradient
                }
            }
            let (gd, gs) = (cols(&g, 0, heads), cols(&g, heads, 2 * heads));
            let (dst_part, src_part) = (
                matmul_nt_reference(&gd, &a_dst),
                matmul_nt_reference(&gs, &a_src),
            );
            let acc0 = mat(b.num_src, c, seed ^ 7);
            let mut shared = acc0.clone();
            let mut fresh = dst_part.clone();
            for ((a, &d), (f, &s)) in shared
                .data_mut()
                .iter_mut()
                .zip(dst_part.data())
                .zip(fresh.data_mut().iter_mut().zip(src_part.data()))
            {
                *a = (*a + d) + s;
                *f += s;
            }
            let params = [matmul_tn_reference(&h, &gd), matmul_tn_reference(&h, &gs)];
            for elu in [None, Some(1.0f32)] {
                // The aggregation: `elu(add_bias(spmm))` and back.
                let mut want_y = Matrix::empty();
                ops::add_bias(
                    &spmm_reference(&b, &h, Some(&w), heads, Agg::Sum),
                    bias.row(0),
                    &mut want_y,
                );
                let mut grad_in = up.clone();
                if let Some(alpha) = elu {
                    let pre = want_y.clone();
                    ops::elu(&pre, alpha, &mut want_y);
                    ops::elu_backward(&up, &want_y, alpha, &mut grad_in);
                }
                let want_db = ops::sum_rows(&grad_in);
                let want_dh = spmm_backward_src_reference(&b, &grad_in, Some(&w), heads, Agg::Sum);
                let want_dw = sddmm(&b, &grad_in, &h, heads, Agg::Sum);
                for level in levels() {
                    let what = format!("{} elu {elu:?}", what(level));
                    let mut y = dirty();
                    gat_aggregate_into_with(level, &b, &h, &w, heads, bias.row(0), elu, &mut y);
                    assert_bits_eq(&y, &want_y, &format!("gat_aggregate {what}"));
                    let mut grad = up.clone();
                    let (mut dh, mut dw, mut db) = (dirty(), dirty(), vec![f32::NAN; c]);
                    let mut rev = ReverseScratch::default();
                    gat_aggregate_backward_into_with(
                        level,
                        &b,
                        &mut grad,
                        elu.map(|alpha| (alpha, &y)),
                        &h,
                        &w,
                        &mut dh,
                        &mut dw,
                        &mut db,
                        &mut rev,
                    );
                    assert_bits_eq(&grad, &grad_in, &format!("gat_aggregate grad {what}"));
                    assert_bits_eq(
                        &Matrix::from_vec(1, c, db),
                        &Matrix::from_vec(1, c, want_db.clone()),
                        &format!("gat_aggregate dbias {what}"),
                    );
                    assert_bits_eq(&dh, &want_dh, &format!("gat_aggregate dh {what}"));
                    assert_bits_eq(&dw, &want_dw, &format!("gat_aggregate datt {what}"));
                }
            }
            for level in levels() {
                let what = what(level);
                let mut scores = dirty();
                attention_scores_into_with(level, &h, &a_dst, &a_src, &mut scores);
                assert_bits_eq(
                    &cols(&scores, 0, heads),
                    &proj[0],
                    &format!("scores dst {what}"),
                );
                assert_bits_eq(
                    &cols(&scores, heads, 2 * heads),
                    &proj[1],
                    &format!("scores src {what}"),
                );
                let mut scratch = vec![f32::NAN; 3];
                let mut dh = acc0.clone();
                attention_scores_backward_into_with(
                    level,
                    &g,
                    &a_dst,
                    &a_src,
                    &mut dh,
                    false,
                    &mut scratch,
                );
                assert_bits_eq(&dh, &shared, &format!("scores dh {what}"));
                let mut dh = dirty();
                attention_scores_backward_into_with(
                    level,
                    &g,
                    &a_dst,
                    &a_src,
                    &mut dh,
                    true,
                    &mut scratch,
                );
                assert_bits_eq(&dh, &fresh, &format!("scores dh fresh {what}"));
                let mut both = dirty();
                matmul_tn_into_with(level, &h, &g, &mut both, &mut scratch);
                assert_bits_eq(
                    &cols(&both, 0, heads),
                    &params[0],
                    &format!("scores da_dst {what}"),
                );
                assert_bits_eq(
                    &cols(&both, heads, 2 * heads),
                    &params[1],
                    &format!("scores da_src {what}"),
                );
            }
        }
    }
}

/// `A` with exact zeros — scattered, a whole row, a whole column and an
/// aligned run of eight — so every zero-skip branch of the lane kernels
/// is taken.
fn mat_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut a = mat(rows, cols, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
    let (zero_row, zero_col) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
    for i in 0..rows {
        for j in 0..cols {
            let flat = i * cols + j;
            if i == zero_row || j == zero_col || flat % 7 == 3 || (16..24).contains(&flat) {
                a.set(i, j, if flat.is_multiple_of(2) { 0.0 } else { -0.0 });
            }
        }
    }
    a
}

/// `B` with one `inf`: a skipped `0 * inf` leaves the sum finite, an
/// unskipped one turns it into NaN — the zero-skip rule made observable.
fn mat_with_inf(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut b = mat(rows, cols, seed);
    let at = (seed as usize * 31) % (rows * cols);
    b.data_mut()[at] = f32::INFINITY;
    b
}

/// The three matmuls at every level against their oracles, for an
/// `[m, k] x [k, n]` product (and the matching `nt` / `tn` shapes).
fn check_matmuls(m: usize, k: usize, n: usize, seed: u64) {
    let a = mat_with_zeros(m, k, seed);
    let b = mat_with_inf(k, n, seed ^ 0x5a);
    let bt = mat_with_inf(n, k, seed ^ 0x3c);
    let at = mat_with_zeros(k, m, seed ^ 0xa5);
    let want = matmul_reference(&a, &b);
    let want_nt = matmul_nt_reference(&a, &bt);
    let want_tn = matmul_tn_reference(&at, &b);
    for level in levels() {
        let what = format!("{} {m}x{k}x{n}", level.name());
        let (mut c, mut scratch) = (dirty(), vec![f32::NAN; 3]);
        matmul_into_with(level, &a, &b, &mut c);
        assert_bits_eq(&c, &want, &format!("matmul/{what}"));
        matmul_nt_into_with(level, &a, &bt, &mut c, &mut scratch);
        assert_bits_eq(&c, &want_nt, &format!("matmul_nt/{what}"));
        matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
        assert_bits_eq(&c, &want_tn, &format!("matmul_tn/{what}"));
    }
}

#[test]
fn narrow_matmuls_match_their_oracles_for_every_n_and_k_up_to_eight() {
    for narrow in 1usize..=8 {
        for (i, &(m, wide)) in [(1usize, 1usize), (7, 5), (8, 33), (9, 70), (20, 256)]
            .iter()
            .enumerate()
        {
            let seed = 100 * narrow as u64 + i as u64;
            check_matmuls(m, wide, narrow, seed); // n narrow; tn: n narrow
            check_matmuls(m, narrow, wide, seed + 50); // k narrow
            check_matmuls(wide, narrow, narrow, seed + 70); // both
        }
    }
    // tn across several 512-row k-chunks, m straddling the 8-row groups.
    for (m, n) in [(64usize, 4usize), (17, 3), (256, 1), (9, 8)] {
        check_matmuls(m, 1300, n, 900 + m as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random unaligned shapes: every level matches the reference, and
    /// (on AVX2 hosts) the two forced levels match each other.
    #[test]
    fn matmul_levels_agree_on_random_shapes(
        m in 1usize..48,
        k in 1usize..80,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0xbeef);
        let reference = matmul_reference(&a, &b);
        for level in levels() {
            let mut c = Matrix::empty();
            matmul_into_with(level, &a, &b, &mut c);
            for (x, y) in c.data().iter().zip(reference.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn spmm_levels_agree_on_random_blocks(
        dst in 1usize..40,
        src in 1usize..90,
        fanout in 0usize..7,
        channels in 1usize..48,
        seed in 0u64..1000,
    ) {
        let b = block(dst, src, fanout, seed);
        let x = mat(src, channels, seed ^ 0xfeed);
        for agg in [Agg::Mean, Agg::Sum] {
            let reference = spmm_reference(&b, &x, None, 1, agg);
            for level in levels() {
                let mut y = Matrix::empty();
                spmm_into_with(level, &b, &x, None, 1, agg, &mut y);
                for (p, q) in y.data().iter().zip(reference.data()) {
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    /// Random degree sequences drawn from the boundary degrees, random
    /// source-space size, every `(heads, head_dim)` of the grid.
    #[test]
    fn gat_sparse_kernels_match_on_random_blocks(
        num_dst in 1usize..14,
        extra_src in 0usize..40,
        shape in 0usize..12,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let degrees: Vec<usize> = (0..num_dst)
            .map(|_| [0usize, 1, 7, 8, 9, 30, 31, 32, 33][rng.gen_range(0..9usize)])
            .collect();
        let b = block_with_degrees(&degrees, extra_src, seed ^ 0xb10c);
        let (heads, head_dim) = ([1usize, 2, 4][shape % 3], [5usize, 8, 16, 64][shape / 3]);
        check_sparse_kernels(&b, heads, head_dim, seed);
    }

    #[test]
    fn narrow_matmuls_match_on_random_shapes(
        m in 1usize..40,
        wide in 1usize..90,
        narrow in 1usize..9,
        seed in 0u64..10_000,
    ) {
        check_matmuls(m, wide, narrow, seed);
        check_matmuls(m, narrow, wide, seed ^ 0xf00d);
    }
}

/// Every kind of row-block a visit list can meet, side by side in one
/// band, at each output width.
#[test]
fn visit_lists_cover_empty_dense_and_mixed_row_blocks() {
    for (i, &n) in common::WIDTHS.iter().enumerate() {
        common::check_mixed_row_blocks(n, 70 + i as u64);
    }
}

/// The packed-panel body's own geometry: row blocks and their 2-row tiles,
/// ragged and many panels, `tn` chunks and strips, on stale buffers.
#[test]
fn packed_panel_geometry_matches_the_oracles() {
    common::check_panel_geometry_grid();
}

/// The whole zero-share x k x width grid once, deterministically (the
/// proptest below samples it with random `m` and seeds).
#[test]
fn zero_share_matmuls_match_their_oracles_on_the_grid() {
    for (s, &share) in common::ZERO_SHARES.iter().enumerate() {
        for (i, &k) in common::K_STRADDLING_KB.iter().enumerate() {
            let n = common::WIDTHS[(s + i) % common::WIDTHS.len()];
            common::check_zero_share_matmuls(9 + i, k, n, share, 10 * s as u64 + i as u64);
        }
        // `tn` walks a k-row of `A: [k, m]` by visit list: m past one list.
        common::check_zero_share_matmuls(300, 17, 16, share, 60 + s as u64);
        common::check_zero_share_matmuls(513, 9, 47, share, 65 + s as u64);
    }
}

/// Lengths below, at and across the 8-lane, 32-lane and 4096-element
/// chunk boundaries of the elementwise kernels.
#[test]
fn elementwise_ops_match_their_scalar_definitions() {
    for (i, &(rows, cols)) in [
        (1usize, 1usize),
        (1, 7),
        (3, 11),
        (1, 32),
        (5, 37),
        (2, 4099),
    ]
    .iter()
    .enumerate()
    {
        common::check_elementwise(rows, cols, 500 + i as u64);
    }
}

/// The four-row dropout draw at every level against each row's own
/// `SmallRng` stream.
#[test]
fn dropout_masks_agree_across_levels() {
    common::check_dropout_levels();
}

/// The fused GAT forward and backward against their oracles on a block
/// whose source rows (6 000 x 256 floats, 6 MB) do not fit in L2, with
/// the paper's 4 heads and fanout: the rows the aggregation's first tile
/// prefetches and the walk's look-ahead lines really are misses here.
#[test]
fn fused_gat_kernels_match_their_oracles_past_l2() {
    let (heads, head_dim) = (4, 64);
    let c = heads * head_dim;
    let b = block(1024, 6000, 30, 4242);
    let h = features_with_zeros(b.num_src, c, 4243);
    let w = mat(b.num_edges(), heads, 4244);
    let bias = mat(1, c, 4245);
    let up = mat(b.num_dst, c, 4246);
    let mut want_y = Matrix::empty();
    ops::add_bias(
        &spmm_reference(&b, &h, Some(&w), heads, Agg::Sum),
        bias.row(0),
        &mut want_y,
    );
    let want_dh = spmm_backward_src_reference(&b, &up, Some(&w), heads, Agg::Sum);
    let want_dw = sddmm(&b, &up, &h, heads, Agg::Sum);
    for level in levels() {
        let what = level.name();
        let mut y = dirty();
        gat_aggregate_into_with(level, &b, &h, &w, heads, bias.row(0), None, &mut y);
        assert_bits_eq(&y, &want_y, &format!("gat_aggregate past L2 {what}"));
        let mut grad = up.clone();
        let (mut dh, mut dw, mut db) = (dirty(), dirty(), vec![f32::NAN; c]);
        let mut rev = ReverseScratch::default();
        gat_aggregate_backward_into_with(
            level, &b, &mut grad, None, &h, &w, &mut dh, &mut dw, &mut db, &mut rev,
        );
        assert_bits_eq(&dh, &want_dh, &format!("gat_aggregate dh past L2 {what}"));
        assert_bits_eq(&dw, &want_dw, &format!("gat_aggregate datt past L2 {what}"));
    }
}

/// Row widths below, at and across the mask's 64-bit word boundary.
#[test]
fn dropout_matches_the_loop_it_replaced() {
    for (i, &(rows, cols)) in [
        (1usize, 1usize),
        (3, 1),
        (7, 33),
        (3, 63),
        (2, 64),
        (5, 65),
        (4, 129),
        (1, 1000),
        (40, 256),
    ]
    .iter()
    .enumerate()
    {
        common::check_dropout(rows, cols, 900 + i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_share_matmuls_match_on_random_shapes(
        m in 1usize..40,
        k in 0usize..8,
        n in 0usize..4,
        share in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let (k, n) = (common::K_STRADDLING_KB[k], common::WIDTHS[n]);
        common::check_zero_share_matmuls(m, k, n, common::ZERO_SHARES[share], seed);
    }

    #[test]
    fn elementwise_and_dropout_match_on_random_shapes(
        rows in 1usize..9,
        cols in 1usize..700,
        seed in 0u64..10_000,
    ) {
        common::check_elementwise(rows, cols, seed);
        common::check_dropout(rows, cols, seed);
    }
}

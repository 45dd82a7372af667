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
//! The second half pins the GAT kernel families — g-SDDMM, weighted
//! multi-head g-SpMM (forward and backward-src), edge softmax (forward
//! and backward), edge scores and the narrow-`n`/`k` matmuls — the same
//! way, always writing into dirty (NaN-filled, wrongly shaped) pooled
//! buffers. Nothing is `#[cfg]`-gated: off x86, or under CI's
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
use wg_tensor::ops::{
    matmul_into_with, matmul_nt_into_with, matmul_nt_reference, matmul_reference,
    matmul_tn_into_with, matmul_tn_reference,
};
use wg_tensor::simd::{self, Level};
use wg_tensor::sparse::{
    edge_scores_backward_into, edge_scores_into, edge_softmax_backward_into_with,
    edge_softmax_backward_reference, edge_softmax_into_with, edge_softmax_reference,
    sddmm_into_with, sddmm_reference, spmm_backward_src_into_with, spmm_backward_src_reference,
    spmm_into_with, spmm_reference, Agg, BlockCsr, ReverseScratch,
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

#[test]
fn dense_kernels_bit_identical_at_every_level() {
    for level in levels() {
        for (i, &(m, k, n)) in DENSE_SHAPES.iter().enumerate() {
            let seed = 100 + i as u64;
            let a = mat(m, k, seed);
            let b = mat(k, n, seed ^ 0x5a);
            let at = mat(k, m, seed ^ 0xa5);
            let bt = mat(n, k, seed ^ 0x3c);
            let name = level.name();

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
        for (dst, src, fanout, channels, heads, seed) in [
            (1usize, 2usize, 1usize, 1usize, 1usize, 20u64),
            (7, 15, 3, 9, 1, 21),    // one lane + tail
            (23, 60, 5, 31, 1, 22),  // just under a lane block
            (40, 100, 8, 33, 3, 23), // multi-head, 32 + tail
            (16, 50, 4, 64, 4, 24),
        ] {
            let b = block(dst, src, fanout, seed);
            let x = mat(src, channels, seed ^ 0x77);
            let w = mat(b.num_edges(), heads, seed ^ 0x88);
            let name = level.name();
            for agg in [Agg::Mean, Agg::Sum] {
                for weights in [None, Some(&w)] {
                    let mut y = Matrix::empty();
                    spmm_into_with(level, &b, &x, weights, heads, agg, &mut y);
                    assert_bits_eq(
                        &y,
                        &spmm_reference(&b, &x, weights, heads, agg),
                        &format!("spmm/{name}"),
                    );
                    let mut g = Matrix::empty();
                    let mut rev = ReverseScratch::default();
                    spmm_backward_src_into_with(
                        level, &b, &y, weights, heads, agg, &mut g, &mut rev,
                    );
                    assert_bits_eq(
                        &g,
                        &spmm_backward_src_reference(&b, &y, weights, heads, agg),
                        &format!("spmm_backward/{name}"),
                    );
                }
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
    for channels in [1usize, 8, 17, 33, 64] {
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

#[test]
fn copy_slice_matches_at_every_level_and_width() {
    let mut rng = SmallRng::seed_from_u64(50);
    // Widths straddle the 32-byte lane and the 128-byte unroll of the
    // AVX2 byte-stream copy, in both f32 (4 B) and u64 (8 B) elements.
    for level in levels() {
        for n in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100, 256, 1000] {
            let src: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut dst = vec![f32::NAN; n];
            simd::copy_slice(level, &mut dst, &src);
            for (x, y) in dst.iter().zip(&src) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            let src64: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
            let mut dst64 = vec![0u64; n];
            simd::copy_slice(level, &mut dst64, &src64);
            assert_eq!(dst64, src64);
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

/// Every GAT sparse kernel at every level against its oracle, on one
/// block and one `(heads, head_dim)` shape.
fn check_sparse_kernels(b: &BlockCsr, heads: usize, head_dim: usize, seed: u64) {
    let channels = heads * head_dim;
    let (e, what) = (b.num_edges(), format!("heads {heads} x dim {head_dim}"));
    let a_dst = mat(b.num_dst, channels, seed);
    let b_src = mat(b.num_src, channels, seed ^ 0x51);
    let w = mat(e, heads, seed ^ 0x77);
    let up = mat(e, heads, seed ^ 0x99);
    let soft_ref = edge_softmax_reference(b, &w);
    let soft_bwd_ref = edge_softmax_backward_reference(b, &soft_ref, &up);
    for level in levels() {
        let name = level.name();
        let mut out = dirty();
        for agg in [Agg::Sum, Agg::Mean] {
            sddmm_into_with(level, b, &a_dst, &b_src, heads, agg, &mut out);
            let want = sddmm_reference(b, &a_dst, &b_src, heads, agg);
            assert_bits_eq(&out, &want, &format!("sddmm/{name} {agg:?} {what}"));

            spmm_into_with(level, b, &b_src, Some(&w), heads, agg, &mut out);
            let want = spmm_reference(b, &b_src, Some(&w), heads, agg);
            assert_bits_eq(&out, &want, &format!("spmm_weighted/{name} {agg:?} {what}"));

            let mut rev = ReverseScratch::default();
            spmm_backward_src_into_with(level, b, &a_dst, Some(&w), heads, agg, &mut out, &mut rev);
            let want = spmm_backward_src_reference(b, &a_dst, Some(&w), heads, agg);
            assert_bits_eq(
                &out,
                &want,
                &format!("spmm_weighted_bwd/{name} {agg:?} {what}"),
            );
        }
        edge_softmax_into_with(level, b, &w, &mut out);
        assert_bits_eq(&out, &soft_ref, &format!("edge_softmax/{name} {what}"));
        edge_softmax_backward_into_with(level, b, &soft_ref, &up, &mut out);
        assert_bits_eq(
            &out,
            &soft_bwd_ref,
            &format!("edge_softmax_bwd/{name} {what}"),
        );
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
/// the max subtraction is part of the pinned float sequence.
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
        let want = edge_softmax_reference(&b, &logits);
        assert!(want.data().iter().all(|v| v.is_finite()));
        for level in levels() {
            let mut out = dirty();
            edge_softmax_into_with(level, &b, &logits, &mut out);
            assert_bits_eq(&out, &want, &format!("edge_softmax/{}", level.name()));
        }
    }
}

/// `edge_scores` moved out of the tape without an oracle of its own; this
/// is the tape's old `get`/`set` loop.
#[test]
fn edge_scores_match_the_per_element_loop() {
    for degrees in degree_patterns() {
        let b = block_with_degrees(&degrees, 6, 3);
        for heads in [1usize, 2, 4] {
            let (sd, ss) = (mat(b.num_dst, heads, 4), mat(b.num_src, heads, 5));
            let grad = mat(b.num_edges(), heads, 6);
            let mut want = Matrix::zeros(b.num_edges(), heads);
            let mut want_gd = Matrix::zeros(b.num_dst, heads);
            let mut want_gs = Matrix::zeros(b.num_src, heads);
            for d in 0..b.num_dst {
                for e in b.offsets[d] as usize..b.offsets[d + 1] as usize {
                    let s = b.indices[e] as usize;
                    for h in 0..heads {
                        want.set(e, h, sd.get(d, h) + ss.get(s, h));
                        want_gd.set(d, h, want_gd.get(d, h) + grad.get(e, h));
                        want_gs.set(s, h, want_gs.get(s, h) + grad.get(e, h));
                    }
                }
            }
            let (mut out, mut gd, mut gs) = (dirty(), dirty(), dirty());
            edge_scores_into(&b, &sd, &ss, &mut out);
            assert_bits_eq(&out, &want, "edge_scores");
            edge_scores_backward_into(&b, &grad, &mut gd, &mut gs);
            assert_bits_eq(&gd, &want_gd, "edge_scores grad_dst");
            assert_bits_eq(&gs, &want_gs, "edge_scores grad_src");
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

    /// The unrolled checksum is byte-identical to the naive serial fold
    /// (one word-sized `(h ^ w) * prime` step per element — the repo's
    /// witness convention) for any length, including the 0..3 remainder
    /// cases, and chains across arbitrary split points exactly like one
    /// flat pass.
    #[test]
    fn fnv1a_unroll_matches_naive_fold(
        data in proptest::collection::vec(-1.0e30f32..1.0e30, 0..200),
        split in 0usize..200,
    ) {
        let naive = data.iter().fold(simd::FNV_OFFSET, |h, v| {
            (h ^ v.to_bits() as u64).wrapping_mul(simd::FNV_PRIME)
        });
        prop_assert_eq!(simd::fnv1a_f32(simd::FNV_OFFSET, &data), naive);
        let split = split.min(data.len());
        let chained = simd::fnv1a_f32(
            simd::fnv1a_f32(simd::FNV_OFFSET, &data[..split]),
            &data[split..],
        );
        prop_assert_eq!(chained, naive);
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

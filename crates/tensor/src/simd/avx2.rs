//! The AVX2 level of the dispatched kernels in [`super`].
//!
//! Most kernels here are a one-line safe `#[target_feature(enable =
//! "avx2")] fn` that calls the kernel's `#[inline(always)]` body in
//! `super::body`, which inlines into it and is so compiled with AVX2. Each
//! has its own name: a closure handed to one generic `with_avx2` would not
//! be compiled with the caller's features.
//!
//! The kernels after the wrappers keep hand intrinsics, their portable
//! form having measured slower (DESIGN.md §10): the row-lane transposes
//! ([`cols4`]: [`transpose`], the dot half of
//! [`weighted_spmm_backward_row`], [`matmul_narrow_n`]), the flat sweep of
//! [`tn_accumulate_narrow`], the four xoshiro lanes of
//! [`dropout_mask_rows4`] and the `movemask` compaction of [`visit_list`].
//! Their memory goes through five helpers ([`load8`], [`store8`],
//! [`load8_masked`], [`load4`], [`load4_masked`]), each cutting the range
//! its intrinsic touches out of a slice with a checked index: the only
//! code here the compiler does not check is that intrinsic's access.
//! Their lanes are independent output elements, and multiply and add are
//! separate intrinsics, never `fmadd`.

// The `0..N` loops index the lanes of several registers together, so
// enumerate() has nothing to iterate over there.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use super::{body, unpack_edge, VisitBuf};

// ---------------------------------------------------------------------------
// One body, compiled for AVX2: each wrapper is the body's one call.
// ---------------------------------------------------------------------------

/// [`body::matmul_tile`] for `R` rows (`R = 2`: dense rows only).
#[target_feature(enable = "avx2")]
pub fn matmul_tile<const R: usize>(
    a: [&[f32]; R],
    list: Option<&[u16]>,
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    body::matmul_tile(a, list, panel, c, ldc, first)
}

/// [`body::spmm_gather_rowtile`].
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub fn spmm_gather_rowtile(
    indices: &[u32],
    weights: Option<(&[f32], usize)>,
    src: &[f32],
    lds: usize,
    j0: usize,
    scale: f32,
    acc: &mut [f32],
    ahead: &[u32],
) {
    body::spmm_gather_rowtile(indices, weights, src, lds, j0, scale, acc, ahead)
}

/// [`body::spmm_scatter_rowtile`].
#[target_feature(enable = "avx2")]
pub fn spmm_scatter_rowtile(
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    grad: &[f32],
    ldg: usize,
    j0: usize,
    acc: &mut [f32],
) {
    body::spmm_scatter_rowtile(dsts, offsets, mean, grad, ldg, j0, acc)
}

/// [`body::scores_backward_row`].
#[target_feature(enable = "avx2")]
pub fn scores_backward_row(g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
    body::scores_backward_row(g, at, dh, fresh)
}

/// [`body::matmul_narrow_k`].
#[target_feature(enable = "avx2")]
pub fn matmul_narrow_k(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32], skip_zero: bool) {
    body::matmul_narrow_k(a, k, b, n, c, skip_zero)
}

/// [`body::edge_softmax_dst`].
#[target_feature(enable = "avx2")]
pub fn edge_softmax_dst(x: &mut [f32], heads: usize) {
    body::edge_softmax_dst(x, heads)
}

/// [`body::edge_softmax_backward_dst`].
#[target_feature(enable = "avx2")]
pub fn edge_softmax_backward_dst(soft: &[f32], grad: &mut [f32], heads: usize) {
    body::edge_softmax_backward_dst(soft, grad, heads)
}

/// [`body::add_assign`].
#[target_feature(enable = "avx2")]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    body::add_assign(dst, src)
}

// ---------------------------------------------------------------------------
// Memory access: each helper cuts the range its intrinsic touches out of a
// slice (a checked index, which panics past the end) and touches that
// range only.
// ---------------------------------------------------------------------------

/// `s[at..at + 8]` as one vector.
#[inline]
#[target_feature(enable = "avx2")]
fn load8(s: &[f32], at: usize) -> __m256 {
    let s = &s[at..at + 8];
    // SAFETY: `s` is the eight floats the load reads.
    unsafe { _mm256_loadu_ps(s.as_ptr()) }
}

/// Store `v` to `s[at..at + 8]`.
#[inline]
#[target_feature(enable = "avx2")]
fn store8(s: &mut [f32], at: usize, v: __m256) {
    let s = &mut s[at..at + 8];
    // SAFETY: `s` is the eight floats the store writes.
    unsafe { _mm256_storeu_ps(s.as_mut_ptr(), v) }
}

/// The first `n <= 8` lanes of a vector, as the mask a masked load or
/// store takes. Built from `n` alone, so the two cannot disagree.
#[derive(Clone, Copy)]
struct Lanes {
    n: usize,
    mask: __m256i,
}

impl Lanes {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn first(n: usize) -> Self {
        assert!(n <= 8, "a vector has eight lanes, not {n}");
        let ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), ids);
        Lanes { n, mask }
    }
}

/// `s[at..at + lanes.n]` in the low lanes, zero in the rest.
#[inline]
#[target_feature(enable = "avx2")]
fn load8_masked(s: &[f32], at: usize, lanes: Lanes) -> __m256 {
    let s = &s[at..at + lanes.n];
    // SAFETY: the mask sets the first `lanes.n` lanes, all inside `s`; a
    // masked-off lane is neither read nor able to fault.
    unsafe { _mm256_maskload_ps(s.as_ptr(), lanes.mask) }
}

/// `s[at..at + 4]` as one 128-bit vector.
#[inline]
#[target_feature(enable = "avx2")]
fn load4(s: &[f32], at: usize) -> __m128 {
    let s = &s[at..at + 4];
    // SAFETY: `s` is the four floats the load reads.
    unsafe { _mm_loadu_ps(s.as_ptr()) }
}

/// The first `min(lanes.n, 4)` floats of `s[at..]` in the low lanes of a
/// 128-bit vector, zero in the rest.
#[inline]
#[target_feature(enable = "avx2")]
fn load4_masked(s: &[f32], at: usize, lanes: Lanes) -> __m128 {
    let s = &s[at..at + lanes.n];
    // SAFETY: the mask's low half sets the first `min(lanes.n, 4)` lanes,
    // all inside `s`; a masked-off lane is neither read nor able to fault.
    unsafe { _mm_maskload_ps(s.as_ptr(), _mm256_castsi256_si128(lanes.mask)) }
}

/// The eight lanes of `v` as floats.
#[inline]
#[target_feature(enable = "avx2")]
fn lanes_of(v: __m256) -> [f32; 8] {
    let mut out = [0.0f32; 8];
    store8(&mut out, 0, v);
    out
}

// ---------------------------------------------------------------------------
// Row-lane kernels. A dot product over channels (g-SDDMM) or over `k` (a
// matmul with only a few output columns) is ONE output element, so its
// sum cannot be spread over lanes. Instead the eight lanes are eight
// *rows* — eight incoming edges of one source, eight rows of `A` — loaded
// contiguously, transposed in registers, and each lane runs the scalar
// ascending-index sum of its own row. Ragged groups are padded with a
// repeat of the last valid row and the padded lanes are never stored.
// ---------------------------------------------------------------------------

/// Columns `off..off+4` of eight rows, transposed: lane `l` of `out[t]` is
/// `rows[l][off + t]`. Under `MASKED` only the first `tail.n` of the four
/// columns are read (the ragged end of a row), the others come back zero.
#[inline]
#[target_feature(enable = "avx2")]
fn cols4<const MASKED: bool>(rows: &[&[f32]; 8], off: usize, tail: Lanes) -> [__m256; 4] {
    let half = |row: &[f32]| {
        if MASKED {
            load4_masked(row, off, tail)
        } else {
            load4(row, off)
        }
    };
    let mut pair = [_mm256_setzero_ps(); 4];
    for i in 0..4 {
        let (lo, hi) = (half(rows[i]), half(rows[i + 4]));
        pair[i] = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
    }
    // A 4x4 transpose in each 128-bit half: rows 0-3 low, rows 4-7 high.
    let t0 = _mm256_unpacklo_ps(pair[0], pair[1]);
    let t1 = _mm256_unpackhi_ps(pair[0], pair[1]);
    let t2 = _mm256_unpacklo_ps(pair[2], pair[3]);
    let t3 = _mm256_unpackhi_ps(pair[2], pair[3]);
    [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ]
}

/// AVX2 block transpose `dst[c*ld_dst + r] = src[r*ld_src + c]` (`r <
/// rows`, `c < cols`): eight source rows at a time, four columns of them
/// transposed in registers ([`cols4`]) and stored as four 8-float runs of
/// destination rows. The ragged last rows and columns are copied element
/// by element.
#[target_feature(enable = "avx2")]
pub fn transpose(
    src: &[f32],
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ld_dst: usize,
) {
    let (rows8, cols4_end) = (rows / 8 * 8, cols / 4 * 4);
    let whole = Lanes::first(4);
    for r0 in (0..rows8).step_by(8) {
        let lanes = lane_rows(src, ld_src, cols, 8, |l| r0 + l);
        for (q, quad) in quads(lanes).enumerate() {
            let t = cols4::<false>(&quad, 0, whole);
            for (i, v) in t.into_iter().enumerate() {
                store8(dst, (4 * q + i) * ld_dst + r0, v);
            }
        }
    }
    for r in 0..rows {
        let from = if r < rows8 { cols4_end } else { 0 };
        for c in from..cols {
            dst[c * ld_dst + r] = src[r * ld_src + c];
        }
    }
}

/// The rows of one lane group, `len` floats each (rows `ld` apart in
/// `data`): lane `l` is row `index(min(l, valid-1))` — the padding lanes
/// repeat the last valid row.
#[inline]
fn lane_rows(
    data: &[f32],
    ld: usize,
    len: usize,
    valid: usize,
    index: impl Fn(usize) -> usize,
) -> [&[f32]; 8] {
    std::array::from_fn(|l| &data[index(l.min(valid - 1)) * ld..][..len])
}

/// Columns `4q..4q + 4` of eight rows, for `q` ascending over the whole
/// quads the shortest row holds: the rows walk in lockstep, so a quad
/// costs no check of its own (indexing eight separate rows would check
/// each against its own length).
fn quads(rows: [&[f32]; 8]) -> impl Iterator<Item = [&[f32]; 8]> {
    let [a, b, c, d, e, f, g, h] = rows.map(|row| row.chunks_exact(4));
    a.zip(b)
        .zip(c)
        .zip(d)
        .zip(e)
        .zip(f)
        .zip(g)
        .zip(h)
        .map(|(((((((a, b), c), d), e), f), g), h)| [a, b, c, d, e, f, g, h])
}

/// AVX2 weighted g-SpMM backward of one source row (see
/// [`super::weighted_spmm_backward_row`]). The incoming edges go eight at
/// a time: their gradient rows are the lanes of the per-head dot products
/// with `hrow` (the edge-lane rule: each lane is one edge's ascending-
/// channel sum from `0.0`, the product `grad * h` as g-SDDMM forms it),
/// then, from L1, the terms of `dh`, added a channel block at a time in
/// edge order. The next eight rows are prefetched while these are used.
/// `heads` divides `hrow.len() == dh.len()`, the dispatcher's check.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub fn weighted_spmm_backward_row(
    pairs: &[u64],
    att: &[f32],
    heads: usize,
    grad: &[f32],
    hrow: &[f32],
    dh: &mut [f32],
    next: &[u64],
    datt: &mut impl FnMut(usize, usize, f32),
) {
    let c = hrow.len();
    let head_dim = c / heads;
    dh.fill(0.0);
    let tail = Lanes::first(head_dim % 4);
    for (g, group) in pairs.chunks(8).enumerate() {
        let valid = group.len();
        let rows = lane_rows(grad, c, c, valid, |l| unpack_edge(group[l]).0);
        let rest = &pairs[8 * g + valid..];
        let ahead = if rest.is_empty() { next } else { rest };
        for &pair in ahead.iter().take(8) {
            let d = unpack_edge(pair).0;
            super::prefetch(&grad[d * c..][..c], false);
        }
        let mut w = [0.0f32; 8];
        for h in 0..heads {
            let base = h * head_dim;
            let hh = &hrow[base..][..head_dim];
            let head_rows = rows.map(|row| &row[base..][..head_dim]);
            let mut acc = _mm256_setzero_ps();
            let whole = hh.chunks_exact(4);
            let j = head_dim - whole.remainder().len();
            for (quad, h4) in quads(head_rows).zip(whole) {
                let cols = cols4::<false>(&quad, 0, tail);
                for t in 0..4 {
                    let hv = _mm256_set1_ps(h4[t]);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(cols[t], hv));
                }
            }
            if tail.n > 0 {
                let cols = cols4::<true>(&head_rows, j, tail);
                for t in 0..tail.n {
                    let hv = _mm256_set1_ps(hh[j + t]);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(cols[t], hv));
                }
            }
            let lanes = lanes_of(acc);
            for l in 0..valid {
                let e = unpack_edge(group[l]).1;
                datt(e, h, lanes[l]);
                w[l] = att[e * heads + h];
            }
            let dh = &mut dh[base..][..head_dim];
            body::dh_accumulate(&head_rows[..valid], &w[..valid], dh);
        }
    }
}

/// Eight rows of `A` against all `N` columns of a narrow `B`: lane `r` of
/// `acc[j]` is `C[i0+r, j]`, summed over `l` in ascending order with the
/// zero-skip rule applied per lane (a skipped lane keeps its old value).
#[target_feature(enable = "avx2")]
fn narrow_n_rows<const N: usize>(
    rows: &[&[f32]; 8],
    k: usize,
    b: &[f32],
    skip_zero: bool,
) -> [__m256; N] {
    let zero = _mm256_setzero_ps();
    let mut acc = [zero; N];
    let tail = Lanes::first(k % 4);
    let brows = b.as_chunks::<N>().0;
    let mut l0 = 0;
    while l0 < k {
        let width = (k - l0).min(4);
        let cols = if width == 4 {
            cols4::<false>(rows, l0, tail)
        } else {
            cols4::<true>(rows, l0, tail)
        };
        for t in 0..width {
            let col = cols[t];
            let brow = &brows[l0 + t];
            let skipped = _mm256_cmp_ps::<_CMP_EQ_OQ>(col, zero);
            if skip_zero && _mm256_movemask_ps(skipped) != 0 {
                for j in 0..N {
                    let bv = _mm256_set1_ps(brow[j]);
                    let sum = _mm256_add_ps(acc[j], _mm256_mul_ps(col, bv));
                    acc[j] = _mm256_blendv_ps(sum, acc[j], skipped);
                }
            } else {
                for j in 0..N {
                    let bv = _mm256_set1_ps(brow[j]);
                    acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(col, bv));
                }
            }
        }
        l0 += width;
    }
    acc
}

#[target_feature(enable = "avx2")]
fn matmul_narrow_n_impl<const N: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    c: &mut [f32],
    skip_zero: bool,
) {
    let m = c.len() / N;
    for i0 in (0..m).step_by(8) {
        let valid = (m - i0).min(8);
        let rows = lane_rows(a, k, k, valid, |l| i0 + l);
        let acc = narrow_n_rows::<N>(&rows, k, b, skip_zero);
        for j in 0..N {
            let lanes = lanes_of(acc[j]);
            for r in 0..valid {
                c[(i0 + r) * N + j] = lanes[r];
            }
        }
    }
}

/// AVX2 `C = A·B` for `B: [k, n]` with `n <= 8`: `c[i*n+j] = Σ_l
/// a[i*k+l]·b[l*n+j]`, ascending `l` from `0.0`, optional zero-skip on
/// `a[i*k+l]`.
#[target_feature(enable = "avx2")]
pub fn matmul_narrow_n(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32], skip_zero: bool) {
    match n {
        1 => matmul_narrow_n_impl::<1>(a, k, b, c, skip_zero),
        2 => matmul_narrow_n_impl::<2>(a, k, b, c, skip_zero),
        3 => matmul_narrow_n_impl::<3>(a, k, b, c, skip_zero),
        4 => matmul_narrow_n_impl::<4>(a, k, b, c, skip_zero),
        5 => matmul_narrow_n_impl::<5>(a, k, b, c, skip_zero),
        6 => matmul_narrow_n_impl::<6>(a, k, b, c, skip_zero),
        7 => matmul_narrow_n_impl::<7>(a, k, b, c, skip_zero),
        8 => matmul_narrow_n_impl::<8>(a, k, b, c, skip_zero),
        _ => unreachable!("matmul_narrow_n: n = {n} is not narrow"),
    }
}

/// AVX2 `matmul_tn` chunk for `B: [rows, n]` with `n <= 8`: the `[m, n]`
/// accumulator is swept as a flat array, eight floats — `8/n` rows by `n`
/// columns when `n` divides 8 (2 rows x 4 cols at `n = 4`) — per vector:
/// flat element `f` gets `a[l, f / n] * b[l, f % n]`, both operands
/// permuted into place from one load each. Rows with `a[l, i] == 0` keep
/// their old value (the reference's zero-skip), k-rows ascend.
#[target_feature(enable = "avx2")]
pub fn tn_accumulate_narrow(a: &[f32], m: usize, b: &[f32], n: usize, acc: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    // Eight rows of `a` cover `n` accumulator vectors; vector `v` lane `x`
    // is flat element `8v + x` of that group.
    let index = |v: usize, f: fn(usize, usize) -> usize| {
        let x = |lane: usize| f(v * 8 + lane, n) as i32;
        _mm256_setr_epi32(x(0), x(1), x(2), x(3), x(4), x(5), x(6), x(7))
    };
    let ridx: [__m256i; 8] = std::array::from_fn(|v| index(v, |f, n| f / n));
    let cidx: [__m256i; 8] = std::array::from_fn(|v| index(v, |f, n| f % n));
    let tail = Lanes::first(n);
    let m8 = m / 8 * 8;
    for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let b8 = load8_masked(brow, 0, tail);
        let mut bv = [zero; 8];
        for v in 0..n {
            bv[v] = _mm256_permutevar8x32_ps(b8, cidx[v]);
        }
        // Eight rows of `a` at a time, against their `n` accumulator
        // vectors: one check per group, none per vector.
        let groups = arow.as_chunks::<8>().0.iter();
        for (a8, group) in groups.zip(acc[..m8 * n].chunks_exact_mut(8 * n)) {
            let a8 = load8(a8, 0);
            let zeros = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(a8, zero));
            if zeros == 0xff {
                continue;
            }
            let vectors = group.as_chunks_mut::<8>().0.iter_mut();
            for (out, (&ri, &bvv)) in vectors.zip(ridx.iter().zip(&bv)) {
                let av = _mm256_permutevar8x32_ps(a8, ri);
                let old = load8(out, 0);
                let mut sum = _mm256_add_ps(old, _mm256_mul_ps(av, bvv));
                if zeros != 0 {
                    sum = _mm256_blendv_ps(sum, old, _mm256_cmp_ps::<_CMP_EQ_OQ>(av, zero));
                }
                store8(out, 0, sum);
            }
        }
        for i in m8..m {
            let x = arow[i];
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                acc[i * n + j] += x * brow[j];
            }
        }
    }
}

/// The four-word state `SmallRng::seed_from_u64(seed)` starts from: four
/// SplitMix64 outputs.
fn splitmix_state(mut x: u64) -> [u64; 4] {
    [0; 4].map(|_| {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    })
}

/// `x` rotated left by `R` bits in each 64-bit lane (`L` = 64 - `R`).
#[inline]
#[target_feature(enable = "avx2")]
fn rotl<const R: i32, const L: i32>(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<R>(x), _mm256_srli_epi64::<L>(x))
}

/// Four rows' dropout masks (see [`super::dropout_mask_rows4`]): lane `r`
/// of the four state vectors is row `r`'s xoshiro256++ state, each step
/// yields one draw per row, and a draw `x` keeps its element where `x >>
/// 40` is at least `threshold`. Bit `j` of a row's word is set through a
/// one-hot lane that shifts left every step, and the words are stored
/// through `mask`'s own indexing.
#[target_feature(enable = "avx2")]
pub fn dropout_mask_rows4(mask: &mut [u64], cols: usize, threshold: u64, seeds: [u64; 4]) {
    let words = cols.div_ceil(64);
    assert_eq!(mask.len(), 4 * words, "dropout mask: four rows of words");
    let rows = seeds.map(splitmix_state);
    let lanes = |i: usize| {
        let [a, b, c, d] = [0, 1, 2, 3].map(|r| rows[r][i] as i64);
        _mm256_setr_epi64x(a, b, c, d)
    };
    let (mut s0, mut s1, mut s2, mut s3) = (lanes(0), lanes(1), lanes(2), lanes(3));
    // `x >> 40 < 2^24` and `threshold <= 2^24`: the signed compare is exact.
    let limit = _mm256_set1_epi64x(threshold as i64);
    for w in 0..words {
        let mut bits = _mm256_setzero_si256();
        let mut bit = _mm256_set1_epi64x(1);
        for _ in 0..(cols - w * 64).min(64) {
            // xoshiro256++: the output, then the state update.
            let x = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(s0, s3)), s0);
            let t = _mm256_slli_epi64::<17>(s1);
            s2 = _mm256_xor_si256(s2, s0);
            s3 = _mm256_xor_si256(s3, s1);
            s1 = _mm256_xor_si256(s1, s2);
            s0 = _mm256_xor_si256(s0, s3);
            s2 = _mm256_xor_si256(s2, t);
            s3 = rotl::<45, 19>(s3);
            let dropped = _mm256_cmpgt_epi64(limit, _mm256_srli_epi64::<40>(x));
            bits = _mm256_or_si256(bits, _mm256_andnot_si256(dropped, bit));
            bit = _mm256_add_epi64(bit, bit);
        }
        mask[w] = _mm256_extract_epi64::<0>(bits) as u64;
        mask[words + w] = _mm256_extract_epi64::<1>(bits) as u64;
        mask[2 * words + w] = _mm256_extract_epi64::<2>(bits) as u64;
        mask[3 * words + w] = _mm256_extract_epi64::<3>(bits) as u64;
    }
}

/// Per byte of nonzero flags: the positions of its set bits, ascending
/// (the rest zero), and how many there are.
static VISIT_POSITIONS: [([u8; 8], u8); 256] = visit_positions();

const fn visit_positions() -> [([u8; 8], u8); 256] {
    let mut table = [([0u8; 8], 0u8); 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut n) = (0, 0);
        while bit < 8 {
            if (byte >> bit) & 1 != 0 {
                table[byte].0[n] = bit as u8;
                n += 1;
            }
            bit += 1;
        }
        table[byte].1 = n as u8;
        byte += 1;
    }
    table
}

/// [`super::RowVisits::listed`]'s list, eight elements a time: one compare
/// and `movemask` give the group's nonzero flags as a byte, whose
/// ascending set positions ([`VISIT_POSITIONS`]) plus the group's offset
/// are stored as eight slots at once, and the list end advances by their
/// count. Slots past the end hold garbage the next group overwrites. The
/// compare is not-equal-or-unordered, the scalar `av != 0.0`: `±0.0` is
/// skipped, NaN is visited. Returns the list length.
#[target_feature(enable = "avx2")]
pub fn visit_list(arow: &[f32], buf: &mut VisitBuf) -> usize {
    let zero = _mm256_setzero_ps();
    let mut n = 0;
    let mut groups = arow.chunks_exact(8);
    for (g, v) in (&mut groups).enumerate() {
        let v: &[f32; 8] = v.try_into().expect("eight lanes");
        let v = _mm256_setr_ps(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
        let flags = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero)) as usize;
        let (positions, count) = &VISIT_POSITIONS[flags];
        // `n <= 8g` and `8g + 8 <= arow.len() <= VISIT_CAP`: all eight fit.
        for (slot, &p) in buf[n..n + 8].iter_mut().zip(positions) {
            *slot = (8 * g) as u16 + u16::from(p);
        }
        n += usize::from(*count);
    }
    super::visit_list_tail(arow, arow.len() - groups.remainder().len(), n, buf)
}

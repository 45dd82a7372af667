//! AVX2 implementations of the dispatched kernels in [`super`].
//!
//! Every kernel here is a safe `#[target_feature(enable = "avx2")] fn`
//! over slices: the feature is its one requirement, and the dispatch arm
//! in [`super`] that calls it checks the host has it. Memory is touched
//! only through the helpers in the next section — [`load8`] / [`store8`]
//! (eight floats), [`load8_masked`] / [`store8_masked`] (the first
//! [`Lanes`] of eight), [`load4`] / [`load4_masked`] (the 128-bit half rows
//! [`cols4`] transposes, and the heads-as-lanes edge softmax) and
//! [`store4`]. Each cuts the range its intrinsic touches out of a slice
//! with a checked index, and is the only code in this file the compiler
//! does not check: the intrinsic's access to that range. So a source row past `src`, an edge
//! id past `att` or a panel one row short panics at the cut; no kernel can
//! read or write outside its operands.
//!
//! Bit-identity discipline, enforced throughout this file:
//!
//! * vector lanes are always eight **independent output elements** — eight
//!   adjacent output columns `j` in the column-tile kernels, eight rows
//!   (incoming edges of one source, rows of `A`) in the row-lane kernels at
//!   the end of this file — and the reduction over `k`/edges/channels
//!   stays in program order per element;
//! * multiply and add are separate intrinsics (`_mm256_mul_ps` then
//!   `_mm256_add_ps`), matching the two separately-rounded scalar ops —
//!   intrinsics are never contraction-fused, so no implicit FMA;
//! * the zero-skip rule of the wide kernel (`matmul_tile`) arrives as a
//!   [`super::RowVisits`] list: the reference's non-skipped `l`,
//!   ascending, so the register tile walks it with no test on `arow`'s
//!   values — the same adds in the same order as the scalar loop that
//!   `continue`s, without its mispredicts on half-zero activations. The
//!   narrow kernels at the end of this file keep their per-lane blend;
//! * the 2-row tile (`matmul_tile::<2>`, rows with nothing to skip) holds
//!   two rows' accumulators — 2 x 4 YMM — and loads each row of the packed
//!   `B` panel once for both. A lane is still one output element `c[r][j]`
//!   summed over ascending `l` in its own register, exactly the one-row
//!   tile's sequence; the second row only fills the issue slots the first
//!   row's add chain leaves empty. Which rows share a tile is therefore
//!   invisible in the output.
//!
//! The checks sit where they cost least: one sub-slice per panel row,
//! source row, gradient row or edge group, after which the vector loads
//! inside it are at constant offsets the compiler proves in range.

// The `0..NV` loops index the register array and the `v * 8` lane
// offsets of one row together, so enumerate() has nothing to iterate over
// there.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use super::{unpack_edge, VisitBuf, TILE_COLS};

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

/// Store the low `lanes.n` lanes of `v` to `s[at..at + lanes.n]`.
#[inline]
#[target_feature(enable = "avx2")]
fn store8_masked(s: &mut [f32], at: usize, lanes: Lanes, v: __m256) {
    let s = &mut s[at..at + lanes.n];
    // SAFETY: the mask sets the first `lanes.n` lanes, all inside `s`; a
    // masked-off lane is neither written nor able to fault.
    unsafe { _mm256_maskstore_ps(s.as_mut_ptr(), lanes.mask, v) }
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

/// Store `v` to `s[at..at + 4]`.
#[inline]
#[target_feature(enable = "avx2")]
fn store4(s: &mut [f32], at: usize, v: __m128) {
    let s = &mut s[at..at + 4];
    // SAFETY: `s` is the four floats the store writes.
    unsafe { _mm_storeu_ps(s.as_mut_ptr(), v) }
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
// Column-tile kernels: lanes are eight adjacent output columns.
// ---------------------------------------------------------------------------

/// `R` rows by `NV` YMM lanes of one register tile: `c[r][j] = Σ a[r][l] *
/// panel[l*nb + j]` over the visited `l`, the `R * NV` accumulators in
/// registers across the whole walk and every panel row loaded once for
/// all `R` rows. `NV` = 4 is the full 32-wide panel; under `RAGGED` the
/// last of the `NV` vectors is loaded and stored through `tail` (the lanes
/// a narrower panel really has — masked-off lanes are neither read nor
/// written). `R` = 2 (dense rows only, `list` is `None`) gives the adds of
/// one row's chain another row's to hide behind. The accumulators start
/// from zero when `first`, else from `c`. The loop body is straight-line:
/// no test on `a`'s values.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tile_block<const NV: usize, const R: usize, const RAGGED: bool>(
    a: [&[f32]; R],
    list: Option<&[u16]>,
    panel: &[f32],
    nb: usize,
    c: &mut [f32],
    ldc: usize,
    first: bool,
    tail: Lanes,
) {
    // Equal lengths let the dense walk index every row without a check.
    let k = a[0].len();
    assert!(a.iter().all(|row| row.len() == k));
    // Vector `v` of one `nb`-wide row: the panel's or `c`'s.
    let load = |row: &[f32], v: usize| {
        if RAGGED && v == NV - 1 {
            load8_masked(row, v * 8, tail)
        } else {
            load8(row, v * 8)
        }
    };
    let mut acc = [[_mm256_setzero_ps(); NV]; R];
    if !first {
        for r in 0..R {
            let crow = &c[r * ldc..][..nb];
            for v in 0..NV {
                acc[r][v] = load(crow, v);
            }
        }
    }
    // Full-width panel rows as arrays, cut to the `k` rows the walk may
    // visit: indexing row `l` checks `l < k`, which makes `a[r][l]`'s
    // check redundant, and the loads inside it are at constant offsets.
    let (whole, _) = panel.as_chunks::<TILE_COLS>();
    let whole = if RAGGED { &whole[..0] } else { &whole[..k] };
    let mut step = |l: usize, prow: &[f32]| {
        let mut bv = [_mm256_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = load(prow, v);
        }
        for r in 0..R {
            let av = _mm256_set1_ps(a[r][l]);
            for v in 0..NV {
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
            }
        }
    };
    match list {
        None if RAGGED => (0..k)
            .zip(panel[..k * nb].chunks_exact(nb))
            .for_each(|(l, prow)| step(l, prow)),
        None => (0..k).zip(whole).for_each(|(l, prow)| step(l, prow)),
        Some(list) => list.iter().for_each(|&l| {
            let l = l as usize;
            if RAGGED {
                step(l, &panel[l * nb..][..nb])
            } else {
                step(l, &whole[l])
            }
        }),
    }
    for r in 0..R {
        let crow = &mut c[r * ldc..][..nb];
        for v in 0..NV {
            if RAGGED && v == NV - 1 {
                store8_masked(crow, v * 8, tail, acc[r][v])
            } else {
                store8(crow, v * 8, acc[r][v])
            }
        }
    }
}

/// AVX2 matmul register tile over a packed panel (`[a[0].len()][nb]`
/// contiguous): row `r` of the tile, `c[r*ldc..][..nb]`, gets `Σ a[r][l] *
/// panel[l*nb + j]` over the visited `l`, ascending — from `0.0` when
/// `first`, else added to what it holds. `nb <= TILE_COLS` is `c`'s length
/// past the last row's start; the `R` rows of `a` are equally long, and
/// `list`, if any, comes from a [`super::RowVisits`] over `a[0]`.
#[target_feature(enable = "avx2")]
pub fn matmul_tile<const R: usize>(
    a: [&[f32]; R],
    list: Option<&[u16]>,
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    let nb = c.len() - (R - 1) * ldc;
    assert!(nb <= TILE_COLS, "rowtile: panel of {nb} columns");
    // A narrower panel goes in one walk too: whole vectors, then one
    // masked to the panel's last `nb % 8` lanes.
    let tail = Lanes::first(if nb.is_multiple_of(8) { 8 } else { nb % 8 });
    match nb.div_ceil(8) {
        0 => {}
        // The full width as a literal: the list walk scales `l` by a
        // shift, not a multiply that competes with the tile for a port.
        4 if nb == TILE_COLS => {
            tile_block::<4, R, false>(a, list, panel, TILE_COLS, c, ldc, first, tail)
        }
        1 => tile_block::<1, R, true>(a, list, panel, nb, c, ldc, first, tail),
        2 => tile_block::<2, R, true>(a, list, panel, nb, c, ldc, first, tail),
        3 => tile_block::<3, R, true>(a, list, panel, nb, c, ldc, first, tail),
        _ => tile_block::<4, R, true>(a, list, panel, nb, c, ldc, first, tail),
    }
}

/// `acc += scale * src_row` over the edge list, `NV` lanes resident: edge
/// `i` adds columns `col..col + 8·NV` of source row `indices[i]` (rows
/// `lds` apart). With `W`, edge `i` is additionally weighted: `(scale *
/// w[i * stride]) * row` (the product the weighted reference forms before
/// touching the row). With `PF`, edge `i` first prefetches the whole row
/// `ahead[i]`; without, the loop is the plain gather.
#[target_feature(enable = "avx2")]
fn gather_block<const NV: usize, const W: bool, const PF: bool>(
    indices: &[u32],
    (w, stride): (&[f32], usize),
    (src, lds, col): (&[f32], usize, usize),
    scale: f32,
    acc: &mut [f32],
    ahead: &[u32],
) {
    let acc = &mut acc[..8 * NV];
    let mut sv = _mm256_set1_ps(scale);
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = load8(acc, v * 8);
    }
    for (i, &s) in indices.iter().enumerate() {
        if PF {
            super::prefetch_source_row(src, lds, ahead, i);
        }
        if W {
            sv = _mm256_set1_ps(scale * w[i * stride]);
        }
        let row = &src[s as usize * lds + col..][..8 * NV];
        for v in 0..NV {
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, load8(row, v * 8)));
        }
    }
    for v in 0..NV {
        store8(acc, v * 8, r[v]);
    }
}

/// AVX2 spmm forward channel tile: `acc[j] += scale * src[s*lds+j0+j]`
/// for every source in `indices`, ascending edge order; with `weights =
/// (w, stride)`, edge `i`'s scale is `scale * w[i*stride]`. Edge `i`
/// prefetches source row `ahead[i]`; an empty `ahead` runs the plain
/// gather, with no test per edge.
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
    let w = weights.unwrap_or((&[], 0));
    let src = (src, lds, j0);
    match (weights.is_some(), ahead.is_empty()) {
        (false, true) => gather_tile::<false, false>(indices, w, src, scale, acc, ahead),
        (false, false) => gather_tile::<false, true>(indices, w, src, scale, acc, ahead),
        (true, true) => gather_tile::<true, false>(indices, w, src, scale, acc, ahead),
        (true, false) => gather_tile::<true, true>(indices, w, src, scale, acc, ahead),
    }
}

#[inline]
#[target_feature(enable = "avx2")]
fn gather_tile<const W: bool, const PF: bool>(
    indices: &[u32],
    w: (&[f32], usize),
    (src, lds, j0): (&[f32], usize, usize),
    scale: f32,
    acc: &mut [f32],
    ahead: &[u32],
) {
    let cb = acc.len();
    // Under `PF` every block prefetches: a 64-channel tile (the paper's
    // head) is one block, and the lines a narrower tile's later blocks ask
    // for again are already on their way.
    let mut j = 0;
    while j + 64 <= cb {
        gather_block::<8, W, PF>(indices, w, (src, lds, j0 + j), scale, &mut acc[j..], ahead);
        j += 64;
    }
    while j + 32 <= cb {
        gather_block::<4, W, PF>(indices, w, (src, lds, j0 + j), scale, &mut acc[j..], ahead);
        j += 32;
    }
    if j + 16 <= cb {
        gather_block::<2, W, PF>(indices, w, (src, lds, j0 + j), scale, &mut acc[j..], ahead);
        j += 16;
    }
    if j + 8 <= cb {
        gather_block::<1, W, PF>(indices, w, (src, lds, j0 + j), scale, &mut acc[j..], ahead);
        j += 8;
    }
    if j < cb {
        for (i, &s) in indices.iter().enumerate() {
            let es = if W { scale * w.0[i * w.1] } else { scale };
            let row = &src[s as usize * lds + j0 + j..][..cb - j];
            for (a, &x) in acc[j..].iter_mut().zip(row) {
                *a += es * x;
            }
        }
    }
}

/// Per-destination-scaled gather block for the backward pass: each
/// destination row carries its own `agg_scale` (1/deg under mean, 1 under
/// sum); edge `i` adds columns `col..col + 8·NV` of gradient row
/// `dsts[i]` (rows `ldg` apart).
#[target_feature(enable = "avx2")]
fn scatter_block<const NV: usize>(
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    (grad, ldg, col): (&[f32], usize, usize),
    acc: &mut [f32],
) {
    let acc = &mut acc[..8 * NV];
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = load8(acc, v * 8);
    }
    for &d in dsts {
        let d = d as usize;
        let sv = _mm256_set1_ps(super::scatter_scale(offsets, d, mean));
        let row = &grad[d * ldg + col..][..8 * NV];
        for v in 0..NV {
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, load8(row, v * 8)));
        }
    }
    for v in 0..NV {
        store8(acc, v * 8, r[v]);
    }
}

/// AVX2 spmm backward channel tile: `acc[j] += agg_scale(d) *
/// grad[d*ldg+j0+j]` over the incoming edges' destinations.
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
    let cb = acc.len();
    let mut j = 0;
    while j + 32 <= cb {
        scatter_block::<4>(dsts, offsets, mean, (grad, ldg, j0 + j), &mut acc[j..]);
        j += 32;
    }
    if j + 16 <= cb {
        scatter_block::<2>(dsts, offsets, mean, (grad, ldg, j0 + j), &mut acc[j..]);
        j += 16;
    }
    if j + 8 <= cb {
        scatter_block::<1>(dsts, offsets, mean, (grad, ldg, j0 + j), &mut acc[j..]);
        j += 8;
    }
    if j < cb {
        for &d in dsts {
            let d = d as usize;
            let scale = super::scatter_scale(offsets, d, mean);
            let row = &grad[d * ldg + j0 + j..][..cb - j];
            for (a, &g) in acc[j..].iter_mut().zip(row) {
                *a += scale * g;
            }
        }
    }
}

/// AVX2 `dst[j] += src[j]` (equal lengths asserted by the caller).
#[target_feature(enable = "avx2")]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    let (dv, dt) = dst.as_chunks_mut::<8>();
    let (sv, st) = src.as_chunks::<8>();
    for (d, s) in dv.iter_mut().zip(sv) {
        let sum = _mm256_add_ps(load8(d, 0), load8(s, 0));
        store8(d, 0, sum);
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d += s;
    }
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

/// One channel block of the fused backward's `dL/dh`: `dh[j..j + 8·NV]
/// += w[l] * rows[l][j..]` over the group's valid edges in order, the
/// block resident in `NV` registers — `scatter_block`'s sequence under sum
/// aggregation, with the rows the dot products just pulled into L1. `dh`
/// and the rows are one head's channels, equally long.
#[inline]
#[target_feature(enable = "avx2")]
fn dh_block<const NV: usize>(rows: &[&[f32]], w: &[f32], j: usize, dh: &mut [f32]) {
    let dh = &mut dh[j..][..8 * NV];
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = load8(dh, v * 8);
    }
    for (row, &wl) in rows.iter().zip(w) {
        let (sv, g) = (_mm256_set1_ps(wl), &row[j..][..8 * NV]);
        for v in 0..NV {
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, load8(g, v * 8)));
        }
    }
    for v in 0..NV {
        store8(dh, v * 8, r[v]);
    }
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
            let (rows, w) = (&head_rows[..valid], &w[..valid]);
            let dh = &mut dh[base..][..head_dim];
            let mut j = 0;
            while j + 32 <= head_dim {
                dh_block::<4>(rows, w, j, dh);
                j += 32;
            }
            if j + 16 <= head_dim {
                dh_block::<2>(rows, w, j, dh);
                j += 16;
            }
            if j + 8 <= head_dim {
                dh_block::<1>(rows, w, j, dh);
                j += 8;
            }
            for (row, &wl) in rows.iter().zip(w) {
                for (o, &x) in dh[j..].iter_mut().zip(&row[j..]) {
                    *o += wl * x;
                }
            }
        }
    }
}

/// `Σ_l g[l] * at[l*c + j..][..8·NV]` from zero, ascending `l`: one half
/// of [`scores_backward_row`]'s sum for `NV` vectors of channels.
#[inline]
#[target_feature(enable = "avx2")]
fn stacked_sum<const NV: usize>(g: &[f32], at: &[f32], c: usize, j: usize) -> [__m256; NV] {
    let mut acc = [_mm256_setzero_ps(); NV];
    for (l, &gl) in g.iter().enumerate() {
        let (gv, row) = (_mm256_set1_ps(gl), &at[l * c + j..][..8 * NV]);
        for v in 0..NV {
            acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(gv, load8(row, v * 8)));
        }
    }
    acc
}

/// AVX2 row of the attention scores' input gradient (see
/// [`super::scores_backward_row`]): 32 channels at a time, the two sums in
/// eight registers, each term `g[l] * at[l, j]` added in ascending `l`
/// from zero — `matmul_narrow_k`'s sequence — then folded into `dh`.
/// `g.len()` is even and `at.len() == g.len() * dh.len()`.
#[target_feature(enable = "avx2")]
pub fn scores_backward_row(g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
    let c = dh.len();
    let (gd, gs) = g.split_at(g.len() / 2);
    let (ad, asrc) = at.split_at(gd.len() * c);
    let mut j = 0;
    while j + 32 <= c {
        let (d, s) = (
            stacked_sum::<4>(gd, ad, c, j),
            stacked_sum::<4>(gs, asrc, c, j),
        );
        let out = &mut dh[j..][..32];
        for v in 0..4 {
            let acc = if fresh {
                d[v]
            } else {
                _mm256_add_ps(load8(out, v * 8), d[v])
            };
            store8(out, v * 8, _mm256_add_ps(acc, s[v]));
        }
        j += 32;
    }
    while j + 8 <= c {
        let (d, s) = (
            stacked_sum::<1>(gd, ad, c, j),
            stacked_sum::<1>(gs, asrc, c, j),
        );
        let acc = if fresh {
            d[0]
        } else {
            _mm256_add_ps(load8(dh, j), d[0])
        };
        store8(dh, j, _mm256_add_ps(acc, s[0]));
        j += 8;
    }
    for jj in j..c {
        let (mut d, mut s) = (0.0f32, 0.0f32);
        for (l, (&dl, &sl)) in gd.iter().zip(gs).enumerate() {
            d += dl * ad[l * c + jj];
            s += sl * asrc[l * c + jj];
        }
        let acc = if fresh { d } else { dh[jj] + d };
        dh[jj] = acc + s;
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

/// AVX2 `C = A·B` for `A: [m, k]` with `k <= 8`: the (at most eight)
/// `a[i, l]` of a row live in registers as broadcasts and every column
/// tile of `C` is summed from `0.0` over ascending `l` and stored once —
/// no accumulator round trip through memory. Zero-skipped `l` are dropped
/// from the row's broadcast list up front.
#[target_feature(enable = "avx2")]
pub fn matmul_narrow_k(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32], skip_zero: bool) {
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let mut av = [_mm256_setzero_ps(); 8];
        let mut brow: [&[f32]; 8] = [&[]; 8];
        let mut live = 0;
        for (l, &x) in arow.iter().enumerate() {
            if !(skip_zero && x == 0.0) {
                av[live] = _mm256_set1_ps(x);
                brow[live] = &b[l * n..][..n];
                live += 1;
            }
        }
        let (av, brow) = (&av[..live], &brow[..live]);
        let mut j = 0;
        while j + 32 <= n {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (&aq, bq) in av.iter().zip(brow) {
                let seg = &bq[j..][..32];
                for v in 0..4 {
                    acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(aq, load8(seg, v * 8)));
                }
            }
            let out = &mut crow[j..][..32];
            for v in 0..4 {
                store8(out, v * 8, acc[v]);
            }
            j += 32;
        }
        while j + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for (&aq, bq) in av.iter().zip(brow) {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(aq, load8(bq, j)));
            }
            store8(crow, j, acc);
            j += 8;
        }
        for jj in j..n {
            let mut acc = 0.0f32;
            for (l, &x) in arow.iter().enumerate() {
                if !(skip_zero && x == 0.0) {
                    acc += x * b[l * n + jj];
                }
            }
            crow[jj] = acc;
        }
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

/// AVX2 edge softmax of one destination's `[deg, heads]` logits in place,
/// heads as lanes (`heads % 4 == 0`, the dispatcher's guard): the per-head
/// max and denominator run over the edges in order, four heads abreast;
/// `exp` is libm's, called per element.
#[target_feature(enable = "avx2")]
pub fn edge_softmax_dst(x: &mut [f32], heads: usize) {
    let deg = x.len() / heads;
    for h0 in (0..heads).step_by(4) {
        let mut max = _mm_set1_ps(f32::NEG_INFINITY);
        for e in 0..deg {
            max = _mm_max_ps(max, load4(x, e * heads + h0));
        }
        let mut denom = _mm_setzero_ps();
        for e in 0..deg {
            let at = e * heads + h0;
            let mut t = [0.0f32; 4];
            store4(&mut t, 0, _mm_sub_ps(load4(x, at), max));
            for v in &mut t {
                *v = v.exp();
            }
            let v = load4(&t, 0);
            store4(x, at, v);
            denom = _mm_add_ps(denom, v);
        }
        for e in 0..deg {
            let at = e * heads + h0;
            store4(x, at, _mm_div_ps(load4(x, at), denom));
        }
    }
}

/// AVX2 edge-softmax backward of one destination in the gradient's own
/// buffer, heads as lanes (`heads % 4 == 0`, the dispatcher's guard):
/// `grad = soft * (grad - Σ_e soft*grad)`, the dot summed over the edges
/// in order.
#[target_feature(enable = "avx2")]
pub fn edge_softmax_backward_dst(soft: &[f32], grad: &mut [f32], heads: usize) {
    let deg = soft.len() / heads;
    for h0 in (0..heads).step_by(4) {
        let mut dot = _mm_setzero_ps();
        for e in 0..deg {
            let at = e * heads + h0;
            dot = _mm_add_ps(dot, _mm_mul_ps(load4(soft, at), load4(grad, at)));
        }
        for e in 0..deg {
            let at = e * heads + h0;
            let (s, g) = (load4(soft, at), load4(grad, at));
            store4(grad, at, _mm_mul_ps(s, _mm_sub_ps(g, dot)));
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

//! AVX2 implementations of the dispatched kernels in [`super`].
//!
//! Every function here is `#[target_feature(enable = "avx2")]` and only
//! reachable through [`super::level`]-guarded dispatch (or an explicit
//! [`super::Level::Avx2`] that the caller asserted is executable).
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
//! Memory safety of the list walk: a listed `l` is `< arow.len()` by
//! construction of the compaction ([`super::RowVisits::listed`] enumerates
//! `arow`, and debug-asserts the result), and the walk indexes `a[r][l]`
//! checked before it forms the panel pointer; the panel and `C` tile
//! bounds for every `l < arow.len()` are asserted by the safe dispatchers
//! in [`super`] (`check_rowtile_bounds`, `ldb` = the panel's own width)
//! before any pointer is formed.

// The safety contract is documented on the module; the `0..NV` loops
// index both the register array and the `v * 8` lane offsets of raw
// pointers, so enumerate() has nothing to iterate over there.
#![allow(clippy::missing_safety_doc)]
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use super::TILE_COLS;

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
unsafe fn tile_block<const NV: usize, const R: usize, const RAGGED: bool>(
    a: [&[f32]; R],
    list: Option<&[u16]>,
    panel: *const f32,
    nb: usize,
    c: *mut f32,
    ldc: usize,
    first: bool,
    tail: __m256i,
) {
    // Equal lengths let the dense walk index every row without a check.
    assert!(a.iter().all(|row| row.len() == a[0].len()));
    // SAFETY (both closures): vector `v` of the tile row starting `at`
    // floats into `p`. For `c`, `at = r * ldc` with `r < R`: the caller
    // passes the tile's `R` rows of `NV` vectors, `ldc` apart. For the
    // panel, `at = l * nb` with `l < a[0].len()` — an enumerated position,
    // or a listed one (`< arow.len()` by construction of the compaction;
    // `a[r][l]` is index-checked besides) — and the dispatcher's
    // `check_rowtile_bounds` (`ldb = nb`, the panel's own width) put every
    // such panel row inside the panel. Under `RAGGED` the last vector is
    // touched in its `tail` lanes only, the ones the panel really has.
    let load = |p: *const f32, at: usize, v: usize| unsafe {
        if RAGGED && v == NV - 1 {
            _mm256_maskload_ps(p.add(at + v * 8), tail)
        } else {
            _mm256_loadu_ps(p.add(at + v * 8))
        }
    };
    let store = |p: *mut f32, at: usize, v: usize, x: __m256| unsafe {
        if RAGGED && v == NV - 1 {
            _mm256_maskstore_ps(p.add(at + v * 8), tail, x)
        } else {
            _mm256_storeu_ps(p.add(at + v * 8), x)
        }
    };
    let mut acc = [[_mm256_setzero_ps(); NV]; R];
    if !first {
        for r in 0..R {
            for v in 0..NV {
                acc[r][v] = load(c, r * ldc, v);
            }
        }
    }
    let mut step = |l: usize| {
        let mut bv = [_mm256_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = load(panel, l * nb, v);
        }
        for r in 0..R {
            let av = _mm256_set1_ps(a[r][l]);
            for v in 0..NV {
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
            }
        }
    };
    match list {
        None => (0..a[0].len()).for_each(&mut step),
        Some(list) => list.iter().for_each(|&l| step(l as usize)),
    }
    for r in 0..R {
        for v in 0..NV {
            store(c, r * ldc, v, acc[r][v]);
        }
    }
}

/// AVX2 matmul register tile over a packed panel (`[a[0].len()][nb]`
/// contiguous): row `r` of the tile, `c[r*ldc..][..nb]`, gets `Σ a[r][l] *
/// panel[l*nb + j]` over the visited `l`, ascending — from `0.0` when
/// `first`, else added to what it holds. `nb` is `c`'s length past the
/// last row's start.
///
/// # Safety
///
/// AVX2 must be available; `nb <= TILE_COLS`; all `R` rows of `a` are
/// equally long and the panel holds that many rows of `nb` floats
/// (`check_rowtile_bounds`); `c` is the `R` tile rows, `ldc` apart, and
/// nothing else; `list`, if any, comes from a [`super::RowVisits`] over
/// `a[0]`.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_tile<const R: usize>(
    a: [&[f32]; R],
    list: Option<&[u16]>,
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    let nb = c.len() - (R - 1) * ldc;
    let (pp, cp) = (panel.as_ptr(), c.as_mut_ptr());
    let full = _mm256_set1_epi32(-1);
    // A narrower panel goes in one walk too: whole vectors, then one
    // masked to the panel's last `nb % 8` lanes.
    let tail = if nb.is_multiple_of(8) {
        full
    } else {
        lane_mask(nb % 8)
    };
    // SAFETY: the tile's `nb <= TILE_COLS` columns — `NV = ⌈nb / 8⌉`
    // vectors, the last cut to `nb` by `tail` — lie inside every row of
    // `c` and inside every panel row the caller checked.
    unsafe {
        match nb.div_ceil(8) {
            0 => {}
            // The full width as a literal: the list walk scales `l` by a
            // shift, not a multiply that competes with the tile for a port.
            4 if nb == TILE_COLS => {
                tile_block::<4, R, false>(a, list, pp, TILE_COLS, cp, ldc, first, full)
            }
            1 => tile_block::<1, R, true>(a, list, pp, nb, cp, ldc, first, tail),
            2 => tile_block::<2, R, true>(a, list, pp, nb, cp, ldc, first, tail),
            3 => tile_block::<3, R, true>(a, list, pp, nb, cp, ldc, first, tail),
            _ => tile_block::<4, R, true>(a, list, pp, nb, cp, ldc, first, tail),
        }
    }
}

/// `acc += scale * src_row` over the edge list, `NV` lanes resident. With
/// `W`, edge `i` is additionally weighted: `(scale * w[i * stride]) * row`
/// (the product the weighted reference forms before touching the row).
#[target_feature(enable = "avx2")]
unsafe fn gather_block<const NV: usize, const W: bool>(
    indices: &[u32],
    (w, stride): (*const f32, usize),
    src: *const f32,
    lds: usize,
    scale: f32,
    acc: *mut f32,
) {
    let mut sv = _mm256_set1_ps(scale);
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = _mm256_loadu_ps(acc.add(v * 8));
    }
    for (i, &s) in indices.iter().enumerate() {
        if W {
            sv = _mm256_set1_ps(scale * *w.add(i * stride));
        }
        let srow = src.add(s as usize * lds);
        for v in 0..NV {
            let x = _mm256_loadu_ps(srow.add(v * 8));
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, x));
        }
    }
    for v in 0..NV {
        _mm256_storeu_ps(acc.add(v * 8), r[v]);
    }
}

/// AVX2 spmm forward channel tile: `acc[j] += scale * src[s*lds+j0+j]`
/// for every source in `indices`, ascending edge order; with `weights =
/// (w, stride)`, edge `i`'s scale is `scale * w[i*stride]`.
#[target_feature(enable = "avx2")]
pub unsafe fn spmm_gather_rowtile(
    indices: &[u32],
    weights: Option<(&[f32], usize)>,
    src: &[f32],
    lds: usize,
    j0: usize,
    scale: f32,
    acc: &mut [f32],
) {
    match weights {
        None => gather_tile::<false>(indices, (src.as_ptr(), 0), src, lds, j0, scale, acc),
        Some((w, stride)) => {
            assert!(
                indices.is_empty() || (indices.len() - 1) * stride < w.len(),
                "spmm gather: edge weight out of bounds"
            );
            gather_tile::<true>(indices, (w.as_ptr(), stride), src, lds, j0, scale, acc)
        }
    }
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_tile<const W: bool>(
    indices: &[u32],
    w: (*const f32, usize),
    src: &[f32],
    lds: usize,
    j0: usize,
    scale: f32,
    acc: &mut [f32],
) {
    let cb = acc.len();
    if let Some(max_s) = indices.iter().copied().max() {
        assert!(
            max_s as usize * lds + j0 + cb <= src.len(),
            "spmm gather: source row out of bounds"
        );
    } else {
        return;
    }
    let sp = src.as_ptr().add(j0);
    let ap = acc.as_mut_ptr();
    let mut j = 0;
    while j + 64 <= cb {
        gather_block::<8, W>(indices, w, sp.add(j), lds, scale, ap.add(j));
        j += 64;
    }
    while j + 32 <= cb {
        gather_block::<4, W>(indices, w, sp.add(j), lds, scale, ap.add(j));
        j += 32;
    }
    if j + 16 <= cb {
        gather_block::<2, W>(indices, w, sp.add(j), lds, scale, ap.add(j));
        j += 16;
    }
    if j + 8 <= cb {
        gather_block::<1, W>(indices, w, sp.add(j), lds, scale, ap.add(j));
        j += 8;
    }
    if j < cb {
        for (i, &s) in indices.iter().enumerate() {
            let es = if W { scale * *w.0.add(i * w.1) } else { scale };
            let srow = sp.add(s as usize * lds);
            for jj in j..cb {
                *ap.add(jj) += es * *srow.add(jj);
            }
        }
    }
}

/// Per-destination-scaled gather block for the backward pass: each
/// destination row carries its own `agg_scale` (1/deg under mean, 1 under
/// sum).
#[target_feature(enable = "avx2")]
unsafe fn scatter_block<const NV: usize>(
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    grad: *const f32,
    ldg: usize,
    acc: *mut f32,
) {
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = _mm256_loadu_ps(acc.add(v * 8));
    }
    for &d in dsts {
        let d = d as usize;
        let sv = _mm256_set1_ps(super::scatter_scale(offsets, d, mean));
        let grow = grad.add(d * ldg);
        for v in 0..NV {
            let g = _mm256_loadu_ps(grow.add(v * 8));
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, g));
        }
    }
    for v in 0..NV {
        _mm256_storeu_ps(acc.add(v * 8), r[v]);
    }
}

/// AVX2 spmm backward channel tile: `acc[j] += agg_scale(d) *
/// grad[d*ldg+j0+j]` over the incoming edges' destinations.
#[target_feature(enable = "avx2")]
pub unsafe fn spmm_scatter_rowtile(
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    grad: &[f32],
    ldg: usize,
    j0: usize,
    acc: &mut [f32],
) {
    let cb = acc.len();
    if let Some(max_d) = dsts.iter().copied().max() {
        assert!(
            (max_d as usize) + 1 < offsets.len(),
            "spmm scatter: destination out of offsets range"
        );
        assert!(
            max_d as usize * ldg + j0 + cb <= grad.len(),
            "spmm scatter: grad row out of bounds"
        );
    } else {
        return;
    }
    let gp = grad.as_ptr().add(j0);
    let ap = acc.as_mut_ptr();
    let mut j = 0;
    while j + 32 <= cb {
        scatter_block::<4>(dsts, offsets, mean, gp.add(j), ldg, ap.add(j));
        j += 32;
    }
    if j + 16 <= cb {
        scatter_block::<2>(dsts, offsets, mean, gp.add(j), ldg, ap.add(j));
        j += 16;
    }
    if j + 8 <= cb {
        scatter_block::<1>(dsts, offsets, mean, gp.add(j), ldg, ap.add(j));
        j += 8;
    }
    if j < cb {
        for &d in dsts {
            let d = d as usize;
            let scale = super::scatter_scale(offsets, d, mean);
            let grow = gp.add(d * ldg);
            for jj in j..cb {
                *ap.add(jj) += scale * *grow.add(jj);
            }
        }
    }
}

/// AVX2 `dst[j] += src[j]` (equal lengths asserted by the caller).
#[target_feature(enable = "avx2")]
pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut j = 0;
    while j + 8 <= n {
        let d = _mm256_loadu_ps(dp.add(j));
        let s = _mm256_loadu_ps(sp.add(j));
        _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, s));
        j += 8;
    }
    while j < n {
        *dp.add(j) += *sp.add(j);
        j += 1;
    }
}

/// Stream `len` bytes from `src` to `dst` in 32-byte YMM lanes (the
/// gather row-copy path). The regions must not overlap and must each be
/// valid for `len` bytes — guaranteed by the `&mut [T]`/`&[T]` pair the
/// safe wrapper starts from.
#[target_feature(enable = "avx2")]
pub unsafe fn copy_bytes(dst: *mut u8, src: *const u8, len: usize) {
    let mut off = 0;
    while off + 128 <= len {
        let a = _mm256_loadu_si256(src.add(off).cast());
        let b = _mm256_loadu_si256(src.add(off + 32).cast());
        let c = _mm256_loadu_si256(src.add(off + 64).cast());
        let d = _mm256_loadu_si256(src.add(off + 96).cast());
        _mm256_storeu_si256(dst.add(off).cast(), a);
        _mm256_storeu_si256(dst.add(off + 32).cast(), b);
        _mm256_storeu_si256(dst.add(off + 64).cast(), c);
        _mm256_storeu_si256(dst.add(off + 96).cast(), d);
        off += 128;
    }
    while off + 32 <= len {
        let v = _mm256_loadu_si256(src.add(off).cast());
        _mm256_storeu_si256(dst.add(off).cast(), v);
        off += 32;
    }
    if off < len {
        core::ptr::copy_nonoverlapping(src.add(off), dst.add(off), len - off);
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

/// Lanes `0..n` set (all bits), the rest clear — a `maskload` mask.
#[target_feature(enable = "avx2")]
unsafe fn lane_mask(n: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Columns `off..off+4` of eight rows, transposed: lane `l` of `out[t]` is
/// `rows[l][off + t]`. Under `MASKED` only the columns whose `mask` lane is
/// set are read (the ragged end of a row), the others come back zero.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cols4<const MASKED: bool>(
    rows: &[*const f32; 8],
    off: usize,
    mask: __m128i,
) -> [__m256; 4] {
    let mut pair = [_mm256_setzero_ps(); 4];
    for i in 0..4 {
        let (lo, hi) = (rows[i].add(off), rows[i + 4].add(off));
        let (lo, hi) = if MASKED {
            (_mm_maskload_ps(lo, mask), _mm_maskload_ps(hi, mask))
        } else {
            (_mm_loadu_ps(lo), _mm_loadu_ps(hi))
        };
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
///
/// # Safety
///
/// AVX2 must be available, and both blocks in bounds: `(rows-1)*ld_src +
/// cols <= src.len()`, `(cols-1)*ld_dst + rows <= dst.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn transpose(
    src: &[f32],
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ld_dst: usize,
) {
    let (rows8, cols4_end) = (rows / 8 * 8, cols / 4 * 4);
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for r0 in (0..rows8).step_by(8) {
        // SAFETY: rows `r0..r0+8` are `< rows`, so each lane pointer starts
        // a source row with `cols` floats inside `src`, of which columns
        // `c0..c0+4 <= cols` are read; destination rows `c0..c0+4 < cols`
        // hold `rows >= r0 + 8` floats each inside `dst`.
        unsafe {
            let lanes = lane_rows(sp, ld_src, 8, |l| r0 + l);
            for c0 in (0..cols4_end).step_by(4) {
                let t = cols4::<false>(&lanes, c0, _mm_setzero_si128());
                for (i, v) in t.into_iter().enumerate() {
                    _mm256_storeu_ps(dp.add((c0 + i) * ld_dst + r0), v);
                }
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

/// Row pointers of one lane group: lane `l` reads row `index(min(l,
/// valid-1))` — the padding lanes repeat the last valid row.
#[inline]
unsafe fn lane_rows(
    base: *const f32,
    ld: usize,
    valid: usize,
    index: impl Fn(usize) -> usize,
) -> [*const f32; 8] {
    let mut rows = [base; 8];
    for (l, r) in rows.iter_mut().enumerate() {
        *r = base.add(index(l.min(valid - 1)) * ld);
    }
    rows
}

/// One channel block of the fused backward's `dL/dh`: `dh[j..j + 8·NV]
/// += w[l] * row_l[j..]` over the group's `valid` edges in order, the
/// block resident in `NV` registers — `scatter_block`'s sequence under sum
/// aggregation, with the rows the dot products just pulled into L1.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dh_block<const NV: usize>(
    rows: &[*const f32; 8],
    w: &[f32; 8],
    valid: usize,
    j: usize,
    dh: *mut f32,
) {
    let mut r = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        r[v] = _mm256_loadu_ps(dh.add(j + v * 8));
    }
    for l in 0..valid {
        let sv = _mm256_set1_ps(w[l]);
        let g = rows[l].add(j);
        for v in 0..NV {
            r[v] = _mm256_add_ps(r[v], _mm256_mul_ps(sv, _mm256_loadu_ps(g.add(v * 8))));
        }
    }
    for v in 0..NV {
        _mm256_storeu_ps(dh.add(j + v * 8), r[v]);
    }
}

/// AVX2 weighted g-SpMM backward of one source row (see
/// [`super::weighted_spmm_backward_row`]). The incoming edges go eight at
/// a time: their gradient rows are the lanes of the per-head dot products
/// with `hrow` (the edge-lane rule: each lane is one edge's ascending-
/// channel sum from `0.0`, the product `grad * h` as g-SDDMM forms it),
/// then, from L1, the terms of `dh`, added a channel block at a time in
/// edge order. The next eight rows are prefetched while these are used.
///
/// # Safety
///
/// AVX2 must be available, `heads` must divide `hrow.len() == dh.len()`,
/// and every destination in `dsts` and `next` must index a full
/// `hrow.len()`-float row of `grad` (edge weights are read with bounds
/// checks).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn weighted_spmm_backward_row(
    dsts: &[u32],
    edges: &[u32],
    att: &[f32],
    heads: usize,
    grad: &[f32],
    hrow: &[f32],
    dh: &mut [f32],
    next: &[u32],
    datt: &mut impl FnMut(usize, usize, f32),
) {
    let c = hrow.len();
    let head_dim = c / heads;
    dh.fill(0.0);
    let n = dsts.len();
    let (gp, hp, dp) = (grad.as_ptr(), hrow.as_ptr(), dh.as_mut_ptr());
    let tail = head_dim % 4;
    let mask = _mm256_castsi256_si128(lane_mask(tail));
    for g0 in (0..n).step_by(8) {
        let valid = (n - g0).min(8);
        let rows = lane_rows(gp, c, valid, |l| dsts[g0 + l] as usize);
        let ahead = if g0 + 8 < n { &dsts[g0 + 8..] } else { next };
        for &d in ahead.iter().take(8) {
            let next = gp.add(d as usize * c);
            for off in (0..c).step_by(16) {
                _mm_prefetch::<_MM_HINT_T0>(next.add(off).cast());
            }
        }
        let mut w = [0.0f32; 8];
        for h in 0..heads {
            let (base, end) = (h * head_dim, (h + 1) * head_dim);
            let mut acc = _mm256_setzero_ps();
            let mut j = base;
            while j + 4 <= end {
                let cols = cols4::<false>(&rows, j, mask);
                for t in 0..4 {
                    let hv = _mm256_broadcast_ss(&*hp.add(j + t));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(cols[t], hv));
                }
                j += 4;
            }
            if tail > 0 {
                let cols = cols4::<true>(&rows, j, mask);
                for t in 0..tail {
                    let hv = _mm256_broadcast_ss(&*hp.add(j + t));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(cols[t], hv));
                }
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            for l in 0..valid {
                datt(g0 + l, h, lanes[l]);
                w[l] = att[edges[g0 + l] as usize * heads + h];
            }
            let mut j = base;
            while j + 32 <= end {
                dh_block::<4>(&rows, &w, valid, j, dp);
                j += 32;
            }
            if j + 16 <= end {
                dh_block::<2>(&rows, &w, valid, j, dp);
                j += 16;
            }
            if j + 8 <= end {
                dh_block::<1>(&rows, &w, valid, j, dp);
                j += 8;
            }
            for l in 0..valid {
                for jj in j..end {
                    *dp.add(jj) += w[l] * *rows[l].add(jj);
                }
            }
        }
    }
}

/// `Σ_l g[l] * at[l*c + j..][..8·NV]` from zero, ascending `l`: one half
/// of [`scores_backward_row`]'s sum for `NV` vectors of channels.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn stacked_sum<const NV: usize>(
    g: &[f32],
    at: *const f32,
    c: usize,
    j: usize,
) -> [__m256; NV] {
    let mut acc = [_mm256_setzero_ps(); NV];
    for (l, &gl) in g.iter().enumerate() {
        let (gv, row) = (_mm256_set1_ps(gl), at.add(l * c + j));
        for v in 0..NV {
            acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(gv, _mm256_loadu_ps(row.add(v * 8))));
        }
    }
    acc
}

/// AVX2 row of the attention scores' input gradient (see
/// [`super::scores_backward_row`]): 32 channels at a time, the two sums in
/// eight registers, each term `g[l] * at[l, j]` added in ascending `l`
/// from zero — `matmul_narrow_k`'s sequence — then folded into `dh`.
///
/// # Safety
///
/// AVX2 must be available, `g.len()` even and `at.len() == g.len() *
/// dh.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn scores_backward_row(g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
    let c = dh.len();
    let (gd, gs) = g.split_at(g.len() / 2);
    let (ap, sp, dp) = (at.as_ptr(), at.as_ptr().add(gd.len() * c), dh.as_mut_ptr());
    let mut j = 0;
    while j + 32 <= c {
        let (d, s) = (
            stacked_sum::<4>(gd, ap, c, j),
            stacked_sum::<4>(gs, sp, c, j),
        );
        for v in 0..4 {
            let p = dp.add(j + v * 8);
            let acc = if fresh {
                d[v]
            } else {
                _mm256_add_ps(_mm256_loadu_ps(p), d[v])
            };
            _mm256_storeu_ps(p, _mm256_add_ps(acc, s[v]));
        }
        j += 32;
    }
    while j + 8 <= c {
        let (d, s) = (
            stacked_sum::<1>(gd, ap, c, j),
            stacked_sum::<1>(gs, sp, c, j),
        );
        let p = dp.add(j);
        let acc = if fresh {
            d[0]
        } else {
            _mm256_add_ps(_mm256_loadu_ps(p), d[0])
        };
        _mm256_storeu_ps(p, _mm256_add_ps(acc, s[0]));
        j += 8;
    }
    for jj in j..c {
        let (mut d, mut s) = (0.0f32, 0.0f32);
        for (l, (&dl, &sl)) in gd.iter().zip(gs).enumerate() {
            d += dl * at[l * c + jj];
            s += sl * at[(gd.len() + l) * c + jj];
        }
        let acc = if fresh { d } else { dh[jj] + d };
        dh[jj] = acc + s;
    }
}

/// Eight rows of `A` against all `N` columns of a narrow `B`: lane `r` of
/// `acc[j]` is `C[i0+r, j]`, summed over `l` in ascending order with the
/// zero-skip rule applied per lane (a skipped lane keeps its old value).
#[target_feature(enable = "avx2")]
unsafe fn narrow_n_rows<const N: usize>(
    rows: &[*const f32; 8],
    k: usize,
    b: *const f32,
    skip_zero: bool,
) -> [__m256; N] {
    let zero = _mm256_setzero_ps();
    let mut acc = [zero; N];
    let tail = k % 4;
    let mask = _mm256_castsi256_si128(lane_mask(tail));
    let mut l0 = 0;
    while l0 < k {
        let width = (k - l0).min(4);
        let cols = if width == 4 {
            cols4::<false>(rows, l0, mask)
        } else {
            cols4::<true>(rows, l0, mask)
        };
        for t in 0..width {
            let col = cols[t];
            let brow = b.add((l0 + t) * N);
            let skipped = _mm256_cmp_ps::<_CMP_EQ_OQ>(col, zero);
            if skip_zero && _mm256_movemask_ps(skipped) != 0 {
                for j in 0..N {
                    let bv = _mm256_broadcast_ss(&*brow.add(j));
                    let sum = _mm256_add_ps(acc[j], _mm256_mul_ps(col, bv));
                    acc[j] = _mm256_blendv_ps(sum, acc[j], skipped);
                }
            } else {
                for j in 0..N {
                    let bv = _mm256_broadcast_ss(&*brow.add(j));
                    acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(col, bv));
                }
            }
        }
        l0 += width;
    }
    acc
}

#[target_feature(enable = "avx2")]
unsafe fn matmul_narrow_n_impl<const N: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    c: &mut [f32],
    skip_zero: bool,
) {
    let m = c.len() / N;
    let (ap, cp) = (a.as_ptr(), c.as_mut_ptr());
    for i0 in (0..m).step_by(8) {
        let valid = (m - i0).min(8);
        let rows = lane_rows(ap, k, valid, |l| i0 + l);
        let acc = narrow_n_rows::<N>(&rows, k, b.as_ptr(), skip_zero);
        for j in 0..N {
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc[j]);
            for r in 0..valid {
                *cp.add((i0 + r) * N + j) = lanes[r];
            }
        }
    }
}

/// AVX2 `C = A·B` for `B: [k, n]` with `n <= 8`: `c[i*n+j] = Σ_l
/// a[i*k+l]·b[l*n+j]`, ascending `l` from `0.0`, optional zero-skip on
/// `a[i*k+l]`.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_narrow_n(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    skip_zero: bool,
) {
    assert!(b.len() == k * n && c.len().is_multiple_of(n) && a.len() == c.len() / n * k);
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
pub unsafe fn matmul_narrow_k(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    skip_zero: bool,
) {
    assert!((1..=8).contains(&k) && a.len().is_multiple_of(k));
    assert!(b.len() == k * n && c.len() == a.len() / k * n);
    let bp = b.as_ptr();
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let mut av = [_mm256_setzero_ps(); 8];
        let mut brow = [bp; 8];
        let mut live = 0;
        for (l, &x) in arow.iter().enumerate() {
            if !(skip_zero && x == 0.0) {
                av[live] = _mm256_set1_ps(x);
                brow[live] = bp.add(l * n);
                live += 1;
            }
        }
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let mut acc = [_mm256_setzero_ps(); 4];
            for q in 0..live {
                for v in 0..4 {
                    let bv = _mm256_loadu_ps(brow[q].add(j + v * 8));
                    acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(av[q], bv));
                }
            }
            for v in 0..4 {
                _mm256_storeu_ps(cp.add(j + v * 8), acc[v]);
            }
            j += 32;
        }
        while j + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for q in 0..live {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(av[q], _mm256_loadu_ps(brow[q].add(j))));
            }
            _mm256_storeu_ps(cp.add(j), acc);
            j += 8;
        }
        for jj in j..n {
            let mut acc = 0.0f32;
            for (l, &x) in arow.iter().enumerate() {
                if !(skip_zero && x == 0.0) {
                    acc += x * *bp.add(l * n + jj);
                }
            }
            *cp.add(jj) = acc;
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
pub unsafe fn tn_accumulate_narrow(a: &[f32], m: usize, b: &[f32], n: usize, acc: &mut [f32]) {
    assert!((1..=8).contains(&n) && m > 0 && a.len().is_multiple_of(m));
    assert!(b.len() == a.len() / m * n && acc.len() >= m * n);
    let zero = _mm256_setzero_ps();
    // Eight rows of `a` cover `n` accumulator vectors; vector `v` lane `x`
    // is flat element `8v + x` of that group.
    let mut ridx = [_mm256_setzero_si256(); 8];
    let mut cidx = [_mm256_setzero_si256(); 8];
    for v in 0..n {
        let mut r = [0i32; 8];
        let mut c = [0i32; 8];
        for x in 0..8 {
            r[x] = ((v * 8 + x) / n) as i32;
            c[x] = ((v * 8 + x) % n) as i32;
        }
        ridx[v] = _mm256_loadu_si256(r.as_ptr().cast());
        cidx[v] = _mm256_loadu_si256(c.as_ptr().cast());
    }
    let bmask = lane_mask(n);
    let m8 = m / 8 * 8;
    let accp = acc.as_mut_ptr();
    for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let b8 = _mm256_maskload_ps(brow.as_ptr(), bmask);
        let mut bv = [zero; 8];
        for v in 0..n {
            bv[v] = _mm256_permutevar8x32_ps(b8, cidx[v]);
        }
        for i0 in (0..m8).step_by(8) {
            let a8 = _mm256_loadu_ps(arow.as_ptr().add(i0));
            let zeros = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(a8, zero));
            if zeros == 0xff {
                continue;
            }
            for v in 0..n {
                let av = _mm256_permutevar8x32_ps(a8, ridx[v]);
                let p = accp.add(i0 * n + v * 8);
                let old = _mm256_loadu_ps(p);
                let mut sum = _mm256_add_ps(old, _mm256_mul_ps(av, bv[v]));
                if zeros != 0 {
                    sum = _mm256_blendv_ps(sum, old, _mm256_cmp_ps::<_CMP_EQ_OQ>(av, zero));
                }
                _mm256_storeu_ps(p, sum);
            }
        }
        for i in m8..m {
            let x = arow[i];
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                *accp.add(i * n + j) += x * brow[j];
            }
        }
    }
}

/// AVX2 edge softmax of one destination's `[deg, heads]` logits in place,
/// heads as lanes (`heads % 4 == 0`): the per-head max and denominator run
/// over the edges in order, four heads abreast; `exp` is libm's, called
/// per element.
///
/// # Safety
///
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn edge_softmax_dst(x: &mut [f32], heads: usize) {
    assert!(heads.is_multiple_of(4) && x.len().is_multiple_of(heads));
    let deg = x.len() / heads;
    if deg == 0 {
        return; // no edges: nothing to read, and no lane pointer to form
    }
    for h0 in (0..heads).step_by(4) {
        let p = x.as_mut_ptr().add(h0);
        let mut max = _mm_set1_ps(f32::NEG_INFINITY);
        for e in 0..deg {
            max = _mm_max_ps(max, _mm_loadu_ps(p.add(e * heads)));
        }
        let mut denom = _mm_setzero_ps();
        for e in 0..deg {
            let mut t = [0.0f32; 4];
            _mm_storeu_ps(
                t.as_mut_ptr(),
                _mm_sub_ps(_mm_loadu_ps(p.add(e * heads)), max),
            );
            for v in &mut t {
                *v = v.exp();
            }
            let v = _mm_loadu_ps(t.as_ptr());
            _mm_storeu_ps(p.add(e * heads), v);
            denom = _mm_add_ps(denom, v);
        }
        for e in 0..deg {
            let q = p.add(e * heads);
            _mm_storeu_ps(q, _mm_div_ps(_mm_loadu_ps(q), denom));
        }
    }
}

/// AVX2 edge-softmax backward of one destination in the gradient's own
/// buffer, heads as lanes (`heads % 4 == 0`): `grad = soft * (grad -
/// Σ_e soft*grad)`, the dot summed over the edges in order.
///
/// # Safety
///
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn edge_softmax_backward_dst(soft: &[f32], grad: &mut [f32], heads: usize) {
    assert!(heads.is_multiple_of(4) && soft.len().is_multiple_of(heads));
    assert_eq!(grad.len(), soft.len(), "edge softmax backward: lengths");
    let deg = soft.len() / heads;
    if deg == 0 {
        return; // no edges: nothing to read, and no lane pointer to form
    }
    for h0 in (0..heads).step_by(4) {
        let (sp, gp) = (soft.as_ptr().add(h0), grad.as_mut_ptr().add(h0));
        let mut dot = _mm_setzero_ps();
        for e in 0..deg {
            let (s, g) = (
                _mm_loadu_ps(sp.add(e * heads)),
                _mm_loadu_ps(gp.add(e * heads)),
            );
            dot = _mm_add_ps(dot, _mm_mul_ps(s, g));
        }
        for e in 0..deg {
            let (s, g) = (
                _mm_loadu_ps(sp.add(e * heads)),
                _mm_loadu_ps(gp.add(e * heads)),
            );
            _mm_storeu_ps(gp.add(e * heads), _mm_mul_ps(s, _mm_sub_ps(g, dot)));
        }
    }
}

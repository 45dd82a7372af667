//! Dense kernels (rayon-parallel stand-ins for cuBLAS / elementwise CUDA).
#![allow(clippy::needless_range_loop)] // kernel-style indexed loops mirror the CUDA code

use rayon::prelude::*;

use crate::matrix::Matrix;
use crate::simd::{self, Level, RowVisits};

// ---------------------------------------------------------------------------
// Dense matmul family.
//
// Each of the three products (`matmul`, `matmul_tn`, `matmul_nt`) comes
// in three forms:
//   * `*_reference` — the original naive row-parallel loop, kept as the
//     bit-exactness oracle (property tests pin the blocked kernels to it);
//   * `*_into`      — the cache-blocked kernel writing into a
//     caller-provided output (and scratch) buffer, so warm steady-state
//     calls perform zero heap allocations; its inner loops dispatch
//     through [`crate::simd`] (AVX2 when the host has it, scalar
//     otherwise), and an `*_into_with` twin takes an explicit
//     [`Level`] so tests and benches can pin both paths;
//   * the plain name — an allocating convenience wrapper over `*_into`.
//
// GAT's fused score projection (`attention_scores_into` and its backward)
// runs on the same body in the `*_into` / `*_into_with` forms only: its
// oracles are the products above.
//
// Shapes with a narrow side (n <= 8 or k <= 8 — GAT's `h·a_src` products
// and their gradients) leave the register tile almost empty, so the
// `*_into` kernels pick a narrow kernel by shape — before anything is
// packed: the narrow kernels read row-major `B`. Same sums, same bits.
//
// Everything wider runs ONE body, `gemm_block`, and reads `B` only
// through **packed panels**: `B`'s columns cut into `NR = 32`-wide panels,
// each stored `[k][nb]` contiguous (the ragged last panel keeps its own
// width `nb`, so `n = 47` does 32 + 15 lanes of work, not 64), panel after
// panel. A row-major `B` at `ldb = n = 256` spreads the `KB x NR` block a
// tile sweeps over 256 segments of 128 B, one KiB apart — 512 cache lines
// that fall into 8 of the L1D's 64 sets, i.e. 96 lines of room for 512 —
// so the "L1-sized" panel was re-fetched from L2 for every row; packed,
// it is 32 KiB of consecutive lines and really is L1-resident. The copy
// is made once per call (`matmul`: into this thread's scratch;
// `matmul_nt`: `Bᵀ` is written straight into the layout; `matmul_tn`:
// per 512-row chunk, see `tn_chunk`); a `B` of at most `NR` columns
// already *is* its one panel and is used in place. `C` is cut into row
// blocks of `MC = 64` rows, one parallel task each, and a block loops
// k-block → visit lists (once per row) → panel → rows, so each panel
// k-block is loaded once per 64 rows instead of once per row. Rows with
// nothing to skip go through the register tile two at a time, sharing
// the panel loads (`simd::matmul_rowtile2`); the first k-block of a tile
// starts from zero registers, so `C` is never zero-filled.
//
// Determinism contract: for every output element the blocked kernels add
// contributions in ascending-k order with exactly the reference kernels'
// zero-skip rule, and `matmul_tn` reduces its k-chunk partials through the
// same midpoint tree as the reference. Blocking therefore only reorders
// *which element is worked on when* — never the per-element float
// reduction — so results are bit-identical to the references at any
// thread count.
//
// The zero-skip rule is a *visit list*, not a branch. The references
// `continue` past `a[i,l] == 0.0`; on the operands training feeds these
// kernels — post-dropout(0.5) and post-ReLU activations, ~50 % exact
// zeros — that test inside the register tile mispredicts every other
// element and gives back everything the skipped work saved. So the
// blocked kernels build, once per (block row, k-block), the ascending list
// of the reference's non-skipped `l` ([`RowVisits`], compacted
// branch-free on the stack) and every panel's tile of that row walks
// the list: the same adds in the same order, hence the same bits, with
// no test on the data in the hot loop. A row-block with no zero in it has
// nothing to skip and runs the plain loop without a list (dense operands
// — raw features, `matmul_nt`'s gradients — pay one vectorised zero scan
// and nothing else). Multiplying by the zero instead of skipping it would
// NOT be the same: `acc + 0.0·b` differs from `acc` on a `-0.0`
// accumulator and whenever `b` is infinite or NaN.
// ---------------------------------------------------------------------------

/// Rows of `C` per parallel task: one row block. Every `B` panel is read
/// from L1 by all of the block's rows before the next panel replaces it.
const MC: usize = 64;
/// Panel width: per-row accumulators for one tile live in registers.
const NR: usize = simd::TILE_COLS;
/// k-block depth: one `B` panel k-block is `KB × NR` contiguous floats
/// (32 KiB) — L1-sized — and one visit list covers one row's k-block.
const KB: usize = simd::VISIT_CAP;
/// At most this many columns (`n`) or inner terms (`k`) selects a narrow
/// kernel: one YMM register's worth.
const NARROW: usize = 8;
/// Rows of `C` per parallel task on the narrow paths.
const NARROW_BAND: usize = 256;

/// `C = A · B` for `A: [m,k]`, `B: [k,n]` — naive row-parallel k-outer
/// loop. Oracle for [`matmul_into`].
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, crow)| {
            let arow = a.row(i);
            for l in 0..k {
                let av = arow[l];
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(l);
                for j in 0..n {
                    crow[j] += av * brow[j];
                }
            }
        });
    c
}

/// `C = A · B` into a caller-provided output (re-shaped in place, capacity
/// reused; stale contents are overwritten, not cleared). Cache-blocked:
/// `B` is packed once into `NR`-wide panels (this thread's scratch — warm
/// calls allocate nothing), then 64-row blocks run in parallel, each
/// k-block's panel staying L1-resident across the block's rows and each
/// row × panel accumulating in a register tile. Bit-identical to
/// [`matmul_reference`] (ascending-k adds, same zero-skip) at any thread
/// count.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    matmul_into_with(simd::level(), a, b, c);
}

/// [`matmul_into`] at an explicit SIMD [`Level`] — lets tests and benches
/// pin the scalar and AVX2 paths against each other bitwise.
pub fn matmul_into_with(level: Level, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (k, n) = (b.rows(), b.cols());
    if is_narrow(k, n) || n <= NR {
        // Row-major `B` is what the narrow kernels read, and up to `NR`
        // columns it *is* its own single panel: nothing to pack.
        return blocked_gemm_into(level, a, b.data(), n, c, true);
    }
    with_scratch(|panels| {
        panels.resize(k * n, 0.0);
        pack_row_major(b.data(), k, n, panels);
        blocked_gemm_into(level, a, panels, n, c, true);
    });
}

/// True for the shapes the narrow kernels serve (they read row-major `B`).
fn is_narrow(k: usize, n: usize) -> bool {
    n > 0 && (n <= NARROW || (1..=NARROW).contains(&k))
}

thread_local! {
    /// This thread's packing scratch: `B`'s panels for a forward product
    /// (on the calling thread), a `matmul_tn` chunk's transposed `A` strip
    /// and packed `B` (on the worker running the chunk). It grows to the
    /// largest operand the thread has packed — `k · n` floats, 256 KiB at
    /// the paper's 256 x 256; `TN_CHUNK · n + MC · TN_LDA` floats, 644 KiB,
    /// for a chunk — and is then reused, so warm calls allocate nothing.
    static SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` with this thread's scratch. The buffer is *taken* for the
/// duration, so a nested use on the same thread (a worker that steals
/// another product while it waits on this one's tasks) finds an empty one
/// and allocates its own instead of aliasing this one.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = SCRATCH.take();
    let out = f(&mut buf);
    SCRATCH.set(buf);
    out
}

/// Lay a `[k, n]` operand out as `width`-wide column panels, each `[k][nb]`
/// contiguous (`nb = width` but for a ragged last panel, which keeps its
/// own width), panel after panel: the panel of columns `j0..j0+nb` starts
/// at `k * j0`. `fill(l, j0, dst)` writes elements `(l, j0..j0 + dst.len())`
/// of the operand into `dst`; every float of `out` (`k * n` long) is
/// written, so it may come in stale.
fn pack_panels(
    k: usize,
    n: usize,
    width: usize,
    out: &mut [f32],
    fill: impl Fn(usize, usize, &mut [f32]),
) {
    debug_assert_eq!(out.len(), k * n);
    if out.is_empty() {
        return;
    }
    for (p, panel) in out.chunks_mut(k * width).enumerate() {
        let nb = panel.len() / k;
        for (l, dst) in panel.chunks_exact_mut(nb).enumerate() {
            fill(l, p * width, dst);
        }
    }
}

/// [`pack_panels`] of a row-major `b: [k, n]` into `NR`-wide panels.
fn pack_row_major(b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    pack_panels(k, n, NR, out, |l, j0, dst| {
        dst.copy_from_slice(&b[l * n + j0..][..dst.len()]);
    });
}

/// The shared GEMM driver: `C = A · B` with `B` given as `NR`-wide packed
/// panels (see [`pack_panels`]; a `B` of at most `NR` columns is its own
/// panel) — or, for the shapes [`is_narrow`] names, row-major for one of
/// the narrow kernels. `skip_zero` selects the reference zero-skip rule
/// (`matmul` skips `a[i,l] == 0.0`; `matmul_nt`'s oracle does not skip).
/// Parallel over row blocks; each block is one call of [`gemm_block`].
fn blocked_gemm_into(
    level: Level,
    a: &Matrix,
    b: &[f32],
    n: usize,
    c: &mut Matrix,
    skip_zero: bool,
) {
    let (m, k) = (a.rows(), a.cols());
    debug_assert_eq!(b.len(), k * n);
    if k == 0 || n == 0 {
        return c.reset_shape(m, n);
    }
    // Stale contents stay: every kernel below overwrites all of `C`.
    c.set_shape(m, n);
    if is_narrow(k, n) {
        c.data_mut()
            .par_chunks_mut(n * NARROW_BAND)
            .zip(a.data().par_chunks(k * NARROW_BAND))
            .for_each(|(cband, aband)| {
                if n <= NARROW {
                    simd::matmul_narrow_n(level, aband, k, b, n, cband, skip_zero);
                } else {
                    simd::matmul_narrow_k(level, aband, k, b, n, cband, skip_zero);
                }
            });
        return;
    }
    c.data_mut()
        .par_chunks_mut(n * MC)
        .zip(a.data().par_chunks(k * MC))
        .for_each(|(cblock, ablock)| gemm_block(level, ablock, k, k, b, n, cblock, skip_zero));
}

/// The one blocked body — `matmul`, `matmul_nt` and every wide `matmul_tn`
/// chunk end here. One row block: `c: [rows <= MC, n]` gets rows
/// `a[i*lda..][..k]` times the packed `B`. Loop order: k-block → the
/// block's visit lists (one per row, built once and shared by every panel)
/// → panel → rows, so the `KB x NR` panel k-block — 32 KiB, contiguous —
/// is fetched into L1 once and read by all of the block's rows. Rows with
/// nothing to skip in this k-block go two at a time through
/// [`simd::matmul_rowtile2`], sharing the panel loads; a row with a visit
/// list takes [`simd::matmul_rowtile`] alone (two lists do not line up).
/// Which rows pair up decides only who computes an element when — each
/// `c[i,j]` is its own ascending-`l` sum either way, started from `0.0`
/// in the first k-block, so `c`'s stale contents never matter.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    level: Level,
    a: &[f32],
    lda: usize,
    k: usize,
    panels: &[f32],
    n: usize,
    c: &mut [f32],
    skip_zero: bool,
) {
    let rows = c.len() / n;
    debug_assert!(rows <= MC && k <= lda && (rows - 1) * lda + k <= a.len());
    // Visit-list storage, on the stack, touched only once a zero turns
    // up: a dense operand never pays for clearing it.
    let mut bufs = None;
    for k0 in (0..k).step_by(KB) {
        let k1 = k.min(k0 + KB);
        let mut visits = [RowVisits::all(&[]); MC];
        for (i, row) in visits[..rows].iter_mut().enumerate() {
            *row = RowVisits::all(&a[i * lda + k0..i * lda + k1]);
        }
        if skip_zero {
            let zeros = visits.map(|row| row.has_zero());
            if zeros.contains(&true) {
                let bufs = bufs.get_or_insert([[0; KB]; MC]);
                for ((row, buf), _) in visits.iter_mut().zip(bufs).zip(zeros).filter(|z| z.1) {
                    *row = row.listed(level, buf);
                }
            }
        }
        for j0 in (0..n).step_by(NR) {
            let nb = NR.min(n - j0);
            let panel = &panels[k * j0 + k0 * nb..k * j0 + k1 * nb];
            let mut i = 0;
            while i < rows {
                let (at, first) = (i * n + j0, k0 == 0);
                let next = visits[..rows].get(i + 1).and_then(RowVisits::dense);
                if let (Some(a0), Some(a1)) = (visits[i].dense(), next) {
                    let tile = &mut c[at..at + n + nb];
                    simd::matmul_rowtile2(level, a0, a1, panel, tile, n, first);
                    i += 2;
                } else {
                    simd::matmul_rowtile(level, visits[i], panel, &mut c[at..at + nb], first);
                    i += 1;
                }
            }
        }
    }
}

/// Allocating wrapper over [`matmul_into`].
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::empty();
    matmul_into(a, b, &mut c);
    c
}

/// k-chunk size of the `matmul_tn` partial reduction. Fixed so the
/// reduction tree's shape depends only on `k`, never on the thread count.
const TN_CHUNK: usize = 512;

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` (weight-gradient shape) —
/// the original allocating chunk-partial implementation, kept as the
/// oracle for [`matmul_tn_into`].
pub fn matmul_tn_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    // Chunk the k dimension; the chunk partials are then merged by a
    // pairwise tree whose shape depends only on the partial count, so the
    // result is bit-identical at any thread count.
    let mut partials: Vec<Vec<f32>> = (0..k.div_ceil(TN_CHUNK))
        .into_par_iter()
        .map(|c| {
            let mut acc = vec![0.0f32; m * n];
            for l in c * TN_CHUNK..((c + 1) * TN_CHUNK).min(k) {
                tn_accumulate_row(a.row(l), b.row(l), &mut acc, n);
            }
            acc
        })
        .collect();
    let out = match partials.len() {
        0 => vec![0.0f32; m * n],
        _ => tree_reduce_partials(&mut partials),
    };
    Matrix::from_vec(m, n, out)
}

/// One k-row's rank-1 contribution `acc += a_rowᵀ · b_row`, with the
/// shared zero-skip rule. Factored out so the reference and the
/// scratch-slab kernels execute the identical float sequence.
#[inline]
fn tn_accumulate_row(arow: &[f32], brow: &[f32], acc: &mut [f32], n: usize) {
    for (i, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let dst = &mut acc[i * n..(i + 1) * n];
        for (d, bv) in dst.iter_mut().zip(brow) {
            *d += av * bv;
        }
    }
}

/// Merge chunk partials pairwise: split at the midpoint, reduce both
/// halves (in parallel via `join`), then add right into left elementwise.
/// The merge tree is a pure function of `partials.len()` — deterministic
/// regardless of how the halves are scheduled.
fn tree_reduce_partials(partials: &mut [Vec<f32>]) -> Vec<f32> {
    match partials {
        [] => unreachable!("caller handles the empty case"),
        [only] => std::mem::take(only),
        _ => {
            let mid = partials.len() / 2;
            let (left, right) = partials.split_at_mut(mid);
            let (mut l, r) = rayon::join(
                || tree_reduce_partials(left),
                || tree_reduce_partials(right),
            );
            for (o, v) in l.iter_mut().zip(r) {
                *o += v;
            }
            l
        }
    }
}

/// `C = Aᵀ · B` into caller-provided output and scratch buffers. The
/// k-chunk partials live in one flat `scratch` slab (`⌈k/512⌉ · m·n`
/// floats, capacity reused across calls) instead of per-chunk `Vec`s, and
/// are merged by the same midpoint tree as [`matmul_tn_reference`] — same
/// chunk boundaries, same merge order, bit-identical output, zero steady-
/// state allocations. Each chunk's partial is one product `Aᵀ_chunk ·
/// B_chunk` computed on the blocked GEMM body, the chunk's `A` transposed a
/// strip at a time (or, for a `B` of at most eight columns, by the
/// flat-sweep narrow kernel).
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix, scratch: &mut Vec<f32>) {
    matmul_tn_into_with(simd::level(), a, b, c, scratch);
}

/// [`matmul_tn_into`] at an explicit SIMD [`Level`].
pub fn matmul_tn_into_with(
    level: Level,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let stride = m * n;
    if k == 0 || stride == 0 {
        return c.reset_shape(m, n);
    }
    let nchunks = k.div_ceil(TN_CHUNK);
    // Stale contents stay: every chunk overwrites its whole partial.
    scratch.resize(nchunks * stride, 0.0);
    scratch
        .par_chunks_mut(stride)
        .enumerate()
        .for_each(|(ci, acc)| {
            let lo = ci * TN_CHUNK;
            let hi = k.min(lo + TN_CHUNK);
            let (ad, bd) = (&a.data()[lo * m..hi * m], &b.data()[lo * n..hi * n]);
            if n > NARROW || !simd::tn_accumulate_narrow(level, ad, m, bd, n, acc) {
                with_scratch(|buf| tn_chunk(level, ad, m, bd, n, acc, buf));
            }
        });
    tree_reduce_slabs(level, &mut scratch[..nchunks * stride], nchunks, stride);
    c.set_shape(m, n);
    c.data_mut().copy_from_slice(&scratch[..stride]);
}

/// Row stride of a chunk's transposed `A` strip: a chunk's length plus one
/// cache line, so the strip's rows do not all land in the same L1 sets
/// (at exactly 2 KiB apart they would share two of the 64).
const TN_LDA: usize = TN_CHUNK + 16;

/// One `matmul_tn` chunk, `acc: [m, n] = aᵀ · b` for `a: [rows, m]`, `b:
/// [rows, n]`, `rows <= TN_CHUNK` — as calls of the forward's body. `b` is
/// packed into panels once; then, [`MC`] columns of `a` at a time, the
/// strip is transposed into `MC` rows of `buf` and [`gemm_block`] runs on
/// it. Per `(i, j)` the adds are still ascending `l` with the skip on
/// `a[l,i] == 0.0` (the body's visit lists now run over `l`), summed from
/// `0.0` — exactly [`tn_accumulate_row`] applied to the chunk's rows in
/// order.
fn tn_chunk(
    level: Level,
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    acc: &mut [f32],
    buf: &mut Vec<f32>,
) {
    let rows = b.len() / n;
    let packed = if n > NR { rows * n } else { 0 };
    buf.resize(MC * TN_LDA + packed, 0.0);
    let (strip, panels) = buf.split_at_mut(MC * TN_LDA);
    let panels = if n > NR {
        pack_row_major(b, rows, n, panels);
        &*panels
    } else {
        b
    };
    for (block, cblock) in acc.chunks_mut(n * MC).enumerate() {
        let (i0, cols) = (block * MC, cblock.len() / n);
        simd::transpose(level, &a[i0..], m, rows, cols, strip, TN_LDA);
        gemm_block(level, strip, TN_LDA, rows, panels, n, cblock, true);
    }
}

/// Slab form of [`tree_reduce_partials`]: reduce `count` contiguous
/// `stride`-sized partials into slab 0. Midpoint split, halves reduced in
/// parallel, right sum added into left — the identical tree, so the bits
/// match the `Vec<Vec<f32>>` reference exactly.
fn tree_reduce_slabs(level: Level, slabs: &mut [f32], count: usize, stride: usize) {
    if count <= 1 {
        return;
    }
    let mid = count / 2;
    let (left, right) = slabs.split_at_mut(mid * stride);
    rayon::join(
        || tree_reduce_slabs(level, left, mid, stride),
        || tree_reduce_slabs(level, right, count - mid, stride),
    );
    simd::add_assign(level, &mut left[..stride], &right[..stride]);
}

/// Allocating wrapper over [`matmul_tn_into`].
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::empty();
    let mut scratch = Vec::new();
    matmul_tn_into(a, b, &mut c, &mut scratch);
    c
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` (backward-through-weights
/// shape) — naive dot-product-per-cell loop. Oracle for
/// [`matmul_nt_into`].
pub fn matmul_nt_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut c = Matrix::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, crow)| {
            let arow = a.row(i);
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = b.row(j);
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += arow[l] * brow[l];
                }
                *cv = acc;
            }
        });
    c
}

/// `C = A · Bᵀ` into a caller-provided output, with `scratch` a pooled
/// buffer that holds `Bᵀ` (`k · n` floats, capacity reused across calls).
/// A per-cell dot product reduces over `k` — the one shape a column-lane
/// SIMD kernel cannot vectorize without re-associating the sum — so
/// instead `Bᵀ` is written once, straight into the packed panels the
/// blocked GEMM body reads (row-major — one panel as wide as `n` — for
/// the narrow kernels), and the same body as [`matmul_into`] runs on it.
/// Per element the contributions still add in ascending-`k` order (the
/// reference has no zero-skip, so the body runs with `skip_zero = false`
/// and every row takes the dense tiles) — bit-identical to
/// [`matmul_nt_reference`] at any thread count and SIMD level.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix, scratch: &mut Vec<f32>) {
    matmul_nt_into_with(simd::level(), a, b, c, scratch);
}

/// [`matmul_nt_into`] at an explicit SIMD [`Level`].
pub fn matmul_nt_into_with(
    level: Level,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
    let (k, n) = (a.cols(), b.rows());
    let width = if is_narrow(k, n) { n } else { NR };
    let bd = b.data();
    scratch.resize(k * n, 0.0);
    pack_panels(k, n, width, scratch, |l, j0, dst| {
        for (jj, o) in dst.iter_mut().enumerate() {
            *o = bd[(j0 + jj) * k + l];
        }
    });
    blocked_gemm_into(level, a, scratch, n, c, false);
}

/// Allocating wrapper over [`matmul_nt_into`].
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::empty();
    let mut scratch = Vec::new();
    matmul_nt_into(a, b, &mut c, &mut scratch);
    c
}

/// GAT's two attention-score projections in one banded pass over `h`:
/// `out = h · [a_dst | a_src]`, `[rows, 2·heads]`, the destination scores
/// in the first `heads` columns and the source scores in the rest. The
/// concatenated `B` is packed once into this thread's scratch and run
/// through [`matmul_into`]'s body, where every element is the sum of its
/// own column — ascending `l` from `0.0`, skipping `h[i, l] == 0.0` — so
/// each half is bit-identical to `h · a_dst` and `h · a_src`, while `h` is
/// read once instead of twice.
pub fn attention_scores_into(h: &Matrix, a_dst: &Matrix, a_src: &Matrix, out: &mut Matrix) {
    attention_scores_into_with(simd::level(), h, a_dst, a_src, out);
}

/// [`attention_scores_into`] at an explicit SIMD [`Level`].
pub fn attention_scores_into_with(
    level: Level,
    h: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    out: &mut Matrix,
) {
    let (k, heads) = (h.cols(), a_dst.cols());
    assert_eq!(a_dst.rows(), k, "attention scores: a_dst rows");
    assert_eq!(
        (a_src.rows(), a_src.cols()),
        (k, heads),
        "attention scores: a_src shape"
    );
    let n = 2 * heads;
    // `matmul_into`'s layout for this `B`: one row-major panel for the
    // narrow kernels and up to `NR` columns, `NR`-wide panels beyond.
    let width = if is_narrow(k, n) || n <= NR { n } else { NR };
    with_scratch(|b| {
        b.resize(k * n, 0.0);
        pack_panels(k, n, width, b, |l, j0, dst| {
            for (jj, o) in dst.iter_mut().enumerate() {
                let j = j0 + jj;
                *o = if j < heads {
                    a_dst.get(l, j)
                } else {
                    a_src.get(l, j - heads)
                };
            }
        });
        blocked_gemm_into(level, h, b, n, out, true);
    });
}

/// Backward of [`attention_scores_into`] w.r.t. `h`, added into `dh`
/// where it stands: `dh[i, j] = (dh[i, j] + Σ_l g[i, l]·a_dst[j, l]) +
/// Σ_l g[i, heads + l]·a_src[j, l]`, each Σ over ascending `l` from `0.0`
/// — the [`matmul_nt_into`] sums of the two projections, added in the
/// order the tape accumulates them, in one pass over `dh` instead of two
/// products and two accumulations. Under `fresh` (no earlier
/// contribution) `dh` is overwritten with `Σ_dst + Σ_src`. `scratch`
/// holds `a_dstᵀ` and `a_srcᵀ` (capacity reused).
pub fn attention_scores_backward_into(
    g: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    dh: &mut Matrix,
    fresh: bool,
    scratch: &mut Vec<f32>,
) {
    attention_scores_backward_into_with(simd::level(), g, a_dst, a_src, dh, fresh, scratch);
}

/// [`attention_scores_backward_into`] at an explicit SIMD [`Level`].
pub fn attention_scores_backward_into_with(
    level: Level,
    g: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    dh: &mut Matrix,
    fresh: bool,
    scratch: &mut Vec<f32>,
) {
    let (c, heads) = (a_dst.rows(), a_dst.cols());
    assert_eq!(
        (a_src.rows(), a_src.cols()),
        (c, heads),
        "attention scores: a_src shape"
    );
    assert_eq!(g.cols(), 2 * heads, "attention scores: gradient width");
    if fresh {
        dh.set_shape(g.rows(), c);
    }
    assert_eq!(
        (dh.rows(), dh.cols()),
        (g.rows(), c),
        "attention scores: dh shape"
    );
    if c == 0 {
        return;
    }
    // `[a_dstᵀ; a_srcᵀ]`: row `l` of the stack is column `l` of the
    // concatenated `[a_dst | a_src]`, contiguous over the channels.
    scratch.resize(2 * heads * c, 0.0);
    for (l, row) in scratch.chunks_exact_mut(c).enumerate() {
        let a = if l < heads { a_dst } else { a_src };
        for (j, o) in row.iter_mut().enumerate() {
            *o = a.get(j, l % heads);
        }
    }
    let at = &scratch[..];
    dh.data_mut()
        .par_chunks_mut(c * NARROW_BAND)
        .zip(g.data().par_chunks(2 * heads * NARROW_BAND))
        .for_each(|(dband, gband)| {
            for (drow, grow) in dband.chunks_exact_mut(c).zip(gband.chunks_exact(2 * heads)) {
                simd::scores_backward_row(level, grow, at, drow, fresh);
            }
        });
}

// ---------------------------------------------------------------------------
// Elementwise family.
//
// Every kernel here is a `(src, dst)` form: it reads its operand(s) and
// writes a caller-provided (pooled) output in ONE pass — `out` takes the
// operand's shape with stale contents ([`Matrix::set_shape`]) and every
// element is overwritten, so there is neither a copy of the operand nor a
// zero-fill ahead of the kernel.
//
// No loop branches on the data. Activations after dropout(0.5) or ReLU are
// ~50 % zeros and pre-activations ~50 % negative, so an `if v < 0.0`
// around a store mispredicts every other element; each op instead computes
// both arms and *selects* (`if c { a } else { b }` as an expression over
// two already-computed values), which the compiler turns into a compare +
// blend and vectorises. The comparison is the old branch's, so NaN and
// `±0.0` land on the arm they always did, and the selected value is the
// one the old arm computed — same bits.
// ---------------------------------------------------------------------------

/// Elements per parallel task of the elementwise kernels (16 KiB in, 16
/// KiB out: L1-resident).
const EW_CHUNK: usize = 4096;

/// `out = f(x)` chunk by chunk, in one pass over `x`.
fn map_into(x: &Matrix, out: &mut Matrix, f: impl Fn(&[f32], &mut [f32]) + Sync) {
    out.set_shape(x.rows(), x.cols());
    out.data_mut()
        .par_chunks_mut(EW_CHUNK)
        .zip(x.data().par_chunks(EW_CHUNK))
        .for_each(|(o, x)| f(x, o));
}

/// `out = f(a, b)` chunk by chunk, in one pass over two same-sized operands.
fn zip_map_into(
    a: &Matrix,
    b: &[f32],
    out: &mut Matrix,
    f: impl Fn(&[f32], &[f32], &mut [f32]) + Sync,
) {
    assert_eq!(a.len(), b.len(), "elementwise operand length mismatch");
    out.set_shape(a.rows(), a.cols());
    out.data_mut()
        .par_chunks_mut(EW_CHUNK)
        .zip(a.data().par_chunks(EW_CHUNK))
        .zip(b.par_chunks(EW_CHUNK))
        .for_each(|((o, a), b)| f(a, b, o));
}

/// `out = x + bias`, the bias row vector added to every row.
pub fn add_bias(x: &Matrix, bias: &[f32], out: &mut Matrix) {
    assert_eq!(bias.len(), x.cols(), "bias width mismatch");
    let n = x.cols().max(1);
    out.set_shape(x.rows(), x.cols());
    out.data_mut()
        .par_chunks_mut(n)
        .zip(x.data().par_chunks(n))
        .for_each(|(orow, xrow)| {
            for ((o, &v), &b) in orow.iter_mut().zip(xrow).zip(bias) {
                *o = v + b;
            }
        });
}

/// Elementwise sum `a + b` into a caller-provided output.
pub fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "add shape mismatch"
    );
    zip_map_into(a, b.data(), out, |a, b, o| {
        for ((o, &x), &y) in o.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    });
}

/// Elementwise sum `a + b`.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    add_into(a, b, &mut out);
    out
}

/// Elementwise scale `out = x · s`.
pub fn scale(x: &Matrix, s: f32, out: &mut Matrix) {
    map_into(x, out, |x, o| {
        for (o, &v) in o.iter_mut().zip(x) {
            *o = v * s;
        }
    });
}

/// ReLU forward: `out = +0.0` where `x < 0.0`, else `x`.
pub fn relu(x: &Matrix, out: &mut Matrix) {
    map_into(x, out, |x, o| {
        for (o, &v) in o.iter_mut().zip(x) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
    });
}

/// ReLU backward: `out = grad`, zeroed where the forward input was `<= 0`.
pub fn relu_backward(grad: &Matrix, forward_input: &Matrix, out: &mut Matrix) {
    zip_map_into(grad, forward_input.data(), out, |g, x, o| {
        for ((o, &g), &x) in o.iter_mut().zip(g).zip(x) {
            *o = if x <= 0.0 { 0.0 } else { g };
        }
    });
}

/// LeakyReLU forward (GAT uses slope 0.2 on attention logits).
pub fn leaky_relu(x: &Matrix, slope: f32, out: &mut Matrix) {
    map_into(x, out, |x, o| {
        for (o, &v) in o.iter_mut().zip(x) {
            let scaled = v * slope;
            *o = if v < 0.0 { scaled } else { v };
        }
    });
}

/// LeakyReLU backward: `out = grad`, times `slope` where the forward input
/// was negative.
pub fn leaky_relu_backward(grad: &Matrix, forward_input: &Matrix, slope: f32, out: &mut Matrix) {
    zip_map_into(grad, forward_input.data(), out, |g, x, o| {
        for ((o, &g), &x) in o.iter_mut().zip(g).zip(x) {
            let scaled = g * slope;
            *o = if x < 0.0 { scaled } else { g };
        }
    });
}

/// ELU forward (GAT's inter-layer activation): `alpha · (exp(x) - 1)` where
/// `x < 0.0`, else `x`. The oracle of the ELU that
/// [`crate::sparse::gat_aggregate_into`] applies in its tile store.
pub fn elu(x: &Matrix, alpha: f32, out: &mut Matrix) {
    map_into(x, out, |x, o| {
        for (o, &v) in o.iter_mut().zip(x) {
            let neg = alpha * (v.exp() - 1.0);
            *o = if v < 0.0 { neg } else { v };
        }
    });
}

/// ELU backward given the forward *output*: `out = grad · (y + alpha)`
/// where `y < 0.0`, else `grad`.
pub fn elu_backward(grad: &Matrix, forward_output: &Matrix, alpha: f32, out: &mut Matrix) {
    zip_map_into(grad, forward_output.data(), out, |g, y, o| {
        for ((o, &g), &y) in o.iter_mut().zip(g).zip(y) {
            let scaled = g * (y + alpha);
            *o = if y < 0.0 { scaled } else { g };
        }
    });
}

/// Inverted dropout: `out` is `x` zeroed with probability `p`, survivors
/// scaled by `1/(1-p)`; `mask` (pooled) keeps one bit per element — set
/// where the element survived — for [`dropout_backward`]. Each row's bits
/// start on a word boundary ([`dropout_mask_words`] words per row), so
/// rows draw in parallel. `p == 0` copies `x` and leaves the mask empty.
///
/// Drawing is separate from applying. Row `r` draws from its own
/// `SmallRng::seed_from_u64(seed ^ r·φ)` stream, one `gen::<f32>()` per
/// element in column order — each stream is serial, so the AVX2 level runs
/// four rows' streams abreast, one per 64-bit lane
/// ([`simd::dropout_mask_rows4`]); rows past the last full group of four,
/// and every row at the scalar level, draw one at a time. The bit is an
/// integer compare shifted into place, so the loop carries no
/// data-dependent branch. A second pass over the (L1-hot) rows then
/// writes `x · (1/(1-p))` on the kept lanes and `+0.0` on the dropped ones
/// — `+0.0` whatever `x` holds there (negative, NaN, infinite), which `x ·
/// 0.0` would not give. It ANDs the product's bits with the lane masks
/// `BYTE_LANES` holds for each 8-element group's mask byte.
pub fn dropout_into(x: &Matrix, p: f32, seed: u64, out: &mut Matrix, mask: &mut Vec<u64>) {
    dropout_into_with(simd::level(), x, p, seed, out, mask);
}

/// [`dropout_into`] at an explicit SIMD [`Level`]: the same mask words
/// and output at either.
pub fn dropout_into_with(
    level: Level,
    x: &Matrix,
    p: f32,
    seed: u64,
    out: &mut Matrix,
    mask: &mut Vec<u64>,
) {
    assert!((0.0..1.0).contains(&p));
    if p == 0.0 {
        mask.clear();
        out.copy_from(x);
        return;
    }
    let keep = 1.0 / (1.0 - p);
    let n = x.cols().max(1);
    let words = dropout_mask_words(x.cols());
    let row_seed = |row: usize| seed ^ (row as u64).wrapping_mul(0x9e3779b97f4a7c15);
    // Stale contents are fine: every word is overwritten below.
    mask.resize(x.rows() * words, 0);
    out.set_shape(x.rows(), x.cols());
    // Zero columns leave no words and no data: nothing to chunk.
    let words = words.max(1);
    mask.par_chunks_mut(4 * words)
        .zip(out.data_mut().par_chunks_mut(4 * n))
        .zip(x.data().par_chunks(4 * n))
        .enumerate()
        .for_each(|(group, ((m4, o4), x4))| {
            let row0 = 4 * group;
            let seeds = [0, 1, 2, 3].map(|r| row_seed(row0 + r));
            if !simd::dropout_mask_rows4(level, m4, x.cols(), p, seeds) {
                for (r, mrow) in m4.chunks_mut(words).enumerate() {
                    draw_mask_row(mrow, x.cols(), p, seeds[r]);
                }
            }
            let rows = o4.chunks_mut(n).zip(x4.chunks(n)).zip(m4.chunks(words));
            for ((orow, xrow), mrow) in rows {
                for_mask_lanes(orow, xrow, mrow, |o, &v, lane| {
                    *o = f32::from_bits((v * keep).to_bits() & lane);
                });
            }
        });
}

/// Per mask byte, its eight lanes as AND masks: all ones where the
/// byte's bit is set, zero where it is clear. Expanding a bit mask
/// through this table is a load and an AND per lane, which vectorises;
/// shifting each lane's bit out of the word does not on the baseline
/// target.
static BYTE_LANES: [[u32; 8]; 256] = byte_lanes();

const fn byte_lanes() -> [[u32; 8]; 256] {
    let mut table = [[0u32; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut lane = 0;
        while lane < 8 {
            if (byte >> lane) & 1 != 0 {
                table[byte][lane] = u32::MAX;
            }
            lane += 1;
        }
        byte += 1;
    }
    table
}

/// `f(out, src, lane mask)` for every element of a row, the lane mask
/// ([`BYTE_LANES`]) all ones where the row's mask bit is set.
fn for_mask_lanes(out: &mut [f32], src: &[f32], mask: &[u64], f: impl Fn(&mut f32, &f32, u32)) {
    for ((o, s), &word) in out.chunks_mut(64).zip(src.chunks(64)).zip(mask) {
        for (k, (o, s)) in o.chunks_mut(8).zip(s.chunks(8)).enumerate() {
            let lanes = &BYTE_LANES[(word >> (8 * k)) as usize & 0xff];
            for ((o, s), &lane) in o.iter_mut().zip(s).zip(lanes) {
                f(o, s, lane);
            }
        }
    }
}

/// `u64` words of dropout mask per row of `cols` elements.
pub fn dropout_mask_words(cols: usize) -> usize {
    cols.div_ceil(64)
}

/// One row of the dropout mask from the row's own generator: bit `j` of
/// the row is set where draw `j` is at least `p` (the element survives).
/// The scalar level's draw and the oracle of
/// [`simd::dropout_mask_rows4`].
fn draw_mask_row(mrow: &mut [u64], cols: usize, p: f32, row_seed: u64) {
    use rand::prelude::*;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(row_seed);
    for (w, word) in mrow.iter_mut().enumerate() {
        let mut bits = 0u64;
        for lane in 0..(cols - w * 64).min(64) {
            bits |= u64::from(rng.gen::<f32>() >= p) << lane;
        }
        *word = bits;
    }
}

/// Dropout backward: `out = grad · m` with `m = 1/(1-p)` where the mask
/// bit is set and `0.0` where it is clear — the product the forward's
/// per-element multiplier gives, so `-0.0` and NaN gradients propagate as
/// they would through an `f32` mask. `out = grad` under the empty mask of
/// `p == 0`.
pub fn dropout_backward(grad: &Matrix, mask: &[u64], p: f32, out: &mut Matrix) {
    if mask.is_empty() {
        out.copy_from(grad);
        return;
    }
    let keep = 1.0f32 / (1.0 - p);
    let n = grad.cols().max(1);
    let words = dropout_mask_words(grad.cols());
    assert_eq!(
        mask.len(),
        grad.rows() * words,
        "dropout mask length mismatch"
    );
    // Whole rows per task, about `EW_CHUNK` elements of them.
    let rows = (EW_CHUNK / n).max(1);
    out.set_shape(grad.rows(), grad.cols());
    out.data_mut()
        .par_chunks_mut(rows * n)
        .zip(grad.data().par_chunks(rows * n))
        .zip(mask.par_chunks(rows * words))
        .for_each(|((o, g), m)| {
            for ((orow, grow), mrow) in o.chunks_mut(n).zip(g.chunks(n)).zip(m.chunks(words)) {
                // `m` is `keep` or `+0.0`, the `f32` mask's two values.
                for_mask_lanes(orow, grow, mrow, |o, &g, lane| {
                    *o = g * f32::from_bits(keep.to_bits() & lane);
                });
            }
        });
}

/// Fused softmax + cross-entropy over rows. Returns `(mean_loss,
/// grad_logits)` where the gradient is already divided by the row count.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::empty();
    let mut losses = Vec::new();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad, &mut losses);
    (loss, grad)
}

/// [`softmax_cross_entropy`] writing the gradient and the per-row loss
/// scratch into caller-provided (pooled) buffers. The per-row losses are
/// still summed sequentially in row order, so the mean loss is
/// bit-identical to the allocating form at any thread count.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[u32],
    grad: &mut Matrix,
    losses: &mut Vec<f32>,
) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    let (m, n) = (logits.rows(), logits.cols());
    grad.reset_shape(m, n);
    losses.clear();
    losses.resize(m, 0.0);
    grad.data_mut()
        .par_chunks_mut(n.max(1))
        .zip(losses.par_iter_mut())
        .enumerate()
        .for_each(|(i, (grow, loss))| {
            let row = logits.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (g, &x) in grow.iter_mut().zip(row) {
                let e = (x - max).exp();
                *g = e;
                denom += e;
            }
            let label = labels[i] as usize;
            debug_assert!(label < n, "label out of range");
            let p_label = grow[label] / denom;
            for g in grow.iter_mut() {
                *g /= denom * m as f32;
            }
            grow[label] -= 1.0 / m as f32;
            *loss = -(p_label.max(1e-12)).ln();
        });
    losses.iter().sum::<f32>() / m.max(1) as f32
}

/// Row-wise argmax (predictions).
pub fn argmax_rows(x: &Matrix) -> Vec<u32> {
    let mut out = Vec::new();
    argmax_rows_into(x, &mut out);
    out
}

/// [`argmax_rows`] into a caller-provided (pooled) buffer.
pub fn argmax_rows_into(x: &Matrix, out: &mut Vec<u32>) {
    out.clear();
    out.resize(x.rows(), 0);
    out.par_iter_mut().enumerate().for_each(|(i, o)| {
        let row = x.row(i);
        let mut best = 0usize;
        for j in 1..row.len() {
            if row[j] > row[best] {
                best = j;
            }
        }
        *o = best as u32;
    });
}

/// Column-wise sum (bias gradients) into a caller-provided slice of
/// length `x.cols()`.
pub fn sum_rows_into(x: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), x.cols(), "sum_rows output width mismatch");
    out.fill(0.0);
    for i in 0..x.rows() {
        for (o, v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

/// Column-wise sum (bias gradients).
pub fn sum_rows(x: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; x.cols()];
    sum_rows_into(x, &mut out);
    out
}

/// FLOP count of `matmul(a, b)`-shaped work (2·m·k·n) — used by the cost
/// model to charge simulated GPU time for the layer compute.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;

    fn randm(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..a.cols() {
                    acc += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = randm(7, 5, 1);
        let b = randm(5, 9, 2);
        assert!(matmul(&a, &b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = randm(11, 4, 3);
        let b = randm(11, 6, 4);
        let at = Matrix::from_fn(4, 11, |i, j| a.get(j, i));
        assert!(matmul_tn(&a, &b).max_abs_diff(&naive_matmul(&at, &b)) < 1e-4);
    }

    /// `matmul_tn`'s chunked partials + pairwise tree reduce must produce
    /// the same bits on the parallel pool as on the forced-sequential
    /// schedule (which executes the identical reduction tree inline).
    #[test]
    fn matmul_tn_bits_are_pinned_across_thread_counts() {
        rayon::init_threads(4);
        // k = 2000 spans multiple 512-row chunks, so the tree reduce has
        // real internal nodes.
        let a = randm(2000, 5, 13);
        let b = randm(2000, 7, 14);
        let seq = rayon::run_sequential(|| matmul_tn(&a, &b));
        for _ in 0..3 {
            let par = matmul_tn(&a, &b);
            assert!(
                par.data()
                    .iter()
                    .zip(seq.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "matmul_tn bits depend on schedule"
            );
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = randm(5, 8, 5);
        let b = randm(7, 8, 6);
        let bt = Matrix::from_fn(8, 7, |i, j| b.get(j, i));
        assert!(matmul_nt(&a, &b).max_abs_diff(&naive_matmul(&a, &bt)) < 1e-4);
    }

    #[test]
    fn relu_and_backward() {
        let input = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let mut out = Matrix::empty();
        relu(&input, &mut out);
        assert_eq!(out.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        relu_backward(&g, &input, &mut out);
        assert_eq!(out.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn bias_and_sum_rows_are_adjoint_shapes() {
        let mut x = Matrix::empty();
        add_bias(&Matrix::zeros(3, 2), &[1.0, -2.0], &mut x);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        assert_eq!(sum_rows(&x), vec![3.0, -6.0]);
    }

    #[test]
    fn softmax_ce_on_known_case() {
        // Two rows, three classes; uniform logits → loss = ln 3.
        let logits = Matrix::zeros(2, 3);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]);
        assert!((loss - 3.0f32.ln()).abs() < 1e-6);
        // Gradient rows sum to zero.
        for i in 0..2 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
        // True-class entries are negative.
        assert!(grad.get(0, 0) < 0.0 && grad.get(1, 2) < 0.0);
    }

    #[test]
    fn softmax_ce_gradient_matches_finite_difference() {
        let x = randm(4, 5, 9);
        let labels = [1u32, 0, 4, 2];
        let (_, grad) = softmax_cross_entropy(&x, &labels);
        let eps = 1e-3;
        for (i, j) in [(0usize, 1usize), (2, 4), (3, 0)] {
            let mut xp = x.clone();
            xp.set(i, j, x.get(i, j) + eps);
            let mut xm = x.clone();
            xm.set(i, j, x.get(i, j) - eps);
            let (lp, _) = softmax_cross_entropy(&xp, &labels);
            let (lm, _) = softmax_cross_entropy(&xm, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.get(i, j)).abs() < 1e-3,
                "({i},{j}): fd {fd} vs grad {}",
                grad.get(i, j)
            );
        }
    }

    #[test]
    fn dropout_scales_survivors() {
        let ones = Matrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let (mut x, mut mask) = (Matrix::empty(), Vec::new());
        dropout_into(&ones, 0.5, 42, &mut x, &mut mask);
        let kept = x.data().iter().filter(|v| **v > 0.0).count();
        // ~50% kept; survivors scaled to 2.0.
        assert!((kept as f64 / 10_000.0 - 0.5).abs() < 0.03);
        assert!(x.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // One bit per element, set exactly on the survivors.
        assert_eq!(mask.len(), 10_000usize.div_ceil(64));
        let bits: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(bits, kept);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let x = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn elu_matches_definition() {
        let mut x = Matrix::empty();
        elu(&Matrix::from_vec(1, 2, vec![-1.0, 2.0]), 1.0, &mut x);
        assert!((x.get(0, 0) - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(x.get(0, 1), 2.0);
    }

    fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The blocked kernels reuse whatever garbage is in the output (and
    /// scratch) buffers — a warm pooled buffer must not leak into results.
    #[test]
    fn into_kernels_overwrite_dirty_buffers() {
        let a = randm(9, 6, 21);
        let b = randm(6, 7, 22);
        let mut dirty = Matrix::from_fn(3, 3, |_, _| f32::NAN);
        matmul_into(&a, &b, &mut dirty);
        assert!(bits_equal(&dirty, &matmul_reference(&a, &b)));
        let bt = randm(5, 6, 23);
        let mut scratch = vec![f32::NAN; 7];
        matmul_nt_into(&a, &bt, &mut dirty, &mut scratch);
        assert!(bits_equal(&dirty, &matmul_nt_reference(&a, &bt)));
        let a2 = randm(700, 4, 24);
        let b2 = randm(700, 3, 25);
        scratch.clear();
        scratch.push(f32::NAN);
        matmul_tn_into(&a2, &b2, &mut dirty, &mut scratch);
        assert!(bits_equal(&dirty, &matmul_tn_reference(&a2, &b2)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn matmul_is_linear(seed in 0u64..1000) {
            // (A + A) · B == 2 (A · B)
            let a = randm(6, 4, seed);
            let b = randm(4, 5, seed + 1);
            let a2 = add(&a, &a);
            let mut twice = Matrix::empty();
            scale(&matmul(&a, &b), 2.0, &mut twice);
            prop_assert!(matmul(&a2, &b).max_abs_diff(&twice) < 1e-4);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Blocked kernels must equal the naive reference kernels *in
        /// bits*, for any shape — including shapes that don't divide the
        /// MC/NR/KB sizes: m past two row blocks, n past nine panels with a
        /// ragged last one, and k large enough to span several k-blocks.
        /// Together with the pool-vs-sequential tests this pins the blocked
        /// kernels at every thread count.
        #[test]
        fn blocked_matmul_family_is_bit_identical_to_reference(
            m in 1usize..150,
            k in 1usize..600,
            n in 1usize..300,
            seed in 0u64..1000,
        ) {
            let a = randm(m, k, seed);
            let b = randm(k, n, seed + 1);
            prop_assert!(bits_equal(&matmul(&a, &b), &matmul_reference(&a, &b)));

            let bt = randm(n, k, seed + 2);
            prop_assert!(bits_equal(&matmul_nt(&a, &bt), &matmul_nt_reference(&a, &bt)));

            // tn shape: A is [k, m] with k the reduced dimension.
            let atn = randm(k, m, seed + 3);
            let btn = randm(k, n, seed + 4);
            let mut c = Matrix::empty();
            let mut scratch = Vec::new();
            matmul_tn_into(&atn, &btn, &mut c, &mut scratch);
            prop_assert!(bits_equal(&c, &matmul_tn_reference(&atn, &btn)));
            // Calling again with the warm scratch must not change bits.
            matmul_tn_into(&atn, &btn, &mut c, &mut scratch);
            prop_assert!(bits_equal(&c, &matmul_tn_reference(&atn, &btn)));
        }
    }

    /// The blocked kernels on the work-stealing pool must produce the
    /// same bits as on the forced-sequential reference schedule.
    #[test]
    fn blocked_kernels_bits_are_pinned_across_schedules() {
        rayon::init_threads(4);
        let a = randm(67, 1200, 31);
        let b = randm(1200, 33, 32);
        let bt = randm(33, 1200, 33);
        let seq = rayon::run_sequential(|| {
            (
                matmul(&a, &b),
                matmul_nt(&a, &bt),
                matmul_tn(&b, &b),
                softmax_cross_entropy(&randm(64, 10, 34), &[3u32; 64]).0,
            )
        });
        for _ in 0..3 {
            let par = (
                matmul(&a, &b),
                matmul_nt(&a, &bt),
                matmul_tn(&b, &b),
                softmax_cross_entropy(&randm(64, 10, 34), &[3u32; 64]).0,
            );
            assert!(bits_equal(&par.0, &seq.0), "matmul bits depend on schedule");
            assert!(
                bits_equal(&par.1, &seq.1),
                "matmul_nt bits depend on schedule"
            );
            assert!(
                bits_equal(&par.2, &seq.2),
                "matmul_tn bits depend on schedule"
            );
            assert_eq!(par.3.to_bits(), seq.3.to_bits(), "loss depends on schedule");
        }
    }
}

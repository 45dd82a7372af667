//! Runtime-dispatched SIMD inner loops for the hot kernels.
//!
//! Every kernel in this module comes in two implementations selected at
//! runtime: a portable scalar loop (the reference semantics, exactly the
//! float sequences of the plain oracle loops in [`crate::ops`] and
//! [`crate::sparse`]) and an AVX2 version
//! using 8-wide `f32` lanes via `std::arch::x86_64`. Dispatch is decided
//! once per process by [`level`] — `is_x86_feature_detected!("avx2")`
//! cached in a `OnceLock`, overridable with the `WG_SIMD` environment
//! variable (`off`/`scalar` force the portable path, `avx2` forces the
//! vector path, `auto`/unset detects).
//!
//! # Bit-identity contract
//!
//! The repo's determinism guarantee — identical output bits at any thread
//! count, any schedule, and now any SIMD level — holds because every
//! kernel here vectorizes **across independent output elements**, never
//! across a single element's reduction:
//!
//! * `matmul_rowtile`, `matmul_rowtile2`, `matmul_narrow_k`,
//!   `spmm_gather_rowtile` (unweighted or with a per-edge head weight),
//!   `spmm_scatter_rowtile`, `add_assign`, the `dL/dh` half of
//!   `weighted_spmm_backward_row`: each output element `acc[j]`
//!   accumulates its contributions in the same ascending order (ascending
//!   `k` / edge index) whether `j` lives in a YMM lane or a scalar
//!   register. Lanes are just eight adjacent `j`s computed together — and
//!   the two rows of `matmul_rowtile2` are just two such tiles computed
//!   together, sharing the loads of `B`: no sum crosses from one row's
//!   registers to the other's.
//! * the `dL/d att` half of `weighted_spmm_backward_row` (a g-SDDMM),
//!   `matmul_narrow_n` — the **edge-lane rule**: an edge's dot product is
//!   one output element; lanes are eight edges. A reduction over channels
//!   (or over `k` when `B` has only a few columns) may not be split
//!   across lanes, so the lanes are eight *rows* — eight incoming edges of
//!   one source, eight rows of `A` — transposed in registers, each
//!   lane keeping the scalar ascending-index sum of its own row. Ragged
//!   groups are padded with a repeated row and the padding is discarded.
//! * `tn_accumulate_narrow` (`n <= 8`) sweeps the `[m, n]` accumulator as
//!   a flat array (2 rows x 4 columns per vector at `n = 4`); every flat
//!   element is still its own ascending-`k` sum.
//! * `edge_softmax_dst`, `edge_softmax_backward_dst`: lanes are heads; the
//!   per-head max, denominator and dot run over the edges in order, and
//!   `exp` is libm's, called per element at either level.
//! * Zero-skip rules are per output element, and never a branch on the
//!   data inside a hot loop. Where one `a` operand feeds a whole row of
//!   lanes (`matmul_rowtile`) the kernel walks a [`RowVisits`] list — the reference's non-skipped `l`, ascending,
//!   built once per row segment and reused by every panel's tile — so it
//!   performs exactly the reference's adds. Where the lanes hold different
//!   `a` operands (the narrow kernels) a lane whose operand is `0.0` keeps
//!   its old value (blend), exactly as if the scalar loop had `continue`d.
//!   Either way the skip is observable when `B` holds an `inf`, which is
//!   why multiplying by the zero is not an option.
//! * No FMA contraction anywhere: the scalar paths (and the reference
//!   oracles) round the multiply and the add separately, so the vector
//!   paths use explicit `mul` + `add` intrinsics, never `fmadd`.
//! * `copy_slice` and `transpose` move bytes; `fnv1a_f32` is an
//!   order-serial hash chain
//!   (each step consumes the previous hash), so it cannot be lane-split
//!   without changing the digest — it is kept as one scalar chain,
//!   unrolled, and stays byte-identical to the naive fold.
//!
//! The dispatched `*_with` kernel entry points in [`crate::ops`] /
//! [`crate::sparse`] take an explicit [`Level`] so tests and benches can
//! pin both paths against each other bitwise.

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::OnceLock;

/// The instruction-set level a kernel runs at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// Portable scalar loops — the reference float sequences.
    Scalar,
    /// 8-wide `f32` lanes via AVX2 (separate mul + add, no FMA).
    Avx2,
}

impl Level {
    /// Human-readable name (logged by benches and the wallclock harness).
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }
}

/// Parse a `WG_SIMD` override. `None` means "auto" (detect).
///
/// Accepted values: `off` / `scalar` (force portable), `avx2` (force
/// vector), `auto` / empty (detect). Anything else panics — a typo in a
/// perf knob should be loud, not silently scalar.
pub fn parse_override(value: &str) -> Option<Level> {
    match value.to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "off" | "scalar" => Some(Level::Scalar),
        "avx2" => Some(Level::Avx2),
        other => panic!("WG_SIMD={other:?} not understood (use off|scalar|avx2|auto)"),
    }
}

/// True when the host can execute the AVX2 kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static LEVEL: OnceLock<Level> = OnceLock::new();

/// The process-wide dispatch level: the `WG_SIMD` override if set, else
/// runtime feature detection. Decided once, cached in a `OnceLock`.
///
/// Panics if `WG_SIMD=avx2` is forced on a host without AVX2 — an
/// explicit override that cannot be honored must not silently downgrade.
pub fn level() -> Level {
    *LEVEL.get_or_init(|| {
        let requested = std::env::var("WG_SIMD")
            .ok()
            .and_then(|v| parse_override(&v));
        match requested {
            Some(Level::Avx2) => {
                assert!(
                    avx2_available(),
                    "WG_SIMD=avx2 forced but the host does not support AVX2"
                );
                Level::Avx2
            }
            Some(Level::Scalar) => Level::Scalar,
            None => {
                if avx2_available() {
                    Level::Avx2
                } else {
                    Level::Scalar
                }
            }
        }
    })
}

/// Marker for plain-old-data numeric element types whose byte
/// representation may be copied freely (no padding, no drop glue) —
/// the bound [`copy_slice`] needs to reinterpret rows as byte streams.
pub trait Pod: Copy + 'static {}

impl Pod for f32 {}
impl Pod for f64 {}
impl Pod for u8 {}
impl Pod for i32 {}
impl Pod for u32 {}
impl Pod for i64 {}
impl Pod for u64 {}

// ---------------------------------------------------------------------------
// Scalar kernels — the portable fallback. These ARE the reference float
// sequences: the blocked kernels in ops.rs/sparse.rs executed exactly
// these loops before dispatch existed.
// ---------------------------------------------------------------------------

/// Longest row segment one visit list covers — the blocked GEMM's k-block
/// depth, so a list's `u16` entries and its stack buffer are both small.
pub const VISIT_CAP: usize = 256;

/// Widest panel one register tile covers: four YMM accumulators per row.
pub const TILE_COLS: usize = 32;

/// Stack storage for one [`RowVisits`] list.
pub type VisitBuf = [u16; VISIT_CAP];

/// One row segment of `A` together with the positions a kernel visits of
/// it: every `l`, or the ascending list of `l` with `arow[l] != 0.0` —
/// exactly the `l` the reference loops do not `continue` past, in their
/// order, so a kernel that walks the list performs the reference's adds
/// and no others (`-0.0` is skipped, NaN is visited, as `== 0.0` decides).
///
/// Invariant (the fields are private so only the constructors establish
/// it, and the AVX2 kernels rely on it for memory safety): `list` entries
/// are strictly ascending and each is `< arow.len()`.
#[derive(Clone, Copy)]
pub struct RowVisits<'a> {
    arow: &'a [f32],
    list: Option<&'a [u16]>,
}

impl<'a> RowVisits<'a> {
    /// Visit every element (kernels whose reference has no zero-skip).
    #[inline]
    pub fn all(arow: &'a [f32]) -> Self {
        RowVisits { arow, list: None }
    }

    /// True when the segment holds a `±0.0` — something to skip. An
    /// or-reduction, not `any`: no early exit, so it vectorises.
    #[inline]
    pub fn has_zero(&self) -> bool {
        self.arow.iter().fold(false, |zero, &av| zero | (av == 0.0))
    }

    /// The same segment (at most [`VISIT_CAP`] long), visiting only its
    /// nonzero elements: their positions are compacted into `buf`
    /// branch-free — store the position, then advance by the comparison —
    /// so no branch depends on the data.
    #[inline]
    pub fn listed(self, buf: &'a mut VisitBuf) -> Self {
        assert!(self.arow.len() <= VISIT_CAP, "visit list: segment too long");
        let mut n = 0;
        for (l, &av) in self.arow.iter().enumerate() {
            // `n <= l < VISIT_CAP`: the modulo changes nothing, it only
            // spares the loop a bounds check (a third of its time).
            buf[n % VISIT_CAP] = l as u16;
            n += usize::from(av != 0.0);
        }
        let list = &buf[..n];
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(list.last().is_none_or(|&l| (l as usize) < self.arow.len()));
        RowVisits {
            arow: self.arow,
            list: Some(list),
        }
    }

    /// Visit the nonzero elements of `arow`. A segment with no zero in it
    /// has nothing to skip and stays [`RowVisits::all`], so dense operands
    /// run the plain loop with no list and no per-element test.
    #[inline]
    pub fn skipping_zeros(arow: &'a [f32], buf: &'a mut VisitBuf) -> Self {
        let row = Self::all(arow);
        if row.has_zero() {
            row.listed(buf)
        } else {
            row
        }
    }

    /// The whole segment, when every element of it is visited (no list):
    /// such a row can share a register tile with another one.
    #[inline]
    pub fn dense(&self) -> Option<&'a [f32]> {
        self.list.is_none().then_some(self.arow)
    }

    /// Call `f(l, arow[l])` for every visited position, ascending.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize, f32)) {
        match self.list {
            None => self.arow.iter().enumerate().for_each(|(l, &av)| f(l, av)),
            Some(list) => list
                .iter()
                .for_each(|&l| f(l as usize, self.arow[l as usize])),
        }
    }
}

/// One matmul tile row, scalar: `c[j] = Σ arow[l] * panel[l*nb + j]` over
/// the visited `l` in ascending order, `nb = c.len()` — summed from `0.0`
/// when `first`, else on top of what `c` holds.
fn matmul_rowtile_scalar(row: RowVisits, panel: &[f32], c: &mut [f32], first: bool) {
    let nb = c.len();
    if first {
        c.fill(0.0);
    }
    row.for_each(|l, av| {
        let brow = &panel[l * nb..(l + 1) * nb];
        for (a, &bv) in c.iter_mut().zip(brow) {
            *a += av * bv;
        }
    });
}

/// One spmm forward channel tile, scalar: for every edge source index,
/// `acc[j] += scale * src[s*lds + j0 + j]` in ascending edge order, edge
/// `i`'s scale being `scale * w[i*stride]` under `weights = (w, stride)`.
fn spmm_gather_scalar(
    indices: &[u32],
    weights: Option<(&[f32], usize)>,
    src: &[f32],
    lds: usize,
    j0: usize,
    scale: f32,
    acc: &mut [f32],
) {
    let cb = acc.len();
    for (i, &s) in indices.iter().enumerate() {
        let s = s as usize;
        let scale = weights.map_or(scale, |(w, stride)| scale * w[i * stride]);
        let srow = &src[s * lds + j0..s * lds + j0 + cb];
        for (a, &x) in acc.iter_mut().zip(srow) {
            *a += scale * x;
        }
    }
}

/// One spmm backward channel tile, scalar: for every incoming edge's
/// destination `d` (ascending edge order), accumulate
/// `agg_scale * grad[d*ldg + j0 + j]`, where `agg_scale` is `1/deg(d)`
/// under mean aggregation (0 for isolated destinations) and 1 under sum.
fn spmm_scatter_scalar(
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    grad: &[f32],
    ldg: usize,
    j0: usize,
    acc: &mut [f32],
) {
    let cb = acc.len();
    for &d in dsts {
        let d = d as usize;
        let scale = scatter_scale(offsets, d, mean);
        let grow = &grad[d * ldg + j0..d * ldg + j0 + cb];
        for (a, &g) in acc.iter_mut().zip(grow) {
            *a += scale * g;
        }
    }
}

/// The backward aggregation scale for destination `d`: exactly
/// `agg_scale(agg, degree(d))` from the sparse kernels.
#[inline]
fn scatter_scale(offsets: &[u32], d: usize, mean: bool) -> f32 {
    if !mean {
        return 1.0;
    }
    let degree = (offsets[d + 1] - offsets[d]) as usize;
    if degree == 0 {
        0.0
    } else {
        1.0 / degree as f32
    }
}

/// `C = A·B` row by row, scalar (the narrow kernels' portable twin): each
/// row of `C` accumulates `a[i,l] * b[l,:]` over ascending `l` from `0.0`,
/// one [`VISIT_CAP`]-long segment of the row at a time — row-major `B` is
/// one full-width panel.
fn matmul_rows_scalar(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32], skip: bool) {
    if k == 0 {
        return c.fill(0.0);
    }
    let mut buf = [0; VISIT_CAP];
    for (crow, arow) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        let segments = arow.chunks(VISIT_CAP).zip(b.chunks(VISIT_CAP * n));
        for (s, (seg, bseg)) in segments.enumerate() {
            let row = if skip {
                RowVisits::skipping_zeros(seg, &mut buf)
            } else {
                RowVisits::all(seg)
            };
            matmul_rowtile_scalar(row, bseg, crow, s == 0);
        }
    }
}

/// Edge softmax of one destination's `[deg, heads]` logits, scalar, in
/// place: per head, max then `exp(x - max)` with a running denominator then
/// the divide, each over the edges in order.
fn edge_softmax_dst_scalar(x: &mut [f32], heads: usize) {
    let len = x.len();
    for h in 0..heads {
        let head = || (h..len).step_by(heads);
        let mut max = f32::NEG_INFINITY;
        for i in head() {
            max = max.max(x[i]);
        }
        let mut denom = 0.0f32;
        for i in head() {
            let v = (x[i] - max).exp();
            x[i] = v;
            denom += v;
        }
        for i in head() {
            x[i] /= denom;
        }
    }
}

/// Edge-softmax backward of one destination, scalar, in place: `grad =
/// soft * (grad - dot)` with `dot = Σ_e soft*grad` per head over the edges
/// in order.
fn edge_softmax_backward_dst_scalar(soft: &[f32], grad: &mut [f32], heads: usize) {
    let len = soft.len();
    for h in 0..heads {
        let head = || (h..len).step_by(heads);
        let mut dot = 0.0f32;
        for i in head() {
            dot += soft[i] * grad[i];
        }
        for i in head() {
            grad[i] = soft[i] * (grad[i] - dot);
        }
    }
}

/// Weighted g-SpMM backward of one source row, scalar: per incoming edge
/// `i` (destination `dsts[i]`, edge `edges[i]`, ascending edge order) and
/// head `h`, `datt(i, h, Σ_j g[j] * hrow[j])` over the head's channels
/// from `0.0` — the g-SDDMM sequence — and `dh[j] += w[e, h] * g[j]` —
/// the transposed g-SpMM sequence, `dh` summed from `0.0`.
#[allow(clippy::too_many_arguments)]
fn weighted_spmm_backward_row_scalar(
    dsts: &[u32],
    edges: &[u32],
    att: &[f32],
    heads: usize,
    grad: &[f32],
    hrow: &[f32],
    dh: &mut [f32],
    datt: &mut impl FnMut(usize, usize, f32),
) {
    let c = hrow.len();
    let head_dim = c / heads;
    dh.fill(0.0);
    for (i, (&d, &e)) in dsts.iter().zip(edges).enumerate() {
        let grow = &grad[d as usize * c..][..c];
        for h in 0..heads {
            let span = h * head_dim..(h + 1) * head_dim;
            let mut acc = 0.0f32;
            for j in span.clone() {
                acc += grow[j] * hrow[j];
            }
            datt(i, h, acc);
            let w = att[e as usize * heads + h];
            for j in span {
                dh[j] += w * grow[j];
            }
        }
    }
}

/// One row of the attention scores' input gradient, scalar: per channel
/// `j`, `Σ_l g[l]·at[l, j]` over the destination half's `l` and over the
/// source half's, each ascending from `0.0`, then `dh[j] = (dh[j] +
/// Σ_dst) + Σ_src` — or `Σ_dst + Σ_src` when `fresh`.
fn scores_backward_row_scalar(g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
    let (c, heads) = (dh.len(), g.len() / 2);
    for (j, o) in dh.iter_mut().enumerate() {
        let half = |l0: usize| (l0..l0 + heads).fold(0.0f32, |acc, l| acc + g[l] * at[l * c + j]);
        let (sd, ss) = (half(0), half(heads));
        let acc = if fresh { sd } else { *o + sd };
        *o = acc + ss;
    }
}

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += v;
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

/// Validate the geometry the tile kernels assume: `panel` holds one
/// `nb`-wide row (`ldb` is the panel's own width — panels are contiguous)
/// for every position of a `kb`-long row segment, and `nb` fits one tile.
#[inline]
fn check_rowtile_bounds(kb: usize, panel_len: usize, nb: usize) {
    assert!(nb <= TILE_COLS, "rowtile: panel of {nb} columns");
    assert!(
        kb * nb <= panel_len,
        "rowtile: B panel too short ({panel_len} < {kb} x {nb})"
    );
}

/// One row of a matmul register tile against a packed panel: `c[j] = Σ
/// arow[l] * panel[l*nb + j]` over the visited `l`, ascending, with `nb =
/// c.len()` the panel's width. The sum starts from `0.0` when `first` (the
/// row's first k-block: `c` may hold stale values) and from `c` otherwise.
#[inline]
pub fn matmul_rowtile(level: Level, row: RowVisits, panel: &[f32], c: &mut [f32], first: bool) {
    check_rowtile_bounds(row.arow.len(), panel.len(), c.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() only reports Avx2 when the host supports it; the
        // panel covers `arow.len()` rows of `c.len()` floats (checked
        // above), and `c` is the one tile row.
        Level::Avx2 => unsafe { avx2::matmul_tile([row.arow], row.list, panel, c, 0, first) },
        _ => matmul_rowtile_scalar(row, panel, c, first),
    }
}

/// Two rows of `A` with nothing to skip through one register tile, every
/// panel row loaded once for both: `c[..nb]` is `a0`'s tile row and
/// `c[ldc..]` (also `nb` long, so `nb = c.len() - ldc`) is `a1`'s. Each
/// output element is the same ascending-`l` sum as in [`matmul_rowtile`];
/// the scalar level just runs the two rows one after the other.
#[inline]
pub fn matmul_rowtile2(
    level: Level,
    a0: &[f32],
    a1: &[f32],
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    assert!(ldc < c.len(), "rowtile2: C holds no second row");
    assert_eq!(a0.len(), a1.len(), "rowtile2: row segments differ");
    let nb = c.len() - ldc;
    check_rowtile_bounds(a0.len(), panel.len(), nb);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); both rows are `a0.len()` long
        // and the panel covers that many rows of `nb` floats (checked
        // above); `c` is exactly the two `nb`-wide tile rows, `ldc` apart.
        Level::Avx2 => unsafe { avx2::matmul_tile([a0, a1], None, panel, c, ldc, first) },
        _ => {
            let (c0, c1) = c.split_at_mut(ldc);
            matmul_rowtile_scalar(RowVisits::all(a0), panel, &mut c0[..nb], first);
            matmul_rowtile_scalar(RowVisits::all(a1), panel, c1, first);
        }
    }
}

/// `dst[c*ld_dst + r] = src[r*ld_src + c]` for `r < rows`, `c < cols`: a
/// `[rows, cols]` block (row stride `ld_src`) transposed into rows `ld_dst`
/// apart. A copy — `matmul_tn` turns a chunk of `Aᵀ` into the row-major
/// operand the blocked GEMM body reads.
#[inline]
pub fn transpose(
    level: Level,
    src: &[f32],
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ld_dst: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        (rows - 1) * ld_src + cols <= src.len() && (cols - 1) * ld_dst + rows <= dst.len(),
        "transpose: block out of bounds"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); both blocks asserted in bounds.
        Level::Avx2 => unsafe { avx2::transpose(src, ld_src, rows, cols, dst, ld_dst) },
        _ => {
            for (r, srow) in src.chunks(ld_src).take(rows).enumerate() {
                for (c, &v) in srow[..cols].iter().enumerate() {
                    dst[c * ld_dst + r] = v;
                }
            }
        }
    }
}

/// Forward g-SpMM channel tile: `acc[j] += scale * src[s*lds + j0 + j]`
/// over the edge sources `indices`, in ascending edge order. `weights =
/// (w, stride)` makes it one head of the weighted multi-head form: edge
/// `i` is scaled by `scale * w[i*stride]` (`w` starting at the tile's
/// first edge and head).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn spmm_gather_rowtile(
    level: Level,
    indices: &[u32],
    weights: Option<(&[f32], usize)>,
    src: &[f32],
    lds: usize,
    j0: usize,
    scale: f32,
    acc: &mut [f32],
) {
    match level {
        Level::Scalar => spmm_gather_scalar(indices, weights, src, lds, j0, scale, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); the kernel asserts the largest
        // source row and the last edge weight in bounds before any load.
        Level::Avx2 => unsafe {
            avx2::spmm_gather_rowtile(indices, weights, src, lds, j0, scale, acc)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => spmm_gather_scalar(indices, weights, src, lds, j0, scale, acc),
    }
}

/// Backward g-SpMM channel tile: gather `agg_scale(d) * grad[d]` over the
/// incoming edges' destinations, ascending edge order.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn spmm_scatter_rowtile(
    level: Level,
    dsts: &[u32],
    offsets: &[u32],
    mean: bool,
    grad: &[f32],
    ldg: usize,
    j0: usize,
    acc: &mut [f32],
) {
    match level {
        Level::Scalar => spmm_scatter_scalar(dsts, offsets, mean, grad, ldg, j0, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); the kernel asserts the largest
        // destination row in bounds before any load.
        Level::Avx2 => unsafe {
            avx2::spmm_scatter_rowtile(dsts, offsets, mean, grad, ldg, j0, acc)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => spmm_scatter_scalar(dsts, offsets, mean, grad, ldg, j0, acc),
    }
}

/// A run of `matmul_tn` k-rows against a `B` of at most eight columns:
/// `acc[i*n + j] = Σ_l a[l,i] * b[l,j]` from `0.0` over the rows `l` of `a:
/// [rows, m]` and `b: [rows, n]` in order (stale `acc` contents are
/// overwritten), with the zero-skip rule on `a[l,i]`, `acc` swept
/// flat, `8/n` rows by `n` columns per vector. Returns `false`, having done
/// nothing, at a level that has no such kernel — the caller then runs the
/// chunk through the blocked GEMM body like any wider one.
#[inline]
pub fn tn_accumulate_narrow(
    level: Level,
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    acc: &mut [f32],
) -> bool {
    assert!(
        (1..=8).contains(&n) && m > 0 && a.len().is_multiple_of(m),
        "tn_accumulate_narrow: shape"
    );
    assert_eq!(b.len(), a.len() / m * n, "tn_accumulate_narrow: B rows");
    assert!(m * n <= acc.len(), "tn_accumulate_narrow: acc too short");
    match level {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => {
            acc[..m * n].fill(0.0);
            // SAFETY: AVX2 verified by level(); slice shapes asserted above.
            unsafe { avx2::tn_accumulate_narrow(a, m, b, n, acc) };
            true
        }
        _ => false,
    }
}

/// `C = A·B` where `B: [k, n]` has at most eight columns (`a: [m, k]`,
/// `c: [m, n]`, all row-major): ascending-`l` sums from `0.0`, optional
/// zero-skip on `a[i,l]`. The AVX2 level puts eight rows of `A` in the
/// lanes (the edge-lane rule of the module docs).
#[inline]
pub fn matmul_narrow_n(
    level: Level,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    skip_zero: bool,
) {
    assert!((1..=8).contains(&n), "matmul_narrow_n: n = {n}");
    assert!(b.len() == k * n && c.len().is_multiple_of(n) && a.len() == c.len() / n * k);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); slice shapes asserted above.
        Level::Avx2 if k > 0 => unsafe { avx2::matmul_narrow_n(a, k, b, n, c, skip_zero) },
        _ => matmul_rows_scalar(a, k, b, n, c, skip_zero),
    }
}

/// `C = A·B` where `A: [m, k]` has at most eight columns: each column
/// tile of a `C` row is summed over ascending `l` from `0.0` in registers
/// and stored once. Scalar level: the generic row tile.
#[inline]
pub fn matmul_narrow_k(
    level: Level,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    skip_zero: bool,
) {
    assert!(
        (1..=8).contains(&k) && n > 0,
        "matmul_narrow_k: k = {k}, n = {n}"
    );
    assert!(b.len() == k * n && a.len().is_multiple_of(k) && c.len() == a.len() / k * n);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); slice shapes asserted above.
        Level::Avx2 => unsafe { avx2::matmul_narrow_k(a, k, b, n, c, skip_zero) },
        _ => matmul_rows_scalar(a, k, b, n, c, skip_zero),
    }
}

/// Edge softmax over one destination's `[deg, heads]` logits, in place:
/// per head, the max, then `exp(x - max)` with a running denominator, then
/// the divide, each over the edges in order. The AVX2 level runs four
/// heads abreast when `heads` is a multiple of four.
#[inline]
pub fn edge_softmax_dst(level: Level, x: &mut [f32], heads: usize) {
    assert!(heads >= 1 && x.len().is_multiple_of(heads));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); lengths asserted above.
        Level::Avx2 if heads.is_multiple_of(4) => unsafe { avx2::edge_softmax_dst(x, heads) },
        _ => edge_softmax_dst_scalar(x, heads),
    }
}

/// Edge-softmax backward over one destination's edges, in the gradient's
/// own buffer: `grad = soft * (grad - Σ soft*grad)` per head, the dot
/// over the edges in order.
#[inline]
pub fn edge_softmax_backward_dst(level: Level, soft: &[f32], grad: &mut [f32], heads: usize) {
    assert!(heads >= 1 && soft.len().is_multiple_of(heads));
    assert_eq!(grad.len(), soft.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); lengths asserted above.
        Level::Avx2 if heads.is_multiple_of(4) => unsafe {
            avx2::edge_softmax_backward_dst(soft, grad, heads)
        },
        _ => edge_softmax_backward_dst_scalar(soft, grad, heads),
    }
}

/// Weighted g-SpMM backward of one source row `s`, both gradients in one
/// walk over its incoming edges (`dsts[i]`, `edges[i]`, ascending edge
/// order), each gradient row `grad[dsts[i]]` loaded once for both:
///
/// * `dh` (`hrow.len()` channels) `= Σ_i att[edges[i], h] * grad[dsts[i]]`
///   per head `h`, over `i` ascending from `0.0` — the sequence of
///   [`spmm_scatter_rowtile`] under sum aggregation;
/// * `datt(i, h, v)` receives `v = Σ_j grad[dsts[i], j] * hrow[j]` over the
///   head's channels ascending from `0.0` — the g-SDDMM sequence of
///   [`crate::sparse::sddmm`] with `a = grad`, `b = h`.
///
/// The AVX2 level takes the edges eight at a time: their gradient rows
/// transposed into lanes for the dot products (the edge-lane rule), the
/// same rows, now in L1, added into `dh` a channel tile at a time, and the
/// next eight rows prefetched — from `next`, the next source row's first
/// destinations, while this row's last eight are in use.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn weighted_spmm_backward_row(
    level: Level,
    dsts: &[u32],
    edges: &[u32],
    att: &[f32],
    heads: usize,
    grad: &[f32],
    hrow: &[f32],
    dh: &mut [f32],
    next: &[u32],
    mut datt: impl FnMut(usize, usize, f32),
) {
    let c = hrow.len();
    assert!(
        heads >= 1 && c.is_multiple_of(heads),
        "heads must divide channels"
    );
    assert_eq!(dh.len(), c, "weighted spmm backward: dh length");
    assert_eq!(
        dsts.len(),
        edges.len(),
        "weighted spmm backward: one edge per dst"
    );
    let max_d = dsts
        .iter()
        .chain(next)
        .copied()
        .max()
        .map_or(0, |d| d as usize + 1);
    let max_e = edges.iter().copied().max().map_or(0, |e| e as usize + 1);
    assert!(
        max_d * c <= grad.len(),
        "weighted spmm backward: grad row out of bounds"
    );
    assert!(
        max_e * heads <= att.len(),
        "weighted spmm backward: edge weight out of bounds"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); every gradient row and edge
        // weight the walk reads is asserted in bounds above.
        Level::Avx2 => unsafe {
            avx2::weighted_spmm_backward_row(
                dsts, edges, att, heads, grad, hrow, dh, next, &mut datt,
            )
        },
        _ => weighted_spmm_backward_row_scalar(dsts, edges, att, heads, grad, hrow, dh, &mut datt),
    }
}

/// One row of the GAT attention scores' input gradient: `g` is the row's
/// `[2·heads]` score gradient (destination half first), `at` the stacked
/// `[a_dstᵀ; a_srcᵀ]` (`2·heads` rows of `dh.len()` channels). Per
/// channel `j`, `dh[j] = (dh[j] + Σ_{l<heads} g[l]·at[l, j]) + Σ_{l≥heads}
/// g[l]·at[l, j]`, each Σ ascending from `0.0` — the sums of
/// `matmul_nt(g_dst, a_dst)` and `matmul_nt(g_src, a_src)` added in the
/// order the tape accumulates them; under `fresh`, `Σ_dst + Σ_src`.
#[inline]
pub fn scores_backward_row(level: Level, g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
    assert!(
        !g.is_empty() && g.len().is_multiple_of(2),
        "scores backward: g holds two halves"
    );
    assert_eq!(
        at.len(),
        g.len() * dh.len(),
        "scores backward: stacked vectors"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); lengths asserted above.
        Level::Avx2 => unsafe { avx2::scores_backward_row(g, at, dh, fresh) },
        _ => scores_backward_row_scalar(g, at, dh, fresh),
    }
}

/// `dst[j] += src[j]` (the tree-reduction merge loop).
#[inline]
pub fn add_assign(level: Level, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    match level {
        Level::Scalar => add_assign_scalar(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by level(); equal lengths asserted.
        Level::Avx2 => unsafe { avx2::add_assign(dst, src) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => add_assign_scalar(dst, src),
    }
}

/// Copy `src` into `dst` (equal lengths) — the gather row-copy inner
/// loop. The AVX2 path streams 32-byte lanes instead of deferring to
/// `memcpy`'s size-class dispatch; bytes are bytes, so the result is
/// trivially identical.
#[inline]
pub fn copy_slice<T: Pod>(level: Level, dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "copy_slice length mismatch");
    match level {
        Level::Scalar => dst.copy_from_slice(src),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => {
            let bytes = std::mem::size_of_val(src);
            // SAFETY: T is Pod (no padding, no drop glue), the byte views
            // cover exactly the two equal-length slices, and AVX2 support
            // was verified by level().
            unsafe {
                avx2::copy_bytes(
                    dst.as_mut_ptr().cast::<u8>(),
                    src.as_ptr().cast::<u8>(),
                    bytes,
                )
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => dst.copy_from_slice(src),
    }
}

// ---------------------------------------------------------------------------
// FNV-1a — the bench harness checksum.
// ---------------------------------------------------------------------------

/// FNV-1a offset basis (the chain's seed).
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over the bit patterns of an `f32` slice, continuing from `h`.
///
/// The chain `h = (h ^ w) * prime` consumes the previous hash at every
/// step, so it is inherently order-serial: lane-splitting it would change
/// the digest, and the digests are pinned (they are the repo's
/// bit-exactness witnesses). What SIMD *can't* buy here, unrolling does:
/// the loop below runs four chain steps per iteration with the
/// float→word conversions hoisted, keeping the dependency chain — xor
/// plus multiply — as the only serialized work. Byte-identical to the
/// naive per-element fold at any level, which is the whole point.
#[inline]
pub fn fnv1a_f32(mut h: u64, data: &[f32]) -> u64 {
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let (w0, w1) = (c[0].to_bits() as u64, c[1].to_bits() as u64);
        let (w2, w3) = (c[2].to_bits() as u64, c[3].to_bits() as u64);
        h = (h ^ w0).wrapping_mul(FNV_PRIME);
        h = (h ^ w1).wrapping_mul(FNV_PRIME);
        h = (h ^ w2).wrapping_mul(FNV_PRIME);
        h = (h ^ w3).wrapping_mul(FNV_PRIME);
    }
    for &v in chunks.remainder() {
        h = (h ^ v.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_override_accepts_the_documented_values() {
        assert_eq!(parse_override(""), None);
        assert_eq!(parse_override("auto"), None);
        assert_eq!(parse_override("AUTO"), None);
        assert_eq!(parse_override("off"), Some(Level::Scalar));
        assert_eq!(parse_override("scalar"), Some(Level::Scalar));
        assert_eq!(parse_override("SCALAR"), Some(Level::Scalar));
        assert_eq!(parse_override("avx2"), Some(Level::Avx2));
        assert_eq!(parse_override("AVX2"), Some(Level::Avx2));
    }

    #[test]
    #[should_panic(expected = "not understood")]
    fn parse_override_rejects_typos() {
        parse_override("avx512");
    }

    #[test]
    fn fnv1a_matches_naive_fold() {
        let data: Vec<f32> = (0..37).map(|i| i as f32 * 0.37 - 5.0).collect();
        for take in [0usize, 1, 3, 4, 5, 8, 36, 37] {
            let naive = data[..take].iter().fold(FNV_OFFSET, |h, v| {
                (h ^ v.to_bits() as u64).wrapping_mul(FNV_PRIME)
            });
            assert_eq!(fnv1a_f32(FNV_OFFSET, &data[..take]), naive, "take={take}");
        }
        // Chained calls continue the same stream.
        let split = fnv1a_f32(fnv1a_f32(FNV_OFFSET, &data[..13]), &data[13..]);
        assert_eq!(split, fnv1a_f32(FNV_OFFSET, &data));
    }

    #[test]
    fn level_is_cached_and_valid() {
        let l = level();
        assert_eq!(l, level());
        if l == Level::Avx2 {
            assert!(avx2_available());
        }
    }
}

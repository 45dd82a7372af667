//! Runtime-dispatched SIMD inner loops for the hot kernels.
//!
//! Every kernel here runs at one of two levels selected at runtime:
//! `Scalar`, the portable path, and `Avx2`, 8-wide `f32` lanes on x86_64.
//! Dispatch is decided once per process by [`level`] —
//! `is_x86_feature_detected!("avx2")` cached in a `OnceLock`, overridable
//! with the `WG_SIMD` environment variable (`off`/`scalar` force the
//! portable path, `avx2` forces the vector path, `auto`/unset detects).
//!
//! # One body, compiled twice
//!
//! Most kernels are written once, as an `#[inline(always)]` body in the
//! private `body` module: plain Rust over fixed-width arrays, the float
//! sequences of the oracle loops in [`crate::ops`] and [`crate::sparse`].
//! The scalar level runs the body compiled for the baseline target; the
//! AVX2 level runs a one-line `#[target_feature(enable = "avx2")]` wrapper
//! in `avx2` that the body inlines into, where its arrays become YMM
//! lanes. The kernels whose portable form measured slower keep hand
//! intrinsics in `avx2` and a scalar twin here (DESIGN.md §10).
//!
//! # Bit-identity contract
//!
//! The repo's determinism guarantee — identical output bits at any thread
//! count, any schedule, and any SIMD level — holds because every kernel
//! here vectorises **across independent output elements**, never across
//! a single element's reduction, and because Rust never reassociates a
//! float operation or contracts one into an FMA:
//!
//! * `matmul_rowtile`, `matmul_rowtile2`, `matmul_narrow_k`,
//!   `spmm_gather_rowtile` (unweighted or with a per-edge head weight),
//!   `spmm_scatter_rowtile`, `add_assign`, `scores_backward_row`, the
//!   `dL/dh` half of `weighted_spmm_backward_row`: each output element
//!   accumulates its contributions in the same ascending order (ascending
//!   `k` / edge index) whichever lane it lives in. The two rows of
//!   `matmul_rowtile2` are just two tiles computed together, sharing the
//!   loads of `B`: no sum crosses from one row's registers to the other's.
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
//!   lanes (`matmul_rowtile`) the kernel walks a [`RowVisits`] list — the
//!   reference's non-skipped `l`, ascending, built once per row segment
//!   and reused by every panel's tile — so it performs exactly the
//!   reference's adds. Where the lanes hold different `a` operands (the
//!   narrow kernels) a lane whose operand is `0.0` keeps its old value
//!   (blend), exactly as if the scalar loop had `continue`d. Either way
//!   the skip is observable when `B` holds an `inf`, which is why
//!   multiplying by the zero is not an option.
//! * No FMA anywhere: the bodies and the oracles round the multiply and
//!   the add separately, the hand kernels use `mul` + `add`, never `fmadd`.
//! * `dropout_mask_rows4` draws integers, not floats: its four lanes are
//!   four rows' own generators, each stepped in its row's order, and
//!   `RowVisits::listed` builds the same ascending list eight lanes at a
//!   time. `prefetch` only hints: no value depends on it.
//! * `transpose` moves floats. `fnv1a_f32` is not a kernel but the bench
//!   checksum: an order-serial hash chain (each step consumes the previous
//!   hash), so it is one plain per-element fold.
//!
//! The dispatched `*_with` kernel entry points in [`crate::ops`] /
//! [`crate::sparse`] take an explicit [`Level`] so tests and benches can
//! pin both paths against each other bitwise.
//!
//! # Memory safety
//!
//! The AVX2 kernels are safe `#[target_feature]` functions over slices:
//! every access goes through a checked slice, so an operand that is too
//! short, or an index past its end, panics. Each `Level::Avx2` arm below
//! is guarded by [`avx2_available`], and its call is the one thing in it
//! the compiler cannot check: that AVX2 code may run, which the guard
//! just saw. An explicit `Level::Avx2` on a host without AVX2 therefore
//! runs the scalar path. The asserts the dispatchers keep are shape
//! checks both levels rely on.

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

// ---------------------------------------------------------------------------
// Prefetch — the one way a kernel asks for memory ahead of its use.
// ---------------------------------------------------------------------------

/// Bytes per cache line on the x86_64 parts this runs on.
const LINE: usize = 64;

/// Ask for every cache line `data` covers to be brought into L1 — for
/// writing under `write` — without waiting for it. A hint: the CPU may
/// drop it, it cannot fault, and it changes no value any kernel computes,
/// so prefetching kernels keep the bits of their oracles. The kernels that
/// use it name their distance next to the call (see DESIGN.md §10).
#[inline(always)]
pub(crate) fn prefetch<T>(data: &[T], write: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
        if data.is_empty() {
            return;
        }
        let start = data.as_ptr().cast::<i8>();
        let misalign = start as usize % LINE;
        let first = start.wrapping_sub(misalign);
        for off in (0..misalign + std::mem::size_of_val(data)).step_by(LINE) {
            let line = first.wrapping_add(off);
            // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
            // reads nothing the program can observe and never faults, so
            // any address is allowed; these are the lines of `data`.
            unsafe {
                if write {
                    _mm_prefetch::<_MM_HINT_ET0>(line)
                } else {
                    _mm_prefetch::<_MM_HINT_T0>(line)
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, write);
}

// ---------------------------------------------------------------------------
// Visit lists.
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
/// it): `list` entries are strictly ascending and each is `<
/// arow.len()`, so a walk over the list indexes `arow` in range.
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
    /// branch-free, so no branch depends on the data. The scalar level
    /// stores every position, then advances by the comparison; the AVX2
    /// level compacts eight at a time, then finishes the ragged end the
    /// scalar way. Both build the same list.
    #[inline]
    pub fn listed(self, level: Level, buf: &'a mut VisitBuf) -> Self {
        assert!(self.arow.len() <= VISIT_CAP, "visit list: segment too long");
        let n = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard saw AVX2 on this host.
            Level::Avx2 if avx2_available() => unsafe { avx2::visit_list(self.arow, buf) },
            _ => visit_list_tail(self.arow, 0, 0, buf),
        };
        let list = &buf[..n];
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(list.last().is_none_or(|&l| (l as usize) < self.arow.len()));
        RowVisits {
            arow: self.arow,
            list: Some(list),
        }
    }

    /// The whole segment, when every element of it is visited (no list):
    /// such a row can share a register tile with another one.
    #[inline]
    pub fn dense(&self) -> Option<&'a [f32]> {
        self.list.is_none().then_some(self.arow)
    }
}

/// The visit list of `arow[from..]`, appended to the `n` positions `buf`
/// already holds, one element at a time: store the position, then advance
/// by the comparison. Returns the new length.
fn visit_list_tail(arow: &[f32], from: usize, mut n: usize, buf: &mut VisitBuf) -> usize {
    for (l, &av) in arow.iter().enumerate().skip(from) {
        // `n <= l < VISIT_CAP`: the modulo changes nothing, it only
        // spares the loop a bounds check (a third of its time).
        buf[n % VISIT_CAP] = l as u16;
        n += usize::from(av != 0.0);
    }
    n
}

// ---------------------------------------------------------------------------
// One body per kernel.
// ---------------------------------------------------------------------------

/// Runs `$body` once per block of the channels `0..$len`, with `$j` the
/// block's first channel and `$w` its width as a `const`: 64 wide while
/// whole blocks last, then at most one block of each width from 32 down
/// to 1, halving. Every length is covered, and every block's arrays have
/// a width the compiler knows. Which block a channel lands in changes
/// none of its adds.
macro_rules! channel_blocks {
    ($len:expr, |$w:ident, $j:ident| $body:block) => {{
        let len: usize = $len;
        let mut $j = 0;
        while len - $j >= 64 {
            const $w: usize = 64;
            $body
            $j += 64;
        }
        channel_blocks!(@tail len, $j, $w, $body; 32 16 8 4 2 1);
        debug_assert_eq!($j, len);
    }};
    (@tail $len:ident, $j:ident, $w:ident, $body:block; $($width:literal)*) => {$(
        if $len - $j >= $width {
            const $w: usize = $width;
            $body
            $j += $width;
        }
    )*};
}

/// `$body` with `const $w: usize` equal to `$n`, a panel width in
/// `1..=TILE_COLS`; nothing for `0`.
macro_rules! panel_width {
    ($n:expr, |$w:ident| $body:expr) => {
        panel_width!(@arms $n, $w, $body;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@arms $n:expr, $w:ident, $body:expr; $($width:literal)*) => {
        match $n {
            0 => {}
            $($width => {
                const $w: usize = $width;
                $body
            })*
            nb => panic!("rowtile: panel of {nb} columns"),
        }
    };
}

/// The kernels' bodies: plain loops over fixed-width arrays, the
/// reference float sequences. Each is `#[inline(always)]` — the scalar
/// level runs it compiled for the baseline target, and the AVX2 level
/// through a one-line `#[target_feature(enable = "avx2")]` wrapper in
/// `avx2` that it inlines into, where the compiler maps the arrays' lanes
/// onto YMM registers. A body's hot loop calls only what inlines into the
/// wrapper — `#[inline(always)]` fns, one-expression closures and the
/// standard library's `#[inline]` iterator steps — since whatever is not
/// inlined runs without AVX2 (the wrapper's disassembly shows which).
mod body {
    use super::prefetch;

    /// `s[at..at + W]` as an array: one checked cut, then constant
    /// offsets inside it.
    #[inline(always)]
    fn cut<const W: usize>(s: &[f32], at: usize) -> &[f32; W] {
        s[at..][..W].try_into().expect("W floats")
    }

    /// [`cut`], mutable.
    #[inline(always)]
    fn cut_mut<const W: usize>(s: &mut [f32], at: usize) -> &mut [f32; W] {
        (&mut s[at..][..W]).try_into().expect("W floats")
    }

    /// `R` rows of one register tile over a packed panel: `c[r*ldc..][..nb]`
    /// gets `Σ a[r][l] * panel[l*nb + j]` over the visited `l` (`list`, if
    /// any, comes from a [`super::RowVisits`] over `a[0]`, with `R = 1`),
    /// ascending — from `0.0` when `first`, else added to what it holds.
    /// `nb = c.len() - (R-1)·ldc <= TILE_COLS` is the panel's width and a
    /// compile-time constant in the walk.
    #[inline(always)]
    pub(super) fn matmul_tile<const R: usize>(
        a: [&[f32]; R],
        list: Option<&[u16]>,
        panel: &[f32],
        c: &mut [f32],
        ldc: usize,
        first: bool,
    ) {
        let nb = c.len() - (R - 1) * ldc;
        panel_width!(nb, |W| tile::<W, R>(a, list, panel, c, ldc, first))
    }

    /// [`matmul_tile`] at width `W`: the `R·W` sums stay in registers
    /// across the whole walk, and every panel row is loaded once for all
    /// `R` rows. The second row of `R = 2` only fills the issue slots the
    /// first row's add chain leaves empty: which rows share a tile is
    /// invisible in the output.
    #[inline(always)]
    fn tile<const W: usize, const R: usize>(
        a: [&[f32]; R],
        list: Option<&[u16]>,
        panel: &[f32],
        c: &mut [f32],
        ldc: usize,
        first: bool,
    ) {
        // Equal lengths let the walk index every row without a check.
        let k = a[0].len();
        assert!(
            a.iter().all(|row| row.len() == k),
            "rowtile: row segments differ"
        );
        let a = a.map(|row| &row[..k]);
        // A visit list is one row's: a 2-row tile compiles no list walk.
        assert!(R == 1 || list.is_none(), "rowtile: a list for {R} rows");
        // Panel rows as arrays, cut to the `k` the walk may visit: indexing
        // row `l` checks `l < k`, which makes `a[r][l]`'s check redundant.
        let rows = &panel.as_chunks::<W>().0[..k];
        let mut acc = [[0.0f32; W]; R];
        if !first {
            for (r, acc) in acc.iter_mut().enumerate() {
                *acc = *cut::<W>(c, r * ldc);
            }
        }
        match list {
            None => {
                for (l, prow) in rows.iter().enumerate() {
                    tile_step(&mut acc, &a, l, prow);
                }
            }
            Some(list) => {
                for &l in list {
                    tile_step(&mut acc, &a, l as usize, &rows[l as usize]);
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            *cut_mut::<W>(c, r * ldc) = *acc;
        }
    }

    /// One visited `l` of [`tile`]: `acc[r][j] += a[r][l] * prow[j]`. The
    /// panel row is copied into a local array first, which keeps its loads
    /// ahead of the adds.
    #[inline(always)]
    fn tile_step<const W: usize, const R: usize>(
        acc: &mut [[f32; W]; R],
        a: &[&[f32]; R],
        l: usize,
        prow: &[f32; W],
    ) {
        let prow = *prow;
        for (acc, a) in acc.iter_mut().zip(a) {
            let av = a[l];
            for (s, &b) in acc.iter_mut().zip(&prow) {
                *s += av * b;
            }
        }
    }

    /// Forward g-SpMM channel tile (see [`super::spmm_gather_rowtile`]):
    /// the edges' scales — `scale`, or `scale * w[i*stride]` walked with
    /// the edge list — and, when `ahead` is not empty, the prefetching
    /// walk, both chosen once per call.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn spmm_gather_rowtile(
        indices: &[u32],
        weights: Option<(&[f32], usize)>,
        src: &[f32],
        lds: usize,
        j0: usize,
        scale: f32,
        acc: &mut [f32],
        ahead: &[u32],
    ) {
        let src = (src, lds, j0);
        match weights {
            None if ahead.is_empty() => {
                gather_tile::<false>(indices, std::iter::repeat(scale), src, acc, ahead)
            }
            None => gather_tile::<true>(indices, std::iter::repeat(scale), src, acc, ahead),
            Some((w, stride)) => {
                assert!(
                    w.len().div_ceil(stride) >= indices.len(),
                    "spmm gather: fewer weights than edges"
                );
                let scales = w.iter().step_by(stride).map(move |&x| scale * x);
                if ahead.is_empty() {
                    gather_tile::<false>(indices, scales, src, acc, ahead)
                } else {
                    gather_tile::<true>(indices, scales, src, acc, ahead)
                }
            }
        }
    }

    /// [`spmm_gather_rowtile`] one channel block at a time. Under `PF`
    /// every block prefetches: a 64-channel tile (the paper's head) is one
    /// block, and the lines a narrower tile's later blocks ask for again
    /// are already on their way.
    #[inline(always)]
    fn gather_tile<const PF: bool>(
        indices: &[u32],
        scales: impl Iterator<Item = f32> + Clone,
        (src, lds, j0): (&[f32], usize, usize),
        acc: &mut [f32],
        ahead: &[u32],
    ) {
        channel_blocks!(acc.len(), |W, j| {
            let out = cut_mut::<W>(acc, j);
            let mut sum = *out;
            for (i, (&s, es)) in indices.iter().zip(scales.clone()).enumerate() {
                if PF {
                    prefetch_source_row(src, lds, ahead, i);
                }
                let row = cut::<W>(src, s as usize * lds + j0 + j);
                for (a, &x) in sum.iter_mut().zip(row) {
                    *a += es * x;
                }
            }
            *out = sum;
        });
    }

    /// Edge `i`'s prefetch in [`gather_tile`]: the whole source row
    /// `ahead[i]`, if there is one and it lies inside `src`.
    #[inline(always)]
    fn prefetch_source_row(src: &[f32], lds: usize, ahead: &[u32], i: usize) {
        if let Some(&a) = ahead.get(i) {
            let a = a as usize;
            if let Some(row) = src.get(a * lds..(a + 1) * lds) {
                prefetch(row, false);
            }
        }
    }

    /// Backward g-SpMM channel tile (see [`super::spmm_scatter_rowtile`]):
    /// per channel block, `acc[j] += agg_scale(d) * grad[d*ldg + j0 + j]`
    /// over the incoming edges' destinations in order.
    #[inline(always)]
    pub(super) fn spmm_scatter_rowtile(
        dsts: &[u32],
        offsets: &[u32],
        mean: bool,
        grad: &[f32],
        ldg: usize,
        j0: usize,
        acc: &mut [f32],
    ) {
        channel_blocks!(acc.len(), |W, j| {
            let out = cut_mut::<W>(acc, j);
            let mut sum = *out;
            for &d in dsts {
                let d = d as usize;
                let scale = scatter_scale(offsets, d, mean);
                let row = cut::<W>(grad, d * ldg + j0 + j);
                for (a, &g) in sum.iter_mut().zip(row) {
                    *a += scale * g;
                }
            }
            *out = sum;
        });
    }

    /// The backward aggregation scale for destination `d`: exactly
    /// `agg_scale(agg, degree(d))` from the sparse kernels.
    #[inline(always)]
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

    /// The `dL/dh` half of the weighted g-SpMM backward for one head and a
    /// run of edges: `dh[j] += w[i] * rows[i][j]` over the rows in order,
    /// a channel block at a time — [`spmm_scatter_rowtile`]'s sequence
    /// under sum aggregation. `dh` and the rows are equally long.
    #[inline(always)]
    pub(super) fn dh_accumulate(rows: &[&[f32]], w: &[f32], dh: &mut [f32]) {
        channel_blocks!(dh.len(), |W, j| {
            let out = cut_mut::<W>(dh, j);
            let mut sum = *out;
            for (row, &wl) in rows.iter().zip(w) {
                for (a, &x) in sum.iter_mut().zip(cut::<W>(row, j)) {
                    *a += wl * x;
                }
            }
            *out = sum;
        });
    }

    /// Row of the attention scores' input gradient (see
    /// [`super::scores_backward_row`]), a channel block at a time: the two
    /// halves' sums, each ascending from `0.0`, then folded into `dh`.
    #[inline(always)]
    pub(super) fn scores_backward_row(g: &[f32], at: &[f32], dh: &mut [f32], fresh: bool) {
        let c = dh.len();
        let (gd, gs) = g.split_at(g.len() / 2);
        let (ad, asrc) = at.split_at(gd.len() * c);
        channel_blocks!(c, |W, j| {
            let d = stacked_sum::<W>(gd, ad, c, j);
            let s = stacked_sum::<W>(gs, asrc, c, j);
            for ((o, d), s) in cut_mut::<W>(dh, j).iter_mut().zip(d).zip(s) {
                let acc = if fresh { d } else { *o + d };
                *o = acc + s;
            }
        });
    }

    /// `Σ_l g[l] * at[l*c + j..][..W]` from `0.0`, ascending `l`: one half
    /// of [`scores_backward_row`]'s sum for `W` channels.
    #[inline(always)]
    fn stacked_sum<const W: usize>(g: &[f32], at: &[f32], c: usize, j: usize) -> [f32; W] {
        let mut acc = [0.0f32; W];
        for (l, &gl) in g.iter().enumerate() {
            for (a, &x) in acc.iter_mut().zip(cut::<W>(at, l * c + j)) {
                *a += gl * x;
            }
        }
        acc
    }

    /// `C = A·B` for `A: [m, k]` with `k <= 8` (see
    /// [`super::matmul_narrow_k`]): a row's non-skipped `(a[i, l], l)` are
    /// listed once, then every channel block of the `C` row is summed from
    /// `0.0` over them, ascending `l`, and stored once.
    #[inline(always)]
    pub(super) fn matmul_narrow_k(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
        skip_zero: bool,
    ) {
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let mut live = [(0.0f32, 0usize); 8];
            let mut count = 0;
            for (l, &x) in arow.iter().enumerate() {
                if !(skip_zero && x == 0.0) {
                    live[count] = (x, l);
                    count += 1;
                }
            }
            let live = &live[..count];
            channel_blocks!(n, |W, j| {
                let mut acc = [0.0f32; W];
                for &(x, l) in live {
                    for (s, &bv) in acc.iter_mut().zip(cut::<W>(b, l * n + j)) {
                        *s += x * bv;
                    }
                }
                *cut_mut::<W>(crow, j) = acc;
            });
        }
    }

    /// Edge softmax of one destination's `[deg, heads]` logits in place
    /// (see [`super::edge_softmax_dst`]): four heads abreast while four
    /// remain, then one at a time.
    #[inline(always)]
    pub(super) fn edge_softmax_dst(x: &mut [f32], heads: usize) {
        let mut h = 0;
        while h + 4 <= heads {
            softmax_heads::<4>(x, heads, h);
            h += 4;
        }
        for h in h..heads {
            softmax_heads::<1>(x, heads, h);
        }
    }

    /// Heads `h0..h0 + H` of [`edge_softmax_dst`]: per head, the max, then
    /// `exp(x - max)` (libm's, per element) with a running denominator,
    /// then the divide, each over the edges in order.
    #[inline(always)]
    fn softmax_heads<const H: usize>(x: &mut [f32], heads: usize, h0: usize) {
        let mut max = [f32::NEG_INFINITY; H];
        for e in x.chunks_exact(heads) {
            for (m, &v) in max.iter_mut().zip(cut::<H>(e, h0)) {
                // `f32::max` where it matters: a NaN is passed over, and
                // the sign of an equal zero cannot change `x - max`.
                *m = if v > *m { v } else { *m };
            }
        }
        let mut denom = [0.0f32; H];
        for e in x.chunks_exact_mut(heads) {
            let v = cut_mut::<H>(e, h0);
            for ((v, &m), d) in v.iter_mut().zip(&max).zip(&mut denom) {
                *v = (*v - m).exp();
                *d += *v;
            }
        }
        for e in x.chunks_exact_mut(heads) {
            for (v, &d) in cut_mut::<H>(e, h0).iter_mut().zip(&denom) {
                *v /= d;
            }
        }
    }

    /// Edge-softmax backward of one destination in the gradient's own
    /// buffer (see [`super::edge_softmax_backward_dst`]): four heads
    /// abreast while four remain, then one at a time.
    #[inline(always)]
    pub(super) fn edge_softmax_backward_dst(soft: &[f32], grad: &mut [f32], heads: usize) {
        let mut h = 0;
        while h + 4 <= heads {
            softmax_backward_heads::<4>(soft, grad, heads, h);
            h += 4;
        }
        for h in h..heads {
            softmax_backward_heads::<1>(soft, grad, heads, h);
        }
    }

    /// Heads `h0..h0 + H` of [`edge_softmax_backward_dst`]: `grad = soft *
    /// (grad - dot)` with `dot = Σ_e soft*grad` from `0.0`, over the edges
    /// in order.
    #[inline(always)]
    fn softmax_backward_heads<const H: usize>(
        soft: &[f32],
        grad: &mut [f32],
        heads: usize,
        h0: usize,
    ) {
        let mut dot = [0.0f32; H];
        for (s, g) in soft.chunks_exact(heads).zip(grad.chunks_exact(heads)) {
            for ((d, &s), &g) in dot.iter_mut().zip(cut::<H>(s, h0)).zip(cut::<H>(g, h0)) {
                *d += s * g;
            }
        }
        for (s, g) in soft.chunks_exact(heads).zip(grad.chunks_exact_mut(heads)) {
            let (s, g) = (cut::<H>(s, h0), cut_mut::<H>(g, h0));
            for ((g, &s), &d) in g.iter_mut().zip(s).zip(&dot) {
                *g = s * (*g - d);
            }
        }
    }

    /// `dst[j] += src[j]`.
    #[inline(always)]
    pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    }
}

// ---------------------------------------------------------------------------
// Portable twins of the kernels that keep hand intrinsics.
// ---------------------------------------------------------------------------

/// `C = A·B` row by row (`matmul_narrow_n`'s scalar twin): each row of
/// `C` summed from `0.0` over ascending `l`, a zero `a[i,l]` adding
/// nothing under `skip`.
fn matmul_rows_scalar(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32], skip: bool) {
    c.fill(0.0);
    if k == 0 {
        return;
    }
    for (crow, arow) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&x, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if !(skip && x == 0.0) {
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += x * bv;
                }
            }
        }
    }
}

/// One incoming edge of the packed reverse CSR: `(destination, edge id)`
/// from its `dst << 32 | edge` word.
#[inline(always)]
pub(crate) fn unpack_edge(pair: u64) -> (usize, usize) {
    ((pair >> 32) as usize, pair as u32 as usize)
}

/// Weighted g-SpMM backward of one source row, scalar: per incoming edge
/// `(d, e)` of `pairs` (ascending edge order) and head `h`, `datt(e, h,
/// Σ_j g[j] * hrow[j])` over the head's channels from `0.0` — the g-SDDMM
/// sequence — and `dh[j] += w[e, h] * g[j]` — the transposed g-SpMM
/// sequence, `dh` summed from `0.0`.
#[allow(clippy::too_many_arguments)]
fn weighted_spmm_backward_row_scalar(
    pairs: &[u64],
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
    for &pair in pairs {
        let (d, e) = unpack_edge(pair);
        let grow = &grad[d * c..][..c];
        for h in 0..heads {
            let span = h * head_dim..(h + 1) * head_dim;
            let mut acc = 0.0f32;
            for j in span.clone() {
                acc += grow[j] * hrow[j];
            }
            datt(e, h, acc);
            body::dh_accumulate(&[&grow[span.clone()]], &[att[e * heads + h]], &mut dh[span]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points. Each `Level::Avx2` arm is guarded by
// `avx2_available()`; its call into AVX2 code is all it holds.
// ---------------------------------------------------------------------------

/// One row of a matmul register tile against a packed panel: `c[j] = Σ
/// arow[l] * panel[l*nb + j]` over the visited `l`, ascending, with `nb =
/// c.len()` the panel's width. The sum starts from `0.0` when `first` (the
/// row's first k-block: `c` may hold stale values) and from `c` otherwise.
#[inline]
pub fn matmul_rowtile(level: Level, row: RowVisits, panel: &[f32], c: &mut [f32], first: bool) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::matmul_tile([row.arow], row.list, panel, c, 0, first)
        },
        _ => body::matmul_tile([row.arow], row.list, panel, c, 0, first),
    }
}

/// Two rows of `A` with nothing to skip through one register tile, every
/// panel row loaded once for both: `c[..nb]` is `a0`'s tile row and
/// `c[ldc..]` (also `nb` long, so `nb = c.len() - ldc`) is `a1`'s. Each
/// output element is the same ascending-`l` sum as in [`matmul_rowtile`].
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
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::matmul_tile([a0, a1], None, panel, c, ldc, first)
        },
        _ => body::matmul_tile([a0, a1], None, panel, c, ldc, first),
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
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::transpose(src, ld_src, rows, cols, dst, ld_dst)
        },
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
/// first edge and head). Edge `i` also prefetches the whole source row
/// `ahead[i]` (`lds` floats) — none once `ahead` runs out — so a caller
/// that walks the same edges once per tile warms every row in one pass;
/// an empty `ahead` runs the plain walk, with no test per edge.
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
    ahead: &[u32],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::spmm_gather_rowtile(indices, weights, src, lds, j0, scale, acc, ahead)
        },
        _ => body::spmm_gather_rowtile(indices, weights, src, lds, j0, scale, acc, ahead),
    }
}

/// Backward g-SpMM channel tile: gather `agg_scale(d) * grad[d]` over the
/// incoming edges' destinations, ascending edge order — `agg_scale` is
/// `1/deg(d)` under mean aggregation (0 for isolated destinations) and 1
/// under sum.
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
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::spmm_scatter_rowtile(dsts, offsets, mean, grad, ldg, j0, acc)
        },
        _ => body::spmm_scatter_rowtile(dsts, offsets, mean, grad, ldg, j0, acc),
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
        Level::Avx2 if avx2_available() => {
            acc[..m * n].fill(0.0);
            // SAFETY: the guard saw AVX2 on this host.
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
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if k > 0 && avx2_available() => unsafe {
            avx2::matmul_narrow_n(a, k, b, n, c, skip_zero)
        },
        _ => matmul_rows_scalar(a, k, b, n, c, skip_zero),
    }
}

/// `C = A·B` where `A: [m, k]` has at most eight columns: each channel
/// block of a `C` row is summed over ascending `l` from `0.0` and stored
/// once, zero-skipped `l` (under `skip_zero`) dropped from the row's list
/// up front.
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
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::matmul_narrow_k(a, k, b, n, c, skip_zero)
        },
        _ => body::matmul_narrow_k(a, k, b, n, c, skip_zero),
    }
}

/// Edge softmax over one destination's `[deg, heads]` logits, in place:
/// per head, the max, then `exp(x - max)` with a running denominator, then
/// the divide, each over the edges in order.
#[inline]
pub fn edge_softmax_dst(level: Level, x: &mut [f32], heads: usize) {
    assert!(heads >= 1 && x.len().is_multiple_of(heads));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe { avx2::edge_softmax_dst(x, heads) },
        _ => body::edge_softmax_dst(x, heads),
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
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::edge_softmax_backward_dst(soft, grad, heads)
        },
        _ => body::edge_softmax_backward_dst(soft, grad, heads),
    }
}

/// Weighted g-SpMM backward of one source row `s`, both gradients in one
/// walk over its incoming edges (`pairs[i]` = `dst << 32 | edge`,
/// ascending edge order), each gradient row `grad[dst]` loaded once for
/// both:
///
/// * `dh` (`hrow.len()` channels) `= Σ_i att[edge_i, h] * grad[dst_i]`
///   per head `h`, over `i` ascending from `0.0` — the sequence of
///   [`spmm_scatter_rowtile`] under sum aggregation;
/// * `datt(e, h, v)` receives, for edge `e`, `v = Σ_j grad[dst, j] *
///   hrow[j]` over the head's channels ascending from `0.0` — the g-SDDMM
///   sequence of [`crate::sparse::sddmm`] with `a = grad`, `b = h`.
///
/// The AVX2 level takes the edges eight at a time: their gradient rows
/// transposed into lanes for the dot products (the edge-lane rule), the
/// same rows, now in L1, added into `dh` a channel block at a time, and
/// the next eight rows prefetched — from `next`, the next source row's
/// first edges, while this row's last eight are in use.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn weighted_spmm_backward_row(
    level: Level,
    pairs: &[u64],
    att: &[f32],
    heads: usize,
    grad: &[f32],
    hrow: &[f32],
    dh: &mut [f32],
    next: &[u64],
    mut datt: impl FnMut(usize, usize, f32),
) {
    let c = hrow.len();
    assert!(
        heads >= 1 && c.is_multiple_of(heads),
        "heads must divide channels"
    );
    assert_eq!(dh.len(), c, "weighted spmm backward: dh length");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe {
            avx2::weighted_spmm_backward_row(pairs, att, heads, grad, hrow, dh, next, &mut datt)
        },
        _ => weighted_spmm_backward_row_scalar(pairs, att, heads, grad, hrow, dh, &mut datt),
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
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe { avx2::scores_backward_row(g, at, dh, fresh) },
        _ => body::scores_backward_row(g, at, dh, fresh),
    }
}

/// The dropout masks of four consecutive rows at once: `mask` holds their
/// `cols.div_ceil(64)` words each, back to back, and bit `j` of row `r` is
/// set where draw `j` of `SmallRng::seed_from_u64(seeds[r])` — the `j`-th
/// `gen::<f32>()` — is at least `p`. The AVX2 level runs the four
/// generators abreast, one per 64-bit lane: the SplitMix64 seeding, then
/// xoshiro256++ steps. `gen::<f32>()` is `(x >> 40) · 2^-24`, exact (a
/// 24-bit integer times a power of two), and `p · 2^24` is exact too, so
/// `draw >= p` is the integer compare `(x >> 40) >= ceil(p · 2^24)` — the
/// same bit. `mask` holds whole rows of words. Returns `false`, having
/// done nothing, at the scalar level or when `mask` is fewer than four
/// rows (the last group of a matrix); the caller then draws row by row.
#[inline]
pub fn dropout_mask_rows4(
    level: Level,
    mask: &mut [u64],
    cols: usize,
    p: f32,
    seeds: [u64; 4],
) -> bool {
    assert!((0.0..1.0).contains(&p), "dropout probability {p}");
    let words = cols.div_ceil(64);
    if words == 0 {
        return false;
    }
    assert!(
        mask.len().is_multiple_of(words) && mask.len() <= 4 * words,
        "dropout mask: {} words is not up to four rows of {words}",
        mask.len()
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 if mask.len() == 4 * words && avx2_available() => {
            let threshold = (p * (1u32 << 24) as f32).ceil() as u64;
            // SAFETY: the guard saw AVX2 on this host.
            unsafe { avx2::dropout_mask_rows4(mask, cols, threshold, seeds) };
            true
        }
        _ => false,
    }
}

/// `dst[j] += src[j]` (the tree-reduction merge loop).
#[inline]
pub fn add_assign(level: Level, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard saw AVX2 on this host.
        Level::Avx2 if avx2_available() => unsafe { avx2::add_assign(dst, src) },
        _ => body::add_assign(dst, src),
    }
}

// ---------------------------------------------------------------------------
// FNV-1a — the bench harness checksum.
// ---------------------------------------------------------------------------

/// FNV-1a offset basis (the chain's seed).
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over the bit patterns of an `f32` slice, continuing from `h`:
/// one `h = (h ^ w) * prime` step per element, `w` the element's bits
/// widened to a word. The chain consumes the previous hash at every step,
/// so it is order-serial, and the digests are pinned (they are the repo's
/// bit-exactness witnesses).
#[inline]
pub fn fnv1a_f32(h: u64, data: &[f32]) -> u64 {
    data.iter()
        .fold(h, |h, v| (h ^ v.to_bits() as u64).wrapping_mul(FNV_PRIME))
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

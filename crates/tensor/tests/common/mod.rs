//! Checks shared by `simd_equivalence.rs` (natural width, and CI's
//! `WG_SIMD=scalar` leg) and `simd_equivalence_threads2.rs` (the
//! two-worker pool): the traffic the training loop actually feeds the
//! dense kernels — zero-laden `A` operands, sign-random activations,
//! dropout — and the geometry of the packed-panel GEMM body (row blocks,
//! ragged panels, 2-row tiles, `tn` chunks), pinned bitwise. No tolerance
//! anywhere.
//!
//! What "bitwise" claims about NaN: *that* a lane is NaN, always; *which*
//! NaN — sign and payload — only where at most one operand of the
//! operation is NaN. An `addps` of two NaNs returns its first operand's,
//! and the compiler is free to commute a `fadd` differently in a
//! vectorised kernel and in the scalar definition it is checked against
//! (it does, between the dev and release profiles), so the two-operand
//! checks below never let two NaNs meet in one lane.

// Each test binary compiles this module for itself and uses its own subset.
#![allow(dead_code)]

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_tensor::ops::{
    self, matmul_into_with, matmul_nt_into_with, matmul_nt_reference, matmul_reference,
    matmul_tn_into_with, matmul_tn_reference,
};
use wg_tensor::simd::{self, Level};
use wg_tensor::Matrix;

pub fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

pub fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Both SIMD levels on the host: `Scalar` always, `Avx2` when supported.
pub fn levels() -> Vec<Level> {
    let mut l = vec![Level::Scalar];
    if simd::avx2_available() {
        l.push(Level::Avx2);
    }
    l
}

/// A pooled buffer as a kernel may find it: wrong shape, NaN contents.
pub fn dirty() -> Matrix {
    Matrix::from_fn(3, 5, |_, _| f32::NAN)
}

/// Zero shares of `A` the training loop produces: none (raw features),
/// a few, post-dropout(0.5) / post-ReLU, mostly zeros, all zeros.
pub const ZERO_SHARES: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];
/// Inner dimensions around the 256-deep k-block (one visit list each).
pub const K_STRADDLING_KB: [usize; 8] = [1, 31, 255, 256, 257, 300, 513, 600];
/// Output widths: `train_input`'s 16, ragged, the feature width, the
/// paper's hidden 256.
pub const WIDTHS: [usize; 4] = [16, 47, 100, 256];

/// `[rows, cols]` with `share` of the elements zero — every third zero a
/// `-0.0` — and, when `zero_line` is given, that whole column (`by_col`)
/// or row zeroed as well: the line of `A` whose `B` row must never be read.
fn zero_laden(
    rows: usize,
    cols: usize,
    share: f64,
    zero_line: Option<usize>,
    by_col: bool,
    seed: u64,
) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut zeros = 0usize;
    Matrix::from_fn(rows, cols, |i, j| {
        let v = rng.gen_range(-1.0f32..1.0);
        let on_line = zero_line == Some(if by_col { j } else { i });
        if !on_line && rng.gen::<f64>() >= share {
            return if v == 0.0 { 0.5 } else { v };
        }
        zeros += 1;
        if zeros.is_multiple_of(3) {
            -0.0
        } else {
            0.0
        }
    })
}

/// `B` with `+inf`, `-inf` and NaN planted along row `line`.
fn with_poisoned_row(mut b: Matrix, line: usize) -> Matrix {
    for (j, v) in b.row_mut(line).iter_mut().enumerate() {
        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    b
}

/// `matmul`, `matmul_tn` and `matmul_nt` at every level against their
/// oracles for an `[m, k] x [k, n]` product whose `A` has `share` zeros.
/// One line of `A` is entirely zero and the `B` row it would multiply is
/// `±inf` / NaN: skipping a zero leaves the (otherwise finite) result
/// finite, multiplying by it does not — so a multiply-by-zero shortcut
/// fails here even where its sums would round the same.
pub fn check_zero_share_matmuls(m: usize, k: usize, n: usize, share: f64, seed: u64) {
    let line = seed as usize % k;
    let a = zero_laden(m, k, share, Some(line), true, seed);
    let b = with_poisoned_row(mat(k, n, seed ^ 0x5a), line);
    let want = matmul_reference(&a, &b);
    assert!(
        want.data().iter().all(|v| v.is_finite()),
        "the poisoned row of B was read"
    );
    // tn reduces over rows: A is [k, m], zero-skip on a[l, i], so the
    // zero line is row `line` of A and the poisoned row is B's `line`.
    let at = zero_laden(k, m, share, Some(line), false, seed ^ 0xa5);
    let want_tn = matmul_tn_reference(&at, &b);
    assert!(want_tn.data().iter().all(|v| v.is_finite()));
    // nt's oracle has no zero-skip: zeros in A still multiply, and the
    // infinities (no NaN: which of two NaN payloads an add keeps is the
    // compiler's choice of operand order) reach the sums at every level.
    let mut bt = mat(n, k, seed ^ 0x3c);
    bt.data_mut()[seed as usize % (n * k)] = f32::INFINITY;
    bt.data_mut()[(seed as usize * 31 + 7) % (n * k)] = f32::NEG_INFINITY;
    let a_nt = zero_laden(m, k, share, None, true, seed ^ 0x77);
    let want_nt = matmul_nt_reference(&a_nt, &bt);
    for level in levels() {
        let what = format!("{} {m}x{k}x{n} zeros {share}", level.name());
        let (mut c, mut scratch) = (dirty(), vec![f32::NAN; 3]);
        matmul_into_with(level, &a, &b, &mut c);
        assert_bits_eq(&c, &want, &format!("matmul/{what}"));
        matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
        assert_bits_eq(&c, &want_tn, &format!("matmul_tn/{what}"));
        matmul_nt_into_with(level, &a_nt, &bt, &mut c, &mut scratch);
        assert_bits_eq(&c, &want_nt, &format!("matmul_nt/{what}"));
    }
}

/// Row-blocks of every kind side by side in one band: an all-zero row
/// (empty visit lists), a row with no zero at all (the plain loop), rows
/// whose first k-block is dense and second is not, and the reverse.
pub fn check_mixed_row_blocks(n: usize, seed: u64) {
    let (m, k) = (11, 600);
    let mut a = zero_laden(m, k, 0.5, None, true, seed);
    let dense = mat(m, k, seed ^ 0x11);
    for l in 0..k {
        let nonzero = dense.get(0, l).abs().max(0.25);
        a.set(0, l, if l % 2 == 0 { 0.0 } else { -0.0 });
        a.set(1, l, nonzero);
        if l < 256 {
            a.set(2, l, nonzero);
        } else {
            a.set(3, l, -nonzero);
        }
    }
    let b = mat(k, n, seed ^ 0x22);
    let want = matmul_reference(&a, &b);
    let at = Matrix::from_fn(k, m, |l, i| a.get(i, l));
    let want_tn = matmul_tn_reference(&at, &b);
    for level in levels() {
        let (mut c, mut scratch) = (dirty(), Vec::new());
        matmul_into_with(level, &a, &b, &mut c);
        assert_bits_eq(&c, &want, &format!("mixed rows/{} n={n}", level.name()));
        matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
        assert_bits_eq(&c, &want_tn, &format!("mixed tn/{} n={n}", level.name()));
    }
}

/// Row counts around the 64-row block and its 2-row tiles: a lone row, one
/// pair, one short of / exactly / one past a block (an odd last row in the
/// second block), two blocks and a lone row.
pub const BLOCK_ROWS: [usize; 6] = [1, 2, 63, 64, 65, 129];
/// Output widths around the 32-wide panel: below one (`B` is its own
/// panel), exactly one, one plus a ragged last panel of 1 / 15 / 4 / 16
/// columns, many panels.
pub const PANEL_WIDTHS: [usize; 10] = [9, 16, 31, 32, 33, 47, 64, 100, 256, 272];
/// `matmul_tn` reduction depths around its 512-row chunks.
pub const TN_DEPTHS: [usize; 5] = [1, 511, 512, 513, 1300];
/// `matmul_tn` output row counts: the transposed strip's rows.
pub const TN_ROWS: [usize; 4] = [1, 7, 100, 256];

/// `[rows, cols]` whose rows are, by `mix`: all dense (every row pairs up
/// in a 2-row tile), all ~50 % zeros (every row walks a visit list),
/// alternating (a dense row is always next to a zero-laden one: nothing
/// pairs), two dense then one zero-laden, or dense in the first 256-deep
/// k-block and zero-laden after it on even rows and the reverse on odd
/// ones (who pairs changes from k-block to k-block). Where a row is
/// zero-laden at column `line`, it holds a zero there.
fn row_mix(rows: usize, cols: usize, mix: usize, line: usize, seed: u64) -> Matrix {
    let mut a = zero_laden(rows, cols, 0.5, None, true, seed);
    let fill = mat(rows, cols, seed ^ 0x11);
    for i in 0..rows {
        for l in 0..cols {
            let dense = match mix % 5 {
                0 => true,
                1 => false,
                2 => i % 2 == 0,
                3 => i % 3 != 2,
                _ => (i % 2 == 0) == (l < 256),
            };
            if dense {
                let v = fill.get(i, l);
                a.set(i, l, v.abs().max(0.25).copysign(v));
            } else if l == line {
                a.set(i, l, if i % 2 == 0 { 0.0 } else { -0.0 });
            }
        }
    }
    a
}

/// The three matmuls at every level against their oracles on one shape of
/// the packed-panel body, `A`'s rows mixed by [`row_mix`]: `matmul` and
/// `matmul_nt` on `[m, k] x [k, n]`, `matmul_tn` on the transpose (`k` is
/// its reduction depth, `m` its output rows, so the transposed strip holds
/// the same row mix). Every fifth column of one row of `B` is `±inf` / NaN
/// and every zero-laden row of `A` has a zero in front of it: a row that
/// shares a tile with a dense neighbour must still skip what it skipped
/// alone, or its finite sums turn NaN (the dense rows do read the row —
/// once, so no two NaNs ever meet). Every call finds its output and
/// scratch as a warm pool leaves them — right size, every float NaN —
/// after a first round on wrongly shaped ones: nothing is zero-filled
/// ahead of the kernels any more, so whatever they fail to overwrite shows.
pub fn check_panel_geometry(m: usize, k: usize, n: usize, mix: usize, seed: u64) {
    let line = seed as usize % k;
    let a = row_mix(m, k, mix, line, seed);
    let mut b = mat(k, n, seed ^ 0x22);
    for (j, v) in b.row_mut(line).iter_mut().enumerate().step_by(5) {
        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j / 5 % 3];
    }
    let at = Matrix::from_fn(k, m, |l, i| a.get(i, l));
    let mut bt = mat(n, k, seed ^ 0x33);
    bt.data_mut()[seed as usize % (n * k)] = f32::INFINITY;
    bt.data_mut()[(seed as usize * 31 + 7) % (n * k)] = f32::NEG_INFINITY;
    let want = matmul_reference(&a, &b);
    let want_nt = matmul_nt_reference(&a, &bt);
    let want_tn = matmul_tn_reference(&at, &b);
    for level in levels() {
        let what = format!("{} {m}x{k}x{n} mix {}", level.name(), mix % 5);
        let (mut c, mut scratch) = (dirty(), vec![f32::NAN; 3]);
        for round in 0..2 {
            let poison = |c: &mut Matrix, scratch: &mut Vec<f32>| {
                if round == 1 {
                    c.data_mut().fill(f32::NAN);
                    scratch.fill(f32::NAN);
                }
            };
            poison(&mut c, &mut scratch);
            matmul_into_with(level, &a, &b, &mut c);
            assert_bits_eq(&c, &want, &format!("matmul/{what} round {round}"));
            poison(&mut c, &mut scratch);
            matmul_nt_into_with(level, &a, &bt, &mut c, &mut scratch);
            assert_bits_eq(&c, &want_nt, &format!("matmul_nt/{what} round {round}"));
            poison(&mut c, &mut scratch);
            matmul_tn_into_with(level, &at, &b, &mut c, &mut scratch);
            assert_bits_eq(&c, &want_tn, &format!("matmul_tn/{what} round {round}"));
        }
    }
}

/// [`check_panel_geometry`] over row counts x widths (inner dimensions
/// straddling the k-block, row mixes rotating) and over `tn` depths x
/// output rows, then the poisoned-`B` check on shapes that reach the row
/// blocks, the ragged panels and several `tn` chunks.
pub fn check_panel_geometry_grid() {
    for (i, &m) in BLOCK_ROWS.iter().enumerate() {
        for (j, &n) in PANEL_WIDTHS.iter().enumerate() {
            let k = K_STRADDLING_KB[2 + (i + j) % 6];
            check_panel_geometry(m, k, n, i + j, 1000 + (10 * i + j) as u64);
        }
    }
    for (i, &k) in TN_DEPTHS.iter().enumerate() {
        for (j, &m) in TN_ROWS.iter().enumerate() {
            let n = PANEL_WIDTHS[(4 * i + j) % PANEL_WIDTHS.len()];
            check_panel_geometry(m, k, n, i + j + 1, 2000 + (10 * i + j) as u64);
        }
    }
    let poisoned = [
        (65usize, 300usize, 33usize),
        (129, 257, 272),
        (100, 1300, 47),
    ];
    for (i, &(m, k, n)) in poisoned.iter().enumerate() {
        for share in [0.0, 0.5] {
            check_zero_share_matmuls(m, k, n, share, 3000 + i as u64);
        }
    }
}

/// Values on which a sign or zero test can go wrong.
const SPECIALS: [f32; 16] = [
    0.0,
    -0.0,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40, // subnormal
    -1.0e-40,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::MAX,
    f32::MIN,
    88.0,   // exp overflows just above
    -104.0, // exp underflows to 0
    1.0,
    -1.0,
];

/// Sign-random data with a special value every fifth element.
pub fn sign_random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut count = 0usize;
    Matrix::from_fn(rows, cols, |_, _| {
        count += 1;
        let v = rng.gen_range(-3.0f32..3.0);
        if count.is_multiple_of(5) {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            v
        }
    })
}

fn map1(x: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    Matrix::from_vec(x.rows(), x.cols(), x.data().iter().map(|&v| f(v)).collect())
}

fn map2(a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
    let data = a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y));
    Matrix::from_vec(a.rows(), a.cols(), data.collect())
}

/// Every elementwise kernel against its one-line scalar definition — the
/// branchy per-element form the select kernels replaced.
pub fn check_elementwise(rows: usize, cols: usize, seed: u64) {
    let x = sign_random(rows, cols, seed);
    let g = sign_random(rows, cols, seed ^ 0x9e37);
    let what = format!("{rows}x{cols} seed {seed}");
    let (slope, alpha, s) = (0.2f32, 1.0f32, -1.75f32);
    let mut out = dirty();

    ops::relu(&x, &mut out);
    let want = map1(&x, |v| if v < 0.0 { 0.0 } else { v });
    assert_bits_eq(&out, &want, &format!("relu {what}"));

    ops::relu_backward(&g, &x, &mut out);
    let want = map2(&g, &x, |g, x| if x <= 0.0 { 0.0 } else { g });
    assert_bits_eq(&out, &want, &format!("relu_backward {what}"));

    ops::leaky_relu(&x, slope, &mut out);
    let want = map1(&x, |v| if v < 0.0 { v * slope } else { v });
    assert_bits_eq(&out, &want, &format!("leaky_relu {what}"));

    ops::leaky_relu_backward(&g, &x, slope, &mut out);
    let want = map2(&g, &x, |g, x| if x < 0.0 { g * slope } else { g });
    assert_bits_eq(&out, &want, &format!("leaky_relu_backward {what}"));

    let elu_def = |v: f32| if v < 0.0 { alpha * (v.exp() - 1.0) } else { v };
    ops::elu(&x, alpha, &mut out);
    let y = map1(&x, elu_def);
    assert_bits_eq(&out, &y, &format!("elu {what}"));

    ops::elu_backward(&g, &y, alpha, &mut out);
    let want = map2(&g, &y, |g, y| if y < 0.0 { g * (y + alpha) } else { g });
    assert_bits_eq(&out, &want, &format!("elu_backward {what}"));

    ops::scale(&x, s, &mut out);
    assert_bits_eq(&out, &map1(&x, |v| v * s), &format!("scale {what}"));

    // The two adds are the checks where both operands can be NaN: keep
    // `g`'s special values except a NaN that would meet one of `x`'s.
    let g_add = map2(&g, &x, |g, x| if g.is_nan() && x.is_nan() { s } else { g });
    ops::add_into(&x, &g_add, &mut out);
    let want = map2(&x, &g_add, |x, g| x + g);
    assert_bits_eq(&out, &want, &format!("add {what}"));

    let column_has_nan = |j: usize| (0..rows).any(|i| x.get(i, j).is_nan());
    let mut bias: Vec<f32> = g.data()[..cols].to_vec();
    for (j, b) in bias.iter_mut().enumerate() {
        if b.is_nan() && column_has_nan(j) {
            *b = s;
        }
    }
    ops::add_bias(&x, &bias, &mut out);
    let want = Matrix::from_fn(rows, cols, |i, j| x.get(i, j) + bias[j]);
    assert_bits_eq(&out, &want, &format!("add_bias {what}"));
}

/// The dropout loop as it stood before draw-then-apply: one branch per
/// element on the draw, mask and value written under it, in place.
fn dropout_reference(x: &mut Matrix, p: f32, seed: u64) -> Vec<f32> {
    let mut mask = Vec::new();
    if p == 0.0 {
        return mask;
    }
    let keep = 1.0 / (1.0 - p);
    let n = x.cols().max(1);
    mask.resize(x.len(), 0.0);
    for (row, (mrow, xrow)) in mask
        .chunks_mut(n)
        .zip(x.data_mut().chunks_mut(n))
        .enumerate()
    {
        let mut rng = SmallRng::seed_from_u64(seed ^ (row as u64).wrapping_mul(0x9e3779b97f4a7c15));
        for (m, v) in mrow.iter_mut().zip(xrow.iter_mut()) {
            if rng.gen::<f32>() < p {
                *m = 0.0;
                *v = 0.0;
            } else {
                *m = keep;
                *v *= keep;
            }
        }
    }
    mask
}

/// `dropout_into`'s output bit for bit against the loop it replaced —
/// negative, infinite and NaN inputs included (a dropped element is
/// `+0.0` whatever it held) — its bit mask against that loop's `f32` mask
/// (a bit set exactly where the multiplier is `keep`, the padding bits of
/// a row's last word clear), and `dropout_backward` against `grad · mask`
/// over the `f32` mask.
pub fn check_dropout(rows: usize, cols: usize, seed: u64) {
    let x = sign_random(rows, cols, seed);
    let g = sign_random(rows, cols, seed ^ 0x51);
    let words = ops::dropout_mask_words(cols);
    for p in [0.0f32, 0.1, 0.5, 0.9] {
        let what = format!("{rows}x{cols} p {p} seed {seed}");
        let mut want = x.clone();
        let want_mask = dropout_reference(&mut want, p, seed);
        // Stale pooled buffers: wrong shape, wrong length, set bits.
        let (mut out, mut mask) = (dirty(), vec![u64::MAX; 7]);
        ops::dropout_into(&x, p, seed, &mut out, &mut mask);
        assert_bits_eq(&out, &want, &format!("dropout output {what}"));
        if p == 0.0 {
            assert!(mask.is_empty(), "p = 0 keeps no mask");
        } else {
            assert_eq!(mask.len(), rows * words, "dropout mask length {what}");
            for i in 0..rows {
                for w in 0..words {
                    let word = mask[i * words + w];
                    for lane in 0..64 {
                        let j = w * 64 + lane;
                        let bit = (word >> lane) & 1 != 0;
                        let want_bit = j < cols && want_mask[i * cols + j] != 0.0;
                        assert_eq!(bit, want_bit, "dropout mask {what}: ({i}, {j})");
                    }
                }
            }
        }
        let mut dropped = want_mask.iter().zip(out.data()).filter(|(&m, _)| m == 0.0);
        assert!(dropped.all(|(_, o)| o.to_bits() == 0), "dropped is +0.0");
        let mut back = dirty();
        ops::dropout_backward(&g, &mask, p, &mut back);
        let want_back = if p == 0.0 {
            g.clone()
        } else {
            let data = g.data().iter().zip(&want_mask).map(|(g, m)| g * m);
            Matrix::from_vec(rows, cols, data.collect())
        };
        assert_bits_eq(&back, &want_back, &format!("dropout_backward {what}"));
    }
}

//! Checks shared by `simd_equivalence.rs` (natural width, `WG_THREADS=1`,
//! CI's `WG_SIMD=scalar` leg) and `simd_equivalence_threads2.rs` (the
//! two-worker pool): the traffic the training loop actually feeds the
//! dense kernels — zero-laden `A` operands, sign-random activations,
//! dropout — pinned bitwise. No tolerance anywhere.

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

    ops::add_into(&x, &g, &mut out);
    let want = map2(&x, &g, |x, g| x + g);
    assert_bits_eq(&out, &want, &format!("add {what}"));

    let bias: Vec<f32> = g.data()[..cols].to_vec();
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

/// `dropout_into`'s mask and output, bit for bit, against the loop it
/// replaced — negative, infinite and NaN inputs included (a dropped
/// element is `+0.0` whatever it held) — and `dropout_backward` against
/// `grad · mask`.
pub fn check_dropout(rows: usize, cols: usize, seed: u64) {
    let x = sign_random(rows, cols, seed);
    let g = sign_random(rows, cols, seed ^ 0x51);
    for p in [0.0f32, 0.1, 0.5, 0.9] {
        let what = format!("{rows}x{cols} p {p} seed {seed}");
        let mut want = x.clone();
        let want_mask = dropout_reference(&mut want, p, seed);
        // Stale pooled buffers: wrong shape, wrong length, NaN contents.
        let (mut out, mut mask) = (dirty(), vec![f32::NAN; 7]);
        ops::dropout_into(&x, p, seed, &mut out, &mut mask);
        assert_bits_eq(&out, &want, &format!("dropout output {what}"));
        assert_eq!(mask.len(), want_mask.len(), "dropout mask length {what}");
        for (i, (m, w)) in mask.iter().zip(&want_mask).enumerate() {
            assert_eq!(m.to_bits(), w.to_bits(), "dropout mask {what}: {i}");
        }
        let mut dropped = mask.iter().zip(out.data()).filter(|(&m, _)| m == 0.0);
        assert!(dropped.all(|(_, o)| o.to_bits() == 0), "dropped is +0.0");
        let mut back = dirty();
        ops::dropout_backward(&g, &mask, &mut back);
        let want_back = if p == 0.0 {
            g.clone()
        } else {
            let data = g.data().iter().zip(&mask).map(|(g, m)| g * m);
            Matrix::from_vec(rows, cols, data.collect())
        };
        assert_bits_eq(&back, &want_back, &format!("dropout_backward {what}"));
    }
}

//! Dense matmul: the SIMD-dispatched blocked kernel vs the forced-scalar
//! blocked kernel vs the naive reference, all bit-identical to each
//! other. Two shapes bracket the training path: a tall-skinny batch ×
//! hidden product (the per-layer forward shape) and a squarer hidden ×
//! hidden product (the backward weight-gradient shape). The `simd-avx2`
//! rows only appear on hosts with AVX2; `blocked` is whatever the
//! runtime dispatcher picked (`WG_SIMD` overrides it). The `matmul_narrow`
//! group times the shapes GAT's attention projections add — `h·a` with
//! four output columns, and its two gradients (`nt` with k = 4, `tn`
//! with n = 4) — which the shape-chosen narrow kernels serve.
//!
//! The `matmul_zeros` group feeds the kernels what training feeds them:
//! `A` with 0 / 50 / 90 % exact zeros (post-dropout and post-ReLU
//! activations) at the paper shape 25 531x256x256 and at `train_input`'s
//! dense 21 795x100x16, forward (`A·B`) and `tn` (`Aᵀ·G`, the weight
//! gradient, whose zero-skip is on the same `A`), plus two dense rows: `nt`
//! (`G·Wᵀ`, the other gradient) at the paper shape, and the forward at
//! `n = 272` — the control for the L1 set aliasing a row-major `B` suffers
//! at exactly `n = 256` and packed panels do not. The `elementwise` group
//! times the activation and dropout kernels on sign-random data at
//! 25 531x256 — the operands whose sign or zero test used to mispredict
//! every other element.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_tensor::ops::{
    dropout_into, elu, elu_backward, leaky_relu, matmul_into, matmul_into_with, matmul_nt_into,
    matmul_nt_into_with, matmul_nt_reference, matmul_reference, matmul_tn_into,
    matmul_tn_into_with, matmul_tn_reference, relu, relu_backward,
};
use wg_tensor::simd::{self, Level};
use wg_tensor::Matrix;

fn mats(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0));
    let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0));
    (a, b)
}

fn bench_matmul(c: &mut Criterion) {
    let shapes = [
        ("batch2048x128x256", 2048usize, 128usize, 256usize),
        ("hidden512x512x512", 512, 512, 512),
    ];
    let mut group = c.benchmark_group("matmul");
    group.sample_size(15);
    for (label, m, k, n) in shapes {
        let (a, b) = mats(m, k, n, 7);
        let mut out = Matrix::empty();
        group.bench_with_input(BenchmarkId::new("blocked", label), &(), |bch, _| {
            bch.iter(|| {
                matmul_into(black_box(&a), black_box(&b), &mut out);
                black_box(out.rows())
            });
        });
        group.bench_with_input(BenchmarkId::new("scalar", label), &(), |bch, _| {
            bch.iter(|| {
                matmul_into_with(Level::Scalar, black_box(&a), black_box(&b), &mut out);
                black_box(out.rows())
            });
        });
        if simd::avx2_available() {
            group.bench_with_input(BenchmarkId::new("simd-avx2", label), &(), |bch, _| {
                bch.iter(|| {
                    matmul_into_with(Level::Avx2, black_box(&a), black_box(&b), &mut out);
                    black_box(out.rows())
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("reference", label), &(), |bch, _| {
            bch.iter(|| black_box(matmul_reference(black_box(&a), black_box(&b))).rows());
        });
    }
    group.finish();
}

/// `h: [rows, 256]` against a `[256, 4]` attention vector, forward and
/// both gradients.
fn bench_matmul_narrow(c: &mut Criterion) {
    let (rows, hidden, heads) = (16_384usize, 256usize, 4usize);
    let (h, a) = mats(rows, hidden, heads, 11);
    let (g, _) = mats(rows, heads, 1, 12);
    let mut out = Matrix::empty();
    let mut scratch = Vec::new();
    let mut group = c.benchmark_group("matmul_narrow");
    group.sample_size(15);
    for (name, level) in wg_bench::simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "forward_n4"), &(), |bch, _| {
            bch.iter(|| {
                matmul_into_with(level, black_box(&h), &a, &mut out);
                black_box(out.rows())
            });
        });
        group.bench_with_input(BenchmarkId::new(name, "nt_k4"), &(), |bch, _| {
            bch.iter(|| {
                matmul_nt_into_with(level, black_box(&g), &a, &mut out, &mut scratch);
                black_box(out.rows())
            });
        });
        group.bench_with_input(BenchmarkId::new(name, "tn_n4"), &(), |bch, _| {
            bch.iter(|| {
                matmul_tn_into_with(level, black_box(&h), &g, &mut out, &mut scratch);
                black_box(out.rows())
            });
        });
    }
    group.bench_with_input(
        BenchmarkId::new("reference", "forward_n4"),
        &(),
        |bch, _| {
            bch.iter(|| black_box(matmul_reference(black_box(&h), &a)).rows());
        },
    );
    group.bench_with_input(BenchmarkId::new("reference", "nt_k4"), &(), |bch, _| {
        bch.iter(|| black_box(matmul_nt_reference(black_box(&g), &a)).rows());
    });
    group.bench_with_input(BenchmarkId::new("reference", "tn_n4"), &(), |bch, _| {
        bch.iter(|| black_box(matmul_tn_reference(black_box(&h), &g)).rows());
    });
    group.finish();
}

/// `A: [m, k]` with the given share of exact zeros (every 17th of them
/// `-0.0`), the rest uniform in (-1, 1).
fn sparse_a(m: usize, k: usize, zero_pct: u32, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut zeros = 0u32;
    Matrix::from_fn(m, k, |_, _| {
        let v: f32 = rng.gen_range(-1.0..1.0);
        if rng.gen_range(0..100u32) >= zero_pct {
            return v;
        }
        zeros += 1;
        if zeros.is_multiple_of(17) {
            -0.0
        } else {
            0.0
        }
    })
}

fn bench_matmul_zeros(c: &mut Criterion) {
    let shapes = [
        ("paper25531x256x256", 25_531usize, 256usize, 256usize),
        ("input21795x100x16", 21_795, 100, 16),
    ];
    let mut group = c.benchmark_group("matmul_zeros");
    group.sample_size(7);
    for (label, m, k, n) in shapes {
        let (_, b) = mats(0, k, n, 21);
        let (g, _) = mats(m, n, 0, 23);
        for zero_pct in [0u32, 50, 90] {
            let a = sparse_a(m, k, zero_pct, 22);
            let id = format!("{label}/zeros{zero_pct}");
            let mut out = Matrix::empty();
            let mut scratch = Vec::new();
            group.bench_with_input(BenchmarkId::new("blocked", &id), &(), |bch, _| {
                bch.iter(|| {
                    matmul_into(black_box(&a), black_box(&b), &mut out);
                    black_box(out.rows())
                });
            });
            group.bench_with_input(BenchmarkId::new("scalar", &id), &(), |bch, _| {
                bch.iter(|| {
                    matmul_into_with(Level::Scalar, black_box(&a), black_box(&b), &mut out);
                    black_box(out.rows())
                });
            });
            group.bench_with_input(BenchmarkId::new("reference", &id), &(), |bch, _| {
                bch.iter(|| black_box(matmul_reference(black_box(&a), black_box(&b))).rows());
            });
            group.bench_with_input(BenchmarkId::new("blocked_tn", &id), &(), |bch, _| {
                bch.iter(|| {
                    matmul_tn_into(black_box(&a), black_box(&g), &mut out, &mut scratch);
                    black_box(out.rows())
                });
            });
            group.bench_with_input(BenchmarkId::new("scalar_tn", &id), &(), |bch, _| {
                bch.iter(|| {
                    let (a, g) = (black_box(&a), black_box(&g));
                    matmul_tn_into_with(Level::Scalar, a, g, &mut out, &mut scratch);
                    black_box(out.rows())
                });
            });
            group.bench_with_input(BenchmarkId::new("reference_tn", &id), &(), |bch, _| {
                bch.iter(|| black_box(matmul_tn_reference(black_box(&a), black_box(&g))).rows());
            });
        }
    }
    // The gradient through the weights at the paper shape: `G · Wᵀ` with a
    // dense `G` — no zero to skip, every row takes the 2-row tile.
    let (g, w) = mats(25_531, 256, 256, 24);
    let (mut out, mut scratch) = (Matrix::empty(), Vec::new());
    let id = "paper25531x256x256/zeros0";
    group.bench_with_input(BenchmarkId::new("blocked_nt", id), &(), |bch, _| {
        bch.iter(|| {
            matmul_nt_into(black_box(&g), black_box(&w), &mut out, &mut scratch);
            black_box(out.rows())
        });
    });
    // The aliasing control. A row-major `B` at n = 256 puts a tile's panel
    // rows exactly 1 KiB apart — 8 of the L1D's 64 sets — and at n = 272
    // it does not: the strided kernel ran 28.0 vs 22.8 GFLOP/s on these two.
    // Read through packed panels the layout of `B` is the same for both, so
    // this row and `blocked/paper25531x256x256/zeros0` must agree per flop
    // (272/256 = 1.0625x the time).
    let (a, b) = mats(25_531, 256, 272, 26);
    let id = "alias25531x256x272/zeros0";
    group.bench_with_input(BenchmarkId::new("blocked", id), &(), |bch, _| {
        bch.iter(|| {
            matmul_into(black_box(&a), black_box(&b), &mut out);
            black_box(out.rows())
        });
    });
    group.finish();
}

/// The activation and dropout kernels on one layer-sized, sign-random
/// operand.
fn bench_elementwise(c: &mut Criterion) {
    let (x, _) = mats(25_531, 256, 1, 31);
    let (g, _) = mats(25_531, 256, 1, 32);
    let mut y = Matrix::empty();
    elu(&x, 1.0, &mut y);
    let mut out = Matrix::empty();
    let mut mask = Vec::new();
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(15);
    group.bench_function("dropout_into", |bch| {
        bch.iter(|| {
            dropout_into(black_box(&x), 0.5, 7, &mut out, &mut mask);
            black_box(mask.len())
        });
    });
    group.bench_function("elu", |bch| {
        bch.iter(|| elu(black_box(&x), 1.0, &mut out));
    });
    group.bench_function("elu_backward", |bch| {
        bch.iter(|| elu_backward(black_box(&g), &y, 1.0, &mut out));
    });
    group.bench_function("relu", |bch| {
        bch.iter(|| relu(black_box(&x), &mut out));
    });
    group.bench_function("relu_backward", |bch| {
        bch.iter(|| relu_backward(black_box(&g), &x, &mut out));
    });
    group.bench_function("leaky_relu", |bch| {
        bch.iter(|| leaky_relu(black_box(&x), 0.2, &mut out));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_narrow,
    bench_matmul_zeros,
    bench_elementwise
);
criterion_main!(benches);

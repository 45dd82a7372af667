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

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_tensor::ops::{
    matmul_into, matmul_into_with, matmul_nt_into_with, matmul_nt_reference, matmul_reference,
    matmul_tn_into_with, matmul_tn_reference,
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

criterion_group!(benches, bench_matmul, bench_matmul_narrow);
criterion_main!(benches);

//! The two byte-stream hot loops behind the gather path: the per-row
//! feature copy (`simd::copy_slice`, the inner loop of
//! `TierStack::execute`) at forced-scalar vs AVX2 level, and the
//! FNV-1a checksum fold (`simd::fnv1a_f32`) that pins every bench's
//! bit-identity — serial by construction, so its speedup comes from
//! unrolling alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_tensor::simd::{self, Level};

/// A gather-shaped workload: `rows` feature rows of `width` floats
/// scattered through a larger pool, copied row-by-row into a dense
/// output — the exact access pattern of `TierStack::execute`.
fn row_copy(level: Level, pool: &[f32], picks: &[usize], width: usize, out: &mut [f32]) -> usize {
    for (i, &start) in picks.iter().enumerate() {
        let dst = &mut out[i * width..(i + 1) * width];
        simd::copy_slice(level, dst, &pool[start..start + width]);
    }
    out.len()
}

fn bench_row_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_row_copy");
    group.sample_size(20);
    // 100 (unaligned) and 256 (aligned) floats bracket typical feature
    // widths; 4096 rows is a realistic fanned-out minibatch.
    for width in [100usize, 256] {
        let rows = 4096usize;
        let pool_rows = 65_536usize;
        let mut rng = SmallRng::seed_from_u64(11);
        let pool: Vec<f32> = (0..pool_rows * width)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let picks: Vec<usize> = (0..rows)
            .map(|_| rng.gen_range(0..pool_rows) * width)
            .collect();
        let mut out = vec![0.0f32; rows * width];
        group.bench_with_input(BenchmarkId::new("scalar", width), &(), |b, _| {
            b.iter(|| {
                black_box(row_copy(
                    Level::Scalar,
                    black_box(&pool),
                    black_box(&picks),
                    width,
                    &mut out,
                ))
            });
        });
        if simd::avx2_available() {
            group.bench_with_input(BenchmarkId::new("simd-avx2", width), &(), |b, _| {
                b.iter(|| {
                    black_box(row_copy(
                        Level::Avx2,
                        black_box(&pool),
                        black_box(&picks),
                        width,
                        &mut out,
                    ))
                });
            });
        }
    }
    group.finish();
}

fn bench_fnv(c: &mut Criterion) {
    let mut group = c.benchmark_group("fnv1a_f32");
    group.sample_size(20);
    let n = 1 << 20;
    let mut rng = SmallRng::seed_from_u64(12);
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    group.bench_function("unrolled_1M", |b| {
        b.iter(|| black_box(simd::fnv1a_f32(simd::FNV_OFFSET, black_box(&data))));
    });
    group.bench_function("naive_1M", |b| {
        b.iter(|| {
            let h = black_box(&data).iter().fold(simd::FNV_OFFSET, |h, v| {
                (h ^ v.to_bits() as u64).wrapping_mul(simd::FNV_PRIME)
            });
            black_box(h)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_row_copy, bench_fnv);
criterion_main!(benches);

//! Microbenchmarks of the GPU-kernel primitives Algorithm 1 and
//! AppendUnique are built from: the packed-key radix sort, the CAS hash
//! table, and the exclusive prefix scan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_sample::hashtable::GpuHashTable;
use wg_sample::prefix::{exclusive_scan, parallel_exclusive_scan};
use wg_sample::radix::sort_with_indices;

fn bench_radix(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix_sort_with_indices");
    group.sample_size(20);
    for n in [30usize, 256, 4096] {
        let mut rng = SmallRng::seed_from_u64(1);
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
        group.bench_with_input(BenchmarkId::new("radix", n), &values, |b, v| {
            b.iter(|| black_box(sort_with_indices(black_box(v))).0.len());
        });
        group.bench_with_input(BenchmarkId::new("std_stable", n), &values, |b, v| {
            b.iter(|| {
                let mut pairs: Vec<(u32, u32)> =
                    v.iter().enumerate().map(|(i, &x)| (x, i as u32)).collect();
                pairs.sort();
                black_box(pairs.len())
            });
        });
    }
    group.finish();
}

fn bench_hashtable(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_hash_table");
    group.sample_size(20);
    for n in [16_384usize, 262_144] {
        let mut rng = SmallRng::seed_from_u64(2);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..n as u64 / 2)).collect();
        group.bench_with_input(BenchmarkId::new("insert_counted", n), &keys, |b, keys| {
            b.iter(|| {
                let t = GpuHashTable::with_capacity(keys.len());
                for (position, &k) in keys.iter().enumerate() {
                    t.insert_counted(k, position as u32);
                }
                black_box(t.num_slots())
            });
        });
        group.bench_with_input(BenchmarkId::new("std_hashmap", n), &keys, |b, keys| {
            b.iter(|| {
                let mut m = std::collections::HashMap::with_capacity(keys.len());
                for &k in keys {
                    *m.entry(k).or_insert(0u32) += 1;
                }
                black_box(m.len())
            });
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("exclusive_scan");
    group.sample_size(20);
    let n = 1 << 20;
    let values: Vec<u32> = (0..n).map(|i| (i % 7) as u32).collect();
    group.bench_function("sequential_1M", |b| {
        b.iter(|| {
            let mut v = values.clone();
            black_box(exclusive_scan(&mut v))
        });
    });
    group.bench_function("parallel_1M", |b| {
        b.iter(|| {
            let mut v = values.clone();
            black_box(parallel_exclusive_scan(&mut v))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_radix, bench_hashtable, bench_scan);
criterion_main!(benches);

//! Ablation: hash-table AppendUnique (§III-C2) vs the sort-based unique
//! "used in other frameworks", and the hash table sized by the input
//! length vs by the key universe (`max_unique`) — the bound the sampler
//! passes when a batch samples the graph's nodes several times over.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_sample::{append_unique, append_unique_sorted, AppendUniqueScratch};

fn workload(targets: usize, neighbors: usize, universe: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t: Vec<u64> = (0..universe).collect();
    t.shuffle(&mut rng);
    t.truncate(targets);
    let n: Vec<u64> = (0..neighbors).map(|_| rng.gen_range(0..universe)).collect();
    (t, n)
}

fn bench_append_unique(c: &mut Criterion) {
    let mut group = c.benchmark_group("append_unique");
    group.sample_size(15);
    // Batch-512 × fanout-30 shaped inputs at two duplication levels, a
    // deep-layer shape, and the same with heavy duplication (universe ≪
    // neighbors: ~10 samples per node, `train_input`'s deepest layer).
    for (targets, neighbors, universe) in [
        (512usize, 15_360usize, 100_000u64),
        (512, 15_360, 4_000),
        (8_192, 245_760, 500_000),
        (8_192, 245_760, 25_000),
    ] {
        let (t, n) = workload(targets, neighbors, universe, 3);
        let label = format!("{targets}t_{neighbors}n_u{universe}");
        group.bench_with_input(BenchmarkId::new("hash_table", &label), &(), |b, _| {
            b.iter(|| black_box(append_unique(black_box(&t), black_box(&n))).num_unique());
        });
        group.bench_with_input(
            BenchmarkId::new("hash_table_bounded", &label),
            &(),
            |b, _| {
                // The two-step core with `max_unique` passed, as the
                // sampler drives it (warm scratch and outputs).
                let mut scratch = AppendUniqueScratch::default();
                let mut ids = vec![0u32; n.len()];
                let (mut unique, mut dups) = (Vec::new(), Vec::new());
                b.iter(|| {
                    scratch.begin(black_box(&t), universe as usize);
                    for (k, &key) in black_box(&n).iter().enumerate() {
                        ids[k] = scratch.insert(k, key);
                    }
                    scratch.finish(&t, &mut ids, &mut unique, &mut dups);
                    black_box(unique.len())
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("sort_based", &label), &(), |b, _| {
            b.iter(|| black_box(append_unique_sorted(black_box(&t), black_box(&n))).num_unique());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_append_unique);
criterion_main!(benches);

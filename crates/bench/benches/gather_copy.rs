//! The two byte-stream hot loops behind the gather path: the per-row
//! feature copy (`simd::copy_slice`, the inner loop of
//! `TierStack::execute`) at forced-scalar vs AVX2 level, and the
//! FNV-1a checksum fold (`simd::fnv1a_f32`) that pins every bench's
//! bit-identity — serial by construction, so its speedup comes from
//! unrolling alone. Plus the out-of-core tier's host cost, outside
//! `benchmark/`: plan + execute through a disk-only `TierStack` on the
//! two batch shapes the end-to-end workloads send it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_mem::gather::{RowPlan, TierStack};
use wg_mem::{OocTier, WholeMemory};
use wg_sim::cost::AccessMode;
use wg_sim::{CostModel, DeviceSpec};
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

/// What a gather through the disk tier costs the host per disk row:
/// the request list is built and priced, then the rows are copied from
/// their owning regions. (i) the `serve_zipf` shape — what reaches the
/// tier from a coalesced batch: 345 distinct Zipf(1.1) draws from beyond
/// the resident hottest quarter of 24 000 x 100 f32, scattered through
/// the file; (ii) the `train_input` shape — a dense 18 900-of-25 531
/// batch at 10% residency, nine rows in ten from disk.
fn bench_ooc_fetch(c: &mut Criterion) {
    let (model, spec) = (CostModel::dgx_a100(), DeviceSpec::a100_40gb());
    let mut group = c.benchmark_group("ooc_fetch");
    group.sample_size(30);
    let mut rng = SmallRng::seed_from_u64(7);
    let shapes = [
        ("serve_zipf_sparse", 24_000usize, 4usize, 345usize, true),
        ("train_input_dense", 25_531, 10, 18_900, false),
    ];
    for (name, rows, resident_share, batch, zipf_tail) in shapes {
        let width = 100usize;
        let mut wm = WholeMemory::<f32>::allocate(&model, 4, rows, width, AccessMode::PeerAccess);
        wm.init_rows(|r, out| out.fill(r as f32));
        // Popularity rank -> row through a seeded permutation; hotness is
        // the rank reversed, so the hottest `rows / share` stay resident.
        let mut by_rank: Vec<usize> = (0..rows).collect();
        by_rank.shuffle(&mut rng);
        let mut hotness = vec![0u64; rows];
        for (rank, &row) in by_rank.iter().enumerate() {
            hotness[row] = (rows - rank) as u64;
        }
        let resident = rows / resident_share;
        let indices: Vec<usize> = if zipf_tail {
            // Inverse-CDF Zipf over the non-resident popularity ranks.
            let weights: Vec<f64> = (resident..rows)
                .map(|k| (k as f64 + 1.0).powf(-1.1))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut distinct = Vec::with_capacity(batch);
            while distinct.len() < batch {
                let mut u = rng.gen_range(0.0..total);
                let tail = weights.iter().position(|w| {
                    u -= w;
                    u < 0.0
                });
                let row = by_rank[resident + tail.unwrap_or(0)];
                if !distinct.contains(&row) {
                    distinct.push(row);
                }
            }
            distinct
        } else {
            by_rank[..batch].to_vec()
        };
        let mut stack = TierStack {
            cache: None,
            disk: Some(OocTier::build(&wm, &hotness, resident)),
        };
        let mut plan = RowPlan::default();
        let mut out = vec![0.0f32; indices.len() * width];
        let (mut best_ns, mut disk_rows) = (u128::MAX, 0);
        group.bench_function(name, |b| {
            b.iter(|| {
                let t0 = std::time::Instant::now();
                stack.plan(&wm, black_box(&indices), 0, &mut plan);
                let stats = stack.execute(&wm, &plan, &mut out, 0, &model, &spec);
                best_ns = best_ns.min(t0.elapsed().as_nanos());
                disk_rows = stats.storage_io.rows;
                black_box(stats.rows)
            });
        });
        println!(
            "bench ooc_fetch/{name}: {:.1} ns per disk row ({disk_rows} of {} rows from disk)",
            best_ns as f64 / disk_rows as f64,
            indices.len()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_row_copy, bench_fnv, bench_ooc_fetch);
criterion_main!(benches);

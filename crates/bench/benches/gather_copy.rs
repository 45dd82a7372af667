//! The out-of-core tier's host cost, outside `benchmark/`: plan + execute
//! through a disk-only `TierStack` on the two batch shapes the end-to-end
//! workloads send it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_mem::gather::{RowPlan, TierStack};
use wg_mem::{OocTier, WholeMemory};
use wg_sim::cost::AccessMode;
use wg_sim::{CostModel, DeviceSpec};

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

criterion_group!(benches, bench_ooc_fetch);
criterion_main!(benches);

//! Ablation: one-kernel DSM gather vs the 5-step NCCL-style gather
//! (host wall-clock of the real data movement; the simulated-time
//! comparison is Figure 10's harness).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_mem::gather::global_gather;
use wg_mem::nccl::nccl_gather;
use wg_mem::WholeMemory;
use wg_sim::cost::AccessMode;
use wg_sim::{CostModel, DeviceSpec};

fn bench_gather(c: &mut Criterion) {
    let model = CostModel::dgx_a100();
    let spec = DeviceSpec::a100_40gb();
    let rows = 100_000usize;
    let width = 128usize;
    let mut wm = WholeMemory::<f32>::allocate(&model, 8, rows, width, AccessMode::PeerAccess);
    wm.init_rows(|r, out| {
        for (j, v) in out.iter_mut().enumerate() {
            *v = (r + j) as f32;
        }
    });
    let mut rng = SmallRng::seed_from_u64(7);
    let indices: Vec<usize> = (0..40_000).map(|_| rng.gen_range(0..rows)).collect();
    let mut out = vec![0.0f32; indices.len() * width];

    let mut group = c.benchmark_group("feature_gather_40k_x_512B");
    group.sample_size(15);
    group.bench_with_input(BenchmarkId::new("dsm_one_kernel", ""), &(), |b, _| {
        b.iter(|| {
            let s = global_gather(&wm, black_box(&indices), &mut out, 0, &model, &spec);
            black_box(s.rows)
        });
    });
    group.bench_with_input(BenchmarkId::new("nccl_five_step", ""), &(), |b, _| {
        b.iter(|| {
            let s = nccl_gather(&wm, black_box(&indices), &mut out, 0, &model, &spec);
            black_box(s.bus_bytes)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gather);
criterion_main!(benches);

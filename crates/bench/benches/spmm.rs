//! The §III-C4 sparse kernels on a batch-shaped block: unweighted g-SpMM
//! (what GCN/GraphSAGE run), and the fused GAT kernels a training
//! iteration runs — edge attention, the weighted multi-head aggregation
//! with bias and ELU, and its one-walk backward (g-SpMM `dL/dh` and
//! g-SDDMM `dL/dα`) — each as the dispatched kernel and the forced
//! levels, all bit-identical to each other. The `simd-avx2` rows only
//! appear on hosts with AVX2; `dispatched` is whatever the runtime
//! dispatcher picked (`WG_SIMD` overrides it).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::simd_levels;
use wg_tensor::sparse::{
    edge_attention_into, edge_attention_into_with, gat_aggregate_backward_into_with,
    gat_aggregate_into, gat_aggregate_into_with, spmm, spmm_backward_src, Agg, BlockCsr,
    ReverseScratch,
};
use wg_tensor::Matrix;

/// A batch-shaped block: `dst` targets, fanout sampled columns each.
fn block(dst: usize, src: usize, fanout: usize, seed: u64) -> BlockCsr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = vec![0u32];
    let mut indices = Vec::with_capacity(dst * fanout);
    for _ in 0..dst {
        for _ in 0..fanout {
            indices.push(rng.gen_range(0..src as u32));
        }
        offsets.push(indices.len() as u32);
    }
    let mut dup_count = vec![0u32; src];
    for &c in &indices {
        dup_count[c as usize] += 1;
    }
    BlockCsr {
        num_dst: dst,
        num_src: src,
        offsets,
        indices,
        dup_count,
    }
}

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn bench_spmm(c: &mut Criterion) {
    let (dst, src, fanout, feat) = (2048usize, 30_000usize, 30usize, 128usize);
    let b = block(dst, src, fanout, 1);
    let x = mat(src, feat, 2);
    let g = mat(dst, feat, 3);

    let mut group = c.benchmark_group("g_spmm");
    group.sample_size(15);
    group.bench_with_input(BenchmarkId::new("forward_mean", ""), &(), |bch, _| {
        bch.iter(|| black_box(spmm(&b, black_box(&x), None, 1, Agg::Mean)).rows());
    });
    group.bench_with_input(BenchmarkId::new("backward_src", ""), &(), |bch, _| {
        bch.iter(|| black_box(spmm_backward_src(&b, black_box(&g), None, 1, Agg::Mean)).rows());
    });
    group.finish();
}

/// The paper's GAT layer shape: 4 heads x 64 channels over fanout-30
/// edges, on a deep-layer block (the frontier has saturated the graph, so
/// sources are shared by ~25 destinations each, as in `train_paper`). The
/// three fused kernels a GAT hidden layer trains with, each at every
/// level: edge attention (score sum, LeakyReLU, edge softmax), the
/// aggregation with bias and ELU in its store, and its one-walk backward.
fn bench_gat_kernels(c: &mut Criterion) {
    let (dst, src, fanout, heads, channels) = (8192usize, 10_000usize, 30usize, 4usize, 256usize);
    let b = block(dst, src, fanout, 1);
    let h = mat(src, channels, 4);
    let g = mat(dst, channels, 5);
    let scores = mat(src, 2 * heads, 6);
    let bias = mat(1, channels, 7);
    let (mut att, mut y) = (Matrix::empty(), Matrix::empty());
    edge_attention_into(&b, &scores, 0.2, &mut att);
    gat_aggregate_into(&b, &h, &att, heads, bias.row(0), Some(1.0), &mut y);

    let mut group = c.benchmark_group("edge_attention");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "4x64"), &(), |bch, _| {
            let mut out = Matrix::empty();
            bch.iter(|| {
                edge_attention_into_with(level, &b, black_box(&scores), 0.2, &mut out);
                black_box(out.rows())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("gat_aggregate");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "4x64"), &(), |bch, _| {
            let mut out = Matrix::empty();
            bch.iter(|| {
                let (bias, elu) = (bias.row(0), Some(1.0));
                gat_aggregate_into_with(level, &b, black_box(&h), &att, heads, bias, elu, &mut out);
                black_box(out.rows())
            });
        });
    }
    group.finish();

    // The backward rewrites the incoming gradient in place (ELU's factor),
    // so every iteration starts by restoring it: one `[dst, channels]`
    // copy inside each timed call.
    let mut group = c.benchmark_group("gat_aggregate_backward");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "4x64"), &(), |bch, _| {
            let (mut grad, mut dh, mut datt) = (Matrix::empty(), Matrix::empty(), Matrix::empty());
            let (mut dbias, mut rev) = (vec![0.0; channels], ReverseScratch::default());
            bch.iter(|| {
                grad.copy_from(black_box(&g));
                gat_aggregate_backward_into_with(
                    level,
                    &b,
                    &mut grad,
                    Some((1.0, &y)),
                    &h,
                    &att,
                    &mut dh,
                    &mut datt,
                    &mut dbias,
                    &mut rev,
                );
                black_box(dh.rows())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmm, bench_gat_kernels);
criterion_main!(benches);

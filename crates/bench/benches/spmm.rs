//! The §III-C4 sparse kernels on a batch-shaped block: unweighted g-SpMM
//! (what GCN/GraphSAGE run), and the GAT families — g-SDDMM, weighted
//! multi-head g-SpMM forward + backward-src, edge softmax forward +
//! backward — each as the dispatched kernel, the forced-scalar kernel
//! and the `*_reference` oracle, all bit-identical to each other. The
//! `simd-avx2` rows only appear on hosts with AVX2; `dispatched` is
//! whatever the runtime dispatcher picked (`WG_SIMD` overrides it).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::simd_levels;
use wg_tensor::sparse::{
    edge_softmax_backward_into_with, edge_softmax_backward_reference, edge_softmax_into_with,
    edge_softmax_reference, sddmm_into_with, sddmm_reference, spmm, spmm_backward_src,
    spmm_backward_src_into_with, spmm_backward_src_reference, spmm_into_with, spmm_reference, Agg,
    BlockCsr, ReverseScratch,
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
/// sources are shared by ~25 destinations each, as in `train_paper`).
fn bench_gat_kernels(c: &mut Criterion) {
    let (dst, src, fanout, heads, channels) = (8192usize, 10_000usize, 30usize, 4usize, 256usize);
    let b = block(dst, src, fanout, 1);
    let h = mat(src, channels, 4);
    let g = mat(dst, channels, 5);
    let att = mat(b.num_edges(), heads, 6);
    let up = mat(b.num_edges(), heads, 7);
    let mut out = Matrix::empty();
    let mut rev = ReverseScratch::default();

    let mut group = c.benchmark_group("sddmm");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "4x64"), &(), |bch, _| {
            bch.iter(|| {
                sddmm_into_with(level, &b, black_box(&g), &h, heads, Agg::Sum, &mut out);
                black_box(out.rows())
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("reference", "4x64"), &(), |bch, _| {
        bch.iter(|| black_box(sddmm_reference(&b, black_box(&g), &h, heads, Agg::Sum)).rows());
    });
    group.finish();

    let mut group = c.benchmark_group("spmm_weighted");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "forward"), &(), |bch, _| {
            bch.iter(|| {
                spmm_into_with(
                    level,
                    &b,
                    black_box(&h),
                    Some(&att),
                    heads,
                    Agg::Sum,
                    &mut out,
                );
                black_box(out.rows())
            });
        });
        group.bench_with_input(BenchmarkId::new(name, "backward_src"), &(), |bch, _| {
            bch.iter(|| {
                spmm_backward_src_into_with(
                    level,
                    &b,
                    black_box(&g),
                    Some(&att),
                    heads,
                    Agg::Sum,
                    &mut out,
                    &mut rev,
                );
                black_box(out.rows())
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("reference", "forward"), &(), |bch, _| {
        bch.iter(|| {
            black_box(spmm_reference(
                &b,
                black_box(&h),
                Some(&att),
                heads,
                Agg::Sum,
            ))
            .rows()
        });
    });
    group.bench_with_input(
        BenchmarkId::new("reference", "backward_src"),
        &(),
        |bch, _| {
            bch.iter(|| {
                black_box(spmm_backward_src_reference(
                    &b,
                    black_box(&g),
                    Some(&att),
                    heads,
                    Agg::Sum,
                ))
                .rows()
            });
        },
    );
    group.finish();

    let soft = edge_softmax_reference(&b, &att);
    let mut group = c.benchmark_group("edge_softmax");
    group.sample_size(15);
    for (name, level) in simd_levels() {
        group.bench_with_input(BenchmarkId::new(name, "forward"), &(), |bch, _| {
            bch.iter(|| {
                edge_softmax_into_with(level, &b, black_box(&att), &mut out);
                black_box(out.rows())
            });
        });
        group.bench_with_input(BenchmarkId::new(name, "backward"), &(), |bch, _| {
            bch.iter(|| {
                edge_softmax_backward_into_with(level, &b, black_box(&soft), &up, &mut out);
                black_box(out.rows())
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("reference", "forward"), &(), |bch, _| {
        bch.iter(|| black_box(edge_softmax_reference(&b, black_box(&att))).rows());
    });
    group.bench_with_input(BenchmarkId::new("reference", "backward"), &(), |bch, _| {
        bch.iter(|| black_box(edge_softmax_backward_reference(&b, black_box(&soft), &up)).rows());
    });
    group.finish();
}

criterion_group!(benches, bench_spmm, bench_gat_kernels);
criterion_main!(benches);

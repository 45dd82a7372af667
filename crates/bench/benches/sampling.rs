//! Ablation: Algorithm 1 (path-doubling sampling without replacement) vs
//! the host kernel that equals it (`sample_small`, sequential Fisher–Yates
//! over the same draws) and the rejection-sampling baseline (§III-C1), plus
//! the mini-batch hot path: the old-API shape (per-node neighbor copies,
//! Vec-of-Vecs, serial flatten) vs the zero-copy scratch-arena path with
//! fused AppendUnique insertion — on a sparse uniform graph and on the
//! power-law products stand-in at 1/94 (paper fanout 30/30/30, batch 1024:
//! every batch samples the 25k-node graph ~15 times over).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wg_graph::{gen, DatasetKind, DegreeProfile, MultiGpuGraph, SyntheticDataset};
use wg_sample::wrs::{
    rejection_sample, sample_small, sample_without_replacement, PathDoublingSampler,
    STACK_FANOUT_MAX,
};
use wg_sample::{
    sample_minibatch_into, sample_minibatch_reference, GraphAccess, HostGraphAccess, MiniBatch,
    MultiGpuAccess, SampleScratch, SamplerConfig,
};

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_without_replacement");
    group.sample_size(20);
    // The paper's shape: fanout 30 out of various neighbor counts (both
    // sides of `sample_small`'s dense/sparse split at n = 256), the stack
    // bound 64, plus stress shapes where m approaches n (rejection's worst
    // case).
    for (m, n) in [
        (30usize, 31usize),
        (30, 100),
        (30, 10_000),
        (64, 128),
        (256, 512),
        (900, 1000),
    ] {
        if m <= STACK_FANOUT_MAX {
            group.bench_with_input(
                BenchmarkId::new("host_fisher_yates", format!("{m}of{n}")),
                &(m, n),
                |b, &(m, n)| {
                    let mut rng = SmallRng::seed_from_u64(1);
                    let mut out = [0u32; STACK_FANOUT_MAX];
                    b.iter(|| {
                        sample_small(black_box(m), black_box(n), &mut rng, &mut out[..m]);
                        black_box(out[0])
                    });
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("path_doubling", format!("{m}of{n}")),
            &(m, n),
            |b, &(m, n)| {
                let mut rng = SmallRng::seed_from_u64(1);
                let mut sampler = PathDoublingSampler::new();
                let mut out = Vec::with_capacity(m);
                b.iter(|| {
                    out.clear();
                    sampler.sample(black_box(m), black_box(n), &mut rng, &mut out);
                    black_box(out.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rejection", format!("{m}of{n}")),
            &(m, n),
            |b, &(m, n)| {
                let mut rng = SmallRng::seed_from_u64(1);
                b.iter(|| black_box(rejection_sample(black_box(m), black_box(n), &mut rng)).len());
            },
        );
    }
    group.finish();

    // One-shot helper overhead.
    c.bench_function("sample_30_of_1000_oneshot", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| black_box(sample_without_replacement(30, 1000, &mut rng)).len());
    });
}

fn bench_minibatch(c: &mut Criterion) {
    let machine = wg_sim::Machine::dgx_a100();

    let graph = gen::erdos_renyi(10_000, 15.0, 9);
    let features = vec![0.0f32; graph.num_nodes()];
    let host = wg_graph::HostGraph::build(graph, features, 1, &machine.memory()).unwrap();
    let cfg = SamplerConfig {
        fanouts: vec![15, 10, 5],
        seed: 7,
    };
    minibatch_rows(c, "sample_minibatch", &HostGraphAccess(&host), &cfg);

    let ds = SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        94,
        11,
        DegreeProfile::PowerLaw { alpha: 1.05 },
    );
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &ds.graph,
        &ds.features,
        ds.feature_dim,
        &machine.memory(),
    )
    .unwrap();
    let cfg = SamplerConfig {
        fanouts: vec![30, 30, 30],
        seed: 11,
    };
    minibatch_rows(
        c,
        "sample_minibatch_powerlaw_1_94",
        &MultiGpuAccess::new(&store),
        &cfg,
    );
}

/// The reference and scratch-arena rows for a batch of nodes `0..1024`.
fn minibatch_rows<G: GraphAccess>(c: &mut Criterion, name: &str, access: &G, cfg: &SamplerConfig) {
    let handles: Vec<u64> = (0..1024u64).map(|v| access.handle_of(v)).collect();
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("old_api_copy", |b| {
        b.iter(|| {
            let (mb, _) = sample_minibatch_reference(access, black_box(&handles), cfg, 0, 0);
            black_box(mb.blocks.len())
        })
    });
    group.bench_function("zero_copy_scratch", |b| {
        let mut scratch = SampleScratch::default();
        let mut mb = MiniBatch::empty();
        b.iter(|| {
            sample_minibatch_into(
                access,
                black_box(&handles),
                cfg,
                0,
                0,
                &mut scratch,
                &mut mb,
            );
            black_box(mb.blocks.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_minibatch);
criterion_main!(benches);

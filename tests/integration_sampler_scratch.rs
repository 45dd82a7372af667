//! Scratch-arena sampler equivalence: the allocation-free hot path
//! (`sample_minibatch_into` with a reused [`SampleScratch`] and recycled
//! [`MiniBatch`]) must produce **bit-identical** mini-batches to the
//! pre-refactor reference path (`sample_minibatch_reference`: per-node
//! neighbor copies, Vec-of-Vecs, serial flatten) — on both stores, across
//! reused batches and epochs, under the sequential reference schedule,
//! through the heap fall-back for fanouts beyond the stack-sampler bound,
//! and on either side of the universe bound (a batch that samples the
//! graph's nodes several times over sizes its hash table by the node count,
//! one that does not sizes it by the keys it samples).

use proptest::prelude::*;
use wg_graph::{gen, Csr, HostGraph, MultiGpuGraph};
use wg_sample::{
    sample_minibatch, sample_minibatch_into, sample_minibatch_reference, GraphAccess,
    HostGraphAccess, MiniBatch, MultiGpuAccess, SampleScratch, SamplerConfig, STACK_FANOUT_MAX,
};
use wg_sim::Machine;

fn assert_minibatch_eq(a: &MiniBatch, b: &MiniBatch, what: &str) {
    assert_eq!(a.frontiers, b.frontiers, "{what}: frontiers");
    assert_eq!(a.blocks.len(), b.blocks.len(), "{what}: block count");
    for (l, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        assert_eq!(x.num_dst, y.num_dst, "{what}: block {l} num_dst");
        assert_eq!(x.num_src, y.num_src, "{what}: block {l} num_src");
        assert_eq!(x.offsets, y.offsets, "{what}: block {l} offsets");
        assert_eq!(x.indices, y.indices, "{what}: block {l} indices");
        assert_eq!(x.dup_count, y.dup_count, "{what}: block {l} dup_count");
    }
}

/// Exercise the scratch path against the reference on one access backend:
/// fresh-wrapper parity, then scratch + mini-batch reuse across several
/// (epoch, batch) points, then the same comparison pinned to the
/// sequential reference schedule.
fn check_backend<G: GraphAccess + Sync>(access: &G, handles: &[u64], cfg: &SamplerConfig) -> u64 {
    let mut keys_inserted = 0;
    let mut scratch = SampleScratch::default();
    let mut mb = MiniBatch::empty();
    // Reuse the same scratch and mini-batch across epochs and batches —
    // every round must still match a from-scratch reference run.
    for &(epoch, batch_idx) in &[(0u64, 0u64), (0, 1), (3, 2), (0, 0)] {
        let (reference, ref_stats) =
            sample_minibatch_reference(access, handles, cfg, epoch, batch_idx);
        let stats = sample_minibatch_into(
            access,
            handles,
            cfg,
            epoch,
            batch_idx,
            &mut scratch,
            &mut mb,
        );
        assert_minibatch_eq(&mb, &reference, &format!("epoch {epoch} batch {batch_idx}"));
        assert_eq!(stats.edges_sampled, ref_stats.edges_sampled);
        assert_eq!(stats.keys_inserted, ref_stats.keys_inserted);
        keys_inserted = stats.keys_inserted;

        // The convenience wrapper (fresh buffers) agrees too.
        let (fresh, _) = sample_minibatch(access, handles, cfg, epoch, batch_idx);
        assert_minibatch_eq(&fresh, &reference, "fresh wrapper");

        // And the sequential reference schedule produces the same bits as
        // the pool schedule above.
        let seq = rayon::run_sequential(|| {
            let mut s = SampleScratch::default();
            let mut m = MiniBatch::empty();
            sample_minibatch_into(access, handles, cfg, epoch, batch_idx, &mut s, &mut m);
            m
        });
        assert_minibatch_eq(&seq, &reference, "sequential schedule");
    }
    keys_inserted
}

/// [`check_backend`] on both stores of `graph` for the batch `0..batch`;
/// returns the keys one mini-batch inserts (equal across stores).
fn check_both_stores(graph: Csr, batch: u64, cfg: &SamplerConfig) -> u64 {
    let features = vec![0.0f32; graph.num_nodes()];
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &graph,
        &features,
        1,
        &machine.memory(),
    )
    .unwrap();
    let access = MultiGpuAccess::new(&store);
    assert_eq!(access.num_nodes(), graph.num_nodes());
    let handles: Vec<u64> = (0..batch).map(|v| access.handle_of(v)).collect();
    let keys = check_backend(&access, &handles, cfg);

    let host = HostGraph::build(graph, features, 1, &machine.memory()).unwrap();
    let access = HostGraphAccess(&host);
    let handles: Vec<u64> = (0..batch).map(|v| access.handle_of(v)).collect();
    assert_eq!(check_backend(&access, &handles, cfg), keys);
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The universe-bounded regime: a small power-law graph sampled 3 hops
    /// deep inserts several times more keys than the graph has nodes, so
    /// the hash table is sized by `num_nodes`, far below the key count.
    #[test]
    fn fused_sampler_matches_reference_when_keys_exceed_the_universe(
        n in 60usize..300,
        avg_degree in 16.0f64..40.0,
        fanout in 6usize..12,
        seed in 0u64..1_000_000,
    ) {
        let (graph, _) = gen::sbm_powerlaw(n, 4, avg_degree, 0.6, 1.05, seed);
        let cfg = SamplerConfig { fanouts: vec![fanout; 3], seed };
        let keys = check_both_stores(graph, (n / 3) as u64, &cfg);
        prop_assert!(keys > 3 * n as u64, "{keys} keys over {n} nodes is not universe-bounded");
    }

    /// The other side: a large sparse graph and a small batch sample far
    /// fewer keys than there are nodes, so the key count sizes the table.
    #[test]
    fn fused_sampler_matches_reference_when_keys_fit_the_universe(
        n in 2_000usize..4_000,
        batch in 4u64..24,
        seed in 0u64..1_000_000,
    ) {
        let graph = gen::erdos_renyi(n, 6.0, seed);
        let cfg = SamplerConfig { fanouts: vec![3, 2], seed };
        let keys = check_both_stores(graph, batch, &cfg);
        prop_assert!(keys < n as u64 / 4, "{keys} keys over {n} nodes");
    }
}

#[test]
fn scratch_sampler_matches_reference_on_both_stores() {
    let graph = gen::erdos_renyi(400, 12.0, 7);
    let feature_dim = 2;
    let features: Vec<f32> = (0..graph.num_nodes() * feature_dim)
        .map(|i| (i as f32 * 0.05).sin())
        .collect();
    let cfg = SamplerConfig {
        fanouts: vec![10, 5],
        seed: 23,
    };

    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &graph,
        &features,
        feature_dim,
        &machine.memory(),
    )
    .unwrap();
    let access = MultiGpuAccess::new(&store);
    let handles: Vec<u64> = (0..120u64)
        .step_by(3)
        .map(|v| access.handle_of(v))
        .collect();
    check_backend(&access, &handles, &cfg);

    let host = HostGraph::build(graph, features, feature_dim, &machine.memory()).unwrap();
    let access = HostGraphAccess(&host);
    let handles: Vec<u64> = (0..120u64)
        .step_by(3)
        .map(|v| access.handle_of(v))
        .collect();
    check_backend(&access, &handles, &cfg);
}

#[test]
fn scratch_sampler_matches_reference_beyond_stack_fanout() {
    // A dense graph and a fanout above STACK_FANOUT_MAX drive the per-node
    // sampler through the heap fall-back; equivalence must still hold.
    let graph = gen::erdos_renyi(200, 80.0, 31);
    let feature_dim = 1;
    let features: Vec<f32> = vec![0.5; graph.num_nodes() * feature_dim];
    let big = STACK_FANOUT_MAX + 6;
    let cfg = SamplerConfig {
        fanouts: vec![big, 12],
        seed: 91,
    };
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &graph,
        &features,
        feature_dim,
        &machine.memory(),
    )
    .unwrap();
    let access = MultiGpuAccess::new(&store);
    let handles: Vec<u64> = (0..64u64).map(|v| access.handle_of(v)).collect();
    // At least one frontier node must actually exceed the stack bound.
    assert!(
        handles.iter().any(|&h| access.degree(h) > STACK_FANOUT_MAX),
        "test graph too sparse to exercise the heap fall-back"
    );
    check_backend(&access, &handles, &cfg);
}

#[test]
fn zero_copy_adjacency_matches_copied_neighbors() {
    // GraphAccess::neighbors (borrowed CSR slice) and the old
    // neighbors_into (copy into a caller Vec) must expose identical
    // adjacency on both backends.
    let graph = gen::erdos_renyi(150, 8.0, 3);
    let features: Vec<f32> = vec![0.0; 150];
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &graph,
        &features,
        1,
        &machine.memory(),
    )
    .unwrap();
    let access = MultiGpuAccess::new(&store);
    let host = HostGraph::build(graph.clone(), features, 1, &machine.memory()).unwrap();
    let host_access = HostGraphAccess(&host);
    for v in 0..150u64 {
        let h = access.handle_of(v);
        let mut copied = Vec::new();
        access.neighbors_into(h, &mut copied);
        assert_eq!(access.neighbors(h), &copied[..], "dsm node {v}");
        assert_eq!(access.degree(h), copied.len());
        let hh = host_access.handle_of(v);
        assert_eq!(
            host_access.neighbors(hh),
            graph.neighbors(v),
            "host node {v}"
        );
    }
}

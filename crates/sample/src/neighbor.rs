//! Multi-layer neighbor sampling and sub-graph construction.
//!
//! One GNN mini-batch needs, per layer, a random `fanout`-neighbor sample
//! for every frontier node, deduplicated by AppendUnique, and a CSR
//! sub-graph whose column space is the next frontier. "Multi-layer
//! sub-graph sampling can be done by simply stacking multiple single-layer
//! sub-graph sampling" (§III-C2).
//!
//! Sampling and deduplication are **fused** ([`sample_minibatch_into`]):
//! each neighbor enters the AppendUnique table the moment it is drawn, at
//! its CSR position, and its slot goes straight into the block's `indices`,
//! which `finish` rewrites in place to sub-graph IDs — there is no
//! pre-dedup neighbor list. The table is sized for `min(sampled keys,
//! graph nodes)`: a batch cannot hold more distinct handles than that.
//!
//! The algorithm is written once against the [`GraphAccess`] trait and runs
//! over either store:
//!
//! * [`MultiGpuAccess`] — WholeGraph's distributed store (handles are
//!   packed GlobalIds; neighbor reads hit peer GPU memory);
//! * [`HostGraphAccess`] — the DGL/PyG host-memory CSR (handles are plain
//!   node ids).
//!
//! Per-node RNG streams are seeded from the node's *stable* (original) id,
//! so both stores sample exactly the same sub-graph for the same seed —
//! the property the equivalence tests (and the paper's Table III accuracy
//! parity) rest on.
//!
//! Simulated cost is charged per backend through [`SamplerBackend`]:
//! WholeGraph samples on the GPU with the fused Algorithm-1 kernel; DGL
//! uses a parallel C++ CPU sampler; PyG's sampler carries Python-loop
//! overhead (§IV-C2 observes PyG epochs are several times DGL's).

use rayon::prelude::*;

use wg_graph::{GlobalId, HostGraph, MultiGpuGraph, NodeId};
use wg_sim::device::DeviceSpec;
use wg_sim::{CostModel, SimTime};

use crate::append_unique::{append_unique, AppendUniqueResult, AppendUniqueScratch};
use crate::wrs::{sample_small, PathDoublingSampler, STACK_FANOUT_MAX};

/// Uniform view of a graph store for the sampler.
pub trait GraphAccess: Sync {
    /// Number of nodes in the store — the key universe: an upper bound on
    /// the distinct handles any mini-batch can contain.
    fn num_nodes(&self) -> usize;
    /// Out-degree of the node behind `handle`.
    fn degree(&self, handle: u64) -> usize;
    /// Borrowed neighbor handles of the node (in storage order). Zero-copy:
    /// the slice aliases the store's CSR, so sampling `m` of `deg`
    /// neighbors never materializes the `deg`-entry list.
    fn neighbors(&self, handle: u64) -> &[u64];
    /// Append the node's neighbor handles to `out` (copying convenience).
    fn neighbors_into(&self, handle: u64, out: &mut Vec<u64>) {
        out.extend_from_slice(self.neighbors(handle));
    }
    /// A store-independent id (the original dataset node id) used to seed
    /// per-node RNG streams identically across stores.
    fn stable_id(&self, handle: u64) -> u64;
    /// Handle of a dataset node id.
    fn handle_of(&self, v: NodeId) -> u64;
}

/// Sampler view of [`MultiGpuGraph`]: handles are raw GlobalIds, and
/// degree/neighbor lookups are plain indexed loads into the store's
/// regions, with no locking or copying.
pub struct MultiGpuAccess<'a> {
    graph: &'a MultiGpuGraph,
}

impl<'a> MultiGpuAccess<'a> {
    /// The access view over `graph`.
    pub fn new(graph: &'a MultiGpuGraph) -> Self {
        MultiGpuAccess { graph }
    }
}

impl GraphAccess for MultiGpuAccess<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
    fn degree(&self, handle: u64) -> usize {
        self.graph.degree_of_global(GlobalId::from_raw(handle))
    }
    fn neighbors(&self, handle: u64) -> &[u64] {
        self.graph.neighbors(GlobalId::from_raw(handle))
    }
    fn stable_id(&self, handle: u64) -> u64 {
        self.graph.partition().node_of(GlobalId::from_raw(handle))
    }
    fn handle_of(&self, v: NodeId) -> u64 {
        self.graph.partition().global_id(v).raw()
    }
}

/// Sampler view of [`HostGraph`]: handles are the node ids themselves.
pub struct HostGraphAccess<'a>(pub &'a HostGraph);

impl GraphAccess for HostGraphAccess<'_> {
    fn num_nodes(&self) -> usize {
        self.0.csr().num_nodes()
    }
    fn degree(&self, handle: u64) -> usize {
        self.0.csr().degree(handle)
    }
    fn neighbors(&self, handle: u64) -> &[u64] {
        self.0.csr().neighbors(handle)
    }
    fn stable_id(&self, handle: u64) -> u64 {
        handle
    }
    fn handle_of(&self, v: NodeId) -> u64 {
        v
    }
}

/// One sampled layer: a bipartite block mapping `num_src` source nodes to
/// `num_dst` destination nodes (the dst nodes are the first `num_dst`
/// entries of the source space — AppendUnique's targets-first property).
#[derive(Clone, Debug)]
pub struct SampleBlock {
    /// Destination (target) node count.
    pub num_dst: usize,
    /// Source node count (targets + unique sampled neighbors).
    pub num_src: usize,
    /// CSR offsets over dst nodes (`num_dst + 1` entries).
    pub offsets: Vec<u32>,
    /// CSR column indices into the source space.
    pub indices: Vec<u32>,
    /// Per-source-node duplicate count from AppendUnique (how many times
    /// the node was sampled as a neighbor in this layer).
    pub dup_count: Vec<u32>,
}

impl SampleBlock {
    /// Number of sampled edges in the block.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }
}

/// A fully sampled mini-batch.
#[derive(Clone, Debug, Default)]
pub struct MiniBatch {
    /// Per hop, outermost (dst = the training batch) first. The model
    /// consumes them in reverse: the **last** block feeds the first GNN
    /// layer.
    pub blocks: Vec<SampleBlock>,
    /// Node frontiers: `frontiers[0]` is the training batch;
    /// `frontiers[l+1]` is the source space of `blocks[l]` (targets first —
    /// `frontiers[l]` is always a prefix of `frontiers[l+1]`).
    pub frontiers: Vec<Vec<u64>>,
}

impl MiniBatch {
    /// An empty mini-batch shell for [`sample_minibatch_into`] to fill
    /// (and refill: recycled shells keep their buffer capacities).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Node handles whose features must be gathered: the source space of
    /// the deepest block.
    pub fn input_nodes(&self) -> &[u64] {
        self.frontiers.last().expect("mini-batch has no frontiers")
    }
}

/// Work counters for one sampling invocation (feed the cost model).
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleStats {
    /// Total neighbors sampled across all layers (pre-dedup).
    pub edges_sampled: u64,
    /// Total keys inserted into AppendUnique tables.
    pub keys_inserted: u64,
    /// Kernel launches (sampling + unique per layer on the GPU path).
    pub kernels: u32,
}

/// Sampler configuration.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Per-layer fanout, outermost hop first (the paper uses 30,30,30).
    pub fanouts: Vec<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

/// Which system executes sampling — decides the simulated cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SamplerBackend {
    /// WholeGraph's fused GPU sampler (Algorithm 1 + hash AppendUnique).
    WholeGraphGpu,
    /// DGL-0.7-class parallel C++ CPU sampler.
    DglCpu,
    /// PyG-2.0-class sampler with Python-side overhead.
    PygCpu,
}

impl SamplerBackend {
    /// Simulated duration of a sampling invocation with the given work
    /// counters.
    pub fn sample_time(self, model: &CostModel, gpu: &DeviceSpec, stats: SampleStats) -> SimTime {
        match self {
            SamplerBackend::WholeGraphGpu => SimTime::from_secs(
                gpu.kernel_launch_overhead_s * stats.kernels as f64
                    + stats.edges_sampled as f64 / model.gpu_sample_edges_per_s
                    + stats.keys_inserted as f64 / model.gpu_unique_keys_per_s,
            ),
            SamplerBackend::DglCpu => {
                SimTime::from_secs(stats.edges_sampled as f64 / model.cpu_sample_edges_per_s)
            }
            SamplerBackend::PygCpu => {
                SimTime::from_secs(stats.edges_sampled as f64 / model.pyg_sample_edges_per_s)
            }
        }
    }
}

/// Mix a per-node RNG seed from the global seed and sampling coordinates.
#[inline]
fn node_seed(base: u64, epoch: u64, batch: u64, layer: usize, stable: u64) -> u64 {
    wg_graph::partition::mix64(
        base ^ epoch.rotate_left(17)
            ^ batch.rotate_left(31)
            ^ (layer as u64).rotate_left(47)
            ^ stable,
    )
}

/// Reusable working storage for [`sample_minibatch_into`]: the AppendUnique
/// scratch. With warm buffers (and fanouts within [`STACK_FANOUT_MAX`]) a
/// whole mini-batch samples without a single heap allocation.
#[derive(Default)]
pub struct SampleScratch {
    au: AppendUniqueScratch,
}

/// Per-node grain for the cheap degree/count pass.
const COUNT_GRAIN: usize = 64;
/// Per-node grain for the sampling pass (~`fanout` RNG draws + writes per
/// node; a handful of nodes amortizes the fork overhead without starving
/// the pool on kilonode frontiers).
const SAMPLE_GRAIN: usize = 8;

/// Sample a mini-batch: one [`SampleBlock`] per fanout, each built by
/// parallel per-node Algorithm-1 sampling plus AppendUnique.
///
/// Convenience wrapper over [`sample_minibatch_into`] with fresh buffers;
/// hot paths should hold a [`SampleScratch`] + recycled [`MiniBatch`] and
/// call the `_into` form directly.
pub fn sample_minibatch<G: GraphAccess>(
    graph: &G,
    batch_handles: &[u64],
    cfg: &SamplerConfig,
    epoch: u64,
    batch_idx: u64,
) -> (MiniBatch, SampleStats) {
    let mut scratch = SampleScratch::default();
    let mut mb = MiniBatch::empty();
    let stats = sample_minibatch_into(
        graph,
        batch_handles,
        cfg,
        epoch,
        batch_idx,
        &mut scratch,
        &mut mb,
    );
    (mb, stats)
}

/// Allocation-free mini-batch sampling into recycled buffers.
///
/// Two passes per layer: a parallel count pass computes exact CSR offsets
/// from per-node degrees, then a parallel pass samples each node through
/// its disjoint `[offsets[i], offsets[i+1])` range, inserting every drawn
/// neighbor into the AppendUnique table at its CSR position and writing its
/// slot straight into the block. Neighbor lists are borrowed
/// from the store ([`GraphAccess::neighbors`]) and per-node index sets come
/// from the stack sampler — so once `scratch` and `out` are warm (steady
/// state: batch shapes repeat), no heap allocation occurs. Output is
/// bit-identical to [`sample_minibatch_reference`] at any thread count: RNG
/// streams are seeded per node from stable ids, every write is positional,
/// and sub-graph IDs follow first-occurrence CSR positions.
pub fn sample_minibatch_into<G: GraphAccess>(
    graph: &G,
    batch_handles: &[u64],
    cfg: &SamplerConfig,
    epoch: u64,
    batch_idx: u64,
    scratch: &mut SampleScratch,
    out: &mut MiniBatch,
) -> SampleStats {
    use rand::SeedableRng;
    let _span = wg_trace::span!("sample.minibatch");
    let mut stats = SampleStats::default();
    let num_layers = cfg.fanouts.len();
    out.blocks.truncate(num_layers);
    out.blocks.resize_with(num_layers, || SampleBlock {
        num_dst: 0,
        num_src: 0,
        offsets: Vec::new(),
        indices: Vec::new(),
        dup_count: Vec::new(),
    });
    out.frontiers.truncate(num_layers + 1);
    out.frontiers.resize_with(num_layers + 1, Vec::new);
    out.frontiers[0].clear();
    out.frontiers[0].extend_from_slice(batch_handles);

    for (layer, &fanout) in cfg.fanouts.iter().enumerate() {
        // Split so the current frontier stays readable while the next one
        // is written (the layer's AppendUnique output).
        let (done, rest) = out.frontiers.split_at_mut(layer + 1);
        let frontier: &[u64] = &done[layer];
        let next = &mut rest[0];
        let block = &mut out.blocks[layer];
        let n = frontier.len();

        // Pass 1: exact per-node sample counts, scanned into CSR offsets.
        block.offsets.clear();
        block.offsets.resize(n + 1, 0);
        block.offsets[1..]
            .par_iter_mut()
            .zip(frontier.par_iter())
            .with_min_len(COUNT_GRAIN)
            .for_each(|(c, &t)| *c = fanout.min(graph.degree(t)) as u32);
        let mut acc = 0u32;
        for c in block.offsets[1..].iter_mut() {
            acc += *c;
            *c = acc;
        }
        let total = acc as usize;

        // Pass 2: per-node sampling ("M threads in the thread block ...
        // grouped together to generate the sampled neighbors for one
        // target node"), each neighbor inserted as it is drawn. The
        // buffer is overwritten whole, so stale contents need no clearing.
        scratch
            .au
            .begin(frontier, (n + total).min(graph.num_nodes()));
        block.indices.resize(total, 0);
        {
            let offsets = &block.offsets;
            let au = &scratch.au;
            frontier
                .par_iter()
                .zip(block.indices.par_ranges_mut(offsets, 1))
                .enumerate()
                .with_min_len(SAMPLE_GRAIN)
                .for_each(|(i, (&t, out))| {
                    let lo = offsets[i] as usize;
                    let m = out.len();
                    if m == 0 {
                        return;
                    }
                    let nbrs = graph.neighbors(t);
                    let deg = nbrs.len();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(node_seed(
                        cfg.seed,
                        epoch,
                        batch_idx,
                        layer,
                        graph.stable_id(t),
                    ));
                    let mut write_all = |idx: &[u32]| {
                        for (k, (o, &j)) in out.iter_mut().zip(idx).enumerate() {
                            *o = au.insert(lo + k, nbrs[j as usize]);
                        }
                    };
                    if m <= STACK_FANOUT_MAX {
                        let mut idx = [0u32; STACK_FANOUT_MAX];
                        sample_small(m, deg, &mut rng, &mut idx[..m]);
                        write_all(&idx[..m]);
                    } else {
                        // Fanouts beyond the stack bound fall back to the
                        // heap sampler (allocates; off the paper's
                        // fanout-30 hot path). Same draws, same output.
                        let mut idx = Vec::with_capacity(m);
                        PathDoublingSampler::new().sample(m, deg, &mut rng, &mut idx);
                        write_all(&idx);
                    }
                });
        }
        stats.edges_sampled += total as u64;
        stats.keys_inserted += (n + total) as u64;
        stats.kernels += 2; // sample kernel + append-unique kernel

        scratch
            .au
            .finish(frontier, &mut block.indices, next, &mut block.dup_count);
        block.num_dst = n;
        block.num_src = next.len();
    }
    record_sample_metrics(&stats, out);
    stats
}

/// Edges-per-minibatch histogram bounds (toy batches sample thousands of
/// edges; paper-shaped fanout-30×3 batches sample hundreds of thousands).
const EDGES_BUCKETS: [f64; 7] = [1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6];

/// Accrue one mini-batch's sampling work into the `sample.*` metrics.
/// One atomic-load probe when metrics are disabled.
fn record_sample_metrics(stats: &SampleStats, out: &MiniBatch) {
    if !wg_trace::metrics_enabled() {
        return;
    }
    wg_trace::counter!("sample.minibatches", 1.0);
    wg_trace::counter!("sample.edges_sampled", stats.edges_sampled as f64);
    wg_trace::counter!("sample.keys_inserted", stats.keys_inserted as f64);
    wg_trace::counter!("sample.kernels", stats.kernels as f64);
    wg_trace::counter!("sample.input_nodes", out.input_nodes().len() as f64);
    wg_trace::histogram!(
        "sample.edges_per_minibatch",
        &EDGES_BUCKETS,
        stats.edges_sampled as f64
    );
}

/// The pre-refactor sampling path, kept as the equivalence oracle for
/// [`sample_minibatch_into`] (and as the old-API shape — per-node neighbor
/// copies, Vec-of-Vecs, serial flatten — that the benches compare against).
pub fn sample_minibatch_reference<G: GraphAccess>(
    graph: &G,
    batch_handles: &[u64],
    cfg: &SamplerConfig,
    epoch: u64,
    batch_idx: u64,
) -> (MiniBatch, SampleStats) {
    use rand::SeedableRng;
    let mut stats = SampleStats::default();
    let mut frontiers = vec![batch_handles.to_vec()];
    let mut blocks = Vec::with_capacity(cfg.fanouts.len());

    for (layer, &fanout) in cfg.fanouts.iter().enumerate() {
        let frontier = frontiers.last().expect("frontier exists");
        let sampled: Vec<Vec<u64>> = frontier
            .par_iter()
            .map(|&t| {
                let deg = graph.degree(t);
                if deg == 0 {
                    return Vec::new();
                }
                let m = fanout.min(deg);
                let mut nbrs = Vec::with_capacity(deg);
                graph.neighbors_into(t, &mut nbrs);
                let mut rng = rand::rngs::SmallRng::seed_from_u64(node_seed(
                    cfg.seed,
                    epoch,
                    batch_idx,
                    layer,
                    graph.stable_id(t),
                ));
                let mut idx = Vec::with_capacity(m);
                PathDoublingSampler::new().sample(m, deg, &mut rng, &mut idx);
                idx.into_iter().map(|i| nbrs[i as usize]).collect()
            })
            .collect();

        // Flatten with CSR offsets over the frontier.
        let mut offsets = Vec::with_capacity(frontier.len() + 1);
        offsets.push(0u32);
        let mut flat: Vec<u64> = Vec::new();
        for s in &sampled {
            flat.extend_from_slice(s);
            offsets.push(flat.len() as u32);
        }
        stats.edges_sampled += flat.len() as u64;
        stats.keys_inserted += (frontier.len() + flat.len()) as u64;
        stats.kernels += 2; // sample kernel + append-unique kernel

        let au = append_unique(frontier, &flat);
        let AppendUniqueResult {
            unique,
            num_targets: _,
            neighbor_ids,
            dup_count,
        } = au;
        blocks.push(SampleBlock {
            num_dst: frontier.len(),
            num_src: unique.len(),
            offsets,
            indices: neighbor_ids,
            dup_count,
        });
        frontiers.push(unique);
    }

    (MiniBatch { frontiers, blocks }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wg_graph::gen;
    use wg_sim::memory::MemoryAccounting;
    use wg_sim::DeviceId;

    fn stores() -> (MultiGpuGraph, HostGraph) {
        let g = gen::erdos_renyi(400, 12.0, 21);
        let features = vec![0.0f32; 400 * 4];
        let model = CostModel::dgx_a100();
        let mut devs: Vec<(DeviceId, u64)> = (0..8).map(|r| (DeviceId::Gpu(r), 1 << 30)).collect();
        devs.push((DeviceId::Cpu, 1 << 33));
        let acct = MemoryAccounting::new(devs);
        let mg = MultiGpuGraph::build(&model, 8, &g, &features, 4, &acct).unwrap();
        let host = HostGraph::build(g, features, 4, &acct).unwrap();
        (mg, host)
    }

    #[test]
    fn blocks_have_consistent_shapes() {
        let (mg, _) = stores();
        let access = MultiGpuAccess::new(&mg);
        let cfg = SamplerConfig {
            fanouts: vec![5, 3],
            seed: 7,
        };
        let batch: Vec<u64> = (0..32u64).map(|v| access.handle_of(v)).collect();
        let (mb, stats) = sample_minibatch(&access, &batch, &cfg, 0, 0);
        assert_eq!(mb.blocks.len(), 2);
        assert_eq!(mb.frontiers[0].len(), 32);
        let mut dst = 32;
        for (i, b) in mb.blocks.iter().enumerate() {
            assert_eq!(b.num_dst, dst, "layer {i}");
            assert!(b.num_src >= b.num_dst, "src space includes targets");
            assert_eq!(b.offsets.len(), b.num_dst + 1);
            assert_eq!(*b.offsets.last().unwrap() as usize, b.indices.len());
            assert!(b.indices.iter().all(|&c| (c as usize) < b.num_src));
            assert_eq!(b.dup_count.len(), b.num_src);
            dst = b.num_src;
        }
        assert_eq!(mb.input_nodes().len(), dst);
        // Frontier l is a prefix of frontier l+1 (targets-first reuse).
        for w in mb.frontiers.windows(2) {
            assert_eq!(&w[1][..w[0].len()], &w[0][..]);
        }
        assert!(stats.edges_sampled > 0);
        assert_eq!(stats.kernels, 4);
    }

    #[test]
    fn fanout_caps_neighbor_count() {
        let (mg, _) = stores();
        let access = MultiGpuAccess::new(&mg);
        let cfg = SamplerConfig {
            fanouts: vec![4],
            seed: 3,
        };
        let batch: Vec<u64> = (0..64u64).map(|v| access.handle_of(v)).collect();
        let (mb, _) = sample_minibatch(&access, &batch, &cfg, 0, 0);
        let b = &mb.blocks[0];
        for i in 0..b.num_dst {
            let deg = b.offsets[i + 1] - b.offsets[i];
            assert!(deg <= 4, "dst {i} has {deg} sampled neighbors");
            // Sampling is without replacement over adjacency *positions*;
            // parallel edges may still map two positions to one node, so
            // columns need not be distinct — but they can never exceed the
            // fanout.
            let cols: HashSet<u32> = b.indices[b.offsets[i] as usize..b.offsets[i + 1] as usize]
                .iter()
                .copied()
                .collect();
            assert!(!cols.is_empty() || deg == 0);
        }
    }

    #[test]
    fn sampled_neighbors_are_real_neighbors() {
        let (mg, _) = stores();
        let access = MultiGpuAccess::new(&mg);
        let cfg = SamplerConfig {
            fanouts: vec![6],
            seed: 11,
        };
        let batch: Vec<u64> = (100..130u64).map(|v| access.handle_of(v)).collect();
        let (mb, _) = sample_minibatch(&access, &batch, &cfg, 1, 2);
        let b = &mb.blocks[0];
        for (i, &t) in batch.iter().enumerate() {
            let mut true_nbrs = Vec::new();
            access.neighbors_into(t, &mut true_nbrs);
            let true_set: HashSet<u64> = true_nbrs.into_iter().collect();
            for &c in &b.indices[b.offsets[i] as usize..b.offsets[i + 1] as usize] {
                let handle = mb.frontiers[1][c as usize];
                assert!(
                    true_set.contains(&handle),
                    "dst {i}: {handle} not a neighbor"
                );
            }
        }
    }

    /// Canonical edge multiset of one block in stable-id space:
    /// sorted (dst_stable, src_stable) pairs.
    #[allow(clippy::needless_range_loop)]
    fn canonical_edges<G: GraphAccess>(mb: &MiniBatch, layer: usize, g: &G) -> Vec<(u64, u64)> {
        let b = &mb.blocks[layer];
        let dsts = &mb.frontiers[layer];
        let srcs = &mb.frontiers[layer + 1];
        let mut out = Vec::with_capacity(b.num_edges());
        for i in 0..b.num_dst {
            for &c in &b.indices[b.offsets[i] as usize..b.offsets[i + 1] as usize] {
                out.push((g.stable_id(dsts[i]), g.stable_id(srcs[c as usize])));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn both_stores_sample_identical_subgraphs() {
        let (mg, host) = stores();
        let a = MultiGpuAccess::new(&mg);
        let h = HostGraphAccess(&host);
        let cfg = SamplerConfig {
            fanouts: vec![5, 4],
            seed: 77,
        };
        let nodes: Vec<NodeId> = (0..40u64).collect();
        let batch_a: Vec<u64> = nodes.iter().map(|&v| a.handle_of(v)).collect();
        let batch_h: Vec<u64> = nodes.iter().map(|&v| h.handle_of(v)).collect();
        let (mba, sa) = sample_minibatch(&a, &batch_a, &cfg, 3, 9);
        let (mbh, sh) = sample_minibatch(&h, &batch_h, &cfg, 3, 9);
        assert_eq!(sa.edges_sampled, sh.edges_sampled);
        // Input node sets agree in stable-id space.
        let set_a: HashSet<u64> = mba.input_nodes().iter().map(|&x| a.stable_id(x)).collect();
        let set_h: HashSet<u64> = mbh.input_nodes().iter().map(|&x| h.stable_id(x)).collect();
        assert_eq!(set_a, set_h);
        // Per-layer edge multisets agree exactly.
        for layer in 0..2 {
            assert_eq!(
                canonical_edges(&mba, layer, &a),
                canonical_edges(&mbh, layer, &h),
                "layer {layer} subgraphs differ"
            );
        }
    }

    #[test]
    fn backend_costs_are_ordered_gpu_fastest() {
        let model = CostModel::dgx_a100();
        let gpu = DeviceSpec::a100_40gb();
        let stats = SampleStats {
            edges_sampled: 10_000_000,
            keys_inserted: 11_000_000,
            kernels: 6,
        };
        let wg = SamplerBackend::WholeGraphGpu.sample_time(&model, &gpu, stats);
        let dgl = SamplerBackend::DglCpu.sample_time(&model, &gpu, stats);
        let pyg = SamplerBackend::PygCpu.sample_time(&model, &gpu, stats);
        assert!(wg < dgl, "WholeGraph GPU sampler must beat DGL CPU sampler");
        assert!(dgl < pyg, "DGL sampler must beat PyG sampler");
        // PyG/DGL ratio ~ 9x (Table V shows PyG epochs 7–9× DGL's on
        // sampling-dominated datasets).
        let ratio = pyg / dgl;
        assert!(ratio > 5.0 && ratio < 15.0, "PyG/DGL ratio {ratio}");
    }

    #[test]
    fn zero_degree_targets_produce_no_edges() {
        // A graph with isolated nodes must not break the sampler.
        let g = wg_graph::Csr::from_edges(10, &[(0, 1)], true);
        let features = vec![0.0f32; 10 * 2];
        let acct = MemoryAccounting::new([(DeviceId::Cpu, 1 << 20)]);
        let host = HostGraph::build(g, features, 2, &acct).unwrap();
        let h = HostGraphAccess(&host);
        let cfg = SamplerConfig {
            fanouts: vec![3],
            seed: 1,
        };
        let (mb, stats) = sample_minibatch(&h, &[5, 6, 7], &cfg, 0, 0);
        assert_eq!(stats.edges_sampled, 0);
        assert_eq!(mb.blocks[0].num_src, 3); // just the targets
    }
}

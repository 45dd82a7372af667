//! Graph + feature stores.
//!
//! [`MultiGpuGraph`] is WholeGraph's storage layout (§III-B): node metadata,
//! edge lists (stored with their source node) and node features all live in
//! [`WholeMemory`] distributed allocations, partitioned by the node-ID hash,
//! with edges recorded as packed [`GlobalId`]s so a sampled neighbor is
//! directly addressable on whichever GPU owns it.
//!
//! [`HostGraph`] is the layout the DGL/PyG baselines use: the CSR and the
//! feature matrix stay in host DRAM ("Graph Store Server" of Figure 1), and
//! every mini-batch must be assembled on the CPU and shipped over PCIe.

use wg_mem::{RegionView, WholeMemory};
use wg_sim::cost::AccessMode;
use wg_sim::memory::{AllocKind, MemoryAccounting, OutOfMemory};
use wg_sim::{CostModel, DeviceId, SimTime};

use crate::csr::Csr;
use crate::global_id::GlobalId;
use crate::partition::HashPartition;
use crate::NodeId;

/// WholeGraph's distributed graph + feature store.
pub struct MultiGpuGraph {
    partition: HashPartition,
    /// Per node (padded-row indexed): `[edge_start_local, degree]`.
    node_meta: WholeMemory<u64>,
    /// Concatenated per-rank edge lists; entries are raw [`GlobalId`]s.
    edges: WholeMemory<u64>,
    /// Stride of each rank's slice of the edge allocation.
    edge_rows_per_rank: usize,
    /// Node features, padded-row indexed.
    features: WholeMemory<f32>,
    /// Optional per-edge features, laid out congruently with `edges`
    /// (edge slot `e` of rank `r` holds the feature of the same edge) —
    /// "all the edges are stored together with the source node", and so
    /// are their features (§III-B's "node or edge features").
    edge_features: Option<WholeMemory<f32>>,
    edge_feature_dim: usize,
    feature_dim: usize,
    num_edges: usize,
    setup_time: SimTime,
}

impl MultiGpuGraph {
    /// Scatter a host CSR + feature matrix into distributed storage across
    /// `ranks` GPUs, mapping the feature allocation with GPUDirect P2P
    /// (the WholeGraph default).
    pub fn build(
        model: &CostModel,
        ranks: u32,
        graph: &Csr,
        features: &[f32],
        feature_dim: usize,
        acct: &MemoryAccounting,
    ) -> Result<Self, OutOfMemory> {
        Self::build_with_mode(
            model,
            ranks,
            graph,
            features,
            feature_dim,
            acct,
            AccessMode::PeerAccess,
        )
    }

    /// Like [`build`](Self::build) but with an explicit [`AccessMode`]
    /// for the *feature* allocation — [`AccessMode::UnifiedMemory`]
    /// reproduces the paper's §II-B ablation (UM page-fault storage).
    /// Structure allocations always use P2P (the sampling kernels would be
    /// unusable otherwise, which is rather the point of Table I).
    ///
    /// `features` is row-major `num_nodes × feature_dim`. Memory is
    /// registered against `acct` under [`AllocKind::GraphStructure`] /
    /// [`AllocKind::Features`] (Table IV).
    pub fn build_with_mode(
        model: &CostModel,
        ranks: u32,
        graph: &Csr,
        features: &[f32],
        feature_dim: usize,
        acct: &MemoryAccounting,
        feature_mode: AccessMode,
    ) -> Result<Self, OutOfMemory> {
        Self::build_full(
            model,
            ranks,
            graph,
            features,
            feature_dim,
            None,
            0,
            acct,
            feature_mode,
        )
    }

    /// Full builder: node features plus optional per-edge features
    /// (`edge_features` is row-major `num_edges × edge_feature_dim`, in
    /// CSR edge order).
    #[allow(clippy::too_many_arguments)] // the assembled store simply has this many parts
    pub fn build_full(
        model: &CostModel,
        ranks: u32,
        graph: &Csr,
        features: &[f32],
        feature_dim: usize,
        edge_features: Option<&[f32]>,
        edge_feature_dim: usize,
        acct: &MemoryAccounting,
        feature_mode: AccessMode,
    ) -> Result<Self, OutOfMemory> {
        let n = graph.num_nodes();
        assert!(n > 0, "empty graph");
        assert_eq!(
            features.len(),
            n * feature_dim,
            "feature matrix shape mismatch"
        );
        let partition = HashPartition::new(n, ranks);

        // Per-rank edge totals decide the edge-allocation stride.
        let mut edge_counts = vec![0usize; ranks as usize];
        for r in 0..ranks {
            edge_counts[r as usize] = partition
                .nodes_on_rank(r)
                .iter()
                .map(|&v| graph.degree(v))
                .sum();
        }
        let edge_rows_per_rank = edge_counts.iter().copied().max().unwrap_or(0).max(1);
        let padded = partition.padded_rows();

        let node_meta = WholeMemory::<u64>::allocate_tracked(
            model,
            ranks,
            padded,
            2,
            AccessMode::PeerAccess,
            acct,
            AllocKind::GraphStructure,
        )?;
        let edges = WholeMemory::<u64>::allocate_tracked(
            model,
            ranks,
            edge_rows_per_rank * ranks as usize,
            1,
            AccessMode::PeerAccess,
            acct,
            AllocKind::GraphStructure,
        )?;
        let features_wm = WholeMemory::<f32>::allocate_tracked(
            model,
            ranks,
            padded,
            feature_dim.max(1),
            feature_mode,
            acct,
            AllocKind::Features,
        )?;
        if let Some(ef) = edge_features {
            assert_eq!(
                ef.len(),
                graph.num_edges() * edge_feature_dim,
                "edge feature matrix shape mismatch"
            );
            assert!(edge_feature_dim > 0, "edge features need a positive width");
        }
        let edge_features_wm = match edge_features {
            None => None,
            Some(_) => Some(WholeMemory::<f32>::allocate_tracked(
                model,
                ranks,
                edge_rows_per_rank * ranks as usize,
                edge_feature_dim,
                feature_mode,
                acct,
                AllocKind::Features,
            )?),
        };

        // Each rank fills its own partition (concurrently in the real
        // system; sequential per rank here keeps the cursor logic clear).
        for r in 0..ranks {
            let mut cursor = 0u64;
            for (local, &v) in partition.nodes_on_rank(r).iter().enumerate() {
                let deg = graph.degree(v) as u64;
                let meta_row = r as usize * partition.rows_per_rank() + local;
                node_meta.write_row(meta_row, &[cursor, deg]);
                edges.with_region_mut(r, |region| {
                    for (k, &t) in graph.neighbors(v).iter().enumerate() {
                        region[cursor as usize + k] = partition.global_id(t).raw();
                    }
                });
                if feature_dim > 0 {
                    features_wm.write_row(
                        meta_row,
                        &features[v as usize * feature_dim..(v as usize + 1) * feature_dim],
                    );
                }
                if let (Some(wm), Some(ef)) = (&edge_features_wm, edge_features) {
                    // CSR edge order: edge (v, k) is global CSR slot
                    // offsets[v] + k; its DSM slot is the rank-local
                    // cursor + k (same order the edge list was written).
                    let csr_base = graph.offsets()[v as usize] as usize;
                    for k in 0..deg as usize {
                        let row = r as usize * edge_rows_per_rank + cursor as usize + k;
                        wm.write_row(
                            row,
                            &ef[(csr_base + k) * edge_feature_dim
                                ..(csr_base + k + 1) * edge_feature_dim],
                        );
                    }
                }
                cursor += deg;
            }
        }

        let setup_time = node_meta.setup_time()
            + edges.setup_time()
            + features_wm.setup_time()
            + edge_features_wm
                .as_ref()
                .map_or(SimTime::ZERO, |wm| wm.setup_time());
        Ok(MultiGpuGraph {
            partition,
            node_meta,
            edges,
            edge_rows_per_rank,
            features: features_wm,
            edge_features: edge_features_wm,
            edge_feature_dim,
            feature_dim,
            num_edges: graph.num_edges(),
            setup_time,
        })
    }

    /// The node partition.
    pub fn partition(&self) -> &HashPartition {
        &self.partition
    }

    /// Number of (real, unpadded) nodes.
    pub fn num_nodes(&self) -> usize {
        self.partition.num_nodes()
    }

    /// Number of stored directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Feature width per node.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Total simulated setup time of the three distributed allocations.
    pub fn setup_time(&self) -> SimTime {
        self.setup_time
    }

    /// The distributed feature allocation (for the global gather op).
    pub fn features(&self) -> &WholeMemory<f32> {
        &self.features
    }

    /// DSM feature row of a node (by original id).
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> usize {
        self.partition.dsm_row(v)
    }

    /// DSM feature row of a node given its GlobalId.
    #[inline]
    pub fn feature_row_of_global(&self, g: GlobalId) -> usize {
        g.rank() as usize * self.partition.rows_per_rank() + g.local() as usize
    }

    /// Out-degree of a node (one metadata row read).
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree_of_global(self.partition.global_id(v))
    }

    /// Out-degree by GlobalId.
    pub fn degree_of_global(&self, g: GlobalId) -> usize {
        let mut meta = [0u64; 2];
        self.node_meta.read_row(
            g.rank() as usize * self.partition.rows_per_rank() + g.local() as usize,
            &mut meta,
        );
        meta[1] as usize
    }

    /// Neighbor list of a node as GlobalIds (allocating convenience).
    ///
    /// The span is contiguous within the owning rank's edge region, so a
    /// sampling kernel reads `degree` consecutive 8-byte entries — this is
    /// the access the multi-GPU sampler charges remote-read costs for.
    pub fn neighbors_of(&self, v: NodeId) -> Vec<GlobalId> {
        let g = self.partition.global_id(v);
        let mut meta = [0u64; 2];
        self.node_meta.read_row(
            g.rank() as usize * self.partition.rows_per_rank() + g.local() as usize,
            &mut meta,
        );
        let (start, deg) = (meta[0] as usize, meta[1] as usize);
        self.edges.with_region(g.rank(), |region| {
            region[start..start + deg]
                .iter()
                .map(|&r| GlobalId::from_raw(r))
                .collect()
        })
    }

    /// Stride of one rank's slice of the edge allocation.
    pub fn edge_rows_per_rank(&self) -> usize {
        self.edge_rows_per_rank
    }

    /// The distributed edge-feature allocation, if the graph has edge
    /// features (rows are global edge slots — see
    /// [`edge_slot_base`](Self::edge_slot_base)).
    pub fn edge_features(&self) -> Option<&WholeMemory<f32>> {
        self.edge_features.as_ref()
    }

    /// Edge feature width (0 when absent).
    pub fn edge_feature_dim(&self) -> usize {
        self.edge_feature_dim
    }

    /// Global edge slot of a node's first edge: the node's `k`-th sampled
    /// neighbor position maps to edge slot `base + k`, which indexes both
    /// the edge list and the edge-feature allocation.
    pub fn edge_slot_base(&self, g: GlobalId) -> u64 {
        let rank = g.rank();
        let mut meta = [0u64; 2];
        self.node_meta.read_row(
            rank as usize * self.partition.rows_per_rank() + g.local() as usize,
            &mut meta,
        );
        rank as u64 * self.edge_rows_per_rank as u64 + meta[0]
    }

    /// Pin the structure allocations (node metadata + edge lists) and
    /// return a zero-copy [`AdjacencyView`]: degree / neighbor / edge-slot
    /// lookups become plain indexed loads into the pinned regions, with no
    /// per-call locking and no copying — the CPU analogue of a sampling
    /// kernel dereferencing the DSM pointer table directly.
    pub fn adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView {
            meta: self.node_meta.pin(),
            edges: self.edges.pin(),
            edge_rows_per_rank: self.edge_rows_per_rank,
        }
    }
}

/// Zero-copy adjacency access over a pinned [`MultiGpuGraph`], created by
/// [`MultiGpuGraph::adjacency`]. Neighbor lists are borrowed straight out
/// of the pinned edge regions — sampling `m ≤ fanout` of `deg` neighbors
/// never materializes the `deg`-entry list.
pub struct AdjacencyView<'a> {
    meta: RegionView<'a, u64>,
    edges: RegionView<'a, u64>,
    edge_rows_per_rank: usize,
}

impl AdjacencyView<'_> {
    /// `[edge_start_local, degree]` metadata of a node.
    #[inline]
    fn meta_of(&self, g: GlobalId) -> (usize, usize) {
        let row = g.local() as usize * 2;
        let meta = &self.meta.region(g.rank())[row..row + 2];
        (meta[0] as usize, meta[1] as usize)
    }

    /// Out-degree of a node.
    #[inline]
    pub fn degree(&self, g: GlobalId) -> usize {
        self.meta_of(g).1
    }

    /// Borrowed neighbor list (raw [`GlobalId`]s) of a node.
    #[inline]
    pub fn neighbors(&self, g: GlobalId) -> &[u64] {
        let (start, deg) = self.meta_of(g);
        &self.edges.region(g.rank())[start..start + deg]
    }

    /// Global edge slot of a node's first edge (see
    /// [`MultiGpuGraph::edge_slot_base`]).
    #[inline]
    pub fn edge_slot_base(&self, g: GlobalId) -> u64 {
        let (start, _) = self.meta_of(g);
        g.rank() as u64 * self.edge_rows_per_rank as u64 + start as u64
    }
}

/// Host-memory storage as DGL/PyG keep it (Figure 1's "Graph Store
/// Server"): CSR + features in CPU DRAM.
pub struct HostGraph {
    graph: Csr,
    features: Vec<f32>,
    feature_dim: usize,
}

impl HostGraph {
    /// Wrap a CSR and host feature matrix, accounting the bytes against
    /// host DRAM.
    pub fn build(
        graph: Csr,
        features: Vec<f32>,
        feature_dim: usize,
        acct: &MemoryAccounting,
    ) -> Result<Self, OutOfMemory> {
        assert_eq!(features.len(), graph.num_nodes() * feature_dim);
        acct.alloc(
            DeviceId::Cpu,
            AllocKind::GraphStructure,
            graph.structure_bytes(),
        )?;
        acct.alloc(
            DeviceId::Cpu,
            AllocKind::Features,
            (features.len() * 4) as u64,
        )?;
        Ok(HostGraph {
            graph,
            features,
            feature_dim,
        })
    }

    /// The CSR.
    pub fn csr(&self) -> &Csr {
        &self.graph
    }

    /// Feature width.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Feature row of a node.
    pub fn feature(&self, v: NodeId) -> &[f32] {
        &self.features[v as usize * self.feature_dim..(v as usize + 1) * self.feature_dim]
    }

    /// Gather rows for `nodes` into a dense batch (the CPU-side feature
    /// collection of Figure 1, step "gathering feature").
    pub fn gather_features(&self, nodes: &[NodeId], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(nodes.len() * self.feature_dim);
        for &v in nodes {
            out.extend_from_slice(self.feature(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use wg_mem::gather::global_gather;
    use wg_sim::device::DeviceSpec;

    fn acct(ranks: u32) -> MemoryAccounting {
        let mut devs: Vec<(DeviceId, u64)> =
            (0..ranks).map(|r| (DeviceId::Gpu(r), 1 << 30)).collect();
        devs.push((DeviceId::Cpu, 1 << 32));
        MemoryAccounting::new(devs)
    }

    fn tiny_store(ranks: u32) -> (MultiGpuGraph, Csr, Vec<f32>) {
        let g = gen::erdos_renyi(200, 8.0, 99);
        let feat_dim = 6;
        let features: Vec<f32> = (0..200 * feat_dim).map(|i| i as f32 * 0.25).collect();
        let model = CostModel::dgx_a100();
        let store =
            MultiGpuGraph::build(&model, ranks, &g, &features, feat_dim, &acct(ranks)).unwrap();
        (store, g, features)
    }

    #[test]
    fn adjacency_roundtrips_through_dsm() {
        let (store, g, _) = tiny_store(8);
        for v in 0..200u64 {
            assert_eq!(store.degree(v), g.degree(v), "degree of {v}");
            let got: Vec<NodeId> = store
                .neighbors_of(v)
                .into_iter()
                .map(|gid| store.partition().node_of(gid))
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            let mut expect = g.neighbors(v).to_vec();
            expect.sort_unstable();
            assert_eq!(got_sorted, expect, "neighbors of {v}");
        }
    }

    #[test]
    fn features_roundtrip_through_dsm_gather() {
        let (store, _, features) = tiny_store(4);
        let model = CostModel::dgx_a100();
        let spec = DeviceSpec::a100_40gb();
        let mut rng = SmallRng::seed_from_u64(1);
        let nodes: Vec<NodeId> = (0..64).map(|_| rng.gen_range(0..200)).collect();
        let rows: Vec<usize> = nodes.iter().map(|&v| store.feature_row(v)).collect();
        let mut out = vec![0.0f32; rows.len() * 6];
        global_gather(store.features(), &rows, &mut out, 0, &model, &spec);
        for (i, &v) in nodes.iter().enumerate() {
            let expect = &features[v as usize * 6..(v as usize + 1) * 6];
            assert_eq!(&out[i * 6..(i + 1) * 6], expect, "features of node {v}");
        }
    }

    #[test]
    fn memory_accounting_sees_structure_and_features() {
        let ranks = 4;
        let a = acct(ranks);
        let g = gen::erdos_renyi(100, 4.0, 7);
        let features = vec![0.5f32; 100 * 8];
        let model = CostModel::dgx_a100();
        let _store = MultiGpuGraph::build(&model, ranks, &g, &features, 8, &a).unwrap();
        let structure: u64 = a
            .gpu_usage_by(AllocKind::GraphStructure)
            .iter()
            .map(|(_, b)| b)
            .sum();
        let feats: u64 = a
            .gpu_usage_by(AllocKind::Features)
            .iter()
            .map(|(_, b)| b)
            .sum();
        // Structure ≥ edges (8 B each) + metadata (16 B per padded node).
        assert!(structure >= (g.num_edges() * 8) as u64);
        // Features: padded rows × 8 × 4 bytes ≥ the real matrix.
        assert!(feats >= (100 * 8 * 4) as u64);
    }

    #[test]
    fn single_rank_store_works() {
        let (store, g, _) = tiny_store(1);
        assert_eq!(store.num_nodes(), 200);
        assert_eq!(store.num_edges(), g.num_edges());
        let v = 13u64;
        assert_eq!(store.degree(v), g.degree(v));
    }

    #[test]
    fn host_graph_gathers_features() {
        let g = gen::erdos_renyi(50, 3.0, 5);
        let features: Vec<f32> = (0..50 * 4).map(|i| i as f32).collect();
        let a = acct(1);
        let host = HostGraph::build(g, features.clone(), 4, &a).unwrap();
        let mut out = Vec::new();
        host.gather_features(&[7, 3, 7], &mut out);
        assert_eq!(&out[0..4], &features[28..32]);
        assert_eq!(&out[4..8], &features[12..16]);
        assert_eq!(&out[8..12], &features[28..32]);
        assert_eq!(
            a.pool(DeviceId::Cpu).used_by(AllocKind::Features),
            50 * 4 * 4
        );
    }
}

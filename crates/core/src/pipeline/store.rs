//! Where a feature row lives and what fetching it costs — the one
//! decision the pipeline does not make itself.
//!
//! [`FeatureStore`] is the seam: the pipeline asks for sampled
//! sub-graphs and gathered features, and never learns whether the rows came from a
//! GPU's distributed shared memory (through whatever cache and disk tiers
//! are attached), from host-pinned memory over PCIe, or from a CPU-side
//! gather. Two implementations, each straight-line: [`DsmStore`] for the
//! WholeGraph framework and [`HostStore`] for the DGL/PyG baselines. A
//! trait rather than an enum because two implementations need no `match`
//! at all, and because a test (or a fault plan) can substitute a third.

use std::sync::Arc;

use wg_graph::{GlobalId, HashPartition, HostGraph, MultiGpuGraph, NodeId, SyntheticDataset};
use wg_mem::{CacheMode, FeatureCache, OocTier, RowPlan, StorageIo, TierStack};
use wg_sample::{
    sample_minibatch_into, GraphAccess, HostGraphAccess, MiniBatch, MultiGpuAccess, SampleScratch,
    SampleStats, SamplerConfig,
};
use wg_sim::cost::AccessMode;
use wg_sim::memory::{AllocKind, OutOfMemory};
use wg_sim::{DeviceId, Machine, SimTime};
use wg_tensor::Matrix;

use super::config::{FeaturePlacement, PipelineConfig};

/// One gather's output: the dense feature matrix (rows follow
/// `mb.input_nodes()` order), the simulated phase time, and the
/// out-of-core tier's share of that time with the traffic behind it
/// (both zero unless a disk tier served rows).
pub(crate) struct Gathered {
    pub features: Matrix,
    pub time: SimTime,
    pub storage_time: SimTime,
    pub storage_io: StorageIo,
}

/// The pipeline's view of its graph + feature store. Nodes go in as
/// dataset ids; what a mini-batch carries are *handles*, the store's own
/// node names, which only the store that sampled them can resolve.
pub(crate) trait FeatureStore {
    /// Sample the multi-layer sub-graph seeded at `nodes` into `mb`.
    fn sample(
        &mut self,
        nodes: &[NodeId],
        cfg: &SamplerConfig,
        epoch: u64,
        iter: u64,
        scratch: &mut SampleScratch,
        mb: &mut MiniBatch,
    ) -> SampleStats;

    /// How many of `input`'s rows GPU `rank` on machine `home` must fetch
    /// from another machine: rows `owners` assigns elsewhere, minus any a
    /// local tier already holds a copy of. Called before the iteration's
    /// gather, so this batch's own cache fills never discount its halo.
    fn halo_rows(&self, input: &[u64], owners: &HashPartition, home: u32, rank: u32) -> u64;

    /// Gather `mb`'s input features on GPU `rank`, reusing `buf`'s
    /// capacity for the output.
    fn gather(&mut self, mb: &MiniBatch, rank: u32, machine: &Machine, buf: Vec<f32>) -> Gathered;
}

/// WholeGraph's store: structure and features in the GPUs' distributed
/// shared memory, gathered by the one-kernel gather through `tiers`.
struct DsmStore {
    graph: MultiGpuGraph,
    /// The cache above and the disk tier below the DSM feature rows, as
    /// configured; they price reads, the DSM serves them — numerics are
    /// identical with any of them.
    tiers: TierStack,
    /// Set under [`FeaturePlacement::HostMapped`]: the features never
    /// left host memory, `graph` carries structure only, and the gather
    /// kernel reads these rows over PCIe.
    host_mapped: Option<Arc<SyntheticDataset>>,
    // Pooled per-batch state: the seeds' handles, then the feature rows
    // of the batch and their plan (the division-free locator inside is
    // rebuilt only when the feature partition changes).
    seeds: Vec<u64>,
    rows: Vec<usize>,
    plan: RowPlan,
}

/// The DGL/PyG baselines' store: CSR and features in host DRAM, gathered
/// on the CPU and copied over PCIe. Handles are the node ids themselves.
struct HostStore(HostGraph);

/// Load `dataset` into the store `cfg.framework` trains from — the DSM
/// for WholeGraph, host DRAM for the baselines — and return it with its
/// one-time setup cost.
pub(crate) fn build(
    machine: &Machine,
    dataset: &Arc<SyntheticDataset>,
    cfg: &PipelineConfig,
) -> Result<(Box<dyn FeatureStore>, SimTime), OutOfMemory> {
    let acct = machine.memory();
    if !cfg.framework.uses_dsm() {
        let host = HostGraph::build(
            dataset.graph.clone(),
            dataset.features.clone(),
            dataset.feature_dim,
            &acct,
        )?;
        return Ok((Box::new(HostStore(host)), SimTime::ZERO));
    }
    let host_mapped = cfg.feature_placement == FeaturePlacement::HostMapped;
    // Under HostMapped the DSM store carries an empty feature matrix.
    let (feats, dim) = if host_mapped {
        (&[][..], 0)
    } else {
        (&dataset.features[..], dataset.feature_dim)
    };
    let mode = match cfg.feature_placement {
        FeaturePlacement::DeviceUnifiedMemory => AccessMode::UnifiedMemory,
        _ => AccessMode::PeerAccess,
    };
    let gpus = machine.num_gpus();
    let graph = MultiGpuGraph::build_with_mode(
        machine.cost(),
        gpus,
        &dataset.graph,
        feats,
        dim,
        &acct,
        mode,
    )?;
    let mut tiers = TierStack::default();
    if host_mapped {
        let bytes = (dataset.features.len() * 4) as u64;
        acct.alloc(DeviceId::Cpu, AllocKind::Features, bytes)?;
    } else {
        // The tiers sit around the DSM feature rows only: HostMapped
        // keeps no device features to cache, and its rows are in DRAM
        // already.
        let wm = graph.features();
        // The load-time hotness signal is vertex degree: neighbor
        // sampling revisits high-degree vertices far more often than the
        // tail. The `+1` keeps isolated real vertices ahead of the DSM
        // padding rows, which stay at hotness 0 — never pinned by the
        // static cache, first to be disk-served.
        let degree_hotness = || {
            let mut hotness = vec![0u64; wm.rows()];
            for v in 0..graph.num_nodes() as NodeId {
                hotness[graph.feature_row(v)] = graph.degree(v) as u64 + 1;
            }
            hotness
        };
        let cc = cfg.cache;
        tiers.cache = (cc.rows > 0).then(|| match cc.mode {
            CacheMode::Static => FeatureCache::new_static(wm, &degree_hotness(), cc.rows),
            CacheMode::Clock => FeatureCache::new_clock(wm, gpus, cc.rows),
        });
        // The `budget_rows` hottest rows stay DSM-resident; reads of the
        // rest are priced by the NVMe storage model.
        let budget_rows = cfg.storage.budget_rows;
        tiers.disk = (budget_rows > 0).then(|| OocTier::build(wm, &degree_hotness(), budget_rows));
    }
    let setup = graph.setup_time();
    let store = DsmStore {
        graph,
        tiers,
        host_mapped: host_mapped.then(|| Arc::clone(dataset)),
        seeds: Vec::new(),
        rows: Vec::new(),
        plan: RowPlan::default(),
    };
    Ok((Box::new(store), setup))
}

impl FeatureStore for DsmStore {
    fn sample(
        &mut self,
        nodes: &[NodeId],
        cfg: &SamplerConfig,
        epoch: u64,
        iter: u64,
        scratch: &mut SampleScratch,
        mb: &mut MiniBatch,
    ) -> SampleStats {
        let access = MultiGpuAccess::new(&self.graph);
        self.seeds.clear();
        self.seeds
            .extend(nodes.iter().map(|&v| access.handle_of(v)));
        sample_minibatch_into(&access, &self.seeds, cfg, epoch, iter, scratch, mb)
    }

    fn halo_rows(&self, input: &[u64], owners: &HashPartition, home: u32, rank: u32) -> u64 {
        let cache = self.tiers.cache.as_ref();
        let remote = |&&h: &&u64| {
            let g = GlobalId::from_raw(h);
            // A row already in `rank`'s feature cache is a local hit
            // and skips the IB fetch.
            owners.rank_of(self.graph.partition().node_of(g)) != home
                && !cache.is_some_and(|c| c.contains(rank, self.graph.feature_row_of_global(g)))
        };
        input.iter().filter(remote).count() as u64
    }

    fn gather(&mut self, mb: &MiniBatch, rank: u32, machine: &Machine, buf: Vec<f32>) -> Gathered {
        let (input, mut out) = (mb.input_nodes(), buf);
        out.clear();
        if let Some(dataset) = &self.host_mapped {
            // Zero-copy: the gather kernel reads host-pinned rows over
            // PCIe directly (no CPU gather step, no staging buffer).
            let dim = dataset.feature_dim;
            out.reserve(input.len() * dim);
            for &h in input {
                let v = self.graph.partition().node_of(GlobalId::from_raw(h)) as usize;
                out.extend_from_slice(&dataset.features[v * dim..(v + 1) * dim]);
            }
            return Gathered {
                features: Matrix::from_vec(input.len(), dim, out),
                time: machine.cost().pcie_zero_copy_gather_time(
                    input.len() as u64,
                    dim * 4,
                    machine.num_gpus(),
                    machine.spec(DeviceId::Gpu(0)),
                ),
                storage_time: SimTime::ZERO,
                storage_io: StorageIo::default(),
            };
        }
        let wm = self.graph.features();
        self.rows.clear();
        self.rows.extend(
            input
                .iter()
                .map(|&h| self.graph.feature_row_of_global(GlobalId::from_raw(h))),
        );
        out.resize(self.rows.len() * wm.width(), 0.0);
        // Row locations are resolved once into the pooled plan, and
        // priced cache → DSM → disk through whichever tiers are
        // attached; the copy kernel then runs straight off the plan's
        // slots.
        self.tiers.plan(wm, &self.rows, rank, &mut self.plan);
        let stats = self.tiers.execute(
            wm,
            &self.plan,
            &mut out,
            rank,
            machine.cost(),
            machine.spec(DeviceId::Gpu(rank)),
        );
        Gathered {
            features: Matrix::from_vec(self.rows.len(), wm.width(), out),
            time: stats.sim_time,
            storage_time: stats.storage_time,
            storage_io: stats.storage_io,
        }
    }
}

impl FeatureStore for HostStore {
    fn sample(
        &mut self,
        nodes: &[NodeId],
        cfg: &SamplerConfig,
        epoch: u64,
        iter: u64,
        scratch: &mut SampleScratch,
        mb: &mut MiniBatch,
    ) -> SampleStats {
        let access = HostGraphAccess(&self.0);
        sample_minibatch_into(&access, nodes, cfg, epoch, iter, scratch, mb)
    }

    fn halo_rows(&self, input: &[u64], owners: &HashPartition, home: u32, _rank: u32) -> u64 {
        input.iter().filter(|&&h| owners.rank_of(h) != home).count() as u64
    }

    fn gather(&mut self, mb: &MiniBatch, _: u32, machine: &Machine, buf: Vec<f32>) -> Gathered {
        // CPU-side gather, then the mini-batch (features + sub-graph
        // structure) crosses PCIe; with all GPUs loading concurrently
        // each gets a shared uplink (§III-B).
        let (input, mut out) = (mb.input_nodes(), buf);
        let dim = self.0.feature_dim();
        self.0.gather_features(input, &mut out);
        let feat_bytes = (out.len() * 4) as u64;
        let struct_bytes: u64 = mb
            .blocks
            .iter()
            .map(|b| (b.indices.len() * 4 + b.offsets.len() * 4 + b.dup_count.len() * 4) as u64)
            .sum();
        let model = machine.cost();
        // The CPU gather bandwidth is an aggregate host resource: G
        // concurrent trainer processes each see 1/G of it (same
        // contention argument as sampling).
        let cpu = model.host_gather_time(input.len() as u64, dim * 4) * machine.num_gpus() as f64;
        let path = model
            .topology
            .path(DeviceId::Cpu, DeviceId::Gpu(0), machine.num_gpus());
        Gathered {
            features: Matrix::from_vec(input.len(), dim, out),
            time: cpu + model.transfer_time(feat_bytes + struct_bytes, path),
            storage_time: SimTime::ZERO,
            storage_io: StorageIo::default(),
        }
    }
}

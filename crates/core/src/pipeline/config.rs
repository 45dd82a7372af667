//! Pipeline configuration: framework/model/hyper-parameters, feature
//! placement, and the cache and storage tiers.

use wg_gnn::{GnnConfig, LayerProvider, ModelKind};
use wg_mem::CacheMode;

use crate::framework::Framework;

/// Per-device feature-cache configuration: `rows` row slots per device,
/// filled by static top-K replication or dynamic CLOCK eviction. Caching
/// changes gather *cost only, never values* — every checksum is
/// bit-identical with the cache on or off.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheConfig {
    /// Cache row slots per device. Zero disables the cache.
    pub rows: usize,
    /// Replacement policy.
    pub mode: CacheMode,
}

/// Out-of-core storage-tier configuration: cap the DSM-resident feature
/// rows at `budget_rows` and price reads of everything else as NVMe
/// requests from the tier below ([`wg_mem::OocTier`]). The tier prices
/// reads, the DSM serves them: like the cache above it, it changes
/// gather *cost only, never values* — training through the disk tier is
/// bit-identical to in-memory, at any residency. The simulated device
/// memory is still charged for the whole feature table whatever the
/// budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StorageConfig {
    /// DSM-resident feature-row budget. Zero disables the tier (pure
    /// in-memory DSM, the default).
    pub budget_rows: usize,
}

/// Where the node features physically live and how the training GPU
/// reaches them — the design space the paper's introduction lays out
/// ("Either collecting sparse features on CPU before sending them to GPU
/// or directly accessing these sparse features of CPU from GPU leads to
/// high pressure on PCIe"), plus the §II-B UM alternative.
///
/// Applies to the WholeGraph framework only; the DGL/PyG baselines always
/// gather on the CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum FeaturePlacement {
    /// Distributed across GPU memories, mapped with GPUDirect P2P — the
    /// WholeGraph design.
    #[default]
    DeviceP2p,
    /// Distributed across GPU memories, mapped with CUDA Unified Memory —
    /// every remote row is a page fault (Table I's slow column).
    DeviceUnifiedMemory,
    /// Features stay in host-pinned memory; the gather kernel reads them
    /// over PCIe zero-copy (the Seung et al. style referenced in §V).
    HostMapped,
}

impl FeaturePlacement {
    /// Display name for ablation tables.
    pub fn name(self) -> &'static str {
        match self {
            FeaturePlacement::DeviceP2p => "GPU+P2P",
            FeaturePlacement::DeviceUnifiedMemory => "GPU+UM",
            FeaturePlacement::HostMapped => "host zero-copy",
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// System under test.
    pub framework: Framework,
    /// GNN architecture.
    pub model: ModelKind,
    /// Hidden width (paper: 256).
    pub hidden: usize,
    /// Layer count (paper: 3).
    pub num_layers: usize,
    /// GAT heads (paper: 4).
    pub heads: usize,
    /// Per-layer fanout (paper: 30,30,30).
    pub fanouts: Vec<usize>,
    /// Mini-batch size per iteration (paper: 512).
    pub batch_size: usize,
    /// Dropout on layer inputs.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Master seed (model init, shuffling, sampling).
    pub seed: u64,
    /// Override the layer provider (Figure 11's WholeGraph+DGL /
    /// WholeGraph+PyG variants). `None` uses the framework's default.
    pub provider_override: Option<LayerProvider>,
    /// Feature placement for the WholeGraph framework (storage-mode
    /// ablation; ignored by the host baselines).
    pub feature_placement: FeaturePlacement,
    /// Per-device feature cache (WholeGraph DSM placements only); off
    /// at zero rows, the default.
    pub cache: CacheConfig,
    /// Out-of-core storage tier below the DSM (WholeGraph DSM placements
    /// only); off at a zero-row budget, the default.
    pub storage: StorageConfig,
}

impl PipelineConfig {
    /// The paper's evaluation configuration.
    pub fn paper(framework: Framework, model: ModelKind) -> Self {
        PipelineConfig {
            framework,
            model,
            hidden: 256,
            num_layers: 3,
            heads: 4,
            fanouts: vec![30, 30, 30],
            batch_size: 512,
            dropout: 0.5,
            lr: 3e-3,
            seed: 0,
            provider_override: None,
            feature_placement: FeaturePlacement::DeviceP2p,
            cache: CacheConfig::default(),
            storage: StorageConfig::default(),
        }
    }

    /// A small configuration for tests and examples.
    pub fn tiny(framework: Framework, model: ModelKind) -> Self {
        PipelineConfig {
            framework,
            model,
            hidden: 32,
            num_layers: 2,
            heads: 2,
            fanouts: vec![5, 5],
            batch_size: 64,
            dropout: 0.0,
            lr: 1e-2,
            seed: 0,
            provider_override: None,
            feature_placement: FeaturePlacement::DeviceP2p,
            cache: CacheConfig::default(),
            storage: StorageConfig::default(),
        }
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set an explicit layer provider.
    pub fn with_provider(mut self, p: LayerProvider) -> Self {
        self.provider_override = Some(p);
        self
    }

    /// Set the feature placement (storage-mode ablation).
    pub fn with_feature_placement(mut self, p: FeaturePlacement) -> Self {
        self.feature_placement = p;
        self
    }

    /// Set the feature cache: `rows` slots per device, zero for off.
    pub fn with_cache(mut self, rows: usize, mode: CacheMode) -> Self {
        self.cache = CacheConfig { rows, mode };
        self
    }

    /// Set the storage tier's DSM-resident row budget, zero for off.
    pub fn with_storage(mut self, budget_rows: usize) -> Self {
        self.storage = StorageConfig { budget_rows };
        self
    }

    pub(crate) fn gnn_config(&self, in_dim: usize, num_classes: usize) -> GnnConfig {
        GnnConfig {
            kind: self.model,
            in_dim,
            hidden: self.hidden,
            num_classes,
            num_layers: self.num_layers,
            heads: self.heads,
            dropout: self.dropout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_storage_sets_the_budget_and_zero_is_off() {
        let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
        assert_eq!(cfg.storage, StorageConfig::default(), "off by default");
        assert_eq!(cfg.clone().with_storage(123).storage.budget_rows, 123);
        assert_eq!(cfg.with_storage(0).storage, StorageConfig::default());
    }

    #[test]
    fn with_cache_sets_the_cache_and_zero_is_off() {
        let cfg = PipelineConfig::paper(Framework::WholeGraph, ModelKind::Gat);
        assert_eq!(cfg.cache, CacheConfig::default(), "off by default");
        assert_eq!(cfg.cache.rows, 0);
        let clock = cfg.with_cache(64, CacheMode::Clock).cache;
        assert_eq!((clock.rows, clock.mode), (64, CacheMode::Clock));
    }
}

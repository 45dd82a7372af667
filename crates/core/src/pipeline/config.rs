//! Pipeline configuration: framework/model/hyper-parameters, feature
//! placement, and the executor mode.

use wg_gnn::{GnnConfig, LayerProvider, ModelKind};
use wg_mem::CacheMode;

use crate::framework::Framework;

/// The row-count seam behind `WG_CACHE_ROWS` and
/// `WG_STORAGE_BUDGET_ROWS`. Absent or empty → `None` (CI matrices
/// export unset legs as `""`); a present but malformed value panics at
/// startup naming `var`, same convention as `WG_SIMD` — a typo must not
/// silently run with the tier off. Takes the raw value so these
/// conventions are testable without mutating process-global environment
/// in a parallel test harness.
fn parse_rows(var: &str, value: Option<&str>) -> Option<usize> {
    let value = value.filter(|v| !v.is_empty())?;
    let rows = value.parse();
    Some(rows.unwrap_or_else(|_| panic!("{var}: expected a row count, got {value:?}")))
}

fn env_rows(var: &str) -> Option<usize> {
    parse_rows(var, std::env::var(var).ok().as_deref())
}

/// Per-device feature-cache configuration: `rows` row slots per device,
/// filled by static top-K replication or dynamic CLOCK eviction. Caching
/// changes gather *cost only, never values* — every checksum is
/// bit-identical with the cache on or off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Cache row slots per device. Zero disables the cache.
    pub rows: usize,
    /// Replacement policy.
    pub mode: CacheMode,
}

impl CacheConfig {
    /// Read the cache configuration from `WG_CACHE_ROWS` /
    /// `WG_CACHE_MODE` (the CI matrix's cache-enabled leg runs the whole
    /// suite this way). `None` when `WG_CACHE_ROWS` is absent or empty;
    /// malformed values of either variable panic at startup.
    pub fn from_env() -> Option<CacheConfig> {
        let rows = env_rows("WG_CACHE_ROWS")?;
        let mode = match std::env::var("WG_CACHE_MODE") {
            Ok(m) if !m.is_empty() => CacheMode::parse(&m)
                .unwrap_or_else(|| panic!("WG_CACHE_MODE: expected static|clock, got {m:?}")),
            _ => CacheMode::Static,
        };
        Some(CacheConfig { rows, mode })
    }
}

/// Out-of-core storage-tier configuration: cap the DSM-resident feature
/// rows at `budget_rows` and serve everything else from the file-backed
/// tier below ([`wg_mem::OocTier`]), priced by the NVMe storage cost
/// model. Like the cache above it, the tier changes gather *cost only,
/// never values* — training through the disk tier is bit-identical to
/// in-memory, at any residency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StorageConfig {
    /// DSM-resident feature-row budget. Zero disables the tier (pure
    /// in-memory DSM, the default).
    pub budget_rows: usize,
}

impl StorageConfig {
    /// Read the storage configuration from `WG_STORAGE_BUDGET_ROWS` (the
    /// CI matrix's storage leg runs the whole suite at ~25% residency
    /// this way). `None` when absent or empty; a malformed value panics
    /// at startup.
    pub fn from_env() -> Option<StorageConfig> {
        env_rows("WG_STORAGE_BUDGET_ROWS").map(|budget_rows| StorageConfig { budget_rows })
    }
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

/// How each wave's phases are scheduled onto the machine.
///
/// Both modes run the *same* iterations with the *same* numerics (same
/// seeds → same sub-graphs → same losses and parameter updates); they
/// differ only in how the simulated phase times are laid onto the device
/// timelines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum ExecMode {
    /// Sample → gather → train → AllReduce back-to-back on one timeline
    /// per wave (synchronous DataLoader semantics).
    #[default]
    Serial,
    /// Double-buffered software pipeline: wave `i+1`'s sampling and
    /// gathering run on an input stream while wave `i` trains on the
    /// compute stream — the overlap a prefetching DataLoader achieves.
    Overlapped,
}

impl ExecMode {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Serial => "serial",
            ExecMode::Overlapped => "overlapped",
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
    /// How epochs are scheduled onto the machine (timing only — the
    /// numerics are identical across modes).
    pub exec: ExecMode,
    /// Per-device feature cache (WholeGraph DSM placements only).
    /// `None` defers to the `WG_CACHE_ROWS`/`WG_CACHE_MODE` environment;
    /// `Some` pins it programmatically (use `rows: 0` to force-disable).
    pub cache: Option<CacheConfig>,
    /// Out-of-core storage tier below the DSM (WholeGraph DSM placements
    /// only). `None` defers to the `WG_STORAGE_BUDGET_ROWS` environment;
    /// `Some` pins it programmatically (use `budget_rows: 0` to
    /// force-disable).
    pub storage: Option<StorageConfig>,
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
            exec: ExecMode::Serial,
            cache: None,
            storage: None,
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
            exec: ExecMode::Serial,
            cache: None,
            storage: None,
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

    /// Set the executor mode.
    pub fn with_exec(mut self, mode: ExecMode) -> Self {
        self.exec = mode;
        self
    }

    /// Pin the feature-cache configuration (overrides the environment).
    pub fn with_cache(mut self, rows: usize, mode: CacheMode) -> Self {
        self.cache = Some(CacheConfig { rows, mode });
        self
    }

    /// The effective cache configuration: the explicit setting if
    /// present, else the `WG_CACHE_*` environment, normalized so a
    /// zero-row cache reads as disabled.
    pub fn resolved_cache(&self) -> Option<CacheConfig> {
        self.cache
            .or_else(CacheConfig::from_env)
            .filter(|c| c.rows > 0)
    }

    /// Pin the storage-tier configuration (overrides the environment).
    pub fn with_storage(mut self, budget_rows: usize) -> Self {
        self.storage = Some(StorageConfig { budget_rows });
        self
    }

    /// The effective storage configuration: the explicit setting if
    /// present, else the `WG_STORAGE_BUDGET_ROWS` environment, normalized
    /// so a zero-row budget reads as disabled.
    pub fn resolved_storage(&self) -> Option<StorageConfig> {
        self.storage
            .or_else(StorageConfig::from_env)
            .filter(|s| s.budget_rows > 0)
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
    use crate::framework::Framework;
    use wg_gnn::ModelKind;

    /// The two variables the row-count seam serves.
    const ROW_VARS: [&str; 2] = ["WG_CACHE_ROWS", "WG_STORAGE_BUDGET_ROWS"];

    #[test]
    fn storage_env_absent_or_empty_is_none() {
        // CI matrices export unset legs as "" — both shapes read as off.
        for var in ROW_VARS {
            assert_eq!(parse_rows(var, None), None);
            assert_eq!(parse_rows(var, Some("")), None);
        }
    }

    #[test]
    fn storage_env_parses_a_row_count() {
        for var in ROW_VARS {
            assert_eq!(parse_rows(var, Some("400")), Some(400));
            // "0" parses (it is not malformed) but resolves to disabled
            // below.
            assert_eq!(parse_rows(var, Some("0")), Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "WG_STORAGE_BUDGET_ROWS")]
    fn storage_env_malformed_panics_at_startup() {
        parse_rows("WG_STORAGE_BUDGET_ROWS", Some("lots"));
    }

    #[test]
    #[should_panic(expected = "WG_CACHE_ROWS")]
    fn cache_env_malformed_panics_at_startup() {
        parse_rows("WG_CACHE_ROWS", Some("-1"));
    }

    #[test]
    fn explicit_storage_config_wins_over_env() {
        // `resolved_storage` short-circuits on the explicit setting, so
        // these hold regardless of the ambient WG_STORAGE_BUDGET_ROWS —
        // including under the CI leg that forces ~25% residency.
        let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
        assert_eq!(
            cfg.clone().with_storage(123).resolved_storage(),
            Some(StorageConfig { budget_rows: 123 })
        );
        // Zero pins the tier off even when the environment enables it.
        assert_eq!(cfg.with_storage(0).resolved_storage(), None);
    }

    #[test]
    fn zero_row_cache_resolves_to_disabled() {
        let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
        assert_eq!(
            cfg.with_cache(0, wg_mem::CacheMode::Static)
                .resolved_cache(),
            None
        );
    }
}

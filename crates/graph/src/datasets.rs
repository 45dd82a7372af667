//! Scaled stand-ins for the paper's evaluation datasets (Table II).
//!
//! | Graph            | Nodes  | Edges | Features | our generator |
//! |------------------|--------|-------|----------|---------------|
//! | ogbn-products    | 2.4 M  | 61.9 M| 100      | SBM + class features (learnable) |
//! | ogbn-papers100M  | 111.1 M| 1.6 B | 128      | SBM + class features (learnable) |
//! | Friendster       | 68.3 M | 2.6 B | 128      | R-MAT + random features |
//! | UK_domain        | 105.2 M| 3.3 B | 128      | R-MAT + random features |
//!
//! A dataset is generated at `1/scale` of the paper's node count with the
//! paper's average degree and feature width preserved, so per-batch data
//! volumes (the quantity every performance figure depends on) match the
//! paper's shape. Label splits follow the paper: OGB-style splits for the
//! learnable graphs; for Friendster/UK_domain "the ratio of labels ... is
//! 1%, making 80% of the label data to be trained data, 10% to be test
//! data, and 10% to be validation data".

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::csr::Csr;
use crate::gen;
use crate::NodeId;

/// The four evaluation graphs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DatasetKind {
    /// Amazon co-purchasing network (OGB).
    OgbnProducts,
    /// 111M-paper citation graph (OGB).
    OgbnPapers100M,
    /// Friendster social network (KONECT).
    Friendster,
    /// UK web domain graph (KONECT).
    UkDomain,
}

impl DatasetKind {
    /// All four, in Table II order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::OgbnProducts,
        DatasetKind::OgbnPapers100M,
        DatasetKind::Friendster,
        DatasetKind::UkDomain,
    ];

    /// Display name as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::OgbnProducts => "ogbn-products",
            DatasetKind::OgbnPapers100M => "ogbn-papers100M",
            DatasetKind::Friendster => "Friendster",
            DatasetKind::UkDomain => "UK_domain",
        }
    }

    /// Paper-scale `(nodes, undirected_edges, feature_dim)` from Table II.
    pub fn paper_stats(self) -> (u64, u64, usize) {
        match self {
            DatasetKind::OgbnProducts => (2_400_000, 61_900_000, 100),
            DatasetKind::OgbnPapers100M => (111_100_000, 1_600_000_000, 128),
            DatasetKind::Friendster => (68_300_000, 2_600_000_000, 128),
            DatasetKind::UkDomain => (105_200_000, 3_300_000_000, 128),
        }
    }

    /// Whether the graph has real (learnable) labels in the paper — the
    /// OGB graphs do; Friendster/UK_domain are performance-only.
    pub fn learnable(self) -> bool {
        matches!(
            self,
            DatasetKind::OgbnProducts | DatasetKind::OgbnPapers100M
        )
    }

    /// Classes our stand-in uses (the real counts are 47 / 172; we keep
    /// them smaller at reduced scale so every class keeps enough support).
    pub fn num_classes(self) -> usize {
        match self {
            DatasetKind::OgbnProducts => 16,
            DatasetKind::OgbnPapers100M => 32,
            // Labels exist only to drive the training loop.
            DatasetKind::Friendster | DatasetKind::UkDomain => 8,
        }
    }
}

/// Degree profile for the learnable (SBM-backed) stand-ins.
///
/// The default [`Uniform`](DegreeProfile::Uniform) profile draws SBM
/// edge endpoints uniformly — simple, but it flattens the degree
/// distribution real OGB graphs have, which in turn flattens node
/// *access* skew downstream (a feature cache over a uniform-degree
/// graph sees an artificially cold epoch stream). The opt-in
/// [`PowerLaw`](DegreeProfile::PowerLaw) profile draws endpoints with
/// probability ∝ `(rank+1)^-alpha` over a seeded permutation
/// ([`gen::sbm_powerlaw`]), restoring the calibrated heavy tail. The
/// R-MAT stand-ins (Friendster/UK_domain) are heavy-tailed either way
/// and ignore the profile.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DegreeProfile {
    /// Uniform endpoint choice — byte-identical to the historical
    /// [`SyntheticDataset::generate`] output.
    Uniform,
    /// Power-law endpoint weights `(rank+1)^-alpha`; `alpha` ≈ 1.05
    /// reproduces an ogbn-products-like tail at reduced scale.
    PowerLaw {
        /// Power-law exponent (0 = uniform weights).
        alpha: f64,
    },
}

/// A generated dataset: graph, features, labels and splits.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// Which paper graph this stands in for.
    pub kind: DatasetKind,
    /// Scale divisor applied to the paper's node count.
    pub scale: u64,
    /// The graph (symmetrized).
    pub graph: Csr,
    /// Row-major `num_nodes × feature_dim`.
    pub features: Vec<f32>,
    /// Feature width (paper's: 100 or 128).
    pub feature_dim: usize,
    /// Per-node class labels.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Training node ids.
    pub train: Vec<NodeId>,
    /// Validation node ids.
    pub val: Vec<NodeId>,
    /// Test node ids.
    pub test: Vec<NodeId>,
}

impl SyntheticDataset {
    /// Generate the stand-in for `kind` at `1/scale` of paper size with
    /// the default [`DegreeProfile::Uniform`] profile.
    pub fn generate(kind: DatasetKind, scale: u64, seed: u64) -> Self {
        Self::generate_with_profile(kind, scale, seed, DegreeProfile::Uniform)
    }

    /// Generate with an explicit degree profile. `Uniform` is
    /// byte-identical to [`generate`](Self::generate); `PowerLaw` swaps
    /// the learnable graphs' SBM for [`gen::sbm_powerlaw`] (labels,
    /// features, and splits are derived the same way in both).
    pub fn generate_with_profile(
        kind: DatasetKind,
        scale: u64,
        seed: u64,
        profile: DegreeProfile,
    ) -> Self {
        assert!(scale >= 1);
        let (paper_nodes, paper_edges, feature_dim) = kind.paper_stats();
        let n = (paper_nodes / scale).max(1000) as usize;
        // Stored (directed) degree after symmetrization = 2·E/N, preserved
        // across scaling.
        let avg_degree = 2.0 * paper_edges as f64 / paper_nodes as f64;
        let num_classes = kind.num_classes();

        let (graph, labels, features) = if kind.learnable() {
            let (g, labels) = match profile {
                DegreeProfile::Uniform => gen::sbm(n, num_classes, avg_degree, 0.85, seed),
                DegreeProfile::PowerLaw { alpha } => {
                    gen::sbm_powerlaw(n, num_classes, avg_degree, 0.85, alpha, seed)
                }
            };
            let features =
                gen::class_features(&labels, num_classes, feature_dim, 0.8, seed ^ 0xfeed);
            (g, labels, features)
        } else {
            let scale_log2 = (n as f64).log2().ceil() as u32;
            let edges = (n as f64 * avg_degree / 2.0) as usize;
            let g = gen::rmat(scale_log2, edges, seed);
            let n2 = g.num_nodes();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
            let labels: Vec<u32> = (0..n2)
                .map(|_| rng.gen_range(0..num_classes as u32))
                .collect();
            let features = gen::random_features(n2, feature_dim, seed ^ 0xbeef);
            (g, labels, features)
        };

        let n = graph.num_nodes();
        let mut order: Vec<NodeId> = (0..n as u64).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x51137));
        // Split fractions: OGB-like for learnable graphs; the paper's
        // 1%-labels / 80-10-10 for the KONECT graphs.
        let (f_train, f_val, f_test) = if kind.learnable() {
            (0.08, 0.01, 0.01)
        } else {
            (0.008, 0.001, 0.001)
        };
        let n_train = ((n as f64 * f_train) as usize).max(1);
        let n_val = ((n as f64 * f_val) as usize).max(1);
        let n_test = ((n as f64 * f_test) as usize).max(1);
        let train = order[..n_train].to_vec();
        let val = order[n_train..n_train + n_val].to_vec();
        let test = order[n_train + n_val..n_train + n_val + n_test].to_vec();

        SyntheticDataset {
            kind,
            scale,
            graph,
            features,
            feature_dim,
            labels,
            num_classes,
            train,
            val,
            test,
        }
    }

    /// Generate a stand-in configured for *out-of-core* runs: the graph
    /// is built with a heavy-tailed degree profile (power-law SBM for
    /// the learnable graphs; R-MAT is heavy-tailed already) so that a
    /// hotness-ranked residency set covers most accesses, and the
    /// returned budget keeps only `resident_fraction` of the feature
    /// rows DSM-resident — reads of the rest are priced as NVMe reads by
    /// the disk tier below it, while the DSM still serves their values.
    /// Feed the budget to `PipelineConfig::with_storage` (`wg train
    /// --storage-rows`) to exercise the disk tier.
    pub fn generate_out_of_core(
        kind: DatasetKind,
        scale: u64,
        seed: u64,
        resident_fraction: f64,
    ) -> (Self, usize) {
        let d =
            Self::generate_with_profile(kind, scale, seed, DegreeProfile::PowerLaw { alpha: 1.05 });
        let budget = d.storage_budget_rows(resident_fraction);
        (d, budget)
    }

    /// Feature-row budget that keeps `resident_fraction` of this
    /// dataset's rows DSM-resident (clamped to `[0, 1]`; at least one
    /// row whenever the fraction is nonzero, so "a sliver resident"
    /// never degenerates to a fully-disk run by rounding).
    pub fn storage_budget_rows(&self, resident_fraction: f64) -> usize {
        let f = resident_fraction.clamp(0.0, 1.0);
        let rows = (self.num_nodes() as f64 * f).round() as usize;
        if f > 0.0 {
            rows.max(1).min(self.num_nodes())
        } else {
            0
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Stored (directed) edge count.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stats_match_table2() {
        let (n, e, f) = DatasetKind::OgbnPapers100M.paper_stats();
        assert_eq!((n, e, f), (111_100_000, 1_600_000_000, 128));
        assert_eq!(DatasetKind::OgbnProducts.paper_stats().2, 100);
        assert_eq!(DatasetKind::ALL.len(), 4);
    }

    #[test]
    fn products_standin_preserves_degree_and_width() {
        let d = SyntheticDataset::generate(DatasetKind::OgbnProducts, 200, 1);
        let (pn, pe, pf) = DatasetKind::OgbnProducts.paper_stats();
        let paper_degree = 2.0 * pe as f64 / pn as f64;
        assert!(
            (d.graph.avg_degree() - paper_degree).abs() / paper_degree < 0.15,
            "degree {} vs paper {paper_degree}",
            d.graph.avg_degree()
        );
        assert_eq!(d.feature_dim, pf);
        assert_eq!(d.features.len(), d.num_nodes() * pf);
        assert_eq!(d.labels.len(), d.num_nodes());
    }

    #[test]
    fn splits_are_disjoint() {
        let d = SyntheticDataset::generate(DatasetKind::OgbnProducts, 400, 2);
        let mut all: Vec<NodeId> = d
            .train
            .iter()
            .chain(&d.val)
            .chain(&d.test)
            .copied()
            .collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "splits overlap");
        assert!(!d.train.is_empty() && !d.val.is_empty() && !d.test.is_empty());
    }

    #[test]
    fn konect_standins_use_sparse_labels() {
        let d = SyntheticDataset::generate(DatasetKind::Friendster, 2000, 3);
        // ~0.8% of nodes in train (1% labels × 80%).
        let frac = d.train.len() as f64 / d.num_nodes() as f64;
        assert!(frac < 0.02, "train fraction {frac}");
        assert!(!DatasetKind::Friendster.learnable());
    }

    #[test]
    fn uniform_profile_matches_default_generate() {
        let a = SyntheticDataset::generate(DatasetKind::OgbnProducts, 1500, 5);
        let b = SyntheticDataset::generate_with_profile(
            DatasetKind::OgbnProducts,
            1500,
            5,
            DegreeProfile::Uniform,
        );
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.train, b.train);
    }

    #[test]
    fn powerlaw_profile_grows_a_heavy_tail() {
        let uniform = SyntheticDataset::generate(DatasetKind::OgbnProducts, 1500, 5);
        let skewed = SyntheticDataset::generate_with_profile(
            DatasetKind::OgbnProducts,
            1500,
            5,
            DegreeProfile::PowerLaw { alpha: 1.05 },
        );
        // Same shape, very different tail.
        assert_eq!(skewed.num_nodes(), uniform.num_nodes());
        assert!(
            (skewed.graph.avg_degree() - uniform.graph.avg_degree()).abs()
                / uniform.graph.avg_degree()
                < 0.15
        );
        assert!(skewed.graph.max_degree() > 2 * uniform.graph.max_degree());
        // Still deterministic.
        let again = SyntheticDataset::generate_with_profile(
            DatasetKind::OgbnProducts,
            1500,
            5,
            DegreeProfile::PowerLaw { alpha: 1.05 },
        );
        assert_eq!(skewed.graph, again.graph);
        assert_eq!(skewed.features, again.features);
    }

    #[test]
    fn out_of_core_config_budgets_a_resident_fraction() {
        let (d, budget) =
            SyntheticDataset::generate_out_of_core(DatasetKind::OgbnProducts, 1500, 5, 0.25);
        assert_eq!(budget, (d.num_nodes() as f64 * 0.25).round() as usize);
        assert!(budget > 0 && budget < d.num_nodes());
        // The profile is the heavy-tailed one, so a hotness-ranked
        // residency set is meaningful (the uniform profile's flat
        // degrees would make residency choice arbitrary).
        let uniform = SyntheticDataset::generate(DatasetKind::OgbnProducts, 1500, 5);
        assert!(d.graph.max_degree() > 2 * uniform.graph.max_degree());
        // Edge cases: zero fraction disables the residency set entirely;
        // a sliver never rounds down to fully-disk; ≥ 1.0 is everything.
        assert_eq!(d.storage_budget_rows(0.0), 0);
        assert_eq!(d.storage_budget_rows(1e-9), 1);
        assert_eq!(d.storage_budget_rows(1.5), d.num_nodes());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(DatasetKind::UkDomain, 4000, 9);
        let b = SyntheticDataset::generate(DatasetKind::UkDomain, 4000, 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.train, b.train);
        assert_eq!(a.features, b.features);
    }
}

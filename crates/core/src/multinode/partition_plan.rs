//! The machine-level partition behind a multi-node run.
//!
//! One [`wg_graph::HashPartition`] over the dataset's stable node ids
//! assigns every vertex an owning *machine* (a level above the per-GPU
//! partition inside each node's DSM store). The plan derives each node's
//! training shard — the train vertices it owns, in dataset order — and
//! the partition's quality statistics (edge cut, boundary set, balance),
//! which bound the halo traffic the executed pipelines will pay.

use std::sync::Arc;

use wg_graph::{HashPartition, NodeId, PartitionQuality, SyntheticDataset};

/// The machine-level partition plus derived per-node training shards.
pub struct PartitionPlan {
    partition: Arc<HashPartition>,
    quality: PartitionQuality,
    local_train: Vec<Vec<NodeId>>,
}

impl PartitionPlan {
    /// Partition `dataset` over `nodes` machines by node-ID hash.
    ///
    /// The per-node training shards preserve the dataset's train-split
    /// order, so at `nodes == 1` the single shard *is* `dataset.train` —
    /// the first link in the N=1 bit-identity chain.
    pub fn new(dataset: &SyntheticDataset, nodes: u32) -> Self {
        assert!(nodes >= 1, "a plan needs at least one machine");
        let partition = Arc::new(HashPartition::new(dataset.graph.num_nodes(), nodes));
        let quality = partition.quality(&dataset.graph);
        let mut local_train: Vec<Vec<NodeId>> = vec![Vec::new(); nodes as usize];
        for &v in &dataset.train {
            local_train[partition.rank_of(v) as usize].push(v);
        }
        PartitionPlan {
            partition,
            quality,
            local_train,
        }
    }

    /// Number of machines.
    pub fn nodes(&self) -> u32 {
        self.partition.ranks()
    }

    /// The underlying machine-level partition (shared with each replica's
    /// halo accounting).
    pub fn partition(&self) -> &Arc<HashPartition> {
        &self.partition
    }

    /// Partition quality against the dataset's graph.
    pub fn quality(&self) -> &PartitionQuality {
        &self.quality
    }

    /// Training vertices owned by `node`, in dataset train-split order.
    pub fn local_train(&self, node: u32) -> &[NodeId] {
        &self.local_train[node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_graph::DatasetKind;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetKind::OgbnProducts, 1500, 5)
    }

    #[test]
    fn single_node_shard_is_the_whole_train_split_in_order() {
        let ds = dataset();
        let plan = PartitionPlan::new(&ds, 1);
        assert_eq!(plan.local_train(0), &ds.train[..]);
        assert_eq!(plan.quality().edge_cut, 0);
    }

    #[test]
    fn shards_are_a_disjoint_cover_of_the_train_split() {
        let ds = dataset();
        let plan = PartitionPlan::new(&ds, 4);
        let mut seen = std::collections::HashSet::new();
        for k in 0..4 {
            for &v in plan.local_train(k) {
                assert_eq!(plan.partition().rank_of(v), k);
                assert!(seen.insert(v), "vertex {v} in two shards");
            }
        }
        assert_eq!(seen.len(), ds.train.len());
        // Hash sharding of a sizeable train split stays roughly balanced:
        // the largest shard is under 1.5x the ideal size.
        let largest = (0..4).map(|k| plan.local_train(k).len()).max().unwrap();
        let imbalance = largest as f64 * 4.0 / ds.train.len() as f64;
        assert!(imbalance < 1.5, "train imbalance {imbalance}");
    }

    #[test]
    fn shards_preserve_dataset_order() {
        let ds = dataset();
        let plan = PartitionPlan::new(&ds, 3);
        for k in 0..3 {
            let shard = plan.local_train(k);
            let filtered: Vec<_> = ds
                .train
                .iter()
                .copied()
                .filter(|&v| plan.partition().rank_of(v) == k)
                .collect();
            assert_eq!(shard, &filtered[..]);
        }
    }
}

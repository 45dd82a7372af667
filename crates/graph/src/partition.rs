//! Hash partitioning of nodes onto GPUs.
//!
//! §III-B: "We partition the nodes of the graph to different GPUs according
//! to the node ID hash value." Each node gets an owning rank from a 64-bit
//! mix hash of its ID and a dense local index on that rank; the (rank,
//! local) pair is its [`GlobalId`]. The partition also knows how to map a
//! node onto a row of a chunk-partitioned [`wg_mem::WholeMemory`]: row
//! `rank · rows_per_rank + local`, where `rows_per_rank` is the maximum
//! per-rank node count (ranks with fewer nodes leave a little padding —
//! the price of fixed-stride addressing, just like the real library's
//! per-rank `cudaMalloc`s of equal size).

use crate::global_id::GlobalId;
use crate::NodeId;

/// Deterministic 64-bit mix (splitmix64 finalizer) — a stand-in for the
/// node-ID hash the paper partitions with.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A hash partition of `num_nodes` nodes over `ranks` GPUs.
#[derive(Clone, Debug)]
pub struct HashPartition {
    ranks: u32,
    rank_of: Vec<u32>,
    local_of: Vec<u64>,
    /// `nodes_of[rank][local]` = original node id (the inverse mapping).
    nodes_of: Vec<Vec<NodeId>>,
}

impl HashPartition {
    /// Partition `num_nodes` nodes over `ranks` GPUs by ID hash.
    pub fn new(num_nodes: usize, ranks: u32) -> Self {
        assert!(ranks > 0);
        let mut rank_of = vec![0u32; num_nodes];
        let mut local_of = vec![0u64; num_nodes];
        let mut nodes_of: Vec<Vec<NodeId>> = vec![Vec::new(); ranks as usize];
        for v in 0..num_nodes {
            let r = (mix64(v as u64) % ranks as u64) as u32;
            rank_of[v] = r;
            local_of[v] = nodes_of[r as usize].len() as u64;
            nodes_of[r as usize].push(v as NodeId);
        }
        HashPartition {
            ranks,
            rank_of,
            local_of,
            nodes_of,
        }
    }

    /// Number of nodes partitioned.
    pub fn num_nodes(&self) -> usize {
        self.rank_of.len()
    }

    /// Owning rank of a node.
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank_of[v as usize]
    }

    /// GlobalId of a node.
    #[inline]
    pub fn global_id(&self, v: NodeId) -> GlobalId {
        GlobalId::new(self.rank_of[v as usize], self.local_of[v as usize])
    }

    /// Original node id of a GlobalId.
    #[inline]
    pub fn node_of(&self, g: GlobalId) -> NodeId {
        self.nodes_of[g.rank() as usize][g.local() as usize]
    }

    /// Nodes owned by `rank`, in local-id order.
    pub fn nodes_on_rank(&self, rank: u32) -> &[NodeId] {
        &self.nodes_of[rank as usize]
    }

    /// The fixed per-rank stride for DSM addressing: the largest per-rank
    /// node count.
    pub fn rows_per_rank(&self) -> usize {
        self.nodes_of.iter().map(Vec::len).max().unwrap_or(0).max(1)
    }

    /// Total padded row count for a node-indexed WholeMemory.
    pub fn padded_rows(&self) -> usize {
        self.rows_per_rank() * self.ranks as usize
    }

    /// The DSM row a node's data lives at.
    #[inline]
    pub fn dsm_row(&self, v: NodeId) -> usize {
        self.rank_of[v as usize] as usize * self.rows_per_rank()
            + self.local_of[v as usize] as usize
    }

    /// Imbalance of the partition: max per-rank count over the ideal
    /// `num_nodes / ranks` (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let ideal = self.num_nodes() as f64 / self.ranks as f64;
        if ideal == 0.0 {
            return 1.0;
        }
        self.rows_per_rank() as f64 / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_node_gets_exactly_one_slot() {
        let p = HashPartition::new(1000, 8);
        let total: usize = (0..8).map(|r| p.nodes_on_rank(r).len()).sum();
        assert_eq!(total, 1000);
        for v in 0..1000u64 {
            let g = p.global_id(v);
            assert_eq!(p.node_of(g), v);
            assert_eq!(g.rank(), p.rank_of(v));
        }
    }

    #[test]
    fn hash_partition_is_balanced() {
        // With a good mix hash, per-rank counts on a large graph stay
        // within a few percent of ideal.
        let p = HashPartition::new(100_000, 8);
        assert!(p.imbalance() < 1.05, "imbalance = {}", p.imbalance());
    }

    #[test]
    fn dsm_rows_are_unique_and_in_range() {
        let p = HashPartition::new(500, 4);
        let mut seen = std::collections::HashSet::new();
        for v in 0..500u64 {
            let row = p.dsm_row(v);
            assert!(row < p.padded_rows());
            assert!(seen.insert(row), "row collision at node {v}");
            // Row falls inside the owning rank's chunk.
            assert_eq!(row / p.rows_per_rank(), p.rank_of(v) as usize);
        }
    }

    #[test]
    fn single_rank_partition() {
        let p = HashPartition::new(10, 1);
        for v in 0..10u64 {
            assert_eq!(p.rank_of(v), 0);
            assert_eq!(p.dsm_row(v), p.global_id(v).local() as usize);
        }
        assert_eq!(p.padded_rows(), 10);
    }

    #[test]
    fn partition_is_deterministic() {
        let a = HashPartition::new(777, 8);
        let b = HashPartition::new(777, 8);
        for v in 0..777u64 {
            assert_eq!(a.global_id(v), b.global_id(v));
        }
    }

    #[test]
    fn every_vertex_assigned_exactly_once_on_rmat() {
        // Partition invariant 1: the per-rank lists are a disjoint cover
        // of the vertex set.
        let g = crate::gen::rmat(9, 4096, 42);
        let p = HashPartition::new(g.num_nodes(), 8);
        let mut owner_count = vec![0u32; g.num_nodes()];
        for r in 0..8 {
            for &v in p.nodes_on_rank(r) {
                owner_count[v as usize] += 1;
                assert_eq!(p.rank_of(v), r);
            }
        }
        assert!(owner_count.iter().all(|&c| c == 1));
    }

    #[test]
    fn balance_factor_within_bound_on_rmat() {
        // Partition invariant 2: the hash spreads even a skewed RMAT
        // vertex set to within ~10% of ideal at this size.
        let g = crate::gen::rmat(13, 16384, 7);
        for ranks in [2u32, 4, 8] {
            let p = HashPartition::new(g.num_nodes(), ranks);
            assert!(
                p.imbalance() < 1.15,
                "ranks={ranks} imbalance={}",
                p.imbalance()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn roundtrip_for_any_shape(n in 1usize..2000, ranks in 1u32..16) {
            let p = HashPartition::new(n, ranks);
            for v in (0..n as u64).step_by((n / 50).max(1)) {
                prop_assert_eq!(p.node_of(p.global_id(v)), v);
            }
            prop_assert!(p.rows_per_rank() * ranks as usize >= n);
        }
    }
}

//! Cost models for collective communication.
//!
//! WholeGraph uses an AllGather during distributed-shared-memory setup
//! (§III-B: exchanging CUDA IPC handles), AlltoAllV inside the NCCL-based
//! gather baseline (Figure 4, left), and AllReduce for gradient
//! synchronization in data-parallel multi-node training (§III-D).
//!
//! The models are standard ring-algorithm estimates: a ring collective over
//! `g` ranks moves `(g-1)/g` of the payload through each rank's link and
//! pays `O(g)` per-step latencies.

use crate::cost::CostModel;
use crate::time::SimTime;

/// Ring AllReduce of `bytes` per rank across `ranks` GPUs on one node
/// (NVLink): reduce-scatter + all-gather, each moving `(g-1)/g · bytes`.
pub fn allreduce_intra_node(model: &CostModel, bytes: u64, ranks: u32) -> SimTime {
    if ranks <= 1 || bytes == 0 {
        return SimTime::from_secs(model.nccl_op_overhead_s);
    }
    let g = ranks as f64;
    let moved = 2.0 * (g - 1.0) / g * bytes as f64;
    let steps = 2.0 * (g - 1.0);
    SimTime::from_secs(
        model.nccl_op_overhead_s
            + steps * model.p2p_base_latency_s
            + moved / model.topology.nvlink_bandwidth,
    )
}

/// AllGather of `bytes_per_rank` across `ranks` GPUs on one node — the IPC
/// handle exchange of §III-B (tiny payloads; latency-dominated).
pub fn allgather_intra_node(model: &CostModel, bytes_per_rank: u64, ranks: u32) -> SimTime {
    if ranks <= 1 {
        return SimTime::from_secs(model.nccl_op_overhead_s);
    }
    let g = ranks as f64;
    let moved = (g - 1.0) * bytes_per_rank as f64;
    SimTime::from_secs(
        model.nccl_op_overhead_s
            + (g - 1.0) * model.p2p_base_latency_s
            + moved / model.topology.nvlink_bandwidth,
    )
}

/// AlltoAllV where each of `ranks` GPUs sends `bytes_per_rank` in total,
/// split (in expectation) evenly across peers — step 4 of the NCCL-based
/// gather in Figure 4. The per-rank link carries `(g-1)/g` of its payload.
pub fn alltoallv_intra_node(model: &CostModel, bytes_per_rank: u64, ranks: u32) -> SimTime {
    if ranks <= 1 || bytes_per_rank == 0 {
        return SimTime::from_secs(model.nccl_op_overhead_s);
    }
    let g = ranks as f64;
    let moved = (g - 1.0) / g * bytes_per_rank as f64;
    SimTime::from_secs(
        model.nccl_op_overhead_s
            + (g - 1.0) * model.p2p_base_latency_s
            + moved / model.topology.nvlink_bandwidth,
    )
}

/// The inter-node stage of the hierarchical AllReduce (§III-D; the
/// intra-node stage is [`allreduce_intra_node`]): a ring over `nodes`
/// machines, `bytes` per node over the node's aggregate IB bandwidth.
///
/// Exactly **zero** (not overhead-only) at `nodes <= 1`: a single node
/// never touches the IB fabric, and the multi-node executor relies on
/// this so that N=1 execution is time-identical to the single-node
/// pipeline.
pub fn allreduce_inter_node(model: &CostModel, bytes: u64, nodes: u32) -> SimTime {
    if nodes <= 1 || bytes == 0 {
        return SimTime::ZERO;
    }
    let n = nodes as f64;
    let moved = 2.0 * (n - 1.0) / n * bytes as f64;
    let steps = 2.0 * (n - 1.0);
    SimTime::from_secs(
        model.nccl_op_overhead_s
            + steps * model.ib_latency_s
            + moved / model.topology.node_ib_bandwidth(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_scales_sublinearly_with_ranks() {
        let m = CostModel::dgx_a100();
        let b = 100 * (1 << 20);
        let t2 = allreduce_intra_node(&m, b, 2);
        let t8 = allreduce_intra_node(&m, b, 8);
        // Ring AllReduce volume per link grows from (1/2)·2B to (7/8)·2B —
        // less than 2x even though ranks grew 4x.
        assert!(t8 > t2);
        assert!(t8 / t2 < 2.0);
    }

    #[test]
    fn single_rank_collectives_cost_only_overhead() {
        let m = CostModel::dgx_a100();
        let t = allreduce_intra_node(&m, 1 << 30, 1);
        assert!((t.as_micros() - m.nccl_op_overhead_s * 1e6).abs() < 1e-9);
    }

    #[test]
    fn allgather_of_ipc_handles_is_sub_millisecond() {
        // §III-B says the whole DSM setup takes tens to ~200 ms; the handle
        // exchange itself (64-byte handles) must be trivially small.
        let m = CostModel::dgx_a100();
        let t = allgather_intra_node(&m, 64, 8);
        assert!(t.as_millis() < 1.0);
    }

    #[test]
    fn multi_node_allreduce_adds_ib_term() {
        let m = CostModel::dgx_a100();
        let b = 200 * (1 << 20); // ~200 MB of gradients
        let four = allreduce_inter_node(&m, b, 4);
        assert!(four > SimTime::ZERO);
        // The inter-node term is bounded by 2·bytes/IB-bandwidth plus
        // overheads — check it's in the right ballpark (not 100x off).
        let extra = four.as_secs();
        let bound = 2.0 * b as f64 / m.topology.node_ib_bandwidth();
        assert!(extra < 2.0 * bound + 1e-3);
        assert!(extra > 0.25 * bound);
    }

    #[test]
    fn inter_node_term_is_exactly_zero_on_one_node() {
        // A single node never touches IB — the multi-node executor's N=1
        // bit/time identity depends on this being ZERO, not overhead-only.
        let m = CostModel::dgx_a100();
        assert!(allreduce_inter_node(&m, 1 << 30, 1).is_zero());
        assert!(allreduce_inter_node(&m, 0, 8).is_zero());
    }

    #[test]
    fn inter_node_term_grows_with_node_count() {
        let m = CostModel::dgx_a100();
        let b = 200 * (1 << 20);
        let t2 = allreduce_inter_node(&m, b, 2);
        let t8 = allreduce_inter_node(&m, b, 8);
        assert!(t8 > t2);
        // Ring volume per link is bounded by 2·bytes; sublinear in nodes.
        assert!(t8 / t2 < 2.0);
    }

    #[test]
    fn alltoallv_moves_seven_eighths() {
        let m = CostModel::dgx_a100();
        let b = 1u64 << 30;
        let t = alltoallv_intra_node(&m, b, 8);
        let ideal = (7.0 / 8.0) * b as f64 / m.topology.nvlink_bandwidth;
        assert!(t.as_secs() > ideal);
        assert!(t.as_secs() < ideal * 1.2);
    }
}

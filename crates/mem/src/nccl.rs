//! The distributed-memory gather baseline (Figure 4, left; Figure 10).
//!
//! When the GPUs are treated as a *distributed* memory system, no GPU can
//! dereference another's pointers, so gathering remote feature rows takes
//! explicit NCCL-style communication in five steps:
//!
//! 1. **Bucket** the requested node IDs by home GPU (so each GPU pair needs
//!    only one send/recv);
//! 2. **Exchange counts**, then AlltoAllV the **node IDs** to their home
//!    GPUs;
//! 3. Every GPU performs a **local gather** of the rows requested from it;
//! 4. AlltoAllV the **feature rows** back to the requesters (the step whose
//!    bandwidth the paper reports in Figure 10);
//! 5. **Reorder** the received rows into the original request order.
//!
//! Each step's real data movement is executed, and each step is charged
//! simulated time, so Figure 10's comparison (one-kernel DSM gather vs this
//! pipeline) falls out of the same cost model. The DSM side of that
//! comparison is [`crate::gather::global_gather`] — the gather's empty
//! tier stack, no cache and no disk tier — because the paper compares
//! the two *protocols*; this baseline deliberately has no tiers either.

use rayon::prelude::*;

use wg_sim::collective::alltoallv_intra_node;
use wg_sim::device::DeviceSpec;
use wg_sim::{CostModel, SimTime};

use crate::access::Element;
use crate::handle::WholeMemory;

/// Efficiency of a random-row gather out of local HBM relative to streaming
/// bandwidth (each row is a separate cache line burst).
const LOCAL_GATHER_EFFICIENCY: f64 = 0.35;
/// Efficiency of the final reorder (sequential read, scattered write).
const REORDER_EFFICIENCY: f64 = 0.5;
/// Fraction of NVLink peak an NCCL AlltoAllV achieves in steady state
/// (protocol overhead, chunking) — Figure 10 shows it close to, but below,
/// the measured link limit.
const NCCL_LINK_EFFICIENCY: f64 = 0.8;

/// Per-step and total timing of one distributed-memory gather.
#[derive(Clone, Copy, Debug)]
pub struct NcclGatherStats {
    /// Step 1: bucketing node IDs by home GPU.
    pub bucket_time: SimTime,
    /// Step 2: exchanging counts + AlltoAllV of node IDs.
    pub id_exchange_time: SimTime,
    /// Step 3: local gather on every home GPU.
    pub local_gather_time: SimTime,
    /// Step 4: AlltoAllV of the gathered feature rows.
    pub feature_exchange_time: SimTime,
    /// Step 5: reorder into request order.
    pub reorder_time: SimTime,
    /// Bytes of feature payload that crossed NVLink in step 4.
    pub bus_bytes: u64,
}

impl NcclGatherStats {
    /// End-to-end simulated time (the five steps run back-to-back).
    pub fn total_time(&self) -> SimTime {
        self.bucket_time
            + self.id_exchange_time
            + self.local_gather_time
            + self.feature_exchange_time
            + self.reorder_time
    }

    /// BusBW of the step-4 AlltoAllV alone — what the paper's Figure 10
    /// bars report for the NCCL-based method.
    pub fn alltoallv_bus_bandwidth(&self) -> f64 {
        self.bus_bytes as f64 / self.feature_exchange_time.as_secs()
    }
}

/// Gather `indices` from `wm` into `out` using the 5-step
/// distributed-memory protocol. Produces bitwise the same `out` as
/// [`crate::gather::global_gather`].
pub fn nccl_gather<T: Element>(
    wm: &WholeMemory<T>,
    indices: &[usize],
    out: &mut [T],
    executing_rank: u32,
    model: &CostModel,
    spec: &DeviceSpec,
) -> NcclGatherStats {
    let width = wm.width();
    assert_eq!(
        out.len(),
        indices.len() * width,
        "gather output buffer has wrong size"
    );
    let ranks = wm.ranks() as usize;
    let partition = wm.partition();
    let id_bytes = std::mem::size_of::<u64>() as u64;
    let row_bytes = (width * std::mem::size_of::<T>()) as u64;

    // ---- Step 1: bucket node IDs by home GPU, remembering original slots.
    let mut buckets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ranks]; // (orig_pos, row)
    for (pos, &row) in indices.iter().enumerate() {
        buckets[partition.locate(row).device_rank as usize].push((pos, row));
    }
    // Reading the ID list and writing the bucketed copy.
    let bucket_time = model.memory_stream_time(2 * indices.len() as u64 * id_bytes, spec);

    // ---- Step 2: exchange counts (latency-bound) + AlltoAllV of the IDs.
    let counts_time = SimTime::from_secs(model.nccl_op_overhead_s);
    let ids_time = alltoallv_intra_node(model, indices.len() as u64 * id_bytes, ranks as u32);
    let id_exchange_time = counts_time + ids_time;

    // ---- Step 3: every home GPU gathers the rows requested from it, out
    // of its local region. Real copy below; time charged at random-access
    // HBM efficiency.
    let gathered: Vec<Vec<T>> = buckets
        .par_iter()
        .enumerate()
        .map(|(rank, bucket)| {
            let mut buf = vec![T::default(); bucket.len() * width];
            let region = wm.region(rank as u32);
            for ((_, row), dst) in bucket.iter().zip(buf.chunks_mut(width)) {
                let local = partition.locate(*row).local_row;
                dst.copy_from_slice(&region[local * width..local * width + width]);
            }
            buf
        })
        .collect();
    let payload = indices.len() as u64 * row_bytes;
    let local_gather_time = model.memory_stream_time(
        (2.0 * payload as f64 / LOCAL_GATHER_EFFICIENCY) as u64,
        spec,
    );

    // ---- Step 4: AlltoAllV the feature rows back. Only rows whose home is
    // a *different* GPU cross the link.
    let remote_rows: usize = buckets
        .iter()
        .enumerate()
        .filter(|(rank, _)| *rank != executing_rank as usize)
        .map(|(_, b)| b.len())
        .sum();
    let bus_bytes = remote_rows as u64 * row_bytes;
    let ideal = alltoallv_intra_node(model, payload, ranks as u32);
    let feature_exchange_time = SimTime::from_secs(ideal.as_secs() / NCCL_LINK_EFFICIENCY);

    // ---- Step 5: reorder into the original request order (real copy).
    for (bucket, rows) in buckets.iter().zip(gathered.iter()) {
        for ((pos, _), src) in bucket.iter().zip(rows.chunks(width)) {
            out[pos * width..(pos + 1) * width].copy_from_slice(src);
        }
    }
    let reorder_time =
        model.memory_stream_time((2.0 * payload as f64 / REORDER_EFFICIENCY) as u64, spec);

    NcclGatherStats {
        bucket_time,
        id_exchange_time,
        local_gather_time,
        feature_exchange_time,
        reorder_time,
        bus_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::global_gather;
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use wg_sim::cost::AccessMode;

    fn setup(rows: usize, width: usize) -> (WholeMemory<f32>, CostModel, DeviceSpec) {
        let model = CostModel::dgx_a100();
        let mut wm = WholeMemory::<f32>::allocate(&model, 8, rows, width, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 31 + j) as f32;
            }
        });
        (wm, model, DeviceSpec::a100_40gb())
    }

    #[test]
    fn nccl_gather_matches_dsm_gather() {
        let (wm, model, spec) = setup(5000, 16);
        let mut rng = SmallRng::seed_from_u64(11);
        let indices: Vec<usize> = (0..1234).map(|_| rng.gen_range(0..5000)).collect();
        let mut a = vec![0.0f32; indices.len() * 16];
        let mut b = vec![0.0f32; indices.len() * 16];
        global_gather(&wm, &indices, &mut a, 2, &model, &spec);
        nccl_gather(&wm, &indices, &mut b, 2, &model, &spec);
        assert_eq!(a, b, "both gather implementations must agree bit-for-bit");
    }

    #[test]
    fn dsm_gather_is_at_least_2x_faster() {
        // Figure 10: "the speedups of time are above 2X on all of datasets".
        let (wm, model, spec) = setup(200_000, 128); // 512-byte rows as in papers100M
        let mut rng = SmallRng::seed_from_u64(3);
        let indices: Vec<usize> = (0..150_000).map(|_| rng.gen_range(0..200_000)).collect();
        let mut a = vec![0.0f32; indices.len() * 128];
        let mut b = vec![0.0f32; indices.len() * 128];
        let dsm = global_gather(&wm, &indices, &mut a, 0, &model, &spec);
        let nccl = nccl_gather(&wm, &indices, &mut b, 0, &model, &spec);
        let speedup = nccl.total_time() / dsm.sim_time;
        assert!(speedup > 2.0, "DSM/NCCL gather speedup = {speedup:.2}");
    }

    #[test]
    fn alltoallv_bandwidth_close_to_dsm_bandwidth() {
        // Figure 10: the two bandwidths "are close to each other and all
        // close to the measured NVLink upper limit".
        let (wm, model, spec) = setup(200_000, 128);
        let mut rng = SmallRng::seed_from_u64(5);
        let indices: Vec<usize> = (0..150_000).map(|_| rng.gen_range(0..200_000)).collect();
        let mut a = vec![0.0f32; indices.len() * 128];
        let mut b = vec![0.0f32; indices.len() * 128];
        let dsm = global_gather(&wm, &indices, &mut a, 0, &model, &spec);
        let nccl = nccl_gather(&wm, &indices, &mut b, 0, &model, &spec);
        let bw_dsm = dsm.bus_bandwidth();
        let bw_nccl = nccl.alltoallv_bus_bandwidth();
        let ratio = bw_dsm / bw_nccl;
        assert!(ratio > 0.7 && ratio < 1.4, "BusBW ratio {ratio:.2}");
        // Both within 40% of the measured NVLink saturation point.
        assert!(bw_dsm > 0.6 * model.gather_saturated_busbw);
        assert!(bw_nccl > 0.6 * model.gather_saturated_busbw);
    }

    #[test]
    fn step_times_are_all_positive_and_dominated_by_data_steps() {
        let (wm, model, spec) = setup(50_000, 128);
        let indices: Vec<usize> = (0..40_000).collect();
        let mut out = vec![0.0f32; indices.len() * 128];
        let s = nccl_gather(&wm, &indices, &mut out, 0, &model, &spec);
        for t in [
            s.bucket_time,
            s.id_exchange_time,
            s.local_gather_time,
            s.feature_exchange_time,
            s.reorder_time,
        ] {
            assert!(t > SimTime::ZERO);
        }
        // The ID-side steps are small next to the feature payload steps.
        assert!(s.bucket_time + s.id_exchange_time < s.local_gather_time + s.feature_exchange_time);
    }
}

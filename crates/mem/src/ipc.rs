//! The price of the distributed-shared-memory setup of §III-B.
//!
//! On the real system every GPU is driven by its own OS process, so device
//! pointers are not directly shareable; WholeGraph exchanges **CUDA IPC
//! handles** once, before training: each process `cudaMalloc`s its
//! partition, exports a handle with `cudaIpcGetMemHandle`, AllGathers the
//! handles, opens every peer handle with `cudaIpcOpenMemHandle`, and writes
//! the mapped pointers into a per-device *memory pointer table* (just
//! `num_gpus` pointers — 64 bytes on a DGX-A100).
//!
//! In this reproduction the pointer table is the rank-indexed region vector
//! of [`crate::WholeMemory`] itself, so there is nothing to exchange; the
//! protocol is priced, not re-enacted. [`setup_time`] is that price — the
//! paper notes it is "tens to one or two hundred milliseconds", paid once.

use wg_sim::collective::allgather_intra_node;
use wg_sim::{CostModel, SimTime};

/// Bytes of one exported handle on the AllGather: owning rank (`u32`),
/// region id (`u32`) and region size (`u64`).
pub const HANDLE_BYTES: u64 = 16;

/// `cudaMalloc` time model: a fixed driver overhead plus a per-byte cost of
/// mapping pages. Calibrated so an 8-GPU, multi-GB setup lands in the
/// paper's "tens to one or two hundred milliseconds".
fn malloc_time(bytes_per_rank: u64) -> SimTime {
    const FIXED_S: f64 = 1.0e-3;
    const PER_GIB_S: f64 = 8.0e-3;
    SimTime::from_secs(FIXED_S + bytes_per_rank as f64 / (1u64 << 30) as f64 * PER_GIB_S)
}

/// Per-handle `cudaIpcOpenMemHandle` cost (driver round-trip).
fn open_handle_time() -> SimTime {
    SimTime::from_micros(200.0)
}

/// Simulated time of the setup across `ranks` GPU processes, each exporting
/// a region of `bytes_per_rank` bytes: `cudaMalloc`, the AllGather of the
/// handles, and opening the `ranks - 1` peer handles.
pub fn setup_time(model: &CostModel, ranks: u32, bytes_per_rank: u64) -> SimTime {
    assert!(ranks > 0);
    malloc_time(bytes_per_rank)
        + allgather_intra_node(model, HANDLE_BYTES, ranks)
        + open_handle_time() * (ranks - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_time_is_tens_of_milliseconds() {
        // Paper §III-B: setup "is likely tens to one or two hundred of
        // milliseconds ... depending on the memory size".
        let model = CostModel::dgx_a100();
        let small = setup_time(&model, 8, 1 << 30); // 1 GiB/rank
        let large = setup_time(&model, 8, 16 * (1 << 30)); // 16 GiB/rank
        assert!(small.as_millis() > 1.0);
        assert!(large.as_millis() < 250.0);
        assert!(large > small);
    }

    #[test]
    fn setup_time_is_pinned_bit_for_bit() {
        // Recorded from the thread-per-rank handle exchange this function
        // replaced: pricing the protocol in closed form moved no bit.
        let model = CostModel::dgx_a100();
        let expect: [(u32, u64, u64); 9] = [
            (1, 1 << 10, 0x3f50b638da3c2119),
            (1, 1 << 30, 0x3f827913e81450f0),
            (1, 16 << 30, 0x3fc083ba3443d46b),
            (2, 1 << 10, 0x3f5402bed3754d36),
            (2, 1 << 30, 0x3f82e2a4a73b7675),
            (2, 16 << 30, 0x3fc08a53403646c4),
            (8, 1 << 10, 0x3f63e6f155662af6),
            (8, 1 << 30, 0x3f855c092226578b),
            (8, 16 << 30, 0x3fc0b1e987e4f4d5),
        ];
        for (ranks, bytes, bits) in expect {
            let got = setup_time(&model, ranks, bytes).as_secs().to_bits();
            assert_eq!(got, bits, "ranks {ranks}, {bytes} bytes/rank");
        }
    }
}

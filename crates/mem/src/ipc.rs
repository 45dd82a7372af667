//! The distributed-shared-memory setup protocol of §III-B.
//!
//! On the real system every GPU is driven by its own OS process, so device
//! pointers are not directly shareable; WholeGraph exchanges **CUDA IPC
//! handles**: each process `cudaMalloc`s its partition, exports a handle
//! with `cudaIpcGetMemHandle`, AllGathers the handles, opens every peer
//! handle with `cudaIpcOpenMemHandle`, and writes the resulting mapped
//! pointers into a per-device *memory pointer table* (just `num_gpus`
//! pointers — 64 bytes on a DGX-A100).
//!
//! We reproduce the protocol with one thread per simulated GPU process and
//! crossbeam channels as the interconnect: each worker "allocates" its
//! region id, broadcasts its handle, collects everyone else's, and builds
//! its pointer table. The returned [`SetupReport`] carries the simulated
//! setup time — which the paper notes is "tens to one or two hundred
//! milliseconds" and paid once before training.

use crossbeam::channel;
use wg_sim::collective::allgather_intra_node;
use wg_sim::{CostModel, SimTime};

/// An exported handle for one device's partition — the stand-in for a
/// `cudaIpcMemHandle_t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpcHandle {
    /// Rank of the exporting device.
    pub device_rank: u32,
    /// Identifier of the exported region (index into the region vector of
    /// the owning [`crate::WholeMemory`]).
    pub region_id: u32,
    /// Size of the exported region in bytes.
    pub bytes: u64,
}

/// The per-device table of mapped peer pointers (Figure 3). In the
/// simulation a "mapped pointer" is the peer's region id; the table is what
/// a gather kernel indexes with a row's owning rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryPointerTable {
    /// Rank of the device owning this table.
    pub device_rank: u32,
    /// `entries[r]` is the mapped handle of rank `r`'s region.
    pub entries: Vec<IpcHandle>,
}

/// Result of the setup protocol.
#[derive(Clone, Debug)]
pub struct SetupReport {
    /// One pointer table per device, indexed by rank.
    pub tables: Vec<MemoryPointerTable>,
    /// Simulated time the setup took (cudaMalloc + handle AllGather +
    /// opening peer handles).
    pub setup_time: SimTime,
}

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

/// Run the handle-exchange protocol across `ranks` simulated GPU processes,
/// each exporting a region of `bytes_per_rank` bytes.
///
/// One thread per rank exchanges handles over channels (a real AllGather
/// dataflow, not a loop over shared state), then each thread builds its
/// pointer table independently — exactly the structure of the CUDA code.
#[allow(clippy::needless_range_loop)] // the mesh construction reads more clearly indexed
pub fn exchange_handles(model: &CostModel, ranks: u32, bytes_per_rank: u64) -> SetupReport {
    assert!(ranks > 0);
    let n = ranks as usize;

    // Mesh of channels: senders[from][to].
    let mut senders: Vec<Vec<channel::Sender<IpcHandle>>> = (0..n).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<channel::Receiver<IpcHandle>>> =
        (0..n).map(|_| Vec::new()).collect();
    for _from in 0..n {
        for to in 0..n {
            let (tx, rx) = channel::bounded(1);
            senders[_from].push(tx);
            receivers[to].push(rx);
        }
    }

    let mut tables: Vec<Option<MemoryPointerTable>> = vec![None; n];
    crossbeam::scope(|scope| {
        let mut joins = Vec::new();
        for (rank, (my_senders, my_receivers)) in
            senders.drain(..).zip(receivers.drain(..)).enumerate()
        {
            joins.push(scope.spawn(move |_| {
                // "cudaMalloc" + "cudaIpcGetMemHandle": our region id is our
                // rank (the owning WholeMemory stores regions rank-indexed).
                let my_handle = IpcHandle {
                    device_rank: rank as u32,
                    region_id: rank as u32,
                    bytes: bytes_per_rank,
                };
                // AllGather: send our handle to every rank (including
                // ourselves, as NCCL AllGather does) ...
                for tx in &my_senders {
                    tx.send(my_handle).expect("peer hung up during setup");
                }
                // ... and collect one handle from every rank.
                let mut entries: Vec<IpcHandle> = my_receivers
                    .iter()
                    .map(|rx| rx.recv().expect("peer hung up during setup"))
                    .collect();
                entries.sort_by_key(|h| h.device_rank);
                MemoryPointerTable {
                    device_rank: rank as u32,
                    entries,
                }
            }));
        }
        for (rank, j) in joins.into_iter().enumerate() {
            tables[rank] = Some(j.join().expect("setup worker panicked"));
        }
    })
    .expect("setup scope panicked");

    let handle_bytes = std::mem::size_of::<IpcHandle>() as u64;
    let setup_time = malloc_time(bytes_per_rank)
        + allgather_intra_node(model, handle_bytes, ranks)
        + open_handle_time() * (ranks.saturating_sub(1)) as f64;

    SetupReport {
        tables: tables.into_iter().map(Option::unwrap).collect(),
        setup_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rank_gets_every_handle() {
        let model = CostModel::dgx_a100();
        let report = exchange_handles(&model, 8, 1 << 30);
        assert_eq!(report.tables.len(), 8);
        for (rank, table) in report.tables.iter().enumerate() {
            assert_eq!(table.device_rank as usize, rank);
            assert_eq!(table.entries.len(), 8);
            for (peer, h) in table.entries.iter().enumerate() {
                assert_eq!(h.device_rank as usize, peer);
                assert_eq!(h.region_id as usize, peer);
                assert_eq!(h.bytes, 1 << 30);
            }
        }
    }

    #[test]
    fn pointer_table_is_64_bytes_on_dgx() {
        // Paper §III-B: "For DGX-A100 with 8 GPUs, it is just 8×8 = 64
        // bytes. So this will not hurt scalability."
        let model = CostModel::dgx_a100();
        let report = exchange_handles(&model, 8, 1 << 20);
        // One 8-byte mapped pointer per rank.
        let table_bytes = report.tables[0].entries.len() * std::mem::size_of::<u64>();
        assert_eq!(table_bytes, 64);
    }

    #[test]
    fn setup_time_is_tens_of_milliseconds() {
        // Paper §III-B: setup "is likely tens to one or two hundred of
        // milliseconds ... depending on the memory size".
        let model = CostModel::dgx_a100();
        let small = exchange_handles(&model, 8, 1 << 30); // 1 GiB/rank
        let large = exchange_handles(&model, 8, 16 * (1 << 30)); // 16 GiB/rank
        assert!(small.setup_time.as_millis() > 1.0);
        assert!(large.setup_time.as_millis() < 250.0);
        assert!(large.setup_time > small.setup_time);
    }

    #[test]
    fn single_rank_setup_works() {
        let model = CostModel::dgx_a100();
        let report = exchange_handles(&model, 1, 1024);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].entries.len(), 1);
    }
}

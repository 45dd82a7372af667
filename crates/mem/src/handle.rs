//! The distributed shared allocation.
//!
//! A [`WholeMemory`] is a matrix of `rows × width` elements whose rows are
//! chunk-partitioned across the GPUs of a node (Figure 3 of the paper).
//! Every device holds one region; after the IPC setup every device can read
//! any region directly. In this reproduction a region is an owned `Vec<T>`
//! and the rank-indexed vector of regions *is* the memory pointer table:
//! "direct peer access" is a slice read whose simulated cost is charged by
//! the calling op. Writers take `&mut self`, so the borrow checker — not a
//! lock — keeps them apart from readers.

use rayon::prelude::*;

use wg_sim::cost::AccessMode;
use wg_sim::memory::{AllocKind, MemoryAccounting, OutOfMemory};
use wg_sim::{CostModel, DeviceId, SimTime};

use crate::access::{ChunkedPartition, Element, RowLocation};
use crate::ipc;

/// A matrix distributed across the device memories of one node.
///
/// ```
/// use wg_mem::WholeMemory;
/// use wg_mem::gather::global_gather;
/// use wg_sim::cost::AccessMode;
/// use wg_sim::{CostModel, DeviceSpec};
///
/// let model = CostModel::dgx_a100();
/// // 1000 rows of 8 floats spread over 8 simulated GPUs.
/// let mut wm = WholeMemory::<f32>::allocate(&model, 8, 1000, 8, AccessMode::PeerAccess);
/// wm.init_rows(|row, out| out.fill(row as f32));
///
/// // Any GPU gathers arbitrary rows with one kernel.
/// let rows = vec![3usize, 997, 421];
/// let mut out = vec![0.0f32; rows.len() * 8];
/// let spec = DeviceSpec::a100_40gb();
/// let stats = global_gather(&wm, &rows, &mut out, 0, &model, &spec);
/// assert_eq!(out[0], 3.0);
/// assert_eq!(out[8], 997.0);
/// assert!(stats.sim_time.as_micros() > 0.0);
/// ```
pub struct WholeMemory<T> {
    /// One region per rank, indexed by owning rank.
    regions: Vec<Vec<T>>,
    partition: ChunkedPartition,
    width: usize,
    mode: AccessMode,
    setup_time: SimTime,
    /// Logical size used by the latency models. Normally the real byte
    /// size; probes reproducing Table I at "128 GB" scale override it so the
    /// latency model sees the paper's allocation size while the simulation
    /// holds a proportionally smaller array.
    logical_bytes: u64,
}

impl<T: Element> WholeMemory<T> {
    /// Allocate a `rows × width` matrix partitioned across `ranks` devices,
    /// charging the IPC setup's simulated time ([`ipc::setup_time`]).
    pub fn allocate(
        model: &CostModel,
        ranks: u32,
        rows: usize,
        width: usize,
        mode: AccessMode,
    ) -> Self {
        assert!(width > 0, "row width must be positive");
        assert!(rows > 0, "cannot allocate an empty WholeMemory");
        let partition = ChunkedPartition::new(rows, ranks);
        let elem = std::mem::size_of::<T>();
        let regions: Vec<Vec<T>> = (0..ranks)
            .map(|r| vec![T::default(); partition.rows_on_rank(r) * width])
            .collect();
        let bytes_per_rank = (partition.rows_per_rank * width * elem) as u64;
        let logical_bytes = (rows * width * elem) as u64;
        WholeMemory {
            regions,
            partition,
            width,
            mode,
            setup_time: ipc::setup_time(model, ranks, bytes_per_rank),
            logical_bytes,
        }
    }

    /// Allocate and register the per-device byte usage with the machine's
    /// memory accounting (Table IV). All or nothing: every rank is
    /// registered before any memory is allocated, and an `OutOfMemory` on
    /// one rank rolls back the ranks already registered.
    pub fn allocate_tracked(
        model: &CostModel,
        ranks: u32,
        rows: usize,
        width: usize,
        mode: AccessMode,
        acct: &MemoryAccounting,
        kind: AllocKind,
    ) -> Result<Self, OutOfMemory> {
        let partition = ChunkedPartition::new(rows, ranks);
        let rank_bytes =
            |r: u32| (partition.rows_on_rank(r) * width * std::mem::size_of::<T>()) as u64;
        for r in 0..ranks {
            if let Err(oom) = acct.alloc(DeviceId::Gpu(r), kind, rank_bytes(r)) {
                for done in 0..r {
                    acct.free(DeviceId::Gpu(done), kind, rank_bytes(done));
                }
                return Err(oom);
            }
        }
        Ok(Self::allocate(model, ranks, rows, width, mode))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.partition.rows
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of device partitions.
    pub fn ranks(&self) -> u32 {
        self.partition.ranks
    }

    /// The row partitioning.
    pub fn partition(&self) -> ChunkedPartition {
        self.partition
    }

    /// Access mode (P2P vs UM) this allocation is mapped with.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Simulated time the IPC setup took.
    pub fn setup_time(&self) -> SimTime {
        self.setup_time
    }

    /// Real total size in bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.rows() * self.width * std::mem::size_of::<T>()) as u64
    }

    /// Logical size in bytes used by latency models (see struct docs).
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Override the logical size (probe support for Table I / Figure 8 at
    /// paper-scale allocation sizes).
    pub fn set_logical_bytes(&mut self, bytes: u64) {
        self.logical_bytes = bytes;
    }

    /// Locate the owner of a global row.
    #[inline]
    pub fn locate(&self, row: usize) -> RowLocation {
        self.partition.locate(row)
    }

    /// Copy a global row into `out` (length must equal `width`).
    pub fn read_row(&self, row: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.width);
        let loc = self.locate(row);
        let start = loc.local_row * self.width;
        out.copy_from_slice(&self.region(loc.device_rank)[start..start + self.width]);
    }

    /// Overwrite a global row from `data` (length must equal `width`).
    pub fn write_row(&mut self, row: usize, data: &[T]) {
        assert_eq!(data.len(), self.width);
        let loc = self.locate(row);
        let width = self.width;
        let start = loc.local_row * width;
        self.region_mut(loc.device_rank)[start..start + width].copy_from_slice(data);
    }

    /// Initialize every row in parallel: `f(global_row, row_slice)`.
    ///
    /// This is the data-load path — each device fills its own partition
    /// concurrently, as the real library does when constructing graph
    /// storage.
    pub fn init_rows<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        let width = self.width;
        let partition = self.partition;
        self.regions
            .par_iter_mut()
            .enumerate()
            .for_each(|(rank, region)| {
                for (local, chunk) in region.chunks_mut(width).enumerate() {
                    let global = partition.global_row(rank as u32, local);
                    f(global, chunk);
                }
            });
    }

    /// The memory region owned by `rank`.
    #[inline]
    pub fn region(&self, rank: u32) -> &[T] {
        &self.regions[rank as usize]
    }

    /// Every region, indexed by owning rank — the memory pointer table a
    /// gather kernel indexes with a row's owner.
    #[inline]
    pub fn regions(&self) -> &[Vec<T>] {
        &self.regions
    }

    /// Mutable access to the region of `rank`. Hands out a slice, not the
    /// backing `Vec`: batched writers update rows in place and must not be
    /// able to resize a region out from under the partition map.
    #[inline]
    pub fn region_mut(&mut self, rank: u32) -> &mut [T] {
        &mut self.regions[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::dgx_a100()
    }

    #[test]
    fn allocate_partitions_rows() {
        let wm = WholeMemory::<f32>::allocate(&model(), 4, 10, 3, AccessMode::PeerAccess);
        assert_eq!(wm.rows(), 10);
        assert_eq!(wm.width(), 3);
        assert_eq!(wm.ranks(), 4);
        assert_eq!(wm.total_bytes(), 10 * 3 * 4);
        assert!(wm.setup_time() > SimTime::ZERO);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut wm = WholeMemory::<f32>::allocate(&model(), 3, 7, 2, AccessMode::PeerAccess);
        for row in 0..7 {
            wm.write_row(row, &[row as f32, -(row as f32)]);
        }
        let mut buf = [0.0f32; 2];
        for row in 0..7 {
            wm.read_row(row, &mut buf);
            assert_eq!(buf, [row as f32, -(row as f32)]);
        }
    }

    #[test]
    fn init_rows_covers_every_row() {
        let mut wm = WholeMemory::<u32>::allocate(&model(), 5, 23, 4, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 10 + j) as u32;
            }
        });
        let mut buf = [0u32; 4];
        for row in 0..23 {
            wm.read_row(row, &mut buf);
            assert_eq!(
                buf,
                [
                    10 * row as u32,
                    10 * row as u32 + 1,
                    10 * row as u32 + 2,
                    10 * row as u32 + 3
                ]
            );
        }
    }

    #[test]
    fn tracked_allocation_registers_per_gpu_bytes() {
        let acct = MemoryAccounting::new((0..4).map(|r| (DeviceId::Gpu(r), 1 << 20)));
        let wm = WholeMemory::<f32>::allocate_tracked(
            &model(),
            4,
            100,
            8,
            AccessMode::PeerAccess,
            &acct,
            AllocKind::Features,
        )
        .unwrap();
        assert_eq!(wm.rows(), 100);
        let usage = acct.gpu_usage_by(AllocKind::Features);
        let total: u64 = usage.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 100 * 8 * 4);
    }

    #[test]
    fn tracked_allocation_can_oom() {
        let acct = MemoryAccounting::new((0..2).map(|r| (DeviceId::Gpu(r), 16)));
        let res = WholeMemory::<f32>::allocate_tracked(
            &model(),
            2,
            100,
            8,
            AccessMode::PeerAccess,
            &acct,
            AllocKind::Features,
        );
        assert!(res.is_err());
    }

    #[test]
    fn tracked_allocation_oom_charges_no_rank() {
        // Fits rank 0's 1 MiB but not rank 1's 16 bytes: the refusal must
        // leave rank 0 uncharged too.
        let acct = MemoryAccounting::new([(DeviceId::Gpu(0), 1 << 20), (DeviceId::Gpu(1), 16)]);
        let res = WholeMemory::<f32>::allocate_tracked(
            &model(),
            2,
            100,
            8,
            AccessMode::PeerAccess,
            &acct,
            AllocKind::Features,
        );
        let err = res.err().expect("rank 1 cannot hold its half");
        assert_eq!(err.device, DeviceId::Gpu(1));
        for r in 0..2 {
            assert_eq!(
                acct.pool(DeviceId::Gpu(r)).used(),
                0,
                "gpu{r} still charged"
            );
        }
    }

    #[test]
    fn logical_bytes_override() {
        let mut wm = WholeMemory::<u64>::allocate(&model(), 8, 1024, 1, AccessMode::UnifiedMemory);
        assert_eq!(wm.logical_bytes(), 8192);
        wm.set_logical_bytes(128 * (1 << 30));
        assert_eq!(wm.logical_bytes(), 128 * (1 << 30));
        assert_eq!(wm.mode(), AccessMode::UnifiedMemory);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn zero_width_rejected() {
        WholeMemory::<f32>::allocate(&model(), 2, 4, 0, AccessMode::PeerAccess);
    }
}

//! The distributed shared allocation.
//!
//! A [`WholeMemory`] is a matrix of `rows × width` elements whose rows are
//! chunk-partitioned across the GPUs of a node (Figure 3 of the paper).
//! Every device holds one region; after the IPC setup every device can read
//! any region directly. In this reproduction a region is a `Vec<T>` behind
//! an `RwLock` (concurrent gather kernels take read guards; initialization
//! takes write guards), and "direct peer access" is a slice read whose
//! simulated cost is charged by the calling op.

use parking_lot::RwLock;
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
/// let wm = WholeMemory::<f32>::allocate(&model, 8, 1000, 8, AccessMode::PeerAccess);
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
    regions: Vec<RwLock<Vec<T>>>,
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
    /// running the IPC handle-exchange setup protocol.
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
        let regions: Vec<RwLock<Vec<T>>> = (0..ranks)
            .map(|r| RwLock::new(vec![T::default(); partition.rows_on_rank(r) * width]))
            .collect();
        let bytes_per_rank = (partition.rows_per_rank * width * elem) as u64;
        let setup = ipc::exchange_handles(model, ranks, bytes_per_rank);
        let logical_bytes = (rows * width * elem) as u64;
        WholeMemory {
            regions,
            partition,
            width,
            mode,
            setup_time: setup.setup_time,
            logical_bytes,
        }
    }

    /// Allocate and register the per-device byte usage with the machine's
    /// memory accounting (Table IV).
    pub fn allocate_tracked(
        model: &CostModel,
        ranks: u32,
        rows: usize,
        width: usize,
        mode: AccessMode,
        acct: &MemoryAccounting,
        kind: AllocKind,
    ) -> Result<Self, OutOfMemory> {
        let wm = Self::allocate(model, ranks, rows, width, mode);
        let elem = std::mem::size_of::<T>() as u64;
        for r in 0..ranks {
            let bytes = wm.partition.rows_on_rank(r) as u64 * width as u64 * elem;
            acct.alloc(DeviceId::Gpu(r), kind, bytes)?;
        }
        Ok(wm)
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
        let region = self.regions[loc.device_rank as usize].read();
        let start = loc.local_row * self.width;
        out.copy_from_slice(&region[start..start + self.width]);
    }

    /// Overwrite a global row from `data` (length must equal `width`).
    pub fn write_row(&self, row: usize, data: &[T]) {
        assert_eq!(data.len(), self.width);
        let loc = self.locate(row);
        let mut region = self.regions[loc.device_rank as usize].write();
        let start = loc.local_row * self.width;
        region[start..start + self.width].copy_from_slice(data);
    }

    /// Initialize every row in parallel: `f(global_row, row_slice)`.
    ///
    /// This is the data-load path — each device fills its own partition
    /// concurrently, as the real library does when constructing graph
    /// storage.
    pub fn init_rows<F>(&self, f: F)
    where
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        let width = self.width;
        let partition = self.partition;
        self.regions
            .par_iter()
            .enumerate()
            .for_each(|(rank, region)| {
                let mut region = region.write();
                for (local, chunk) in region.chunks_mut(width).enumerate() {
                    let global = partition.global_row(rank as u32, local);
                    f(global, chunk);
                }
            });
    }

    /// Run `f` with read access to the region of `rank`.
    pub fn with_region<R>(&self, rank: u32, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.regions[rank as usize].read())
    }

    /// Run `f` with write access to the region of `rank`. Hands out a
    /// slice, not the backing `Vec`: batched writers update rows in place
    /// and must not be able to resize a region out from under the
    /// partition map.
    pub fn with_region_mut<R>(&self, rank: u32, f: impl FnOnce(&mut [T]) -> R) -> R {
        f(&mut self.regions[rank as usize].write())
    }

    /// Pin every region under a read guard and return a [`RegionView`] that
    /// hands out borrowed slices — the zero-copy analogue of a kernel
    /// holding the DSM pointer table: one lock acquisition per region up
    /// front, then plain indexed loads with no per-access locking or
    /// copying. Writers block while a view is live, so callers should keep
    /// views scoped to read-only phases (e.g. one sampling pass).
    pub fn pin(&self) -> RegionView<'_, T> {
        RegionView {
            guards: self.regions.iter().map(|r| r.read()).collect(),
        }
    }

    /// Acquire read guards on all regions (a gather kernel's view of the
    /// whole address space through its pointer table). The guards live in
    /// a fixed-size inline table up to [`INLINE_REGIONS`] ranks — one
    /// node's worth of GPUs — so the per-batch gather takes zero heap
    /// allocations; only >16-rank allocations spill to a heap table.
    pub(crate) fn read_all(&self) -> RegionGuards<'_, T> {
        let mut guards = RegionGuards {
            inline: [const { None }; INLINE_REGIONS],
            heap: Vec::new(),
        };
        if self.regions.len() <= INLINE_REGIONS {
            for (slot, region) in guards.inline.iter_mut().zip(&self.regions) {
                *slot = Some(region.read());
            }
        } else {
            guards.heap = self.regions.iter().map(|r| r.read()).collect();
        }
        guards
    }
}

/// How many region read-guards the gather path stores inline: one DGX
/// node's worth of GPUs with headroom. Allocations on up to this many
/// ranks get their whole-address-space view without heap allocation.
pub(crate) const INLINE_REGIONS: usize = 16;

/// An allocation-free table of read guards over every region — the gather
/// kernel's view of the address space. Guards sit in a fixed inline array
/// for ≤ [`INLINE_REGIONS`] ranks; larger (multi-node-scale) allocations
/// spill to a heap table.
pub(crate) struct RegionGuards<'a, T> {
    inline: [Option<parking_lot::RwLockReadGuard<'a, Vec<T>>>; INLINE_REGIONS],
    heap: Vec<parking_lot::RwLockReadGuard<'a, Vec<T>>>,
}

impl<T> RegionGuards<'_, T> {
    /// The memory region owned by `rank`.
    #[inline]
    pub(crate) fn region(&self, rank: usize) -> &[T] {
        if self.heap.is_empty() {
            self.inline[rank].as_ref().expect("rank out of range")
        } else {
            &self.heap[rank]
        }
    }
}

/// Read guards over every region of a [`WholeMemory`], created by
/// [`WholeMemory::pin`]. Region slices are borrowed straight out of the
/// guards, so reads through a view neither lock nor copy.
pub struct RegionView<'a, T> {
    guards: Vec<parking_lot::RwLockReadGuard<'a, Vec<T>>>,
}

impl<T: Element> RegionView<'_, T> {
    /// The full memory region owned by `rank`.
    #[inline]
    pub fn region(&self, rank: u32) -> &[T] {
        &self.guards[rank as usize]
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
        let wm = WholeMemory::<f32>::allocate(&model(), 3, 7, 2, AccessMode::PeerAccess);
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
        let wm = WholeMemory::<u32>::allocate(&model(), 5, 23, 4, AccessMode::PeerAccess);
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

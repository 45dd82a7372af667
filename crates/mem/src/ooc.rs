//! Out-of-core storage tier below the DSM.
//!
//! [`OocTier`] spills a [`WholeMemory`] allocation's feature rows to a
//! file-backed store and keeps only the hottest `budget_rows` rows
//! **resident** in the DSM. Attached to a gather's
//! [`TierStack`](crate::gather::TierStack) as its `disk` member, it is
//! the last stop of the cache → DSM → disk resolution; rows that fall to
//! disk go through [`OocTier::fetch`], the batched prefetch queue. A
//! gather plan's disk rows are sorted into file order and run through a
//! coalescing **accumulator** (GIDS's mechanism): file-adjacent rows
//! merge into byte ranges, a range extending across a gap of unrequested
//! rows only while [`StorageCostModel::request_time`] prices the merged
//! request no dearer than the two it replaces, up to
//! [`MAX_TRANSFER_BYTES`]. That request list ([`OocTier::issued`]) is
//! what a device would be sent and what the cost model prices: a seek
//! share per read, its bytes (gaps included) at its size's bandwidth.
//!
//! The host moves none of those bytes itself: the spill file is mapped
//! read-only at build, and the mapping ([`OocTier::spill`]) *is* the
//! region the copy kernel reads spilled rows from — file → output in one
//! copy, the gap bytes a device's DMA carries for free never touched by
//! the CPU (PyTorch-Direct's point: delete the staging copy).
//!
//! The contract is the same as the cache tier's: **values never move**.
//! The gathered bytes really are the file's — a row patched on disk is
//! the row the next gather returns — so the bit-identity tests witness
//! the file, not a simulated flag.

#[cfg(all(unix, target_pointer_width = "64"))]
use std::ffi::{c_int, c_void};
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{mem, slice};

use wg_sim::cost::StorageCostModel;
use wg_tensor::simd::Pod;

use crate::access::Element;
use crate::gather::StorageIo;
use crate::handle::WholeMemory;

/// Largest single ranged read the accumulator issues (a row wider than
/// this is still one request). Large enough that a dense batch streams
/// at the saturated bandwidth with a negligible seek share per range.
pub const MAX_TRANSFER_BYTES: usize = 1 << 20;

// The two libc calls `std` has no wrapper for, declared against the libc
// `std` already links on every unix target (no new dependency). 64-bit
// only, so that `off_t` is an `i64` on every target this compiles for.
#[cfg(all(unix, target_pointer_width = "64"))]
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// The spill file's contents as one `&[T]`, fixed at build: `len`
/// elements, row-major, in native byte order.
enum SpillMap<T> {
    /// A read-only shared mapping of the whole file, unmapped on drop.
    Mapped(*const [T]),
    /// The file read back into memory: every target without `mmap`, and
    /// the empty file everywhere (a zero-length mapping is `EINVAL`).
    Owned(Vec<T>),
}

impl<T: Pod + Default> SpillMap<T> {
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn new(file: &File, len: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        const PROT_READ: c_int = 1;
        const MAP_SHARED: c_int = 1;
        if len == 0 {
            return Ok(SpillMap::Owned(Vec::new()));
        }
        let (bytes, fd) = (len * mem::size_of::<T>(), file.as_raw_fd());
        // SAFETY: a fresh mapping at an address the kernel picks aliases
        // nothing; `fd` is open for reading and `bytes` is non-zero.
        let base = unsafe { mmap(std::ptr::null_mut(), bytes, PROT_READ, MAP_SHARED, fd, 0) };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let rows = std::ptr::slice_from_raw_parts(base.cast(), len);
        Ok(SpillMap::Mapped(rows))
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn new(file: &File, len: usize) -> io::Result<Self> {
        use std::io::{Read, Seek};
        let mut rows = vec![T::default(); len];
        // SAFETY: `T: Pod` — every bit pattern is a value — so the rows
        // may be filled through a byte view of exactly their own length.
        let bytes = unsafe {
            slice::from_raw_parts_mut(rows.as_mut_ptr().cast::<u8>(), mem::size_of_val(&*rows))
        };
        let mut file = file;
        file.rewind()?;
        file.read_exact(bytes)?;
        Ok(SpillMap::Owned(rows))
    }

    fn as_slice(&self) -> &[T] {
        match self {
            // SAFETY: the mapping lives until drop, `len * size_of::<T>()`
            // bytes long — the file's length, fixed at build; its base is
            // page-aligned, so every element is `T`-aligned; `T: Pod`, so
            // any bytes are values. Pages past a truncated file's end would
            // fault: `fetch` checks each range's end against the current
            // length first, and the tier alone owns the unlinked file.
            SpillMap::Mapped(rows) => unsafe { &**rows },
            SpillMap::Owned(rows) => rows,
        }
    }
}

impl<T> Drop for SpillMap<T> {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let SpillMap::Mapped(rows) = *self {
            // SAFETY: `new`'s mapping, unmapped once; no `&[T]` outlives `self`.
            unsafe { munmap(rows as *mut c_void, rows.len() * mem::size_of::<T>()) };
        }
    }
}

// SAFETY: an immutable buffer the `SpillMap` alone owns — a `PROT_READ`
// mapping or a `Vec<T>` — moves and shares across threads as `Vec<T>` does.
unsafe impl<T: Send> Send for SpillMap<T> {}
unsafe impl<T: Sync> Sync for SpillMap<T> {}

/// The spill file's handle and the log of requests made of it: `issued`
/// holds the `(offset, bytes)` of each ranged read of the last batch,
/// pushed where the accumulator closes a range — what the model prices.
struct RowFile {
    file: File,
    issued: Vec<(u64, usize)>,
}

/// Unique suffix for spill files: pid + a process-wide counter, so
/// parallel test binaries (and parallel tiers within one) never collide.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The file-backed storage tier for one [`WholeMemory`] allocation.
///
/// Construction writes every feature row to the spill file, maps it and
/// marks the `budget_rows` hottest rows resident; [`fetch`](Self::fetch)
/// turns a gather plan's non-resident rows into the priced request list,
/// and the copy kernel reads them out of [`spill`](Self::spill). The
/// file has no name once the tier exists, so it cannot outlive it.
pub struct OocTier<T> {
    file: RowFile,
    map: SpillMap<T>,
    rows: usize,
    width: usize,
    budget_rows: usize,
    /// Per-row residency: `true` rows stay in the DSM, `false` rows are
    /// served from disk.
    resident: Vec<bool>,
    resident_rows: usize,
    /// Pooled accumulator input: a batch's rows in file order.
    reqs: Vec<u32>,
}

impl<T: Element> OocTier<T> {
    /// Spill `wm` to a fresh temp file and keep the `budget_rows` rows
    /// with the highest `hotness` resident (ties break toward lower row
    /// ids — the same deterministic ranking the static cache tier uses).
    /// `hotness.len()` must equal `wm.rows()`.
    pub fn build(wm: &WholeMemory<T>, hotness: &[u64], budget_rows: usize) -> io::Result<Self> {
        let (rows, width) = (wm.rows(), wm.width());
        assert_eq!(hotness.len(), rows, "hotness signal shape mismatch");
        let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("wg_ooc_{}_{n}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlinked at once: the handle (and then the mapping) keeps the
        // inode alive, so no error, panic or kill from here on can leave a
        // spill file behind and no destructor has anything to clean up.
        std::fs::remove_file(&path)?;

        // The file IS the feature matrix, row-major in native byte order:
        // a chunked partition's regions, in rank order, are its rows.
        for region in wm.regions() {
            let bytes = mem::size_of_val(region.as_slice());
            // SAFETY: `T: Pod` — no padding, so every byte of the region
            // is initialised — and the view is exactly as long.
            (&file).write_all(unsafe { slice::from_raw_parts(region.as_ptr().cast(), bytes) })?;
        }
        let map = SpillMap::new(&file, rows * width)?;

        // Residency: top `budget_rows` by hotness, ties by lower id.
        let mut resident = vec![false; rows];
        let resident_rows = budget_rows.min(rows);
        if resident_rows == rows {
            resident.iter_mut().for_each(|r| *r = true);
        } else if resident_rows > 0 {
            let mut order: Vec<u32> = (0..rows as u32).collect();
            order.sort_unstable_by_key(|&r| (std::cmp::Reverse(hotness[r as usize]), r));
            for &r in &order[..resident_rows] {
                resident[r as usize] = true;
            }
        }

        Ok(OocTier {
            file: RowFile {
                file,
                issued: Vec::new(),
            },
            map,
            rows,
            width,
            budget_rows,
            resident,
            resident_rows,
            reqs: Vec::new(),
        })
    }

    /// Rows in the backing allocation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The configured residency budget (may exceed `rows`).
    pub fn budget_rows(&self) -> usize {
        self.budget_rows
    }

    /// Rows actually resident in the DSM.
    pub fn resident_rows(&self) -> usize {
        self.resident_rows
    }

    /// Whether a row is DSM-resident (disk-served otherwise).
    #[inline]
    pub fn is_resident(&self, row: usize) -> bool {
        self.resident[row]
    }

    /// Turn `rows` (global row ids, any order, duplicates allowed) into
    /// the requests a device would be sent for them: sorted into file
    /// order and coalesced by the module-level merge rule, so the priced
    /// time of [`issued`](Self::issued) never exceeds the per-row price
    /// of the same batch and equals it when no two rows merge. Moves no
    /// bytes — the rows are read where they lie, in [`spill`](Self::spill)
    /// — and a warm tier takes any batch with zero heap allocations.
    /// Returns the traffic: the rows asked for and the reads issued for
    /// them. A range the file no longer holds (truncated spill file) is
    /// `UnexpectedEof`, returned before any of the batch's rows is touched.
    pub fn fetch(&mut self, rows: &[u32], storage: &StorageCostModel) -> io::Result<StorageIo> {
        self.reqs.clear();
        self.reqs.extend_from_slice(rows);
        self.reqs.sort_unstable();
        self.file.issued.clear();
        let file_len = self.file.file.metadata()?.len();
        let row_bytes = self.width * mem::size_of::<T>();
        let row_time = storage.request_time(row_bytes);
        let mut i = 0;
        while i < self.reqs.len() {
            let start = self.reqs[i] as usize * row_bytes;
            let (mut len, mut time) = (row_bytes, row_time);
            let mut j = i + 1;
            while j < self.reqs.len() {
                let merged_len = (self.reqs[j] as usize + 1) * row_bytes - start;
                // A duplicate of the range's last row extends nothing.
                if merged_len > len {
                    let merged_time = storage.request_time(merged_len);
                    if merged_len > MAX_TRANSFER_BYTES || merged_time > time + row_time {
                        break;
                    }
                    (len, time) = (merged_len, merged_time);
                }
                j += 1;
            }
            self.file.issued.push((start as u64, len));
            if (start + len) as u64 > file_len {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            i = j;
        }
        Ok(StorageIo {
            rows: rows.len() as u64,
            bytes: (rows.len() * row_bytes) as u64,
            requests: self.file.issued.len() as u64,
            read_bytes: self.file.issued.iter().map(|&(_, b)| b as u64).sum(),
        })
    }

    /// The spill file's rows, as mapped: row `r` is
    /// `spill()[r * width..][..width]`. Read only rows a
    /// [`fetch`](Self::fetch) since the file last changed has accepted.
    pub fn spill(&self) -> &[T] {
        self.map.as_slice()
    }

    /// `(offset, bytes)` of each ranged read the last
    /// [`fetch`](Self::fetch) issued, in file order — the requests
    /// [`StorageCostModel::requests_time`] prices.
    pub fn issued(&self) -> &[(u64, usize)] {
        &self.file.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_sim::cost::AccessMode;
    use wg_sim::CostModel;

    fn wm(rows: usize, width: usize, ranks: u32) -> WholeMemory<f32> {
        let model = CostModel::dgx_a100();
        let mut wm =
            WholeMemory::<f32>::allocate(&model, ranks, rows, width, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 131 + j) as f32;
            }
        });
        wm
    }

    #[test]
    fn fetch_roundtrips_rows_bit_exactly() {
        let wm = wm(300, 7, 4);
        let hot = vec![0u64; 300];
        let mut tier = OocTier::build(&wm, &hot, 0).unwrap();
        // Out-of-order, duplicated request batch.
        let rows: Vec<u32> = vec![299, 0, 150, 0, 42, 299];
        tier.fetch(&rows, &StorageCostModel::nvme()).unwrap();
        let mut expect = vec![0.0f32; 7];
        for &r in &rows {
            wm.read_row(r as usize, &mut expect);
            assert_eq!(&tier.spill()[r as usize * 7..][..7], &expect[..], "row {r}");
        }
    }

    #[test]
    fn u8_rows_roundtrip_through_the_spill_file() {
        let model = CostModel::dgx_a100();
        let mut wm = WholeMemory::<u8>::allocate(&model, 2, 40, 5, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 7 + j) as u8;
            }
        });
        let mut tier = OocTier::build(&wm, &[0; 40], 0).unwrap();
        let rows: Vec<u32> = vec![39, 0, 17];
        let io = tier.fetch(&rows, &StorageCostModel::nvme()).unwrap();
        assert_eq!(io.bytes, 15, "one byte per element");
        let mut expect = [0u8; 5];
        for &r in &rows {
            wm.read_row(r as usize, &mut expect);
            assert_eq!(&tier.spill()[r as usize * 5..][..5], &expect, "row {r}");
        }
    }

    /// The "bytes genuinely round-trip the file" witness: a row patched
    /// on disk, through a second handle on the tier's file, is the row
    /// the next gather returns. (No `&[T]` into the mapping is alive
    /// across the write: `spill()` is re-borrowed by each `execute`.)
    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn the_mapping_is_the_file() {
        use crate::gather::{RowPlan, TierStack};
        use std::os::unix::fs::FileExt;
        use wg_sim::DeviceSpec;
        let wm = wm(50, 6, 2);
        let mut stack = TierStack {
            cache: None,
            disk: Some(OocTier::build(&wm, &[0; 50], 0).unwrap()),
        };
        let patched: [f32; 6] = [-0.0, f32::NAN, 1e-40, 7.0, f32::MIN, 42.5];
        let bytes: Vec<u8> = patched.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let handle = stack.disk.as_ref().unwrap().file.file.try_clone().unwrap();
        handle.write_all_at(&bytes, 33 * 6 * 4).unwrap();

        let (model, spec) = (CostModel::dgx_a100(), DeviceSpec::a100_40gb());
        let mut plan = RowPlan::default();
        let mut out = vec![0.0f32; 3 * 6];
        stack.plan(&wm, &[32, 33, 34], 0, &mut plan);
        let stats = stack
            .execute(&wm, &plan, &mut out, 0, &model, &spec)
            .unwrap();
        assert_eq!(stats.storage_io.rows, 3);
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out[6..12]), bits(&patched), "the file's bytes");
        let mut expect = [0.0f32; 6];
        for (slot, row) in [(0, 32), (2, 34)] {
            wm.read_row(row, &mut expect);
            assert_eq!(&out[slot * 6..][..6], &expect, "neighbour row {row}");
        }
    }

    #[test]
    fn residency_keeps_the_hottest_rows() {
        let wm = wm(100, 4, 2);
        // Hotness = row id: the top-30 budget must keep rows 70..100.
        let hot: Vec<u64> = (0..100).collect();
        let tier = OocTier::build(&wm, &hot, 30).unwrap();
        assert_eq!(tier.resident_rows(), 30);
        for r in 0..100 {
            assert_eq!(tier.is_resident(r), r >= 70, "row {r}");
        }
    }

    #[test]
    fn residency_ties_break_toward_lower_ids() {
        let wm = wm(10, 2, 1);
        let hot = vec![5u64; 10];
        let tier = OocTier::build(&wm, &hot, 4).unwrap();
        for r in 0..10 {
            assert_eq!(tier.is_resident(r), r < 4, "row {r}");
        }
    }

    #[test]
    fn full_budget_keeps_everything_resident() {
        let wm = wm(50, 3, 2);
        let hot = vec![1u64; 50];
        let tier = OocTier::build(&wm, &hot, usize::MAX).unwrap();
        assert_eq!(tier.resident_rows(), 50);
        assert!((0..50).all(|r| tier.is_resident(r)));
    }

    /// Every spill file this process ever names starts `wg_ooc_<pid>_`.
    fn spill_files_in_temp_dir() -> Vec<std::ffi::OsString> {
        let prefix = format!("wg_ooc_{}_", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().starts_with(&prefix))
            .collect()
    }

    #[test]
    fn a_live_tier_has_no_spill_file_to_leak() {
        // Other tests build tiers concurrently; one is only ever visible
        // between its create and its unlink, so look more than once.
        let wm = wm(10, 2, 1);
        let mut tier = OocTier::build(&wm, &[0; 10], 0).unwrap();
        let seen = (0..50)
            .map(|_| spill_files_in_temp_dir())
            .min_by_key(Vec::len)
            .unwrap();
        assert_eq!(seen, Vec::<std::ffi::OsString>::new());
        // ...and the nameless file still serves.
        tier.fetch(&[9, 0], &StorageCostModel::nvme()).unwrap();
        assert_eq!(&tier.spill()[18..], &[9.0 * 131.0, 9.0 * 131.0 + 1.0]);
    }

    #[test]
    fn empty_files_build_without_a_mapping() {
        // `WholeMemory::allocate` refuses 0 rows and width 0, so the two
        // empty shapes exist only below `OocTier::build`: `rows * width`
        // is 0 either way, and a zero-length `mmap` would be `EINVAL`.
        let path = std::env::temp_dir().join(format!("wg_ooc_empty_{}", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        for (rows, width) in [(0usize, 4usize), (5, 0)] {
            let map = SpillMap::<f32>::new(&file, rows * width).unwrap();
            assert!(matches!(map, SpillMap::Owned(_)), "{rows}x{width}");
            assert!(map.as_slice().is_empty());
        }
    }

    #[test]
    fn one_row_store_with_nothing_resident() {
        let wm = wm(1, 3, 1);
        let mut tier = OocTier::build(&wm, &[9], 0).unwrap();
        assert_eq!((tier.rows(), tier.resident_rows()), (1, 0));
        assert!(!tier.is_resident(0));
        let nvme = StorageCostModel::nvme();
        assert_eq!(tier.fetch(&[], &nvme).unwrap(), StorageIo::default());
        assert!(tier.issued().is_empty());
        let io = tier.fetch(&[0, 0], &nvme).unwrap();
        assert_eq!((io.rows, io.requests, io.read_bytes), (2, 1, 12));
        assert_eq!(tier.spill(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn warm_fetch_does_not_grow_buffers() {
        // 4000 rows x 400 B = 1.6 MB: a dense batch must split at the
        // transfer cap, and neither that nor a sparse batch may grow
        // the pooled request list or the log once warm.
        let wm = wm(4000, 100, 4);
        let mut tier = OocTier::build(&wm, &[0; 4000], 0).unwrap();
        let nvme = StorageCostModel::nvme();
        let dense: Vec<u32> = (0..4000).rev().collect();
        let st = tier.fetch(&dense, &nvme).unwrap();
        assert_eq!((st.requests, st.read_bytes), (2, 1_600_000));
        assert!(tier.issued().iter().all(|&(_, b)| b <= MAX_TRANSFER_BYTES));
        let caps = |t: &OocTier<f32>| (t.reqs.capacity(), t.file.issued.capacity());
        let warm = caps(&tier);
        for _ in 0..5 {
            // Rows 7 and 6 merge; 3000 is too far away to be worth it.
            let st = tier.fetch(&[7, 3000, 6], &nvme).unwrap();
            assert_eq!((st.requests, st.read_bytes), (2, 1200));
            tier.fetch(&dense, &nvme).unwrap();
            assert_eq!(caps(&tier), warm);
        }
    }

    #[test]
    fn truncated_spill_file_is_an_error_not_a_panic() {
        let wm = wm(100, 8, 2);
        let mut tier = OocTier::build(&wm, &[0; 100], 0).unwrap();
        // Cut the file mid-row 60: everything below still reads.
        tier.file.file.set_len(60 * 32 + 5).unwrap();
        tier.fetch(&[3, 59], &StorageCostModel::nvme()).unwrap();
        for rows in [&[60u32][..], &[99], &[58, 59, 60, 61]] {
            let err = tier.fetch(rows, &StorageCostModel::nvme()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{rows:?}");
        }
    }
}

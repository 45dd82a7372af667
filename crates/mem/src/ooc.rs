//! Out-of-core storage tier below the DSM.
//!
//! [`OocTier`] spills a [`WholeMemory`] allocation's feature rows to a
//! file-backed store and keeps only the hottest `budget_rows` rows
//! **resident** in the DSM. Attached to a gather's
//! [`TierStack`](crate::gather::TierStack) as its `disk` member, it is
//! the last stop of the cache → DSM → disk resolution; rows that fall to
//! disk are staged by [`OocTier::fetch`], the batched prefetch queue. A gather plan's disk rows are sorted into
//! file order and run through a coalescing **accumulator** (GIDS's
//! mechanism): file-adjacent rows merge into byte ranges, a range
//! extending across a gap of unrequested rows only while
//! [`StorageCostModel::request_time`] prices the merged request no
//! dearer than the two it replaces, up to [`MAX_TRANSFER_BYTES`]. Each
//! range is one positional read (`RowFile`, std-only) into a bounce
//! buffer, from which only the requested rows are decoded into the
//! pooled staging buffer the copy kernel treats as one more source
//! region.
//!
//! The contract is the same as the cache tier's: **values never move**.
//! The staged bytes really do round-trip through the file — the
//! bit-identity tests are witnessing actual disk I/O, not a simulated
//! flag — while the *cost* of the detour is the cost model's price of
//! exactly the requests issued ([`OocTier::issued`]): one seek share
//! per ranged read, each read's bytes (gaps included) at the bandwidth
//! its size achieves.

use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use wg_sim::cost::StorageCostModel;

use crate::access::Element;
use crate::gather::StorageIo;
use crate::handle::WholeMemory;

/// Fixed-width little-endian persistence: how the tier spills an
/// element. A supertrait of [`Element`] — every type the DSM stores can
/// be spilled, so the gather carries one bound whichever tiers its stack
/// holds.
pub trait Persist: Copy + Default {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Encode into `out` (exactly `BYTES` long).
    fn write_le(&self, out: &mut [u8]);
    /// Decode the packed run `bytes` (exactly `out.len() * BYTES` long)
    /// into `out`.
    fn read_le_into(bytes: &[u8], out: &mut [Self]);
}

macro_rules! persist_via_le_bytes {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le_into(bytes: &[u8], out: &mut [Self]) {
                assert_eq!(bytes.len(), std::mem::size_of_val(out), "persist run length");
                // One bulk copy where the encoded run *is* the in-memory
                // representation.
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: `$t` is a primitive number — no padding,
                    // every bit pattern a valid value — so `out` may be
                    // written through a byte view of exactly its own
                    // length (asserted above).
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), bytes.len())
                    };
                    wg_tensor::simd::copy_slice(wg_tensor::simd::level(), dst, bytes);
                }
                #[cfg(not(target_endian = "little"))]
                for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(Self::BYTES)) {
                    *v = Self::from_le_bytes(chunk.try_into().expect("persist width"));
                }
            }
        }
    )*};
}

persist_via_le_bytes!(f32, f64, u8, u32, i32, u64, i64);

/// Largest single ranged read the accumulator issues, and so the bound
/// on the tier's bounce buffer (a row wider than this is still one
/// request). Large enough that a dense batch streams at the saturated
/// bandwidth with a negligible seek share per range.
pub const MAX_TRANSFER_BYTES: usize = 1 << 20;

/// Std-only positional-read file abstraction: the reader half of a
/// memory-mapped view, without reaching for `mmap` (no new
/// dependencies). On Unix this is `pread(2)` — offset reads with no
/// shared cursor, so concurrent readers never seek over each other.
///
/// Every read is logged where it is issued: `issued` holds the
/// `(offset, bytes)` of each request since the log was last cleared,
/// and is the list the cost model prices.
struct RowFile {
    file: File,
    issued: Vec<(u64, usize)>,
}

impl RowFile {
    fn read_exact_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.issued.push((offset, buf.len()));
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            // Fallback for non-Unix hosts: seek + read on a cloned handle
            // so the tier's logical cursor never moves.
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

/// Unique suffix for spill files: pid + a process-wide counter, so
/// parallel test binaries (and parallel tiers within one) never collide.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wg_ooc_{}_{n}.bin", std::process::id()))
}

/// The file-backed storage tier for one [`WholeMemory`] allocation.
///
/// Construction writes every feature row to the spill file and marks the
/// `budget_rows` hottest rows resident; [`fetch`](Self::fetch) stages a
/// gather plan's non-resident rows. The spill file is deleted on drop.
pub struct OocTier<T> {
    file: RowFile,
    path: PathBuf,
    rows: usize,
    width: usize,
    budget_rows: usize,
    /// Per-row residency: `true` rows stay in the DSM, `false` rows are
    /// served from disk.
    resident: Vec<bool>,
    resident_rows: usize,
    // Pooled prefetch-queue state: allocation-free once warm.
    staging: Vec<T>,
    /// Bounce buffer one ranged read lands in: sized once at build to
    /// the largest range the accumulator can form.
    byte_buf: Vec<u8>,
    reqs: Vec<(u32, u32)>,
}

impl<T: Element> OocTier<T> {
    /// Spill `wm` to a fresh temp file and keep the `budget_rows` rows
    /// with the highest `hotness` resident (ties break toward lower row
    /// ids — the same deterministic ranking the static cache tier uses).
    /// `hotness.len()` must equal `wm.rows()`.
    pub fn build(wm: &WholeMemory<T>, hotness: &[u64], budget_rows: usize) -> io::Result<Self> {
        let rows = wm.rows();
        let width = wm.width();
        assert_eq!(hotness.len(), rows, "hotness signal shape mismatch");
        let path = spill_path();
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;

        // Write every row in global order: the file IS the feature
        // matrix, row-major, little-endian.
        let row_bytes = width * T::BYTES;
        let mut buf = vec![0u8; row_bytes];
        let mut row_buf = vec![T::default(); width];
        {
            use std::io::Write;
            let mut w = io::BufWriter::new(&file);
            for row in 0..rows {
                wm.read_row(row, &mut row_buf);
                for (v, chunk) in row_buf.iter().zip(buf.chunks_exact_mut(T::BYTES)) {
                    v.write_le(chunk);
                }
                w.write_all(&buf)?;
            }
            w.flush()?;
        }

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
            path,
            rows,
            width,
            budget_rows,
            resident,
            resident_rows,
            staging: Vec::new(),
            byte_buf: vec![0u8; MAX_TRANSFER_BYTES.min(rows * row_bytes).max(row_bytes)],
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

    /// Stage `rows` (global row ids, in plan-slot order) from the spill
    /// file into the pooled staging buffer: slot `i` of the buffer holds
    /// row `rows[i]`. Requests are sorted into file order and coalesced
    /// by the module-level merge rule, so the priced time of
    /// [`issued`](Self::issued) never exceeds the per-row price of the
    /// same batch and equals it when no two rows merge. One positional
    /// read per range; a warm tier stages an arbitrary batch with zero
    /// heap allocations. Returns the traffic: the rows asked for and the
    /// reads issued for them. A failed or short read (truncated spill
    /// file) is returned, and leaves the staging buffer unspecified.
    pub fn fetch(&mut self, rows: &[u32], storage: &StorageCostModel) -> io::Result<StorageIo> {
        // No clear: every slot is overwritten below; fill only new growth.
        self.staging.resize(rows.len() * self.width, T::default());
        self.reqs.clear();
        self.reqs
            .extend(rows.iter().enumerate().map(|(slot, &r)| (r, slot as u32)));
        self.reqs.sort_unstable();
        self.file.issued.clear();
        let row_bytes = self.width * T::BYTES;
        let row_time = storage.request_time(row_bytes);
        let mut i = 0;
        while i < self.reqs.len() {
            let start = self.reqs[i].0 as usize * row_bytes;
            let (mut len, mut time) = (row_bytes, row_time);
            let mut j = i + 1;
            while j < self.reqs.len() {
                let merged_len = (self.reqs[j].0 as usize + 1) * row_bytes - start;
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
            let buf = &mut self.byte_buf[..len];
            self.file.read_exact_at(buf, start as u64)?;
            for &(row, slot) in &self.reqs[i..j] {
                let at = row as usize * row_bytes - start;
                let dst = &mut self.staging[slot as usize * self.width..][..self.width];
                T::read_le_into(&buf[at..at + row_bytes], dst);
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

    /// The staging buffer filled by the last [`fetch`](Self::fetch).
    pub fn staging(&self) -> &[T] {
        &self.staging
    }

    /// `(offset, bytes)` of each positional read the last
    /// [`fetch`](Self::fetch) issued, in file order — the requests
    /// [`StorageCostModel::requests_time`] prices.
    pub fn issued(&self) -> &[(u64, usize)] {
        &self.file.issued
    }
}

impl<T> Drop for OocTier<T> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_sim::cost::AccessMode;
    use wg_sim::CostModel;

    fn wm(rows: usize, width: usize, ranks: u32) -> WholeMemory<f32> {
        let model = CostModel::dgx_a100();
        let wm = WholeMemory::<f32>::allocate(&model, ranks, rows, width, AccessMode::PeerAccess);
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
        // Out-of-order, duplicated request batch: slot order must follow
        // the request order, not the sorted file order.
        let rows: Vec<u32> = vec![299, 0, 150, 0, 42, 299];
        tier.fetch(&rows, &StorageCostModel::nvme()).unwrap();
        let mut expect = vec![0.0f32; 7];
        for (slot, &r) in rows.iter().enumerate() {
            wm.read_row(r as usize, &mut expect);
            assert_eq!(
                &tier.staging()[slot * 7..(slot + 1) * 7],
                &expect[..],
                "row {r} at slot {slot}"
            );
        }
    }

    #[test]
    fn u8_rows_roundtrip_through_the_spill_file() {
        let model = CostModel::dgx_a100();
        let wm = WholeMemory::<u8>::allocate(&model, 2, 40, 5, AccessMode::PeerAccess);
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
        for (slot, &r) in rows.iter().enumerate() {
            wm.read_row(r as usize, &mut expect);
            assert_eq!(
                &tier.staging()[slot * 5..(slot + 1) * 5],
                &expect,
                "row {r}"
            );
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

    #[test]
    fn spill_file_is_deleted_on_drop() {
        let wm = wm(10, 2, 1);
        let tier = OocTier::build(&wm, &[0; 10], 0).unwrap();
        let path = tier.path.clone();
        assert!(path.exists());
        drop(tier);
        assert!(!path.exists());
    }

    #[test]
    fn warm_fetch_does_not_grow_buffers() {
        // 4000 rows x 400 B = 1.6 MB: a dense batch must split at the
        // transfer cap, and neither that nor a sparse batch may grow
        // the bounce buffer sized at build.
        let wm = wm(4000, 100, 4);
        let mut tier = OocTier::build(&wm, &[0; 4000], 0).unwrap();
        let nvme = StorageCostModel::nvme();
        assert_eq!(tier.byte_buf.len(), MAX_TRANSFER_BYTES);
        let dense: Vec<u32> = (0..4000).rev().collect();
        let st = tier.fetch(&dense, &nvme).unwrap();
        assert_eq!((st.requests, st.read_bytes), (2, 1_600_000));
        assert!(tier.issued().iter().all(|&(_, b)| b <= MAX_TRANSFER_BYTES));
        let caps = |t: &OocTier<f32>| {
            (
                t.staging.capacity(),
                t.reqs.capacity(),
                t.byte_buf.capacity(),
                t.file.issued.capacity(),
            )
        };
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

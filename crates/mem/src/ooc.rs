//! Out-of-core storage tier below the DSM.
//!
//! [`OocTier`] prices a feature table whose hottest `budget_rows` rows
//! are **resident** in the DSM and whose other rows are served from
//! NVMe. Attached to a gather's [`TierStack`](crate::gather::TierStack)
//! as its `disk` member, it is the last stop of the cache → DSM → disk
//! resolution; rows that fall to disk go through [`OocTier::fetch`], the
//! batched prefetch queue. A gather plan's disk rows are sorted into
//! file order and run through a coalescing **accumulator** (GIDS's
//! mechanism): file-adjacent rows merge into byte ranges, a range
//! extending across a gap of unrequested rows only while
//! [`StorageCostModel::request_time`] prices the merged request no
//! dearer than the two it replaces, up to [`MAX_TRANSFER_BYTES`]. That
//! request list ([`OocTier::issued`]) is what a device would be sent and
//! what the cost model prices: a seek share per read, its bytes (gaps
//! included) at its size's bandwidth. The file is the feature table
//! row-major, so row `r` starts at byte `r × row bytes`.
//!
//! The tier prices reads; the DSM serves them. It holds no row values:
//! the DSM keeps every row whatever the budget, and the copy kernel reads
//! a disk-served row from the region that owns it, exactly as it reads a
//! resident one — so the contract the cache tier keeps holds here by
//! construction: **values never move**.

use wg_sim::cost::StorageCostModel;

use crate::access::Element;
use crate::gather::StorageIo;
use crate::handle::WholeMemory;

/// Largest single ranged read the accumulator issues (a row wider than
/// this is still one request). Large enough that a dense batch streams
/// at the saturated bandwidth with a negligible seek share per range.
pub const MAX_TRANSFER_BYTES: usize = 1 << 20;

/// The storage tier for one [`WholeMemory`] allocation: which rows are
/// DSM-resident, and the request list the last batch of the others cost.
pub struct OocTier {
    row_bytes: usize,
    /// Per-row residency: `true` rows stay in the DSM, `false` rows are
    /// served from disk.
    resident: Vec<bool>,
    /// Pooled accumulator input: a batch's rows in file order.
    reqs: Vec<u32>,
    /// `(offset, bytes)` of each ranged read of the last batch, pushed
    /// where the accumulator closes a range — what the model prices.
    issued: Vec<(u64, usize)>,
}

impl OocTier {
    /// Keep the `budget_rows` rows of `wm` with the highest `hotness`
    /// resident (ties break toward lower row ids — the same
    /// deterministic ranking the static cache tier uses); the rest are
    /// disk-served. `hotness.len()` must equal `wm.rows()`.
    pub fn build<T: Element>(wm: &WholeMemory<T>, hotness: &[u64], budget_rows: usize) -> Self {
        let rows = wm.rows();
        assert_eq!(hotness.len(), rows, "hotness signal shape mismatch");
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
        OocTier {
            row_bytes: wm.width() * std::mem::size_of::<T>(),
            resident,
            reqs: Vec::new(),
            issued: Vec::new(),
        }
    }

    /// Rows in the backing allocation.
    pub fn rows(&self) -> usize {
        self.resident.len()
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
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
    /// of the same batch and equals it when no two rows merge. A warm
    /// tier takes any batch with zero heap allocations. Returns the
    /// traffic: the rows asked for and the reads issued for them.
    pub fn fetch(&mut self, rows: &[u32], storage: &StorageCostModel) -> StorageIo {
        self.reqs.clear();
        self.reqs.extend_from_slice(rows);
        self.reqs.sort_unstable();
        self.issued.clear();
        let row_bytes = self.row_bytes;
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
            self.issued.push((start as u64, len));
            i = j;
        }
        StorageIo {
            rows: rows.len() as u64,
            bytes: (rows.len() * row_bytes) as u64,
            requests: self.issued.len() as u64,
            read_bytes: self.issued.iter().map(|&(_, b)| b as u64).sum(),
        }
    }

    /// `(offset, bytes)` of each ranged read the last
    /// [`fetch`](Self::fetch) issued, in file order — the requests
    /// [`StorageCostModel::requests_time`] prices.
    pub fn issued(&self) -> &[(u64, usize)] {
        &self.issued
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

    fn resident_rows(tier: &OocTier) -> usize {
        (0..tier.rows()).filter(|&r| tier.is_resident(r)).count()
    }

    /// A `u8` table is priced at one byte per element, and its
    /// disk-served rows come back from the gather unchanged.
    #[test]
    fn u8_rows_roundtrip_through_the_spill_file() {
        use crate::gather::{RowPlan, TierStack};
        use wg_sim::DeviceSpec;
        let model = CostModel::dgx_a100();
        let mut wm = WholeMemory::<u8>::allocate(&model, 2, 40, 5, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 7 + j) as u8;
            }
        });
        let mut stack = TierStack {
            cache: None,
            disk: Some(OocTier::build(&wm, &[0; 40], 0)),
        };
        let rows = [39usize, 0, 17];
        let mut plan = RowPlan::default();
        let mut out = [0u8; 15];
        stack.plan(&wm, &rows, 0, &mut plan);
        let stats = stack.execute(&wm, &plan, &mut out, 0, &model, &DeviceSpec::a100_40gb());
        assert_eq!(stats.storage_io.bytes, 15, "one byte per element");
        let mut expect = [0u8; 5];
        for (i, &r) in rows.iter().enumerate() {
            wm.read_row(r, &mut expect);
            assert_eq!(&out[i * 5..][..5], &expect, "row {r}");
        }
    }

    #[test]
    fn residency_keeps_the_hottest_rows() {
        let wm = wm(100, 4, 2);
        // Hotness = row id: the top-30 budget must keep rows 70..100.
        let hot: Vec<u64> = (0..100).collect();
        let tier = OocTier::build(&wm, &hot, 30);
        assert_eq!(resident_rows(&tier), 30);
        for r in 0..100 {
            assert_eq!(tier.is_resident(r), r >= 70, "row {r}");
        }
    }

    #[test]
    fn residency_ties_break_toward_lower_ids() {
        let wm = wm(10, 2, 1);
        let hot = vec![5u64; 10];
        let tier = OocTier::build(&wm, &hot, 4);
        for r in 0..10 {
            assert_eq!(tier.is_resident(r), r < 4, "row {r}");
        }
    }

    #[test]
    fn full_budget_keeps_everything_resident() {
        let wm = wm(50, 3, 2);
        let hot = vec![1u64; 50];
        let tier = OocTier::build(&wm, &hot, usize::MAX);
        assert_eq!(resident_rows(&tier), 50);
    }

    #[test]
    fn one_row_store_with_nothing_resident() {
        let wm = wm(1, 3, 1);
        let mut tier = OocTier::build(&wm, &[9], 0);
        assert_eq!((tier.rows(), resident_rows(&tier)), (1, 0));
        let nvme = StorageCostModel::nvme();
        assert_eq!(tier.fetch(&[], &nvme), StorageIo::default());
        assert!(tier.issued().is_empty());
        let io = tier.fetch(&[0, 0], &nvme);
        assert_eq!((io.rows, io.requests, io.read_bytes), (2, 1, 12));
    }

    #[test]
    fn warm_fetch_does_not_grow_buffers() {
        // 4000 rows x 400 B = 1.6 MB: a dense batch must split at the
        // transfer cap, and neither that nor a sparse batch may grow
        // the pooled request list or the log once warm.
        let wm = wm(4000, 100, 4);
        let mut tier = OocTier::build(&wm, &[0; 4000], 0);
        let nvme = StorageCostModel::nvme();
        let dense: Vec<u32> = (0..4000).rev().collect();
        let st = tier.fetch(&dense, &nvme);
        assert_eq!((st.requests, st.read_bytes), (2, 1_600_000));
        assert!(tier.issued().iter().all(|&(_, b)| b <= MAX_TRANSFER_BYTES));
        let caps = |t: &OocTier| (t.reqs.capacity(), t.issued.capacity());
        let warm = caps(&tier);
        for _ in 0..5 {
            // Rows 7 and 6 merge; 3000 is too far away to be worth it.
            let st = tier.fetch(&[7, 3000, 6], &nvme);
            assert_eq!((st.requests, st.read_bytes), (2, 1200));
            tier.fetch(&dense, &nvme);
            assert_eq!(caps(&tier), warm);
        }
    }
}

//! Element types and global address translation.

/// Marker trait for element types storable in a [`crate::WholeMemory`].
///
/// Stands in for "plain old device data": fixed-size, copyable, and safely
/// zero-initializable. Implemented for the scalar types GNN training needs;
/// the gather kernel moves rows of them with `copy_from_slice`.
pub trait Element: Copy + Default + Send + Sync + 'static {}

impl Element for f32 {}
impl Element for f64 {}
impl Element for u8 {}
impl Element for i32 {}
impl Element for u32 {}
impl Element for i64 {}
impl Element for u64 {}

/// Location of a global row: which device region owns it and at which local
/// row offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowLocation {
    /// Owning device rank (index into the memory pointer table).
    pub device_rank: u32,
    /// Row index within the owning region.
    pub local_row: usize,
}

/// Chunked row partitioning: rows `[d·rows_per_rank, (d+1)·rows_per_rank)`
/// live on rank `d`. This is exactly the layout a `cudaMalloc` per rank +
/// IPC mapping produces, and is how WholeGraph lays out both the CSR arrays
/// and the feature matrix (higher layers map *node IDs* onto this address
/// space with a hash, giving the §III-B "partition by node ID hash value").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkedPartition {
    /// Total rows in the allocation.
    pub rows: usize,
    /// Rows assigned to each rank (last rank may own fewer).
    pub rows_per_rank: usize,
    /// Number of ranks.
    pub ranks: u32,
}

impl ChunkedPartition {
    /// Partition `rows` rows over `ranks` devices in equal contiguous
    /// chunks (ceil division; the last rank absorbs the remainder).
    pub fn new(rows: usize, ranks: u32) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let rows_per_rank = rows.div_ceil(ranks as usize).max(1);
        ChunkedPartition {
            rows,
            rows_per_rank,
            ranks,
        }
    }

    /// Locate a global row.
    #[inline]
    pub fn locate(&self, row: usize) -> RowLocation {
        debug_assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        let device_rank = (row / self.rows_per_rank) as u32;
        RowLocation {
            device_rank,
            local_row: row - device_rank as usize * self.rows_per_rank,
        }
    }

    /// Number of rows rank `r` owns.
    pub fn rows_on_rank(&self, r: u32) -> usize {
        let start = r as usize * self.rows_per_rank;
        if start >= self.rows {
            0
        } else {
            (self.rows - start).min(self.rows_per_rank)
        }
    }

    /// Inverse of [`locate`](Self::locate).
    pub fn global_row(&self, device_rank: u32, local_row: usize) -> usize {
        device_rank as usize * self.rows_per_rank + local_row
    }
}

/// Division-free locator for a [`ChunkedPartition`].
///
/// [`ChunkedPartition::locate`] costs an integer division per row, which
/// dominates the address-translation side of a multi-million-row gather.
/// `ChunkLocator` precomputes a chunk base table (`bases[r] = r ·
/// rows_per_rank`) and a multiply-high magic reciprocal of
/// `rows_per_rank`: locating a row is then one widening multiply, a table
/// walk of at most a couple of steps to absorb the reciprocal's rounding,
/// and one subtract for the local row. Bit-exact against the dividing
/// oracle (see the proptest below).
#[derive(Clone, Debug)]
pub struct ChunkLocator {
    partition: ChunkedPartition,
    /// `⌊(2⁶⁴ − 1) / rows_per_rank⌋` — multiply-high by this
    /// underestimates `row / rows_per_rank` by at most 2.
    magic: u64,
    /// `bases[r] = r · rows_per_rank`, one entry per rank plus a sentinel.
    bases: Vec<usize>,
}

impl ChunkLocator {
    /// Precompute the locator tables for `partition`.
    pub fn new(partition: ChunkedPartition) -> Self {
        let d = partition.rows_per_rank as u64;
        let magic = u64::MAX / d;
        let bases = (0..=partition.ranks as usize)
            .map(|r| r.saturating_mul(partition.rows_per_rank))
            .collect();
        ChunkLocator {
            partition,
            magic,
            bases,
        }
    }

    /// The partition this locator was built for.
    pub fn partition(&self) -> ChunkedPartition {
        self.partition
    }

    /// Locate a global row — same result as
    /// [`ChunkedPartition::locate`], no division.
    #[inline]
    pub fn locate(&self, row: usize) -> RowLocation {
        debug_assert!(row < self.partition.rows, "row {row} out of bounds");
        let est = ((row as u128 * self.magic as u128) >> 64) as usize;
        let mut r = est.min(self.partition.ranks as usize - 1);
        while r + 1 < self.bases.len() && self.bases[r + 1] <= row {
            r += 1;
        }
        while self.bases[r] > row {
            r -= 1;
        }
        RowLocation {
            device_rank: r as u32,
            local_row: row - self.bases[r],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_partition() {
        let p = ChunkedPartition::new(8, 4);
        assert_eq!(p.rows_per_rank, 2);
        assert_eq!(
            p.locate(0),
            RowLocation {
                device_rank: 0,
                local_row: 0
            }
        );
        assert_eq!(
            p.locate(3),
            RowLocation {
                device_rank: 1,
                local_row: 1
            }
        );
        assert_eq!(
            p.locate(7),
            RowLocation {
                device_rank: 3,
                local_row: 1
            }
        );
        for r in 0..4 {
            assert_eq!(p.rows_on_rank(r), 2);
        }
    }

    #[test]
    fn uneven_partition_last_rank_short() {
        let p = ChunkedPartition::new(10, 4); // ceil(10/4)=3 per rank
        assert_eq!(p.rows_per_rank, 3);
        assert_eq!(p.rows_on_rank(0), 3);
        assert_eq!(p.rows_on_rank(3), 1);
        assert_eq!(p.locate(9).device_rank, 3);
    }

    #[test]
    fn more_ranks_than_rows() {
        let p = ChunkedPartition::new(2, 8);
        assert_eq!(p.rows_on_rank(0), 1);
        assert_eq!(p.rows_on_rank(1), 1);
        assert_eq!(p.rows_on_rank(2), 0);
        assert_eq!(p.rows_on_rank(7), 0);
    }

    #[test]
    fn chunk_locator_handles_rows_per_rank_one() {
        // rows_per_rank == 1 exercises the magic-reciprocal edge case.
        let p = ChunkedPartition::new(8, 8);
        assert_eq!(p.rows_per_rank, 1);
        let loc = ChunkLocator::new(p);
        for row in 0..8 {
            assert_eq!(loc.locate(row), p.locate(row));
        }
    }

    proptest! {
        #[test]
        fn chunk_locator_matches_dividing_oracle(
            rows in 1usize..1_000_000,
            ranks in 1u32..64,
            sel in 0.0f64..1.0,
        ) {
            let p = ChunkedPartition::new(rows, ranks);
            let loc = ChunkLocator::new(p);
            let row = ((rows as f64 - 1.0) * sel) as usize;
            prop_assert_eq!(loc.locate(row), p.locate(row));
            // Chunk boundaries are where the reciprocal estimate is most
            // likely to be off by one — probe them all.
            for r in 0..ranks as usize {
                for probe in [r * p.rows_per_rank, (r + 1) * p.rows_per_rank - 1] {
                    if probe < rows {
                        prop_assert_eq!(loc.locate(probe), p.locate(probe));
                    }
                }
            }
        }

        #[test]
        fn locate_roundtrips(rows in 1usize..10_000, ranks in 1u32..16, sel in 0.0f64..1.0) {
            let p = ChunkedPartition::new(rows, ranks);
            let row = ((rows as f64 - 1.0) * sel) as usize;
            let loc = p.locate(row);
            prop_assert!(loc.device_rank < ranks);
            prop_assert!(loc.local_row < p.rows_on_rank(loc.device_rank));
            prop_assert_eq!(p.global_row(loc.device_rank, loc.local_row), row);
        }

        #[test]
        fn rank_row_counts_sum_to_total(rows in 1usize..10_000, ranks in 1u32..16) {
            let p = ChunkedPartition::new(rows, ranks);
            let total: usize = (0..ranks).map(|r| p.rows_on_rank(r)).sum();
            prop_assert_eq!(total, rows);
        }
    }
}

//! Hotness-aware per-device feature cache over [`WholeMemory`].
//!
//! GNN feature accesses are heavily Zipf-skewed: a small set of
//! high-degree vertices appears in almost every sampled mini-batch, so a
//! per-device cache of hot rows converts most remote gathers into
//! local-HBM hits (PyTorch-Direct's GPU-centric access analysis and
//! FastSample's locality-aware feature handling both exploit the same
//! skew). Two modes:
//!
//! * [`CacheMode::Static`] — rank rows by a hotness score (degree or
//!   observed access frequency), pin the top-K into the cache at load
//!   time, and replicate that hot set to every device. Never evicts, so
//!   one shared directory serves all devices.
//! * [`CacheMode::Clock`] — per-device caches that fill on miss with
//!   CLOCK (second-chance) eviction for streaming/serving traffic whose
//!   hot set drifts. Eviction decisions run **at plan time inside the
//!   sequential planning loop**, so they are identical at any worker
//!   count — determinism does not depend on the copy kernel's schedule.
//!
//! A cache does nothing on its own: it is the `cache` member of a
//! gather's [`TierStack`](crate::gather::TierStack), consulted first by
//! the one `plan`.
//!
//! The cache prices reads; the DSM serves them. A [`FeatureCache`] is a
//! *directory* — which rows each device's cache would hold — and keeps
//! no row values: a hit is copied from the DSM region that owns the row,
//! like any other, and merely priced at local-HBM bandwidth instead of
//! NVLink by the gather. So the cache changes *cost only, never values*.
//!
//! Steady-state lookups are allocation-free: the row→slot map is a fixed
//! open-addressed table (linear probing, backward-shift deletion — no
//! tombstones) sized at build time, and every per-slot side array is
//! preallocated at capacity.

use crate::access::Element;
use crate::handle::WholeMemory;

/// Replacement policy of a [`FeatureCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// Top-K hottest rows pinned at build time, replicated to every
    /// device; no eviction.
    #[default]
    Static,
    /// Fill-on-miss per-device caches with deterministic CLOCK
    /// (second-chance) eviction.
    Clock,
}

impl CacheMode {
    /// Parse a CLI spelling (`static` | `clock`).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "static" => Some(CacheMode::Static),
            "clock" => Some(CacheMode::Clock),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheMode::Static => "static",
            CacheMode::Clock => "clock",
        }
    }
}

/// Row value marking a free table bucket / free slot.
const EMPTY_ROW: usize = usize::MAX;

#[derive(Clone, Copy)]
struct TableEntry {
    row: usize,
    slot: u32,
}

/// One device's cache directory: an open-addressed row→slot lookup
/// table and the CLOCK bookkeeping.
pub(crate) struct DeviceCache {
    capacity: usize,
    /// Open-addressed lookup table, linear probing, power-of-two size.
    table: Vec<TableEntry>,
    mask: usize,
    hash_shift: u32,
    /// slot → global row currently cached there ([`EMPTY_ROW`] if free).
    slot_rows: Vec<usize>,
    /// CLOCK reference bits (second chance).
    ref_bits: Vec<bool>,
    /// slot → id of the batch that last referenced it. A slot stamped
    /// with the current batch is never evicted: a row the batch has
    /// already hit or inserted stays a hit for the rest of that batch.
    /// Values do not depend on it (every row is read from its owning
    /// region), but the hit trajectory — and so the simulated clock
    /// that prices it — does.
    stamp: Vec<u64>,
    /// CLOCK hand.
    hand: usize,
    /// Occupied slots (grows monotonically to `capacity`).
    len: usize,
    /// Current batch id, advanced by [`begin_batch`](Self::begin_batch).
    batch: u64,
    /// Slots carrying the current batch's stamp. Once every slot is
    /// stamped, [`insert`](Self::insert) fails in O(1) instead of
    /// sweeping the whole ring per miss — on a miss-heavy stream whose
    /// working set dwarfs the cache, the sweep would otherwise cost
    /// O(misses × capacity) per batch for inserts that cannot succeed.
    stamped: usize,
}

impl DeviceCache {
    fn new(capacity: usize) -> Self {
        let table_len = (2 * capacity).next_power_of_two().max(2);
        DeviceCache {
            capacity,
            table: vec![
                TableEntry {
                    row: EMPTY_ROW,
                    slot: 0
                };
                table_len
            ],
            mask: table_len - 1,
            hash_shift: 64 - table_len.trailing_zeros(),
            slot_rows: vec![EMPTY_ROW; capacity],
            ref_bits: vec![false; capacity],
            stamp: vec![0; capacity],
            hand: 0,
            len: 0,
            batch: 0,
            stamped: 0,
        }
    }

    /// Fibonacci-multiplicative home bucket of `row` (high product bits —
    /// low bits of sequential row ids are far too regular for masking).
    #[inline]
    fn bucket(&self, row: usize) -> usize {
        (row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) & self.mask
    }

    /// The slot caching `row`, if present. Allocation-free.
    #[inline]
    pub(crate) fn lookup(&self, row: usize) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.bucket(row);
        loop {
            let e = self.table[i];
            if e.row == row {
                return Some(e.slot);
            }
            if e.row == EMPTY_ROW {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Record a reference to `slot` (second chance + same-batch pin).
    #[inline]
    pub(crate) fn touch(&mut self, slot: u32) {
        self.ref_bits[slot as usize] = true;
        self.stamp_current(slot as usize);
    }

    /// Stamp `slot` with the current batch, keeping the stamped-slot
    /// count exact (each slot counts once per batch).
    #[inline]
    fn stamp_current(&mut self, slot: usize) {
        if self.stamp[slot] != self.batch {
            self.stamp[slot] = self.batch;
            self.stamped += 1;
        }
    }

    /// Start a new planning batch (advances the eviction-protection
    /// stamp; `batch` increments monotonically, so no slot can already
    /// carry the new value).
    pub(crate) fn begin_batch(&mut self) {
        self.batch += 1;
        self.stamped = 0;
    }

    /// Claim a slot for `row`: a free slot while the cache is filling,
    /// then CLOCK eviction. Returns `None` when every slot is protected
    /// by the current batch. Updates the lookup table — the only thing
    /// an insert changes.
    pub(crate) fn insert(&mut self, row: usize) -> Option<u32> {
        if self.capacity == 0 {
            return None;
        }
        let slot = if self.len < self.capacity {
            self.len += 1;
            self.len - 1
        } else {
            // Every slot already stamped by this batch → no victim can
            // exist; bail in O(1). State-identical to the failed sweep
            // below: the stamp check fires before the ref-bit clear, so
            // a sweep over all-stamped slots mutates nothing anyway.
            if self.stamped >= self.capacity {
                return None;
            }
            // Bounded two-revolution sweep: the first pass clears ref
            // bits, so the second must find a victim unless every slot
            // carries the current batch's stamp.
            let mut victim = None;
            for _ in 0..2 * self.capacity {
                let s = self.hand;
                self.hand = (self.hand + 1) % self.capacity;
                if self.stamp[s] == self.batch {
                    continue;
                }
                if self.ref_bits[s] {
                    self.ref_bits[s] = false;
                    continue;
                }
                victim = Some(s);
                break;
            }
            let s = victim?;
            self.table_remove(self.slot_rows[s]);
            s
        };
        self.slot_rows[slot] = row;
        self.ref_bits[slot] = true;
        self.stamp_current(slot);
        self.table_insert(row, slot as u32);
        Some(slot as u32)
    }

    fn table_insert(&mut self, row: usize, slot: u32) {
        let mut i = self.bucket(row);
        while self.table[i].row != EMPTY_ROW {
            i = (i + 1) & self.mask;
        }
        self.table[i] = TableEntry { row, slot };
    }

    /// Remove `row` with backward-shift deletion: every displaced entry
    /// after the hole moves back into it, so probe chains stay intact
    /// without tombstones and lookups stay O(cluster) forever.
    fn table_remove(&mut self, row: usize) {
        let mut i = self.bucket(row);
        while self.table[i].row != row {
            debug_assert_ne!(self.table[i].row, EMPTY_ROW, "removing absent row");
            i = (i + 1) & self.mask;
        }
        let mut j = i;
        loop {
            self.table[i] = TableEntry {
                row: EMPTY_ROW,
                slot: 0,
            };
            loop {
                j = (j + 1) & self.mask;
                if self.table[j].row == EMPTY_ROW {
                    return;
                }
                let home = self.bucket(self.table[j].row);
                // Entry j may fill the hole at i iff its home bucket is
                // not cyclically inside (i, j] — moving it then keeps it
                // reachable from its home by linear probing.
                let moves = if i <= j {
                    home <= i || home > j
                } else {
                    home <= i && home > j
                };
                if moves {
                    break;
                }
            }
            self.table[i] = self.table[j];
            i = j;
        }
    }

    /// Occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The global row cached in `slot` (tests/debugging).
    #[cfg(test)]
    fn slot_row(&self, slot: u32) -> usize {
        self.slot_rows[slot as usize]
    }
}

/// A per-device feature cache directory over a [`WholeMemory`]. See the
/// module docs for the two modes and the determinism argument.
pub struct FeatureCache {
    mode: CacheMode,
    /// One directory per device in [`CacheMode::Clock`]; a single shared
    /// one in [`CacheMode::Static`] (every device pins the same top-K —
    /// the *simulated* layout is still one copy per device).
    devices: Vec<DeviceCache>,
}

impl FeatureCache {
    /// Build a static cache: the `capacity` rows with the highest
    /// `hotness` score (ties broken by lower row id — fully
    /// deterministic) are pinned. `hotness` is one score per global row
    /// of `wm`: vertex degree at load time, or an observed
    /// access-frequency profile.
    pub fn new_static<T: Element>(wm: &WholeMemory<T>, hotness: &[u64], capacity: usize) -> Self {
        assert_eq!(
            hotness.len(),
            wm.rows(),
            "hotness scores must cover every row"
        );
        let capacity = capacity.min(wm.rows());
        let mut order: Vec<usize> = (0..wm.rows()).collect();
        order.sort_by(|&a, &b| hotness[b].cmp(&hotness[a]).then(a.cmp(&b)));
        let mut dc = DeviceCache::new(capacity);
        for &row in &order[..capacity] {
            dc.insert(row).expect("static build fills free slots");
        }
        FeatureCache {
            mode: CacheMode::Static,
            devices: vec![dc],
        }
    }

    /// Build an empty CLOCK cache with `capacity` row slots on each of
    /// `devices` devices; slots fill as misses stream through
    /// [`TierStack::plan`](crate::gather::TierStack::plan).
    pub fn new_clock<T: Element>(wm: &WholeMemory<T>, devices: u32, capacity: usize) -> Self {
        let capacity = capacity.min(wm.rows());
        FeatureCache {
            mode: CacheMode::Clock,
            devices: (0..devices.max(1))
                .map(|_| DeviceCache::new(capacity))
                .collect(),
        }
    }

    /// The replacement policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Rows currently cached on `device`.
    pub fn occupied(&self, device: u32) -> usize {
        self.device(device).len()
    }

    #[inline]
    fn device_index(&self, device: u32) -> usize {
        match self.mode {
            CacheMode::Static => 0,
            CacheMode::Clock => device as usize,
        }
    }

    #[inline]
    pub(crate) fn device(&self, device: u32) -> &DeviceCache {
        &self.devices[self.device_index(device)]
    }

    #[inline]
    pub(crate) fn device_mut(&mut self, device: u32) -> &mut DeviceCache {
        let i = self.device_index(device);
        &mut self.devices[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use wg_sim::cost::AccessMode;
    use wg_sim::CostModel;

    fn wm(rows: usize, width: usize, ranks: u32) -> WholeMemory<f32> {
        let model = CostModel::dgx_a100();
        let mut wm =
            WholeMemory::<f32>::allocate(&model, ranks, rows, width, AccessMode::PeerAccess);
        wm.init_rows(|row, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (row * 100 + j) as f32;
            }
        });
        wm
    }

    #[test]
    fn cache_mode_parses_cli_spellings() {
        assert_eq!(CacheMode::parse("static"), Some(CacheMode::Static));
        assert_eq!(CacheMode::parse("clock"), Some(CacheMode::Clock));
        assert_eq!(CacheMode::parse("lru"), None);
        assert_eq!(
            CacheMode::parse(CacheMode::Clock.as_str()),
            Some(CacheMode::Clock)
        );
    }

    #[test]
    fn static_cache_pins_topk_by_hotness_with_deterministic_ties() {
        let wm = wm(100, 4, 4);
        // Rows 10/20/30 are hottest; 40 and 50 tie — lower id wins.
        let mut hot = vec![0u64; 100];
        hot[10] = 9;
        hot[20] = 8;
        hot[30] = 7;
        hot[40] = 5;
        hot[50] = 5;
        let cache = FeatureCache::new_static(&wm, &hot, 4);
        for row in [10, 20, 30, 40] {
            assert!(
                cache.device(0).lookup(row).is_some(),
                "row {row} should be pinned"
            );
            // Static mode replicates: every device sees the same set.
            assert!(cache.device(3).lookup(row).is_some());
        }
        assert!(
            cache.device(0).lookup(50).is_none(),
            "tie loser must not be pinned"
        );
        assert!(cache.device(0).lookup(0).is_none());
        assert_eq!(cache.occupied(0), 4);
        assert_eq!(cache.mode(), CacheMode::Static);
    }

    #[test]
    fn capacity_is_clamped_to_row_count() {
        let wm = wm(10, 2, 2);
        let cache = FeatureCache::new_static(&wm, &[1; 10], 1000);
        assert_eq!(cache.device(0).capacity, 10);
        let clock = FeatureCache::new_clock(&wm, 2, 1000);
        assert!((0..2).all(|d| clock.device(d).capacity == 10));
    }

    #[test]
    fn zero_capacity_cache_never_hits_or_inserts() {
        let wm = wm(10, 2, 2);
        let mut cache = FeatureCache::new_clock(&wm, 2, 0);
        let dc = cache.device_mut(0);
        dc.begin_batch();
        assert_eq!(dc.insert(3), None);
        assert_eq!(dc.lookup(3), None);
        assert!(cache.device(0).lookup(3).is_none());
    }

    #[test]
    fn clock_second_chance_evicts_unreferenced_first() {
        let wm = wm(100, 2, 2);
        let mut cache = FeatureCache::new_clock(&wm, 1, 3);
        let dc = cache.device_mut(0);
        // Fill with rows 1,2,3 (one batch each so stamps don't pin).
        for row in [1usize, 2, 3] {
            dc.begin_batch();
            assert!(dc.insert(row).is_some());
        }
        // Re-reference row 1 in a later batch (sets its ref bit again).
        dc.begin_batch();
        let s1 = dc.lookup(1).unwrap();
        dc.touch(s1);
        // Insert row 4: the first revolution clears all three ref bits
        // (every slot was referenced at least once), then the hand is
        // back at slot 0, whose bit is now spent — one second chance is
        // exactly one, so row 1 goes.
        dc.begin_batch();
        let slot = dc.insert(4).unwrap();
        assert_eq!(dc.slot_row(slot), 4);
        assert_eq!(
            dc.lookup(1),
            None,
            "hand reached slot 0 after one revolution"
        );
        assert!(dc.lookup(2).is_some());
        assert!(dc.lookup(3).is_some());
        // Next insert evicts slot 1 (row 2): its bit was cleared by the
        // previous sweep and not refreshed.
        dc.begin_batch();
        assert!(dc.insert(5).is_some());
        assert_eq!(dc.lookup(2), None);
        assert!(dc.lookup(4).is_some());
    }

    #[test]
    fn clock_never_evicts_current_batch_rows() {
        let wm = wm(100, 2, 2);
        let mut cache = FeatureCache::new_clock(&wm, 1, 2);
        let dc = cache.device_mut(0);
        dc.begin_batch();
        assert!(dc.insert(1).is_some());
        assert!(dc.insert(2).is_some());
        // Same batch: both slots carry the current stamp — a third
        // insert must fail rather than corrupt a planned hit.
        assert_eq!(dc.insert(3), None);
        // Next batch the protection lapses.
        dc.begin_batch();
        assert!(dc.insert(3).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The open-addressed table (insert + backward-shift delete via
        /// CLOCK eviction) always agrees with a HashMap oracle.
        #[test]
        fn table_matches_hashmap_oracle(
            capacity in 1usize..24,
            rows in proptest::collection::vec(0usize..64, 1..200),
        ) {
            let mut dc = DeviceCache::new(capacity);
            let mut oracle: HashMap<usize, u32> = HashMap::new();
            for row in rows {
                dc.begin_batch();
                match dc.lookup(row) {
                    Some(slot) => {
                        prop_assert_eq!(oracle.get(&row).copied(), Some(slot));
                        dc.touch(slot);
                    }
                    None => {
                        prop_assert!(!oracle.contains_key(&row));
                        if let Some(slot) = dc.insert(row) {
                            oracle.retain(|_, s| *s != slot);
                            oracle.insert(row, slot);
                        }
                    }
                }
                // Full-table agreement after every step.
                for (&r, &s) in &oracle {
                    prop_assert_eq!(dc.lookup(r), Some(s));
                }
                prop_assert_eq!(dc.len(), oracle.len());
            }
        }
    }
}

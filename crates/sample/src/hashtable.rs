//! GPU-style open-addressing hash table.
//!
//! §III-C2 adopts "the hash table method instead of the sort method used in
//! other frameworks" and borrows the insertion scheme of **Warpcore**
//! (Jünger et al., HiPC '20): a flat open-addressing table whose slots are
//! claimed with atomic compare-and-swap, probed linearly — the access
//! pattern that coalesces well on GPUs. Slots are inserted into
//! concurrently from rayon worker threads with exactly the CAS discipline
//! of the CUDA kernel.
//!
//! Everything AppendUnique keeps per key lives in **one packed 16-byte
//! slot** — key, first-occurrence watermark (later the sub-graph ID) and
//! duplicate count — so an insert touches one cache line, and
//! [`GpuHashTable::reset`] wipes only the slots the next use needs.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel for an unoccupied slot. Keys equal to this value cannot be
/// stored (node GlobalIds never collide with it: rank 65535 + max local).
pub const EMPTY_KEY: u64 = u64::MAX;

/// Mark of a slot no insertion has noted a position for yet.
pub const NO_POSITION: u32 = u32::MAX;

/// One key's whole record, aligned to its size so it never straddles a
/// cache line.
#[repr(C, align(16))]
struct Slot {
    key: AtomicU64,
    /// Smallest input position that inserted the key (`fetch_min`-
    /// maintained). Which *slot* a key lands in depends on CAS races under
    /// linear probing, but this does not — AppendUnique orders its unique
    /// list by it so sub-graph IDs are schedule-free, then overwrites it
    /// with the ID ([`GpuHashTable::set_mark`]).
    mark: AtomicU32,
    /// How many times the key was sampled as a neighbor (§III-C4).
    count: AtomicU32,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            key: AtomicU64::new(EMPTY_KEY),
            mark: AtomicU32::new(NO_POSITION),
            count: AtomicU32::new(0),
        }
    }
}

/// A fixed-capacity concurrent hash table with linear probing.
///
/// `Default` is a zero-slot table; size it with [`reset`](Self::reset)
/// before use.
#[derive(Default)]
pub struct GpuHashTable {
    /// Backing storage; only `slots[..=mask]` is in use.
    slots: Vec<Slot>,
    mask: usize,
}

/// Outcome of an insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insert {
    /// The key was absent; this call claimed slot `.0`.
    New(u32),
    /// The key already existed in slot `.0`.
    Existing(u32),
}

/// Slots needed to hold `capacity` keys at ≤50% load factor.
fn slots_for(capacity: usize) -> usize {
    let slots = (capacity.max(1) * 2).next_power_of_two();
    // Slot indices are handed out (and stored in CSR index arrays) as u32.
    assert!(slots as u64 <= 1 << 32, "hash table slots exceed u32");
    slots
}

impl GpuHashTable {
    /// A table able to hold at least `capacity` keys at ≤50% load factor.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = slots_for(capacity);
        GpuHashTable {
            slots: (0..slots).map(|_| Slot::empty()).collect(),
            mask: slots - 1,
        }
    }

    /// Number of slots in use (0 for the unsized default table).
    pub fn num_slots(&self) -> usize {
        self.slots.len().min(self.mask + 1)
    }

    /// Clear the table for reuse with at least `capacity` keys at ≤50% load
    /// factor: grow (reallocate) only when the storage is too small,
    /// otherwise shrink the probed range to what `capacity` needs and wipe
    /// just that. How many slots are in use changes which slots keys probe
    /// to, but AppendUnique's outputs are keyed on first-occurrence
    /// watermarks rather than slot order, so results are identical at any
    /// table size.
    pub fn reset(&mut self, capacity: usize) {
        let needed = slots_for(capacity);
        if needed > self.slots.len() {
            *self = Self::with_capacity(capacity);
            return;
        }
        self.mask = needed - 1;
        self.slots[..needed]
            .par_iter_mut()
            .with_min_len(4096)
            .for_each(|s| *s = Slot::empty());
    }

    #[inline]
    fn hash(&self, key: u64) -> usize {
        // splitmix64 finalizer — same mixer the partitioner uses.
        let mut x = key.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        (x ^ (x >> 31)) as usize & self.mask
    }

    /// Insert `key`, claiming a slot with CAS if absent, and lower the
    /// slot's watermark to `position`. Thread-safe; the final watermark is
    /// the minimum over all inserts of the key whatever their interleaving.
    ///
    /// # Panics
    /// When every slot holds some other key — the caller understated how
    /// many distinct keys it would insert. (A full table would otherwise
    /// probe forever.)
    #[inline]
    pub fn insert(&self, key: u64, position: u32) -> Insert {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key is not storable");
        let home = self.hash(key);
        for probe in 0..self.num_slots() {
            let slot = (home + probe) & self.mask;
            let s = &self.slots[slot];
            let new = match s.key.load(Ordering::Acquire) {
                cur if cur == key => false,
                EMPTY_KEY => {
                    match s.key.compare_exchange(
                        EMPTY_KEY,
                        key,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => true,
                        Err(winner) if winner == key => false,
                        Err(_) => continue, // lost to a different key: probe on
                    }
                }
                _ => continue,
            };
            // `fetch_min` is a CAS loop on x86 and most inserts are
            // duplicates at a later position. The watermark only ever
            // falls, so a stale (higher) read can only send a position to
            // `fetch_min` needlessly, never skip the minimum.
            if position < s.mark.load(Ordering::Relaxed) {
                s.mark.fetch_min(position, Ordering::AcqRel);
            }
            return if new {
                Insert::New(slot as u32)
            } else {
                Insert::Existing(slot as u32)
            };
        }
        panic!(
            "hash table full: more than {} distinct keys inserted into a table sized for fewer",
            self.num_slots()
        );
    }

    /// [`insert`](Self::insert) and bump the slot's duplicate counter
    /// (neighbor insertion). Returns the key's slot.
    #[inline]
    pub fn insert_counted(&self, key: u64, position: u32) -> u32 {
        let (Insert::New(slot) | Insert::Existing(slot)) = self.insert(key, position);
        self.slots[slot as usize]
            .count
            .fetch_add(1, Ordering::Relaxed);
        slot
    }

    /// Key stored in a slot (or `EMPTY_KEY`).
    #[inline]
    pub fn key_at(&self, slot: u32) -> u64 {
        self.slots[slot as usize].key.load(Ordering::Acquire)
    }

    /// A slot's mark: the smallest position noted for it (`NO_POSITION` if
    /// none), or whatever [`set_mark`](Self::set_mark) stored since.
    #[inline]
    pub fn mark_at(&self, slot: u32) -> u32 {
        self.slots[slot as usize].mark.load(Ordering::Acquire)
    }

    /// Overwrite a slot's mark (AppendUnique stores the sub-graph ID here
    /// once the watermark has served its purpose).
    #[inline]
    pub fn set_mark(&self, slot: u32, value: u32) {
        self.slots[slot as usize]
            .mark
            .store(value, Ordering::Release);
    }

    /// Duplicate counter of a slot.
    #[inline]
    pub fn count_at(&self, slot: u32) -> u32 {
        self.slots[slot as usize].count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Slot of a key that must already be present (re-inserting at
    /// `NO_POSITION` finds it without moving its watermark).
    fn slot_of(t: &GpuHashTable, key: u64) -> u32 {
        match t.insert(key, NO_POSITION) {
            Insert::Existing(s) => s,
            Insert::New(_) => panic!("key {key} was not in the table"),
        }
    }

    #[test]
    fn slot_is_one_aligned_sixteen_byte_record() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert_eq!(std::mem::align_of::<Slot>(), 16);
    }

    #[test]
    fn insert_then_find() {
        let t = GpuHashTable::with_capacity(16);
        let slot = match t.insert(42, 9) {
            Insert::New(s) => s,
            Insert::Existing(_) => panic!("fresh key reported existing"),
        };
        assert_eq!(t.insert(42, 11), Insert::Existing(slot));
        assert_eq!(t.key_at(slot), 42);
        assert_eq!(
            t.mark_at(slot),
            9,
            "a later position must not raise the mark"
        );
        assert_eq!(t.insert(42, 3), Insert::Existing(slot));
        assert_eq!(t.mark_at(slot), 3);
        t.set_mark(slot, 7);
        assert_eq!(t.mark_at(slot), 7);
        assert_eq!(t.count_at(slot), 0, "plain inserts are not counted");
    }

    #[test]
    fn colliding_keys_probe_to_distinct_slots() {
        let t = GpuHashTable::with_capacity(4); // 8 slots
        let mut slots = std::collections::HashSet::new();
        for key in 0..6u64 {
            let s = match t.insert(key, 0) {
                Insert::New(s) => s,
                Insert::Existing(_) => panic!("duplicate for fresh key"),
            };
            assert!(slots.insert(s), "slot reused");
        }
        for key in 0..6u64 {
            assert_eq!(t.key_at(slot_of(&t, key)), key);
        }
    }

    #[test]
    fn concurrent_inserts_claim_each_key_once() {
        let t = GpuHashTable::with_capacity(10_000);
        // 16 tasks insert an overlapping key range; every key must be
        // claimed as New exactly once.
        let news: usize = (0..16u32)
            .into_par_iter()
            .map(|_| {
                (0..5000u64)
                    .filter(|&k| matches!(t.insert(k, 0), Insert::New(_)))
                    .count()
            })
            .sum();
        assert_eq!(news, 5000);
        for k in 0..5000u64 {
            slot_of(&t, k);
        }
    }

    #[test]
    fn duplicate_counts_accumulate() {
        let t = GpuHashTable::with_capacity(8);
        let s5 = t.insert_counted(5, 0);
        assert_eq!(t.insert_counted(5, 1), s5);
        assert_eq!(t.insert_counted(5, 2), s5);
        let s6 = t.insert_counted(6, 3);
        assert_eq!(t.count_at(s5), 3);
        assert_eq!(t.count_at(s6), 1);
    }

    /// Fill *every* slot (100% occupancy — twice the nominal capacity)
    /// from 8 OS threads with overlapping, differently-ordered key ranges.
    /// Every key must be claimed `New` exactly once and land in its own
    /// slot; uses `std::thread::scope` directly so the contention is real
    /// even when the rayon pool runs single-threaded.
    #[test]
    fn concurrent_inserts_fill_every_slot() {
        let t = GpuHashTable::with_capacity(2048); // 4096 slots
        let slots = t.num_slots() as u64;
        let news = AtomicUsize::new(0);
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let (t, news, start) = (&t, &news, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..slots {
                        // Stride the range differently per thread so CAS
                        // collisions happen all over the table.
                        let key = (k * (2 * tid + 1)) % slots;
                        if matches!(t.insert(key, 0), Insert::New(_)) {
                            news.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(news.load(Ordering::SeqCst), slots as usize);
        let mut seen = std::collections::HashSet::new();
        for s in 0..t.num_slots() as u32 {
            let k = t.key_at(s);
            assert_ne!(k, EMPTY_KEY, "slot {s} left empty at full occupancy");
            assert!(seen.insert(k), "key {k} stored twice");
        }
    }

    /// Hammer a handful of keys' packed slots from 8 OS threads released
    /// together: each key is claimed once, its duplicate count is exact and
    /// its watermark settles on the global minimum position regardless of
    /// interleaving — although key, mark and count share one cache line.
    #[test]
    fn contended_packed_slots_count_exactly_and_keep_the_minimum_position() {
        const KEYS: usize = 4;
        const PER_THREAD: usize = 10_000;
        let t = GpuHashTable::with_capacity(64);
        let news = AtomicUsize::new(0);
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for tid in 0..8usize {
                let (t, news, start) = (&t, &news, &start);
                s.spawn(move || {
                    start.wait();
                    // Odd threads walk their positions downwards, so the
                    // minimum arrives late on half of them.
                    for step in 0..PER_THREAD {
                        let i = if tid % 2 == 0 {
                            step
                        } else {
                            PER_THREAD - 1 - step
                        };
                        let key = (i % KEYS) as u64;
                        let position = (tid * PER_THREAD + i) as u32;
                        if matches!(t.insert(key, position), Insert::New(_)) {
                            news.fetch_add(1, Ordering::SeqCst);
                        }
                        t.insert_counted(key, position);
                    }
                });
            }
        });
        assert_eq!(news.load(Ordering::SeqCst), KEYS);
        for key in 0..KEYS as u64 {
            let slot = slot_of(&t, key);
            assert_eq!(t.count_at(slot), (8 * PER_THREAD / KEYS) as u32);
            // Smallest position ever noted for `key` is thread 0's `i == key`.
            assert_eq!(t.mark_at(slot), key as u32);
        }
    }

    #[test]
    fn reset_wipes_only_what_the_next_use_needs_and_keeps_storage() {
        let mut t = GpuHashTable::default();
        assert_eq!(t.num_slots(), 0);
        t.reset(100); // grows from the empty default table
        assert_eq!(t.num_slots(), 256);
        for k in 0..50u64 {
            let slot = t.insert_counted(k, k as u32);
            t.set_mark(slot, 5);
        }
        let storage = t.slots.as_ptr();
        t.reset(40); // smaller request: fewer slots probed, same storage
        assert_eq!(t.num_slots(), 128);
        assert_eq!(t.slots.as_ptr(), storage, "storage must be kept");
        for s in 0..t.num_slots() as u32 {
            assert_eq!(t.key_at(s), EMPTY_KEY);
            assert_eq!(t.mark_at(s), NO_POSITION);
            assert_eq!(t.count_at(s), 0);
        }
        for k in 0..40u64 {
            assert!(matches!(t.insert(k, 0), Insert::New(s) if (s as usize) < 128));
        }
        t.reset(100); // back up within the kept storage
        assert_eq!((t.num_slots(), t.slots.as_ptr()), (256, storage));
        for k in 0..100u64 {
            assert!(matches!(t.insert(k, 0), Insert::New(_)));
        }
    }

    /// An understated capacity must fail loudly, not probe forever.
    #[test]
    #[should_panic(expected = "hash table full")]
    fn overfull_table_panics_instead_of_spinning() {
        let t = GpuHashTable::with_capacity(2); // 4 slots
        for k in 0..5u64 {
            t.insert(k, 0);
        }
    }

    #[test]
    #[should_panic(expected = "hash table full")]
    fn unsized_default_table_rejects_inserts() {
        GpuHashTable::default().insert(1, 0);
    }

    #[test]
    fn slot_indices_fit_u32() {
        assert_eq!(slots_for(0), 2);
        assert_eq!(slots_for(3), 8);
        #[cfg(target_pointer_width = "64")]
        {
            assert_eq!(slots_for(1 << 31), 1 << 32); // last index is u32::MAX
            assert!(std::panic::catch_unwind(|| slots_for((1 << 31) + 1)).is_err());
        }
    }
}

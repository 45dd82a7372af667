//! The AppendUnique op (§III-C2, Figure 5).
//!
//! After neighbor sampling, "the same nodes may be sampled from different
//! target nodes", and every duplicate gathered feature row is wasted NVLink
//! bandwidth. AppendUnique fuses three jobs into one op:
//!
//! 1. put all **target nodes first** in the output node list (so the next
//!    layer can reuse the already-gathered target features — the targets of
//!    layer *l* are a prefix of the node list of layer *l+1*);
//! 2. deduplicate the sampled neighbors with a **hash table** (not the
//!    sort other frameworks use);
//! 3. assign the unique new neighbors **contiguous sub-graph IDs** after
//!    the targets via an exclusive prefix sum, as in Figure 5 — but keyed
//!    on each node's **first occurrence position** in the input rather
//!    than on its hash-table slot. Which slot a key claims depends on CAS
//!    races under linear probing, so slot order would make the unique list
//!    depend on thread scheduling; the smallest input position that
//!    inserted a key (a `fetch_min` watermark in its slot) is
//!    schedule-free, so IDs are bit-identical at any thread count.
//!
//! The op is one two-step core on [`AppendUniqueScratch`]: `begin` sizes
//! the table (`2 x max_unique` slots) and inserts the targets, the caller
//! `insert`s every neighbor from any thread and keeps the slot it gets
//! back, and `finish` turns those slots into sub-graph IDs by streaming
//! over the neighbor positions — it never scans the table and never hashes
//! a key again. Positions number the whole input targets-first (target `i`
//! is `i`, neighbor `k` is `num_targets + k`), so a target's watermark is
//! its sub-graph ID already and no neighbor can lower it.
//! [`append_unique_into`] is that core over a materialized neighbor list;
//! the sampler drives it directly so a sampled edge is written once.
//!
//! The op also emits the per-node **duplicate count** that the g-SpMM
//! backward of §III-C4 uses to replace atomic adds with plain stores for
//! nodes sampled exactly once.

use rayon::prelude::*;

use crate::hashtable::{GpuHashTable, Insert};
use crate::prefix::parallel_exclusive_scan_with;

/// Positions per leaf task of `finish`'s streaming passes.
const POSITION_GRAIN: usize = 4096;

/// Reusable working storage for AppendUnique, and its two-step core (see
/// the module docs). A warm scratch makes the whole op allocation-free;
/// results are independent of scratch history and of `max_unique` (see
/// [`GpuHashTable::reset`]).
#[derive(Default)]
pub struct AppendUniqueScratch {
    table: GpuHashTable,
    /// Slot each target claimed in `begin`; its length is the target count.
    target_slots: Vec<u32>,
    first_marks: Vec<u32>,
    scan_totals: Vec<u32>,
    /// The scan's rank at every `POSITION_GRAIN`-th position, then the
    /// total: the output range each chunk of positions owns in `finish`.
    chunk_ranks: Vec<u32>,
}

impl AppendUniqueScratch {
    /// Step 1: size the table for `max_unique` distinct keys — any upper
    /// bound on `|targets ∪ neighbors|`, e.g. the input length or the
    /// graph's node count — and insert the (duplicate-free) targets.
    pub fn begin(&mut self, targets: &[u64], max_unique: usize) {
        self.table.reset(max_unique);
        let table = &self.table;
        self.target_slots.resize(targets.len(), 0);
        self.target_slots
            .par_iter_mut()
            .zip(targets.par_iter())
            .enumerate()
            .for_each(|(idx, (slot, &key))| match table.insert(key, idx as u32) {
                Insert::New(s) => *slot = s,
                Insert::Existing(_) => panic!("duplicate target node {key} passed to AppendUnique"),
            });
    }

    /// Insert the neighbor at input `position` (its index in the
    /// concatenated neighbor list) and return its key's slot, which
    /// [`finish`](Self::finish) expects at `ids[position]`. Thread-safe,
    /// and callable in any order: the slot's duplicate count and
    /// first-occurrence watermark are commutative.
    #[inline]
    pub fn insert(&self, position: usize, key: u64) -> u32 {
        self.table
            .insert_counted(key, (self.target_slots.len() + position) as u32)
    }

    /// Step 2: rewrite `ids` in place from slots to sub-graph IDs and emit
    /// the unique list (`targets`, then new neighbors in first-occurrence
    /// order) with per-node duplicate counts. Every position in
    /// `0..ids.len()` must have been [`insert`](Self::insert)ed since
    /// `begin(targets, ..)`.
    pub fn finish(
        &mut self,
        targets: &[u64],
        ids: &mut [u32],
        unique: &mut Vec<u64>,
        dup_count: &mut Vec<u32>,
    ) {
        let num_targets = targets.len();
        assert_eq!(num_targets, self.target_slots.len(), "finish without begin");
        assert!(
            num_targets + ids.len() < u32::MAX as usize,
            "AppendUnique input positions exceed u32"
        );
        let table = &self.table;

        // A neighbor position is its key's first occurrence iff it is the
        // slot's watermark (a target's watermark is below `num_targets`, so
        // keys that are targets mark nothing). The exclusive sum of the
        // marks at a first occurrence is its dense rank among new neighbors.
        self.first_marks.resize(ids.len(), 0);
        self.first_marks
            .par_iter_mut()
            .zip(ids.par_iter())
            .enumerate()
            .with_min_len(POSITION_GRAIN)
            .for_each(|(k, (mark, &slot))| {
                *mark = (table.mark_at(slot) == (num_targets + k) as u32) as u32;
            });
        let new_neighbors =
            parallel_exclusive_scan_with(&mut self.first_marks, &mut self.scan_totals) as usize;
        let ranks = &self.first_marks;

        // Targets keep their list index as ID (already their slots' marks);
        // their duplicate counts come from the slots `begin` claimed. Both
        // outputs are written whole: targets here, every rank further down.
        unique.resize(num_targets + new_neighbors, 0);
        dup_count.resize(num_targets + new_neighbors, 0);
        unique[..num_targets].copy_from_slice(targets);
        for (d, &slot) in dup_count.iter_mut().zip(&self.target_slots) {
            *d = table.count_at(slot);
        }
        // At each first occurrence (where the scan steps), emit the key
        // and its count at the rank and leave the ID in the slot. Ranks
        // ascend with the position, so a chunk of `POSITION_GRAIN`
        // positions owns the output range between its first rank and the
        // next chunk's; distinct first occurrences are distinct keys,
        // hence slots.
        let bounds = &mut self.chunk_ranks;
        bounds.clear();
        bounds.extend(ranks.iter().step_by(POSITION_GRAIN));
        bounds.push(new_neighbors as u32);
        ids.par_chunks(POSITION_GRAIN)
            .zip(unique[num_targets..].par_ranges_mut(bounds, 1))
            .zip(dup_count[num_targets..].par_ranges_mut(bounds, 1))
            .enumerate()
            .for_each(|(c, ((slots, u), dup))| {
                let k0 = c * POSITION_GRAIN;
                for (k, &slot) in (k0..).zip(slots) {
                    let rank = ranks[k] as usize;
                    let next = ranks.get(k + 1).map_or(new_neighbors, |&r| r as usize);
                    if next != rank {
                        let at = rank - bounds[c] as usize;
                        u[at] = table.key_at(slot);
                        dup[at] = table.count_at(slot);
                        table.set_mark(slot, (num_targets + rank) as u32);
                    }
                }
            });
        // Every slot's mark is now its sub-graph ID.
        ids.par_iter_mut()
            .with_min_len(POSITION_GRAIN)
            .for_each(|id| *id = table.mark_at(*id));
    }
}

/// Output of [`append_unique`].
#[derive(Clone, Debug)]
pub struct AppendUniqueResult {
    /// Unique node keys: the targets (in input order) followed by the
    /// unique new neighbors.
    pub unique: Vec<u64>,
    /// Number of target nodes (prefix length of `unique`).
    pub num_targets: usize,
    /// For every input neighbor, its sub-graph ID (index into `unique`).
    pub neighbor_ids: Vec<u32>,
    /// Per unique node: how many times it appeared in `neighbors`.
    pub dup_count: Vec<u32>,
}

impl AppendUniqueResult {
    /// Number of unique nodes (targets + new neighbors).
    pub fn num_unique(&self) -> usize {
        self.unique.len()
    }
}

/// Run AppendUnique over a target list (assumed duplicate-free) and the
/// concatenated sampled-neighbor list.
///
/// ```
/// let targets = [10u64, 20];
/// let neighbors = [30u64, 20, 30, 40];
/// let r = wg_sample::append_unique(&targets, &neighbors);
/// // Targets stay first, in order; {30, 40} are appended deduplicated.
/// assert_eq!(&r.unique[..2], &targets);
/// assert_eq!(r.num_unique(), 4);
/// // Every sampled neighbor maps back to its own key.
/// for (&n, &id) in neighbors.iter().zip(&r.neighbor_ids) {
///     assert_eq!(r.unique[id as usize], n);
/// }
/// // Duplicate counts drive the SpMM backward fast path.
/// assert_eq!(r.dup_count.iter().sum::<u32>(), 4);
/// ```
pub fn append_unique(targets: &[u64], neighbors: &[u64]) -> AppendUniqueResult {
    let mut scratch = AppendUniqueScratch::default();
    let mut unique = Vec::new();
    let mut neighbor_ids = Vec::new();
    let mut dup_count = Vec::new();
    append_unique_into(
        targets,
        neighbors,
        &mut scratch,
        &mut unique,
        &mut neighbor_ids,
        &mut dup_count,
    );
    AppendUniqueResult {
        unique,
        num_targets: targets.len(),
        neighbor_ids,
        dup_count,
    }
}

/// [`append_unique`] writing into caller-provided output buffers with a
/// reusable [`AppendUniqueScratch`]: with warm buffers the op performs no
/// heap allocation. `unique`, `neighbor_ids` and `dup_count` are cleared
/// and refilled; output is bit-identical to [`append_unique`] regardless of
/// the scratch's previous use.
pub fn append_unique_into(
    targets: &[u64],
    neighbors: &[u64],
    scratch: &mut AppendUniqueScratch,
    unique: &mut Vec<u64>,
    neighbor_ids: &mut Vec<u32>,
    dup_count: &mut Vec<u32>,
) {
    scratch.begin(targets, targets.len() + neighbors.len());
    neighbor_ids.resize(neighbors.len(), 0);
    let au = &*scratch;
    neighbor_ids
        .par_iter_mut()
        .zip(neighbors.par_iter())
        .enumerate()
        .for_each(|(k, (slot, &key))| *slot = au.insert(k, key));
    scratch.finish(targets, neighbor_ids, unique, dup_count);
}

/// Sort-based reference implementation ("the sort method used in other
/// frameworks"): sort + dedup the neighbor list, subtract the target set,
/// then binary-search remap. Produces the same unique *set* with the same
/// targets-first property, but orders new neighbors by key. Used for
/// cross-checking and the ablation benchmark.
pub fn append_unique_sorted(targets: &[u64], neighbors: &[u64]) -> AppendUniqueResult {
    use std::collections::HashMap;
    let num_targets = targets.len();
    let target_index: HashMap<u64, u32> = targets
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    assert_eq!(target_index.len(), num_targets, "duplicate target nodes");

    let mut sorted: Vec<u64> = neighbors
        .iter()
        .copied()
        .filter(|k| !target_index.contains_key(k))
        .collect();
    sorted.sort_unstable();
    sorted.dedup();

    let mut unique = Vec::with_capacity(num_targets + sorted.len());
    unique.extend_from_slice(targets);
    unique.extend_from_slice(&sorted);

    let id_of = |key: u64| -> u32 {
        if let Some(&i) = target_index.get(&key) {
            i
        } else {
            num_targets as u32 + sorted.binary_search(&key).expect("missing neighbor") as u32
        }
    };
    let neighbor_ids: Vec<u32> = neighbors.iter().map(|&k| id_of(k)).collect();
    let mut dup_count = vec![0u32; unique.len()];
    for &id in &neighbor_ids {
        dup_count[id as usize] += 1;
    }
    AppendUniqueResult {
        unique,
        num_targets,
        neighbor_ids,
        dup_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// Shared invariants both implementations must satisfy.
    fn check_invariants(targets: &[u64], neighbors: &[u64], r: &AppendUniqueResult) {
        // Targets first, in order.
        assert_eq!(&r.unique[..targets.len()], targets);
        assert_eq!(r.num_targets, targets.len());
        // Unique list has no duplicates and covers targets ∪ neighbors.
        let set: HashSet<u64> = r.unique.iter().copied().collect();
        assert_eq!(set.len(), r.unique.len(), "unique list has duplicates");
        let expect: HashSet<u64> = targets.iter().chain(neighbors).copied().collect();
        assert_eq!(set, expect, "unique set mismatch");
        // Every neighbor remaps to its own key.
        assert_eq!(r.neighbor_ids.len(), neighbors.len());
        for (&n, &id) in neighbors.iter().zip(&r.neighbor_ids) {
            assert_eq!(r.unique[id as usize], n, "bad remap for {n}");
        }
        // Duplicate counts total the neighbor list length and match a
        // scalar count.
        let total: u32 = r.dup_count.iter().sum();
        assert_eq!(total as usize, neighbors.len());
        let mut hist: HashMap<u64, u32> = HashMap::new();
        for &n in neighbors {
            *hist.entry(n).or_insert(0) += 1;
        }
        for (i, &key) in r.unique.iter().enumerate() {
            assert_eq!(
                r.dup_count[i],
                hist.get(&key).copied().unwrap_or(0),
                "dup count of {key}"
            );
        }
    }

    /// AppendUnique through the two-step core with a caller-chosen bound
    /// on the distinct keys, inserting in *descending* position order (the
    /// core must not care).
    fn bounded(
        targets: &[u64],
        neighbors: &[u64],
        max_unique: usize,
        scratch: &mut AppendUniqueScratch,
    ) -> AppendUniqueResult {
        scratch.begin(targets, max_unique);
        let mut neighbor_ids = vec![0u32; neighbors.len()];
        for (k, &key) in neighbors.iter().enumerate().rev() {
            neighbor_ids[k] = scratch.insert(k, key);
        }
        let (mut unique, mut dup_count) = (Vec::new(), Vec::new());
        scratch.finish(targets, &mut neighbor_ids, &mut unique, &mut dup_count);
        AppendUniqueResult {
            unique,
            num_targets: targets.len(),
            neighbor_ids,
            dup_count,
        }
    }

    #[test]
    fn figure5_example() {
        // Four targets T0..T3, neighbors with duplicates and overlap with
        // the target set.
        let targets = [100u64, 200, 300, 400];
        let neighbors = [500u64, 200, 500, 600, 100, 700, 700, 700];
        let r = append_unique(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &r);
        // 4 targets + {500, 600, 700} new neighbors.
        assert_eq!(r.num_unique(), 7);
        // Targets sampled as neighbors keep their target IDs.
        assert_eq!(r.neighbor_ids[1], 1); // 200 -> T1
        assert_eq!(r.neighbor_ids[4], 0); // 100 -> T0
                                          // 700 was sampled three times.
        let id700 = r.neighbor_ids[5] as usize;
        assert_eq!(r.dup_count[id700], 3);
    }

    #[test]
    fn no_neighbors() {
        let targets = [1u64, 2, 3];
        let r = append_unique(&targets, &[]);
        check_invariants(&targets, &[], &r);
        assert_eq!(r.num_unique(), 3);
        assert_eq!(r.dup_count, vec![0, 0, 0]);
    }

    #[test]
    fn all_neighbors_are_targets() {
        let targets = [10u64, 20];
        let neighbors = [20u64, 10, 20];
        let r = append_unique(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &r);
        assert_eq!(r.num_unique(), 2);
        assert_eq!(r.dup_count, vec![1, 2]);
    }

    #[test]
    fn sorted_baseline_agrees_on_set_and_counts() {
        let targets = [7u64, 3, 11];
        let neighbors = [5u64, 5, 3, 9, 11, 9, 9];
        let a = append_unique(&targets, &neighbors);
        let b = append_unique_sorted(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &a);
        check_invariants(&targets, &neighbors, &b);
        let sa: HashSet<u64> = a.unique.iter().copied().collect();
        let sb: HashSet<u64> = b.unique.iter().copied().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_rejected() {
        append_unique(&[1, 1], &[]);
    }

    /// The unique list, IDs, and counts must not depend on scheduling:
    /// parallel runs must equal the forced-sequential run bit-for-bit, and
    /// new neighbors must come out in first-occurrence order.
    #[test]
    fn parallel_output_is_deterministic_and_first_occurrence_ordered() {
        rayon::init_threads(4);
        let targets: Vec<u64> = (1000..1040).collect();
        // Dense duplicates + overlap with the target range, scrambled.
        let neighbors: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(2654435761) % 97 + 990)
            .collect();
        let seq = rayon::run_sequential(|| append_unique(&targets, &neighbors));
        check_invariants(&targets, &neighbors, &seq);
        for _ in 0..3 {
            let par = append_unique(&targets, &neighbors);
            assert_eq!(par.unique, seq.unique, "unique order depends on schedule");
            assert_eq!(par.neighbor_ids, seq.neighbor_ids);
            assert_eq!(par.dup_count, seq.dup_count);
        }
        // New neighbors appear in input first-occurrence order.
        let target_set: HashSet<u64> = targets.iter().copied().collect();
        let mut expect = Vec::new();
        let mut seen = HashSet::new();
        for &n in &neighbors {
            if !target_set.contains(&n) && seen.insert(n) {
                expect.push(n);
            }
        }
        assert_eq!(&seq.unique[targets.len()..], &expect[..]);
    }

    /// A reused (oversized, dirty) scratch must produce bit-identical
    /// output to a fresh one: IDs are keyed on first-occurrence watermarks,
    /// never on slot positions, so table size cannot leak into results.
    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let mut scratch = AppendUniqueScratch::default();
        let (mut unique, mut ids, mut dups) = (Vec::new(), Vec::new(), Vec::new());
        // Warm the scratch with a *large* input first so later runs see an
        // oversized table.
        let big_targets: Vec<u64> = (5000..5400).collect();
        let big_neighbors: Vec<u64> = (0..20_000u64).map(|i| i % 1777).collect();
        append_unique_into(
            &big_targets,
            &big_neighbors,
            &mut scratch,
            &mut unique,
            &mut ids,
            &mut dups,
        );
        for round in 0..3u64 {
            let targets: Vec<u64> = (100 + round..140 + round).collect();
            let neighbors: Vec<u64> = (0..3000u64)
                .map(|i| (i * 2654435761 + round) % 211 + 90)
                .collect();
            let fresh = append_unique(&targets, &neighbors);
            append_unique_into(
                &targets,
                &neighbors,
                &mut scratch,
                &mut unique,
                &mut ids,
                &mut dups,
            );
            assert_eq!(unique, fresh.unique, "round {round}");
            assert_eq!(ids, fresh.neighbor_ids, "round {round}");
            assert_eq!(dups, fresh.dup_count, "round {round}");
        }
    }

    /// A table sized by a tight bound on the distinct keys — 52x below the
    /// key count here, the regime the sampler runs in when a batch samples
    /// a small graph many times over — must emit the bits of the table
    /// sized by the input length, and of every bound in between.
    #[test]
    fn max_unique_far_below_the_key_count_is_bit_identical() {
        let targets: Vec<u64> = (1000..1040).collect();
        // 5000 neighbors over the 97 keys 990..1087, a superset of the
        // targets: 97 distinct keys in 5040 inputs.
        let neighbors: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(2654435761) % 97 + 990)
            .collect();
        let by_input_length = append_unique(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &by_input_length);
        let mut scratch = AppendUniqueScratch::default();
        for max_unique in [97usize, 98, 128, 1000, 97] {
            let r = bounded(&targets, &neighbors, max_unique, &mut scratch);
            assert_eq!(r.unique, by_input_length.unique, "max_unique {max_unique}");
            assert_eq!(r.neighbor_ids, by_input_length.neighbor_ids);
            assert_eq!(r.dup_count, by_input_length.dup_count);
        }
    }

    /// An understated bound is a caller bug and must be reported, not spun
    /// on: 97 distinct keys cannot enter a table sized for 10.
    #[test]
    #[should_panic(expected = "hash table full")]
    fn understated_max_unique_fails_loudly() {
        let neighbors: Vec<u64> = (0..97u64).collect();
        bounded(&[500], &neighbors, 10, &mut AppendUniqueScratch::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn invariants_hold_for_random_inputs(
            raw_targets in prop::collection::hash_set(0u64..500, 1..40),
            neighbors in prop::collection::vec(0u64..500, 0..400),
        ) {
            let targets: Vec<u64> = raw_targets.into_iter().collect();
            let r = append_unique(&targets, &neighbors);
            check_invariants(&targets, &neighbors, &r);
            let s = append_unique_sorted(&targets, &neighbors);
            check_invariants(&targets, &neighbors, &s);
            prop_assert_eq!(r.num_unique(), s.num_unique());
        }
    }
}

//! The thread-count leg of the feature-cache determinism contract.
//!
//! CLOCK eviction decisions happen inside the *sequential* planning loop
//! of `TierStack::plan`, so cache contents, hit/miss splits and the
//! gathered values must not depend on how many workers execute the copy
//! kernel. This binary forces a **two-worker** pool via `init_threads(2)`
//! before any gather runs and replays the same access stream a
//! single-worker process would see: every per-batch hit count,
//! eviction victim and output byte is asserted against values computed
//! from the plan alone — worker count never appears in the expectation.
//!
//! The same holds one tier down: rows the out-of-core tier prices are
//! still copied by that kernel from their owning regions, so cache +
//! tier must return the tier-off gather's bits on two workers and on the
//! sequential schedule alike.

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_mem::cache::{CacheMode, FeatureCache};
use wg_mem::gather::{global_gather, RowPlan, TierStack};
use wg_mem::{Element, OocTier, WholeMemory};
use wg_sim::cost::AccessMode;
use wg_sim::device::DeviceSpec;
use wg_sim::CostModel;

const ROWS: usize = 600;
const WIDTH: usize = 12;
const RANKS: u32 = 4;

fn setup() -> (WholeMemory<f32>, CostModel, DeviceSpec) {
    let model = CostModel::dgx_a100();
    let mut wm = WholeMemory::<f32>::allocate(&model, RANKS, ROWS, WIDTH, AccessMode::PeerAccess);
    wm.init_rows(|row, out| {
        for (j, v) in out.iter_mut().enumerate() {
            *v = (row * 131 + j) as f32;
        }
    });
    (wm, model, DeviceSpec::a100_40gb())
}

/// A stack holding only `cache` — the shape every test here gathers
/// through.
fn cache_stack(cache: FeatureCache) -> TierStack {
    TierStack {
        cache: Some(cache),
        disk: None,
    }
}

fn occupied(stack: &TierStack, rank: u32) -> usize {
    stack.cache.as_ref().unwrap().occupied(rank)
}

/// Replay a Zipf-ish access stream through a small CLOCK cache on a
/// two-worker pool; the per-batch (hits, occupancy, membership-sample)
/// trajectory must equal the hardcoded one recorded from the sequential
/// schedule — any schedule-dependence in eviction would diverge here.
#[test]
fn clock_trajectory_is_identical_on_two_workers() {
    let width = rayon::init_threads(2);
    assert!(width >= 1, "pool must initialize");
    let (wm, model, spec) = setup();
    // Capacity far below the working set so eviction churns constantly.
    let cache = FeatureCache::new_clock(&wm, RANKS, 24);
    assert_eq!(cache.mode(), CacheMode::Clock);
    let mut stack = cache_stack(cache);
    let mut plan = RowPlan::default();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut trajectory = Vec::new();
    for batch in 0..20 {
        let rank = batch % RANKS;
        let indices: Vec<usize> = (0..80)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    rng.gen_range(0..30) // hot head
                } else {
                    rng.gen_range(30..ROWS)
                }
            })
            .collect();
        let mut out = vec![0.0f32; indices.len() * WIDTH];
        stack.plan(&wm, &indices, rank, &mut plan);
        let stats = stack.execute(&wm, &plan, &mut out, rank, &model, &spec);
        // Values never depend on the cache.
        for (i, &row) in indices.iter().enumerate() {
            assert_eq!(out[i * WIDTH], (row * 131) as f32, "row {row}");
        }
        assert_eq!(
            stats.cache_hits + (stats.rows - stats.cache_hits),
            stats.rows
        );
        trajectory.push((stats.cache_hits, occupied(&stack, rank)));
    }
    // The per-device trajectories of the sequential reference schedule.
    // Planning is sequential by construction, so two workers must
    // reproduce them exactly.
    let expect = sequential_reference_trajectory();
    assert_eq!(
        trajectory, expect,
        "CLOCK trajectory diverged across worker counts"
    );
}

/// Recompute the expected trajectory with a second, independently warmed
/// cache using the identical stream. `TierStack::plan` is a plain
/// sequential loop over `indices`, so this expectation is worker-count
/// free even though the test process runs a two-worker pool.
fn sequential_reference_trajectory() -> Vec<(usize, usize)> {
    let (wm, model, spec) = setup();
    let mut stack = cache_stack(FeatureCache::new_clock(&wm, RANKS, 24));
    let mut plan = RowPlan::default();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut trajectory = Vec::new();
    for batch in 0..20 {
        let rank = batch % RANKS;
        let indices: Vec<usize> = (0..80)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    rng.gen_range(0..30)
                } else {
                    rng.gen_range(30..ROWS)
                }
            })
            .collect();
        stack.plan(&wm, &indices, rank, &mut plan);
        let hits = plan.cache_hits();
        // Execute sequentially (run_sequential = the reference schedule)
        // so the expectation never touches the pool.
        let mut out = vec![0.0f32; indices.len() * WIDTH];
        rayon::run_sequential(|| stack.execute(&wm, &plan, &mut out, rank, &model, &spec));
        trajectory.push((hits, occupied(&stack, rank)));
    }
    trajectory
}

/// Static caches are immutable after build: two-worker gathers must
/// leave contents untouched and hit the same rows every time.
#[test]
fn static_hits_are_stable_on_two_workers() {
    rayon::init_threads(2);
    let (wm, model, spec) = setup();
    let hot: Vec<u64> = (0..ROWS as u64).rev().collect(); // hottest = row 0
    let mut stack = cache_stack(FeatureCache::new_static(&wm, &hot, 50));
    let indices: Vec<usize> = (0..200).map(|i| (i * 13) % ROWS).collect();
    let expected_hits = indices.iter().filter(|&&r| r < 50).count();
    let mut plan = RowPlan::default();
    let mut out = vec![0.0f32; indices.len() * WIDTH];
    for rank in 0..RANKS {
        stack.plan(&wm, &indices, rank, &mut plan);
        let stats = stack.execute(&wm, &plan, &mut out, rank, &model, &spec);
        assert_eq!(stats.cache_hits, expected_hits);
        assert_eq!(occupied(&stack, rank), 50);
    }
}

/// Gather a hot-headed stream through CLOCK cache + disk tier at the
/// given residency, on the pool and on the sequential schedule; every
/// batch must equal the tier-off gather bit for bit (`bits` makes NaN
/// and -0.0 comparable), and the tier must really have priced rows —
/// misses at residency below 100% are disk reads, and their CLOCK
/// inserts turn later reads of the hot tail into hits.
fn cache_and_tier_match_the_plain_gather<T: Element>(
    width: usize,
    value: impl Fn(usize, usize) -> T + Send + Sync,
    bits: impl Fn(&T) -> u64,
) {
    let (model, spec) = (CostModel::dgx_a100(), DeviceSpec::a100_40gb());
    let mut wm = WholeMemory::<T>::allocate(&model, RANKS, ROWS, width, AccessMode::PeerAccess);
    wm.init_rows(|row, out| {
        for (j, v) in out.iter_mut().enumerate() {
            *v = value(row, j);
        }
    });
    let hotness: Vec<u64> = (0..ROWS as u64).rev().collect(); // resident = a prefix
    for budget in [0, ROWS / 4, ROWS] {
        for sequential in [false, true] {
            let mut stack = TierStack {
                cache: Some(FeatureCache::new_clock(&wm, RANKS, 24)),
                disk: Some(OocTier::build(&wm, &hotness, budget)),
            };
            let mut plan = RowPlan::default();
            let mut rng = SmallRng::seed_from_u64(5);
            let (mut disk_rows, mut hits) = (0, 0);
            for batch in 0..12 {
                let rank = batch % RANKS;
                let indices: Vec<usize> = (0..90)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            rng.gen_range(ROWS - 20..ROWS) // hot, and on disk below 100%
                        } else {
                            rng.gen_range(0..ROWS)
                        }
                    })
                    .collect();
                let mut out = vec![T::default(); indices.len() * width];
                let mut plain = out.clone();
                stack.plan(&wm, &indices, rank, &mut plan);
                let stats = if sequential {
                    rayon::run_sequential(|| {
                        stack.execute(&wm, &plan, &mut out, rank, &model, &spec)
                    })
                } else {
                    stack.execute(&wm, &plan, &mut out, rank, &model, &spec)
                };
                global_gather(&wm, &indices, &mut plain, rank, &model, &spec);
                assert!(
                    out.iter().map(&bits).eq(plain.iter().map(&bits)),
                    "budget {budget} sequential {sequential} batch {batch}"
                );
                disk_rows += stats.storage_io.rows;
                hits += stats.cache_hits;
            }
            assert_eq!(disk_rows == 0, budget == ROWS, "budget {budget}");
            assert!(hits > 0, "the hot tail must be served from its CLOCK fills");
        }
    }
}

#[test]
fn u8_rows_through_cache_and_tier_equal_the_plain_gather() {
    rayon::init_threads(2);
    cache_and_tier_match_the_plain_gather::<u8>(5, |row, j| (row * 7 + j * 3) as u8, |&v| v as u64);
}

#[test]
fn odd_width_f32_rows_through_cache_and_tier_equal_the_plain_gather() {
    rayon::init_threads(2);
    // Arbitrary bit patterns, NaNs and negative zero among them; 28-byte
    // rows, so most rows of the mapping start off any 16- or 32-byte line.
    cache_and_tier_match_the_plain_gather::<f32>(
        7,
        |row, j| f32::from_bits((row as u32).wrapping_mul(0x9e37_79b9) ^ j as u32),
        |v| v.to_bits() as u64,
    );
}

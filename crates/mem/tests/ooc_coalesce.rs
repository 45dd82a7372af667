//! The coalescing accumulator's contract, over arbitrary request
//! batches: the ranged reads `OocTier::fetch` issues are sorted,
//! disjoint, capped, inside the table, and cover every requested row;
//! the fetch's own summary is the log of the reads; and the cost model's
//! price of those reads never exceeds the per-row price of the same
//! batch.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_mem::{OocTier, WholeMemory, MAX_TRANSFER_BYTES};
use wg_sim::cost::{AccessMode, StorageCostModel};
use wg_sim::CostModel;

fn store(rows: usize, width: usize) -> WholeMemory<f32> {
    let model = CostModel::dgx_a100();
    WholeMemory::<f32>::allocate(&model, 3, rows, width, AccessMode::PeerAccess)
}

/// One request batch of the given shape over `rows` rows.
fn batch(shape: u32, rows: usize, rng: &mut SmallRng) -> Vec<u32> {
    let rows = rows as u32;
    match shape {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0..rows)],
        // The whole file, out of order.
        2 => (0..rows).rev().collect(),
        // Sparse, with duplicates.
        3 => (0..rng.gen_range(1..200))
            .map(|_| rng.gen_range(0..rows))
            .collect(),
        // Dense runs with holes, shuffled, a few rows repeated.
        _ => {
            let mut b: Vec<u32> = (0..rows).filter(|_| rng.gen_bool(0.7)).collect();
            b.extend_from_within(..b.len().min(5));
            b.shuffle(rng);
            b
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn ranged_fetch_covers_the_batch_and_never_costs_more_than_per_row(
        rows in 1usize..4000,
        width in 1usize..130,
        shape in 0u32..5,
        seed in 0u64..1000,
    ) {
        let wm = store(rows, width);
        let storage = StorageCostModel::nvme();
        let mut tier = OocTier::build(&wm, &vec![0; rows], 0);
        let requested = batch(shape, rows, &mut SmallRng::seed_from_u64(seed));
        let stats = tier.fetch(&requested, &storage);

        // Ranges: row-aligned, sorted, disjoint, capped, inside the table.
        let row_bytes = width * 4;
        let issued = tier.issued();
        let mut prev_end = 0u64;
        for (k, &(offset, bytes)) in issued.iter().enumerate() {
            prop_assert!(bytes > 0 && bytes <= MAX_TRANSFER_BYTES, "range {k}: {bytes} B");
            prop_assert!(offset % row_bytes as u64 == 0 && bytes % row_bytes == 0);
            // (Adjacent is legal: a run split at the transfer cap.)
            prop_assert!(offset >= prev_end, "range {k} overlaps its predecessor");
            prev_end = offset + bytes as u64;
        }
        prop_assert!(prev_end <= (rows * row_bytes) as u64);
        // ...covering every requested row, starting and ending on one.
        let covering = |byte: u64| issued.iter().find(|&&(o, b)| o <= byte && byte < o + b as u64);
        for &r in &requested {
            let at = r as u64 * row_bytes as u64;
            prop_assert!(
                covering(at).is_some_and(|&(o, b)| at + row_bytes as u64 <= o + b as u64),
                "row {r} not covered"
            );
        }
        for &(offset, bytes) in issued {
            let (first, last) = (offset / row_bytes as u64, (offset + bytes as u64) / row_bytes as u64 - 1);
            prop_assert!(requested.contains(&(first as u32)) && requested.contains(&(last as u32)));
        }

        // The summary is the batch and the log.
        prop_assert_eq!(stats.rows, requested.len() as u64);
        prop_assert_eq!(stats.bytes, (requested.len() * row_bytes) as u64);
        prop_assert_eq!(stats.requests, issued.len() as u64);
        prop_assert_eq!(stats.read_bytes, issued.iter().map(|&(_, b)| b as u64).sum::<u64>());
        let mut unique = requested.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert!(stats.requests <= unique.len() as u64);
        prop_assert!(stats.read_bytes >= (unique.len() * row_bytes) as u64);

        // Priced as issued, never dearer than one request per row.
        let priced = storage.requests_time(issued.iter().map(|&(_, b)| b));
        let per_row = storage.read_time(requested.len() as u64, row_bytes);
        prop_assert!(priced <= per_row, "{priced} > {per_row}");
    }
}

#[test]
fn isolated_rows_cost_exactly_the_per_row_price() {
    // 400 B rows 64 KiB apart: bridging a gap would move 160x the
    // payload to save one seek share, so nothing merges.
    let (rows, width, stride) = (4000usize, 100usize, 164usize);
    let wm = store(rows, width);
    let storage = StorageCostModel::nvme();
    let mut tier = OocTier::build(&wm, &vec![0; rows], 0);
    let requested: Vec<u32> = (0..rows as u32).step_by(stride).collect();
    let stats = tier.fetch(&requested, &storage);
    assert_eq!(stats.requests, requested.len() as u64);
    assert_eq!(stats.read_bytes, stats.bytes);
    assert_eq!(stats.read_amplification(), 1.0);
    assert_eq!(
        storage.requests_time(tier.issued().iter().map(|&(_, b)| b)),
        storage.read_time(requested.len() as u64, width * 4)
    );
}

#[test]
fn sparse_zipf_batch_read_amplification_stays_bounded() {
    // The serving shape (benchmark workload `serve_zipf`): node
    // popularity is Zipf(1.1) over a seeded permutation of a 10 MB file
    // of 400 B rows, the hottest quarter is DSM-resident and a batch is
    // deduplicated, so what reaches the tier is a few hundred rows from
    // the distribution's tail, scattered in file order. Bridging buys
    // simulated time with gap bytes a device would really move — over
    // 10x the payload under `nvme()`, where one seek share is worth
    // ~21 KB of transfer. Pin that trade so a change to the merge rule
    // or the model cannot grow it unnoticed.
    let (rows, width, draws) = (26_000usize, 100usize, 3000usize);
    let wm = store(rows, width);
    let storage = StorageCostModel::nvme();
    let mut tier = OocTier::build(&wm, &vec![0; rows], 0);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut by_rank: Vec<u32> = (0..rows as u32).collect();
    by_rank.shuffle(&mut rng);
    // Inverse-CDF Zipf over popularity ranks.
    let weights: Vec<f64> = (1..=rows).map(|k| (k as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut requested: Vec<u32> = (0..draws)
        .filter_map(|_| {
            let mut u = rng.gen_range(0.0..total);
            let rank = weights.iter().position(|w| {
                u -= w;
                u < 0.0
            });
            rank.filter(|&k| k >= rows / 4).map(|k| by_rank[k])
        })
        .collect();
    requested.sort_unstable();
    requested.dedup();
    requested.shuffle(&mut rng);

    let io = tier.fetch(&requested, &storage);
    assert!((200..500).contains(&io.rows), "batch shape drifted: {io}");
    assert!(io.requests < io.rows, "{io}");
    assert!(
        io.read_amplification() <= 16.0,
        "read amplification grew: {io}"
    );
    // ...and every bridged byte was paid for: the priced time is well
    // below the per-row price.
    let priced = storage.requests_time(tier.issued().iter().map(|&(_, b)| b));
    let per_row = storage.read_time(io.rows, width * 4);
    assert!(priced < per_row * 0.9, "{priced} vs per-row {per_row}");
}

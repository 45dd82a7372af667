//! Offline shim for the parts of `rayon` this workspace uses — backed by a
//! **real work-stealing thread pool**, not sequential stand-ins.
//!
//! - [`pool`]: N worker threads (default `available_parallelism()`,
//!   overridable via `WG_THREADS`; first initialization wins, like
//!   rayon's `build_global`), a global injector plus per-worker LIFO
//!   deques, and the [`join`] fork primitive every adapter reduces to.
//! - [`iter`]: indexed parallel iterators (`par_iter`, `par_iter_mut`,
//!   `par_chunks`, `par_chunks_mut`, `par_ranges_mut`, `into_par_iter` on
//!   ranges) with `map`, `zip`, `enumerate`, `with_min_len` and the
//!   `for_each` / `collect` / `sum` / `max` consumers. Iterators split by
//!   value — a mutable source hands each half its own `split_at_mut`
//!   borrow — so the layer's one unchecked step is `collect`'s `set_len`.
//!
//! **Determinism guarantee:** results are bit-identical at every thread
//! count. Work splits into a binary tree whose shape depends only on input
//! length, `collect` is order-preserving, and reductions merge leaf results
//! pairwise in index order — scheduling decides *where* a leaf runs, never
//! *what* is computed or how results combine. [`run_sequential`] executes
//! the same tree inline on the calling thread, which is how the wall-clock
//! harness measures 1-thread baselines inside a multi-threaded process.

pub mod iter;
pub mod pool;

pub use pool::{
    current_num_threads, init_threads, is_sequential, join, run_sequential, THREADS_ENV,
};

pub mod prelude {
    //! Drop-in for `rayon::prelude::*`.

    /// In rayon, indexed iterators are a sub-trait; here every iterator is
    /// indexed, so the name is an alias.
    pub use crate::iter::ParallelIterator as IndexedParallelIterator;
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_behave_like_std() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let sums: Vec<u32> = v.par_chunks(2).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, vec![3, 7]);
        let mut w = v.clone();
        w.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(w, vec![2, 3, 4, 5]);
        let bumps = [10u32, 20];
        w.par_chunks_mut(3)
            .zip(bumps.par_iter())
            .for_each(|(c, &b)| c[0] += b);
        assert_eq!(w[0], 12);
        assert_eq!(w[3], 25);
        let total: u32 = (0u32..5).into_par_iter().map(|x| x * x).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn collect_preserves_order_at_scale() {
        // Large enough to split into many leaves.
        let n = 100_000usize;
        let v: Vec<usize> = (0..n).into_par_iter().map(|i| i * 3).collect();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn enumerate_indices_are_global() {
        let data = vec![7u64; 10_000];
        let idx: Vec<usize> = data.par_iter().enumerate().map(|(i, _)| i).collect();
        assert_eq!(idx, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_mut_writes_land_in_place() {
        let mut data = vec![0u32; 1000];
        data.par_chunks_mut(7)
            .enumerate()
            .for_each(|(c, chunk)| chunk.iter_mut().for_each(|v| *v = c as u32));
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i / 7);
        }
    }

    #[test]
    fn float_sum_is_identical_sequential_and_parallel() {
        crate::init_threads(4);
        let data: Vec<f32> = (0..50_000).map(|i| (i as f32).sin()).collect();
        let par: f32 = data.par_iter().map(|&x| x * 1.000_1).sum();
        let seq: f32 = crate::run_sequential(|| data.par_iter().map(|&x| x * 1.000_1).sum());
        assert_eq!(
            par.to_bits(),
            seq.to_bits(),
            "float reduction depends on schedule"
        );
    }

    #[test]
    fn ranges_mut_pieces_land_in_place() {
        // Width 1, with empty pieces at the start, middle and end, and a
        // first bound above 0 (pieces are relative to it).
        let bounds = [3u32, 3, 5, 5, 9, 9];
        let mut data = vec![0u32; 6];
        data.par_ranges_mut(&bounds, 1)
            .enumerate()
            .for_each(|(i, piece)| piece.iter_mut().for_each(|v| *v = i as u32));
        assert_eq!(data, vec![1, 1, 3, 3, 3, 3]);
        // Width > 1, many pieces (so the source splits), every third empty.
        let bounds: Vec<u32> = (0..2000u32).map(|i| i - i / 3).collect();
        let width = 3;
        let mut data = vec![u32::MAX; *bounds.last().unwrap() as usize * width];
        let lens: Vec<usize> = data
            .par_ranges_mut(&bounds, width)
            .enumerate()
            .map(|(i, piece)| {
                piece.iter_mut().for_each(|v| *v = i as u32);
                piece.len()
            })
            .collect();
        assert_eq!(lens.len(), bounds.len() - 1);
        for (i, w) in bounds.windows(2).enumerate() {
            assert_eq!(lens[i], (w[1] - w[0]) as usize * width);
            let piece = &data[w[0] as usize * width..w[1] as usize * width];
            assert!(piece.iter().all(|&v| v == i as u32), "piece {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cover the slice")]
    fn ranges_mut_refuses_bounds_short_of_the_slice() {
        let mut data = [0u32; 10];
        data.par_ranges_mut(&[0, 4, 9], 1).for_each(|_| {});
    }

    #[test]
    #[should_panic(expected = "cover the slice")]
    fn ranges_mut_refuses_bounds_past_the_slice() {
        let mut data = [0u32; 10];
        data.par_ranges_mut(&[0, 2, 6], 2).for_each(|_| {});
    }

    #[test]
    #[should_panic(expected = "must not descend")]
    fn ranges_mut_refuses_descending_bounds() {
        // Would cover the slice by its ends, but 6 -> 2 descends.
        let mut data = [0u32; 8];
        data.par_ranges_mut(&[0, 6, 2, 8], 1).for_each(|_| {});
    }

    /// `collect`, `sum` and `for_each` over every source at `len` items,
    /// each against std's sequential result.
    fn check_every_source(len: usize, min_len: usize) {
        let ctx = format!("len {len}, min_len {min_len}");
        let data: Vec<u64> = (0..len as u64).map(|i| i * 7 + 1).collect();
        let seq_sum: u64 = data.iter().sum();
        let chunk = 5;
        let chunk_sums: Vec<u64> = data.chunks(chunk).map(|c| c.iter().sum()).collect();

        // Ranges.
        let v: Vec<u64> = (0..len as u64)
            .into_par_iter()
            .with_min_len(min_len)
            .map(|i| i * 7 + 1)
            .collect();
        assert_eq!(v, data, "range collect, {ctx}");
        let s: u64 = (0..len as u64)
            .into_par_iter()
            .with_min_len(min_len)
            .map(|i| i * 7 + 1)
            .sum();
        assert_eq!(s, seq_sum, "range sum, {ctx}");
        let mut out = vec![0u64; len];
        (0..len as u64)
            .into_par_iter()
            .zip(out.par_iter_mut())
            .with_min_len(min_len)
            .for_each(|(i, o)| *o = i * 7 + 1);
        assert_eq!(out, data, "range for_each, {ctx}");

        // Shared slices.
        let v: Vec<u64> = data.par_iter().with_min_len(min_len).map(|&x| x).collect();
        assert_eq!(v, data, "par_iter collect, {ctx}");
        let s: u64 = data.par_iter().with_min_len(min_len).map(|&x| x).sum();
        assert_eq!(s, seq_sum, "par_iter sum, {ctx}");
        let mut out = vec![0u64; len];
        data.par_iter()
            .zip(out.par_iter_mut())
            .with_min_len(min_len)
            .for_each(|(&x, o)| *o = x);
        assert_eq!(out, data, "par_iter for_each, {ctx}");
        let v: Vec<u64> = data
            .par_chunks(chunk)
            .with_min_len(min_len)
            .map(|c| c.iter().sum())
            .collect();
        assert_eq!(v, chunk_sums, "par_chunks collect, {ctx}");
        let s: u64 = data
            .par_chunks(chunk)
            .with_min_len(min_len)
            .map(|c| c.iter().sum::<u64>())
            .sum();
        assert_eq!(s, seq_sum, "par_chunks sum, {ctx}");

        // Mutable slices: write through each, then read back.
        let mut m = vec![0u64; len];
        m.par_iter_mut()
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(i, x)| *x = i as u64 * 7 + 1);
        assert_eq!(m, data, "par_iter_mut for_each, {ctx}");
        let v: Vec<u64> = m.par_iter_mut().with_min_len(min_len).map(|x| *x).collect();
        assert_eq!(v, data, "par_iter_mut collect, {ctx}");
        let s: u64 = m.par_iter_mut().with_min_len(min_len).map(|x| *x).sum();
        assert_eq!(s, seq_sum, "par_iter_mut sum, {ctx}");
        let mut m = vec![0u64; len];
        m.par_chunks_mut(chunk)
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(c, xs)| {
                for (j, x) in xs.iter_mut().enumerate() {
                    *x = (c * chunk + j) as u64 * 7 + 1;
                }
            });
        assert_eq!(m, data, "par_chunks_mut for_each, {ctx}");
        let v: Vec<u64> = m
            .par_chunks_mut(chunk)
            .with_min_len(min_len)
            .map(|c| c.iter().sum())
            .collect();
        assert_eq!(v, chunk_sums, "par_chunks_mut collect, {ctx}");
        let s: u64 = m
            .par_chunks_mut(chunk)
            .with_min_len(min_len)
            .map(|c| c.iter().sum::<u64>())
            .sum();
        assert_eq!(s, seq_sum, "par_chunks_mut sum, {ctx}");
        // Ranges cut like the chunks above.
        let bounds: Vec<u32> = (0..=len.div_ceil(chunk))
            .map(|c| (c * chunk).min(len) as u32)
            .collect();
        let mut m = vec![0u64; len];
        m.par_ranges_mut(&bounds, 1)
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(c, xs)| {
                for (j, x) in xs.iter_mut().enumerate() {
                    *x = (c * chunk + j) as u64 * 7 + 1;
                }
            });
        assert_eq!(m, data, "par_ranges_mut for_each, {ctx}");
        let v: Vec<u64> = m
            .par_ranges_mut(&bounds, 1)
            .with_min_len(min_len)
            .map(|c| c.iter().sum())
            .collect();
        assert_eq!(v, chunk_sums, "par_ranges_mut collect, {ctx}");
        let s: u64 = m
            .par_ranges_mut(&bounds, 1)
            .with_min_len(min_len)
            .map(|c| c.iter().sum::<u64>())
            .sum();
        assert_eq!(s, seq_sum, "par_ranges_mut sum, {ctx}");
    }

    #[test]
    fn every_source_matches_std_around_the_grain() {
        crate::init_threads(4);
        // Lengths just below and above where a leaf stops being one item
        // (MAX_LEAVES) and where `with_min_len` stops keeping one leaf.
        let leaves = crate::iter::MAX_LEAVES;
        for (len, min_len) in [
            (0, 1),
            (1, 1),
            (leaves - 1, 1),
            (leaves + 1, 1),
            (3 * leaves + 7, 1),
            (63, 64),
            (65, 64),
            (1000, 64),
        ] {
            check_every_source(len, min_len);
            crate::run_sequential(|| check_every_source(len, min_len));
        }
    }

    #[test]
    fn join_returns_both_results() {
        crate::init_threads(4);
        let (a, b) = crate::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn nested_joins_compute_a_fib_tree() {
        crate::init_threads(4);
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(20), 6765);
    }

    #[test]
    fn parallel_ops_keep_working_under_contention() {
        crate::init_threads(4);
        // Many concurrent outer ops from plain threads, each running inner
        // parallel ops — exercises injector, stealing, and nesting.
        std::thread::scope(|ts| {
            for _ in 0..4 {
                ts.spawn(|| {
                    for round in 0..20 {
                        let v: Vec<usize> =
                            (0..1000usize).into_par_iter().map(|i| i + round).collect();
                        assert_eq!(v[999], 999 + round);
                    }
                });
            }
        });
    }

    #[test]
    fn panics_propagate_from_leaves() {
        crate::init_threads(4);
        let caught = std::panic::catch_unwind(|| {
            (0..1000usize).into_par_iter().for_each(|i| {
                assert!(i < 999, "boom");
            });
        });
        assert!(caught.is_err());
        // Pool still usable afterwards.
        let s: usize = (0..100usize).into_par_iter().sum();
        assert_eq!(s, 4950);
    }
}

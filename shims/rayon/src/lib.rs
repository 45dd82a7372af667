//! Offline shim for the parts of `rayon` this workspace uses — backed by a
//! **real work-stealing thread pool**, not sequential stand-ins.
//!
//! - [`pool`]: N worker threads (default `available_parallelism()`,
//!   overridable via `WG_THREADS`; first initialization wins, like
//!   rayon's `build_global`), a global injector plus per-worker LIFO
//!   deques, and the [`join`] fork primitive every adapter reduces to.
//! - [`iter`]: indexed parallel iterators (`par_iter`, `par_iter_mut`,
//!   `par_chunks`, `par_chunks_mut`, `into_par_iter` on ranges) with `map`,
//!   `zip`, `enumerate`, `chunks`, `flat_map_iter`, `with_min_len` and the
//!   `for_each` / `collect` / `sum` / `max` consumers.
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
    fn flat_map_iter_concatenates_in_order() {
        let out: Vec<usize> = (0usize..1000)
            .into_par_iter()
            .flat_map_iter(|i| vec![i; i % 3])
            .collect();
        let expect: Vec<usize> = (0usize..1000).flat_map(|i| vec![i; i % 3]).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn chunks_adapter_matches_sequential_chunking() {
        let sums: Vec<usize> = (0usize..10_000)
            .into_par_iter()
            .chunks(97)
            .map(|c| c.into_iter().sum())
            .collect();
        let expect: Vec<usize> = (0..10_000)
            .collect::<Vec<usize>>()
            .chunks(97)
            .map(|c| c.iter().sum())
            .collect();
        assert_eq!(sums, expect);
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

//! The thread-count leg of the blocked-kernel bit-identity contract.
//!
//! The unit proptests in `ops.rs`/`sparse.rs` pin blocked == reference at
//! whatever width the test process runs (the host's cores). This
//! integration binary pins a **two-worker** pool, requested via
//! `init_threads(2)` before any kernel runs (first initialization wins;
//! an explicit `WG_THREADS` override still takes precedence). Every
//! output is also compared against the sequential reference schedule
//! within the same process.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_tensor::ops::{
    matmul, matmul_nt, matmul_nt_reference, matmul_reference, matmul_tn, matmul_tn_reference,
};
use wg_tensor::sparse::{spmm, spmm_backward_src, spmm_reference, Agg, BlockCsr};
use wg_tensor::Matrix;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn block(dst: usize, src: usize, fanout: usize, seed: u64) -> BlockCsr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for _ in 0..dst {
        for _ in 0..=rng.gen_range(0..fanout) {
            indices.push(rng.gen_range(0..src as u32));
        }
        offsets.push(indices.len() as u32);
    }
    let mut dup = vec![0u32; src];
    for &c in &indices {
        dup[c as usize] += 1;
    }
    BlockCsr {
        num_dst: dst,
        num_src: src,
        offsets,
        indices,
        dup_count: dup,
    }
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

#[test]
fn dense_kernels_bit_identical_on_two_workers() {
    let width = rayon::init_threads(2);
    for (m, k, n, seed) in [
        (1usize, 1usize, 1usize, 1u64),
        (7, 13, 5, 2),
        (64, 48, 96, 3),
        (130, 260, 33, 4),
    ] {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 99);
        let at = mat(k, m, seed ^ 7);
        let bt = mat(n, k, seed ^ 13);
        assert_bits_eq(&matmul(&a, &b), &matmul_reference(&a, &b), "matmul");
        assert_bits_eq(
            &matmul_tn(&at, &b),
            &matmul_tn_reference(&at, &b),
            "matmul_tn",
        );
        assert_bits_eq(
            &matmul_nt(&a, &bt),
            &matmul_nt_reference(&a, &bt),
            "matmul_nt",
        );
        // The pool schedule (whatever width we actually got) must also
        // match the sequential reference schedule exactly.
        let pooled = matmul(&a, &b);
        let seq = rayon::run_sequential(|| matmul(&a, &b));
        assert_bits_eq(&pooled, &seq, "matmul pool-vs-seq");
    }
    assert!(width >= 1);
}

#[test]
fn spmm_kernels_bit_identical_on_two_workers() {
    rayon::init_threads(2);
    for (dst, src, fanout, seed) in [
        (1usize, 2usize, 1usize, 5u64),
        (37, 90, 6, 6),
        (128, 400, 12, 7),
    ] {
        let b = block(dst, src, fanout, seed);
        for agg in [Agg::Mean, Agg::Sum] {
            let x = mat(src, 19, seed ^ 21);
            let y = spmm(&b, &x, None, 1, agg);
            assert_bits_eq(&y, &spmm_reference(&b, &x, None, 1, agg), "spmm");
            let g = spmm_backward_src(&b, &y, None, 1, agg);
            let g_seq = rayon::run_sequential(|| spmm_backward_src(&b, &y, None, 1, agg));
            assert_bits_eq(&g, &g_seq, "spmm_backward pool-vs-seq");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn blocked_matmul_matches_reference_on_two_workers(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        rayon::init_threads(2);
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0xabcd);
        let blocked = matmul(&a, &b);
        let reference = matmul_reference(&a, &b);
        for (x, y) in blocked.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

//! The two-worker pool leg of the SIMD bit-identity contract.
//!
//! `simd_equivalence.rs` pins the levels against each other at whatever
//! width its process runs (the host's cores).
//! This binary requests a **two-worker** pool before any kernel runs —
//! the SIMD lane blocking is inside each worker's tile, orthogonal to
//! the pool schedule, so forced-scalar and forced-AVX2 must still agree
//! bitwise, and both must match the within-process sequential schedule.
//! The zero-share, panel-geometry, elementwise and dropout checks of
//! `common/mod.rs` (the four-row mask draw against the row-by-row one
//! included) run here a second time, on that pool.

mod common;

use common::{assert_bits_eq, mat};
use wg_tensor::ops::{
    matmul_into_with, matmul_nt_into_with, matmul_reference, matmul_tn_into_with,
};
use wg_tensor::simd::{self, Level};
use wg_tensor::Matrix;

#[test]
fn simd_levels_agree_on_two_workers() {
    let width = rayon::init_threads(2);
    let mut levels = vec![Level::Scalar];
    if simd::avx2_available() {
        levels.push(Level::Avx2);
    }
    for (m, k, n, seed) in [
        (1usize, 1usize, 1usize, 60u64),
        (9, 21, 33, 61),
        (64, 67, 57, 62),
        (130, 50, 96, 63),
    ] {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x44);
        let at = mat(k, m, seed ^ 0x55);
        let bt = mat(n, k, seed ^ 0x66);
        let reference = matmul_reference(&a, &b);
        let mut outs = Vec::new();
        for &level in &levels {
            let name = level.name();
            let mut c = Matrix::empty();
            matmul_into_with(level, &a, &b, &mut c);
            assert_bits_eq(&c, &reference, &format!("matmul/{name} 2-worker"));
            // Pool schedule vs sequential schedule, same level.
            let seq = rayon::run_sequential(|| {
                let mut c = Matrix::empty();
                matmul_into_with(level, &a, &b, &mut c);
                c
            });
            assert_bits_eq(&c, &seq, &format!("matmul/{name} pool-vs-seq"));

            let mut scratch = Vec::new();
            let (mut tn, mut nt) = (Matrix::empty(), Matrix::empty());
            matmul_tn_into_with(level, &at, &b, &mut tn, &mut scratch);
            matmul_nt_into_with(level, &a, &bt, &mut nt, &mut scratch);
            outs.push((c, tn, nt));
        }
        // Cross-level: every level produced the same bits on this pool.
        for pair in outs.windows(2) {
            assert_bits_eq(&pair[0].0, &pair[1].0, "matmul cross-level 2-worker");
            assert_bits_eq(&pair[0].1, &pair[1].1, "matmul_tn cross-level 2-worker");
            assert_bits_eq(&pair[0].2, &pair[1].2, "matmul_nt cross-level 2-worker");
        }
    }
    // The training loop's own traffic on the two-worker pool: a slice of
    // the zero-share grid, wide enough for several bands per worker, and
    // the elementwise / dropout kernels across their chunk boundaries.
    for (i, &share) in common::ZERO_SHARES.iter().enumerate() {
        common::check_zero_share_matmuls(70, 300, common::WIDTHS[i % 4], share, 80 + i as u64);
    }
    common::check_mixed_row_blocks(100, 90);
    common::check_panel_geometry_grid();
    common::check_elementwise(9, 4099, 91);
    common::check_dropout(130, 257, 92);
    common::check_dropout_levels();
    assert!(width >= 1);
}

//! Pooled scratch memory for the training math path.
//!
//! WholeGraph's per-iteration math (§III-C3, §III-D) runs out of
//! preallocated device memory — nothing on the hot path asks the
//! allocator for anything. [`Workspace`] is the reproduction's analogue: a
//! free-list of `f32` buffers that forward activations, gradients
//! and kernel scratch are drawn from and returned to (and one of `u64`
//! buffers for dropout's bit masks), so a tape reuses buffers its
//! backward pass released — and, after [`reset`](crate::Tape::reset),
//! the previous batch's — instead of reallocating them. Because the
//! training loop requests the same shape sequence every iteration, the
//! pool's capacities converge after the first batch and steady-state
//! epochs perform (almost) zero heap allocations.

use wg_tensor::matrix::Matrix;
use wg_tensor::sparse::ReverseScratch;

/// Upper bound on retained buffers per pool — a backstop so a pathological
/// op sequence cannot hoard unbounded memory. A GNN forward/backward
/// records a few nodes per layer, so real tapes sit far below this.
const MAX_POOLED: usize = 96;

/// A free-list of reusable buffers plus the named scratch the blocked
/// kernels need (`matmul_tn` partial slab, spmm reverse-CSR).
#[derive(Default)]
pub struct Workspace {
    f32_pool: Vec<Vec<f32>>,
    /// Dropout keep-masks, one bit per element.
    u64_pool: Vec<Vec<u64>>,
    /// Partial-sum slab for [`wg_tensor::ops::matmul_tn_into`].
    pub tn_scratch: Vec<f32>,
    /// `Bᵀ`, packed into panels, for [`wg_tensor::ops::matmul_nt_into`].
    pub nt_scratch: Vec<f32>,
    /// Transposed-CSR scratch for
    /// [`wg_tensor::sparse::spmm_backward_src_into`].
    pub rev: ReverseScratch,
}

/// Pick the pooled buffer to hand out for a `len`-element request: the
/// smallest buffer whose capacity already fits (no growth), else the
/// largest buffer (grows once, then fits forever).
fn best_slot<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let mut fit: Option<usize> = None;
    let mut largest: Option<usize> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && fit.is_none_or(|j| pool[j].capacity() > cap) {
            fit = Some(i);
        }
        if largest.is_none_or(|j| pool[j].capacity() < cap) {
            largest = Some(i);
        }
    }
    fit.or(largest)
}

/// The pooled buffer [`best_slot`] picks for `len` elements (contents
/// and length as its last user left them), or a fresh one.
fn pick<T>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    match best_slot(pool, len) {
        Some(i) => pool.swap_remove(i),
        None => Vec::with_capacity(len),
    }
}

/// Keep `buf` for reuse unless it holds no memory or the pool is full.
fn recycle<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() == 0 || pool.len() >= MAX_POOLED {
        return;
    }
    pool.push(buf);
}

impl Workspace {
    /// Fresh empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared `f32` buffer, preferably with capacity ≥ `len`.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = pick(&mut self.f32_pool, len);
        buf.clear();
        buf
    }

    /// An `f32` buffer of exactly `len` elements holding *stale* values —
    /// whatever its last user left, zeros only in a grown tail. For
    /// kernels that overwrite every element: a warm pool serves them with
    /// no fill pass at all.
    pub fn take_f32_stale(&mut self, len: usize) -> Vec<f32> {
        let mut buf = pick(&mut self.f32_pool, len);
        buf.resize(len, 0.0);
        buf
    }

    /// Return an `f32` buffer to the pool. Its contents stay behind as the
    /// stale values [`Workspace::take_f32_stale`] hands out.
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        recycle(&mut self.f32_pool, buf);
    }

    /// A pooled `u64` buffer (contents stale) with capacity ≥ `len`
    /// preferred — a dropout mask, which the kernel resizes and fills.
    pub fn take_u64(&mut self, len: usize) -> Vec<u64> {
        pick(&mut self.u64_pool, len)
    }

    /// Return a `u64` buffer to the pool.
    pub fn recycle_u64(&mut self, buf: Vec<u64>) {
        recycle(&mut self.u64_pool, buf);
    }

    /// A pooled `0×0` matrix whose buffer can hold `len` floats — the
    /// shape the `*_into` kernels expect (they `reset_shape` it
    /// themselves).
    pub fn matrix_with_capacity(&mut self, len: usize) -> Matrix {
        Matrix::from_vec(0, 0, self.take_f32(len))
    }

    /// A pooled zero matrix of the given shape.
    pub fn matrix_zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.take_f32(rows * cols);
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// A pooled `rows × cols` matrix holding stale values
    /// ([`Workspace::take_f32_stale`]) — the output of a kernel that
    /// overwrites every element (the one-pass `(src, dst)` ops, the
    /// blocked matmuls).
    pub fn matrix_stale(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_f32_stale(rows * cols))
    }

    /// [`Workspace::matrix_stale`] in the shape of `like`.
    pub fn matrix_stale_like(&mut self, like: &Matrix) -> Matrix {
        self.matrix_stale(like.rows(), like.cols())
    }

    /// A pooled copy of `src`.
    pub fn matrix_from(&mut self, src: &Matrix) -> Matrix {
        let mut buf = self.take_f32(src.len());
        buf.extend_from_slice(src.data());
        Matrix::from_vec(src.rows(), src.cols(), buf)
    }

    /// Return a matrix's buffer to the pool.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.recycle_f32(m.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_smallest_fitting_buffer() {
        let mut ws = Workspace::new();
        ws.recycle_f32(Vec::with_capacity(100));
        ws.recycle_f32(Vec::with_capacity(10));
        let b = ws.take_f32(8);
        assert_eq!(b.capacity(), 10, "best fit should win");
        let b2 = ws.take_f32(8);
        assert_eq!(b2.capacity(), 100, "then the remaining buffer");
    }

    #[test]
    fn take_grows_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        ws.recycle_f32(Vec::with_capacity(4));
        ws.recycle_f32(Vec::with_capacity(16));
        let b = ws.take_f32(64);
        // Handed the 16-cap buffer: the caller's resize grows it once and
        // the pool converges.
        assert!(b.capacity() >= 16);
        assert_eq!(ws.f32_pool.len(), 1);
    }

    #[test]
    fn matrix_round_trip_reuses_capacity() {
        let mut ws = Workspace::new();
        let m = ws.matrix_zeros(8, 8);
        let ptr = m.data().as_ptr();
        ws.recycle_matrix(m);
        let m2 = ws.matrix_from(&Matrix::zeros(4, 4));
        assert_eq!(m2.data().as_ptr(), ptr, "same buffer came back");
        assert_eq!((m2.rows(), m2.cols()), (4, 4));
    }

    #[test]
    fn stale_takes_keep_contents_and_plain_takes_come_back_cleared() {
        let mut ws = Workspace::new();
        ws.recycle_f32(vec![7.0; 6]);
        let b = ws.take_f32_stale(4);
        assert_eq!(b, [7.0; 4], "exact length, stale values");
        ws.recycle_f32(b);
        let b = ws.take_f32_stale(8);
        assert_eq!(
            b,
            [7.0, 7.0, 7.0, 7.0, 0.0, 0.0, 0.0, 0.0],
            "grown tail is zero"
        );
        ws.recycle_f32(b);
        let like = Matrix::zeros(2, 3);
        let m = ws.matrix_stale_like(&like);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        ws.recycle_matrix(m);
        assert!(
            ws.take_f32(2).is_empty(),
            "take_f32 still hands out cleared"
        );
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.recycle_f32(Vec::new());
        assert!(ws.f32_pool.is_empty());
    }
}

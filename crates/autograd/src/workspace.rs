//! Pooled scratch memory for the training math path.
//!
//! WholeGraph's per-iteration math (§III-C3, §III-D) runs out of
//! preallocated device memory — nothing on the hot path asks the
//! allocator for anything. [`Workspace`] is the reproduction's analogue: a
//! free-list of `f32`/`u32` buffers that forward activations, gradients
//! and kernel scratch are drawn from and returned to, so a tape that is
//! [`reset`](crate::Tape::reset) between batches reuses the previous
//! batch's buffers instead of reallocating them. Because the training
//! loop requests the same shape sequence every iteration, the pool's
//! capacities converge after the first batch and steady-state epochs
//! perform (almost) zero heap allocations.

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
    u32_pool: Vec<Vec<u32>>,
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

impl Workspace {
    /// Fresh empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pooled buffer [`best_slot`] picks for `len` elements (contents
    /// and length as its last user left them), or a fresh one.
    fn pick_f32(&mut self, len: usize) -> Vec<f32> {
        match best_slot(&self.f32_pool, len) {
            Some(i) => self.f32_pool.swap_remove(i),
            None => Vec::with_capacity(len),
        }
    }

    /// A cleared `f32` buffer, preferably with capacity ≥ `len`.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pick_f32(len);
        buf.clear();
        buf
    }

    /// An `f32` buffer of exactly `len` elements holding *stale* values —
    /// whatever its last user left, zeros only in a grown tail. For
    /// kernels that overwrite every element: a warm pool serves them with
    /// no fill pass at all.
    pub fn take_f32_stale(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pick_f32(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Return an `f32` buffer to the pool. Its contents stay behind as the
    /// stale values [`Workspace::take_f32_stale`] hands out.
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 || self.f32_pool.len() >= MAX_POOLED {
            return;
        }
        self.f32_pool.push(buf);
    }

    /// A cleared `u32` buffer, preferably with capacity ≥ `len`.
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        match best_slot(&self.u32_pool, len) {
            Some(i) => self.u32_pool.swap_remove(i),
            None => Vec::with_capacity(len),
        }
    }

    /// Return a `u32` buffer to the pool (contents discarded).
    pub fn recycle_u32(&mut self, mut buf: Vec<u32>) {
        if buf.capacity() == 0 || self.u32_pool.len() >= MAX_POOLED {
            return;
        }
        buf.clear();
        self.u32_pool.push(buf);
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

    /// Buffers currently parked in the pools (tests / introspection).
    pub fn pooled_buffers(&self) -> usize {
        self.f32_pool.len() + self.u32_pool.len()
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
        assert_eq!(ws.pooled_buffers(), 1);
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
        ws.recycle_u32(Vec::new());
        assert_eq!(ws.pooled_buffers(), 0);
    }
}

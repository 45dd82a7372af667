//! Row-major `f32` matrices.

use rand::prelude::*;
use rand::rngs::SmallRng;

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization for a `fan_in → fan_out`
    /// weight matrix (shape `[fan_in, fan_out]`).
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut SmallRng) -> Self {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let data = (0..fan_in * fan_out)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix {
            rows: fan_in,
            cols: fan_out,
            data,
        }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a 0×n or n×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy the first `n` rows into a new matrix (used to slice the
    /// targets-first prefix out of a gathered feature batch).
    pub fn top_rows(&self, n: usize) -> Matrix {
        assert!(n <= self.rows);
        Matrix {
            rows: n,
            cols: self.cols,
            data: self.data[..n * self.cols].to_vec(),
        }
    }

    /// An empty 0×0 matrix that owns no buffer — the placeholder shape the
    /// workspace pool hands out before a kernel `reset_shape`s it.
    pub fn empty() -> Matrix {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Re-shape in place to `rows × cols`, zero-filled, reusing the
    /// existing buffer capacity. The scratch-pool analogue of
    /// [`Matrix::zeros`]: a warm buffer performs no heap allocation.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Re-shape in place to `rows × cols` *without* clearing: elements the
    /// buffer already held keep their stale values, only a grown tail is
    /// zero-filled. For kernels that overwrite every element of their
    /// output — it spares them [`Matrix::reset_shape`]'s zero-fill pass.
    pub fn set_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `src` (shape and contents), reusing capacity.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = Matrix::xavier(64, 32, &mut rng);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound));
        // Not all zero.
        assert!(m.norm() > 0.1);
    }

    #[test]
    fn top_rows_slices_prefix() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let t = m.top_rows(2);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn set_shape_keeps_stale_values_and_zero_fills_growth() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.set_shape(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert_eq!(m.data(), &[1.0, 2.0, 3.0]);
        m.set_shape(1, 5);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 2.5, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn shape_mismatch_panics() {
        Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}

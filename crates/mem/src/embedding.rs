//! Trainable node embeddings in distributed shared memory.
//!
//! The paper stores *fixed* node features in WholeMemory; the natural
//! extension (shipped by the later open-source WholeGraph, and implied by
//! the paper's "node or edge features" framing) is a **trainable
//! embedding table**: rows live across the GPUs exactly like features,
//! mini-batches gather the rows they touch through the one-kernel global
//! gather, and after backward the *sparse* per-row gradients are scattered
//! back with an in-place optimizer update — no dense parameter copy, no
//! AllReduce (each row has exactly one home GPU).
//!
//! The optimizer is row-wise Adagrad (the standard choice for embedding
//! tables): `state += g²; w -= lr · g / (√state + ε)`.

use rand::prelude::*;
use rand::rngs::SmallRng;

use wg_sim::cost::AccessMode;
use wg_sim::device::DeviceSpec;
use wg_sim::{CostModel, SimTime};

use crate::gather::{global_gather, GatherStats};
use crate::handle::WholeMemory;

/// A distributed, trainable embedding matrix.
pub struct EmbeddingTable {
    weights: WholeMemory<f32>,
    /// Adagrad squared-gradient accumulators, same partitioning.
    state: WholeMemory<f32>,
    dim: usize,
}

impl EmbeddingTable {
    /// Allocate a `rows × dim` table across `ranks` GPUs, initialized
    /// N(0, 0.1)-ish via Box–Muller.
    pub fn new(model: &CostModel, ranks: u32, rows: usize, dim: usize, seed: u64) -> Self {
        let mut weights =
            WholeMemory::<f32>::allocate(model, ranks, rows, dim, AccessMode::PeerAccess);
        let state = WholeMemory::<f32>::allocate(model, ranks, rows, dim, AccessMode::PeerAccess);
        weights.init_rows(|row, out| {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (row as u64).wrapping_mul(0x9e3779b97f4a7c15));
            for v in out.iter_mut() {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen();
                *v = 0.1
                    * ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            }
        });
        EmbeddingTable {
            weights,
            state,
            dim,
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Underlying weight storage (read access for tests/tools).
    pub fn weights(&self) -> &WholeMemory<f32> {
        &self.weights
    }

    /// Gather embedding rows into `out` (one-kernel global gather).
    pub fn gather(
        &self,
        rows: &[usize],
        out: &mut [f32],
        executing_rank: u32,
        model: &CostModel,
        spec: &DeviceSpec,
    ) -> GatherStats {
        global_gather(&self.weights, rows, out, executing_rank, model, spec)
    }

    /// Apply sparse Adagrad updates for `rows` (must be duplicate-free —
    /// AppendUnique's output order satisfies this) with per-row gradients
    /// `grads` (`rows.len() × dim`). Returns the simulated time of the
    /// scatter-update kernel (reads + writes both weight and state rows).
    pub fn apply_sparse_adagrad(
        &mut self,
        rows: &[usize],
        grads: &[f32],
        lr: f32,
        eps: f32,
        model: &CostModel,
        spec: &DeviceSpec,
    ) -> SimTime {
        assert_eq!(
            grads.len(),
            rows.len() * self.dim,
            "gradient shape mismatch"
        );
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                rows.iter().all(|r| seen.insert(*r))
            },
            "rows passed to sparse update must be unique"
        );
        let dim = self.dim;
        let partition = self.weights.partition();
        for (&row, g) in rows.iter().zip(grads.chunks_exact(dim)) {
            let loc = partition.locate(row);
            let base = loc.local_row * dim;
            let state = &mut self.state.region_mut(loc.device_rank)[base..base + dim];
            let weights = &mut self.weights.region_mut(loc.device_rank)[base..base + dim];
            for ((s, w), &gj) in state.iter_mut().zip(weights).zip(g) {
                *s += gj * gj;
                *w -= lr * gj / (s.sqrt() + eps);
            }
        }
        // Kernel cost: each touched row moves 4 row-widths (read w, read
        // s, write w, write s) over the gather path.
        let row_bytes = dim * 4;
        model.dsm_gather_time(rows.len() as u64 * 4, row_bytes, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(rows: usize, dim: usize) -> (EmbeddingTable, CostModel, DeviceSpec) {
        let model = CostModel::dgx_a100();
        let table = EmbeddingTable::new(&model, 8, rows, dim, 42);
        (table, model, DeviceSpec::a100_40gb())
    }

    #[test]
    fn init_is_small_and_nonzero() {
        let (t, model, spec) = setup(100, 8);
        let rows: Vec<usize> = (0..100).collect();
        let mut out = vec![0.0f32; 100 * 8];
        t.gather(&rows, &mut out, 0, &model, &spec);
        let norm: f32 = out.iter().map(|v| v * v).sum::<f32>();
        assert!(norm > 0.0);
        assert!(out.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn adagrad_update_matches_scalar_reference() {
        let (mut t, model, spec) = setup(10, 4);
        let rows = vec![3usize, 7];
        let mut before = vec![0.0f32; 2 * 4];
        t.gather(&rows, &mut before, 0, &model, &spec);
        let grads = vec![0.5f32; 2 * 4];
        let (lr, eps) = (0.1, 1e-8);
        t.apply_sparse_adagrad(&rows, &grads, lr, eps, &model, &spec);
        let mut after = vec![0.0f32; 2 * 4];
        t.gather(&rows, &mut after, 0, &model, &spec);
        for i in 0..8 {
            let s = 0.5f32 * 0.5;
            let expect = before[i] - lr * 0.5 / (s.sqrt() + eps);
            assert!(
                (after[i] - expect).abs() < 1e-6,
                "elem {i}: {} vs {expect}",
                after[i]
            );
        }
        // Rows not updated stay put.
        let other = vec![0usize];
        let mut a = vec![0.0f32; 4];
        t.gather(&other, &mut a, 0, &model, &spec);
        let t2 = EmbeddingTable::new(&model, 8, 10, 4, 42);
        let mut b = vec![0.0f32; 4];
        t2.gather(&other, &mut b, 0, &model, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_updates_shrink_step_size() {
        // Adagrad: same gradient applied twice moves less the second time.
        let (mut t, model, spec) = setup(4, 2);
        let rows = vec![1usize];
        let grads = vec![1.0f32, 1.0];
        let read = |t: &EmbeddingTable| {
            let mut o = vec![0.0f32; 2];
            t.gather(&rows, &mut o, 0, &model, &spec);
            o
        };
        let w0 = read(&t);
        t.apply_sparse_adagrad(&rows, &grads, 0.1, 1e-8, &model, &spec);
        let w1 = read(&t);
        t.apply_sparse_adagrad(&rows, &grads, 0.1, 1e-8, &model, &spec);
        let w2 = read(&t);
        let step1 = (w0[0] - w1[0]).abs();
        let step2 = (w1[0] - w2[0]).abs();
        assert!(step2 < step1, "steps {step1} then {step2}");
    }

    #[test]
    fn embeddings_learn_a_regression_target() {
        // Minimize ||e_r - target_r||² over a handful of rows with sparse
        // updates; distance must collapse.
        let (mut t, model, spec) = setup(32, 4);
        let rows: Vec<usize> = (0..8).collect();
        let target: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut dist_start = None;
        for step in 0..300 {
            let mut cur = vec![0.0f32; 32];
            t.gather(&rows, &mut cur, 0, &model, &spec);
            let grads: Vec<f32> = cur
                .iter()
                .zip(&target)
                .map(|(c, g)| 2.0 * (c - g))
                .collect();
            let d: f32 = cur.iter().zip(&target).map(|(c, g)| (c - g).powi(2)).sum();
            if step == 0 {
                dist_start = Some(d);
            }
            t.apply_sparse_adagrad(&rows, &grads, 0.2, 1e-8, &model, &spec);
        }
        let mut cur = vec![0.0f32; 32];
        t.gather(&rows, &mut cur, 0, &model, &spec);
        let d: f32 = cur.iter().zip(&target).map(|(c, g)| (c - g).powi(2)).sum();
        assert!(
            d < 0.01 * dist_start.unwrap(),
            "distance {d} from {}",
            dist_start.unwrap()
        );
    }

    #[test]
    fn update_time_scales_with_rows() {
        let (mut t, model, spec) = setup(1000, 16);
        let few: Vec<usize> = (0..10).collect();
        let many: Vec<usize> = (0..500).collect();
        let tf = t.apply_sparse_adagrad(&few, &vec![0.0; 10 * 16], 0.1, 1e-8, &model, &spec);
        let tm = t.apply_sparse_adagrad(&many, &vec![0.0; 500 * 16], 0.1, 1e-8, &model, &spec);
        assert!(tm > tf);
    }
}

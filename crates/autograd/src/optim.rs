//! Optimizers.

use wg_tensor::Matrix;

use crate::params::{ParamId, Params};

/// A gradient-based parameter updater.
pub trait Optimizer {
    /// Apply one update step from the gradients currently stored in
    /// `params` (does not zero them).
    fn step(&mut self, params: &mut Params);

    /// Zero any optimizer state in place (capacity kept), restoring the
    /// just-constructed behaviour — used to replay training runs from the
    /// same starting point without reallocating the state buffers.
    fn reset(&mut self) {}
}

/// Adam (Kingma & Ba) — the optimizer the OGB baselines train with.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    step: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params) {
        if self.m.is_empty() {
            self.m = params
                .ids()
                .map(|id| Matrix::zeros(params.value(id).rows(), params.value(id).cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        // Two borrow phases per parameter — the moment update reads the
        // gradient, then the weight update reads the moments — so no
        // clones are needed and steady-state steps allocate nothing.
        for k in 0..params.len() {
            let id = ParamId(k);
            let (m, v) = (&mut self.m[k], &mut self.v[k]);
            for ((mm, vv), gv) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(params.grad(id).data())
            {
                *mm = self.beta1 * *mm + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let (lr, eps) = (self.lr, self.eps);
            let (m, v) = (&self.m[k], &self.v[k]);
            for ((p, mm), vv) in params
                .value_mut(id)
                .data_mut()
                .iter_mut()
                .zip(m.data())
                .zip(v.data())
            {
                let mhat = mm / bc1;
                let vhat = vv / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn reset(&mut self) {
        self.step = 0;
        for m in &mut self.m {
            m.data_mut().fill(0.0);
        }
        for v in &mut self.v {
            v.data_mut().fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = ||w - target||² with `opt`.
    fn quadratic_descent(mut opt: impl Optimizer, iters: usize) -> f32 {
        let mut params = Params::new();
        let target = [3.0f32, -2.0];
        let w = params.add("w", Matrix::zeros(1, 2));
        for _ in 0..iters {
            params.zero_grads();
            let grad = Matrix::from_vec(
                1,
                2,
                params
                    .value(w)
                    .data()
                    .iter()
                    .zip(target)
                    .map(|(p, t)| 2.0 * (p - t))
                    .collect(),
            );
            params.accumulate_grad(w, &grad);
            opt.step(&mut params);
        }
        params
            .value(w)
            .data()
            .iter()
            .zip(target)
            .map(|(p, t)| (p - t).powi(2))
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let dist = quadratic_descent(Adam::new(0.1), 300);
        assert!(dist < 1e-2, "distance {dist}");
    }

    #[test]
    fn adam_step_size_is_bounded_by_lr() {
        // Adam's first update has magnitude ≈ lr regardless of gradient
        // scale.
        let mut params = Params::new();
        let w = params.add("w", Matrix::zeros(1, 1));
        params.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![1e6]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut params);
        let p = params.value(w).get(0, 0);
        assert!((p.abs() - 0.01).abs() < 1e-4, "first Adam step {p}");
    }
}

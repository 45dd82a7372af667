//! Parameter storage.

use rand::rngs::SmallRng;

use wg_tensor::Matrix;

/// Handle to one parameter tensor in a [`Params`] store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

/// A named collection of trainable tensors with gradient slots.
#[derive(Clone, Debug, Default)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl Params {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with an explicit initial value.
    pub fn add(&mut self, name: &str, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.to_string());
        id
    }

    /// Register a Xavier-initialized `[fan_in, fan_out]` weight.
    pub fn add_xavier(
        &mut self,
        name: &str,
        fan_in: usize,
        fan_out: usize,
        rng: &mut SmallRng,
    ) -> ParamId {
        self.add(name, Matrix::xavier(fan_in, fan_out, rng))
    }

    /// Register a zero-initialized `[1, n]` bias.
    pub fn add_bias(&mut self, name: &str, n: usize) -> ParamId {
        self.add(name, Matrix::zeros(1, n))
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Bytes of parameter data (f32).
    pub fn param_bytes(&self) -> u64 {
        (self.num_scalars() * 4) as u64
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (optimizer updates).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable gradient (gradient synchronization writes the AllReduce
    /// average here).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    /// Accumulate into a parameter's gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        let slot = &mut self.grads[id.0];
        assert_eq!(
            (slot.rows(), slot.cols()),
            (g.rows(), g.cols()),
            "gradient shape mismatch"
        );
        for (a, b) in slot.data_mut().iter_mut().zip(g.data()) {
            *a += b;
        }
    }

    /// Zero all gradients (start of an iteration).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate `(id, name)`.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.values.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_and_accumulate() {
        let mut p = Params::new();
        let w = p.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        assert_eq!(p.name(w), "w");
        assert_eq!(p.num_scalars(), 2);
        assert_eq!(p.param_bytes(), 8);
        p.accumulate_grad(w, &Matrix::from_vec(1, 2, vec![0.5, 0.5]));
        p.accumulate_grad(w, &Matrix::from_vec(1, 2, vec![0.5, 1.0]));
        assert_eq!(p.grad(w).data(), &[1.0, 1.5]);
        p.zero_grads();
        assert_eq!(p.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn xavier_param_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = Params::new();
        let w = p.add_xavier("w", 4, 8, &mut rng);
        let b = p.add_bias("b", 8);
        assert_eq!((p.value(w).rows(), p.value(w).cols()), (4, 8));
        assert_eq!((p.value(b).rows(), p.value(b).cols()), (1, 8));
    }
}

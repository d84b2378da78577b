//! Additional activations beyond ReLU: tanh and the logistic sigmoid.

use fedmigr_tensor::Tensor;

use crate::layer::Cache;
use crate::Layer;

/// Hyperbolic-tangent activation. Caches outputs: `d tanh(x)/dx = 1 - y²`.
#[derive(Clone, Default)]
pub struct Tanh {
    output: Cache<Vec<f32>>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(f32::tanh);
        self.output.0.clear();
        self.output.0.extend_from_slice(out.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.numel(), self.output.0.len(), "Tanh backward before forward");
        let data =
            grad_out.data().iter().zip(&self.output.0).map(|(&g, &y)| g * (1.0 - y * y)).collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid activation. Caches outputs: `dσ(x)/dx = y (1 - y)`.
#[derive(Clone, Default)]
pub struct Sigmoid {
    output: Cache<Vec<f32>>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.output.0.clear();
        self.output.0.extend_from_slice(out.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.numel(), self.output.0.len(), "Sigmoid backward before forward");
        let data =
            grad_out.data().iter().zip(&self.output.0).map(|(&g, &y)| g * y * (1.0 - y)).collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_check(layer: &mut dyn Layer, x: &Tensor) {
        let y = layer.forward(x, true);
        let g = layer.backward(&Tensor::ones(y.shape()));
        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num =
                (layer.forward(&xp, true).sum() - layer.forward(&xm, true).sum()) / (2.0 * eps);
            assert!(
                (num - g.data()[i]).abs() < 1e-2,
                "gradient mismatch at {i}: {num} vs {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn tanh_values_and_gradient() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![3], vec![-2.0, 0.0, 2.0]);
        let y = t.forward(&x, true);
        assert!((y.data()[1]).abs() < 1e-7);
        assert!(y.data()[2] > 0.9 && y.data()[2] < 1.0);
        numeric_check(&mut t, &x);
    }

    #[test]
    fn sigmoid_values_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![3], vec![-4.0, 0.0, 4.0]);
        let y = s.forward(&x, true);
        assert!((y.data()[1] - 0.5).abs() < 1e-7);
        assert!(y.data()[0] < 0.05 && y.data()[2] > 0.95);
        numeric_check(&mut s, &x);
    }
}

use fedmigr_tensor::Tensor;

use crate::layer::Cache;
use crate::Layer;

/// Rectified linear unit. Caches the sign mask from the forward pass.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Cache<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask.0.clear();
        self.mask.0.extend(input.data().iter().map(|&x| x > 0.0));
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.numel(), self.mask.0.len(), "Relu backward before forward");
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask.0)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[B, ...]` to `[B, prod(...)]`, remembering the original shape.
#[derive(Clone, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_owned(input.clone(), train)
    }

    fn forward_owned(&mut self, input: Tensor, _train: bool) -> Tensor {
        let shape = input.shape();
        assert!(shape.len() >= 2, "Flatten expects a batch dimension");
        self.input_shape = shape.to_vec();
        let b = shape[0];
        let rest: usize = shape[1..].iter().product();
        Tensor::from_vec(vec![b, rest], input.into_data())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.input_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }
}

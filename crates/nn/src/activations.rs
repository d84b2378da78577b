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

/// Inverted dropout: active only when `train` is true, scaling kept units by
/// `1 / (1 - p)` so inference needs no rescaling.
///
/// Uses an internal xorshift generator so the layer stays object-safe and
/// deterministic for a fixed construction seed.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    state: u64,
    mask: Cache<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer dropping each unit with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        Self { p, state: seed.wrapping_mul(2654435769).max(1), mask: Cache::default() }
    }

    fn next_uniform(&mut self) -> f32 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let bits = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as u32;
        bits as f32 / (1u32 << 24) as f32
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask.0.clear();
            return input.clone();
        }
        let keep = 1.0 - self.p;
        self.mask.0.clear();
        self.mask.0.reserve(input.numel());
        for _ in 0..input.numel() {
            let kept = self.next_uniform() >= self.p;
            self.mask.0.push(if kept { 1.0 / keep } else { 0.0 });
        }
        let data = input.data().iter().zip(&self.mask.0).map(|(&x, &m)| x * m).collect();
        Tensor::from_vec(input.shape().to_vec(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        if self.mask.0.is_empty() {
            return grad_out.clone();
        }
        let data = grad_out.data().iter().zip(&self.mask.0).map(|(&g, &m)| g * m).collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn name(&self) -> &'static str {
        "Dropout"
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

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        // Kept entries are scaled by 1/keep.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }
}

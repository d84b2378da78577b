use fedmigr_tensor::Tensor;

use crate::{Conv2d, Layer, Relu, Sequential};

/// A pre-activation residual block: `y = relu(F(x) + x)` where `F` is
/// `conv3x3 -> relu -> conv3x3` with channel-preserving padding.
///
/// This is the building block of the `MiniResNet` that stands in for the
/// paper's ResNet-152: the skip connection — the defining property of the
/// architecture — is exercised in both the forward and the backward pass.
#[derive(Clone)]
pub struct ResidualBlock {
    path: Sequential,
    out_relu: Relu,
}

impl ResidualBlock {
    /// Creates a residual block over `channels` feature maps.
    pub fn new(channels: usize, seed: u64) -> Self {
        let path = Sequential::new()
            .push(Conv2d::new(channels, channels, 3, 1, 1, seed))
            .push(Relu::new())
            .push(Conv2d::new(channels, channels, 3, 1, 1, seed.wrapping_add(1)));
        Self { path, out_relu: Relu::new() }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let f = self.path.forward(input, train);
        self.out_relu.forward_owned(f.add(input), train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_sum = self.out_relu.backward(grad_out);
        let g_path = self.path.backward(&g_sum);
        // The skip connection contributes the gradient of the sum directly.
        g_path.add(&g_sum)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.path.visit_params(f);
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.path.holds_cache() || self.out_relu.holds_cache()
    }

    fn name(&self) -> &'static str {
        "ResidualBlock"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_shape() {
        let mut block = ResidualBlock::new(4, 0);
        let x = Tensor::zeros(&[2, 6, 6, 4]);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn zero_path_weights_make_block_a_relu_identity() {
        let mut block = ResidualBlock::new(2, 0);
        block.visit_params(&mut |p, _| p.fill_zero());
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, -1.0, 2.0, -2.0]);
        let y = block.forward(&x, true);
        assert_eq!(y.data(), &[1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn numerical_gradient_check_includes_skip() {
        let mut block = ResidualBlock::new(2, 11);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[1, 3, 3, 2], 1.0, &mut rng);
        let y = block.forward(&x, true);
        block.zero_grad();
        let gx = block.backward(&Tensor::ones(y.shape()));

        let eps = 1e-2f32;
        for &i in &[0usize, 4, 9, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num =
                (block.forward(&xp, true).sum() - block.forward(&xm, true).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 0.1,
                "grad mismatch at {i}: numeric {num} vs analytic {}",
                gx.data()[i]
            );
        }
    }
}

use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::layer::Cache;
use crate::Layer;

/// Batch normalization over the channel dimension of `[B, C, H, W]` inputs
/// (Ioffe & Szegedy), with learnable per-channel scale `γ` and shift `β`
/// and running statistics for inference.
///
/// In training mode activations are normalized with the batch statistics
/// and the running mean/variance are updated with `momentum`; in inference
/// mode the running statistics are used. The backward pass implements the
/// full batch-norm gradient (including the terms through the batch mean
/// and variance).
///
/// Note for FL use: γ/β participate in aggregation/migration like any
/// other parameter, while the running statistics are part of the layer
/// state and stay on the client — the standard (and slightly subtle)
/// BatchNorm-in-FL behaviour.
#[derive(Clone)]
pub struct BatchNorm2d {
    channels: usize,
    momentum: f32,
    eps: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Forward cache (training mode).
    x_hat: Cache<Vec<f32>>,
    inv_std: Cache<Vec<f32>>,
    input_shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            momentum: 0.1,
            eps: 1e-5,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            x_hat: Cache::default(),
            inv_std: Cache::default(),
            input_shape: Vec::new(),
        }
    }

    /// Current running mean (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Current running variance (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    fn dims(shape: &[usize]) -> (usize, usize, usize) {
        assert_eq!(shape.len(), 4, "BatchNorm2d expects [B, C, H, W]");
        (shape[0], shape[1], shape[2] * shape[3])
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (b, c, s) = Self::dims(input.shape());
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let n = (b * s) as f32;
        let _k =
            kcount::scope(Kernel::BatchNorm, 7 * input.numel() as u64, 20 * input.numel() as u64);
        let data = input.data();
        let mut out = vec![0.0f32; data.len()];
        if train {
            self.x_hat.0.resize(data.len(), 0.0);
            self.inv_std.0.resize(c, 0.0);
            self.input_shape = input.shape().to_vec();
            for ch in 0..c {
                let mut mean = 0.0f32;
                for bi in 0..b {
                    let plane = (bi * c + ch) * s;
                    mean += data[plane..plane + s].iter().sum::<f32>();
                }
                mean /= n;
                let mut var = 0.0f32;
                for bi in 0..b {
                    let plane = (bi * c + ch) * s;
                    var +=
                        data[plane..plane + s].iter().map(|x| (x - mean) * (x - mean)).sum::<f32>();
                }
                var /= n;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                self.inv_std.0[ch] = inv_std;
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                let g = self.gamma.data()[ch];
                let bt = self.beta.data()[ch];
                for bi in 0..b {
                    let plane = (bi * c + ch) * s;
                    for i in plane..plane + s {
                        let xh = (data[i] - mean) * inv_std;
                        self.x_hat.0[i] = xh;
                        out[i] = g * xh + bt;
                    }
                }
            }
        } else {
            for ch in 0..c {
                let inv_std = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                let mean = self.running_mean[ch];
                let g = self.gamma.data()[ch];
                let bt = self.beta.data()[ch];
                for bi in 0..b {
                    let plane = (bi * c + ch) * s;
                    for i in plane..plane + s {
                        out[i] = g * (data[i] - mean) * inv_std + bt;
                    }
                }
            }
        }
        Tensor::from_vec(input.shape().to_vec(), out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.shape(),
            &self.input_shape[..],
            "BatchNorm2d backward before training-mode forward"
        );
        let (b, c, s) = Self::dims(&self.input_shape);
        let n = (b * s) as f32;
        let _k = kcount::scope(
            Kernel::BatchNorm,
            10 * grad_out.numel() as u64,
            16 * grad_out.numel() as u64,
        );
        let g = grad_out.data();
        let mut grad_in = vec![0.0f32; g.len()];
        for ch in 0..c {
            // Per-channel reductions: Σ dy and Σ dy * x_hat.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for bi in 0..b {
                let plane = (bi * c + ch) * s;
                for (gi, xh) in g[plane..plane + s].iter().zip(&self.x_hat.0[plane..plane + s]) {
                    sum_dy += gi;
                    sum_dy_xhat += gi * xh;
                }
            }
            self.grad_beta.data_mut()[ch] += sum_dy;
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat;
            let gamma = self.gamma.data()[ch];
            let inv_std = self.inv_std.0[ch];
            // dx = γ / (N σ) * (N dy - Σdy - x_hat ΣdyX)
            for bi in 0..b {
                let plane = (bi * c + ch) * s;
                for i in plane..plane + s {
                    grad_in[i] =
                        gamma * inv_std / n * (n * g[i] - sum_dy - self.x_hat.0[i] * sum_dy_xhat);
                }
            }
        }
        Tensor::from_vec(self.input_shape.clone(), grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
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
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x, true);
        // Per channel: mean ~0, var ~1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                let plane = (bi * 2 + ch) * 9;
                vals.extend_from_slice(&y.data()[plane..plane + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        for _ in 0..300 {
            bn.forward(&x, true);
        }
        assert!((bn.running_mean()[0] - 10.0).abs() < 1e-3);
        assert!(bn.running_var()[0] < 1e-3);
        // Inference on the same constant input is ~beta (0). The tolerance
        // is loose because the tiny running variance amplifies the residual
        // running-mean error.
        let y = bn.forward(&x, false);
        assert!(y.data().iter().all(|v| v.abs() < 0.05), "{:?}", &y.data()[..2]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&[2, 2, 2, 2], 1.0, &mut rng);
        // Weighted objective so the gradient isn't identically zero (a sum
        // is invariant to normalization up to gamma/beta).
        let w = Tensor::randn(x.shape(), 1.0, &mut rng);
        let objective =
            |bn: &mut BatchNorm2d, x: &Tensor| -> f32 { bn.forward(x, true).mul(&w).sum() };
        let y = bn.forward(&x, true);
        bn.zero_grad();
        let gx = bn.backward(&w.clone());
        let _ = y;
        let eps = 1e-2f32;
        for &i in &[0usize, 3, 7, 12, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (objective(&mut bn, &xp) - objective(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 2e-2,
                "input grad mismatch at {i}: {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn params_are_gamma_and_beta_only() {
        let mut bn = BatchNorm2d::new(4);
        assert_eq!(bn.param_count(), 8);
    }
}

use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::{xavier_std, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::Cache;
use crate::Layer;

/// A fully-connected layer: `y = x W + b` with `x: [B, in]`, `W: [in, out]`.
#[derive(Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Cache<Option<Tensor>>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            weight: Tensor::randn(&[in_dim, out_dim], xavier_std(in_dim, out_dim), &mut rng),
            bias: Tensor::zeros(&[out_dim]),
            grad_weight: Tensor::zeros(&[in_dim, out_dim]),
            grad_bias: Tensor::zeros(&[out_dim]),
            cached_input: Cache(None),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    fn affine(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense expected input dim {}, got {}",
            self.in_dim(),
            input.cols()
        );
        let mut out = input.matmul(&self.weight);
        add_bias(&mut out, &self.bias);
        out
    }

    /// Accumulates `dW = xᵀ g` and `db = Σ_rows g`.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .0
            .take()
            .expect("Dense::backward called before a training-mode forward");
        self.grad_weight.add_assign(&input.matmul_tn(grad_out));
        accumulate_bias_grad(&mut self.grad_bias, grad_out);
    }
}

/// `out[r, :] += bias` for every row of a `[rows, n]` matrix.
pub(crate) fn add_bias(out: &mut Tensor, bias: &Tensor) {
    let n = bias.numel();
    let _k = kcount::scope(Kernel::Elementwise, out.numel() as u64, 8 * out.numel() as u64);
    for row in out.data_mut().chunks_exact_mut(n) {
        for (v, &bv) in row.iter_mut().zip(bias.data()) {
            *v += bv;
        }
    }
}

/// `grad_bias += Σ_rows grad`, rows added in ascending order.
pub(crate) fn accumulate_bias_grad(grad_bias: &mut Tensor, grad: &Tensor) {
    let n = grad_bias.numel();
    let _k = kcount::scope(Kernel::Elementwise, grad.numel() as u64, 4 * grad.numel() as u64);
    for row in grad.data().chunks_exact(n) {
        for (g, &gv) in grad_bias.data_mut().iter_mut().zip(row) {
            *g += gv;
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.cached_input = Cache(train.then(|| input.clone()));
        self.affine(input)
    }

    fn forward_owned(&mut self, input: Tensor, train: bool) -> Tensor {
        let out = self.affine(&input);
        self.cached_input = Cache(train.then_some(input));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // dW = x^T g, db = sum_rows(g), dx = g W^T
        self.accumulate_param_grads(grad_out);
        grad_out.matmul(&self.weight.transpose2())
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.accumulate_param_grads(&grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.cached_input.0.is_some()
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_affine_map() {
        let mut layer = Dense::new(2, 2, 0);
        // Overwrite weights with a known matrix.
        layer.visit_params(&mut |p, _| {
            if p.shape() == [2, 2] {
                p.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            } else {
                p.data_mut().copy_from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let y = layer.forward(&x, true);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut layer = Dense::new(3, 2, 7);
        let x = Tensor::from_vec(vec![2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        // Scalar objective: sum of outputs.
        let eps = 1e-3f32;
        let y = layer.forward(&x, true);
        let grad_out = Tensor::ones(y.shape());
        layer.zero_grad();
        let gx = layer.backward(&grad_out);

        // Check input gradient numerically.
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, true).sum();
            let fm = layer.forward(&xm, true).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: numeric {num} vs analytic {}",
                gx.data()[i]
            );
        }

        // Check weight gradients numerically.
        let mut analytic = Vec::new();
        layer.visit_params(&mut |_, g| analytic.extend_from_slice(g.data()));
        fn bump(layer: &mut Dense, which: usize, i: usize, delta: f32) {
            let mut k = 0;
            layer.visit_params(&mut |p, _| {
                if k == which {
                    p.data_mut()[i] += delta;
                }
                k += 1;
            });
        }
        let mut idx = 0usize;
        for which in 0..2 {
            let count = if which == 0 { 6 } else { 2 };
            for i in 0..count {
                let expected = analytic[idx];
                bump(&mut layer, which, i, eps);
                let fp = layer.forward(&x, true).sum();
                bump(&mut layer, which, i, -2.0 * eps);
                let fm = layer.forward(&x, true).sum();
                bump(&mut layer, which, i, eps);
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - expected).abs() < 1e-2,
                    "param grad mismatch: numeric {num} vs analytic {expected}"
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn input_is_cached_for_one_training_step_only() {
        let mut layer = Dense::new(3, 2, 0);
        let x = Tensor::ones(&[4, 3]);
        let y = layer.forward(&x, true);
        assert!(layer.cached_input.0.is_some());
        assert!(layer.clone().cached_input.0.is_none());
        layer.backward(&y);
        assert!(layer.cached_input.0.is_none(), "backward releases the input");
        assert_eq!(layer.forward_owned(x.clone(), true), y, "owned and borrowed forward agree");
        layer.forward(&x, false);
        assert!(layer.cached_input.0.is_none(), "an evaluation leaves nothing resident");
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut layer = Dense::new(2, 2, 0);
        let x = Tensor::ones(&[1, 2]);
        let y = layer.forward(&x, true);
        layer.backward(&Tensor::ones(y.shape()));
        layer.zero_grad();
        let mut total = 0.0;
        layer.visit_params(&mut |_, g| total += g.data().iter().map(|v| v.abs()).sum::<f32>());
        assert_eq!(total, 0.0);
    }
}

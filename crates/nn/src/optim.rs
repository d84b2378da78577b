use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::Layer;

/// Mini-batch SGD with optional weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// L2 weight decay added to gradients before the update.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0 }
    }

    /// Applies one update to every parameter of `model` using its
    /// accumulated gradients, then leaves the gradients untouched (call
    /// [`Layer::zero_grad`] before the next accumulation).
    pub fn step(&mut self, model: &mut dyn Layer) {
        let (lr, wd) = (self.lr, self.weight_decay);
        model.visit_params(&mut |p: &mut Tensor, g: &mut Tensor| {
            let _k = kcount::scope(Kernel::Optimizer, 4 * p.numel() as u64, 20 * p.numel() as u64);
            for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                *pv -= lr * (gv + wd * *pv);
            }
        });
    }
}

/// Adds the FedProx proximal gradient `mu * (w - w_global)` to the model's
/// accumulated gradients.
///
/// `global` must be the flattened global parameters in model visit order
/// (see [`crate::params::param_vector`]).
pub fn apply_prox_term(model: &mut dyn Layer, global: &[f32], mu: f32) {
    let mut offset = 0usize;
    model.visit_params(&mut |p: &mut Tensor, g: &mut Tensor| {
        let n = p.numel();
        let gslice = &global[offset..offset + n];
        for ((gv, pv), wv) in g.data_mut().iter_mut().zip(p.data()).zip(gslice) {
            *gv += mu * (pv - wv);
        }
        offset += n;
    });
    assert_eq!(offset, global.len(), "global parameter vector length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::param_vector;
    use crate::Dense;

    #[test]
    fn step_descends_along_gradient() {
        let mut layer = Dense::new(1, 1, 0);
        // Set w = 2, b = 0; objective f(w) = w so grad_w = 1 after one
        // forward/backward with unit input and unit output grad.
        layer.visit_params(&mut |p, _| {
            let v = if p.numel() == 1 { 2.0 } else { 0.0 };
            p.data_mut().fill(v);
        });
        let x = Tensor::ones(&[1, 1]);
        let y = layer.forward(&x, true);
        layer.zero_grad();
        layer.backward(&Tensor::ones(y.shape()));
        let mut opt = Sgd::new(0.5);
        opt.step(&mut layer);
        let w = param_vector(&mut layer);
        assert!((w[0] - 1.5).abs() < 1e-6, "w after step: {}", w[0]);
    }

    #[test]
    fn prox_term_pulls_towards_global() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |p, g| {
            p.data_mut().fill(1.0);
            g.fill_zero();
        });
        let global = vec![0.0f32; 2];
        apply_prox_term(&mut layer, &global, 0.1);
        let mut grads = Vec::new();
        layer.visit_params(&mut |_, g| grads.extend_from_slice(g.data()));
        // grad = mu * (w - w_global) = 0.1 * (1 - 0) for each parameter.
        assert!(grads.iter().all(|&g| (g - 0.1).abs() < 1e-6));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |p, g| {
            p.data_mut().fill(1.0);
            g.fill_zero();
        });
        let mut opt = Sgd { weight_decay: 1.0, ..Sgd::new(0.1) };
        opt.step(&mut layer);
        let w = param_vector(&mut layer);
        assert!(w.iter().all(|&x| (x - 0.9).abs() < 1e-6));
    }
}

use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::Layer;

/// Mini-batch SGD with optional momentum and weight decay.
///
/// Velocity buffers are keyed by visit order, which is stable for a given
/// model architecture (see [`Layer::visit_params`]).
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to gradients before the update.
    pub weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { momentum, ..Self::new(lr) }
    }

    /// Sets L2 weight decay, builder-style.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update to every parameter of `model` using its
    /// accumulated gradients, then leaves the gradients untouched (call
    /// [`Layer::zero_grad`] before the next accumulation).
    pub fn step(&mut self, model: &mut dyn Layer) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        model.visit_params(&mut |p: &mut Tensor, g: &mut Tensor| {
            if velocity.len() <= idx {
                velocity.push(vec![0.0; p.numel()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.numel(), "parameter shape changed between steps");
            let _k = kcount::scope(Kernel::Optimizer, 4 * p.numel() as u64, 20 * p.numel() as u64);
            for ((pv, gv), vel) in p.data_mut().iter_mut().zip(g.data()).zip(v.iter_mut()) {
                let grad = gv + wd * *pv;
                if momentum > 0.0 {
                    *vel = momentum * *vel + grad;
                    *pv -= lr * *vel;
                } else {
                    *pv -= lr * grad;
                }
            }
            idx += 1;
        });
    }
}

/// Scales the model's accumulated gradients so their global L2 norm does
/// not exceed `max_norm`; returns the pre-clip norm. A standard guard
/// against exploding gradients in long federated runs.
pub fn clip_grad_norm(model: &mut dyn Layer, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut sq = 0.0f32;
    model.visit_params(&mut |_, g: &mut Tensor| {
        sq += g.data().iter().map(|x| x * x).sum::<f32>();
    });
    let norm = sq.sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        model.visit_params(&mut |_, g: &mut Tensor| g.scale_assign(scale));
    }
    norm
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
    fn momentum_accumulates_velocity() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |p, g| {
            p.fill_zero();
            g.data_mut().fill(1.0);
        });
        let mut opt = Sgd::with_momentum(1.0, 0.5);
        opt.step(&mut layer); // v = 1, w = -1
        layer.visit_params(&mut |_, g| g.data_mut().fill(1.0));
        opt.step(&mut layer); // v = 1.5, w = -2.5
        let w = param_vector(&mut layer);
        assert!((w[0] + 2.5).abs() < 1e-6, "w = {}", w[0]);
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
    fn clip_grad_norm_rescales_large_gradients() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |_, g| g.data_mut().fill(3.0));
        // Two grads of 3.0 -> norm sqrt(18) ≈ 4.24.
        let norm = clip_grad_norm(&mut layer, 1.0);
        assert!((norm - 18.0f32.sqrt()).abs() < 1e-5);
        let mut after = 0.0f32;
        layer.visit_params(&mut |_, g| after += g.data().iter().map(|x| x * x).sum::<f32>());
        assert!((after.sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_alone() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |_, g| g.data_mut().fill(0.1));
        clip_grad_norm(&mut layer, 10.0);
        let mut grads = Vec::new();
        layer.visit_params(&mut |_, g| grads.extend_from_slice(g.data()));
        assert!(grads.iter().all(|&g| (g - 0.1).abs() < 1e-7));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut layer = Dense::new(1, 1, 0);
        layer.visit_params(&mut |p, g| {
            p.data_mut().fill(1.0);
            g.fill_zero();
        });
        let mut opt = Sgd::new(0.1).weight_decay(1.0);
        opt.step(&mut layer);
        let w = param_vector(&mut layer);
        assert!(w.iter().all(|&x| (x - 0.9).abs() < 1e-6));
    }
}

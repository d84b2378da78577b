use std::io;

use fedmigr_telemetry::wire::{bad, Codec, Wire};
use fedmigr_tensor::Tensor;

use crate::optim::apply_prox_term;
use crate::params::{param_vector, set_param_vector, wire_size};
use crate::{accuracy, softmax_cross_entropy, Layer, Sequential, Sgd};

/// A classification model: a [`Sequential`] network plus the metadata an FL
/// client needs (per-sample input shape, class count, a human-readable name).
#[derive(Clone)]
pub struct Model {
    net: Sequential,
    input_shape: Vec<usize>,
    num_classes: usize,
    name: String,
    non_finite_batches: u64,
    num_params: usize,
}

impl Model {
    /// Wraps a network. `input_shape` is per-sample (no batch dimension).
    pub fn new(mut net: Sequential, input_shape: &[usize], num_classes: usize, name: &str) -> Self {
        // The layer-visitor API needs `&mut`, so count once here: the
        // architecture is fixed after construction and size queries
        // (`num_params`, `wire_bytes`) should not demand mutable access.
        let num_params = net.param_count();
        Self {
            net,
            input_shape: input_shape.to_vec(),
            num_classes,
            name: name.to_string(),
            non_finite_batches: 0,
            num_params,
        }
    }

    /// Per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Model name (e.g. `"C10-CNN"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mutable access to the underlying network.
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Total scalar parameter count (cached at construction).
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Size in bytes of this model on the wire *uncompressed* — the
    /// identity-codec cost; compressing codecs report their own sizes.
    pub fn wire_bytes(&self) -> u64 {
        wire_size(self.num_params())
    }

    /// Forward pass on a batch `[B, ...input_shape]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.net.forward(x, train)
    }

    /// Mean cross-entropy loss on a batch (inference mode, no grads).
    pub fn loss(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.net.forward(x, false);
        softmax_cross_entropy(&logits, labels).0
    }

    /// Loss and accuracy on a batch (inference mode).
    pub fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f64) {
        let logits = self.net.forward(x, false);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        (loss, accuracy(&logits, labels))
    }

    /// One SGD step on a mini-batch; returns the pre-step loss.
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        self.train_step_inner(x, labels, opt, None)
    }

    /// One FedProx step: like [`Model::train_step`] but adds the proximal
    /// gradient `mu * (w - w_global)` before the update.
    pub fn train_step_prox(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut Sgd,
        global: &[f32],
        mu: f32,
    ) -> f32 {
        self.train_step_inner(x, labels, opt, Some((global, mu)))
    }

    fn train_step_inner(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut Sgd,
        prox: Option<(&[f32], f32)>,
    ) -> f32 {
        let logits = self.net.forward(x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        if !loss.is_finite() {
            // A NaN/Inf batch loss means the gradient is garbage: stepping
            // would poison every parameter. Skip the update, count it, and
            // let the caller decide how to treat the reported loss.
            self.non_finite_batches += 1;
            return loss;
        }
        self.net.zero_grad();
        self.net.backward_params_only(&grad);
        if let Some((global, mu)) = prox {
            apply_prox_term(&mut self.net, global, mu);
        }
        opt.step(&mut self.net);
        loss
    }

    /// Number of training batches skipped because the loss was NaN/Inf.
    pub fn non_finite_batches(&self) -> u64 {
        self.non_finite_batches
    }

    /// Resets the non-finite-batch counter (e.g. at epoch boundaries when
    /// harvesting per-epoch statistics).
    pub fn take_non_finite_batches(&mut self) -> u64 {
        std::mem::take(&mut self.non_finite_batches)
    }

    /// Flattened parameters (the migrated/aggregated representation).
    pub fn params(&mut self) -> Vec<f32> {
        param_vector(&mut self.net)
    }

    /// Replaces all parameters from a flat vector.
    pub fn set_params(&mut self, values: &[f32]) {
        set_param_vector(&mut self.net, values);
    }
}

/// A model crosses the wire as its parameter vector — `u64 n ‖ f32 LE…`,
/// the bytes of [`Model::params`] as a `Vec<f32>` — written from and read
/// into the layers' own tensors. The architecture is configuration: a
/// snapshot with another parameter count is a mismatch, found before the
/// first parameter is overwritten.
impl Wire for Model {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut n = self.num_params;
        c.len(&mut n, f32::MIN_BYTES)?;
        if n != self.num_params {
            return Err(bad(&format!(
                "model shape mismatch: snapshot has {n} parameters, {} has {}",
                self.name, self.num_params
            )));
        }
        let mut result = Ok(());
        self.net.visit_params(&mut |p: &mut Tensor, _| {
            if result.is_ok() {
                result = f32::wire_slice(p.data_mut(), c);
            }
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        let mut model = zoo::mlp(4, &[8], 2, 0);
        let x = Tensor::from_vec(
            vec![4, 4],
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, 0.0, 0.0, 1.0,
            ],
        );
        let labels = [0usize, 0, 1, 1];
        let mut opt = Sgd::new(0.5);
        let before = model.loss(&x, &labels);
        for _ in 0..50 {
            model.train_step(&x, &labels, &mut opt);
        }
        let after = model.loss(&x, &labels);
        assert!(after < before * 0.5, "loss {before} -> {after}");
        let (_, acc) = model.evaluate(&x, &labels);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn the_wire_form_is_the_parameter_vector() {
        let mut model = zoo::c10_cnn(3, 8, zoo::NetScale::Small, 4);
        let bytes = fedmigr_telemetry::wire::encode(&mut model);
        assert_eq!(bytes, fedmigr_telemetry::wire::encode(&mut model.params()));
        let mut other = zoo::c10_cnn(3, 8, zoo::NetScale::Small, 5);
        fedmigr_telemetry::wire::decode(&bytes, &mut other).unwrap();
        assert_eq!(other.params(), model.params());
    }

    #[test]
    fn set_params_round_trips() {
        let mut model = zoo::mlp(4, &[8], 2, 0);
        let p = model.params();
        let zeros = vec![0.0f32; p.len()];
        model.set_params(&zeros);
        assert!(model.params().iter().all(|&x| x == 0.0));
        model.set_params(&p);
        assert_eq!(model.params(), p);
    }

    #[test]
    fn non_finite_loss_skips_update_and_counts() {
        let mut model = zoo::mlp(4, &[8], 2, 1);
        // Poison the parameters so the forward pass produces NaN logits.
        let n = model.params().len();
        model.set_params(&vec![f32::NAN; n]);
        let x = Tensor::from_vec(vec![1, 4], vec![1.0, 0.0, 0.0, 0.0]);
        let before = model.params();
        let mut opt = Sgd::new(0.5);
        let loss = model.train_step(&x, &[0], &mut opt);
        assert!(!loss.is_finite());
        assert_eq!(model.non_finite_batches(), 1);
        // Parameters must be untouched: no optimizer step happened.
        let after = model.params();
        assert_eq!(before.len(), after.len());
        assert!(after.iter().all(|x| x.is_nan()));
        assert_eq!(model.take_non_finite_batches(), 1);
        assert_eq!(model.non_finite_batches(), 0);
    }

    #[test]
    fn finite_training_never_touches_the_counter() {
        let mut model = zoo::mlp(4, &[8], 2, 2);
        let x = Tensor::from_vec(vec![2, 4], vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let mut opt = Sgd::new(0.1);
        for _ in 0..5 {
            model.train_step(&x, &[0, 1], &mut opt);
        }
        assert_eq!(model.non_finite_batches(), 0);
    }

    #[test]
    fn prox_step_stays_closer_to_global() {
        // Train two identical models on the same batch; the proximal one
        // must end nearer the anchor (its starting parameters).
        let x = Tensor::from_vec(vec![2, 4], vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let labels = [0usize, 1];
        let mut plain = zoo::mlp(4, &[8], 2, 3);
        let mut proxed = plain.clone();
        let anchor = plain.params();
        let mut o1 = Sgd::new(0.5);
        let mut o2 = Sgd::new(0.5);
        for _ in 0..30 {
            plain.train_step(&x, &labels, &mut o1);
            proxed.train_step_prox(&x, &labels, &mut o2, &anchor, 1.0);
        }
        let dist = |p: &[f32]| -> f32 {
            p.iter().zip(&anchor).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
        };
        let dp = dist(&plain.params());
        let dx = dist(&proxed.params());
        assert!(dx < dp, "prox distance {dx} should be < plain distance {dp}");
    }
}

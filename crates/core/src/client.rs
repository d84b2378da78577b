use std::sync::Arc;

use fedmigr_data::{distribution::label_distribution, Dataset};
use fedmigr_nn::{Model, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One federated-learning client: a slice of the training data, a local
/// model, and an optimizer.
pub struct FlClient {
    id: usize,
    data: Arc<Dataset>,
    /// Local data indices in their current (shuffled) order.
    pub(crate) indices: Vec<usize>,
    pub(crate) model: Model,
    opt: Sgd,
    /// The private batch-order RNG stream.
    pub(crate) rng: StdRng,
    label_dist: Vec<f64>,
    pub(crate) migrations_received: usize,
    /// Training-time label remap (the label-flip poisoning attack).
    /// `None` = honest training. The dataset itself is shared through an
    /// `Arc` and stays immutable; only this client's view is poisoned.
    label_map: Option<Vec<usize>>,
}

impl FlClient {
    /// Creates a client over `indices` of `data`.
    pub fn new(
        id: usize,
        data: Arc<Dataset>,
        indices: Vec<usize>,
        model: Model,
        lr: f32,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "client {id} has no data");
        let label_dist = label_distribution(&data, &indices);
        Self {
            id,
            data,
            indices,
            model,
            opt: Sgd::new(lr),
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            label_dist,
            migrations_received: 0,
            label_map: None,
        }
    }

    /// Installs a training-time label remap (`map[true_label] =
    /// poisoned_label`), the label-flip attack. The advertised
    /// [`FlClient::label_dist`] is deliberately left untouched: the
    /// attacker *lies* about its marginal, so distribution-aware planners
    /// see nothing unusual.
    pub fn set_label_map(&mut self, map: Vec<usize>) {
        assert_eq!(map.len(), self.label_dist.len(), "label map must cover every class");
        self.label_map = Some(map);
    }

    /// Client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Local dataset size `n_k`.
    pub fn num_samples(&self) -> usize {
        self.indices.len()
    }

    /// Local label marginal `q_k` (fixed for the run — local data never
    /// moves, only models do).
    pub fn label_dist(&self) -> &[f64] {
        &self.label_dist
    }

    /// Runs one local epoch of mini-batch SGD (Eq. 6); `max_batches` caps
    /// the number of mini-batches (None = full pass). `prox` enables the
    /// FedProx proximal term towards the given global parameter vector.
    /// Returns the mean mini-batch loss.
    pub fn train_epoch(
        &mut self,
        batch_size: usize,
        max_batches: Option<usize>,
        prox: Option<(&[f32], f32)>,
    ) -> f32 {
        assert!(batch_size > 0);
        self.indices.shuffle(&mut self.rng);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        let limit = max_batches.unwrap_or(usize::MAX);
        for chunk in self.indices.chunks(batch_size) {
            if batches >= limit {
                break;
            }
            let (x, mut labels) = self.data.batch(chunk);
            if let Some(map) = &self.label_map {
                labels = fedmigr_data::apply_label_map(&labels, map);
            }
            let loss = match prox {
                Some((global, mu)) => {
                    self.model.train_step_prox(&x, &labels, &mut self.opt, global, mu)
                }
                None => self.model.train_step(&x, &labels, &mut self.opt),
            };
            // A non-finite batch loss skipped the optimizer step (see
            // `Model::train_step_inner`); keep it out of the mean too so a
            // poisoned model doesn't propagate NaN into the DRL state and
            // reward signals.
            if loss.is_finite() {
                total += loss;
                batches += 1;
            }
        }
        assert!(
            batches > 0 || self.model.non_finite_batches() > 0,
            "client {} trained zero batches",
            self.id
        );
        if batches == 0 {
            0.0
        } else {
            total / batches as f32
        }
    }

    /// Drains the model's count of training batches skipped for a NaN/Inf
    /// loss (see `fedmigr_nn::Model::take_non_finite_batches`).
    pub fn drain_non_finite_batches(&mut self) -> u64 {
        self.model.take_non_finite_batches()
    }

    /// Current model parameters (the migrated/uploaded representation).
    pub fn params(&mut self) -> Vec<f32> {
        self.model.params()
    }

    /// Replaces the local model parameters (global distribution or an
    /// incoming migrated model).
    pub fn set_params(&mut self, params: &[f32], migrated: bool) {
        self.model.set_params(params);
        if migrated {
            self.migrations_received += 1;
        }
    }

    /// Total scalar parameter count of the local model.
    pub fn num_params(&self) -> usize {
        self.model.num_params()
    }

    /// Uncompressed model size on the wire in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.model.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_data::{partition_iid, SyntheticConfig, SyntheticDataset};
    use fedmigr_nn::zoo;

    impl FlClient {
        /// Mean loss of the current local model over the local data (no
        /// update): the yardstick the training tests measure against.
        fn local_loss(&mut self) -> f32 {
            let (x, labels) = self.data.batch(&self.indices);
            self.model.loss(&x, &labels)
        }
    }

    fn make_client() -> FlClient {
        let ds = Arc::new(SyntheticDataset::generate(&SyntheticConfig::c10_like(10, 1)).train);
        let parts = partition_iid(&ds, 2, 1);
        let model = zoo::c10_cnn(3, 8, zoo::NetScale::Small, 0);
        FlClient::new(0, ds, parts[0].clone(), model, 0.05, 42)
    }

    #[test]
    fn training_reduces_local_loss() {
        let mut c = make_client();
        let before = c.local_loss();
        for _ in 0..5 {
            c.train_epoch(16, None, None);
        }
        let after = c.local_loss();
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn label_dist_matches_data() {
        let c = make_client();
        let sum: f64 = c.label_dist().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(c.label_dist().len(), 10);
    }

    #[test]
    fn max_batches_caps_work() {
        let mut c = make_client();
        // With a cap of 1 the epoch still runs and reports a finite loss.
        let loss = c.train_epoch(8, Some(1), None);
        assert!(loss.is_finite());
    }

    #[test]
    fn label_flip_poisons_training_but_not_the_advertised_marginal() {
        let mut honest = make_client();
        let mut flipped = make_client();
        let marginal_before = flipped.label_dist().to_vec();
        flipped.set_label_map(fedmigr_data::flip_label_map(10));
        assert_eq!(flipped.label_dist(), marginal_before.as_slice(), "attacker lies about q_k");
        for _ in 0..5 {
            honest.train_epoch(16, None, None);
            flipped.train_epoch(16, None, None);
        }
        // The honest model fits the true labels; the flipped model fits
        // anti-labels, so its loss on the *true* data is much worse.
        assert!(
            flipped.local_loss() > honest.local_loss(),
            "flipped {} vs honest {}",
            flipped.local_loss(),
            honest.local_loss()
        );
    }

    #[test]
    fn poisoned_model_reports_zero_loss_without_panicking() {
        let mut c = make_client();
        let n = c.params().len();
        c.set_params(&vec![f32::NAN; n], false);
        let loss = c.train_epoch(16, Some(2), None);
        assert_eq!(loss, 0.0, "no finite batch -> neutral mean loss");
        assert!(c.drain_non_finite_batches() > 0);
        assert_eq!(c.drain_non_finite_batches(), 0, "counter drains");
    }

    #[test]
    fn migration_counter_increments() {
        let mut c = make_client();
        let p = c.params();
        assert_eq!(c.migrations_received, 0);
        c.set_params(&p, true);
        assert_eq!(c.migrations_received, 1);
        c.set_params(&p, false);
        assert_eq!(c.migrations_received, 1);
    }
}

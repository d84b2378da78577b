//! Integration tests of the privacy layer and the parameter wire format
//! as used across crates.

use fedmigr::core::{DpConfig, Experiment, RunConfig, Scheme};
use fedmigr::data::{partition_iid, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{ClientCompute, DeviceTier, Topology, TopologyConfig};
use fedmigr::nn::params::{decode_params, encode_params, wire_size};
use fedmigr::nn::zoo::{self, NetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn wire_format_round_trips_a_real_model() {
    let mut model = zoo::c10_cnn(3, 8, NetScale::Small, 1);
    let params = model.params();
    let encoded = encode_params(&params);
    assert_eq!(encoded.len() as u64, wire_size(params.len()));
    assert_eq!(model.wire_bytes(), wire_size(params.len()));
    let decoded = decode_params(&encoded).expect("well-formed payload");
    assert_eq!(decoded, params);
}

#[test]
fn dp_noise_is_applied_per_transmission() {
    let dp = DpConfig::with_epsilon(100.0);
    let mut rng = StdRng::seed_from_u64(1);
    let base = vec![0.1f32; 1000];
    let mut a = base.clone();
    let mut b = base.clone();
    dp.apply(&mut a, &mut rng);
    dp.apply(&mut b, &mut rng);
    assert_ne!(a, b, "independent noise per call");
    assert_ne!(a, base);
}

fn tiny_experiment(seed: u64) -> Experiment {
    let data = SyntheticDataset::generate(&SyntheticConfig {
        num_classes: 4,
        train_per_class: 20,
        test_per_class: 10,
        channels: 1,
        hw: 8,
        noise_std: 0.6,
        class_sep: 1.0,
        atom_bank: 0,
        atoms_per_class: 0,
        private_frac: 0.0,
        seed,
    });
    let parts = partition_iid(&data.train, 4, seed);
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(vec![2, 2], seed)),
        ClientCompute::homogeneous(4, DeviceTier::Nx),
        zoo::c10_cnn(1, 8, NetScale::Small, seed),
    )
}

#[test]
fn extreme_noise_destroys_learning_mild_noise_does_not() {
    let exp = tiny_experiment(7);
    let mut clean_cfg = RunConfig::new(Scheme::FedAvg, 12);
    clean_cfg.batch_size = 16;
    clean_cfg.eval_interval = 4;
    let clean = exp.run(&clean_cfg).best_accuracy();

    let mut mild_cfg = clean_cfg.clone();
    mild_cfg.dp = Some(DpConfig::with_epsilon(50_000.0));
    let mild = exp.run(&mild_cfg).best_accuracy();

    let mut harsh_cfg = clean_cfg.clone();
    harsh_cfg.dp = Some(DpConfig::with_epsilon(1.0));
    let harsh = exp.run(&harsh_cfg).best_accuracy();

    assert!(clean > 0.5, "baseline failed to learn: {clean}");
    assert!(mild > clean - 0.25, "mild noise too destructive: {mild} vs {clean}");
    assert!(harsh < clean, "harsh noise should hurt: {harsh} vs {clean}");
    assert!(harsh < 0.6, "eps=1 noise should roughly destroy learning: {harsh}");
}

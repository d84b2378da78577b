//! Property-based tests of the migration-plan algebra and the parameter
//! wire format, across arbitrary sizes and seeds.

use fedmigr::core::MigrationPlan;
use fedmigr::nn::params::{decode_params, encode_params};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn is_permutation(plan: &MigrationPlan) -> bool {
    let k = plan.len();
    let mut seen = vec![false; k];
    for i in 0..k {
        let j = plan.dest(i);
        if j >= k || seen[j] {
            return false;
        }
        seen[j] = true;
    }
    true
}

proptest! {
    /// Random plans are permutations for every size and seed.
    #[test]
    fn random_plans_are_permutations(k in 1usize..24, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MigrationPlan::random(k, &mut rng);
        prop_assert!(is_permutation(&plan));
    }

    /// Subset plans never move an inactive client's model.
    #[test]
    fn subset_plans_fix_inactive_clients(
        mask in prop::collection::vec(any::<bool>(), 1..16),
        seed in 0u64..1000,
    ) {
        let k = mask.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MigrationPlan::random_subset(k, &mask, &mut rng);
        prop_assert!(is_permutation(&plan));
        for (i, &active) in mask.iter().enumerate() {
            if !active {
                prop_assert_eq!(plan.dest(i), i);
            }
        }
    }

    /// Greedy assignment is a permutation and, for non-negative scores,
    /// achieves at least half the optimal assignment value (the classic
    /// greedy-matching guarantee; exact optimality does NOT hold — the
    /// largest cell can force a poor complement).
    #[test]
    fn greedy_assignment_is_half_optimal_on_2x2(
        flat in prop::collection::vec(0.0f64..10.0, 4..=4),
    ) {
        let scores = vec![
            vec![flat[0], flat[1]],
            vec![flat[2], flat[3]],
        ];
        let plan = MigrationPlan::greedy_assignment(&scores);
        prop_assert!(is_permutation(&plan));
        let total: f64 = (0..2).map(|i| scores[i][plan.dest(i)]).sum();
        let identity: f64 = scores[0][0] + scores[1][1];
        let swap: f64 = scores[0][1] + scores[1][0];
        let optimum = identity.max(swap);
        prop_assert!(2.0 * total >= optimum - 1e-9, "greedy {total} vs optimum {optimum}");
    }

    /// Applying a plan permutes without loss: the multiset of models is
    /// preserved.
    #[test]
    fn apply_preserves_models(k in 1usize..12, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MigrationPlan::random(k, &mut rng);
        let models: Vec<usize> = (0..k).collect();
        let mut routed = plan.apply(&models);
        routed.sort_unstable();
        prop_assert_eq!(routed, models);
    }

    /// The wire format round-trips arbitrary finite parameter vectors.
    #[test]
    fn wire_round_trips(values in prop::collection::vec(-1e6f32..1e6, 0..256)) {
        let encoded = encode_params(&values);
        let decoded = decode_params(&encoded).expect("well-formed");
        prop_assert_eq!(decoded, values);
    }

    /// Truncating an encoded payload anywhere makes decoding fail instead
    /// of returning corrupt parameters.
    #[test]
    fn truncated_wire_is_rejected(
        values in prop::collection::vec(-1.0f32..1.0, 1..64),
        cut in 0usize..64,
    ) {
        let encoded = encode_params(&values);
        prop_assume!(cut < encoded.len());
        let truncated = &encoded[..cut.min(encoded.len() - 1)];
        prop_assert!(decode_params(truncated).is_none());
    }
}

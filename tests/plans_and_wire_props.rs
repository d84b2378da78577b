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

/// Largest total score of any assignment that permutes `members` among
/// themselves, by enumerating every permutation.
fn brute_force_optimum(scores: &[Vec<f64>], members: &[usize]) -> f64 {
    fn best(scores: &[Vec<f64>], members: &[usize], pos: usize, used: &mut [bool]) -> f64 {
        let Some(&i) = members.get(pos) else { return 0.0 };
        let mut top = f64::NEG_INFINITY;
        for (slot, &j) in members.iter().enumerate() {
            if !used[slot] {
                used[slot] = true;
                top = top.max(scores[i][j] + best(scores, members, pos + 1, used));
                used[slot] = false;
            }
        }
        top
    }
    best(scores, members, 0, &mut vec![false; members.len()])
}

proptest! {
    /// Random plans over everyone are permutations for every size and seed.
    #[test]
    fn random_plans_are_permutations(k in 1usize..24, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MigrationPlan::random_subset(k, &vec![true; k], &mut rng);
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

    /// Greedy assignment is a permutation that keeps inactive clients in
    /// place and, for non-negative scores, achieves at least half the
    /// optimal assignment value over the active set (the classic
    /// greedy-matching guarantee; exact optimality does NOT hold — the
    /// largest cell can force a poor complement). The optimum is found by
    /// enumerating every permutation of the active clients.
    #[test]
    fn greedy_assignment_is_half_optimal_against_brute_force(
        k in 1usize..8,
        mask in prop::collection::vec(any::<bool>(), 7),
        flat in prop::collection::vec(0.0f64..10.0, 49),
    ) {
        let scores: Vec<Vec<f64>> =
            (0..k).map(|i| (0..k).map(|j| flat[i * 7 + j]).collect()).collect();
        let active = &mask[..k];
        let plan = MigrationPlan::greedy_assignment_masked(&scores, active);
        prop_assert!(is_permutation(&plan));
        let members: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        for i in 0..k {
            if !active[i] {
                prop_assert_eq!(plan.dest(i), i);
            }
        }
        let total: f64 = members.iter().map(|&i| scores[i][plan.dest(i)]).sum();
        let optimum = brute_force_optimum(&scores, &members);
        prop_assert!(2.0 * total >= optimum - 1e-9, "greedy {total} vs optimum {optimum}");
    }

    /// Applying a plan permutes without loss: the multiset of models is
    /// preserved.
    #[test]
    fn apply_preserves_models(k in 1usize..12, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MigrationPlan::random_subset(k, &vec![true; k], &mut rng);
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

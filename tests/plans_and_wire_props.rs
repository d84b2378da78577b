//! Property-based tests of the migration-plan algebra and the parameter
//! wire format, across arbitrary sizes and seeds.

use fedmigr::core::MigrationPlan;
use fedmigr::nn::params::{decode_params, encode_params};
use fedmigr_fleet::greedy_commit;
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

/// Largest total score of any assignment of `members` to each other, by
/// enumerating every one. With no floor the assignments are permutations
/// of `members`; with a floor they are matchings of sources to distinct
/// other hosts over pairs scoring above it (an unmatched source counts 0).
fn brute_force_optimum(scores: &[Vec<f64>], members: &[usize], floor: Option<f64>) -> f64 {
    fn best(
        scores: &[Vec<f64>],
        members: &[usize],
        floor: Option<f64>,
        pos: usize,
        used: &mut [bool],
    ) -> f64 {
        let Some(&i) = members.get(pos) else { return 0.0 };
        let mut top = match floor {
            Some(_) => best(scores, members, floor, pos + 1, used),
            None => f64::NEG_INFINITY,
        };
        for (slot, &j) in members.iter().enumerate() {
            let allowed = floor.is_none_or(|f| i != j && scores[i][j] > f);
            if allowed && !used[slot] {
                used[slot] = true;
                top = top.max(scores[i][j] + best(scores, members, floor, pos + 1, used));
                used[slot] = false;
            }
        }
        top
    }
    best(scores, members, floor, 0, &mut vec![false; members.len()])
}

/// Scores for `k ≤ 7` clients from a flat 7 × 7 sample.
fn score_matrix(k: usize, flat: &[f64]) -> Vec<Vec<f64>> {
    (0..k).map(|i| (0..k).map(|j| flat[i * 7 + j]).collect()).collect()
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
        let scores = score_matrix(k, &flat);
        let active = &mask[..k];
        let plan = MigrationPlan::greedy_assignment_masked(&scores, active);
        prop_assert!(is_permutation(&plan));
        let members: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        for (i, _) in active.iter().enumerate().filter(|(_, &on)| !on) {
            prop_assert_eq!(plan.dest(i), i);
        }
        let total: f64 = members.iter().map(|&i| scores[i][plan.dest(i)]).sum();
        let optimum = brute_force_optimum(&scores, &members, None);
        prop_assert!(2.0 * total >= optimum - 1e-9, "greedy {total} vs optimum {optimum}");
    }

    /// The shared greedy commit with a floor, as the fleet planner runs it
    /// (every ordered pair of distinct active clients scored). The result
    /// is a permutation that keeps inactive clients in place. A move at or
    /// below the floor is never committed, only forced to close the
    /// permutation: its source was displaced by an above-floor move and its
    /// host vacated by one. The above-floor moves reach at least half the
    /// best matching over above-floor pairs (the floor is non-negative, so
    /// the classic greedy-matching bound applies), found by enumerating
    /// every matching.
    #[test]
    fn floored_commit_is_half_optimal_against_brute_force(
        k in 1usize..8,
        mask in prop::collection::vec(any::<bool>(), 7),
        flat in prop::collection::vec(-5.0f64..10.0, 49),
        floor in 0.0f64..3.0,
    ) {
        let scores = score_matrix(k, &flat);
        let active = &mask[..k];
        let members: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        let scored: Vec<(f64, u32, u32)> = members
            .iter()
            .flat_map(|&i| members.iter().filter(move |&&j| j != i).map(move |&j| (i, j)))
            .map(|(i, j)| (scores[i][j], i as u32, j as u32))
            .collect();
        let dest = greedy_commit(k, scored, Some(floor));
        let mut sorted = dest.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..k).collect::<Vec<_>>());
        for (i, _) in active.iter().enumerate().filter(|(_, &on)| !on) {
            prop_assert_eq!(dest[i], i);
        }
        let above = |i: usize| dest[i] != i && scores[i][dest[i]] > floor;
        for i in (0..k).filter(|&i| dest[i] != i && !above(i)) {
            let displaced = (0..k).any(|s| dest[s] == i && above(s));
            prop_assert!(displaced && above(dest[i]), "move {i}->{} was not forced", dest[i]);
        }
        let total: f64 = (0..k).filter(|&i| above(i)).map(|i| scores[i][dest[i]]).sum();
        let optimum = brute_force_optimum(&scores, &members, Some(floor));
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

//! Property-based tests of the fault-injection subsystem: schedule
//! determinism, liveness-masked migration planning, and retry/backoff
//! accounting.

use fedmigr::core::MigrationPlan;
use fedmigr::net::{retry_backoff, FaultConfig, FaultModel, SimClock, Topology, TopologyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// An identical `(seed, config)` pair yields a bit-identical fault
    /// schedule: every query is a pure function of its arguments.
    #[test]
    fn schedules_are_bit_identical(
        dropout in 0.0f64..0.6,
        seed in 0u64..1000,
        k in 2usize..12,
    ) {
        let a = FaultModel::new(FaultConfig::edge_churn(dropout, seed), k);
        let b = FaultModel::new(FaultConfig::edge_churn(dropout, seed), k);
        for epoch in 0..40 {
            for i in 0..k {
                prop_assert_eq!(a.is_alive(i, epoch), b.is_alive(i, epoch));
                prop_assert_eq!(a.slowdown(i, epoch).to_bits(), b.slowdown(i, epoch).to_bits());
                prop_assert_eq!(a.c2s_up(i, epoch), b.c2s_up(i, epoch));
                for j in 0..k {
                    prop_assert_eq!(a.link_up(i, j, epoch), b.link_up(i, j, epoch));
                    prop_assert_eq!(
                        a.link_quality(i, j, epoch).to_bits(),
                        b.link_quality(i, j, epoch).to_bits()
                    );
                }
            }
        }
    }

    /// Query order cannot matter: reading the schedule backwards produces
    /// the same values as reading it forwards (no hidden mutable state).
    #[test]
    fn schedule_is_order_independent(seed in 0u64..1000) {
        let f = FaultModel::new(FaultConfig::edge_churn(0.3, seed), 6);
        let forwards: Vec<bool> =
            (0..60).flat_map(|e| (0..6).map(move |i| (e, i))).map(|(e, i)| f.is_alive(i, e)).collect();
        let backwards: Vec<bool> = (0..60)
            .rev()
            .flat_map(|e| (0..6).rev().map(move |i| (e, i)))
            .map(|(e, i)| f.is_alive(i, e))
            .collect();
        let backwards_reordered: Vec<bool> =
            backwards.into_iter().rev().collect();
        prop_assert_eq!(forwards, backwards_reordered);
    }

    /// Every masked planner produces plans whose moves stay entirely inside
    /// the live set — dead clients neither send nor receive models.
    #[test]
    fn masked_plans_only_target_live_clients(
        mask in prop::collection::vec(any::<bool>(), 4..14),
        seed in 0u64..500,
    ) {
        let k = mask.len();
        let half = k / 2;
        let topo = Topology::new(&TopologyConfig::default_edge(vec![half, k - half], seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let scores: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..k).map(|j| ((i * 31 + j * 17) % 23) as f64).collect())
            .collect();
        let plans = [
            MigrationPlan::random_subset(k, &mask, &mut rng),
            MigrationPlan::within_lan_masked(&topo, &mask, &mut rng),
            MigrationPlan::cross_lan_masked(&topo, &mask, &mut rng),
            MigrationPlan::greedy_assignment_masked(&scores, &mask),
        ];
        for plan in &plans {
            for (i, j) in plan.moves() {
                prop_assert!(mask[i], "model of dead client {i} moved");
                prop_assert!(mask[j], "model delivered to dead client {j}");
            }
            for (i, &live) in mask.iter().enumerate() {
                if !live {
                    prop_assert_eq!(plan.dest(i), i);
                }
            }
        }
    }

    /// The total backoff a retry sequence charges to the clock is monotone
    /// non-decreasing in the number of retries.
    #[test]
    fn backoff_time_is_monotone_in_retry_count(retries in 0u32..10) {
        let total = |n: u32| -> f64 { (1..=n).map(retry_backoff).sum() };
        prop_assert!(total(retries + 1) >= total(retries));
        // And the same holds once charged into the simulation clock.
        let mut shorter = SimClock::new();
        let mut longer = SimClock::new();
        shorter.advance(total(retries));
        longer.advance(total(retries + 1));
        prop_assert!(longer.now() >= shorter.now());
    }
}

/// `FaultModel::none` must never flag a fault, whatever is asked of it.
#[test]
fn disabled_model_is_transparent_everywhere() {
    let f = FaultModel::none(8);
    for epoch in 0..100 {
        for i in 0..8 {
            assert!(f.is_alive(i, epoch));
            assert_eq!(f.slowdown(i, epoch), 1.0);
            assert!(f.c2s_up(i, epoch));
            for j in 0..8 {
                assert!(f.link_up(i, j, epoch));
                assert_eq!(f.link_quality(i, j, epoch), 1.0);
            }
        }
    }
}

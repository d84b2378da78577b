//! Property-based tests of the paper's theoretical claims and the core
//! numeric invariants they rest on.

use fedmigr::data::distribution::{l1_distance, virtual_distribution};
use fedmigr::nn::params::weighted_average;
use proptest::prelude::*;

/// Projects `v` onto the probability simplex in place
/// (Duchi et al. 2008: sort, find the threshold, clip).
fn project_simplex(v: &mut [f64]) {
    assert!(!v.is_empty(), "cannot project an empty vector");
    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    for (i, &u) in sorted.iter().enumerate() {
        cumsum += u;
        let candidate = (cumsum - 1.0) / (i + 1) as f64;
        if u - candidate > 0.0 {
            theta = candidate;
        }
    }
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

#[test]
fn simplex_projection_of_point_on_simplex_is_identity() {
    let mut v = vec![0.2, 0.3, 0.5];
    project_simplex(&mut v);
    assert!((v[0] - 0.2).abs() < 1e-9);
    assert!((v[1] - 0.3).abs() < 1e-9);
    assert!((v[2] - 0.5).abs() < 1e-9);
}

#[test]
fn simplex_projection_sums_to_one_and_is_nonnegative() {
    let cases = vec![vec![10.0, -5.0, 3.0], vec![-1.0, -2.0, -3.0], vec![0.0; 5], vec![100.0]];
    for mut v in cases {
        project_simplex(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{v:?}");
        assert!(v.iter().all(|&x| x >= 0.0), "{v:?}");
    }
}

#[test]
fn simplex_projection_prefers_larger_coordinates() {
    let mut v = vec![3.0, 1.0, 0.0];
    project_simplex(&mut v);
    assert!(v[0] > v[1] && v[1] >= v[2]);
    assert!((v[0] - 1.0).abs() < 1e-9, "far-dominant coordinate takes all mass");
}

fn counts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..50, 2..8)
}

proptest! {
    /// Eq. (15): for any local class counts, M >= 1 migrations strictly
    /// shrink (or preserve, when already aligned) the L1 distance between
    /// the virtual distribution and the population distribution.
    #[test]
    fn virtual_distribution_contracts(local in counts(), m in 1usize..20, k in 2usize..30) {
        // Population: make every class present so q is well defined, and
        // ensure the local set is a subset of the population.
        let pop: Vec<usize> = local.iter().map(|&c| c + 10).collect();
        prop_assume!(local.iter().sum::<usize>() > 0);
        let n: f64 = pop.iter().sum::<usize>() as f64;
        let q: Vec<f64> = pop.iter().map(|&c| c as f64 / n).collect();
        let n_k: f64 = local.iter().sum::<usize>() as f64;
        let q_k: Vec<f64> = local.iter().map(|&c| c as f64 / n_k).collect();

        let q_virtual = virtual_distribution(&local, &pop, m, k);
        let before = l1_distance(&q_k, &q);
        let after = l1_distance(&q_virtual, &q);
        prop_assert!(after <= before + 1e-12, "{after} > {before}");
        // Strict when the client is actually skewed.
        if before > 1e-9 {
            prop_assert!(after < before);
        }
    }

    /// The virtual distribution is always a probability distribution.
    #[test]
    fn virtual_distribution_is_normalized(local in counts(), m in 0usize..20, k in 1usize..30) {
        let pop: Vec<usize> = local.iter().map(|&c| c + 1).collect();
        prop_assume!(local.iter().sum::<usize>() > 0);
        let q = virtual_distribution(&local, &pop, m, k);
        let sum: f64 = q.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(q.iter().all(|&x| x >= 0.0));
    }

    /// FedAvg aggregation (Eq. 7) is a convex combination: every coordinate
    /// of the average lies within the per-coordinate min/max of the inputs.
    #[test]
    fn aggregation_is_a_convex_combination(
        a in prop::collection::vec(-10.0f32..10.0, 4),
        b in prop::collection::vec(-10.0f32..10.0, 4),
        wa in 1.0f64..100.0,
        wb in 1.0f64..100.0,
    ) {
        let avg = weighted_average(&[(&a, wa), (&b, wb)]);
        for i in 0..4 {
            let lo = a[i].min(b[i]) - 1e-4;
            let hi = a[i].max(b[i]) + 1e-4;
            prop_assert!(avg[i] >= lo && avg[i] <= hi);
        }
    }

    /// Aggregating identical models is the identity regardless of weights.
    #[test]
    fn aggregation_identity(
        a in prop::collection::vec(-10.0f32..10.0, 8),
        weights in prop::collection::vec(1.0f64..100.0, 3),
    ) {
        let entries: Vec<(&[f32], f64)> = weights.iter().map(|&w| (a.as_slice(), w)).collect();
        let avg = weighted_average(&entries);
        for (x, y) in avg.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Simplex projection always lands on the simplex and is idempotent.
    #[test]
    fn simplex_projection_properties(v in prop::collection::vec(-100.0f64..100.0, 1..12)) {
        let mut p = v.clone();
        project_simplex(&mut p);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(p.iter().all(|&x| x >= 0.0));
        let mut q = p.clone();
        project_simplex(&mut q);
        for (x, y) in p.iter().zip(&q) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        // Order preservation: larger inputs never get smaller outputs than
        // smaller inputs.
        for i in 0..v.len() {
            for j in 0..v.len() {
                if v[i] > v[j] {
                    prop_assert!(p[i] >= p[j] - 1e-9);
                }
            }
        }
    }

    /// L1 distance between distributions is a metric bounded by 2.
    #[test]
    fn l1_distance_is_bounded_metric(
        a in prop::collection::vec(0.0f64..1.0, 5),
        b in prop::collection::vec(0.0f64..1.0, 5),
    ) {
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum::<f64>().max(1e-9);
            v.iter().map(|x| x / s).collect()
        };
        let (a, b) = (norm(&a), norm(&b));
        let d = l1_distance(&a, &b);
        prop_assert!((0.0..=2.0 + 1e-9).contains(&d));
        prop_assert!((l1_distance(&a, &a)).abs() < 1e-12);
        prop_assert!((d - l1_distance(&b, &a)).abs() < 1e-12);
    }
}

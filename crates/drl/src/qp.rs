//! The ρ-greedy exploration oracle: the relaxed FLMM problem.
//!
//! Sec. III-D relaxes the boolean migration variables `p_{i,j} ∈ {0,1}` to
//! `[0, 1]` and solves the resulting program with a convex solver (CVX in
//! the paper). Here the relaxation is solved by entropic mirror descent
//! over row-stochastic matrices: each row of `P` lives on the probability
//! simplex (every model has exactly one destination in expectation), the
//! objective rewards migrating towards clients with *different* data
//! distributions and penalizes link cost, and an entropy term keeps the
//! iterate interior (the relaxed optimum of the linear part alone is a
//! vertex). The solver is deterministic and allocation-light; its wall-time
//! as a function of client count is exactly what Fig. 6 compares against
//! DRL inference.

/// Relaxed-FLMM instance for one migration round.
#[derive(Clone, Debug)]
pub struct FlmmRelaxation {
    /// `benefit[i][j]`: gain from migrating client `i`'s model to `j` —
    /// the distribution difference `d_{i,j}` in the paper's state.
    pub benefit: Vec<Vec<f64>>,
    /// `cost[i][j]`: normalized communication cost of the `i -> j` link.
    pub cost: Vec<Vec<f64>>,
    /// Cost weight λ trading accuracy gain against bandwidth.
    pub lambda: f64,
    /// Entropy weight μ > 0 keeping the relaxed solution interior.
    pub entropy: f64,
}

impl FlmmRelaxation {
    /// Solves the relaxation by `iters` steps of entropic mirror descent
    /// (exponentiated gradient) with step size `step`, returning a
    /// row-stochastic migration matrix.
    ///
    /// Each row update is `p_j ← p_j^(1-ημ) · exp(η(b_j - λc_j)) / Z`,
    /// whose fixed point is the entropy-smoothed optimum
    /// `p ∝ exp((b - λc)/μ)`; with `μ = 0` the iterate converges to the
    /// vertex (hard argmax) solution of the relaxed linear program. The
    /// simplex geometry keeps every iterate feasible, so no projection step
    /// is needed; [`project_simplex`] is still provided for callers that
    /// post-process externally produced migration matrices.
    pub fn solve(&self, iters: usize, step: f64) -> Vec<Vec<f64>> {
        let k = self.benefit.len();
        assert!(k > 0, "empty instance");
        assert!(self.entropy >= 0.0 && step > 0.0);
        assert!(
            self.entropy * step < 1.0,
            "step * entropy must be < 1 for mirror descent stability"
        );
        let mut p = vec![vec![1.0 / k as f64; k]; k];
        let decay = 1.0 - step * self.entropy;
        for _ in 0..iters {
            for (i, row) in p.iter_mut().enumerate() {
                let mut max_log = f64::NEG_INFINITY;
                let mut logs = vec![0.0f64; k];
                for j in 0..k {
                    let lin = self.benefit[i][j] - self.lambda * self.cost[i][j];
                    logs[j] = decay * row[j].max(1e-300).ln() + step * lin;
                    max_log = max_log.max(logs[j]);
                }
                let mut z = 0.0;
                for j in 0..k {
                    row[j] = (logs[j] - max_log).exp();
                    z += row[j];
                }
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
        p
    }

    /// Rounds a relaxed solution to a hard destination per source: the
    /// per-row argmax (the integer recovery step after the QP solve).
    pub fn round(p: &[Vec<f64>]) -> Vec<usize> {
        p.iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .expect("empty row")
            })
            .collect()
    }
}

/// Projects `v` onto the probability simplex in place
/// (Duchi et al. 2008: sort, find the threshold, clip).
pub fn project_simplex(v: &mut [f64]) {
    let n = v.len();
    assert!(n > 0, "cannot project an empty vector");
    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut theta = 0.0;
    for (i, &u) in sorted.iter().enumerate() {
        cumsum += u;
        let candidate = (cumsum - 1.0) / (i + 1) as f64;
        if u - candidate > 0.0 {
            rho = i;
            theta = candidate;
        }
    }
    let _ = rho;
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlmmRelaxation {
        /// Objective value `Σ_ij P_ij (benefit - λ·cost) + μ H(P)` for a
        /// row-stochastic `p`: what the solver is checked to improve.
        fn objective(&self, p: &[Vec<f64>]) -> f64 {
            let mut total = 0.0;
            for (i, row) in p.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    total += v * (self.benefit[i][j] - self.lambda * self.cost[i][j]);
                    if v > 0.0 {
                        total -= self.entropy * v * v.ln();
                    }
                }
            }
            total
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

    fn small_instance() -> FlmmRelaxation {
        // 3 clients: 0 and 1 have very different data (benefit 2.0), 2 is
        // similar to both; all links cheap except 0 -> 1 reverse direction.
        FlmmRelaxation {
            benefit: vec![vec![0.0, 2.0, 0.5], vec![2.0, 0.0, 0.5], vec![0.5, 0.5, 0.0]],
            cost: vec![vec![0.0, 0.1, 0.1], vec![0.1, 0.0, 0.1], vec![0.1, 0.1, 0.0]],
            lambda: 1.0,
            entropy: 0.05,
        }
    }

    #[test]
    fn solver_finds_high_benefit_destinations() {
        let inst = small_instance();
        let p = inst.solve(200, 0.5);
        let dest = FlmmRelaxation::round(&p);
        assert_eq!(dest[0], 1, "client 0 should migrate to the dissimilar client 1");
        assert_eq!(dest[1], 0);
        for row in &p {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn objective_improves_over_uniform_start() {
        let inst = small_instance();
        let k = 3;
        let uniform = vec![vec![1.0 / k as f64; k]; k];
        let solved = inst.solve(200, 0.5);
        assert!(inst.objective(&solved) > inst.objective(&uniform));
    }

    #[test]
    fn high_cost_links_are_avoided() {
        let mut inst = small_instance();
        // Make 0 -> 1 ruinously expensive; 0 should fall back to client 2.
        inst.cost[0][1] = 10.0;
        let dest = FlmmRelaxation::round(&inst.solve(200, 0.5));
        assert_eq!(dest[0], 2);
    }

    #[test]
    fn entropy_keeps_solution_interior() {
        let mut inst = small_instance();
        inst.entropy = 5.0; // Strong smoothing -> nearly uniform rows.
        let p = inst.solve(300, 0.1);
        for row in &p {
            for &v in row {
                assert!(v > 0.05, "entropy should keep all entries positive: {row:?}");
            }
        }
    }
}

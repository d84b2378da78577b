//! The relaxed FLMM problem and its solver.
//!
//! Sec. III-D relaxes the boolean migration variables `p_{i,j} ∈ {0,1}` to
//! `[0, 1]` and solves the resulting program with a convex solver (CVX in
//! the paper). Here the relaxation is solved by entropic mirror descent
//! over row-stochastic matrices: each row of `P` lives on the probability
//! simplex (every model has exactly one destination in expectation), the
//! objective rewards migrating towards clients with *different* data
//! distributions and penalizes link cost, and an entropy term keeps the
//! iterate interior (the relaxed optimum of the linear part alone is a
//! vertex). The program separates by row and the rounded solve is the
//! per-row argmax of `benefit − λ·cost`, so the FedMigr planners read that
//! objective directly (DESIGN.md §5); the solver is what Fig. 6's S-COP
//! column and fedbench's `drl.oracle_k30_ms` probe time.

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
    /// is needed.
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
        // Every row writes all `k` entries before reading any.
        let mut logs = vec![0.0f64; k];
        for _ in 0..iters {
            for (i, row) in p.iter_mut().enumerate() {
                let mut max_log = f64::NEG_INFINITY;
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

    /// The relaxation is separable by row, and from the uniform start every
    /// mirror-descent step keeps `ln p_j` an increasing affine function of
    /// `benefit_j - λ·cost_j`. So the runner's solve rounds to the per-row
    /// argmax of that objective whenever the row's top two entries differ
    /// by more than rounding can blur (here, more than 1e-9).
    #[test]
    fn rounded_solve_is_the_per_row_argmax_of_the_objective() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut checked = 0;
        while checked < 200 {
            let k = rng.random_range(2..13);
            let mut draw = || -> Vec<Vec<f64>> {
                (0..k).map(|_| (0..k).map(|_| rng.random::<f64>()).collect()).collect()
            };
            let (benefit, cost) = (draw(), draw());
            let lambda = rng.random::<f64>() * 0.5;
            let lin = |i: usize, j: usize| benefit[i][j] - lambda * cost[i][j];
            let separated = (0..k).all(|i| {
                let mut row: Vec<f64> = (0..k).map(|j| lin(i, j)).collect();
                row.sort_by(|a, b| b.total_cmp(a));
                row[0] - row[1] > 1e-9
            });
            if !separated {
                continue;
            }
            let argmax: Vec<usize> = (0..k)
                .map(|i| (0..k).fold(0, |best, j| if lin(i, j) > lin(i, best) { j } else { best }))
                .collect();
            let inst = FlmmRelaxation { benefit, cost, lambda, entropy: 0.05 };
            assert_eq!(FlmmRelaxation::round(&inst.solve(40, 0.4)), argmax, "k = {k}");
            checked += 1;
        }
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

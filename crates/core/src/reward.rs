//! The DRL reward of Sec. III-C.
//!
//! Per-epoch reward (Eq. 17):
//! `r_t = -Υ^(ΔF_t / F_{t-1}) - c^t/B_c - b^t/B_b`
//! — exponentially better when the loss drops, linearly worse with resource
//! use. Terminal reward (Eq. 18) adds `+C` when training converged within
//! budget and `-C` when the budget ran out first.

/// Terminal bonus/penalty magnitude C (Eq. 18).
const TERMINAL_BONUS: f64 = 5.0;

/// Per-epoch reward `r_t` (Eq. 17).
///
/// * `upsilon` — the base Υ > 1 of the exponential loss-trend term,
/// * `delta_loss` — `F_t - F_{t-1}` (negative when training improves),
/// * `prev_loss` — `F_{t-1}` (guarded against zero),
/// * `compute_frac` — `c^t / B_c`, this epoch's compute over the budget
///   (pass 0 for unlimited budgets),
/// * `bandwidth_frac` — `b^t / B_b` likewise.
pub fn step_reward(
    upsilon: f64,
    delta_loss: f64,
    prev_loss: f64,
    compute_frac: f64,
    bandwidth_frac: f64,
) -> f64 {
    assert!(upsilon > 1.0, "upsilon must exceed 1");
    let trend = (delta_loss / prev_loss.max(1e-6)).clamp(-5.0, 5.0);
    -upsilon.powf(trend) - compute_frac - bandwidth_frac
}

/// Terminal reward `r_T` (Eq. 18): the last step reward plus `+C` on
/// success (budget respected) or `-C` on budget exhaustion.
pub fn terminal_reward(last_step_reward: f64, within_budget: bool) -> f64 {
    if within_budget {
        last_step_reward + TERMINAL_BONUS
    } else {
        last_step_reward - TERMINAL_BONUS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The evaluation's Υ (`FedMigrConfig::new`).
    const UPSILON: f64 = 4.0;

    #[test]
    fn improving_loss_earns_more_than_worsening() {
        let better = step_reward(UPSILON, -0.5, 1.0, 0.0, 0.0);
        let flat = step_reward(UPSILON, 0.0, 1.0, 0.0, 0.0);
        let worse = step_reward(UPSILON, 0.5, 1.0, 0.0, 0.0);
        assert!(better > flat && flat > worse);
        // Flat loss costs exactly -Υ^0 = -1.
        assert!((flat + 1.0).abs() < 1e-12);
    }

    #[test]
    fn resource_usage_reduces_reward() {
        let cheap = step_reward(UPSILON, -0.1, 1.0, 0.0, 0.0);
        let pricey = step_reward(UPSILON, -0.1, 1.0, 0.02, 0.05);
        assert!((cheap - pricey - 0.07).abs() < 1e-12);
    }

    #[test]
    fn terminal_bonus_and_penalty() {
        assert_eq!(terminal_reward(-1.0, true), 4.0);
        assert_eq!(terminal_reward(-1.0, false), -6.0);
    }

    #[test]
    fn trend_is_clamped_against_blowup() {
        let r = step_reward(UPSILON, 1e9, 1e-9, 0.0, 0.0);
        assert!(r.is_finite());
        assert!((r + UPSILON.powf(5.0)).abs() < 1e-6);
    }
}

//! Error-feedback residuals (EF-SGD / 1-bit-SGD memory).
//!
//! A lossy codec throws information away on every transfer. Error feedback
//! keeps the discarded part — `residual = sent_intent − decoded` — and adds
//! it back to the *next* vector sent over the same lane, so the error does
//! not compound across rounds: over time the receiver integrates everything
//! the sender meant to transmit. One lane per logical stream — each
//! client's egress, each server-to-client unicast, and the shared
//! broadcast — keeps the residual local (residuals never travel).

use std::io;

use fedmigr_telemetry::wire::{Codec, Wire};

/// Per-lane residual state for error-feedback compression.
#[derive(Clone, Debug, Default)]
pub struct ErrorFeedback {
    residuals: Vec<Vec<f32>>,
}

impl ErrorFeedback {
    /// Creates `lanes` empty residuals (they size themselves lazily to the
    /// first vector seen on each lane).
    pub fn new(lanes: usize) -> Self {
        Self { residuals: vec![Vec::new(); lanes] }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.residuals.len()
    }

    /// The lane's residual (empty until the lane is first updated).
    pub(crate) fn lane(&self, lane: usize) -> &[f32] {
        &self.residuals[lane]
    }

    /// The lane's residual, to [`update`].
    pub(crate) fn lane_mut(&mut self, lane: usize) -> &mut Vec<f32> {
        &mut self.residuals[lane]
    }

    /// The residuals of `lanes`, in their order, each borrowed mutably —
    /// so that transfers on distinct lanes can update them in parallel.
    /// `None` when a lane repeats.
    pub(crate) fn distinct_lanes_mut(&mut self, lanes: &[usize]) -> Option<Vec<&mut Vec<f32>>> {
        let mut slots: Vec<Option<&mut Vec<f32>>> = self.residuals.iter_mut().map(Some).collect();
        lanes.iter().map(|&lane| slots[lane].take()).collect()
    }
}

/// The transmit intent of `values` on a lane holding `residual`:
/// `values + residual`, written into `buf`. An empty (never-updated) or
/// stale-length residual leaves the values as they are.
pub(crate) fn compensate<'a>(
    values: &'a [f32],
    residual: &[f32],
    buf: &'a mut Vec<f32>,
) -> &'a [f32] {
    if residual.len() != values.len() {
        return values;
    }
    buf.clear();
    buf.extend(values.iter().zip(residual).map(|(&v, &e)| v + e));
    buf
}

/// Overwrites a lane's `residual` with `intent − decoded` after a completed
/// transmission and returns its squared L2 norm. Non-finite entries (a
/// NaN'd intent, e.g. from Byzantine corruption upstream) are sanitized to
/// zero so one poisoned round cannot wedge the lane forever — which makes
/// the returned sum, term for term and in index order, the transfer's
/// squared error as well ([`sq_error`]).
pub(crate) fn update(residual: &mut Vec<f32>, intent: &[f32], decoded: &[f32]) -> f64 {
    debug_assert_eq!(intent.len(), decoded.len());
    residual.resize(intent.len(), 0.0);
    residual
        .iter_mut()
        .zip(intent.iter().zip(decoded))
        .map(|(r, (&a, &b))| {
            *r = finite_or_zero(a - b);
            (*r as f64) * (*r as f64)
        })
        .sum()
}

/// What a snapshot taken under another lane structure is refused with.
pub(crate) const LANES_MISMATCH: &str = "codec residual lanes mismatch";

/// The lanes in order, each `u64 n ‖ f32 LE…` (empty until first used). How
/// many there are is configuration: another count is a mismatch.
impl Wire for ErrorFeedback {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        c.in_place(&mut self.residuals, LANES_MISMATCH)
    }
}

fn finite_or_zero(e: f32) -> f32 {
    if e.is_finite() {
        e
    } else {
        0.0
    }
}

/// Σ(intent − decoded)² over the finite terms, in index order — what a
/// transfer adds to `CompressionStats::sum_sq_error`.
pub(crate) fn sq_error(intent: &[f32], decoded: &[f32]) -> f64 {
    intent
        .iter()
        .zip(decoded)
        .map(|(&a, &b)| {
            let e = finite_or_zero(a - b) as f64;
            e * e
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ErrorFeedback {
        /// L2 norm of a lane's residual (0 for an empty lane).
        fn residual_norm(&self, lane: usize) -> f64 {
            self.residuals[lane].iter().map(|&e| (e as f64) * (e as f64)).sum::<f64>().sqrt()
        }

        fn update(&mut self, lane: usize, intent: &[f32], decoded: &[f32]) -> f64 {
            update(self.lane_mut(lane), intent, decoded)
        }
    }

    fn compensated(ef: &ErrorFeedback, lane: usize, values: &[f32]) -> Vec<f32> {
        compensate(values, ef.lane(lane), &mut Vec::new()).to_vec()
    }

    #[test]
    fn empty_residual_is_a_no_op() {
        let ef = ErrorFeedback::new(2);
        assert_eq!(compensated(&ef, 0, &[1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(ef.residual_norm(0), 0.0);
    }

    #[test]
    fn residual_carries_the_lost_part_forward() {
        let mut ef = ErrorFeedback::new(1);
        // Transfer 1: intent [1.0, -1.0], receiver got [0.75, -0.75].
        ef.update(0, &[1.0, -1.0], &[0.75, -0.75]);
        assert!((ef.residual_norm(0) - (2.0f64 * 0.25 * 0.25).sqrt()).abs() < 1e-12);
        // Transfer 2 re-injects the loss.
        assert_eq!(compensated(&ef, 0, &[2.0, 2.0]), vec![2.25, 1.75]);
    }

    #[test]
    fn lanes_are_independent() {
        let mut ef = ErrorFeedback::new(2);
        ef.update(0, &[1.0], &[0.0]);
        assert_eq!(compensated(&ef, 1, &[5.0]), vec![5.0]);
        assert_eq!(compensated(&ef, 0, &[5.0]), vec![6.0]);
    }

    #[test]
    fn non_finite_errors_are_sanitized() {
        let mut ef = ErrorFeedback::new(1);
        ef.update(0, &[f32::NAN, 1.0], &[0.0, 0.5]);
        assert_eq!(compensated(&ef, 0, &[1.0, 1.0]), vec![1.0, 1.5]);
        assert!(ef.residual_norm(0).is_finite());
    }

    #[test]
    fn length_change_resets_the_lane() {
        let mut ef = ErrorFeedback::new(1);
        ef.update(0, &[1.0, 1.0], &[0.5, 0.5]);
        // A different-length vector ignores the stale residual.
        assert_eq!(compensated(&ef, 0, &[3.0]), vec![3.0]);
        // ...and the next update replaces it whole.
        ef.update(0, &[3.0], &[1.0]);
        assert_eq!(ef.residuals[0], vec![2.0]);
    }

    #[test]
    fn distinct_lanes_are_lent_in_their_order_and_repeats_are_refused() {
        let mut ef = ErrorFeedback::new(3);
        for (lane, r) in [2, 0].into_iter().zip(ef.distinct_lanes_mut(&[2, 0]).unwrap()) {
            r.push(lane as f32);
        }
        assert_eq!((ef.lane(0), ef.lane(1), ef.lane(2)), (&[0.0][..], &[][..], &[2.0][..]));
        assert!(ef.distinct_lanes_mut(&[1, 2, 1]).is_none());
    }

    #[test]
    fn update_returns_the_norm_and_the_squared_error_in_one_sum() {
        let intent = [1.0f32, f32::NAN, -0.3, f32::INFINITY, 1e-3, 7.25];
        let decoded = [0.9f32, 0.0, -0.1, 1.0, 0.0, f32::NAN];
        let mut ef = ErrorFeedback::new(1);
        let sq = ef.update(0, &intent, &decoded);
        assert_eq!(sq.sqrt().to_bits(), ef.residual_norm(0).to_bits());
        assert_eq!(sq.to_bits(), sq_error(&intent, &decoded).to_bits());
    }
}

//! Client-drift diagnostics.
//!
//! After local training, client `i`'s parameters sit at `w_i` while the
//! last aggregate sits at `w_global`. The drift picture is three numbers
//! per client plus fleet summaries:
//!
//! * `dist_i = ‖w_i − w_global‖₂` — raw parameter distance;
//! * `cos_i = cos(u_i, ū)` where `u_i = w_i − w_global` and `ū` is the
//!   sample-weighted mean update — how aligned each client's direction is
//!   with what aggregation is about to apply;
//! * `div_i = ‖u_i − ū‖₂` — the gradient-divergence term whose spread is
//!   the usual non-IID badness measure in the FL literature.
//!
//! Everything is computed in `f64` accumulation over `f32` parameters and
//! reads the parameter vectors only — no RNG, no clock.

/// Fleet drift picture for one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftSnapshot {
    /// `‖w_i − w_global‖₂` per client.
    pub dist: Vec<f64>,
    /// Cosine of each client's update against the weighted mean update
    /// (0 when either vector is numerically zero).
    pub cosine: Vec<f64>,
    /// `‖u_i − ū‖₂` per client.
    pub divergence: Vec<f64>,
    /// Mean of `dist`.
    pub mean_dist: f64,
    /// Max of `dist`.
    pub max_dist: f64,
    /// Mean of `cosine`.
    pub mean_cosine: f64,
    /// Mean of `divergence` — the cross-client gradient-divergence spread.
    pub mean_divergence: f64,
}
fedmigr_telemetry::record_fields!(DriftSnapshot: mean_dist, max_dist, mean_cosine, mean_divergence,
    dist, cosine, divergence);

impl DriftSnapshot {
    /// Measures drift of `params[i]` against `global`, weighting the mean
    /// update by `weights[i]` (client sample counts). All parameter vectors
    /// must share `global`'s length.
    pub fn measure(params: &[Vec<f32>], global: &[f32], weights: &[f64]) -> Self {
        assert_eq!(params.len(), weights.len(), "one weight per client");
        if params.is_empty() || global.is_empty() {
            return Self::default();
        }
        let total_w: f64 = weights.iter().sum();
        // Weighted mean update ū = Σ n_i (w_i − w_global) / Σ n_i.
        let mut mean_update = vec![0.0f64; global.len()];
        for (p, &w) in params.iter().zip(weights) {
            assert_eq!(p.len(), global.len(), "parameter vectors must share shape");
            let scale = if total_w > 0.0 { w / total_w } else { 1.0 / params.len() as f64 };
            for (m, (&pi, &gi)) in mean_update.iter_mut().zip(p.iter().zip(global)) {
                *m += scale * (pi as f64 - gi as f64);
            }
        }
        let mean_norm = l2(&mean_update);

        let mut dist = Vec::with_capacity(params.len());
        let mut cosine = Vec::with_capacity(params.len());
        let mut divergence = Vec::with_capacity(params.len());
        for p in params {
            let mut d2 = 0.0f64;
            let mut dot = 0.0f64;
            let mut div2 = 0.0f64;
            for ((&pi, &gi), &m) in p.iter().zip(global).zip(&mean_update) {
                let u = pi as f64 - gi as f64;
                d2 += u * u;
                dot += u * m;
                let e = u - m;
                div2 += e * e;
            }
            let d = d2.sqrt();
            dist.push(d);
            cosine.push(if d > 0.0 && mean_norm > 0.0 { dot / (d * mean_norm) } else { 0.0 });
            divergence.push(div2.sqrt());
        }
        let n = dist.len() as f64;
        DriftSnapshot {
            mean_dist: dist.iter().sum::<f64>() / n,
            max_dist: dist.iter().fold(0.0, |a: f64, &b| a.max(b)),
            mean_cosine: cosine.iter().sum::<f64>() / n,
            mean_divergence: divergence.iter().sum::<f64>() / n,
            dist,
            cosine,
            divergence,
        }
    }
}

fn l2(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_params_have_zero_drift() {
        let g = vec![1.0f32, -2.0, 3.0];
        let s = DriftSnapshot::measure(&[g.clone(), g.clone()], &g, &[1.0, 1.0]);
        assert_eq!(s.mean_dist, 0.0);
        assert_eq!(s.max_dist, 0.0);
        assert_eq!(s.mean_divergence, 0.0);
        assert_eq!(s.cosine, vec![0.0, 0.0], "zero updates have undefined => 0 cosine");
    }

    #[test]
    fn opposing_updates_have_opposite_cosines() {
        let g = vec![0.0f32, 0.0];
        // Client 0 moves +x, client 1 moves -x but only half as far, so the
        // weighted mean points +x; cosines must be +1 and -1.
        let p0 = vec![2.0f32, 0.0];
        let p1 = vec![-1.0f32, 0.0];
        let s = DriftSnapshot::measure(&[p0, p1], &g, &[1.0, 1.0]);
        assert!((s.cosine[0] - 1.0).abs() < 1e-9, "cosine {:?}", s.cosine);
        assert!((s.cosine[1] + 1.0).abs() < 1e-9, "cosine {:?}", s.cosine);
        assert!((s.dist[0] - 2.0).abs() < 1e-9);
        assert!((s.dist[1] - 1.0).abs() < 1e-9);
        // ū = (2 - 1)/2 = 0.5 in x; divergences are 1.5 each.
        assert!((s.mean_divergence - 1.5).abs() < 1e-9, "divergence {:?}", s.divergence);
    }

    #[test]
    fn weights_shift_the_mean_direction() {
        let g = vec![0.0f32];
        let s = DriftSnapshot::measure(&[vec![1.0f32], vec![-1.0f32]], &g, &[3.0, 1.0]);
        // ū = (3·1 + 1·(−1))/4 = 0.5: aligned with the heavy client.
        assert!((s.cosine[0] - 1.0).abs() < 1e-9);
        assert!((s.cosine[1] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_safe() {
        assert_eq!(DriftSnapshot::measure(&[], &[], &[]), DriftSnapshot::default());
    }
}

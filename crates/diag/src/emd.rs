//! Effective-label-distribution tracking through the migration chain.
//!
//! The runner maintains one *mixture* vector per model slot — an EMA of the
//! label distribution the model in that slot recently trained on. Migration
//! permutes the vectors, aggregation resets them to the population; the
//! mixture is therefore the model's *virtual dataset* in the sense of the
//! paper's Sec. II-C. This module measures how far each virtual dataset
//! still is from the population using the normalized 1-D earth mover's
//! distance, which is the quantity FedMigr's migration chain is supposed to
//! contract.

use fedmigr_data::distribution::normalized_emd;

/// Fleet-wide EMD picture for one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EmdSnapshot {
    /// Normalized EMD (`[0, 1]`) from each slot's mixture to the population.
    pub per_client: Vec<f64>,
    /// Mean over all slots.
    pub mean: f64,
    /// Worst slot.
    pub max: f64,
}
fedmigr_telemetry::record_fields!(EmdSnapshot: mean, max, per_client);

impl EmdSnapshot {
    /// Measures every mixture vector against the population distribution.
    pub fn measure(mix: &[Vec<f64>], population: &[f64]) -> Self {
        let per_client: Vec<f64> = mix.iter().map(|m| normalized_emd(m, population)).collect();
        let mean = if per_client.is_empty() {
            0.0
        } else {
            per_client.iter().sum::<f64>() / per_client.len() as f64
        };
        let max = per_client.iter().fold(0.0, |a: f64, &b| a.max(b));
        EmdSnapshot { per_client, mean, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_fleet_mean_and_max() {
        let pop = vec![0.5, 0.5];
        let mix = vec![vec![0.5, 0.5], vec![1.0, 0.0]];
        let s = EmdSnapshot::measure(&mix, &pop);
        assert_eq!(s.per_client.len(), 2);
        assert!(s.per_client[0].abs() < 1e-12, "population slot has zero EMD");
        assert!((s.per_client[1] - 0.5).abs() < 1e-12, "one-hot vs uniform over 2 labels");
        assert!((s.mean - 0.25).abs() < 1e-12);
        assert!((s.max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_is_zero() {
        let s = EmdSnapshot::measure(&[], &[0.5, 0.5]);
        assert_eq!(s, EmdSnapshot::default());
    }
}

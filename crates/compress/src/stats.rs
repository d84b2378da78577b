//! Cumulative compression accounting for a run.

/// Byte and distortion totals across every model encode of a run.
///
/// Counts are per *encode* (one per transmitted model copy on client egress
/// and per distinct server payload; a broadcast of one blob to K receivers
/// is one encode), while the network meter separately counts per-hop bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompressionStats {
    /// Number of model vectors encoded.
    pub encodes: u64,
    /// What those vectors would have cost uncompressed (`8 + 4n` each).
    pub uncompressed_bytes: u64,
    /// What they actually cost on the wire.
    pub compressed_bytes: u64,
    /// Sum over encodes of Σ(original − decoded)² (finite terms only).
    pub sum_sq_error: f64,
    /// Total coordinates across all encodes (denominator for mean MSE).
    pub coords: u64,
    /// Sum of post-update error-feedback residual L2 norms.
    pub residual_norm_sum: f64,
    /// Number of encodes that updated an error-feedback residual.
    pub ef_transmits: u64,
}

fedmigr_telemetry::wire_fields!(CompressionStats:
    encodes, uncompressed_bytes, compressed_bytes, sum_sq_error, coords, residual_norm_sum,
    ef_transmits
);

impl CompressionStats {
    /// Bytes saved versus uncompressed transfers (0 when compression costs
    /// more, e.g. top-k with a high fraction on tiny models).
    pub fn saved(&self) -> u64 {
        self.uncompressed_bytes.saturating_sub(self.compressed_bytes)
    }

    /// Compression ratio `uncompressed / compressed` (1.0 when nothing was
    /// encoded).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.uncompressed_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Mean per-coordinate squared error across all encodes.
    pub fn mean_mse(&self) -> f64 {
        if self.coords == 0 {
            0.0
        } else {
            self.sum_sq_error / self.coords as f64
        }
    }

    /// Mean error-feedback residual norm per EF transmit.
    pub fn mean_residual_norm(&self) -> f64 {
        if self.ef_transmits == 0 {
            0.0
        } else {
            self.residual_norm_sum / self.ef_transmits as f64
        }
    }

    /// Whether any encoding happened.
    pub fn any(&self) -> bool {
        self.encodes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = CompressionStats::default();
        assert!(!s.any());
        assert_eq!(s.saved(), 0);
        assert_eq!(s.ratio(), 1.0);
        assert_eq!(s.mean_mse(), 0.0);
        assert_eq!(s.mean_residual_norm(), 0.0);
    }

    #[test]
    fn derived_quantities() {
        let s = CompressionStats {
            encodes: 2,
            uncompressed_bytes: 800,
            compressed_bytes: 200,
            sum_sq_error: 50.0,
            coords: 100,
            residual_norm_sum: 3.0,
            ef_transmits: 2,
        };
        assert!(s.any());
        assert_eq!(s.saved(), 600);
        assert_eq!(s.ratio(), 4.0);
        assert_eq!(s.mean_mse(), 0.5);
        assert_eq!(s.mean_residual_norm(), 1.5);
    }

    #[test]
    fn saved_saturates_when_compression_expands() {
        let s = CompressionStats {
            uncompressed_bytes: 100,
            compressed_bytes: 150,
            ..Default::default()
        };
        assert_eq!(s.saved(), 0);
        assert!(s.ratio() < 1.0);
    }
}

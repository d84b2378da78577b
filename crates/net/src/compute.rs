/// Hardware tier of an edge device, mirroring the paper's test-bed mix of
/// NVIDIA Jetson TX2 (slower) and Xavier NX (faster) boards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceTier {
    /// Jetson-TX2-class device.
    Tx2,
    /// Xavier-NX-class device (roughly twice the training throughput).
    Nx,
}

impl DeviceTier {
    /// Training throughput in samples/second for the simulated model scale.
    pub fn samples_per_second(self) -> f64 {
        match self {
            DeviceTier::Tx2 => 600.0,
            DeviceTier::Nx => 1200.0,
        }
    }
}

/// Heterogeneous per-client compute model.
#[derive(Clone, Debug)]
pub struct ClientCompute {
    tiers: Vec<DeviceTier>,
}

impl ClientCompute {
    /// All clients on the same tier.
    pub fn homogeneous(k: usize, tier: DeviceTier) -> Self {
        Self { tiers: vec![tier; k] }
    }

    /// The test-bed mix: alternating TX2 and NX devices (the paper uses 15
    /// of each among 30 devices).
    pub fn testbed_mix(k: usize) -> Self {
        let tiers =
            (0..k).map(|i| if i % 2 == 0 { DeviceTier::Tx2 } else { DeviceTier::Nx }).collect();
        Self { tiers }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether there are no clients.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Seconds for client `i` to run one local epoch over `samples` samples.
    pub fn epoch_time(&self, i: usize, samples: usize) -> f64 {
        samples as f64 / self.tiers[i].samples_per_second()
    }

    /// [`Self::epoch_time`] with a fault-injected straggler multiplier
    /// layered on (see [`crate::FaultModel::slowdown`]); `slowdown` must be
    /// at least 1.
    pub fn epoch_time_slowed(&self, i: usize, samples: usize, slowdown: f64) -> f64 {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        self.epoch_time(i, samples) * slowdown
    }

    /// Computation *cost* `c_k` of one epoch on client `i` — proportional to
    /// the local data volume, as in the paper's problem formulation
    /// (Sec. II-D). Measured in sample-passes.
    pub fn epoch_cost(&self, _i: usize, samples: usize) -> f64 {
        samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nx_is_faster_than_tx2() {
        let c = ClientCompute::testbed_mix(4);
        assert_eq!(c.tiers[0], DeviceTier::Tx2);
        assert_eq!(c.tiers[1], DeviceTier::Nx);
        assert!(c.epoch_time(0, 600) > c.epoch_time(1, 600));
        assert!((c.epoch_time(0, 600) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_is_proportional_to_data() {
        let c = ClientCompute::homogeneous(2, DeviceTier::Nx);
        assert_eq!(c.epoch_cost(0, 100), 100.0);
        assert_eq!(c.epoch_cost(1, 300), 300.0);
    }
}

//! A fleet-scale MEC topology in O(LANs) memory.
//!
//! [`fedmigr_net::Topology`] stores the C2C bandwidth and link-class
//! matrices densely — `K × K` entries, ~800 MB at `K = 10,000` — which by
//! itself sinks the fleet memory budget (peak RSS must scale with
//! participants-per-round, not `K`). [`FleetTopology`] stores only the LAN
//! layout and link parameters and derives any pair's bandwidth on demand:
//! intra-LAN links are fast, cross-LAN links are classed moderate/slow by a
//! splitmix hash of the unordered client pair (the dense topology draws the
//! classes from a sequential RNG over all pairs, which cannot be reproduced
//! in O(1), so the fleet topology is its own seeded world — fleet mode is a
//! new opt-in path, not a byte-compatible replay of the dense one).

use fedmigr_net::LinkClass;

/// Configuration of a [`FleetTopology`]. Bandwidths default to the paper's
/// edge test-bed (50 Mbps WAN, 400 Mbps LAN, 100/16 Mbps cross-LAN).
#[derive(Clone, Debug)]
pub struct FleetTopologyConfig {
    /// Number of clients in each LAN; the sum is the fleet size `K`.
    pub lan_sizes: Vec<usize>,
    /// C2S (WAN) bandwidth in bytes/second.
    pub c2s_bandwidth: f64,
    /// Intra-LAN C2C bandwidth in bytes/second.
    pub lan_bandwidth: f64,
    /// Bandwidth of `Moderate` cross-LAN links in bytes/second.
    pub cross_moderate_bandwidth: f64,
    /// Bandwidth of `Slow` cross-LAN links in bytes/second.
    pub cross_slow_bandwidth: f64,
    /// Probability that a cross-LAN link is `Slow`.
    pub slow_fraction: f64,
    /// Relative amplitude of per-epoch multiplicative bandwidth jitter in
    /// `[0, 1)`.
    pub jitter: f64,
    /// Seed for link-class hashing and jitter.
    pub seed: u64,
}

impl FleetTopologyConfig {
    /// The paper's edge defaults over `num_lans` LANs of `per_lan` clients.
    pub fn uniform(num_lans: usize, per_lan: usize, seed: u64) -> Self {
        Self {
            lan_sizes: vec![per_lan; num_lans],
            c2s_bandwidth: 6.25e6,
            lan_bandwidth: 5.0e7,
            cross_moderate_bandwidth: 1.25e7,
            cross_slow_bandwidth: 2.0e6,
            slow_fraction: 0.3,
            jitter: 0.0,
            seed,
        }
    }
}

/// Compact fleet topology: LAN offsets plus closed-form link derivation.
#[derive(Clone, Debug)]
pub struct FleetTopology {
    /// `offsets[l]..offsets[l + 1]` are the clients of LAN `l`.
    offsets: Vec<usize>,
    cfg: FleetTopologyConfig,
}

impl FleetTopology {
    /// Builds the topology.
    ///
    /// # Panics
    /// Panics on an empty fleet, a non-positive bandwidth, or jitter
    /// outside `[0, 1)`.
    pub fn new(cfg: FleetTopologyConfig) -> Self {
        let k: usize = cfg.lan_sizes.iter().sum();
        assert!(k > 0, "fleet topology needs at least one client");
        assert!(
            cfg.c2s_bandwidth > 0.0
                && cfg.lan_bandwidth > 0.0
                && cfg.cross_moderate_bandwidth > 0.0
                && cfg.cross_slow_bandwidth > 0.0,
            "bandwidths must be positive"
        );
        assert!((0.0..1.0).contains(&cfg.jitter), "jitter must be in [0, 1)");
        let mut offsets = Vec::with_capacity(cfg.lan_sizes.len() + 1);
        let mut sum = 0usize;
        offsets.push(0);
        for &s in &cfg.lan_sizes {
            assert!(s > 0, "every LAN needs at least one client");
            sum += s;
            offsets.push(sum);
        }
        Self { offsets, cfg }
    }

    /// Fleet size `K`.
    pub fn num_clients(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Number of LANs.
    pub fn num_lans(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The link parameters this topology was built from.
    pub fn config(&self) -> &FleetTopologyConfig {
        &self.cfg
    }

    /// LAN index of client `i`.
    pub fn lan_of(&self, i: usize) -> usize {
        assert!(i < self.num_clients(), "client {i} out of range");
        // partition_point returns the first offset > i; offsets[0] = 0.
        self.offsets.partition_point(|&o| o <= i) - 1
    }

    /// Whether clients `i` and `j` share a LAN.
    pub fn same_lan(&self, i: usize, j: usize) -> bool {
        self.lan_of(i) == self.lan_of(j)
    }

    /// C2S (WAN) bandwidth at `epoch` in bytes/second.
    pub fn c2s_bandwidth(&self, epoch: usize) -> f64 {
        self.cfg.c2s_bandwidth * self.jitter_factor(epoch, u64::MAX)
    }

    /// Speed class of the `i ↔ j` link, derived by hashing the unordered
    /// pair (stable across epochs, symmetric by construction).
    ///
    /// # Panics
    /// Panics on the degenerate `i == j` "link".
    pub fn link_class(&self, i: usize, j: usize) -> LinkClass {
        assert_ne!(i, j, "self-link has no class");
        if self.same_lan(i, j) {
            return LinkClass::Fast;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        let h = splitmix(self.cfg.seed ^ 0x5A5A_1234, a.wrapping_mul(0x1_0000_0001) ^ b);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.cfg.slow_fraction {
            LinkClass::Slow
        } else {
            LinkClass::Moderate
        }
    }

    /// C2C bandwidth between clients `i` and `j` at `epoch` in
    /// bytes/second, with per-epoch jitter applied.
    ///
    /// # Panics
    /// Panics on the degenerate `i == j` "link".
    pub fn c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> f64 {
        let base = match self.link_class(i, j) {
            LinkClass::Fast => self.cfg.lan_bandwidth,
            LinkClass::Moderate => self.cfg.cross_moderate_bandwidth,
            LinkClass::Slow => self.cfg.cross_slow_bandwidth,
        };
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        base * self.jitter_factor(epoch, a.wrapping_mul(0x1_0000_0001) ^ b)
    }

    /// Deterministic multiplicative jitter in `[1 - jitter, 1 + jitter]`.
    fn jitter_factor(&self, epoch: usize, link: u64) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let h = splitmix(self.cfg.seed.wrapping_add(epoch as u64), link);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.cfg.jitter * (2.0 * unit - 1.0)
    }
}

/// Splitmix-style finalizer over a (seed, payload) pair.
fn splitmix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::new(FleetTopologyConfig::uniform(4, 25, 7))
    }

    #[test]
    fn lan_membership_matches_offsets() {
        let t = topo();
        assert_eq!(t.num_clients(), 100);
        assert_eq!(t.num_lans(), 4);
        assert_eq!(t.lan_of(0), 0);
        assert_eq!(t.lan_of(24), 0);
        assert_eq!(t.lan_of(25), 1);
        assert_eq!(t.lan_of(99), 3);
        assert!(t.same_lan(0, 24));
        assert!(!t.same_lan(24, 25));
        assert_eq!((t.lan_of(50), t.lan_of(74), t.lan_of(75)), (2, 2, 3));
    }

    #[test]
    fn links_are_symmetric_and_classed() {
        let t = topo();
        let (mut slow, mut total) = (0usize, 0usize);
        for i in 0..25 {
            for j in 25..100 {
                assert_eq!(t.link_class(i, j), t.link_class(j, i));
                assert_eq!(t.c2c_bandwidth(i, j, 3), t.c2c_bandwidth(j, i, 3));
                assert_ne!(t.link_class(i, j), LinkClass::Fast);
                total += 1;
                if t.link_class(i, j) == LinkClass::Slow {
                    slow += 1;
                }
            }
        }
        let frac = slow as f64 / total as f64;
        assert!((0.2..0.4).contains(&frac), "slow fraction {frac}");
        assert_eq!(t.link_class(0, 1), LinkClass::Fast);
        assert!(t.c2c_bandwidth(0, 1, 0) > t.c2s_bandwidth(0));
    }

    #[test]
    fn jitter_is_bounded_and_varies() {
        let mut cfg = FleetTopologyConfig::uniform(2, 5, 3);
        cfg.jitter = 0.2;
        let t = FleetTopology::new(cfg);
        let base = topo().cfg.cross_moderate_bandwidth;
        let mut distinct = std::collections::HashSet::new();
        for e in 0..10 {
            let bw = t.c2c_bandwidth(0, 5, e);
            assert!(bw >= 2.0e6 * 0.8 && bw <= base * 1.2 + 1.0);
            distinct.insert(bw.to_bits());
        }
        assert!(distinct.len() > 5, "jitter should vary across epochs");
    }

    #[test]
    fn memory_is_independent_of_k() {
        // The whole point: a million-client topology is just the offsets.
        let t = FleetTopology::new(FleetTopologyConfig::uniform(100, 10_000, 1));
        assert_eq!(t.num_clients(), 1_000_000);
        assert_eq!(t.offsets.len(), 101);
        let _ = t.c2c_bandwidth(3, 999_999, 5);
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let _ = topo().link_class(2, 2);
    }
}
